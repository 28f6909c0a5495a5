"""Layer timings of the reproduction path, recorded in a BENCH_<n>.json file.

Times, each as the median, minimum and maximum of ``REPEATS`` runs:

- ``harness.write_csv`` on the ``efm-appendixE`` trace (all ten columns
  filled) at T = 5000 and T = 50 000, and on the ``cex1-appendixE`` trace
  (its ``bound`` column NaN) at T = 5000, in microseconds per row;
- the least-Frobenius grid of ``suite_lmo``, as ``suite_lmo(trials=1)``: the
  grid's 20 x 400 candidates do not depend on ``trials``, and at one trial the
  other sixteen checks take one sample each;
- ``muonlab verify`` for every suite, output discarded;
- ``optim.run`` on the 2x2 counterexample function for ``STEP_T`` steps, in
  microseconds per step, for each rule but the product ones: ``efmuon`` with
  ``InvSqrtT`` and the running average, and the others with a ``Table`` of
  ``STEP_T`` stepsizes and, as in ``verify cex2``, without it.  A run under
  a stepsize that varies to the end never repeats its state, so each of
  these takes ``run``'s float loop to T where the library has one; one more
  row runs ``muon`` through a ``FunctionOracle`` of the same function, which
  keeps the general loop measured;
- ``optim.run`` of zero steps (``muon``, ``Table``), in microseconds per
  call: the fixed cost of a run, the float loop's dispatch and post-pass;
- ``optim.run`` shaped like a ``cex-sweep`` item of ``perfbench``: ``muon``
  with a ``Table`` and ``regmuon`` with ``AdaptiveNuclear(0.05)`` for
  ``SWEEP_T`` steps from a dense 2x2 start, the function built for every
  run, in microseconds per call;
- ``optim.run`` for ``LONG_T`` steps without the running average:
  ``regmuon`` with ``AdaptiveNuclear(0.05)`` and ``muon`` with
  ``Constant(0.2)``, which stop their float loop once the state repeats,
  in microseconds per step;
- ``optim.offline_stepsizes`` of ``InvT``, ``InvSqrtT`` and a ``Table`` for
  ``OFFLINE_N`` steps, in microseconds per call;
- one ``evaluate`` of the 2x2 counterexample function's oracle, in microseconds
  per call;
- the inputs a ``cex-sweep`` item of ``perfbench`` builds before its run, in
  microseconds per call: ``OptimizerState(...)`` from a dense 2x2 start,
  ``KinkyFunction(c)``, and ``KinkyFunction(c).oracle()``, the oracle an
  item runs on, each for one c built over and over, as a sweep builds its
  functions, and ``KinkyFunction(c)`` for a new c at each call;
- ``KinkyFunction.grad_fro``, the gradient-norm column of a float-loop run's
  post-pass, on the diagonals of a ``muon`` run with a ``Table`` for each T
  in ``GRAD_FRO_T``, in microseconds per call;
- ``counterexample.cex1_build`` at horizon ``CEX1_HORIZON`` with ``InvT`` and
  with ``Constant(0.2)``, in microseconds per call;
- ``muonlab run`` for each preset, CSV and sidecar written, in microseconds
  per step;
- ``norms.lmo_min`` and ``norms.compress`` for each spec of the ``verify``
  suites (vectors of length ``KERNEL_D``, ``KERNEL_MN`` matrices, the suites'
  product spec), in microseconds per call over ``KERNEL_B`` members, and
  their ``*_stack`` forms on those ``KERNEL_B`` members as one stack, in
  microseconds per member (left out where the library has no stack form);
- ``linalg.polar_newton_schulz`` per call on ``KERNEL_B`` matrices of shape
  ``KERNEL_MN``, and ``polar_newton_schulz_stack`` on them as one stack, in
  microseconds per member (left out where the library has no stack form);
- ``linalg.polar_newton_schulz`` and ``linalg.polar_exact`` on one Gaussian
  n x n matrix for each n in ``POLAR_SIZES``, in microseconds per call;
- the other per-call routes of the exact kernels, in microseconds per call:
  ``polar_exact`` on one diagonal and one rank-deficient (rank n // 2, at
  least 1) n x n matrix, and ``norms.dual_norm_and_lmo`` of ``OperatorNorm``
  (the polar factor and the nuclear norm from one SVD, rows
  ``dual_norm_and_lmo[op]``) on one Gaussian and one diagonal n x n matrix,
  for each n in ``EXACT_POLAR_SIZES``;
  ``norms.primal_norm`` of ``OperatorNorm`` and ``NuclearNorm`` (rows
  ``norm[op]`` and ``norm[nuc]``) on a Gaussian and a diagonal one for each n
  in ``EXACT_NORM_SIZES``.  The diagonal of a diagonal one is Gaussian;
- the four stack kernels of the exact polar factor and the matrix norms
  (``linalg.polar_exact_stack``, ``linalg.polar_and_nuclear_stack``, and
  ``norms.primal_norm_stack`` of ``OperatorNorm`` and ``NuclearNorm``, rows
  ``norm_stack[op]`` and ``norm_stack[nuc]``) on n x n stacks for each n in
  ``STACK_CALLS``, in microseconds per call: one Gaussian member (B = 1), and
  B = 8 with one Gaussian member among diagonal ones;
- each ``optim.step_*`` entry, called in a loop, in microseconds per step:
  ``STEP_T`` steps on the 2x2 counterexample function from a diagonal start
  (the product rules on a one-layer 2x2 ``ProductNormSpec`` point), and
  ``RULE_DENSE_STEPS`` steps on an l1 distance from a dense ``RULE_DENSE_N``
  square start (the product rules on a two-layer point of that width).

Every per-unit figure is given from the median and, under ``*_min``, from the
minimum; on a shared host the minimum is the steadier of the two.  A timing
of many calls frees each result before the next call, so it does not time
the allocator's growth and page faults for results kept alive.

Each run is stored under ``--label`` in the output file, beside the runs
already there, so that running the script on two checkouts records a
before/after pair on the same machine::

    PYTHONPATH=/path/to/parent/src python3 benchmarks/bench.py --label parent --out BENCH_12.json
    PYTHONPATH=src python3 benchmarks/bench.py --label change --out BENCH_12.json

BLAS is held at one thread, as in ``perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 5
# Steps per optim.run timing, oracle calls per evaluate timing, and runs of
# zero steps per fixed-cost timing.
STEP_T = 2000
ORACLE_CALLS = 10_000
EMPTY_RUNS = 2000
# Steps and runs per timing of the cex-sweep-shaped run, and the length and
# calls per timing of the offline-stepsize rows.
SWEEP_T = 1000
SWEEP_RUNS = 200
# Steps per timing of the long-horizon run rows.
LONG_T = 100_000
OFFLINE_N = 5000
OFFLINE_CALLS = 200
# Constructions and grad_fro calls per timing, and the horizon of the
# cex1_build timings.
ORACLE_BUILDS = 1000
CEX1_HORIZON = 5000
# Horizons of the runs whose diagonals the grad_fro timings read.
GRAD_FRO_T = (0, 1000)
# Members per norm-kernel timing, vector length and matrix shape.
KERNEL_B = 100
KERNEL_D = 10
KERNEL_MN = (4, 4)
# Matrix sizes of the per-call polar timings, and calls per timing at each.
POLAR_SIZES = (2, 8, 64, 256)
POLAR_CALLS = {2: 1000, 8: 1000, 64: 100, 256: 10}
# Matrix sizes of the other per-call exact-kernel timings, and calls per
# timing of a diagonal matrix at every size (a dense one takes POLAR_CALLS).
EXACT_POLAR_SIZES = (2, 256)
EXACT_NORM_SIZES = (2, 64, 256)
DIAGONAL_CALLS = 1000
# Matrix sizes of the stack-kernel timings with calls per timing at
# each, and their stack sizes.
STACK_CALLS = {2: 1000, 64: 100}
STACK_SIZES = (1, 8)
# The step entries, named here so that the script also runs on commits
# without optim.RULES, and the dense set-up of their timings.
STEP_METHODS = ("specgd", "muon", "regmuon", "signgd", "signmomentum", "efmuon",
                "muonmax", "efmuonmax")
RULE_DENSE_N = 64
RULE_DENSE_STEPS = 20


def _timed(fn) -> dict:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return {"median_ms": statistics.median(times), "min_ms": min(times),
            "max_ms": max(times), "repeats": REPEATS}


def _calls(fn, args):
    """A timing body that calls ``fn(*a)`` for each ``a`` in ``args``,
    dropping each result before the next call."""
    def loop():
        for a in args:
            fn(*a)
    return loop


def _per_unit(timing: dict, key: str, units: int) -> dict:
    """``timing`` with its median and its minimum, in microseconds per unit,
    stored under ``key`` and ``key + "_min"``."""
    timing[key] = timing["median_ms"] * 1e3 / units
    timing[key + "_min"] = timing["min_ms"] * 1e3 / units
    return timing


def _step_timings() -> dict:
    import numpy as np
    from muonlab import counterexample as cex
    from muonlab import optim

    fn = cex.KinkyFunction(c=0.3)
    table = optim.Table(tuple(np.random.default_rng(0).uniform(0.01, 0.3, STEP_T)))
    general = optim.FunctionOracle(fn.value, fn.subgradient)
    timings = {}
    for label, method, schedule, track_average, oracle in (
            ("specgd+Table", "specgd", table, False, None),
            ("muon+Table", "muon", table, False, None),
            ("regmuon+Table", "regmuon", table, False, None),
            ("signgd+Table", "signgd", table, False, None),
            ("signmomentum+Table", "signmomentum", table, False, None),
            ("efmuon+InvSqrtT+average", "efmuon", optim.InvSqrtT(), True, None),
            ("muon+Table+FunctionOracle", "muon", table, False, general)):
        state = optim.OptimizerState(W=np.diag([1.0, -0.5]), beta=0.2, schedule=schedule)
        timings[f"run[{label}]"] = _per_unit(_timed(
            lambda: optim.run(method, oracle or fn.oracle(), state, STEP_T,
                              track_average=track_average)),
            "us_per_step", STEP_T)
    oracle, W = fn.oracle(), np.diag([1.0, -0.5])
    state = optim.OptimizerState(W=W, beta=0.2, schedule=table)
    timings["run[muon+Table,T=0]"] = _per_unit(_timed(
        _calls(optim.run, [("muon", oracle, state, 0, False)] * EMPTY_RUNS)),
        "us_per_call", EMPTY_RUNS)
    W_sweep = np.random.default_rng(1).standard_normal((2, 2))
    for label, method, schedule in (
            ("muon+Table", "muon", optim.Table(table.values[:SWEEP_T])),
            ("regmuon+AdaptiveNuclear", "regmuon", optim.AdaptiveNuclear(0.05))):
        sweep_state = optim.OptimizerState(W=W_sweep, beta=0.2, schedule=schedule)

        def sweep_runs(method=method, sweep_state=sweep_state):
            for _ in range(SWEEP_RUNS):
                optim.run(method, cex.KinkyFunction(c=0.3).oracle(), sweep_state, SWEEP_T,
                          track_average=False)
        timings[f"run[{label},T={SWEEP_T}]+oracle"] = _per_unit(
            _timed(sweep_runs), "us_per_call", SWEEP_RUNS)
    for label, method, schedule in (
            ("regmuon+AdaptiveNuclear", "regmuon", optim.AdaptiveNuclear(0.05)),
            ("muon+Constant(0.2)", "muon", optim.Constant(0.2))):
        long_state = optim.OptimizerState(W=W_sweep, beta=0.2, schedule=schedule)
        timings[f"run[{label},T={LONG_T}]"] = _per_unit(_timed(
            lambda: optim.run(method, fn.oracle(), long_state, LONG_T, track_average=False)),
            "us_per_step", LONG_T)
    offline_table = optim.Table(tuple(np.random.default_rng(2).uniform(0.01, 0.3, OFFLINE_N)))
    for label, schedule in (("InvT", optim.InvT()), ("InvSqrtT", optim.InvSqrtT()),
                            ("Table", offline_table)):
        timings[f"offline_stepsizes[{label},n={OFFLINE_N}]"] = _per_unit(_timed(
            _calls(optim.offline_stepsizes, [(schedule, 0, OFFLINE_N)] * OFFLINE_CALLS)),
            "us_per_call", OFFLINE_CALLS)
    timings["oracle.evaluate"] = _per_unit(_timed(
        _calls(oracle.evaluate, [(W,)] * ORACLE_CALLS)), "us_per_call", ORACLE_CALLS)
    for label, build in (
            ("OptimizerState(...)",
             lambda: optim.OptimizerState(W=W_sweep, beta=0.2, schedule=table)),
            ("KinkyFunction(c)", lambda: cex.KinkyFunction(c=0.3)),
            ("KinkyFunction(c).oracle()", lambda: cex.KinkyFunction(c=0.3).oracle())):
        timings[label] = _per_unit(_timed(_calls(build, [()] * ORACLE_BUILDS)),
                                   "us_per_call", ORACLE_BUILDS)
    # A new c for every call of every repeat: no function is built twice.
    fresh = iter(np.linspace(0.01, 0.99, ORACLE_BUILDS * REPEATS).tolist())
    timings["KinkyFunction(c),new c"] = _per_unit(_timed(
        _calls(lambda: cex.KinkyFunction(c=next(fresh)), [()] * ORACLE_BUILDS)),
        "us_per_call", ORACLE_BUILDS)
    tr = optim.run("muon", oracle, state, max(GRAD_FRO_T), track_average=False)
    for T in GRAD_FRO_T:
        S, D = tr.sum_diag[:T + 1], tr.diff_diag[:T + 1]
        timings[f"KinkyFunction.grad_fro[T={T}]"] = _per_unit(_timed(
            _calls(oracle.grad_fro, [(S, D)] * ORACLE_BUILDS)), "us_per_call", ORACLE_BUILDS)
    for schedule in (optim.InvT(), optim.Constant(0.2)):
        timings[f"cex1_build[{schedule!r},horizon={CEX1_HORIZON}]"] = _per_unit(_timed(
            lambda: cex.cex1_build(0.5, schedule, horizon=CEX1_HORIZON)), "us_per_call", 1)
    return timings


def _kernel_timings() -> dict:
    import numpy as np
    from muonlab import harness, norms

    rng = np.random.default_rng(0)
    timings = {}
    for spec in harness._basic_specs() + [harness._product_spec()]:
        if isinstance(spec, norms.ProductNormSpec):
            stack = ([rng.standard_normal((KERNEL_B, *dims)) for dims in spec.layer_dims],
                     rng.standard_normal((KERNEL_B, spec.k)))
            members = [norms.ParamPoint([M[b] for M in stack[0]], stack[1][b])
                       for b in range(KERNEL_B)]
        else:
            shape = KERNEL_MN if isinstance(spec, (norms.OperatorNorm, norms.NuclearNorm)) \
                else (KERNEL_D,)
            stack = rng.standard_normal((KERNEL_B, *shape))
            members = list(stack)
        for fname in ("lmo_min", "compress"):
            fn = getattr(norms, fname)
            timings[f"{fname}[{spec!r}]"] = _per_unit(_timed(
                _calls(fn, [(W, spec) for W in members])), "us_per_call", KERNEL_B)
            stacked = getattr(norms, f"{fname}_stack", None)
            if stacked is not None:
                timings[f"{fname}_stack[{spec!r}]"] = _per_unit(_timed(
                    lambda: stacked(stack, spec)), "us_per_member", KERNEL_B)
    return timings


def _polar_timings() -> dict:
    import numpy as np
    from muonlab import linalg, norms

    rng = np.random.default_rng(0)
    timings = {}
    stack = rng.standard_normal((KERNEL_B, *KERNEL_MN))
    timings["polar_newton_schulz[4x4]"] = _per_unit(_timed(
        _calls(linalg.polar_newton_schulz, [(A,) for A in stack])), "us_per_call", KERNEL_B)
    stacked = getattr(linalg, "polar_newton_schulz_stack", None)
    if stacked is not None:
        timings["polar_newton_schulz_stack[4x4]"] = _per_unit(_timed(
            lambda: stacked(stack)), "us_per_member", KERNEL_B)
    for n in POLAR_SIZES:
        A, calls = rng.standard_normal((n, n)), POLAR_CALLS[n]
        for fname in ("polar_newton_schulz", "polar_exact"):
            fn = getattr(linalg, fname)
            timings[f"{fname}[{n}x{n}]"] = _per_unit(_timed(
                _calls(fn, [(A,)] * calls)), "us_per_call", calls)
    rows = [("polar_exact", linalg.polar_exact, n, ("diagonal", "rank-deficient"))
            for n in EXACT_POLAR_SIZES]
    rows += [("dual_norm_and_lmo[op]", lambda A, spec=norms.OperatorNorm():
              norms.dual_norm_and_lmo(A, spec), n, ("dense", "diagonal"))
             for n in EXACT_POLAR_SIZES]
    rows += [(f"norm[{kind}]", lambda A, spec=spec: norms.primal_norm(A, spec), n,
              ("dense", "diagonal"))
             for kind, spec in (("op", norms.OperatorNorm()), ("nuc", norms.NuclearNorm()))
             for n in EXACT_NORM_SIZES]
    for label, fn, n, forms in rows:
        for form in forms:
            if form == "dense":
                A, calls, name = rng.standard_normal((n, n)), POLAR_CALLS[n], f"{n}x{n}"
            elif form == "rank-deficient":
                r = max(1, n // 2)
                A = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
                calls, name = POLAR_CALLS[n], f"{n}x{n},{form}"
            else:
                A, calls, name = np.diag(rng.standard_normal(n)), DIAGONAL_CALLS, f"{n}x{n},{form}"
            timings[f"{label}[{name}]"] = _per_unit(_timed(
                _calls(fn, [(A,)] * calls)), "us_per_call", calls)
    return timings


def _stack_timings() -> dict:
    import numpy as np
    from muonlab import linalg, norms

    kernels = {"polar_exact_stack": linalg.polar_exact_stack,
               "polar_and_nuclear_stack": linalg.polar_and_nuclear_stack,
               "norm_stack[op]": lambda A: norms.primal_norm_stack(A, norms.OperatorNorm()),
               "norm_stack[nuc]": lambda A: norms.primal_norm_stack(A, norms.NuclearNorm())}
    rng = np.random.default_rng(0)
    timings = {}
    for n, calls in STACK_CALLS.items():
        for B in STACK_SIZES:
            A = np.zeros((B, n, n))
            A[:, np.arange(n), np.arange(n)] = rng.standard_normal((B, n))
            A[B // 2] = rng.standard_normal((n, n))  # the lone non-diagonal member
            for label, fn in kernels.items():
                timings[f"{label}[{n}x{n},B={B}]"] = _per_unit(_timed(
                    _calls(fn, [(A,)] * calls)), "us_per_call", calls)
    return timings


def _l1_oracle(target):
    """f(W) = ||W - target||_1 with subgradient sign(W - target), blockwise."""
    import numpy as np
    from muonlab import norms, optim

    if isinstance(target, norms.ParamPoint):
        def value(W):
            D = W - target
            return sum(float(np.abs(M).sum()) for M in D.matrices) + float(np.abs(D.theta).sum())

        def subgrad(W):
            D = W - target
            return norms.ParamPoint([np.sign(M) for M in D.matrices], np.sign(D.theta))
    else:
        def value(W):
            return float(np.abs(W - target).sum())

        def subgrad(W):
            return np.sign(W - target)
    return optim.FunctionOracle(value, subgrad)


def _rule_timings() -> dict:
    import numpy as np
    from muonlab import counterexample as cex
    from muonlab import norms, optim

    rng = np.random.default_rng(0)
    n = RULE_DENSE_N

    def point(spec):
        return norms.ParamPoint([rng.standard_normal(d) for d in spec.layer_dims],
                                rng.standard_normal(spec.k))

    small = norms.ProductNormSpec(layer_dims=((2, 2),), s=1.0, k=1)
    wide = norms.ProductNormSpec(layer_dims=((n, n), (n, n // 2)), s=1.0, k=8)
    setups = {
        "2x2": (np.diag([1.0, -0.5]), cex.KinkyFunction(c=0.3).oracle(), None, STEP_T),
        "2x2-product": (point(small), _l1_oracle(point(small)), small, STEP_T),
        "dense": (rng.standard_normal((n, n)), _l1_oracle(rng.standard_normal((n, n))),
                  None, RULE_DENSE_STEPS),
        "dense-product": (point(wide), _l1_oracle(point(wide)), wide, RULE_DENSE_STEPS),
    }
    timings = {}
    for method in STEP_METHODS:
        step = getattr(optim, f"step_{method}")
        product = method in ("muonmax", "efmuonmax")
        for size in ("2x2", "dense"):
            W0, oracle, spec, steps = setups[size + "-product" if product else size]

            def loop():
                st = optim.OptimizerState(W=W0, beta=0.5, schedule=optim.InvSqrtT(),
                                          spec=spec)
                for _ in range(steps):
                    st, _ = step(st, oracle)
            timings[f"step_{method}[{size}]"] = _per_unit(_timed(loop), "us_per_step", steps)
    return timings


def _source(package) -> dict:
    """The git commit the timed code came from, and whether it was edited."""
    root = os.path.dirname(os.path.abspath(package.__file__))

    def git(*args):
        done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--", ".")
    return {"commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": None if status is None else bool(status)}


def _machine() -> dict:
    import numpy as np
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"cpu": cpu, "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def measure() -> dict:
    import muonlab
    from muonlab import cli, harness

    timings = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, T in (("efm-appendixE", 5000), ("efm-appendixE", 50_000),
                        ("cex1-appendixE", 5000)):
            trace, bound, _ = harness.run_experiment({**harness.PRESETS[name](), "T": T})
            path = os.path.join(tmp, f"{name}-{T}.csv")
            key = f"write_csv[{name},T={T}]"
            timings[key] = _per_unit(_timed(lambda: harness.write_csv(path, trace, bound)),
                                     "us_per_row", T + 1)
            timings[key]["bytes"] = os.path.getsize(path)
        for name in sorted(harness.PRESETS):
            def run(name=name):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["run", "--preset", name, "--out", os.path.join(tmp, "p.csv")])
            timings[f"run[{name}]"] = _per_unit(_timed(run), "us_per_step",
                                                harness.PRESETS[name]()["T"])
    timings["suite_lmo_grid"] = _timed(lambda: harness.suite_lmo(trials=1))
    for suite in sorted(harness.SUITES):
        def verify(suite=suite):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["verify", suite])
        timings[f"verify[{suite}]"] = _timed(verify)
    return {"source": _source(muonlab), "machine": _machine(),
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "timings": {**timings, **_step_timings(), **_kernel_timings(),
                        **_polar_timings(), **_stack_timings(), **_rule_timings()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the output file, e.g. parent or change")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json file to add the run to")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy is first imported, just below

    record = {"script": "benchmarks/bench.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["runs"][args.label] = measure()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, t in record["runs"][args.label]["timings"].items():
        per = next((f"  {t[k]:8.2f} {k}" for k in ("us_per_step", "us_per_call", "us_per_member",
                                                   "us_per_member_step", "us_per_row")
                    if k in t), "")
        print(f"{name:44s} {t['median_ms']:10.2f} ms{per}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
