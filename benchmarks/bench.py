"""Layer timings of the reproduction path, recorded in a BENCH_<n>.json file.

Times, each as the median, minimum and maximum of ``REPEATS`` runs:

- ``harness.write_csv`` on the ``efm-appendixE`` trace (all ten columns
  filled) at T = 5000 and T = 50 000;
- the least-Frobenius grid of ``suite_lmo``, as ``suite_lmo(trials=1)``: the
  grid's 20 x 400 candidates do not depend on ``trials``, and at one trial the
  other sixteen checks take one sample each;
- ``muonlab verify`` for every suite, output discarded;
- ``optim.run`` on the 2x2 counterexample function for ``STEP_T`` steps, in
  microseconds per step, for each rule but the product ones: ``regmuon``
  with ``AdaptiveNuclear(0.05)``, ``efmuon`` with ``InvSqrtT`` and the
  running average, and the others with a ``Table`` and, as in ``verify
  cex2``, without it.  These take ``run``'s float loop where the library has
  one; one more row runs ``muon`` through a ``FunctionOracle`` of the same
  function, which keeps the general loop measured;
- ``optim.run`` of zero steps (``muon``, ``Table``), in microseconds per
  call: the fixed cost of a run, the float loop's dispatch and post-pass;
- ``optim.run_batch`` on that function for ``BATCH_T`` steps at each batch
  size in ``BATCH_SIZES``, in microseconds per member-step: ``muon`` with a
  ``Table`` and ``regmuon`` with ``AdaptiveNuclear(0.05)``, as in ``verify
  cex2``, and ``efmuon`` with ``InvSqrtT``, from dense 2x2 starts.  A set-up
  the library refuses with ``ValueError`` is left out;
- one ``evaluate`` of that function's oracle, and one ``KinkyFunction.oracle()``
  construction, in microseconds per call;
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
- each ``optim.step_*`` entry, called in a loop, in microseconds per step:
  ``STEP_T`` steps on the 2x2 counterexample function from a diagonal start
  (the product rules on a one-layer 2x2 ``ProductNormSpec`` point), and
  ``RULE_DENSE_STEPS`` steps on an l1 distance from a dense ``RULE_DENSE_N``
  square start (the product rules on a two-layer point of that width).

Every per-unit figure is given from the median and, under ``*_min``, from the
minimum; on a shared host the minimum is the steadier of the two.

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
# Batch sizes and horizon of the run_batch timings.
BATCH_SIZES = (1, 10, 100, 1000)
BATCH_T = 1000
# Oracle constructions per timing, and the horizon of the cex1_build timings.
ORACLE_BUILDS = 1000
CEX1_HORIZON = 5000
# Members per norm-kernel timing, vector length and matrix shape.
KERNEL_B = 100
KERNEL_D = 10
KERNEL_MN = (4, 4)
# Matrix sizes of the per-call polar timings, and calls per timing at each.
POLAR_SIZES = (2, 8, 64, 256)
POLAR_CALLS = {2: 1000, 8: 1000, 64: 100, 256: 10}
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
            ("regmuon+AdaptiveNuclear", "regmuon", optim.AdaptiveNuclear(0.05), False, None),
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

    def empty_runs():
        for _ in range(EMPTY_RUNS):
            optim.run("muon", oracle, state, 0, track_average=False)
    timings["run[muon+Table,T=0]"] = _per_unit(_timed(empty_runs), "us_per_call", EMPTY_RUNS)

    def evaluate():
        for _ in range(ORACLE_CALLS):
            oracle.evaluate(W)
    timings["oracle.evaluate"] = _per_unit(_timed(evaluate), "us_per_call", ORACLE_CALLS)
    timings["KinkyFunction.oracle"] = _per_unit(_timed(
        lambda: [fn.oracle() for _ in range(ORACLE_BUILDS)]), "us_per_call", ORACLE_BUILDS)
    for schedule in (optim.InvT(), optim.Constant(0.2)):
        timings[f"cex1_build[{schedule!r},horizon={CEX1_HORIZON}]"] = _per_unit(_timed(
            lambda: cex.cex1_build(0.5, schedule, horizon=CEX1_HORIZON)), "us_per_call", 1)
    return timings


def _batch_timings() -> dict:
    import numpy as np
    from muonlab import counterexample as cex
    from muonlab import optim

    fn = cex.KinkyFunction(c=0.3)
    table = optim.Table(tuple(np.random.default_rng(0).uniform(0.01, 0.3, BATCH_T)))
    timings = {}
    for label, method, schedule in (("muon+Table", "muon", table),
                                    ("regmuon+AdaptiveNuclear", "regmuon",
                                     optim.AdaptiveNuclear(0.05)),
                                    ("efmuon+InvSqrtT", "efmuon", optim.InvSqrtT())):
        for B in BATCH_SIZES:
            rng = np.random.default_rng(B)
            states = [optim.OptimizerState(W=rng.standard_normal((2, 2)), beta=0.2,
                                           schedule=schedule) for _ in range(B)]
            try:
                optim.run_batch(method, [fn], states[:1], 1)
            except ValueError:
                continue  # this library's run_batch does not run the set-up
            timings[f"run_batch[{label},B={B}]"] = _per_unit(_timed(
                lambda: optim.run_batch(method, [fn] * B, states, BATCH_T)),
                "us_per_member_step", B * BATCH_T)
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
                lambda: [fn(W, spec) for W in members]), "us_per_call", KERNEL_B)
            stacked = getattr(norms, f"{fname}_stack", None)
            if stacked is not None:
                timings[f"{fname}_stack[{spec!r}]"] = _per_unit(_timed(
                    lambda: stacked(stack, spec)), "us_per_member", KERNEL_B)
    return timings


def _polar_timings() -> dict:
    import numpy as np
    from muonlab import linalg

    rng = np.random.default_rng(0)
    timings = {}
    stack = rng.standard_normal((KERNEL_B, *KERNEL_MN))
    timings["polar_newton_schulz[4x4]"] = _per_unit(_timed(
        lambda: [linalg.polar_newton_schulz(A) for A in stack]), "us_per_call", KERNEL_B)
    stacked = getattr(linalg, "polar_newton_schulz_stack", None)
    if stacked is not None:
        timings["polar_newton_schulz_stack[4x4]"] = _per_unit(_timed(
            lambda: stacked(stack)), "us_per_member", KERNEL_B)
    for n in POLAR_SIZES:
        A, calls = rng.standard_normal((n, n)), POLAR_CALLS[n]
        for fname in ("polar_newton_schulz", "polar_exact"):
            fn = getattr(linalg, fname)
            timings[f"{fname}[{n}x{n}]"] = _per_unit(_timed(
                lambda: [fn(A) for _ in range(calls)]), "us_per_call", calls)
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
        for T in (5000, 50_000):
            cfg = {**harness.PRESETS["efm-appendixE"](), "T": T}
            trace, bound, _ = harness.run_experiment(cfg)
            path = os.path.join(tmp, f"efm-{T}.csv")
            timings[f"write_csv[T={T}]"] = _timed(
                lambda: harness.write_csv(path, trace, bound))
            timings[f"write_csv[T={T}]"]["bytes"] = os.path.getsize(path)
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
            "timings": {**timings, **_step_timings(), **_batch_timings(), **_kernel_timings(),
                        **_polar_timings(), **_rule_timings()}}


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
                                                   "us_per_member_step") if k in t), "")
        print(f"{name:44s} {t['median_ms']:10.2f} ms{per}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
