"""muonlab benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload cex-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; muonlab is imported from ``src/``.
The workload repeats whole cycles (every item once, see workloads.py) in a
closed loop, one caller, until ``--seconds`` have passed, reversing the
order of the item groups every other cycle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced cycles and prints the per-layer metrics taken from the traced
ones; the spans are written to ``.perfbench/trace-<workload>.npz``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it starts with ``# perfbench``
and records the environment and sample counts.  Any failed output check
makes the exit code 1.  ``--smoke`` runs tiny cycles, for tests.
"""

from __future__ import annotations

import os

# Fixed BLAS threading, set before numpy loads.  One thread keeps the
# measurements steady on a small shared machine and never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120

_clock = time.perf_counter


def _import_muonlab():
    if not (SRC / "muonlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no muonlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import muonlab

    if Path(muonlab.__file__).resolve().parent != SRC / "muonlab":
        sys.exit(f"perfbench: imported muonlab from {muonlab.__file__}, not {SRC}")


def _child_import_s() -> float:
    """Seconds a fresh interpreter takes to import muonlab from src/."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import muonlab; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip())


# ---------------------------------------------------------------------------
# Environment record


def _blas_threads():
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _blas_name():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "muonlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy as np
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# Timed cycles
#
# The machine this benchmark was built on is shared: for minutes at a time it
# runs the same code 1.5x slower, with no fast moments to pick from.  So the
# workload's calibration kernel (numpy only, no muonlab) runs before every
# group of items, and each item sample is divided by the median calibration
# time within PAIR_WINDOW_S of it.  An item's time is the median of its
# calibrated samples, in seconds at a reference speed on which the kernel
# takes ``calibration_ref_s``; raw medians go to the info line.

PAIR_WINDOW_S = 2.0


def _quantile(xs, q):
    """The q-th percentile, interpolated between samples (never beyond them)."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Cycles:
    """Item and calibration samples of one run, and its output-check tallies."""

    def __init__(self, items):
        self.items = items
        # samples[traced][j]: (seconds, calibration index) of item j
        self.samples = {False: [[] for _ in items], True: [[] for _ in items]}
        self.calibration = []
        self.calibration_at = []
        self.cycles = Counter()
        self.traced_s = 0.0  # time of all items in traced cycles
        self.kind_steps = Counter()  # steps taken in traced cycles, by item kind
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()

    def calibrate(self, kernel):
        t0 = _clock()
        kernel()
        self.calibration.append(_clock() - t0)
        self.calibration_at.append(t0)

    def paired(self):
        """For each calibration sample, the median of those within the window."""
        at, cal = self.calibration_at, self.calibration
        return [statistics.median(cal[bisect.bisect_left(at, t - PAIR_WINDOW_S):
                                      bisect.bisect_right(at, t + PAIR_WINDOW_S)]) for t in at]

    def item_units(self, traced):
        """Each item's median time in calibration-kernel units."""
        pair = self.paired()
        return [statistics.median(dt / pair[i] for dt, i in xs) if xs else 0.0
                for xs in self.samples[traced]]


def run_cycles(wl, seconds, tracer, min_cycles, between=None):
    """Closed loop over the workload's items, whole cycles, for ``seconds``.

    With a tracer, plain and traced cycles alternate.  ``between`` runs
    after each cycle, outside the timers.
    """
    import instrument

    items = [item for group in wl.groups for item in group]
    index = {id(item): j for j, item in enumerate(items)}
    rec = Cycles(items)
    deadline = _clock() + seconds
    c = 0
    while c < min_cycles or _clock() < deadline:
        traced = tracer is not None and c % 2 == 1
        groups = wl.groups[::-1] if (c // 2) % 2 else wl.groups
        samples = rec.samples[traced]
        with instrument.installed(tracer) if traced else contextlib.nullcontext():
            for group in groups:
                rec.calibrate(wl.calibration)
                for item in group:
                    t0 = _clock()
                    out = tracer.run_item(item.kind, item.run, tracer) if traced else item.run(None)
                    dt = _clock() - t0
                    samples[index[id(item)]].append((dt, len(rec.calibration) - 1))
                    if traced:
                        rec.traced_s += dt
                        rec.kind_steps[item.kind] += item.steps
                    oks = item.check(out)
                    rec.attempted += len(oks)
                    rec.failed += oks.count(False)
                    if not all(oks):
                        rec.failures[item.kind] += 1
        rec.cycles[traced] += 1
        if between is not None:
            between(len(rec.calibration) - 1)
        c += 1
    return rec


def end_to_end(rec, ref_s, setup_units):
    secs = [u * ref_s for u in rec.item_units(False)]
    ms = [t * 1e3 for t in secs]
    stepping = [(t, item.steps) for t, item in zip(secs, rec.items) if item.steps]
    return {
        "setup_s": (setup_units * ref_s, "s"),
        "wall_s": (sum(secs), "s"),
        "steps_per_s": (sum(s for _, s in stepping) / sum(t for t, _ in stepping), "1/s"),
        "item_ms_p50": (_quantile(ms, 50), "ms"),
        "item_ms_p95": (_quantile(ms, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def info(rec, ref_s):
    """Sample counts, the failure ratio and per-kind times for the info line."""
    per_kind = Counter()
    raw_kind = Counter()
    steps = Counter()
    for u, xs, item in zip(rec.item_units(False), rec.samples[False], rec.items):
        per_kind[item.kind] += u * ref_s
        raw_kind[item.kind] += statistics.median(dt for dt, _ in xs) if xs else 0.0
        steps[item.kind] += item.steps
    out = {
        "items": len(rec.items),
        "cycles": rec.cycles[False],
        "traced_cycles": rec.cycles[True],
        "fail_ratio": rec.failed / rec.attempted,
        "failures": dict(rec.failures),
        "calibration_ref_s": ref_s,
        "calibration_median_s": statistics.median(rec.calibration),
        "calibration_samples": len(rec.calibration),
        "kind_s": dict(sorted(per_kind.items())),
        "kind_raw_median_s": dict(sorted(raw_kind.items())),
    }
    preset = [k for k in per_kind if k.startswith("run:")]
    if preset and rec.cycles[False]:
        out["preset_us_per_step"] = (1e6 * sum(per_kind[k] for k in preset)
                                     / sum(steps[k] for k in preset))
        out["verify_s"] = sum(v for k, v in per_kind.items() if k.startswith("verify:"))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced cycles

CALLS_AND_SELF = ("optim.run", "optim.efm_bound", "counterexample.oracle", "linalg.polar_exact",
                  "linalg.polar_newton_schulz", "linalg.reduced_svd", "linalg.norm")
SELF_ONLY = ("optim.schedule", "counterexample.cex1_build", "linalg.as_matrix", "norms.fro",
             "harness.run_experiment", "harness.write_csv", "cli.main.run", "cli.main.verify",
             "cli.main.bound")
NORM_FUNCS = ("lmo_min", "dual_norm", "compress")
SPECS = ("L1", "L2", "Linf", "Lp", "OperatorNorm", "NuclearNorm", "ProductNormSpec")
SUITES = ("polar", "reduction", "compressor", "lmo", "cex1", "ef-bound")
SVD_KINDS = ("muon", "muon-ns", "regmuon", "efmuon", "efmuon-ns", "muonmax", "efmuonmax")
MODULES = ("linalg", "norms", "optim", "counterexample", "harness", "cli", "bench")


def per_layer(tracer, rec, stats, scale):
    """Per-layer metrics: one traced set-up plus the mean traced cycle.

    ``.calls`` and ``.self_ms`` add the set-up's spans (only cex-sweep's
    ``cex1_build`` runs there) to the traced cycles' spans divided by the
    number of traced cycles, so counts are exact and repeat run to run.
    Times are multiplied by ``scale``, the reference calibration time over
    the run's median one.
    """
    import numpy as np
    from tracer import self_times

    names, start, end, parent, name_id, item_id = tracer.arrays()
    kinds = np.array(tracer.item_kinds + [""])
    in_setup = kinds[item_id] == "setup"
    n_cycles = max(rec.cycles[True], 1)
    # Times at the reference speed, like the end-to-end ones.
    selfs = self_times(start, end, parent) * scale
    dur = (end - start) * scale

    def per_unit(weights):
        w = np.asarray(weights, float)
        setup = np.bincount(name_id, weights=np.where(in_setup, w, 0.0), minlength=len(names))
        cycles = np.bincount(name_id, weights=np.where(in_setup, 0.0, w), minlength=len(names))
        return setup + cycles / n_cycles

    calls = per_unit(np.ones(name_id.size))
    self_s = per_unit(selfs)
    total_s = np.bincount(name_id, weights=dur, minlength=len(names))
    index = {n: i for i, n in enumerate(names)}

    def get(arr, name):
        i = index.get(name)
        return float(arr[i]) if i is not None else 0.0

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (get(calls, name), "count")
        m[f"{name}.self_ms"] = (get(self_s, name) * 1e3, "ms")
    for name in SELF_ONLY:
        m[f"{name}.self_ms"] = (get(self_s, name) * 1e3, "ms")
    for fn in NORM_FUNCS:
        for spec in SPECS:
            name = f"norms.{fn}.{spec}"
            m[f"{name}.calls"] = (get(calls, name), "count")
            m[f"{name}.self_ms"] = (get(self_s, name) * 1e3, "ms")
    for suite in SUITES:
        m[f"harness.suite.{suite}.self_s"] = (get(self_s, f"harness.suite.{suite}"), "s")

    counts = tracer.counts
    run_steps = counts["run_steps"]
    oracle_calls = np.count_nonzero(name_id == index.get("counterexample.oracle", -1))
    m["counterexample.oracle.calls_per_step"] = (
        oracle_calls / run_steps if run_steps else 0.0, "count/step")

    polar = index.get("linalg.polar_exact", -1)
    svd = index.get("linalg.reduced_svd", -1)
    n_polar = np.count_nonzero(name_id == polar)
    svd_parents = parent[(name_id == svd) & (parent >= 0)]
    slow = np.unique(svd_parents[name_id[svd_parents] == polar]).size
    m["linalg.polar_exact.fastpath_ratio"] = (1.0 - slow / n_polar if n_polar else 0.0, "ratio")
    m["linalg.polar_newton_schulz.residual_max"] = (stats.get("ns_residual_max", 0.0), "1")
    for kind in SVD_KINDS:
        steps = rec.kind_steps[kind]
        m[f"linalg.svd_calls_per_step.{kind}"] = (
            counts[("svd", kind)] / steps if steps else 0.0, "count/step")
    ns_time = get(total_s, "linalg.polar_newton_schulz")
    m["linalg.ns_gflop"] = (counts["ns_flop"] / 1e9 / n_cycles, "GFLOP")
    m["linalg.ns_gflop_per_s"] = (counts["ns_flop"] / 1e9 / ns_time if ns_time else 0.0, "GFLOP/s")
    csv_time = get(total_s, "harness.write_csv")
    m["harness.write_csv.mb_per_s"] = (counts["csv_bytes"] / 1e6 / csv_time if csv_time else 0.0,
                                       "MB/s")

    module = np.array([n.split(".", 1)[0] for n in names] + [""])
    cycle_self = np.where(in_setup, 0.0, selfs)
    accounted = 0.0
    for mod in MODULES:
        s = float(cycle_self[module[name_id] == mod].sum())
        accounted += s
        m[f"trace.module.{mod}.self_ms"] = (s * 1e3 / n_cycles, "ms")
    m["trace.accounted_ratio"] = (accounted / (rec.traced_s * scale), "ratio")
    m["trace.overhead_ratio"] = (sum(rec.item_units(True)) / sum(rec.item_units(False)), "ratio")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny cycles, for tests")
    args = parser.parse_args(argv)

    # One CPU for the items, the calibration kernel and the set-up's child
    # interpreters, so each time is paired with a calibration on the same CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    _import_muonlab()
    import instrument
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    scratch = OUT / "tmp"
    env = environment(args.seed)
    env["cpu_affinity"] = cpu

    if args.trace:
        tracer = Tracer()
        with instrument.installed(tracer):
            wl = tracer.run_item("setup", workloads.build, args.workload, args.seed,
                                 args.smoke, scratch)
        try:
            rec = run_cycles(wl, args.seconds, tracer, min_cycles=2)
        finally:
            wl.close()
        scale = wl.calibration_ref_s / statistics.median(rec.calibration)
        metrics = per_layer(tracer, rec, wl.stats, scale)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        # Set-up is repeated after every cycle and paired with the calibration
        # sample before it, like an item; the median is reported.
        setups = []

        def set_up(cal_index=0):
            import_s = _child_import_s()
            t0 = _clock()
            wl = workloads.build(args.workload, args.seed, args.smoke, scratch)
            setups.append((import_s + _clock() - t0, cal_index))
            return wl

        wl = set_up()
        try:
            rec = run_cycles(wl, args.seconds, None, min_cycles=2,
                             between=lambda i: set_up(i).close())
        finally:
            wl.close()
        pair = rec.paired()
        setup_units = statistics.median(dt / pair[i] for dt, i in setups)
        env["setup_raw_median_s"] = statistics.median(dt for dt, _ in setups)
        env["setup_samples"] = len(setups)
        metrics = end_to_end(rec, wl.calibration_ref_s, setup_units)

    print("# perfbench " + json.dumps({"workload": args.workload, "env": env,
                                        **info(rec, wl.calibration_ref_s)}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
