"""The benchmark's three workloads, built from a seed through muonlab's public API.

A workload is a list of groups of items.  An item is one unit the benchmark
times (a trajectory, a dense step, a CLI command); the items of a group run
in order because later ones continue from earlier ones, and the benchmark
reverses the order of the groups every other cycle.  Every item has an
output check that runs outside its timer.

* ``cex-sweep``: many independent 2x2 trajectories on the counterexample
  function, where the cost is per-call Python overhead in ``optim.run``,
  the oracle and the diagonal fast path of ``linalg``.
* ``repro-cli``: a user's reproduction path through ``cli.main``: both
  presets written to CSV, the ``bound`` they report, and the ``verify``
  suites other than cex2 (which ``cex-sweep`` covers).
* ``dense-steps``: Muon-family steps on 256x256 matrices and a two-layer
  product spec, where the SVDs and matmuls of ``linalg`` and ``norms`` do
  nearly all the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from muonlab import counterexample as cex
from muonlab import cli, harness, linalg, norms, optim

import instrument

# The paper's tolerances for the counterexample invariants.
P_CONST_TOL = 1e-12
FLOOR_SLACK = 1e-12
CLOSED_FORM_TOL = 1e-10
# Relative slack for the dense invariants, whose terms are O(1e3)..O(1e5).
DENSE_RTOL = 1e-8


@dataclass
class Item:
    kind: str
    steps: int
    run: object  # run(tracer) -> output
    check: object  # check(output) -> list of bools, one per output check


@dataclass
class Workload:
    groups: list
    # A numpy-only kernel shaped like the workload's own work, and its time
    # at the reference speed the benchmark reports times at.
    calibration: object
    calibration_ref_s: float
    stats: dict = field(default_factory=dict)
    workdir: Path | None = None

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def small_kernel():
    """A 2x2 momentum-sign loop in plain numpy, about 1 ms."""
    W = np.array([[1.0, 0.0], [0.0, -0.5]])
    M = np.zeros((2, 2))
    for _ in range(100):
        G = np.sign(W)
        M = 0.9 * M + 0.1 * G
        W = W - 0.01 * np.sign(M)
        float(np.linalg.norm(G))


SMALL_REF_S = 1e-3


def _polar(name):
    # Looked up when a state is made, so a traced cycle injects the wrapper.
    return getattr(linalg, name)


def _schedule(tracer, schedule):
    return schedule if tracer is None else instrument.traced_schedule(tracer, schedule)


# ---------------------------------------------------------------------------
# cex-sweep


def _cex2_item(W0, beta, method, schedule, T):
    c = 0.5 - beta
    p0 = float(W0[0, 0] + W0[1, 1])

    def run(tracer):
        state = optim.OptimizerState(W=W0, beta=beta, schedule=_schedule(tracer, schedule),
                                     polar=_polar("polar_exact"))
        return optim.run(method, cex.KinkyFunction(c=c).oracle(), state, T,
                         track_average=False)

    def check(tr):
        p, q = tr.sum_diag, tr.diff_diag
        return [
            float(np.max(np.abs(p - p0))) <= P_CONST_TOL,
            bool(np.all(q != 0.0)),
            float(np.min(tr.f)) >= c * abs(p0) - FLOOR_SLACK,
        ]

    return Item(method, T, run, check)


def _cex1_item(beta, schedule, r, delta, T):
    fn, W0, init = cex.cex1_build(beta, schedule, r=r, delta=delta, horizon=T)
    pred = cex.cex1_predicted_sequence(init, T)

    def run(tracer):
        state = optim.OptimizerState(W=W0, beta=beta, schedule=_schedule(tracer, schedule),
                                     polar=_polar("polar_exact"))
        return optim.run("muon", fn.oracle(), state, T, track_average=False)

    def check(tr):
        dev = max(float(np.max(np.abs(tr.w11 - pred[:, 0]))),
                  float(np.max(np.abs(tr.w22 - pred[:, 1]))))
        return [dev <= CLOSED_FORM_TOL]

    return Item("muon", T, run, check)


def cex_sweep(seed: int, smoke: bool) -> Workload:
    """suite_cex2-shaped random starts and cex1_build-shaped constructions."""
    rng = np.random.default_rng(seed)
    T = 100 if smoke else 1000
    groups = []
    for beta in (0.0, 0.2, 0.4):
        table = optim.Table(tuple(rng.uniform(0.01, 0.3, T)))
        # Twice as many muon starts as the slower regmuon ones keep the median
        # trajectory inside one of the two cost clusters, not between them.
        for method, schedule, starts in (("regmuon", optim.AdaptiveNuclear(0.05), 22),
                                         ("muon", table, 44)):
            for _ in range(1 if smoke else starts):
                groups.append([_cex2_item(rng.standard_normal((2, 2)), beta, method,
                                          schedule, T)])
    for beta in (0.0, 0.5, 0.9):
        lam = float(rng.uniform(0.05, 0.4))
        for schedule, delta in ((optim.Constant(lam), float(rng.uniform(-0.25, 0.25)) * lam),
                                (optim.InvT(), 0.0)):
            r = float(rng.uniform(1.0, 3.0))
            groups.append([_cex1_item(beta, schedule, r, delta, T)])
    return Workload(groups, small_kernel, SMALL_REF_S)


# ---------------------------------------------------------------------------
# repro-cli

PRESETS = ("cex1-appendixE", "efm-appendixE")
VERIFY_SUITES = ("polar", "reduction", "compressor", "lmo", "cex1", "ef-bound")
SMOKE_SUITES = ("polar", "ef-bound")
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def _cli(tracer, argv):
    """cli.main(argv) and its output; traced as ``cli.main.<command>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.span(f"cli.main.{argv[0]}", cli.main, argv)
    return rc, out.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def repro_cli(seed: int, smoke: bool, scratch: Path) -> Workload:
    """Both presets, the bound at their horizon, then the verify suites."""
    digests = json.loads(EXPECTED.read_text())["preset_csv_sha256"]
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="repro-", dir=scratch))
    wl = Workload([], small_kernel, SMALL_REF_S, workdir=workdir)
    # The bound command takes the parameters the efm preset's sidecar records;
    # its check compares the printed value with that CSV's final bound cell.
    bound = {}

    def preset_item(name):
        csv = workdir / f"{name}.csv"
        argv = ["run", "--preset", name, "--out", str(csv), "--seed", str(seed)]

        def check(result):
            rc, _ = result
            ok = [rc == 0, rc == 0 and _sha256(csv) == digests[name]]
            if rc == 0 and name == "efm-appendixE":
                cfg = json.loads(csv.with_suffix(".config.json").read_text())
                b = cfg["bound"]
                bound["argv"] = ["bound", "--T", str(cfg["T"]), "--delta", repr(b["delta"]),
                                 "--beta", repr(cfg["beta"]), "--sigma", repr(b["sigma"]),
                                 "--dist0", repr(b["dist0"])]
                bound["expected"] = csv.read_text().rstrip("\n").rsplit("\n", 1)[1].split(",")[-1]
            return ok

        T = harness.PRESETS[name]()["T"]
        return Item(f"run:{name}", T, lambda tracer: _cli(tracer, argv), check)

    def bound_check(result):
        rc, out = result
        return [rc == 0 and out.strip() == bound["expected"]]

    def verify_item(suite):
        argv = ["verify", suite]
        return Item(f"verify:{suite}", 0, lambda tracer: _cli(tracer, argv),
                    lambda result: [result[0] == 0])

    wl.groups = [[preset_item(name)] for name in PRESETS]
    wl.groups.append([Item("bound", 0, lambda tracer: _cli(tracer, bound["argv"]), bound_check)])
    wl.groups += [[verify_item(s)] for s in (SMOKE_SUITES if smoke else VERIFY_SUITES)]
    return wl


# ---------------------------------------------------------------------------
# dense-steps

DENSE_N = 256
PRODUCT = dict(layer_dims=((256, 256), (256, 128)), s=1.0, k=16)
DENSE_BETA = 0.9
DENSE_LAM = 0.02
DENSE_REF_S = 20e-3
# (label, step rule, polar backend, uses the product spec)
DENSE_CONFIGS = (
    ("muon", "muon", "polar_exact", False),
    ("muon-ns", "muon", "polar_newton_schulz", False),
    ("efmuon", "efmuon", "polar_exact", False),
    ("efmuon-ns", "efmuon", "polar_newton_schulz", False),
    ("muonmax", "muonmax", "polar_exact", True),
    ("efmuonmax", "efmuonmax", "polar_exact", True),
)


def l1_oracle(target):
    """f(W) = ||W - W*||_1 with subgradient sign(W - W*), blockwise on ParamPoints."""
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


class _Chain:
    """One trajectory of dense steps; its first item restarts it from W0."""

    def __init__(self, label, method, polar, spec, W0, oracle, stats):
        self.label, self.method, self.polar, self.spec = label, method, polar, spec
        self.W0, self.oracle, self.stats = W0, oracle, stats
        self.step = getattr(optim, f"step_{method}")
        self.state = None

    def item(self, k):
        def run(tracer):
            if k == 0:
                self.state = optim.OptimizerState(
                    W=self.W0, beta=DENSE_BETA,
                    schedule=_schedule(tracer, optim.Constant(DENSE_LAM)),
                    spec=self.spec, polar=_polar(self.polar))
            before = self.state
            if tracer is None:
                self.state, _ = self.step(before, self.oracle)
            else:
                oracle = instrument.TracedOracle(tracer, self.oracle, "bench.oracle")
                self.state, _ = tracer.span("optim.step", self.step, before, oracle)
            return before, self.state

        return Item(self.label, 1, run, self.check)

    def check(self, result):
        before, after = result
        moved = before.W - after.W
        if self.method == "muon":
            X = moved * (1.0 / DENSE_LAM)
            eig = np.linalg.eigvalsh(X.T @ X)
            residual = float(np.max(np.abs(eig - 1.0)))
            if self.polar == "polar_exact":
                return [residual <= DENSE_RTOL]
            # The cubic iteration maps singular values in (0, 1] into (0, 1];
            # how far they stay from 1 is reported, not gated.
            self.stats["ns_residual_max"] = max(self.stats.get("ns_residual_max", 0.0), residual)
            return [float(eig.max()) <= 1.0 + DENSE_RTOL]
        if self.method == "muonmax":
            M = after.M
            dn = norms.dual_norm(M, self.spec)
            X = moved * (1.0 / (DENSE_LAM * dn))
            return [abs(norms.inner(M, X) - dn) <= DENSE_RTOL * dn]
        # Error feedback: C = W - W', P = E' + C, and C must contract P.
        P = after.E + moved
        lhs = norms.fro(P - moved) ** 2
        size = norms.fro(P) ** 2
        if self.method == "efmuon":
            delta = norms.compressor_constants(norms.OperatorNorm(), (DENSE_N, DENSE_N)).delta
            rhs = (1.0 - delta) * size
        else:
            alpha = min(1.0, 1.0 / math.sqrt(self.spec.s * self.spec.num_layers))
            rhs = size - alpha**2 * norms.dual_norm(P, self.spec) ** 2
        return [lhs <= rhs + DENSE_RTOL * size]


def dense_steps(seed: int, smoke: bool) -> Workload:
    """Muon, EF-Muon (both polar backends), MuonMax and EF-MuonMax on an l1 distance."""
    rng = np.random.default_rng(seed)
    steps = 1 if smoke else 17
    spec = norms.ProductNormSpec(**PRODUCT)

    def point():
        return norms.ParamPoint([rng.standard_normal(d) for d in spec.layer_dims],
                                rng.standard_normal(spec.k))

    W0, target = rng.standard_normal((DENSE_N, DENSE_N)), rng.standard_normal((DENSE_N, DENSE_N))
    P0, ptarget = point(), point()
    matrix_oracle, product_oracle = l1_oracle(target), l1_oracle(ptarget)
    A = np.random.default_rng(0).standard_normal((DENSE_N, DENSE_N))

    def dense_kernel():
        """One SVD and one matmul at the workload's size in plain numpy."""
        np.linalg.svd(A)
        A @ A

    wl = Workload([], dense_kernel, DENSE_REF_S)
    for label, method, polar, product in DENSE_CONFIGS:
        chain = _Chain(label, method, polar, spec if product else None,
                       P0 if product else W0, product_oracle if product else matrix_oracle,
                       wl.stats)
        wl.groups.append([chain.item(k) for k in range(steps)])
    return wl


def build(name: str, seed: int, smoke: bool, scratch: Path) -> Workload:
    if name == "cex-sweep":
        return cex_sweep(seed, smoke)
    if name == "repro-cli":
        return repro_cli(seed, smoke, scratch)
    if name == "dense-steps":
        return dense_steps(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cex-sweep", "repro-cli", "dense-steps")
