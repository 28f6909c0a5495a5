"""Experiment configuration, CSV trace emission, and the property-check
suites behind the command line interface and the acceptance tests.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import counterexample as cex
from . import linalg, norms, optim

CSV_COLUMNS = ("t", "lambda", "f", "w11", "w22", "sum_diag", "diff_diag",
               "grad_fro", "favg", "bound")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _preset_cex1():
    return {
        "method": "muon",
        "beta": 0.9,
        "c": "auto",
        "style": "appendix_e",
        "schedule": {"kind": "invt"},
        "T": 5000,
        "init": {"kind": "cex1", "r": 1.0, "delta": 0.0},
        "m": 2, "n": 2,
        "seed": 0,
        "polar": "exact",
        "track_average": True,
    }


def _preset_efm():
    return {
        "method": "efmuon",
        "beta": 0.9,
        "c": "auto",
        "style": "appendix_e",
        "schedule": {"kind": "invsqrt"},
        "T": 5000,
        "init": {"kind": "explicit", "diag": [1.0 + math.log(2.0), 1.0 - math.log(2.0)]},
        "m": 2, "n": 2,
        "seed": 0,
        "polar": "exact",
        "track_average": True,
        "bound": {},
    }


PRESETS = {
    "cex1-appendixE": _preset_cex1,
    "efm-appendixE": _preset_efm,
}

_AUTO_C = {
    "cex1": lambda beta: (1.0 - beta) / 2.0,
    "cex2": lambda beta: 0.5 - beta,
    "appendix_e": lambda beta: (1.0 - beta) / (2.0 * (1.0 + beta)),
}


def _real(value, what: str) -> float:
    """A config number: any real but a bool; strings such as "0.5" are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _finite(value, what: str) -> float:
    """A finite config number; JSON's NaN and Infinity are refused."""
    x = _real(value, what)
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return x


def build_schedule(spec: dict):
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ConfigError("schedule needs a 'kind' field") from None
    try:
        if kind == "constant":
            return optim.Constant(_finite(spec["lam"], "lam"))
        if kind == "invt":
            return optim.InvT()
        if kind == "invsqrt":
            return optim.InvSqrtT()
        if kind == "table":
            return optim.Table(tuple(_finite(v, "table value") for v in spec["values"]))
        if kind == "adaptive_nuclear":
            return optim.AdaptiveNuclear(_finite(spec["base"], "base"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad schedule spec: {exc}") from exc
    raise ConfigError(f"unknown schedule kind {kind!r}")


# The rules a run on the counterexample function takes: all but the
# product-norm ones, which need a ProductNormSpec point.
RUN_METHODS = tuple(name for name, rule in optim.RULES.items() if rule.lmo != "product")

CONFIG_KEYS = frozenset((
    "method", "beta", "c", "style", "schedule", "T", "init", "m", "n", "seed",
    "polar", "track_average", "bound",
))


def resolve_config(raw: dict) -> dict:
    """Fill defaults and resolve 'auto' fields into a fully explicit config."""
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    cfg = dict(raw)
    for key, default in (("beta", 0.0), ("c", "auto"), ("style", "cex1"),
                         ("m", 2), ("n", 2), ("seed", 0), ("polar", "exact"),
                         ("track_average", True)):
        cfg.setdefault(key, default)
    for key in ("method", "schedule", "T", "init"):
        if key not in cfg:
            raise ConfigError(f"config is missing {key!r}")
    if cfg["method"] not in RUN_METHODS:
        raise ConfigError(f"unknown method {cfg['method']!r}; "
                          f"a run takes one of {', '.join(RUN_METHODS)}")
    for key in ("m", "n", "seed", "T"):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], (int, np.integer)):
            raise ConfigError(f"{key} must be an integer")
        cfg[key] = int(cfg[key])
    if not isinstance(cfg["track_average"], bool):
        raise ConfigError("track_average must be true or false")
    beta = _real(cfg["beta"], "beta")
    if not 0.0 <= beta < 1.0:
        raise ConfigError("beta must lie in [0, 1)")
    cfg["beta"] = beta
    if cfg["c"] == "auto":
        try:
            cfg["c"] = _AUTO_C[cfg["style"]](beta)
        except KeyError:
            raise ConfigError(f"unknown style {cfg['style']!r}") from None
    cfg["c"] = _real(cfg["c"], "c")
    if not 0.0 < cfg["c"] < 1.0:
        raise ConfigError("c must lie in (0, 1)")
    if cfg["T"] < 0:
        raise ConfigError("T must be nonnegative")
    if cfg["polar"] not in ("exact", "ns"):
        raise ConfigError("polar must be 'exact' or 'ns'")
    if cfg["method"] == "efmuon" and cfg["polar"] == "ns":
        raise ConfigError("efmuon needs the exact polar factor for its "
                          "compressor contraction; use polar 'exact'")
    build_schedule(cfg["schedule"])  # validate early
    return cfg


def _build_init(cfg: dict, schedule):
    init = cfg["init"]
    if not isinstance(init, dict):
        raise ConfigError(f"init must be an object with a 'kind', got {init!r}")
    m, n = cfg["m"], cfg["n"]
    kind = init.get("kind")
    if kind == "cex1":
        _, W0, _ = cex.cex1_build(
            cfg["beta"], schedule,
            r=_finite(init.get("r", 1.0), "r"), delta=_finite(init.get("delta", 0.0), "delta"),
            c=cfg["c"], m=m, n=n, horizon=cfg["T"],
        )
        return W0
    if kind == "random":
        rng = np.random.default_rng(cfg["seed"])
        return _finite(init.get("scale", 1.0), "scale") * rng.standard_normal((m, n))
    if kind == "explicit":
        if "matrix" in init:
            if np.asarray(init["matrix"]).dtype.kind not in "iuf":
                raise ConfigError("matrix entries must be numbers")
            W0 = linalg.as_matrix(init["matrix"])
            if W0.shape != (m, n):
                raise ConfigError("explicit matrix shape mismatch")
            return W0
        if "diag" in init:
            diag = init["diag"]
            if not isinstance(diag, (list, tuple)) or len(diag) != 2:
                raise ConfigError(f"diag must be a list of two numbers, got {diag!r}")
            W0 = np.zeros((m, n))
            W0[0, 0] = _finite(diag[0], "diag entry")
            W0[1, 1] = _finite(diag[1], "diag entry")
            return W0
        raise ConfigError("explicit init needs 'matrix' or 'diag'")
    raise ConfigError(f"unknown init kind {kind!r}")


BOUND_KEYS = frozenset(("delta", "sigma", "dist0"))


def _resolve_bound(cfg: dict, W0: np.ndarray) -> dict:
    """The ``bound`` block with its defaults filled in, checked against the
    domain of ``optim.efm_bound``."""
    spec = cfg["bound"]
    if not isinstance(spec, dict):
        raise ConfigError(f"bound must be an object, got {spec!r}")
    unknown = sorted(set(spec) - BOUND_KEYS)
    if unknown:
        raise ConfigError(f"bound has unknown keys {unknown}")
    b = {
        "delta": 1.0 / min(cfg["m"], cfg["n"]),
        "sigma": cex.lipschitz_bound(cfg["c"]),
        "dist0": math.hypot(W0[0, 0], W0[1, 1]),
    }
    b.update((key, _real(value, f"bound {key}")) for key, value in spec.items())
    try:
        optim._check_bound_domain(b["delta"], cfg["beta"], b["sigma"], b["dist0"])
    except ValueError as exc:
        raise ConfigError(f"bound {exc}") from None
    return b


def run_experiment(raw_config: dict):
    """Run a configured experiment; returns (Trace, bound column, resolved config)."""
    cfg = resolve_config(raw_config)
    schedule = build_schedule(cfg["schedule"])
    W0 = _build_init(cfg, schedule)
    fn = cex.KinkyFunction(c=cfg["c"], m=cfg["m"], n=cfg["n"])
    polar = linalg.polar_exact if cfg["polar"] == "exact" else linalg.polar_newton_schulz
    if "bound" in cfg:
        cfg["bound"] = _resolve_bound(cfg, W0)
    state = optim.OptimizerState(W=W0, beta=cfg["beta"], schedule=schedule, polar=polar)
    trace = optim.run(cfg["method"], fn.oracle(), state, cfg["T"],
                      track_average=cfg["track_average"])
    if "bound" in cfg:
        b = cfg["bound"]
        bound = optim.efm_bound_column(cfg["T"], b["delta"], cfg["beta"], b["sigma"], b["dist0"])
    else:
        bound = np.full(len(trace), np.nan)
    return trace, bound, cfg


def write_csv(path: str, trace: optim.Trace, bound: np.ndarray):
    """CSV with fixed columns, 17 significant digits, LF endings."""
    columns = (trace.t, trace.lam, trace.f, trace.w11, trace.w22, trace.sum_diag,
               trace.diff_diag, trace.grad_fro, trace.favg, bound)
    row = ",".join(["%.17g"] * len(CSV_COLUMNS))
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(row % values for values in zip(*(np.asarray(c).tolist() for c in columns),
                                                strict=True))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sidecar(path: str, cfg: dict):
    root, _ = os.path.splitext(path)
    with open(root + ".config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Property suites


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    required: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: observed {self.observed:.3e}, required <= {self.required:.3e}"


def _group_by(keys) -> list:
    """The indices of equal keys, as one array per key, in order of first
    appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [np.array(idx) for idx in groups.values()]


def suite_polar(trials: int = 500) -> list:
    rng = np.random.default_rng(7)
    # Well-conditioned inputs (U * s) @ V^T with orthonormal U, V from QR and
    # singular values in [0.5, 2], so the condition number stays under 4.
    # The draws come in trial order: the shape, the two Gaussians, then s.
    draws = []
    for _ in range(trials):
        m, n = rng.integers(2, 9, 2)
        r = min(m, n)
        draws.append((rng.standard_normal((m, r)), rng.standard_normal((n, r)),
                      rng.uniform(0.5, 2.0, r)))
    errs = []
    for idx in _group_by((G.shape, H.shape) for G, H, _ in draws):
        G, H, s = (np.stack([draws[i][j] for i in idx]) for j in range(3))
        U, V = np.linalg.qr(G)[0], np.linalg.qr(H)[0]
        A = (U * s[:, None, :]) @ V.mT
        D = linalg.polar_newton_schulz_stack(A) - linalg.polar_exact_stack(A)
        errs.append((idx, _fro_rows(D)))  # np.linalg.norm of each member
    worst_ns = _worst(0.0, trials, errs)
    diags = []
    for _ in range(200):
        m, n = rng.integers(2, 7, 2)
        vals = rng.standard_normal(min(m, n))
        vals[rng.random(vals.size) < 0.3] = 0.0
        diags.append((m, n, vals))
    worst_diag = 0.0
    for idx in _group_by((m, n) for m, n, _ in diags):
        m, n, _ = diags[idx[0]]
        D = np.zeros((len(idx), m, n))
        k = np.arange(min(m, n))
        D[:, k, k] = [diags[i][2] for i in idx]
        worst_diag = max(worst_diag, float(np.max(np.abs(
            linalg.polar_exact_stack(D) - np.sign(D)))))
    return [
        CheckResult("newton-schulz vs exact polar", worst_ns <= 1e-4, worst_ns, 1e-4),
        CheckResult("polar of diagonal equals sign", worst_diag == 0.0, worst_diag, 0.0),
    ]


@dataclass(frozen=True)
class _ReductionTrial:
    """One trial of ``suite_reduction``: momentum ``beta``, a stepsize
    schedule, the start ``w0``, and the convex piecewise-linear
    f(w) = sum_j a_j |<U_j, w> + b_j| with k terms (U is k x d)."""

    beta: float
    schedule: object
    a: np.ndarray
    U: np.ndarray
    b: np.ndarray
    w0: np.ndarray


def _reduction_trials(rng, trials: int) -> list:
    out = []
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.0, 0.99))
        schedule = [optim.Constant(float(rng.uniform(0.01, 0.5))),
                    optim.InvT(), optim.InvSqrtT()][int(rng.integers(0, 3))]
        k = int(rng.integers(2, 6))
        a = rng.uniform(0.2, 2.0, k)
        U = rng.standard_normal((k, d))
        b = rng.standard_normal(k)
        out.append(_ReductionTrial(beta, schedule, a, U, b, rng.standard_normal(d)))
    return out


def _reduction_lockstep(trials: list, steps: int) -> tuple:
    """Signed momentum on each trial's f, and Muon on f of the diagonal of a
    d x d matrix started at diag(w0), run in lock-step.

    The trials share one (k, d).  Returns the iterates after each step, a
    (steps, B, d) and a (steps, B, d, d) array, and the final momenta, a
    (B, d) and a (B, d, d) array; member b's are those of
    ``step_signmomentum`` and ``step_muon`` loops bit for bit
    (TestReductionLockstep in tests/test_harness.py is the contract).
    """
    B, d = len(trials), trials[0].w0.size
    a = np.stack([t.a for t in trials])
    U = np.stack([t.U for t in trials])
    b = np.stack([t.b for t in trials])
    beta = np.array([t.beta for t in trials])[:, None]
    one_minus_beta = 1.0 - beta
    # Each member's offline stepsizes, lam[i, b] at step i.
    lam = np.array([optim.offline_stepsizes(t.schedule, 0, steps) for t in trials]).T
    diag = np.arange(d)

    def subgrad(w):
        # (a * sign(U @ w + b)) @ U of each row of w, as the same matmuls.
        z = (U @ w[:, :, None])[:, :, 0] + b
        return ((a * np.sign(z))[:, None, :] @ U)[:, 0]

    # The momenta start at zero, so for beta = 0 beta * M is a zero and
    # beta * M + (1 - beta) * G is G, as optim.step reads it, up to the
    # sign of a zero entry, which np.sign reads as 0 either way.
    w = np.stack([t.w0 for t in trials])
    m = np.zeros_like(w)
    W = np.zeros((B, d, d))
    W[:, diag, diag] = w
    M, G = np.zeros_like(W), np.zeros_like(W)  # G is diagonal: only its diagonal is written
    vec, mat = np.empty((steps, B, d)), np.empty((steps, B, d, d))
    for i in range(steps):
        m = beta * m + one_minus_beta * subgrad(w)
        w = w - lam[i][:, None] * np.sign(m)
        G[:, diag, diag] = subgrad(W[:, diag, diag])
        M = beta[:, :, None] * M + one_minus_beta[:, :, None] * G
        W = W - lam[i][:, None, None] * linalg.polar_exact_stack(M)
        vec[i], mat[i] = w, W
    return vec, mat, m, M


def suite_reduction(trials: int = 50, steps: int = 100) -> list:
    rng = np.random.default_rng(11)
    draws = _reduction_trials(rng, trials)
    worst = [0.0]
    for idx in _group_by(t.U.shape for t in draws):
        vec, mat, _, _ = _reduction_lockstep([draws[i] for i in idx], steps)
        d = vec.shape[-1]
        diag = mat[..., np.arange(d), np.arange(d)]
        off = mat.copy()
        off[..., np.arange(d), np.arange(d)] -= diag
        worst += [np.max(np.abs(diag - vec)), np.max(np.abs(off))]
    # np.max keeps a NaN, which max() over Python floats could drop.
    worst = float(np.max(worst))
    return [CheckResult("momentum spectral vs signed momentum on diagonals",
                        worst <= 1e-12, worst, 1e-12)]


def _spec_draws(rng, spec, trials: int) -> list:
    """The suites' ``trials`` random arguments for ``spec``, grouped by shape.

    Returns (indices, stack) pairs, ``indices`` giving each member's trial.
    The draws come from ``rng`` in trial order: a vector length or matrix
    shape, then its entries; a product point's layers and theta come from
    one ``standard_normal`` call, the same stream as one call per block.
    """
    if isinstance(spec, norms.ProductNormSpec):
        ends = np.cumsum([m * n for m, n in spec.layer_dims])
        Z = rng.standard_normal((trials, int(ends[-1]) + spec.k))
        mats = [Z[:, end - m * n:end].reshape(trials, m, n)
                for end, (m, n) in zip(ends, spec.layer_dims)]
        return [(np.arange(trials), (mats, Z[:, ends[-1]:]))]
    draws = []
    for _ in range(trials):
        if isinstance(spec, (norms.L1, norms.L2, norms.Linf, norms.Lp)):
            draws.append(rng.standard_normal(int(rng.integers(2, 21))))
        else:
            draws.append(rng.standard_normal(rng.integers(2, 8, 2)))
    return [(idx, np.stack([draws[i] for i in idx]))
            for idx in _group_by(W.shape for W in draws)]


def _inner_rows(A, B) -> np.ndarray:
    """``norms.inner`` of each pair of members of two stacks, bit for bit."""
    if isinstance(A, tuple):
        (mats_a, theta_a), (mats_b, theta_b) = A, B
        total = None
        for X, Y in zip(mats_a, mats_b):
            term = _inner_rows(X, Y)
            total = term if total is None else total + term
        return total + np.vecdot(theta_a, theta_b)
    return (A * B).reshape(len(A), -1).sum(axis=1)


def _fro_rows(A) -> np.ndarray:
    """``norms.fro`` of each member of a stack, bit for bit."""
    if isinstance(A, tuple):
        return np.sqrt(_inner_rows(A, A))  # ParamPoint.fro
    return linalg._fro_members(A)


def _worst(start: float, trials: int, parts) -> float:
    """``max`` over ``start`` and the per-member values of ``parts``, a list of
    (indices, values) pairs, taken in trial order as the per-trial loop did."""
    values = np.empty(trials)
    for idx, v in parts:
        values[idx] = v
    return max([start, *values.tolist()])


def _basic_specs():
    return [norms.L1(), norms.L2(), norms.Linf(), norms.Lp(1.5), norms.Lp(3.0),
            norms.OperatorNorm(), norms.NuclearNorm()]


def _product_spec():
    return norms.ProductNormSpec(layer_dims=((3, 4), (2, 2)), s=1.5, k=3)


def suite_compressor(trials: int = 1000) -> list:
    rng = np.random.default_rng(13)
    results = []
    for spec in _basic_specs():
        parts = []
        for idx, W in _spec_draws(rng, spec, trials):
            dims = W.shape[1] if W.ndim == 2 else W.shape[1:]
            shrink = 1.0 - norms.compressor_constants(spec, dims).delta
            lhs = _fro_rows(W - norms.compress_stack(W, spec)).tolist()
            parts.append((idx, [a**2 - shrink * b**2
                                for a, b in zip(lhs, _fro_rows(W).tolist())]))
        worst = _worst(-np.inf, trials, parts)
        results.append(CheckResult(
            f"compression contraction [{type(spec).__name__}]",
            worst <= 1e-8, worst, 1e-8))
    spec = _product_spec()
    alpha_sq = norms.compressor_constants(spec).alpha ** 2
    parts = []
    for idx, W in _spec_draws(rng, spec, trials):
        (mats, theta), (C, c) = W, norms.compress_stack(W, spec)
        lhs = _fro_rows(([M - D for M, D in zip(mats, C)], theta - c)).tolist()
        rhs = zip(_fro_rows(W).tolist(), norms.dual_norm_stack(W, spec).tolist())
        parts.append((idx, [a**2 - (b**2 - alpha_sq * c**2) for a, (b, c) in zip(lhs, rhs)]))
    worst = _worst(-np.inf, trials, parts)
    results.append(CheckResult(
        "compression contraction [Product, proof-line]",
        worst <= 1e-8, worst, 1e-8))
    return results


def _least_frobenius_grid(rng, base, Up, Vp, samples: int) -> float:
    """Smallest Frobenius norm of ``base + Up E Vp^T`` over ``samples`` draws
    of E uniform on [-1, 1]^(k x k), each scaled into the operator-norm ball.

    The draws come from one ``rng.uniform`` call, the same stream as one call
    per draw.  ``vecdot`` gives each candidate's norm bit for bit as
    ``np.linalg.norm`` on it alone; ``einsum`` and ``sum`` do not.
    """
    k = Up.shape[1]
    E = rng.uniform(-1.0, 1.0, (samples, k, k))
    op = np.linalg.norm(E, 2, axis=(1, 2))
    E = np.where((op > 1.0)[:, None, None], E / op[:, None, None], E)
    cand = (base + Up @ E @ Vp.T).reshape(samples, -1)
    return float(np.min(np.sqrt(np.vecdot(cand, cand))))


def suite_lmo(trials: int = 1000) -> list:
    rng = np.random.default_rng(17)
    results = []
    for spec in _basic_specs() + [_product_spec()]:
        pair, primal = [], []
        for idx, W in _spec_draws(rng, spec, trials):
            X = norms.lmo_min_stack(W, spec)
            pair.append((idx, np.abs(_inner_rows(W, X) - norms.dual_norm_stack(W, spec))))
            primal.append((idx, norms.primal_norm_stack(X, spec)))
        worst_pair = _worst(0.0, trials, pair)
        worst_primal = _worst(0.0, trials, primal)
        results.append(CheckResult(
            f"lmo pairing equals dual norm [{type(spec).__name__}]",
            worst_pair <= 1e-8, worst_pair, 1e-8))
        results.append(CheckResult(
            f"lmo stays in the unit ball [{type(spec).__name__}]",
            worst_primal <= 1.0 + 1e-10, worst_primal, 1.0 + 1e-10))

    # Least-Frobenius optimality on rank-deficient 3x3 inputs: brute-force
    # the argmax set U_r V_r^T + U_perp E V_perp^T over a grid of E.
    spec = norms.OperatorNorm()
    worst_gap = 0.0
    for _ in range(20):
        rank = int(rng.integers(1, 3))
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        s = np.sort(rng.uniform(0.5, 2.0, rank))[::-1]
        A = (U[:, :rank] * s) @ V[:, :rank].T
        X = norms.lmo_min(A, spec)
        best = _least_frobenius_grid(rng, U[:, :rank] @ V[:, :rank].T,
                                     U[:, rank:], V[:, rank:], 400)
        worst_gap = max(worst_gap, float(np.linalg.norm(X)) - best)
    results.append(CheckResult(
        "lmo least-Frobenius vs brute force (rank-deficient 3x3)",
        worst_gap <= 1e-8, worst_gap, 1e-8))
    return results


def suite_cex1(T: int = 5000) -> list:
    results = []
    rng = np.random.default_rng(19)
    table = optim.Table(tuple(np.sort(rng.uniform(0.05, 0.4, 64))[::-1]))
    for beta in (0.0, 0.5, 0.9):
        for label, schedule in (("Constant(0.2)", optim.Constant(0.2)),
                                ("InvT", optim.InvT()),
                                ("Table", table)):
            fn, W0, init = cex.cex1_build(beta, schedule, horizon=T)
            state = optim.OptimizerState(W=W0, beta=beta, schedule=schedule)
            tr = optim.run("muon", fn.oracle(), state, T, track_average=False)
            pred = cex.cex1_predicted_sequence(init, T)
            dev = max(float(np.max(np.abs(tr.w11 - pred[:, 0]))),
                      float(np.max(np.abs(tr.w22 - pred[:, 1]))))
            floor = cex.cex1_floor(init, fn)
            fmin = float(np.min(tr.f))
            results.append(CheckResult(
                f"oscillation matches closed form [beta={beta}, {label}]",
                dev <= 1e-10, dev, 1e-10))
            results.append(CheckResult(
                f"suboptimality floor {floor:.3g} [beta={beta}, {label}]",
                fmin >= floor - 1e-12, floor - fmin, 1e-12))
    return results


def suite_cex2(n_inits: int = 100, T: int = 2000) -> list:
    rng = np.random.default_rng(23)
    results = []
    for beta in (0.0, 0.2, 0.4):
        c = 0.5 - beta
        fn = cex.KinkyFunction(c=c)
        table = optim.Table(tuple(rng.uniform(0.01, 0.3, T)))
        for label, method, schedule in (
                ("regmuon+adaptive", "regmuon", optim.AdaptiveNuclear(0.05)),
                ("muon+table", "muon", table)):
            worst_p = 0.0
            q_ok = True
            worst_floor = np.inf
            passes = 0
            starts = [rng.standard_normal((2, 2)) for _ in range(n_inits)]
            states = [optim.OptimizerState(W=W0, beta=beta, schedule=schedule)
                      for W0 in starts]
            traces = optim.run_batch(method, [fn] * n_inits, states, T)
            for W0, tr in zip(starts, traces):
                p0 = W0[0, 0] + W0[1, 1]
                p, q = tr.sum_diag, tr.diff_diag  # the invariants p_t and q_t
                dp = float(np.max(np.abs(p - p0)))
                worst_p = max(worst_p, dp)
                ok_q = bool(np.all(q != 0.0))
                q_ok = q_ok and ok_q
                margin = float(np.min(tr.f)) - c * abs(p0)
                worst_floor = min(worst_floor, margin)
                if dp <= 1e-12 and ok_q and margin >= -1e-12:
                    passes += 1
            results.append(CheckResult(
                f"invariant p constant [beta={beta}, {label}]",
                worst_p <= 1e-12, worst_p, 1e-12))
            results.append(CheckResult(
                f"q never hits zero [beta={beta}, {label}]",
                q_ok, 0.0 if q_ok else 1.0, 0.0))
            results.append(CheckResult(
                f"floor c|p0| holds in {passes}/{n_inits} runs [beta={beta}, {label}]",
                passes == n_inits, float(n_inits - passes), 0.0))
    return results


def suite_ef_bound(T: int = 5000) -> list:
    cfg = PRESETS["efm-appendixE"]()
    cfg["T"] = T
    trace, bound, rcfg = run_experiment(cfg)
    final = float(trace.f[-1])
    gap = float(np.max(trace.favg - bound))
    return [
        CheckResult("error feedback reaches f < 0.05", final < 0.05, final, 0.05),
        CheckResult("averaged suboptimality under the bound", gap <= 0.0, gap, 0.0),
    ]


# The keyword that sets each suite's trial count; the other suites have none.
TRIAL_ARGS = {
    "polar": "trials",
    "reduction": "trials",
    "compressor": "trials",
    "lmo": "trials",
    "cex2": "n_inits",
}

SUITES = {
    "polar": suite_polar,
    "reduction": suite_reduction,
    "compressor": suite_compressor,
    "lmo": suite_lmo,
    "cex1": suite_cex1,
    "cex2": suite_cex2,
    "ef-bound": suite_ef_bound,
}
