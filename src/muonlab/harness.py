"""Experiment configuration, CSV trace emission, and the property-check
suites behind the command line interface and the acceptance tests.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
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
        **_preset_cex1(),
        "method": "efmuon",
        "schedule": {"kind": "invsqrt"},
        "init": {"kind": "explicit", "diag": [1.0 + math.log(2.0), 1.0 - math.log(2.0)]},
        "bound": {},
    }


PRESETS = {
    "cex1-appendixE": _preset_cex1,
    "efm-appendixE": _preset_efm,
}

def _real(value, what: str) -> float:
    """A config number (``norms._real``); a bool or a string such as "0.5" is refused."""
    x = norms._real(value)
    if x is None:
        raise ConfigError(f"{what} must be a number, got {norms._shown(value)}")
    return x


def _finite(value, what: str) -> float:
    """A finite config number; JSON's NaN and Infinity are refused."""
    x = _real(value, what)
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {norms._shown(value)}")
    return x


# The keys each kind of ``schedule`` and ``init`` block takes besides "kind".
SCHEDULE_KEYS = {"constant": {"lam"}, "invt": set(), "invsqrt": set(),
                 "table": {"values"}, "adaptive_nuclear": {"base"}}
INIT_KEYS = {"cex1": {"r", "delta"}, "random": {"scale"}, "explicit": {"matrix", "diag"}}


def _kind(spec: dict, kinds: dict, what: str) -> str:
    """The kind of a ``what`` block, one of ``kinds``, whose keys it must keep to."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {norms._shown(kind)}")
    unknown = sorted(set(spec) - kinds[kind] - {"kind"})
    if unknown:
        raise ConfigError(f"{what} {kind!r} has unknown keys {unknown}")
    return kind


def build_schedule(spec: dict):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("schedule needs a 'kind' field")
    kind = _kind(spec, SCHEDULE_KEYS, "schedule")
    try:
        if kind == "constant":
            return optim.Constant(_finite(spec["lam"], "lam"))
        if kind == "invt":
            return optim.InvT()
        if kind == "invsqrt":
            return optim.InvSqrtT()
        if kind == "table":
            return optim.Table(tuple(_finite(v, "table value") for v in spec["values"]))
        return optim.AdaptiveNuclear(_finite(spec["base"], "base"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad schedule spec: {exc}") from exc


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
    if cfg["method"] not in cex.RUN_METHODS:
        raise ConfigError(f"unknown method {cfg['method']!r}; "
                          f"a run takes one of {', '.join(cex.RUN_METHODS)}")
    for key in ("m", "n", "seed", "T"):
        if (value := norms._integer(cfg[key])) is None:
            raise ConfigError(f"{key} must be an integer")
        cfg[key] = value
    if not isinstance(cfg["track_average"], bool):
        raise ConfigError("track_average must be true or false")
    try:  # the domains of beta, c and the shape are checked by their owners
        cfg["beta"] = optim._check_beta(_real(cfg["beta"], "beta"))
        if not isinstance(cfg["style"], str) or cfg["style"] not in cex.AUTO_C:
            raise ConfigError(f"unknown style {norms._shown(cfg['style'])}")
        if cfg["c"] == "auto":
            cfg["c"] = cex.AUTO_C[cfg["style"]](cfg["beta"])
        cfg["c"], cfg["m"], cfg["n"] = cex._check_domain(_real(cfg["c"], "c"), cfg["m"], cfg["n"])
    except ValueError as exc:  # a ConfigError too, kept as it reads
        raise ConfigError(str(exc)) from None
    for key in ("seed", "T"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be nonnegative")
    if cfg["T"] >= 2**53:
        raise ConfigError("T must be below 2**53, where the float t column stops being exact")
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
        raise ConfigError(f"init must be an object with a 'kind', got {norms._shown(init)}")
    m, n = cfg["m"], cfg["n"]
    kind = _kind(init, INIT_KEYS, "init")
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
    if ("matrix" in init) == ("diag" in init):
        raise ConfigError("explicit init needs 'matrix' or 'diag', and not both")
    if "matrix" in init:
        for entry in np.asarray(init["matrix"], dtype=object).flat:  # a ragged row is an entry
            _finite(entry, "matrix entry")
        W0 = linalg.as_matrix(init["matrix"])
        if W0.shape != (m, n):
            raise ConfigError("explicit matrix shape mismatch")
        return W0
    diag = init["diag"]
    if not isinstance(diag, (list, tuple)) or len(diag) != 2:
        raise ConfigError(f"diag must be a list of two numbers, got {norms._shown(diag)}")
    W0 = np.zeros((m, n))
    W0[0, 0] = _finite(diag[0], "diag entry")
    W0[1, 1] = _finite(diag[1], "diag entry")
    return W0


BOUND_KEYS = frozenset(("delta", "sigma", "dist0"))


def _resolve_bound(cfg: dict, W0: np.ndarray) -> tuple:
    """The ``bound`` block with its defaults filled in, and the run's bound
    column, ``optim.efm_bound_column``: the EF-M bound for lambda_t =
    1/sqrt(t+1), so only an ``efmuon`` run on ``invsqrt`` takes the block.
    A bad value is named whatever the run; the column, O(T), comes last."""
    spec = cfg["bound"]
    if not isinstance(spec, dict):
        raise ConfigError(f"bound must be an object, got {norms._shown(spec)}")
    unknown = sorted(set(spec) - BOUND_KEYS)
    if unknown:
        raise ConfigError(f"bound has unknown keys {unknown}")
    b = {
        "delta": norms.compressor_constants(norms.OperatorNorm(), (cfg["m"], cfg["n"])).delta,
        "sigma": cex.lipschitz_bound(cfg["c"]),
        "dist0": math.hypot(W0[0, 0], W0[1, 1]),
    }
    b.update((key, _real(value, f"bound {key}")) for key, value in spec.items())
    args = (b["delta"], cfg["beta"], b["sigma"], b["dist0"])
    try:
        optim._bound_factors(*args)
    except ValueError as exc:
        raise ConfigError(f"bound {exc}") from None
    method, kind = cfg["method"], cfg["schedule"]["kind"]
    if method != "efmuon" or kind != "invsqrt":
        raise ConfigError(f"bound is the EF-M bound for lambda_t = 1/sqrt(t+1): it needs "
                          f"method 'efmuon' and schedule 'invsqrt', not method {method!r} "
                          f"and schedule {kind!r}")
    try:
        column = optim.efm_bound_column(cfg["T"], *args)
    except ValueError as exc:  # "the bound overflows ..." reads "bound overflows ..."
        raise ConfigError("bound " + str(exc).removeprefix("the bound ")) from None
    return b, column


def run_experiment(raw_config: dict):
    """Run a configured experiment; returns (Trace, bound column, resolved config)."""
    cfg = resolve_config(raw_config)
    schedule = build_schedule(cfg["schedule"])
    W0 = _build_init(cfg, schedule)
    fn = cex.KinkyFunction(c=cfg["c"], m=cfg["m"], n=cfg["n"])
    polar = linalg.polar_exact if cfg["polar"] == "exact" else linalg.polar_newton_schulz
    bound = None
    if "bound" in cfg:  # every bound refusal comes before the run
        cfg["bound"], bound = _resolve_bound(cfg, W0)
    state = optim.OptimizerState(W=W0, beta=cfg["beta"], schedule=schedule, polar=polar)
    trace = optim.run(cfg["method"], fn.oracle(), state, cfg["T"],
                      track_average=cfg["track_average"])
    if bound is None:
        bound = np.full(len(trace), np.nan)
    return trace, bound, cfg


# ---------------------------------------------------------------------------
# CSV cells: "%.17g" % x, formatted in numpy
#
# A cell with 1e-6 <= |x| < 1e15 has a decimal exponent E in [-6, 14], so
# |x| * 10**(16 - E) takes only the powers 10**2 .. 10**22, all exact doubles.
# Dekker's two-product gives that product exactly as hi + lo, and hi >= 2**53
# is an even integer, so N = hi + rint(lo) is it rounded to an integer, ties
# to even, as "%.17g" rounds.  E comes from log10 and is only an estimate; a
# cell is taken only where 10**16 < N < 10**17, which proves E right.  Every
# other cell (zeros, NaN, infinities, subnormals, the rest of the range and N
# on a decade edge) goes through "%.17g" itself, NaN as its constant "nan".

_POW10 = np.array([float(10**k) for k in range(23)])


def _veltkamp(a):
    """``a`` as hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# A cell is laid out in _CELL bytes: a sign, the text in columns 1..22 (the
# "e-0X" of an exponent form in 19..22) or a "%.17g" text in 0..23, then the
# separator.  The bytes left NUL are deleted when the block is joined.
_CELL = 25
_BLOCK_ROWS = 1024


@functools.cache
def _digit_groups() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one uint32, then the same
    with their trailing zeros as NUL bytes."""
    v = np.arange(10_000)[:, None]
    p = np.array([1000, 100, 10, 1])
    digits = (v // p % 10 + 48).astype(np.uint8)
    stripped = np.where(v % (10 * p) == 0, 0, digits).astype(np.uint8)
    return np.concatenate([digits, stripped]).view(np.uint32).ravel()


def _csv_block(cells: np.ndarray) -> bytes:
    """The CSV lines of a (rows, columns) float64 block, each cell as
    ``"%.17g" % cell`` would write it."""
    x = cells.ravel()
    a = np.abs(x)
    exact = (a >= 1e-6) & (a < 1e15)  # False for NaN
    a = np.where(exact, a, 1.0)
    E = np.clip(np.floor(np.log10(a)), -6, 14).astype(np.intp)
    k = 16 - E
    hi = a * _POW10[k]
    ah, al = _veltkamp(a)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact &= (N > 10**16) & (N < 10**17)
    # Sorted by E, the exact cells of one exponent are one slice; NaN (15)
    # and the "%.17g" cells (16) come last.
    key = np.where(exact, E, np.where(np.isnan(x), 15, 16)).astype(np.int8)
    order = np.argsort(key, kind="stable")
    x = x[order]
    bounds = np.searchsorted(key[order], np.arange(-6, 17)).tolist()
    n_exact, n_special = bounds[21], bounds[22]
    # The 17 digits of N from five groups: the first digit, then four of four.
    head, tail = np.divmod(N[order[:n_exact]], 10**8)
    first, head = np.divmod(head.astype(np.int32), 10**8)
    groups = [first, *np.divmod(head, 10**4), *np.divmod(tail.astype(np.int32), 10**4)]
    table, zeros_after = _digit_groups(), True
    G = np.empty((n_exact, 5), np.uint32)
    for i in range(4, -1, -1):  # trailing zeros of N become NUL
        G[:, i] = table[groups[i] + 10_000 * zeros_after]
        zeros_after = zeros_after & (groups[i] == 0)
    digits = G.view(np.uint8)[:, 3:]
    S = np.zeros((x.size, _CELL), np.uint8)
    for e, start, stop in zip(range(-6, 15), bounds, bounds[1:]):
        if start == stop:
            continue
        d, s = digits[start:stop], S[start:stop]
        if -4 <= e < 0:  # 0.000ddd
            s[:, 1:3] = (48, 46)
            s[:, 3:2 - e] = 48
            s[:, 2 - e:19 - e] = d
            continue
        p = max(e, 0)  # digits up to d[p] are the integer part, kept whole
        s[:, 1:p + 2] = d[:, :p + 1] | 48
        s[:, p + 2] = np.where(d[:, p + 1] == 0, 0, 46)
        s[:, p + 3:19] = d[:, p + 1:]
        if e < 0:
            s[:, 19:23] = (101, 45, 48, 48 - e)  # e-05, e-06
    S[:n_exact, 0] = np.where(x[:n_exact] < 0, 45, 0)
    S[n_exact:n_special, :3] = (110, 97, 110)
    texts = ["%.17g" % v for v in x[n_special:].tolist()]
    S[n_special:, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
    out = np.empty_like(S)
    row = np.dtype((np.void, _CELL))
    out.view(row)[order] = S.view(row)
    out.reshape(*cells.shape, _CELL)[:, :, -1] = [44] * (cells.shape[1] - 1) + [10]
    return out.tobytes().translate(None, b"\0")


def write_csv(path: str, trace: optim.Trace, bound: np.ndarray):
    """CSV with fixed columns, 17 significant digits, LF endings: every cell
    as ``"%.17g" % cell``, written in blocks of ``_BLOCK_ROWS`` rows."""
    columns = [np.asarray(c, dtype=float) for c in (
        trace.t, trace.lam, trace.f, trace.w11, trace.w22, trace.sum_diag,
        trace.diff_diag, trace.grad_fro, trace.favg, bound)]
    if len({len(c) for c in columns}) != 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    cells = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_COLUMNS) + "\n").encode())
        for start in range(0, len(cells), _BLOCK_ROWS):
            fh.write(_csv_block(cells[start:start + _BLOCK_ROWS]))


def write_sidecar(path: str, cfg: dict):
    root, _ = os.path.splitext(path)
    with open(root + ".config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Property suites


@dataclass(frozen=True)
class CheckResult:
    """One check of a suite, which states its tolerance once, as ``required``:
    it passes when ``observed <= required``, so a NaN observed value fails."""

    name: str
    observed: float
    required: float

    @property
    def passed(self) -> bool:
        return bool(self.observed <= self.required)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: observed {self.observed:.3e}, required <= {self.required:.3e}"


def _grouped(draws) -> list:
    """The (key, *fields) tuples of ``draws`` stacked by key: one (key,
    *fields) per key in order of first appearance, each field an ``np.array``
    of its members' values in draw order."""
    groups = {}
    for key, *fields in draws:
        groups.setdefault(key, []).append(fields)
    return [(key, *map(np.array, zip(*members))) for key, members in groups.items()]


def suite_polar(trials: int = 500) -> list:
    trials = norms._positive_int(trials, "trials")
    rng = np.random.default_rng(7)

    # Well-conditioned inputs (U * s) @ V^T with orthonormal U, V from QR and
    # singular values in [0.5, 2], so the condition number stays under 4.
    # The draws come in trial order: the shape, the two Gaussians, then s.
    def draw():
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        r = min(m, n)
        return ((m, n), rng.standard_normal((m, r)), rng.standard_normal((n, r)),
                rng.uniform(0.5, 2.0, r))

    def draw_diagonal():
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        vals = rng.standard_normal(min(m, n))
        vals[rng.random(vals.size) < 0.3] = 0.0
        return (m, n), vals

    errs = [0.0]
    for _, G, H, s in _grouped(draw() for _ in range(trials)):
        U, V = np.linalg.qr(G)[0], np.linalg.qr(H)[0]
        A = (U * s[:, None, :]) @ V.mT
        D = linalg.polar_newton_schulz_stack(A) - linalg.polar_exact_stack(A)
        errs.extend(norms.fro_stack(D))  # np.linalg.norm of each member
    diag_errs = [0.0]
    for (m, n), vals in _grouped(draw_diagonal() for _ in range(200)):
        D = np.zeros((len(vals), m, n))
        k = np.arange(min(m, n))
        D[:, k, k] = vals
        diag_errs.append(np.max(np.abs(linalg.polar_exact_stack(D) - np.sign(D))))
    return [
        CheckResult("newton-schulz vs exact polar", _max(errs), 1e-4),
        CheckResult("polar of diagonal equals sign", _max(diag_errs), 0.0),
    ]


def _reduction_draw(rng) -> tuple:
    """One trial of ``suite_reduction``, keyed by the shape (k, d) of U: the
    momentum beta, a stepsize schedule, and the convex piecewise-linear
    f(w) = sum_j a_j |<U_j, w> + b_j| with its start w0 in R^d."""
    d, beta = int(rng.integers(2, 5)), float(rng.uniform(0.0, 0.99))
    schedule = [optim.Constant(float(rng.uniform(0.01, 0.5))),
                optim.InvT(), optim.InvSqrtT()][int(rng.integers(0, 3))]
    k = int(rng.integers(2, 6))
    return ((k, d), beta, schedule, rng.uniform(0.2, 2.0, k), rng.standard_normal((k, d)),
            rng.standard_normal(k), rng.standard_normal(d))


def _reduction_lockstep(beta, schedules, a, U, b, w0, steps: int) -> tuple:
    """Signed momentum on each member's f, and Muon on f of the diagonal of a
    d x d matrix started at diag(w0): ``optim._lockstep`` with ``np.sign`` on
    the (B, d) vectors and with ``linalg.polar_exact_stack`` on the (B, d, d)
    matrices.  The arguments are one ``_grouped`` group of ``_reduction_draw``
    trials: beta and the schedules (B,), a and b (B, k), U (B, k, d), w0 (B, d).

    Returns the iterates after each step, a (steps, B, d) and a (steps, B, d,
    d) array, and the final momenta, a (B, d) and a (B, d, d) array; member
    b's are those of ``step_signmomentum`` and ``step_muon`` loops bit for
    bit (TestReductionLockstep in tests/test_harness.py is the contract).
    """
    coef = np.array([optim.offline_stepsizes(s, 0, steps) for s in schedules]).T
    k, one_minus_beta = np.arange(w0.shape[1]), (1.0 - beta)[:, None]
    G, W = np.zeros((2, *w0.shape, len(k)))  # (B, d, d) stacks: G's diagonal is written
    W[:, k, k] = w0

    def evaluate(w):
        # (1 - beta) (a * sign(U @ w + b)) @ U of each row of w, as the same matmuls.
        z = (U @ w[:, :, None])[:, :, 0] + b
        return one_minus_beta * ((a * np.sign(z))[:, None, :] @ U)[:, 0]

    def evaluate_diagonal(W):
        G[:, k, k] = evaluate(W[:, k, k])
        return G

    # The momenta start at zero, so for beta = 0 beta * M is a zero and
    # beta * M + (1 - beta) * G is G, as optim.step reads it, up to the
    # sign of a zero entry, which np.sign reads as 0 either way.
    vec, m = optim._lockstep(evaluate, np.sign, w0, np.zeros_like(w0), beta, coef)
    mat, M = optim._lockstep(evaluate_diagonal, linalg.polar_exact_stack, W,
                             np.zeros_like(W), beta, coef)
    return vec[1:], mat[1:], m, M


def suite_reduction(trials: int = 50, steps: int = 100) -> list:
    trials, steps = norms._positive_int(trials, "trials"), norms._positive_int(steps, "steps")
    rng = np.random.default_rng(11)
    worst = [0.0]
    for _, *group in _grouped(_reduction_draw(rng) for _ in range(trials)):
        vec, mat, _, _ = _reduction_lockstep(*group, steps)
        k = np.arange(vec.shape[-1])
        diag = mat[..., k, k]
        off = mat.copy()
        off[..., k, k] -= diag
        worst += [np.max(np.abs(diag - vec)), np.max(np.abs(off))]
    return [CheckResult("momentum spectral vs signed momentum on diagonals", _max(worst), 1e-12)]


def _spec_draws(rng, spec, trials: int) -> list:
    """The suites' ``trials`` random arguments for ``spec``, grouped by shape.

    Returns one stack per shape, in order of first appearance, its members in
    draw order.  The draws come from ``rng`` in trial order: a shape (m before
    n), then its entries; a product point's layers and theta come from one
    ``standard_normal`` call, the same stream as one call per block.
    """
    if isinstance(spec, norms.ProductNormSpec):
        ends = np.cumsum([m * n for m, n in spec.layer_dims])
        Z = rng.standard_normal((trials, int(ends[-1]) + spec.k))
        mats = [Z[:, end - m * n:end].reshape(trials, m, n)
                for end, (m, n) in zip(ends, spec.layer_dims)]
        return [(mats, Z[:, ends[-1]:])]
    integers, normal, groups = rng.integers, rng.standard_normal, {}
    vector = isinstance(spec, norms._VECTOR_SPECS)
    for _ in range(trials):
        shape = (int(integers(2, 21)),) if vector else (int(integers(2, 8)), int(integers(2, 8)))
        groups.setdefault(shape, []).append(normal(shape))
    return list(map(np.array, groups.values()))


def _max(values) -> float:
    """The worst of a check's values: ``np.max`` keeps a NaN, which Python ``max``
    may drop, and no value is -0.0, so their order cannot change the bits."""
    return float(np.max(values))


def _basic_specs():
    return [norms.L1(), norms.L2(), norms.Linf(), norms.Lp(1.5), norms.Lp(3.0),
            norms.OperatorNorm(), norms.NuclearNorm()]


def _product_spec():
    return norms.ProductNormSpec(layer_dims=((3, 4), (2, 2)), s=1.5, k=3)


def suite_compressor(trials: int = 1000) -> list:
    trials = norms._positive_int(trials, "trials")
    rng = np.random.default_rng(13)
    results = []
    for spec in _basic_specs():
        margins = [-np.inf]
        for W in _spec_draws(rng, spec, trials):
            shrink = 1.0 - norms.compressor_constants(spec, norms._dims(W, spec)).delta
            lhs = norms.fro_stack(W - norms.compress_stack(W, spec)).tolist()
            margins += [a**2 - shrink * b**2 for a, b in zip(lhs, norms.fro_stack(W).tolist())]
        results.append(CheckResult(
            f"compression contraction [{type(spec).__name__}]", _max(margins),
            norms.CONTRACTION_SLACK))
    spec = _product_spec()
    alpha_sq = norms.compressor_constants(spec).alpha ** 2
    margins = [-np.inf]
    for W in _spec_draws(rng, spec, trials):
        (mats, theta), (C, c) = W, norms.compress_stack(W, spec)
        lhs = norms.fro_stack(([M - D for M, D in zip(mats, C)], theta - c)).tolist()
        rhs = zip(norms.fro_stack(W).tolist(), norms.dual_norm_stack(W, spec).tolist())
        margins += [a**2 - (b**2 - alpha_sq * c**2) for a, (b, c) in zip(lhs, rhs)]
    results.append(CheckResult(
        "compression contraction [Product, proof-line]", _max(margins), norms.CONTRACTION_SLACK))
    return results


def _least_frobenius_grid(rng, base, Up, Vp, samples: int) -> float:
    """Smallest Frobenius norm of ``base + Up E Vp^T`` over ``samples`` draws
    of E uniform on [-1, 1]^(k x k), each scaled into the operator-norm ball.

    The draws come from one ``rng.uniform`` call, the same stream as one call
    per draw.  ``norms.fro_stack`` gives each candidate's norm bit for bit as
    ``np.linalg.norm`` on it alone; ``einsum`` and ``sum`` do not.
    """
    k = Up.shape[1]
    E = rng.uniform(-1.0, 1.0, (samples, k, k))
    op = norms.primal_norm_stack(E, norms.OperatorNorm())
    E = np.where((op > 1.0)[:, None, None], E / op[:, None, None], E)
    return float(np.min(norms.fro_stack(base + Up @ E @ Vp.T)))


def suite_lmo(trials: int = 1000) -> list:
    trials = norms._positive_int(trials, "trials")
    rng = np.random.default_rng(17)
    results = []
    for spec in _basic_specs() + [_product_spec()]:
        pair, primal = [0.0], [0.0]
        for W in _spec_draws(rng, spec, trials):
            X = norms.lmo_min_stack(W, spec)
            pair.append(np.max(np.abs(norms.inner_stack(W, X) - norms.dual_norm_stack(W, spec))))
            primal.append(np.max(norms.primal_norm_stack(X, spec)))
        results.append(CheckResult(
            f"lmo pairing equals dual norm [{type(spec).__name__}]", _max(pair),
            norms.PAIRING_TOL))
        results.append(CheckResult(
            f"lmo stays in the unit ball [{type(spec).__name__}]", _max(primal),
            1.0 + norms.PRIMAL_NORM_SLACK))

    # Least-Frobenius optimality on rank-deficient 3x3 inputs: brute-force
    # the argmax set U_r V_r^T + U_perp E V_perp^T over a grid of E.
    spec = norms.OperatorNorm()
    gaps = [0.0]
    for _ in range(20):
        rank = int(rng.integers(1, 3))
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        s = np.sort(rng.uniform(0.5, 2.0, rank))[::-1]
        A = (U[:, :rank] * s) @ V[:, :rank].T
        X = norms.lmo_min(A, spec)
        best = _least_frobenius_grid(rng, U[:, :rank] @ V[:, :rank].T,
                                     U[:, rank:], V[:, rank:], 400)
        gaps.append(norms.fro(X) - best)
    results.append(CheckResult(
        "lmo least-Frobenius vs brute force (rank-deficient 3x3)", _max(gaps), 1e-8))
    return results


def suite_cex1(T: int = 5000) -> list:
    T = norms._positive_int(T, "T")
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
            dev = _max(np.abs(np.column_stack((tr.w11, tr.w22)) - pred))
            floor = cex.cex1_floor(init, fn)
            results.append(CheckResult(
                f"oscillation matches closed form [beta={beta}, {label}]", dev, 1e-10))
            results.append(CheckResult(
                f"suboptimality floor {floor:.3g} [beta={beta}, {label}]",
                floor - float(np.min(tr.f)), 1e-12))
    return results


def suite_cex2(trials: int = 100, T: int = 2000) -> list:
    T, trials = norms._positive_int(T, "T"), norms._positive_int(trials, "trials")
    rng = np.random.default_rng(23)
    results = []
    tol = 1e-12  # on |p_t - p_0|, and on how far min f_t may fall below c |p_0|
    for beta in (0.0, 0.2, 0.4):
        c = cex.AUTO_C["cex2"](beta)
        fn = cex.KinkyFunction(c=c)
        table = optim.Table(tuple(rng.uniform(0.01, 0.3, T)))
        for label, method, schedule in (
                ("regmuon+adaptive", "regmuon", optim.AdaptiveNuclear(0.05)),
                ("muon+table", "muon", table)):
            dps, q_ok, passes = [0.0], True, 0
            starts = [rng.standard_normal((2, 2)) for _ in range(trials)]
            states = [optim.OptimizerState(W=W0, beta=beta, schedule=schedule) for W0 in starts]
            traces = [optim.run(method, fn, st, T, track_average=False) for st in states]
            for W0, tr in zip(starts, traces):
                p0 = W0[0, 0] + W0[1, 1]
                p, q = tr.sum_diag, tr.diff_diag  # the invariants p_t and q_t
                dp = float(np.max(np.abs(p - p0)))
                dps.append(dp)
                ok_q = bool(np.all(np.abs(q) > 0.0))  # a NaN q fails too
                q_ok = q_ok and ok_q
                margin = float(np.min(tr.f)) - c * abs(p0)
                passes += dp <= tol and ok_q and margin >= -tol
            results.append(CheckResult(
                f"invariant p constant [beta={beta}, {label}]", _max(dps), tol))
            results.append(CheckResult(
                f"q never hits zero [beta={beta}, {label}]", 0.0 if q_ok else 1.0, 0.0))
            results.append(CheckResult(
                f"floor c|p0| holds in {passes}/{trials} runs [beta={beta}, {label}]",
                float(trials - passes), 0.0))
    return results


def suite_ef_bound(T: int = 5000) -> list:
    T = norms._positive_int(T, "T")
    trace, bound, _ = run_experiment({**PRESETS["efm-appendixE"](), "T": T})
    gap = float(np.max(trace.favg - bound))
    return [
        # f < 0.05 strictly: the largest double below 0.05, printed as 5.000e-02.
        CheckResult("error feedback reaches f < 0.05", float(trace.f[-1]),
                    math.nextafter(0.05, 0.0)),
        CheckResult("averaged suboptimality under the bound", gap, 0.0),
    ]


SUITES = {
    "polar": suite_polar,
    "reduction": suite_reduction,
    "compressor": suite_compressor,
    "lmo": suite_lmo,
    "cex1": suite_cex1,
    "cex2": suite_cex2,
    "ef-bound": suite_ef_bound,
}
# The suites whose ``trials`` keyword sets a trial count; the others have none.
TRIAL_ARGS = frozenset(k for k, f in SUITES.items() if "trials" in inspect.signature(f).parameters)

# The abstract's claims, and the kernels both constructions run on: (id, claim,
# the suites that bear on it, status), the status "check" (a pinned pass/fail),
# "finding" (a number with no gate) or "not reproduced".  Each suite sits in one
# row.  README's Claims section is this table.
CLAIMS = (
    ("C1", "Muon does not converge on the class of convex and Lipschitz functions, regardless "
     "of the choice of learning rate schedule.", ("cex1", "cex2", "reduction"), "check"),
    ("C2", "Error feedback restores convergence of Muon and all the non-Euclidean subgradient "
     "methods with momentum. Only EF-Muon on the efm-appendixE preset is checked today.",
     ("ef-bound", "compressor"), "check"),
    ("C3", "Error feedback degrades the performance of Muon on CIFAR-10 and nanoGPT. It needs "
     "datasets and GPUs the repo does not have.", (), "not reproduced"),
    ("C4", "Muon's success must come from structure absent from the convex Lipschitz model, "
     "most plausibly related to smoothness.", (), "not reproduced"),
    ("K", "The polar factors and the LMOs that both constructions run on are right: "
     "Newton-Schulz tracks the exact polar factor, and each LMO attains its dual norm "
     "inside the unit ball with the least Frobenius norm.", ("polar", "lmo"), "check"),
)
