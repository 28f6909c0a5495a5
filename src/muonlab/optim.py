"""Optimizer step rules and runners.

Implements spectral subgradient descent (specGD), its momentum form (Muon),
the nuclear-norm rescaled variant (regMuon), elementwise sign methods
(signGD, signMomentum), the error-feedback loop EF-M with its specializations
EF-Muon and EF-MuonMax, the product-norm method MuonMax, stepsize schedules,
and the convergence-bound evaluator for the error-feedback method.

Step functions are pure: they take a state and return (new_state, StepInfo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, norms


# ---------------------------------------------------------------------------
# Stepsize schedules


@dataclass(frozen=True)
class Constant:
    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("stepsize must be positive and finite")

    def value(self, t: int, momentum=None) -> float:
        return self.lam

    def limit(self) -> float:
        return self.lam


@dataclass(frozen=True)
class InvT:
    """lambda_t = 1 / (t + 1)."""

    def value(self, t: int, momentum=None) -> float:
        return 1.0 / (t + 1)

    def limit(self) -> float:
        return 0.0


@dataclass(frozen=True)
class InvSqrtT:
    """lambda_t = 1 / sqrt(t + 1)."""

    def value(self, t: int, momentum=None) -> float:
        return 1.0 / math.sqrt(t + 1)

    def limit(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Table:
    """Explicit stepsize list; steps past the end clamp to the last value."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("Table needs at least one stepsize")
        if any(not 0 < v < math.inf for v in vals):
            raise ValueError("stepsize must be positive and finite")

    def value(self, t: int, momentum=None) -> float:
        return self.values[min(t, len(self.values) - 1)]

    def limit(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class AdaptiveNuclear:
    """lambda_t = base * ||M_t||_nuc, an offline function of past subgradients."""

    base: float

    def __post_init__(self):
        if not 0 < self.base < math.inf:
            raise ValueError("base stepsize must be positive and finite")

    def value(self, t: int, momentum=None) -> float:
        if momentum is None:
            raise ValueError("AdaptiveNuclear needs the momentum buffer")
        return self.base * linalg.norm(momentum, "nuc")

    def limit(self) -> float:
        raise ValueError("AdaptiveNuclear has no offline limit")


# ---------------------------------------------------------------------------
# Oracles


class FunctionOracle:
    """Deterministic subgradient oracle from a value and subgradient callable."""

    def __init__(self, fn, subgrad):
        self.fn = fn
        self.subgrad = subgrad

    def evaluate(self, W):
        return float(self.fn(W)), self.subgrad(W)

    def value(self, W) -> float:
        return float(self.fn(W))


class NoisyOracle:
    """Wraps a base oracle with seeded additive Gaussian noise on the subgradient."""

    def __init__(self, base, noise_std: float, seed: int = 0):
        if noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        self.base = base
        self.noise_std = noise_std
        self.rng = np.random.default_rng(seed)

    def evaluate(self, W):
        value, G = self.base.evaluate(W)
        if self.noise_std == 0:
            return value, G
        if isinstance(G, norms.ParamPoint):
            noisy = norms.ParamPoint(
                [M + self.noise_std * self.rng.standard_normal(M.shape) for M in G.matrices],
                G.theta + self.noise_std * self.rng.standard_normal(G.theta.shape),
            )
            return value, noisy
        return value, G + self.noise_std * self.rng.standard_normal(np.shape(G))

    def value(self, W) -> float:
        """The base objective; draws no noise."""
        return _value(self.base, W)


def _value(oracle, W) -> float:
    """The objective at W, from the oracle's ``value`` when it has one.

    ``value`` computes no subgradient and draws no noise; an oracle with
    only ``evaluate`` is asked for both and the subgradient is dropped.
    """
    value = getattr(oracle, "value", None)
    return value(W) if value is not None else oracle.evaluate(W)[0]


# ---------------------------------------------------------------------------
# State and steps


@dataclass
class OptimizerState:
    """Iterate plus momentum / error-feedback buffers and method config."""

    W: object
    beta: float = 0.0
    schedule: object = None
    spec: object = None
    M: object = None
    E: object = None
    t: int = 0
    polar: object = linalg.polar_exact

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if self.M is None:
            self.M = norms.zeros_like(self.W)
        if self.E is None:
            self.E = norms.zeros_like(self.W)


def _advance(state: OptimizerState, **fields) -> "OptimizerState":
    # Hot path: clone without re-running __post_init__ validation.
    new = OptimizerState.__new__(OptimizerState)
    new.__dict__ = {**state.__dict__, **fields}
    return new


@dataclass(slots=True)
class StepInfo:
    value: float
    grad: object
    lam: float


def _momentum(state: OptimizerState, G):
    if state.beta == 0.0:
        return G
    return state.beta * state.M + (1.0 - state.beta) * G


def _lam(state: OptimizerState, M) -> float:
    return state.schedule.value(state.t, momentum=M)


def step_specgd(state, oracle):
    """W' = W - lambda_t polar(G_t)."""
    value, G = oracle.evaluate(state.W)
    lam = _lam(state, G)
    W = state.W - lam * state.polar(G)
    return _advance(state, W=W, M=G, t=state.t + 1), StepInfo(value, G, lam)


def step_muon(state, oracle):
    """M' = beta M + (1-beta) G; W' = W - lambda_t polar(M')."""
    value, G = oracle.evaluate(state.W)
    M = _momentum(state, G)
    lam = _lam(state, M)
    W = state.W - lam * state.polar(M)
    return _advance(state, W=W, M=M, t=state.t + 1), StepInfo(value, G, lam)


def step_regmuon(state, oracle):
    """Muon step rescaled by the nuclear norm of the momentum."""
    value, G = oracle.evaluate(state.W)
    M = _momentum(state, G)
    lam = state.schedule.value(state.t, momentum=M)
    lam_eff = lam if isinstance(state.schedule, AdaptiveNuclear) else lam * linalg.norm(M, "nuc")
    W = state.W - lam_eff * state.polar(M)
    return _advance(state, W=W, M=M, t=state.t + 1), StepInfo(value, G, lam_eff)


def step_signgd(state, oracle):
    value, G = oracle.evaluate(state.W)
    lam = _lam(state, G)
    W = state.W - lam * np.sign(G)
    return _advance(state, W=W, M=G, t=state.t + 1), StepInfo(value, G, lam)


def step_signmomentum(state, oracle):
    value, G = oracle.evaluate(state.W)
    M = _momentum(state, G)
    lam = _lam(state, M)
    W = state.W - lam * np.sign(M)
    return _advance(state, W=W, M=M, t=state.t + 1), StepInfo(value, G, lam)


def identity_compressor(W):
    return W


def step_efm(state, oracle, compressor):
    """Error-feedback momentum step.

    P_t = E_t + lambda_t M_t; W' = W - C(P_t); E' = P_t - C(P_t).
    """
    value, G = oracle.evaluate(state.W)
    M = _momentum(state, G)
    lam = _lam(state, M)
    P = state.E + lam * M
    C = compressor(P)
    W = state.W - C
    E = P - C
    return _advance(state, W=W, M=M, E=E, t=state.t + 1), StepInfo(value, G, lam)


def _operator_compressor(P):
    """(1/r) ||P||_nuc polar(P), from one SVD of P.

    The polar factor is always the exact one, whatever ``state.polar``
    says: the delta-compressor contraction
    ||P - C(P)||_F^2 <= (1 - 1/r) ||P||_F^2 needs it, and the Newton-Schulz
    iteration can leave singular values near 0.
    """
    X, nuc = linalg.polar_and_nuclear(P)
    # nuc / r, not norms.compress's alpha**2 * nuc: for r = 2,
    # (1/sqrt(2))**2 = 0.4999999999999999, which changes the efm-appendixE
    # preset CSV.
    r = min(np.shape(P))
    return (nuc / r) * X


def step_efmuon(state, oracle):
    """EF-M with the operator-norm compressor (1/r) ||P||_nuc polar(P).

    Always uses the exact polar factor; see ``_operator_compressor``.
    """
    return step_efm(state, oracle, _operator_compressor)


def step_muonmax(state, oracle):
    """Product-norm regularized step: W' = W - lambda_t ||M||_* lmo_min(M)."""
    if not isinstance(state.spec, norms.ProductNormSpec):
        raise ValueError("step_muonmax requires a ProductNormSpec")
    value, G = oracle.evaluate(state.W)
    M = _momentum(state, G)
    lam = _lam(state, M)
    dn, X = norms.dual_norm_and_lmo(M, state.spec)
    W = state.W - (lam * dn) * X
    return _advance(state, W=W, M=M, t=state.t + 1), StepInfo(value, G, lam)


def step_efmuonmax(state, oracle):
    """EF-M with the product-norm compressor."""
    if not isinstance(state.spec, norms.ProductNormSpec):
        raise ValueError("step_efmuonmax requires a ProductNormSpec")
    spec = state.spec
    return step_efm(state, oracle, lambda P: norms.compress(P, spec))


STEP_FUNCTIONS = {
    "specgd": step_specgd,
    "muon": step_muon,
    "regmuon": step_regmuon,
    "signgd": step_signgd,
    "signmomentum": step_signmomentum,
    "efmuon": step_efmuon,
    "muonmax": step_muonmax,
    "efmuonmax": step_efmuonmax,
}


# ---------------------------------------------------------------------------
# Runner and trace


def _readout(W):
    """First two diagonal entries (matrix), first two entries (vector)."""
    if type(W) is np.ndarray and W.ndim == 2 and W.dtype is linalg._FLOAT64:
        return float(W[0, 0]), float(W[1, 1]) if min(W.shape) > 1 else 0.0
    if isinstance(W, norms.ParamPoint):
        W = W.matrices[0]
    W = np.asarray(W, float)
    if W.ndim == 1:
        w1 = float(W[0])
        w2 = float(W[1]) if W.size > 1 else 0.0
    else:
        w1 = float(W[0, 0])
        w2 = float(W[1, 1]) if min(W.shape) > 1 else 0.0
    return w1, w2


@dataclass
class Trace:
    """Per-step records of a run; row 0 is the initial point, length T + 1.

    The stepsize and gradient norm of the final row are NaN since no step is
    taken from the last iterate.  ``favg`` is the objective at the running
    mean of the iterates, used to check the averaged-iterate bound.
    """

    t: np.ndarray
    lam: np.ndarray
    f: np.ndarray
    w11: np.ndarray
    w22: np.ndarray
    grad_fro: np.ndarray
    favg: np.ndarray

    @property
    def sum_diag(self) -> np.ndarray:
        return self.w11 + self.w22

    @property
    def diff_diag(self) -> np.ndarray:
        return self.w11 - self.w22

    def __len__(self) -> int:
        return len(self.t)


def run(method, oracle, state0, T: int, compressor=None, track_average: bool = True) -> Trace:
    """Run ``T`` steps of a named method (or a step callable) from state0.

    Records T + 1 rows.  ``compressor`` is only consulted by "efm".  The
    favg and final-value rows read the objective through the oracle's
    ``value`` (see ``_value``), so a noisy oracle's subgradients do not
    depend on ``track_average``.  With ``track_average`` off the favg column
    is NaN.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if callable(method):
        step = method
    elif method == "efm":
        comp = identity_compressor if compressor is None else compressor
        step = lambda s, o: step_efm(s, o, comp)
    else:
        try:
            step = STEP_FUNCTIONS[method]
        except KeyError:
            raise ValueError(f"unknown method {method!r}") from None

    n = T + 1
    tr = Trace(
        t=np.arange(n, dtype=float),
        lam=np.full(n, np.nan),
        f=np.full(n, np.nan),
        w11=np.full(n, np.nan),
        w22=np.full(n, np.nan),
        grad_fro=np.full(n, np.nan),
        favg=np.full(n, np.nan),
    )
    state = state0
    mean = state.W  # running mean of W_0 .. W_t
    for i in range(n):
        tr.w11[i], tr.w22[i] = _readout(state.W)
        if track_average:
            tr.favg[i] = _value(oracle, mean)
        if i == T:
            tr.f[i] = _value(oracle, state.W)
            break
        try:
            state, info = step(state, oracle)
        except linalg.NumericalError as exc:
            raise linalg.NumericalError(f"step t={i} failed: {exc}") from exc
        tr.f[i] = info.value
        tr.lam[i] = info.lam
        tr.grad_fro[i] = norms.fro(info.grad)
        if track_average:
            mean = mean + (1.0 / (i + 2)) * (state.W - mean)
    return tr


BATCH_METHODS = ("muon", "regmuon")
# The schedules suite_cex1 and suite_cex2 run with.
_BATCH_SCHEDULES = (Constant, InvT, Table, AdaptiveNuclear)


def _uses_exact_polar(state: OptimizerState) -> bool:
    # A state built with the default keeps the function linalg defined, even
    # after linalg.polar_exact has been rebound (to a tracing wrapper, say).
    return state.polar is linalg.polar_exact or state.polar is OptimizerState.polar


def run_batch(method, fns, states, T: int) -> list:
    """Run B independent trajectories in lock-step; returns one Trace each.

    Member b runs ``method`` ("muon" or "regmuon") on the KinkyFunction
    ``fns[b]`` from ``states[b]``, and its Trace is bit-identical, NaN
    positions included, to
    ``run(method, fns[b].oracle(), states[b], T, track_average=False)``.
    A member whose scalar run raises makes the batch raise the same error.

    The iterates are stacked as one (B, m, n) array, so each step costs a
    fixed number of numpy calls for the whole batch.  Each member keeps its
    own W0, M, beta and schedule: one of Constant, InvT, Table or
    AdaptiveNuclear, with the exact polar factor, starting at t = 0.  Any
    other method, schedule, polar backend, start t or function raises
    ValueError.

    The loop below restates the step_muon / step_regmuon rule on the stack;
    TestRunBatch in tests/test_optim.py is the contract that keeps the two in
    sync (ROADMAP item 2 is to merge them).
    """
    from .counterexample import KinkyStack  # counterexample imports optim

    if method not in BATCH_METHODS:
        raise ValueError(f"run_batch supports {BATCH_METHODS}, not {method!r}")
    if T < 0:
        raise ValueError("T must be nonnegative")
    fstack = KinkyStack(fns)
    states = list(states)
    if len(states) != fstack.size:
        raise ValueError(f"{fstack.size} functions but {len(states)} states")
    for st in states:
        if not _uses_exact_polar(st):
            raise ValueError("run_batch needs the exact polar factor")
        # Exact types: a subclass may make value() read the momentum, which
        # the precomputed offline stepsizes below do not pass.
        if type(st.schedule) not in _BATCH_SCHEDULES:
            raise ValueError(f"run_batch does not support schedule {st.schedule!r}")
        if st.t != 0:
            raise ValueError(f"run_batch starts every member at t = 0, not {st.t}")
    W = np.stack([np.asarray(st.W, float) for st in states])
    M = np.stack([np.asarray(st.M, float) for st in states])
    if W.shape[1:] != (fstack.m, fstack.n) or M.shape != W.shape:
        raise ValueError(f"W and M must be {fstack.m} x {fstack.n} matrices")

    B, n = fstack.size, T + 1
    beta = np.array([st.beta for st in states])[:, None, None]
    one_minus_beta = 1.0 - beta
    # With beta = 0, _momentum returns G itself and M is never read.  Zeroed,
    # it makes beta * M + (1 - beta) * G equal G bit for bit: 0 * M is a
    # zero, and a zero added to an entry of G (never -0.0) leaves it as is.
    M[beta.ravel() == 0.0] = 0.0
    # coef[i, b]: member b's stepsize at step i before any nuclear-norm
    # factor, i.e. AdaptiveNuclear's base or an offline schedule's value.
    # Members sharing a schedule share the values.
    coef = np.empty((T, B))
    offline = {}
    for b, st in enumerate(states):
        sched = st.schedule
        if isinstance(sched, AdaptiveNuclear):
            coef[:, b] = sched.base
        else:
            if id(sched) not in offline:
                offline[id(sched)] = [sched.value(i) for i in range(T)]
            coef[:, b] = offline[id(sched)]
    # Members whose stepsize is multiplied by ||M||_nuc: every regmuon
    # member, and muon members with AdaptiveNuclear.
    scaled = np.array([method == "regmuon" or isinstance(st.schedule, AdaptiveNuclear)
                       for st in states])
    any_scaled = bool(scaled.any())

    # favg stays NaN, as in run(..., track_average=False).
    cols = {k: np.full((B, n), np.nan) for k in ("lam", "f", "w11", "w22", "grad_fro", "favg")}
    for i in range(n):
        cols["w11"][:, i] = W[:, 0, 0]
        cols["w22"][:, i] = W[:, 1, 1]
        if i == T:
            cols["f"][:, i] = fstack.value(W)
            break
        cols["f"][:, i], G, cols["grad_fro"][:, i] = fstack.evaluate(W)
        M = beta * M + one_minus_beta * G
        lam = coef[i]
        if any_scaled:
            lam = lam.copy()
            lam[scaled] *= linalg.nuclear_norm_stack(M[scaled])
        try:
            X = linalg.polar_exact_stack(M)
        except linalg.NumericalError as exc:
            raise linalg.NumericalError(f"step t={i} failed: {exc}") from exc
        W = W - lam[:, None, None] * X
        cols["lam"][:, i] = lam
    t = np.arange(n, dtype=float)
    return [Trace(t=t.copy(), **{k: v[b] for k, v in cols.items()}) for b in range(B)]


# ---------------------------------------------------------------------------
# Convergence bound


def _check_bound_domain(delta, beta, sigma, dist0):
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")
    if not 0.0 <= dist0 < math.inf:
        raise ValueError("dist0 must be finite and nonnegative")


def _bound_coeff(delta: float, beta: float) -> float:
    return 2.0 * math.sqrt(1.0 - delta) / delta + beta / (1.0 - beta) + 0.5


def _bound_factors(delta, beta, sigma, dist0) -> tuple:
    """(dist0^2, sigma^2 coeff), the T-free factors of ``efm_bound``."""
    _check_bound_domain(delta, beta, sigma, dist0)
    return dist0**2, sigma**2 * _bound_coeff(delta, beta)


def _bound_at(T: int, dist0_sq: float, noise: float) -> float:
    # ((sigma^2 coeff) (1 + log(T+1))) / sqrt(T+1): this association gives
    # the values the efm-appendixE preset digest was recorded with.
    root = math.sqrt(T + 1.0)
    return dist0_sq / (2.0 * root) + noise * (1.0 + math.log(T + 1.0)) / root


def efm_bound(T: int, delta: float, beta: float, sigma: float, dist0: float) -> float:
    """Averaged-iterate suboptimality bound for EF-M with lambda_t = 1/sqrt(t+1).

    dist0^2 / (2 sqrt(T+1))
      + sigma^2 (2 sqrt(1-delta)/delta + beta/(1-beta) + 1/2) (1 + log(T+1)) / sqrt(T+1)
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    return _bound_at(T, *_bound_factors(delta, beta, sigma, dist0))


def efm_bound_column(T: int, delta: float, beta: float, sigma: float,
                     dist0: float) -> np.ndarray:
    """``[efm_bound(t, delta, beta, sigma, dist0) for t in range(T + 1)]``,
    bit for bit, with the domain check and the T-free factors done once."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    dist0_sq, noise = _bound_factors(delta, beta, sigma, dist0)
    return np.array([_bound_at(t, dist0_sq, noise) for t in range(T + 1)])


def _check_nonincreasing(lams: np.ndarray):
    if np.any(np.diff(lams) > 1e-15):
        raise ValueError("schedule must be nonincreasing")


def efm_bound_schedule(lams, delta: float, beta: float, sigma: float, dist0: float) -> float:
    """General-schedule form of the bound with nonincreasing stepsizes lams[0..T].

    dist0^2 / (2 lam_T (T+1))
      + sigma^2 (2 sqrt(1-delta)/delta + beta/(1-beta) + 1/2) sum(lam_t^2) / (lam_T (T+1))
    """
    _check_bound_domain(delta, beta, sigma, dist0)
    lams = np.asarray(lams, float)
    if lams.ndim != 1 or lams.size < 1:
        raise ValueError("lams must be a nonempty 1-d sequence")
    # NaN fails both comparisons.
    if not np.all((lams > 0) & (lams < math.inf)):
        raise ValueError("stepsizes must be finite and positive")
    _check_nonincreasing(lams)
    coeff = _bound_coeff(delta, beta)
    T1 = lams.size
    tail = lams[-1] * T1
    return dist0**2 / (2.0 * tail) + sigma**2 * coeff * float(np.sum(lams**2)) / tail
