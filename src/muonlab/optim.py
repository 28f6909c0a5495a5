"""Optimizer step rules and runners.

Every method is one steepest-descent rule through a norm's LMO, with or
without momentum, a dual-norm scale or error feedback: ``RULES`` names them
(specGD, Muon, regMuon, signGD, signMomentum, EF-Muon, MuonMax, EF-MuonMax)
and ``step`` is the one body they run.  Also here: stepsize schedules, the
runners ``run`` and ``run_batch`` (B runs on counterexample functions in
lock-step), and the convergence-bound evaluator for error feedback.

Steps are pure: they take a state and return (new_state, StepInfo).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg, norms


# ---------------------------------------------------------------------------
# Stepsize schedules


def _stepsize(value, what: str = "stepsize") -> float:
    """``value`` as a Python float, so every loop multiplies by it in float64.
    A bool, a non-real value and one not positive and finite raise ValueError.
    ``float`` is tested before the ABC, whose check costs ten times more."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{what} must be a real number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite")
    return value


@dataclass(frozen=True)
class Constant:
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _stepsize(self.lam))

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
        object.__setattr__(self, "values", tuple(_stepsize(v) for v in self.values))
        if not self.values:
            raise ValueError("Table needs at least one stepsize")

    def value(self, t: int, momentum=None) -> float:
        return self.values[min(t, len(self.values) - 1)]

    def limit(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class AdaptiveNuclear:
    """lambda_t = base * ||M_t||_nuc, an offline function of past subgradients."""

    base: float

    def __post_init__(self):
        object.__setattr__(self, "base", _stepsize(self.base, "base stepsize"))

    def value(self, t: int, momentum=None) -> float:
        if momentum is None:
            raise ValueError("AdaptiveNuclear needs the momentum buffer")
        return self.base * linalg.norm(momentum, "nuc")

    def limit(self) -> float:
        raise ValueError("AdaptiveNuclear has no offline limit")


def offline_stepsizes(schedule, t0: int, n: int) -> list:
    """``[schedule.value(t) for t in range(t0, t0 + n)]``, bit for bit.

    An exact Constant is a repeat and an exact Table a clamped slice; any
    other schedule is asked step by step, so AdaptiveNuclear raises as its
    ``value`` does without the momentum.
    """
    if t0 < 0:
        raise ValueError("t0 must be nonnegative")
    if type(schedule) is Constant:
        return [schedule.lam] * n
    if type(schedule) is Table:
        head = list(schedule.values[t0:t0 + n])
        return head + [schedule.values[-1]] * (n - len(head))
    return [schedule.value(t) for t in range(t0, t0 + n)]


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
        if not isinstance(self.t, (int, np.integer)) or isinstance(self.t, bool) or self.t < 0:
            raise ValueError(f"t must be a nonnegative integer, not {self.t!r}")
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
    lam: float  # the coefficient of the step's LMO direction (see ``step``)


@dataclass(frozen=True)
class Rule:
    """One steepest-descent method through a norm's LMO (see ``step``).

    ``lmo`` is "polar" (spectral norm, through ``state.polar``), "sign"
    (elementwise max norm) or "product" (``norms`` on ``state.spec``).
    Without ``momentum`` the rule reads G in place of M; ``scaled`` multiplies
    the stepsize by the dual norm of M; ``feedback`` makes it EF-M with the
    norm's compressor.  ``step`` implements the combinations in RULES.
    """

    lmo: str
    momentum: bool = True
    scaled: bool = False
    feedback: bool = False


# specGD and signGD read G itself; regMuon and MuonMax are the scaled sharp
# operator ||M||_* lmo(M); EF-Muon and EF-MuonMax use error feedback.
RULES = {
    "specgd": Rule("polar", momentum=False),
    "muon": Rule("polar"),
    "regmuon": Rule("polar", scaled=True),
    "signgd": Rule("sign", momentum=False),
    "signmomentum": Rule("sign"),
    "efmuon": Rule("polar", feedback=True),
    "muonmax": Rule("product", scaled=True),
    "efmuonmax": Rule("product", feedback=True),
}


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


def step(rule: Rule, state: OptimizerState, oracle):
    """One step of ``rule`` from ``state``; returns (new state, StepInfo).

    M' = beta M + (1 - beta) G (G itself without momentum or at beta = 0)
    and lam_t = schedule(t, M').  Without feedback W' = W - lam lmo(M'), with
    lam = lam_t ||M'||_* for a scaled rule (lam_t under AdaptiveNuclear, which
    already carries ||M'||_nuc), else lam_t.  With feedback P = E + lam_t M',
    W' = W - C(P) and E' = P - C(P), C being ``_operator_compressor`` or
    ``norms.compress``.  ``StepInfo.lam`` is lam, or lam_t with feedback.
    """
    if rule.lmo == "product" and not isinstance(state.spec, norms.ProductNormSpec):
        raise ValueError("the product-norm rules require a ProductNormSpec")
    value, G = oracle.evaluate(state.W)
    beta = state.beta
    M = beta * state.M + (1.0 - beta) * G if rule.momentum and beta != 0.0 else G
    lam = state.schedule.value(state.t, momentum=M)
    if rule.feedback:
        P = state.E + lam * M
        C = norms.compress(P, state.spec) if rule.lmo == "product" else _operator_compressor(P)
        return (_advance(state, W=state.W - C, M=M, E=P - C, t=state.t + 1),
                StepInfo(value, G, lam))
    scale = rule.scaled and not isinstance(state.schedule, AdaptiveNuclear)
    if rule.lmo == "product":
        dn, X = norms.dual_norm_and_lmo(M, state.spec)
    elif rule.lmo == "polar":
        dn = linalg.norm(M, "nuc") if scale else None
        X = state.polar(M)
    else:
        X = np.sign(M)
    if scale:
        lam = lam * dn
    return _advance(state, W=state.W - lam * X, M=M, t=state.t + 1), StepInfo(value, G, lam)


def _entry(name: str) -> functools.partial:
    """``step`` bound to ``RULES[name]``: a (state, oracle) -> (state, info) entry."""
    entry = functools.partial(step, RULES[name])
    entry.__name__ = f"step_{name}"
    return entry


STEP_FUNCTIONS = {name: _entry(name) for name in RULES}
(step_specgd, step_muon, step_regmuon, step_signgd, step_signmomentum, step_efmuon,
 step_muonmax, step_efmuonmax) = STEP_FUNCTIONS.values()


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


def _nan_trace(n: int) -> Trace:
    """A Trace of n rows, NaN in every column but t."""
    return Trace(np.arange(n, dtype=float), *(np.full(n, np.nan) for _ in range(6)))


def run(method, oracle, state0, T: int, track_average: bool = True) -> Trace:
    """Run ``T`` steps of the rule named ``method`` (a key of RULES) from state0.

    Records T + 1 rows.  The favg and final-value rows read the objective
    through the oracle's ``value`` (see ``_value``), so a noisy oracle's
    subgradients do not depend on ``track_average``.  With ``track_average``
    off the favg column is NaN.  A run on a counterexample function's own
    oracle takes ``_run_diagonal`` where it applies; the Trace is the same.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if method not in RULES:
        raise ValueError(f"unknown method {method!r}")
    rule, step_fn = RULES[method], STEP_FUNCTIONS[method]

    tr = _nan_trace(T + 1)
    if _runs_on_diagonal(rule, oracle, state0) and \
            _run_diagonal(rule, oracle, state0, T, track_average, tr):
        return tr
    state, mean = state0, state0.W  # mean: the running mean of W_0 .. W_t
    for i in range(T + 1):
        tr.w11[i], tr.w22[i] = _readout(state.W)
        if track_average:
            tr.favg[i] = _value(oracle, mean)
        if i == T:
            tr.f[i] = _value(oracle, state.W)
            break
        try:
            state, info = step_fn(state, oracle)
        except linalg.NumericalError as exc:
            raise linalg.NumericalError(f"step t={i} failed: {exc}") from exc
        tr.f[i] = info.value
        tr.lam[i] = info.lam
        tr.grad_fro[i] = norms.fro(info.grad)
        if track_average:
            mean = mean + (1.0 / (i + 2)) * (state.W - mean)
    return tr


# The schedules _run_diagonal computes as ``step`` does.  Exact types: a
# subclass may make value() read the momentum.
_DIAGONAL_SCHEDULES = (Constant, InvT, InvSqrtT, Table, AdaptiveNuclear)


def _uses_exact_polar(state: OptimizerState) -> bool:
    # A state built with the default keeps the function linalg defined, even
    # after linalg.polar_exact has been rebound (to a tracing wrapper, say).
    return state.polar is linalg.polar_exact or state.polar is OptimizerState.polar


@functools.cache
def _counterexample():
    """The counterexample module, imported on first use: it imports optim."""
    from . import counterexample
    return counterexample


def _runs_on_diagonal(rule: Rule, oracle, state: OptimizerState) -> bool:
    """Whether the float loop may run ``rule`` from ``state``: the one
    predicate for ``run``'s ``_run_diagonal`` and ``run_batch``'s lock-step.

    The oracle must be a KinkyFunction's own KinkyOracle; the rule's LMO the
    exact polar factor or the sign; the schedule of a type in
    _DIAGONAL_SCHEDULES; W, M and E native float64 arrays of the function's
    shape, M and E finite and zero off their first two diagonal entries.
    """
    cex = _counterexample()
    if type(oracle) is not cex.KinkyOracle or type(oracle.fn) is not cex.KinkyFunction:
        return False
    if not (rule.lmo == "sign" or (rule.lmo == "polar" and _uses_exact_polar(state))):
        return False
    if type(state.schedule) not in _DIAGONAL_SCHEDULES:
        return False
    shape = (oracle.fn.m, oracle.fn.n)
    for A in (state.W, state.M, state.E):
        if type(A) is not np.ndarray or A.dtype is not linalg._FLOAT64 or A.shape != shape:
            return False
    return all(linalg._all_finite(A) and np.count_nonzero(A) == np.count_nonzero(A.diagonal()[:2])
               for A in (state.M, state.E))


def _run_diagonal(rule: Rule, oracle, state: OptimizerState, T: int, track_average: bool,
                  tr: Trace) -> bool:
    """``run``'s loop on the first two diagonal entries of W, M and E, as floats.

    Exact for a start ``_runs_on_diagonal`` accepts: the subgradient is zero
    off the first two diagonal entries, so M, E and each step stay zero
    there, W keeps its other entries (no Trace column reads them), and on
    such a matrix the polar factor is the sign and the nuclear norm
    |d1| + |d2|.  Each float operation is the one ``step`` applies
    elementwise (schedules hold Python floats).  The sign class is picked by
    branches, a NaN falling in the class of a zero; lam sign(m) and the
    compressor's scale sign(p) are taken as +-lam and +-scale or 0, the same
    numbers while lam and the scale are finite.

    A step records w1, w2, the running mean and a stepsize that depends on
    M; f, favg and grad_fro are derived after the loop (``_fill_diagonal``).
    It fills ``tr`` and returns True, or returns False where a stepsize or
    compressor scale was not finite, found by one test after the loop: an
    offline stepsize is finite, a recorded one is tested, and with feedback
    E ends not finite iff a nuclear norm of P was not.  ``run`` then runs its
    own loop from the start, which gives the NaNs and raises the errors of
    ``step``.
    """
    adaptive = type(state.schedule) is AdaptiveNuclear
    coef = [state.schedule.base] * T if adaptive else offline_stepsizes(state.schedule, state.t, T)
    mult = rule.scaled or adaptive  # the stepsize has a ||M||_nuc factor
    momentum = rule.momentum and state.beta != 0.0
    beta, one_minus_beta = float(state.beta), float(1.0 - state.beta)
    rows = [(one_minus_beta * g1, one_minus_beta * g2) for g1, g2 in oracle.rows] \
        if momentum else oracle.rows
    Rn, Rz, Rp = rows[0:3], rows[3:6], rows[6:9]  # by the sign of w1 + w2
    feedback, r = rule.feedback, min(oracle.fn.m, oracle.fn.n)
    w1, w2 = float(state.W[0, 0]), float(state.W[1, 1])
    m1, m2 = float(state.M[0, 0]), float(state.M[1, 1])
    e1, e2 = float(state.E[0, 0]), float(state.E[1, 1])
    a1, a2, j = w1, w2, 1.0  # the running mean of j iterates
    w11, w22, a11, a22, lam_col = [w1], [w2], [a1], [a2], []
    for lam in coef:
        s, d = w1 + w2, w1 - w2
        R = Rp if s > 0 else Rn if s < 0 else Rz
        g1, g2 = R[2] if d > 0 else R[0] if d < 0 else R[1]
        if momentum:
            m1, m2 = beta * m1 + g1, beta * m2 + g2
        else:
            m1, m2 = g1, g2
        if mult:
            lam = lam * (abs(m1) + abs(m2))
            lam_col.append(lam)
        if feedback:
            p1, p2 = e1 + lam * m1, e2 + lam * m2
            scale = (abs(p1) + abs(p2)) / r
            c1 = scale if p1 > 0 else -scale if p1 < 0 else 0.0
            c2 = scale if p2 > 0 else -scale if p2 < 0 else 0.0
            w1, w2, e1, e2 = w1 - c1, w2 - c2, p1 - c1, p2 - c2
        else:
            w1 = w1 - lam if m1 > 0 else w1 + lam if m1 < 0 else w1
            w2 = w2 - lam if m2 > 0 else w2 + lam if m2 < 0 else w2
        w11.append(w1)
        w22.append(w2)
        if track_average:
            j += 1.0
            k = 1.0 / j
            a1, a2 = a1 + k * (w1 - a1), a2 + k * (w2 - a2)
            a11.append(a1)
            a22.append(a2)
    lam = np.fromiter(lam_col if mult else coef, float, T)
    if not (math.isfinite(e1) and math.isfinite(e2) if feedback else linalg._all_finite(lam)):
        return False
    W1, W2, A1, A2 = (np.fromiter(x, float, len(x)) for x in (w11, w22, a11, a22))
    _fill_diagonal(tr, oracle, W1, W2, lam, (A1, A2) if track_average else None)
    return True


def _fill_diagonal(tr: Trace, oracle, W1, W2, lam, means=None):
    """Fill ``tr`` from a float loop's records of T steps: arrays W1 and W2,
    the first two diagonal entries of W_0 .. W_T, the stepsizes ``lam`` and,
    if given, the running means' two entries.  f and favg are derived by the
    function's expression and grad_fro by ``KinkyOracle.grad_fro``, with
    numpy's warnings off as the float arithmetic has none."""
    c = oracle.fn.c
    tr.w11[:], tr.w22[:], tr.lam[:-1] = W1, W2, lam
    with np.errstate(all="ignore"):
        S, D = W1 + W2, W1 - W2
        tr.f[:] = c * np.abs(S) + np.abs(D)
        tr.grad_fro[:-1] = oracle.grad_fro(S[:-1], D[:-1])
        if means is not None:
            A1, A2 = means
            tr.favg[:] = c * np.abs(A1 + A2) + np.abs(A1 - A2)
    return tr


def run_batch(method, fns, states, T: int) -> list:
    """``[run(method, fn.oracle(), st, T, track_average=False) for fn, st in
    zip(fns, states)]``, bit for bit, with the float loops run in lock-step.

    The members ``_runs_on_diagonal`` accepts run ``_run_diagonal``'s
    recurrence together (``_run_lockstep``): a step costs a fixed number of
    numpy calls for the whole batch.  Every other member, and every member
    where the float loop gives up, is run by ``run``; so its Trace and its
    errors are ``run``'s, and the first member whose run raises makes the
    batch raise.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if method not in RULES:
        raise ValueError(f"unknown method {method!r}")
    fns, states = list(fns), list(states)
    if len(fns) != len(states):
        raise ValueError(f"{len(fns)} functions but {len(states)} states")
    if not all(isinstance(fn, _counterexample().KinkyFunction) for fn in fns):
        raise ValueError("run_batch takes KinkyFunction objects")
    rule = RULES[method]
    built = {fn: fn.oracle() for fn in dict.fromkeys(fns)}  # one oracle per distinct function
    oracles = [built[fn] for fn in fns]
    lockstep = [b for b, (oracle, st) in enumerate(zip(oracles, states))
                if _runs_on_diagonal(rule, oracle, st)]
    ran = dict(zip(lockstep, _run_lockstep(rule, [oracles[b] for b in lockstep],
                                           [states[b] for b in lockstep], T) if lockstep else []))
    return [ran[b] if ran.get(b) is not None else run(method, oracle, st, T, track_average=False)
            for b, (oracle, st) in enumerate(zip(oracles, states))]


def _run_lockstep(rule: Rule, oracles: list, states: list, T: int) -> list:
    """``_run_diagonal`` for B >= 1 members at once, on (B,) float64 arrays:
    each member's Trace, or None where ``_run_diagonal`` returns False.

    Each numpy operation is, elementwise, the float loop's operation.  A
    member without momentum (or with beta = 0) gets beta = 0 and 1 - beta =
    1: beta * m + (1 - beta) * g is then g bit for bit, as m is finite and no
    subgradient entry is -0.0.  (1 - beta) * g is taken once per row.
    """
    _signs = _counterexample()._signs
    B = len(states)
    coef = np.empty((T, B))  # each step's stepsize before any nuclear-norm factor
    offline, start, rows = {}, [], []
    for b, (oracle, st) in enumerate(zip(oracles, states)):
        if type(st.schedule) is AdaptiveNuclear:
            coef[:, b] = st.schedule.base
        else:
            key = (id(st.schedule), st.t)
            if key not in offline:
                offline[key] = np.array(offline_stepsizes(st.schedule, st.t, T), float)
            coef[:, b] = offline[key]
        momentum = rule.momentum and st.beta != 0.0
        betas = (float(st.beta), float(1.0 - st.beta)) if momentum else (0.0, 1.0)
        start.append((st.W[0, 0], st.W[1, 1], st.M[0, 0], st.M[1, 1], st.E[0, 0], st.E[1, 1],
                      *betas, min(oracle.fn.m, oracle.fn.n)))
        rows.append(oracle.rows)
    w1, w2, m1, m2, e1, e2, beta, one_minus_beta, r = np.array(start).T
    G1, G2 = (one_minus_beta[:, None, None] * np.array(rows)).reshape(9 * B, 2).T.copy()
    row0 = 9 * np.arange(B) + 4  # member b's row of the zero sign class
    # The members whose stepsize has a ||M||_nuc factor.
    mult = np.array([rule.scaled or type(st.schedule) is AdaptiveNuclear for st in states])
    any_mult = bool(mult.any())

    W1, W2, lam_col = np.empty((T + 1, B)), np.empty((T + 1, B)), np.empty((T, B))
    W1[0], W2[0] = w1, w2
    worst = np.zeros(B)  # the largest nuclear norm of P; NaN or inf once one is not finite
    with np.errstate(all="ignore"):
        for i in range(T):
            s, d = w1 + w2, w1 - w2
            k = row0 + 3 * _signs(s) + _signs(d)
            n1, n2 = beta * m1 + G1.take(k), beta * m2 + G2.take(k)
            lam = coef[i]
            if any_mult:
                lam = np.where(mult, lam * (np.abs(n1) + np.abs(n2)), lam)
            if rule.feedback:
                p1, p2 = e1 + lam * n1, e2 + lam * n2
                nuc = np.abs(p1) + np.abs(p2)
                worst = np.maximum(worst, nuc)
                scale = nuc / r
                c1, c2 = scale * np.sign(p1), scale * np.sign(p2)
                w1, w2, e1, e2 = w1 - c1, w2 - c2, p1 - c1, p2 - c2
            else:
                w1, w2 = w1 - lam * np.sign(n1), w2 - lam * np.sign(n2)
            m1, m2 = n1, n2
            W1[i + 1], W2[i + 1], lam_col[i] = w1, w2, lam
    gave_up = ~(worst < math.inf) if rule.feedback else ~np.isfinite(lam_col).all(axis=0)
    W1, W2, lam_col = W1.T.copy(), W2.T.copy(), lam_col.T.copy()  # a member's records, contiguous
    return [None if gave_up[b] else
            _fill_diagonal(_nan_trace(T + 1), oracle, W1[b], W2[b], lam_col[b])
            for b, oracle in enumerate(oracles)]


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
