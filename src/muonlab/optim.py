"""Optimizer step rules and runners.

Every method is one steepest-descent rule through a norm's LMO, with or
without momentum, a dual-norm scale or error feedback: ``RULES`` names them
(specGD, Muon, regMuon, signGD, signMomentum, EF-Muon, MuonMax, EF-MuonMax)
and ``step`` is the one body they run.  Also here: stepsize schedules, the
runners ``run`` and ``run_batch``, and the convergence-bound evaluator for the
error-feedback method.

Steps are pure: they take a state and return (new_state, StepInfo).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


# The Trace columns that start as NaN: all but t.
_NAN_COLUMNS = ("lam", "f", "w11", "w22", "grad_fro", "favg")


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

    n = T + 1
    tr = Trace(t=np.arange(n, dtype=float), **{k: np.full(n, np.nan) for k in _NAN_COLUMNS})
    state, mean, start = state0, state0.W, 0  # mean: the running mean of W_0 .. W_t
    if _runs_on_diagonal(rule, oracle, state0):
        state, mean, start = _run_diagonal(rule, oracle, state0, T, track_average, tr)
    for i in range(start, n):
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


def _runs_on_diagonal(rule: Rule, oracle, state: OptimizerState) -> bool:
    """Whether ``run`` may take ``_run_diagonal`` for ``rule`` from ``state``.

    The oracle must be a KinkyFunction's own KinkyOracle with a float c (f
    is derived in float64); the rule's LMO the exact polar factor or the
    sign; the schedule of a type in _DIAGONAL_SCHEDULES; W, M and E native
    float64 arrays of the function's shape, M and E finite and zero off
    their first two diagonal entries.
    """
    from .counterexample import KinkyFunction, KinkyOracle  # counterexample imports optim

    if type(oracle) is not KinkyOracle or type(oracle.fn) is not KinkyFunction \
            or not isinstance(oracle.fn.c, float):
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
                  tr: Trace) -> tuple:
    """``run``'s loop on the first two diagonal entries of W, M and E, as floats.

    Exact for a start ``_runs_on_diagonal`` accepts: the subgradient is zero
    off the first two diagonal entries, so M, E and each step stay zero
    there, W keeps its other entries (no Trace column reads them), and on
    such a matrix the polar factor is the sign and the nuclear norm
    |d1| + |d2|.  Each float operation is the one ``step`` applies
    elementwise.  Where ``step`` multiplies an array by a stepsize or a
    compressor scale, this loop multiplies by ``float`` of the same number,
    as numpy's type promotion does.

    A step records w1, w2, the running mean and a stepsize that depends on
    M; offline ones are ``offline_stepsizes``.  f, favg and grad_fro are
    derived after the loop, with numpy's warnings off as the floats have none.

    Fills the rows of ``tr`` it runs.  A step whose stepsize or compressor
    scale is not finite is left to ``run``'s loop, which gives the NaNs and
    raises the errors of ``step``: the return value is the state and running
    mean at that step, and its index.  When all ran it is (None, None, T + 1).
    """
    rows, c = oracle.rows, oracle.fn.c
    sched, t0 = state.schedule, state.t
    adaptive = type(sched) is AdaptiveNuclear
    base = sched.base if adaptive else None
    lams = None if adaptive else offline_stepsizes(sched, t0, T)
    momentum = rule.momentum and state.beta != 0.0
    beta, one_minus_beta = float(state.beta), float(1.0 - state.beta)
    scaled = rule.scaled and not adaptive
    feedback = rule.feedback
    r = min(oracle.fn.m, oracle.fn.n)
    w1, w2 = float(state.W[0, 0]), float(state.W[1, 1])
    m1, m2 = float(state.M[0, 0]), float(state.M[1, 1])
    e1, e2 = float(state.E[0, 0]), float(state.E[1, 1])
    a1, a2 = w1, w2  # the running mean
    w11, w22, a11, a22, lam_col = [w1], [w2], [a1], [a2], []
    for i in range(T):
        s, d = w1 + w2, w1 - w2
        g1, g2 = rows[3 * ((s > 0) - (s < 0)) + (d > 0) - (d < 0) + 4]
        if momentum:
            n1, n2 = beta * m1 + one_minus_beta * g1, beta * m2 + one_minus_beta * g2
        else:
            n1, n2 = g1, g2
        lam = base * (abs(n1) + abs(n2)) if adaptive else lams[i]
        if feedback:
            lam_f = float(lam)
            p1, p2 = e1 + lam_f * n1, e2 + lam_f * n2
            nuc = abs(p1) + abs(p2)
            if not nuc < math.inf:
                break
            scale = nuc / r
            c1 = scale * (1.0 if p1 > 0 else -1.0 if p1 < 0 else 0.0)
            c2 = scale * (1.0 if p2 > 0 else -1.0 if p2 < 0 else 0.0)
            w1, w2, e1, e2 = w1 - c1, w2 - c2, p1 - c1, p2 - c2
        else:
            if scaled:
                lam = lam * (abs(n1) + abs(n2))
            lam_f = float(lam)
            if not abs(lam_f) < math.inf:
                break
            w1 = w1 - lam_f * (1.0 if n1 > 0 else -1.0 if n1 < 0 else 0.0)
            w2 = w2 - lam_f * (1.0 if n2 > 0 else -1.0 if n2 < 0 else 0.0)
        m1, m2 = n1, n2
        w11.append(w1)
        w22.append(w2)
        if adaptive or scaled:
            lam_col.append(lam)
        if track_average:
            k = 1.0 / (i + 2)
            a1, a2 = a1 + k * (w1 - a1), a2 + k * (w2 - a2)
            a11.append(a1)
            a22.append(a2)
    else:
        i = T
    # Rows 0 .. i hold W_0 .. W_i; steps 0 .. i - 1 ran.
    W1, W2 = np.array(w11), np.array(w22)
    tr.w11[:i + 1], tr.w22[:i + 1] = W1, W2
    tr.lam[:i] = lam_col if adaptive or scaled else lams[:i]
    with np.errstate(all="ignore"):
        S, D = W1 + W2, W1 - W2
        tr.f[:i + 1] = c * np.abs(S) + np.abs(D)
        tr.grad_fro[:i] = oracle.grad_fro(S[:i], D[:i])
        if track_average:
            A1, A2 = np.array(a11), np.array(a22)
            tr.favg[:i + 1] = c * np.abs(A1 + A2) + np.abs(A1 - A2)
    if i == T:
        return None, None, T + 1
    W, mean = state.W.copy(), state.W.copy()
    M, E = np.zeros_like(state.M), np.zeros_like(state.E)
    W[0, 0], W[1, 1], M[0, 0], M[1, 1], E[0, 0], E[1, 1] = w1, w2, m1, m2, e1, e2
    mean[0, 0], mean[1, 1] = a1, a2
    return _advance(state, W=W, M=M, E=E, t=t0 + i), mean, i


# The rules run_batch runs: polar LMO with momentum, no error feedback.
BATCH_METHODS = tuple(name for name, rule in RULES.items()
                      if rule.momentum and rule.lmo == "polar" and not rule.feedback)
# The schedules run_batch runs; TestRunBatch covers each.
_BATCH_SCHEDULES = (Constant, InvT, Table, AdaptiveNuclear)


def _uses_exact_polar(state: OptimizerState) -> bool:
    # A state built with the default keeps the function linalg defined, even
    # after linalg.polar_exact has been rebound (to a tracing wrapper, say).
    return state.polar is linalg.polar_exact or state.polar is OptimizerState.polar


def run_batch(method, fns, states, T: int) -> list:
    """Run B independent trajectories in lock-step; returns one Trace each.

    Member b runs ``method`` (one of BATCH_METHODS) on the KinkyFunction
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

    The loop below is ``step`` for these rules on the stack, with the
    rule's ``scaled`` read from RULES; TestRunBatch in tests/test_optim.py is
    the contract that keeps the two in sync.
    """
    from .counterexample import KinkyStack  # counterexample imports optim

    if method not in BATCH_METHODS:
        raise ValueError(f"run_batch supports {BATCH_METHODS}, not {method!r}")
    if T < 0:
        raise ValueError("T must be nonnegative")
    rule = RULES[method]
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
    # With beta = 0, step reads G itself and M is never read.  Zeroed,
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
                offline[id(sched)] = offline_stepsizes(sched, 0, T)
            coef[:, b] = offline[id(sched)]
    # Members whose stepsize is multiplied by ||M||_nuc: every member of a
    # scaled rule, and any member with AdaptiveNuclear.
    scaled = np.array([rule.scaled or isinstance(st.schedule, AdaptiveNuclear)
                       for st in states])
    any_scaled = bool(scaled.any())

    # favg stays NaN, as in run(..., track_average=False).
    cols = {k: np.full((B, n), np.nan) for k in _NAN_COLUMNS}
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
