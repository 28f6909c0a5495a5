"""Optimizer step rules and runners.

Every method is one steepest-descent rule through a norm's LMO, with or
without momentum, a dual-norm scale or error feedback: ``RULES`` names them
(specGD, Muon, regMuon, signGD, signMomentum, EF-Muon, MuonMax, EF-MuonMax)
and ``step`` is the one body they run.  Also here: stepsize schedules, the
runner ``run`` (with a float loop for the counterexample function), the
lock-step loop ``_lockstep`` on stacks of members, and the convergence-bound
evaluator for error feedback.

Steps are pure: they take a state and return (new_state, StepInfo).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import linalg, norms
from .norms import _shown


# ---------------------------------------------------------------------------
# Stepsize schedules


def _check_real(value, what: str) -> float:
    """``value`` as a Python float (``norms._real``), so every loop computes
    with it in float64; a bool or a non-real value raises ValueError."""
    x = norms._real(value)
    if x is None:
        raise ValueError(f"{what} must be a real number, not {_shown(value)}")
    return x


def _stepsize(value, what: str = "stepsize") -> float:
    """``value`` as a Python float (see ``_check_real``).  A bool, a non-real
    value and one not positive and finite raise ValueError."""
    value = _check_real(value, what)
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite")
    return value


def _check_count(value, what: str) -> int:
    """``norms._integer(value)``; a bool, a non-integer or an int below 0 raises ValueError."""
    if (n := norms._integer(value)) is None or n < 0:
        raise ValueError(f"{what} must be nonnegative: a nonnegative integer, not {_shown(value)}")
    return n


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
        object.__setattr__(self, "_array", np.array(self.values))
        self._array.flags.writeable = False

    def value(self, t: int, momentum=None) -> float:
        return self.values[min(t, len(self.values) - 1)]

    def limit(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class AdaptiveNuclear:
    """lambda_t = base, which ``step`` multiplies by ||M_t||_nuc."""

    base: float

    def __post_init__(self):
        object.__setattr__(self, "base", _stepsize(self.base, "base stepsize"))

    def value(self, t: int, momentum=None) -> float:
        return self.base

    def limit(self) -> float:
        raise ValueError("AdaptiveNuclear has no offline limit")


def offline_stepsizes(schedule, t0: int, n: int) -> np.ndarray:
    """``[schedule.value(t) for t in range(t0, t0 + n)]`` as a new float64 array,
    bit for bit, for t0 + n <= 2**53: an exact Constant or AdaptiveNuclear is a fill, a
    Table a copy of its read-only ``_array``'s slice, clamped, InvT and InvSqrtT their
    expressions on the float range t0 + 1 .. t0 + n (IEEE / and sqrt round as
    Python's do).  Other schedules are asked step by step."""
    t0, n = _check_count(t0, "t0"), _check_count(n, "n")
    if t0 + n > 2**53:
        raise ValueError("t0 + n must be at most 2**53, where floats stop being exact integers")
    kind = type(schedule)
    if kind is Constant or kind is AdaptiveNuclear:
        return np.full(n, schedule.value(t0))
    if kind is Table:
        head = schedule._array[t0:t0 + n]
        if len(head) == n:
            return head.copy()
        out = np.empty(n)
        out[:len(head)] = head
        out[len(head):] = schedule.values[-1]
        return out
    if kind is InvT or kind is InvSqrtT:
        t1 = np.arange(t0 + 1, t0 + n + 1, dtype=float)
        return 1.0 / (t1 if kind is InvT else np.sqrt(t1))
    return np.array([schedule.value(t) for t in range(t0, t0 + n)], float)


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
    """Wraps a base oracle with seeded additive Gaussian noise on the
    subgradient; ``seed`` is a nonnegative integer (``_check_count``)."""

    def __init__(self, base, noise_std: float, seed: int = 0):
        std = norms._real(noise_std)
        if std is None or not 0 <= std < math.inf:
            raise ValueError(f"noise_std must be nonnegative and finite, not {_shown(noise_std)}")
        self.base, self.noise_std = base, std
        self.rng = np.random.default_rng(_check_count(seed, "seed"))

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
        if type(self.beta) is not float:  # an exact float is parsed already
            self.beta = _check_real(self.beta, "beta")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if type(self.t) is not int or self.t < 0:
            self.t = _check_count(self.t, "t")
        self.M = norms.zeros_like(self.W) if self.M is None else self.M
        self.E = norms.zeros_like(self.W) if self.E is None else self.E


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
    nuc, X = norms.dual_norm_and_lmo(P, norms.OperatorNorm())
    # nuc / r, not norms.compress's alpha**2 * nuc: for r = 2,
    # (1/sqrt(2))**2 = 0.4999999999999999, which changes the efm-appendixE
    # preset CSV.
    r = min(np.shape(P))
    return (nuc / r) * X


def step(rule: Rule, state: OptimizerState, oracle):
    """One step of ``rule`` from ``state``; returns (new state, StepInfo).

    M' = beta M + (1 - beta) G (G itself without momentum or at beta = 0)
    and lam_t = schedule(t); lam = lam_t ||M'||_* for a scaled rule or under
    AdaptiveNuclear (the nuclear norm but for the product rule's own dual
    norm), else lam_t.  Without feedback W' = W - lam lmo(M'); with feedback
    P = E + lam M', W' = W - C(P) and E' = P - C(P), C being
    ``_operator_compressor`` or ``norms.compress``.  ``StepInfo.lam`` is lam.
    """
    if rule.lmo == "product" and not isinstance(state.spec, norms.ProductNormSpec):
        raise ValueError("the product-norm rules require a ProductNormSpec")
    if rule.lmo == "product" and isinstance(state.schedule, AdaptiveNuclear):
        raise ValueError("muonmax and efmuonmax take no AdaptiveNuclear schedule")
    value, G = oracle.evaluate(state.W)
    beta = state.beta
    M = beta * state.M + (1.0 - beta) * G if rule.momentum and beta != 0.0 else G
    lam = state.schedule.value(state.t)
    if rule.scaled or isinstance(state.schedule, AdaptiveNuclear):  # the ||M'||_* factor
        if rule.lmo == "product":
            dn, X = norms.dual_norm_and_lmo(M, state.spec)
        else:
            dn = norms.primal_norm(M, norms.NuclearNorm())
        lam = lam * dn
    if rule.feedback:
        P = state.E + lam * M
        C = norms.compress(P, state.spec) if rule.lmo == "product" else _operator_compressor(P)
        return (_advance(state, W=state.W - C, M=M, E=P - C, t=state.t + 1),
                StepInfo(value, G, lam))
    if rule.lmo == "polar":  # muonmax, the product rule, took X with its dual norm
        X = state.polar(M)
    elif rule.lmo == "sign":
        X = np.sign(M)
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
    if isinstance(W, norms.ParamPoint):
        W = W.matrices[0]
    if type(W) is not np.ndarray or W.dtype is not linalg._FLOAT64:
        W = np.asarray(W, float)
    d = W if W.ndim == 1 else W.diagonal()
    return float(d[0]), float(d[1]) if d.size > 1 else 0.0


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


def run(method, oracle, state0, T: int, track_average: bool = True) -> Trace:
    """Run ``T`` steps of the rule named ``method`` (a key of RULES) from state0.

    Records T + 1 rows.  The favg and final-value rows read the objective
    through the oracle's ``value`` (see ``_value``), so a noisy oracle's
    subgradients do not depend on ``track_average``.  With ``track_average``
    off the favg column is NaN.  A run on a counterexample function, its own
    oracle, takes ``_run_diagonal`` where it applies; the Trace is the same.
    """
    T = _check_count(T, "T")
    if method not in RULES:
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(track_average, bool):
        raise ValueError(f"track_average must be a bool, not {track_average!r}")
    if state0.schedule is None:
        raise ValueError("state0.schedule is None: a run needs a stepsize schedule")
    rule, step_fn = RULES[method], STEP_FUNCTIONS[method]

    if _runs_on_diagonal(rule, oracle, state0):
        tr = _run_diagonal(rule, oracle, state0, T, track_average)
        if tr is not None:
            return tr
    tr = Trace(np.arange(T + 1, dtype=float), *(np.full(T + 1, np.nan) for _ in range(6)))
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
# subclass's value() may differ from the stepsizes offline_stepsizes fills in.
_DIAGONAL_SCHEDULES = (Constant, InvT, InvSqrtT, Table, AdaptiveNuclear)


@functools.cache
def _counterexample():
    """The counterexample module, imported on first use: it imports optim."""
    from . import counterexample
    return counterexample


def _runs_on_diagonal(rule: Rule, oracle, state: OptimizerState) -> bool:
    """Whether ``run``'s float loop, ``_run_diagonal``, may run ``rule`` from
    ``state`` (the general loop takes the others).

    The oracle must be a KinkyFunction, of exactly that type; the rule's LMO
    the exact polar factor or the sign; the schedule of a type in
    _DIAGONAL_SCHEDULES; W, M and E native float64 arrays of the function's
    shape, M and E finite and zero off their first two diagonal entries.
    """
    if type(oracle) is not _counterexample().KinkyFunction:
        return False
    # A state built with the default keeps the function linalg defined, even
    # after linalg.polar_exact has been rebound (to a tracing wrapper, say).
    exact = state.polar is linalg.polar_exact or state.polar is OptimizerState.polar
    if not (rule.lmo == "sign" or rule.lmo == "polar" and exact):
        return False
    if type(state.schedule) not in _DIAGONAL_SCHEDULES:
        return False
    shape = (oracle.m, oracle.n)
    for A in (state.W, state.M, state.E):
        if type(A) is not np.ndarray or A.dtype is not linalg._FLOAT64 or A.shape != shape:
            return False
    return all(not (n := np.count_nonzero(A)) or  # all zero, on one count
               linalg._all_finite(A) and n == np.count_nonzero(A.diagonal()[:2])
               for A in (state.M, state.E))


def _run_diagonal(rule: Rule, fn, state: OptimizerState, T: int,
                  track_average: bool) -> Trace | None:
    """``run``'s loop on the first two diagonal entries of W, M and E, as floats.

    Exact for a start ``_runs_on_diagonal`` accepts: the subgradient is zero
    off the first two diagonal entries, so M, E and each step stay zero
    there, W keeps its other entries (no Trace column reads them), and on
    such a matrix the polar factor is the sign and the nuclear norm
    |d1| + |d2|.  Each float operation is the one ``step`` applies
    elementwise (schedules hold Python floats).  The sign class of w1 + w2 is
    picked by branches and that of w1 - w2 by comparing w1 with w2, a NaN
    falling in the class of a zero; w - lam sign(m) and the compressor's
    w - scale sign(p) are taken as w - lam, w + lam or w itself (and so with
    the scale), the same numbers while lam and the scale are finite and w is
    no signaling NaN, which the loop quiets first.

    A step records w1, w2, the running mean and a stepsize that depends on
    M, and the Trace is built from the records (``_diagonal_trace``), or is
    None where a stepsize or compressor scale was not finite.  One test after
    the loop finds that: an offline stepsize is finite, a recorded one is
    tested, and with feedback E ends not finite iff a nuclear norm of P was
    not.  ``run`` then runs its own loop, with the NaNs and errors of ``step``.

    Without the running mean, a coefficient constant from step ``steady`` < T
    on (Constant, AdaptiveNuclear, a Table's last value) makes each later
    step a function of (w1, w2, m1, m2, e1, e2), packed every _CHUNK steps.
    Bytes equal to a state kept Brent-style mean the run repeats: the rest of
    its records is the last period again, and a kept E non-finite iff the last.
    """
    schedule, t0 = state.schedule, state.t
    kind = type(schedule)
    mult = rule.scaled or isinstance(schedule, AdaptiveNuclear)  # a ||M||_nuc factor
    # T + 1 offline stepsizes, the Trace's lam column without ``mult``.  The
    # loop reads the first ``steady`` as floats: a Table's own while they
    # last, else the array's; then chunks of the constant one.
    lams = offline_stepsizes(schedule, t0, T + 1)
    steady = T if track_average or kind is InvT or kind is InvSqrtT else \
        min(max(len(schedule.values) - 1 - t0, 0) if kind is Table else 0, T)
    coef = schedule.values[t0:t0 + steady] if kind is Table and \
        t0 + steady <= len(schedule.values) else lams[:steady].tolist()
    chunk = [float(lams[T])] * _CHUNK
    done, kept, kept_at, span, period = 0, None, steady, 0, 0
    momentum = rule.momentum and state.beta != 0.0
    beta, one_minus_beta = float(state.beta), float(1.0 - state.beta)
    rows = [(one_minus_beta * g1, one_minus_beta * g2) for g1, g2 in fn.rows] \
        if momentum else fn.rows
    # The nine rows as locals, named by the sign classes (minus, zero, plus)
    # of w1 + w2 and w1 - w2.
    ((mm1, mm2), (mz1, mz2), (mp1, mp2), (zm1, zm2), (zz1, zz2), (zp1, zp2),
     (pm1, pm2), (pz1, pz2), (pp1, pp2)) = rows
    feedback, r = rule.feedback, min(fn.m, fn.n)
    w1, w2 = float(state.W[0, 0]), float(state.W[1, 1])
    m1, m2 = float(state.M[0, 0]), float(state.M[1, 1])
    e1, e2 = float(state.E[0, 0]), float(state.E[1, 1])
    a1, a2, j = w1, w2, 1.0  # the running mean of j iterates
    w11, w22, a11, a22, lam_col = [w1], [w2], [a1], [a2], []
    w11_append, w22_append = w11.append, w22.append
    # w - 0.0 is w but for a signaling NaN, which it quiets as the general
    # loop's first W - lam X or W - C does; a step may leave w unchanged.
    w1, w2 = w1 - 0.0, w2 - 0.0
    while True:
        for lam in coef:
            # w1 - w2 is > 0, < 0 or neither exactly when w1 > w2, w1 < w2 or
            # neither: doubles underflow gradually, and inf - inf is a NaN.
            s = w1 + w2
            if s > 0:
                if w1 > w2:
                    g1, g2 = pp1, pp2
                elif w1 < w2:
                    g1, g2 = pm1, pm2
                else:
                    g1, g2 = pz1, pz2
            elif s < 0:
                if w1 > w2:
                    g1, g2 = mp1, mp2
                elif w1 < w2:
                    g1, g2 = mm1, mm2
                else:
                    g1, g2 = mz1, mz2
            elif w1 > w2:
                g1, g2 = zp1, zp2
            elif w1 < w2:
                g1, g2 = zm1, zm2
            else:
                g1, g2 = zz1, zz2
            if momentum:
                m1, m2 = beta * m1 + g1, beta * m2 + g2
            else:
                m1, m2 = g1, g2
            if mult:
                lam = lam * (abs(m1) + abs(m2))
                lam_col.append(lam)
            if feedback:
                e1, e2 = e1 + lam * m1, e2 + lam * m2  # P, until C is taken off
                scale = (abs(e1) + abs(e2)) / r
                if e1 > 0:
                    w1 -= scale
                    e1 -= scale
                elif e1 < 0:
                    w1 += scale
                    e1 += scale
                if e2 > 0:
                    w2 -= scale
                    e2 -= scale
                elif e2 < 0:
                    w2 += scale
                    e2 += scale
            else:
                if m1 > 0:
                    w1 -= lam
                elif m1 < 0:
                    w1 += lam
                if m2 > 0:
                    w2 -= lam
                elif m2 < 0:
                    w2 += lam
            w11_append(w1)
            w22_append(w2)
            if track_average:
                j += 1.0
                k = 1.0 / j
                a1, a2 = a1 + k * (w1 - a1), a2 + k * (w2 - a2)
                a11.append(a1)
                a22.append(a2)
        done += len(coef)
        if done == T:
            break
        key = _STATE.pack(w1, w2, m1, m2, e1, e2)  # bytes: -0.0 is not 0.0
        if key == kept:
            period = done - kept_at
            break
        if done - kept_at >= span:
            kept, kept_at, span = key, done, 2 * span + _CHUNK
        coef = chunk if T - done >= _CHUNK else chunk[:T - done]
    if mult and not period:
        lam_col.append(0.0)  # the final row's entry (after a repeat, a recorded one)
    W1, W2, *recorded = (_repeat_period(xs, period, T + 1) if period else _floats(xs)
                         for xs in ((w11, w22, lam_col) if mult else (w11, w22)))
    lams = recorded[0] if mult else lams
    if not (math.isfinite(e1) and math.isfinite(e2) if feedback
            else not mult or linalg._all_finite(lams)):
        return None
    means = (_floats(a11), _floats(a22)) if track_average else None
    return _diagonal_trace(fn, W1, W2, lams, means)


# Steps per chunk of _run_diagonal's steady tail, and its packed state.
_CHUNK, _STATE = 32, struct.Struct("6d")


def _repeat_period(records: list, period: int, n: int) -> np.ndarray:
    """``records`` as a float64 array of n entries, its last ``period`` repeating."""
    head = _floats(records)
    start = len(head) - period
    tail = np.tile(head[start:], -(-(n - start) // period))  # whole periods from start on
    return np.concatenate((head[:start], tail[:n - start]))


def _floats(xs: list) -> np.ndarray:
    """Python floats as a new float64 array, packed by one ``struct.pack_into``
    at about half the cost of ``np.fromiter``."""
    out = np.empty(len(xs))
    struct.pack_into(f"{len(xs)}d", out, 0, *xs)
    return out


def _diagonal_trace(fn, W1, W2, lam, means) -> Trace:
    """The Trace of a float loop's T steps, whose columns are its records:
    W1 and W2, the first two diagonal entries of W_0 .. W_T; ``lam``, the T
    stepsizes and a slot for the final NaN; the means' entries, or None.
    f, favg and grad_fro are derived, numpy's warnings off as the floats' are."""
    with np.errstate(all="ignore"):
        S, D = W1 + W2, W1 - W2
        f = fn.sd_value(S, D)
        grad_fro = fn.grad_fro(S, D)
        favg = np.full(len(W1), np.nan) if means is None else \
            fn.sd_value(means[0] + means[1], means[0] - means[1])
    lam[-1] = grad_fro[-1] = np.nan
    return Trace(np.arange(len(W1), dtype=float), lam, f, W1, W2, grad_fro, favg)


def _lockstep(evaluate, lmo, W, M, beta, coef) -> tuple:
    """T steps of the momentum rule on B members in lock-step: (B, ...) stacks
    W and M, a (B,) ``beta`` and (T, B) stepsizes ``coef``.

    Step i: M <- beta M + evaluate(W), ``evaluate`` returning (1 - beta) G,
    and W <- W - coef[i] lmo(M), numpy's warnings off.  Returns W_0 .. W_T,
    a (T + 1, B, ...) array, and the final M.
    """
    T, B = coef.shape
    col = (B,) + (1,) * (W.ndim - 1)  # a per-member factor against the stack
    beta = np.broadcast_to(beta.reshape(col), W.shape).copy()  # not B short broadcast loops
    Ws = np.empty((T + 1, *W.shape))
    Ws[0] = W
    with np.errstate(all="ignore"):
        for i in range(T):
            M = beta * M + evaluate(W)
            W = W - coef[i].reshape(col) * lmo(M)
            Ws[i + 1] = W
    return Ws, M


# ---------------------------------------------------------------------------
# Convergence bound


def _bound_factors(delta, beta, sigma, dist0) -> tuple:
    """(dist0^2, sigma^2 coeff), the T-free factors of ``efm_bound``, once the
    four parameters, parsed by ``_check_real``, lie in the bound's domain."""
    delta, beta = _check_real(delta, "delta"), _check_real(beta, "beta")
    sigma, dist0 = _check_real(sigma, "sigma"), _check_real(dist0, "dist0")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")
    if not 0.0 <= dist0 < math.inf:
        raise ValueError("dist0 must be finite and nonnegative")
    return dist0**2, sigma**2 * (2.0 * math.sqrt(1.0 - delta) / delta + beta / (1.0 - beta) + 0.5)


def _steps_plus_one(T) -> float:
    """T + 1 as a float, for a step count T; a T + 1 past the floats raises ValueError."""
    T = _check_count(T, "T")
    try:
        return T + 1.0
    except OverflowError:
        raise ValueError("T must be finite: T + 1 overflows a float") from None


def _bound_at(root, log, dist0_sq: float, noise: float):
    # ((sigma^2 coeff) (1 + log(T+1))) / sqrt(T+1): this association gives
    # the values the efm-appendixE preset digest was recorded with.
    return dist0_sq / (2.0 * root) + noise * (1.0 + log) / root


def efm_bound(T: int, delta: float, beta: float, sigma: float, dist0: float) -> float:
    """Averaged-iterate suboptimality bound for EF-M with lambda_t = 1/sqrt(t+1).

    dist0^2 / (2 sqrt(T+1))
      + sigma^2 (2 sqrt(1-delta)/delta + beta/(1-beta) + 1/2) (1 + log(T+1)) / sqrt(T+1)
    """
    t1 = _steps_plus_one(T)
    factors = _bound_factors(delta, beta, sigma, dist0)
    return _bound_at(math.sqrt(t1), math.log(t1), *factors)


def efm_bound_column(T: int, delta: float, beta: float, sigma: float,
                     dist0: float) -> np.ndarray:
    """``[efm_bound(t, delta, beta, sigma, dist0) for t in range(T + 1)]``,
    bit for bit, with the domain check and the T-free factors done once."""
    stop = _steps_plus_one(T) + 1.0
    factors = _bound_factors(delta, beta, sigma, dist0)
    t1 = np.arange(1.0, stop)
    # math.log per row, as np.log may differ in the last bit.
    return _bound_at(np.sqrt(t1), np.fromiter(map(math.log, t1.tolist()), float, len(t1)), *factors)


def _check_nonincreasing(lams: np.ndarray):
    if np.any(np.diff(lams) > 0.0):
        raise ValueError("schedule must be nonincreasing")


def efm_bound_schedule(lams, delta: float, beta: float, sigma: float, dist0: float) -> float:
    """General-schedule form of the bound with nonincreasing stepsizes lams[0..T].

    dist0^2 / (2 lam_T (T+1))
      + sigma^2 (2 sqrt(1-delta)/delta + beta/(1-beta) + 1/2) sum(lam_t^2) / (lam_T (T+1))
    """
    dist0_sq, noise = _bound_factors(delta, beta, sigma, dist0)
    lams = np.asarray(lams, float)
    if lams.ndim != 1 or lams.size < 1:
        raise ValueError("lams must be a nonempty 1-d sequence")
    # NaN fails both comparisons.
    if not np.all((lams > 0) & (lams < math.inf)):
        raise ValueError("stepsizes must be finite and positive")
    _check_nonincreasing(lams)
    tail = lams[-1] * lams.size
    return float(dist0_sq / (2.0 * tail) + noise * float(np.sum(lams**2)) / tail)
