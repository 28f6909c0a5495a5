"""The adversarial piecewise-linear function c|W11+W22| + |W11-W22|, its
subgradient oracle, the two non-convergence constructions with their
closed-form predicted iterates, and the invariant trackers used to verify
them against simulation traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, optim

DEFAULT_TAIL_TOL = 1e-12

# Direct head lengths tried before giving up on the alternating tail sum.
_HEAD_SIZES = (128, 1024, 8192, 65536)
_EULER_LEVELS = 48


def _sign(x: float, selection: str) -> float:
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    if selection == "zero":
        return 0.0
    if selection == "plus":
        return 1.0
    if selection == "minus":
        return -1.0
    raise ValueError(f"unknown kink selection {selection!r}")


@dataclass(frozen=True)
class KinkyFunction:
    """f(W) = c |W11 + W22| + |W11 - W22| on m x n matrices, m, n >= 2.

    Convex and Lipschitz, minimized exactly when W11 = W22 = 0, with
    inf f = 0.  Entries outside the leading 2x2 diagonal are ignored.
    """

    c: float
    m: int = 2
    n: int = 2

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        if self.m < 2 or self.n < 2:
            raise ValueError("need m, n >= 2")

    def diag_value(self, w1: float, w2: float) -> float:
        return self.c * abs(w1 + w2) + abs(w1 - w2)

    def value(self, W) -> float:
        return self.diag_value(float(W[0, 0]), float(W[1, 1]))

    def diag_subgradient(self, w, selection: str = "zero") -> np.ndarray:
        """Subgradient c*s1*(1,1) + s2*(1,-1), s1 = sign(w1+w2), s2 = sign(w1-w2).

        ``selection`` fixes the choice at kinks: "zero" uses sign(0) = 0 (the
        framework convention), "plus"/"minus" pick an extreme subgradient.
        """
        w = np.asarray(w, float)
        s1 = _sign(w[0] + w[1], selection)
        s2 = _sign(w[0] - w[1], selection)
        return np.array([self.c * s1 + s2, self.c * s1 - s2])

    def subgradient(self, W, selection: str = "zero") -> np.ndarray:
        w1 = float(W[0, 0])
        w2 = float(W[1, 1])
        s1 = _sign(w1 + w2, selection)
        s2 = _sign(w1 - w2, selection)
        G = np.zeros((self.m, self.n))
        G[0, 0] = self.c * s1 + s2
        G[1, 1] = self.c * s1 - s2
        return G

    def oracle(self, selection: str = "zero") -> KinkyOracle:
        return KinkyOracle(self, selection)

    def diag_oracle(self, selection: str = "zero") -> optim.FunctionOracle:
        return optim.FunctionOracle(
            lambda w: self.diag_value(w[0], w[1]),
            lambda w: self.diag_subgradient(w, selection),
        )


def _subgradients(fn: KinkyFunction, selection: str = "zero") -> tuple:
    """The nine subgradients of ``fn`` as a (9, m, n) stack, row
    3 * (s1 + 1) + (s2 + 1), and their Frobenius norms, shape (9,).

    The subgradient depends on W only through the signs s1 of w1 + w2 and s2
    of w1 - w2; row k is ``fn.subgradient`` at any W of that sign class, by
    its own expressions.  Sign 0 is the class of a zero, where ``selection``
    decides.  ``linalg._fro_members`` is ``norms.fro`` of each row.
    """
    signs = [_sign(x, selection) for x in (-1.0, 0.0, 1.0)]
    G = np.zeros((9, fn.m, fn.n))
    G[:, 0, 0] = [fn.c * s1 + s2 for s1 in signs for s2 in signs]
    G[:, 1, 1] = [fn.c * s1 - s2 for s1 in signs for s2 in signs]
    return G, linalg._fro_members(G)


def _signs(x: np.ndarray) -> np.ndarray:
    """``_sign(x, "zero")`` elementwise, as integers; NaN maps to 0."""
    return np.subtract(x > 0, x < 0, dtype=np.intp)


class KinkyOracle:
    """The subgradient oracle of a KinkyFunction: ``evaluate(W)`` is
    ``(fn.value(W), fn.subgradient(W, selection))`` bit for bit.

    ``evaluate`` reads the leading diagonal once and computes the value with
    ``diag_value``'s expression.  The subgradient is a copy of one of the
    nine from ``_subgradients``, picked by the sign classes of w1 + w2 and
    w1 - w2.  A NaN falls in the class of a zero, as in ``_sign``.  ``rows``
    holds the nine's ``(G[0, 0], G[1, 1])`` as floats, for ``optim.run``'s
    float loop, and ``fro`` their Frobenius norms.
    """

    __slots__ = ("fn", "_table", "rows", "fro")

    def __init__(self, fn: KinkyFunction, selection: str = "zero"):
        self.fn = fn
        self._table, self.fro = _subgradients(fn, selection)
        self.rows = tuple(zip(self._table[:, 0, 0].tolist(), self._table[:, 1, 1].tolist()))

    def value(self, W) -> float:
        return self.fn.value(W)

    def evaluate(self, W):
        w1 = float(W[0, 0])
        w2 = float(W[1, 1])
        s = w1 + w2
        d = w1 - w2
        k = 3 * ((s > 0) - (s < 0)) + (d > 0) - (d < 0) + 4
        return self.fn.c * abs(s) + abs(d), self._table[k].copy()

    def grad_fro(self, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        """``norms.fro`` of the subgradient ``evaluate`` returns at each
        diagonal with w1 + w2 = s[i] and w1 - w2 = d[i]."""
        return self.fro.take(3 * _signs(s) + _signs(d) + 4)


class KinkyStack:
    """B KinkyFunctions of one shape, evaluated together on a (B, m, n) stack.

    For member b, ``value(W)[b]`` is ``fns[b].value(W[b])``, and
    ``evaluate(W)`` also returns ``fns[b].subgradient(W[b])`` (selection
    "zero") and its ``norms.fro``, bit for bit.  On non-finite entries numpy
    may warn where the scalar's float arithmetic does not.
    """

    def __init__(self, fns):
        fns = list(fns)
        if not fns:
            raise ValueError("need at least one function")
        if any(type(fn) is not KinkyFunction for fn in fns):
            raise ValueError("KinkyStack takes KinkyFunction objects only")
        shapes = {(fn.m, fn.n) for fn in fns}
        if len(shapes) != 1:
            raise ValueError(f"functions of different shapes {sorted(shapes)}")
        (self.m, self.n), = shapes
        self.size = len(fns)
        self.c = np.array([fn.c for fn in fns])
        # Each function's nine subgradients, with their Frobenius norms.
        nine = {fn: _subgradients(fn) for fn in set(fns)}
        self._g11 = np.concatenate([nine[fn][0][:, 0, 0] for fn in fns])
        self._g22 = np.concatenate([nine[fn][0][:, 1, 1] for fn in fns])
        self._fro = np.concatenate([nine[fn][1] for fn in fns])
        # Row 3 * (s1 + 1) + (s2 + 1) of member b's nine.
        self._row0 = 9 * np.arange(self.size) + 4

    def value(self, W) -> np.ndarray:
        """Objective values, shape (B,)."""
        w1, w2 = W[:, 0, 0], W[:, 1, 1]
        return self.c * np.abs(w1 + w2) + np.abs(w1 - w2)

    def evaluate(self, W):
        """(values (B,), subgradients (B, m, n), their Frobenius norms (B,))."""
        w1, w2 = W[:, 0, 0], W[:, 1, 1]
        s, d = w1 + w2, w1 - w2
        k = self._row0 + 3 * _signs(s) + _signs(d)
        G = np.zeros((self.size, self.m, self.n))
        G[:, 0, 0] = self._g11.take(k)
        G[:, 1, 1] = self._g22.take(k)
        return self.c * np.abs(s) + np.abs(d), G, self._fro.take(k)


def lipschitz_bound(c: float) -> float:
    """Frobenius Lipschitz constant sqrt(2 (1 + c^2)) <= 2 of the function."""
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    return math.sqrt(2.0 * (1.0 + c * c))


# ---------------------------------------------------------------------------
# The oscillation radius R_t of the first construction


def _euler_tail(terms: np.ndarray) -> float:
    """Sum of sum_j (-1)^j terms[j] by repeated averaging of partial sums.

    Converges geometrically for smoothly decaying terms where direct
    truncation of the alternating series would need ~1/tol terms.
    """
    signs = np.where(np.arange(terms.size) % 2 == 0, 1.0, -1.0)
    ps = np.cumsum(signs * terms)
    while ps.size > 1:
        ps = 0.5 * (ps[:-1] + ps[1:])
    return float(ps[0])


def compute_R(schedule, t: int, tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """R_t = lam/2 + sum_{s>=0} (-1)^s (lam_{t+s} - lam), lam = lim lam_t.

    Requires a nonincreasing schedule with a well-defined limit.  The
    alternating tail is accelerated by repeated averaging; the head length
    grows until two estimates agree within tail_tol.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    lam = schedule.limit()
    prev = None
    for head in _HEAD_SIZES:
        n = head + _EULER_LEVELS + 1
        lams = np.array(optim.offline_stepsizes(schedule, t, n))
        optim._check_nonincreasing(lams)
        terms = lams - lam
        if np.any(terms < -1e-15):
            raise ValueError("schedule values fall below the declared limit")
        signs = np.where(np.arange(head) % 2 == 0, 1.0, -1.0)
        head_sum = float(np.dot(signs, terms[:head]))
        tail = _euler_tail(terms[head:])
        est = lam / 2.0 + head_sum + (tail if head % 2 == 0 else -tail)
        if terms[head] <= tail_tol:
            # Plain alternating-series remainder bound already suffices.
            return est
        if prev is not None and abs(est - prev) <= tail_tol:
            return est
        prev = est
    return est


def compute_R_sequence(schedule, T: int, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """R_0 .. R_T via one tail evaluation and the exact recursion R_{t+1} = lam_t - R_t."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    return _R_recursion(schedule, compute_R(schedule, 0, tail_tol), T + 1)


def _R_recursion(schedule, R0: float, n: int) -> np.ndarray:
    """R_0 .. R_{n-1} from R_0 by the recursion R_{t+1} = lam_t - R_t, in
    float64 whatever the type of lam_t, as when R was an array."""
    R = [float(R0)]
    for lam in optim.offline_stepsizes(schedule, 0, n - 1):
        R.append(float(lam) - R[-1])
    return np.array(R)


# ---------------------------------------------------------------------------
# Construction 1: offline nonincreasing stepsizes


@dataclass
class Cex1Init:
    """Resolved parameters of the oscillating initialization.

    The starting diagonal is (r + R0 + delta, r - R0 - delta) and the
    predicted iterate is w_t = r (1,1) + (delta + (-1)^t R_t) (1,-1).
    """

    beta: float
    schedule: object
    r: float
    delta: float
    lambda_inf: float
    R0: float
    _R: np.ndarray = field(repr=False, default=None)

    def R(self, t: int) -> float:
        if self._R is None or t >= len(self._R):
            self._R = _R_recursion(self.schedule, self.R0, max(2 * (t + 1), 16))
        return float(self._R[t])


def cex1_build(beta, schedule, r: float = 1.0, delta: float = 0.0,
               c: float = None, m: int = 2, n: int = 2,
               horizon: int = 5000, tail_tol: float = DEFAULT_TAIL_TOL):
    """Build the function and initialization on which momentum spectral
    descent provably oscillates at distance R_t from the solution set.

    Returns (KinkyFunction, W0, Cex1Init).  ``c`` defaults to (1-beta)/2 and
    must satisfy c < (1-beta)/(1+beta) for the oscillation to lock in.
    ``delta`` offsets within the open set of valid starts; it must satisfy
    |delta| < R_t for every t, so it must be 0 when the stepsizes vanish.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    if c is None:
        c = (1.0 - beta) / 2.0
    if not c < (1.0 - beta) / (1.0 + beta):
        raise ValueError("need c < (1-beta)/(1+beta)")
    if not 1.0 <= r < math.inf:
        raise ValueError("need a finite r >= 1")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    lam = schedule.limit()
    R = compute_R_sequence(schedule, horizon, tail_tol)
    if lam == 0.0:
        if delta != 0.0:
            raise ValueError("delta must be 0 when the stepsizes vanish")
    else:
        bad = np.nonzero(abs(delta) >= R[: horizon + 1])[0]
        if bad.size:
            raise ValueError(f"|delta| >= R_t at t={bad[0]} (R={R[bad[0]]:.6g})")
        if abs(delta) >= lam / 2.0:
            raise ValueError("|delta| >= lambda/2, violated in the tail t > horizon")
    fn = KinkyFunction(c=c, m=m, n=n)
    W0 = np.zeros((m, n))
    W0[0, 0] = r + R[0] + delta
    W0[1, 1] = r - R[0] - delta
    init = Cex1Init(beta=beta, schedule=schedule, r=r, delta=delta,
                    lambda_inf=lam, R0=float(R[0]), _R=R)
    return fn, W0, init


def cex1_predicted_iterate(init: Cex1Init, t: int):
    """Closed-form diagonal (w1, w2) of the iterate at step t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    osc = init.delta + (-1) ** (t % 2) * init.R(t)
    return init.r + osc, init.r - osc


def cex1_predicted_sequence(init: Cex1Init, T: int) -> np.ndarray:
    """(T+1) x 2 array of predicted diagonals for t = 0 .. T."""
    init.R(T)
    signs = np.where(np.arange(T + 1) % 2 == 0, 1.0, -1.0)
    osc = init.delta + signs * init._R[: T + 1]
    return np.column_stack([init.r + osc, init.r - osc])


def cex1_floor(init: Cex1Init, fn: KinkyFunction) -> float:
    """Proven suboptimality floor 2 c r."""
    return 2.0 * fn.c * init.r


# ---------------------------------------------------------------------------
# Construction 2: adaptive stepsizes, low momentum


@dataclass(frozen=True)
class Cex2Guard:
    """Outcome of the almost-sure initialization check over a finite horizon."""

    T: int
    p0: float
    q0: float
    ok: bool
    first_bad_t: int = -1


def cex2_guard_check(W0, beta, schedule, T: int, method: str = "muon",
                     c: float = None) -> Cex2Guard:
    """Check that an initialization avoids the measure-zero failure set.

    The bad set is characterized by p_0 = 0 or by q_t hitting 0 at some
    step; enumerating it is infeasible, so the check simulates the run and
    verifies q_t != 0 for all t <= T, which is the exact condition the
    non-convergence argument consumes.
    """
    if not 0.0 <= beta < 0.5:
        raise ValueError("beta must lie in [0, 1/2)")
    if c is None:
        c = 0.5 - beta
    W0 = np.asarray(W0, float)
    fn = KinkyFunction(c=c, m=W0.shape[0], n=W0.shape[1])
    p0 = float(W0[0, 0] + W0[1, 1])
    q0 = float(W0[0, 0] - W0[1, 1])
    if p0 == 0.0:
        return Cex2Guard(T=T, p0=p0, q0=q0, ok=False, first_bad_t=0)
    state = optim.OptimizerState(W=W0.copy(), beta=beta, schedule=schedule)
    tr = optim.run(method, fn.oracle(), state, T, track_average=False)
    q = tr.diff_diag
    bad = np.nonzero(q == 0.0)[0]
    if bad.size:
        return Cex2Guard(T=T, p0=p0, q0=q0, ok=False, first_bad_t=int(bad[0]))
    return Cex2Guard(T=T, p0=p0, q0=q0, ok=True)
