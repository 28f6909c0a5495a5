"""The adversarial piecewise-linear function c|W11+W22| + |W11-W22|, its
subgradient oracle, the two non-convergence constructions with their
closed-form predicted iterates, and the invariant trackers used to verify
them against simulation traces.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg, optim

DEFAULT_TAIL_TOL = 1e-12

# Direct head lengths tried before giving up on the alternating tail sum.
_HEAD_SIZES = (128, 1024, 8192, 65536)
_EULER_LEVELS = 48

# Each construction's c as a function of beta, keyed by style: "cex1" and
# "cex2" are the two constructions' defaults, "appendix_e" the paper's
# experiments.  A config's "c": "auto" reads it too.
AUTO_C = {
    "cex1": lambda beta: (1.0 - float(beta)) / 2.0,
    "cex2": lambda beta: 0.5 - float(beta),
    "appendix_e": lambda beta: (1.0 - float(beta)) / (2.0 * (1.0 + float(beta))),
}

# The rules that run on a KinkyFunction: the product-norm ones need a ProductNormSpec.
RUN_METHODS = tuple(name for name, rule in optim.RULES.items() if rule.lmo != "product")


def _sign(x: float) -> float:
    """sign(x), with sign(0) = 0 at a kink; a NaN falls in the zero class."""
    return 1.0 if x > 0 else -1.0 if x < 0 else 0.0


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
        # Stored as a Python float and ints, so f and its subgradient compute
        # in float64 whatever real type c was given as (np.float32, say).
        for name, kind, cast, what in (("c", numbers.Real, float, "a real number"),
                                       ("m", numbers.Integral, int, "an integer"),
                                       ("n", numbers.Integral, int, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, not {value!r}")
            object.__setattr__(self, name, cast(value))
        if not 0.0 < self.c < 1.0:
            raise ValueError("c must lie in (0, 1)")
        if self.m < 2 or self.n < 2:
            raise ValueError("need m, n >= 2")

    def sd_value(self, s, d):
        """c|s| + |d| at s = w1 + w2 and d = w1 - w2, floats or arrays alike:
        the one expression of the objective."""
        return self.c * abs(s) + abs(d)

    def value(self, W) -> float:
        w1, w2 = float(W[0, 0]), float(W[1, 1])
        return self.sd_value(w1 + w2, w1 - w2)

    def subgradient(self, W) -> np.ndarray:
        """c*s1*(E11+E22) + s2*(E11-E22), s1 = sign(w1+w2), s2 = sign(w1-w2), sign(0) = 0."""
        w1, w2 = float(W[0, 0]), float(W[1, 1])
        s1, s2 = _sign(w1 + w2), _sign(w1 - w2)
        G = np.zeros((self.m, self.n))
        G[0, 0], G[1, 1] = self.c * s1 + s2, self.c * s1 - s2
        return G

    def oracle(self) -> KinkyOracle:
        return KinkyOracle(self)


def _subgradients(fn: KinkyFunction) -> tuple:
    """The nine subgradients of ``fn`` as a (9, m, n) stack, row
    3 * (s1 + 1) + (s2 + 1), their Frobenius norms, shape (9,), and each
    row's (G[0, 0], G[1, 1]) as a pair of floats.

    The subgradient depends on W only through the signs s1 of w1 + w2 and s2
    of w1 - w2; row k is ``fn.subgradient`` at any W of that sign class, by
    its own expressions.  Sign 0 is the class of a zero (and of a NaN).
    ``linalg._fro_members`` is ``norms.fro`` of each row.
    """
    signs = (-1.0, 0.0, 1.0)
    pairs = tuple((fn.c * s1 + s2, fn.c * s1 - s2) for s1 in signs for s2 in signs)
    G = np.zeros((9, fn.m, fn.n))
    G[:, 0, 0], G[:, 1, 1] = zip(*pairs)
    return G, linalg._fro_members(G), pairs


def _signs(x: np.ndarray) -> np.ndarray:
    """``_sign(x)`` elementwise, as integers; NaN maps to 0."""
    return np.subtract(x > 0, x < 0, dtype=np.intp)


class KinkyOracle:
    """The subgradient oracle of a KinkyFunction: ``evaluate(W)`` is
    ``(fn.value(W), fn.subgradient(W))`` bit for bit.

    ``evaluate`` reads the leading diagonal once and computes the value by
    ``fn.sd_value``.  The subgradient is a copy of one of the nine from
    ``_subgradients``, picked by the sign classes of w1 + w2 and w1 - w2.
    A NaN falls in the class of a zero, as in ``_sign``.  ``rows`` holds the
    nine's ``(G[0, 0], G[1, 1])`` as floats, for the float loops of
    ``optim.run`` and ``optim.run_batch``, and ``fro`` their Frobenius norms.
    """

    __slots__ = ("fn", "_table", "rows", "fro")

    def __init__(self, fn: KinkyFunction):
        self.fn = fn
        self._table, self.fro, self.rows = _subgradients(fn)

    def value(self, W) -> float:
        return self.fn.value(W)

    def evaluate(self, W):
        w1 = float(W[0, 0])
        w2 = float(W[1, 1])
        s = w1 + w2
        d = w1 - w2
        k = 3 * ((s > 0) - (s < 0)) + (d > 0) - (d < 0) + 4
        return self.fn.sd_value(s, d), self._table[k].copy()

    def grad_fro(self, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        """``norms.fro`` of the subgradient ``evaluate`` returns at each
        diagonal with w1 + w2 = s[i] and w1 - w2 = d[i]."""
        return self.fro.take(3 * _signs(s) + _signs(d) + 4)


def lipschitz_bound(c: float) -> float:
    """Frobenius Lipschitz constant sqrt(2 (1 + c^2)) <= 2 of the function."""
    optim._check_real(c, "c")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    c = float(c)
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


def compute_R(schedule, t: int) -> float:
    """R_t = lam/2 + sum_{s>=0} (-1)^s (lam_{t+s} - lam), lam = lim lam_t.

    Requires a nonincreasing schedule with a well-defined limit.  The
    alternating tail is accelerated by repeated averaging; the head length
    grows until two estimates agree within DEFAULT_TAIL_TOL.
    """
    optim._check_count(t, "t")
    lam = schedule.limit()
    prev = None
    for head in _HEAD_SIZES:
        n = head + _EULER_LEVELS + 1
        lams = optim.offline_stepsizes(schedule, t, n)
        optim._check_nonincreasing(lams)
        terms = lams - lam
        if np.any(terms < -1e-15):
            raise ValueError("schedule values fall below the declared limit")
        signs = np.where(np.arange(head) % 2 == 0, 1.0, -1.0)
        head_sum = float(np.dot(signs, terms[:head]))
        tail = _euler_tail(terms[head:])
        est = lam / 2.0 + head_sum + (tail if head % 2 == 0 else -tail)
        if terms[head] <= DEFAULT_TAIL_TOL:
            # Plain alternating-series remainder bound already suffices.
            return est
        if prev is not None and abs(est - prev) <= DEFAULT_TAIL_TOL:
            return est
        prev = est
    return est


def compute_R_sequence(schedule, T: int) -> np.ndarray:
    """R_0 .. R_T via one tail evaluation and the exact recursion R_{t+1} = lam_t - R_t."""
    optim._check_count(T, "T")
    return _R_recursion(schedule, compute_R(schedule, 0), T + 1)


def _R_recursion(schedule, R0: float, n: int) -> np.ndarray:
    """R_0 .. R_{n-1} from a finite R_0 by the float recursion
    R_{t+1} = lam_t - R_t, bit for bit: (-1)^t R_t is the running sum of R_0,
    -lam_0, +lam_1, ..., each addition the subtraction or its exact negation.
    Adding 0.0 turns the -0.0 of lam_t = R_t into the recursion's +0.0."""
    terms = np.concatenate(([R0], optim.offline_stepsizes(schedule, 0, n - 1)))
    terms[1::2] *= -1.0
    R = np.cumsum(terms)
    R[1::2] *= -1.0
    R[1:] += 0.0
    return R


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
    _R: np.ndarray = field(repr=False)


def cex1_build(beta, schedule, r: float = 1.0, delta: float = 0.0,
               c: float = None, m: int = 2, n: int = 2,
               horizon: int = 5000):
    """Build the function and initialization on which momentum spectral
    descent provably oscillates at distance R_t from the solution set.

    Returns (KinkyFunction, W0, Cex1Init).  ``c`` defaults to (1-beta)/2 and
    must satisfy c < (1-beta)/(1+beta) for the oscillation to lock in.
    ``delta`` offsets within the open set of valid starts; it must satisfy
    |delta| < R_t for every t, so it must be 0 when the stepsizes vanish.
    """
    given = [("beta", beta), ("r", r), ("delta", delta)] + ([] if c is None else [("c", c)])
    for name, value in given:
        optim._check_real(value, name)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    beta = float(beta)
    if c is None:
        c = AUTO_C["cex1"](beta)
    if not c < (1.0 - beta) / (1.0 + beta):
        raise ValueError("need c < (1-beta)/(1+beta)")
    if not 1.0 <= r < math.inf:
        raise ValueError("need a finite r >= 1")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    r, delta = float(r), float(delta)
    lam = schedule.limit()
    R = compute_R_sequence(schedule, horizon)
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


def cex1_predicted_sequence(init: Cex1Init, T: int) -> np.ndarray:
    """(T+1) x 2 array of predicted diagonals for t = 0 .. T.  Past the build
    horizon R_t comes from ``_R_recursion``, whose prefix has the same bits."""
    optim._check_count(T, "T")
    R = init._R if T < len(init._R) else _R_recursion(init.schedule, init.R0, T + 1)
    signs = np.where(np.arange(T + 1) % 2 == 0, 1.0, -1.0)
    osc = init.delta + signs * R[: T + 1]
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
    non-convergence argument consumes; a NaN q_t fails it too.  ``W0`` must
    be a finite matrix (``linalg.as_matrix``).
    """
    optim._check_real(beta, "beta")
    if not 0.0 <= beta < 0.5:
        raise ValueError("beta must lie in [0, 1/2)")
    optim._check_count(T, "T")
    if method not in RUN_METHODS:
        raise ValueError(f"unknown method {method!r}; a run takes one of {', '.join(RUN_METHODS)}")
    if c is None:
        c = AUTO_C["cex2"](beta)
    W0 = linalg.as_matrix(W0)
    fn = KinkyFunction(c=c, m=W0.shape[0], n=W0.shape[1])
    p0 = float(W0[0, 0] + W0[1, 1])
    q0 = float(W0[0, 0] - W0[1, 1])
    if p0 == 0.0:
        return Cex2Guard(T=T, p0=p0, q0=q0, ok=False, first_bad_t=0)
    state = optim.OptimizerState(W=W0.copy(), beta=beta, schedule=schedule)
    tr = optim.run(method, fn.oracle(), state, T, track_average=False)
    bad = np.flatnonzero(~(np.abs(tr.diff_diag) > 0.0))  # a NaN q is a hit too
    if bad.size:
        return Cex2Guard(T=T, p0=p0, q0=q0, ok=False, first_bad_t=int(bad[0]))
    return Cex2Guard(T=T, p0=p0, q0=q0, ok=True)
