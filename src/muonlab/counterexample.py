"""The adversarial piecewise-linear function c|W11+W22| + |W11-W22|, its
subgradient oracle, and the first non-convergence construction with its
closed-form predicted iterates; ``harness.suite_cex2`` checks the second
construction's invariants on simulation traces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, norms, optim

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

    The function is its own subgradient oracle: ``evaluate(W)`` is
    ``(value(W), subgradient(W))``.  The subgradient depends on W only
    through the signs s1 of w1 + w2 and s2 of w1 - w2, a NaN in the class of
    a zero, as in ``_sign``; ``rows`` holds the nine classes' entries.
    """

    c: float
    m: int = 2
    n: int = 2

    def __post_init__(self):
        # Stored as a Python float and ints, so f and its subgradient compute
        # in float64 whatever real type c was given as (np.float32, say).
        c, m, n = self.c, self.m, self.n
        if not (type(c) is float and type(m) is type(n) is int and 0.0 < c < 1.0
                and m >= 2 and n >= 2):  # exact types in the domain are parsed already
            for name, value in zip("cmn", _check_domain(c, m, n)):
                object.__setattr__(self, name, value)
        # ``rows`` for ``optim.run``'s float loop, norms for ``grad_fro``.
        rows, fro = _sign_classes(self.c, self.m, self.n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_table_fro", fro)

    def __reduce__(self):
        # A copy or an unpickled function is built anew from (c, m, n).
        return type(self), (self.c, self.m, self.n)

    def sd_value(self, s, d):
        """c|s| + |d| at s = w1 + w2 and d = w1 - w2, floats or arrays alike:
        the one expression of the objective."""
        return self.c * abs(s) + abs(d)

    def value(self, W) -> float:
        try:
            w1, w2 = float(W[0, 0]), float(W[1, 1])
        except IndexError:  # no leading 2x2 diagonal
            raise self._shape_error(W) from None
        return self.sd_value(w1 + w2, w1 - w2)

    def subgradient(self, W) -> np.ndarray:
        """c*s1*(E11+E22) + s2*(E11-E22), s1 = sign(w1+w2), s2 = sign(w1-w2), sign(0) = 0."""
        if np.shape(W) != (self.m, self.n):  # G has the function's shape
            raise self._shape_error(W)
        w1, w2 = float(W[0, 0]), float(W[1, 1])
        s1, s2 = _sign(w1 + w2), _sign(w1 - w2)
        G = np.zeros((self.m, self.n))
        G[0, 0], G[1, 1] = self.c * s1 + s2, self.c * s1 - s2
        return G

    def _shape_error(self, W) -> ValueError:
        """A W not m x n: in a run the start's, as no step changes W's shape."""
        return ValueError(f"W has shape {np.shape(W)}, "
                          f"but the function's shape is {(self.m, self.n)}")

    def oracle(self) -> KinkyFunction:
        """The function itself: it implements the oracle protocol."""
        return self

    def evaluate(self, W):
        return self.value(W), self.subgradient(W)

    def grad_fro(self, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        """``norms.fro`` of the subgradient ``evaluate`` returns at each
        diagonal with w1 + w2 = s[i] and w1 - w2 = d[i]."""
        return self._table_fro.take(3 * _signs(s) + _signs(d))


def _check_domain(c, m=2, n=2) -> tuple:
    """(c, m, n) as a Python float (``optim._check_real``) and ints, once c
    lies in (0, 1) and m, n >= 2: the one check of the function's parameters."""
    c, shape = optim._check_real(c, "c"), tuple(map(norms._integer, (m, n)))
    for name, value, count in zip("mn", (m, n), shape):
        if count is None:
            raise ValueError(f"{name} must be an integer, not {norms._shown(value)}")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    if min(shape) < 2:
        raise ValueError("m and n must be at least 2")
    return (c, *shape)


def _stack(rows: tuple, m: int, n: int) -> np.ndarray:
    """The nine subgradients of ``rows`` as a (9, m, n) stack, class (s1, s2)
    in entry 3 * s1 + s2, a negative one counted from the end."""
    G = np.zeros((9, m, n))
    G[:, 0, 0], G[:, 1, 1] = zip(*rows[4:], *rows[:4])
    return G


@functools.lru_cache(maxsize=128)  # a sweep builds a function per start, from few c
def _sign_classes(c: float, m: int, n: int) -> tuple:
    """``rows``, class (s1, s2)'s (G[0, 0], G[1, 1]) in row 3 s1 + s2 + 4, and the
    read-only norms of a dropped ``_stack``: no cached array grows with m n."""
    signs = (-1.0, 0.0, 1.0)
    rows = tuple((c * s1 + s2, c * s1 - s2) for s1 in signs for s2 in signs)
    fro = linalg._fro_members(_stack(rows, m, n))
    fro.flags.writeable = False
    return rows, fro


def _signs(x: np.ndarray) -> np.ndarray:
    """``_sign(x)`` elementwise, as int8; NaN maps to 0."""
    return np.subtract(x > 0, x < 0, dtype=np.int8)


def lipschitz_bound(c: float) -> float:
    """Frobenius Lipschitz constant sqrt(2 (1 + c^2)) <= 2 of the function."""
    c = _check_domain(c)[0]
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
    t = optim._check_count(t, "t")
    lam = schedule.limit()
    prev = None
    for head in _HEAD_SIZES:
        n = head + _EULER_LEVELS + 1
        lams = optim.offline_stepsizes(schedule, t, n)
        optim._check_nonincreasing(lams)
        terms = lams - lam
        if np.any(terms < 0.0):
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
    T = optim._check_count(T, "T")
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
    beta, r = optim._check_beta(beta), optim._check_real(r, "r")
    delta = optim._check_real(delta, "delta")
    c, m, n = _check_domain(AUTO_C["cex1"](beta) if c is None else c, m, n)
    if not c < (1.0 - beta) / (1.0 + beta):
        raise ValueError("need c < (1-beta)/(1+beta)")
    if not 1.0 <= r < math.inf:
        raise ValueError("need a finite r >= 1")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    lam = schedule.limit()
    R = compute_R_sequence(schedule, horizon)
    if lam == 0.0:
        if delta != 0.0:
            raise ValueError("delta must be 0 when the stepsizes vanish")
    else:
        bad = np.nonzero(abs(delta) >= R)[0]  # R_0 .. R_horizon
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
    T = optim._check_count(T, "T")
    R = init._R if T < len(init._R) else _R_recursion(init.schedule, init.R0, T + 1)
    signs = np.where(np.arange(T + 1) % 2 == 0, 1.0, -1.0)
    osc = init.delta + signs * R[: T + 1]
    return np.column_stack([init.r + osc, init.r - osc])


def cex1_floor(init: Cex1Init, fn: KinkyFunction) -> float:
    """Proven suboptimality floor 2 c r."""
    return 2.0 * fn.c * init.r
