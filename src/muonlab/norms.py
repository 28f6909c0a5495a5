"""Norm specifications, dual norms, least-Frobenius LMO selections, and the
induced compression operators, including the layerwise product norm used by
the MuonMax family.

A norm spec is a small frozen dataclass; the public entry points
``primal_norm``, ``dual_norm``, ``lmo_min``, ``compressor_constants`` and
``compress`` dispatch on its type.  Vector specs (L1/L2/Linf/Lp) act on 1-d
arrays, matrix specs (Operator/Nuclear) on 2-d arrays, and the product spec
on :class:`ParamPoint`.  The ``*_stack`` forms evaluate a stack of such
arguments at once; the per-call functions are their B = 1 case.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg

# The verify suites' tolerances: |<W, lmo(W)> - ||W||_*|, ||lmo(W)|| - 1 and
# ||W - C(W)||_F^2 - (1 - delta) ||W||_F^2.
PAIRING_TOL = 1e-8
PRIMAL_NORM_SLACK = 1e-10
CONTRACTION_SLACK = 1e-8

# Tie tolerance when selecting the least-Frobenius element among equally
# maximal coordinates / singular directions.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class L1:
    pass


@dataclass(frozen=True)
class L2:
    pass


@dataclass(frozen=True)
class Linf:
    pass


@dataclass(frozen=True)
class Lp:
    p: float

    def __post_init__(self):
        if (isinstance(self.p, bool) or not isinstance(self.p, numbers.Real)
                or not 1 <= self.p < math.inf):
            raise ValueError(f"Lp requires a finite p >= 1 (Linf is p = inf), got {self.p!r}")


@dataclass(frozen=True)
class OperatorNorm:
    pass


@dataclass(frozen=True)
class NuclearNorm:
    pass


def _positive_int(value, what: str) -> int:
    """``value`` as an int; a bool, a non-integer or one below 1 raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProductNormSpec:
    """Layerwise max of scaled operator norms plus a scaled l-inf vector block.

    ||W|| = sqrt( (max_l sqrt(d_l/s) ||W^l||_op)^2 + k ||theta||_inf^2 )
    with d_l = min(m_l, n_l).
    """

    layer_dims: tuple
    s: float
    k: int

    def __post_init__(self):
        try:
            pairs = [(m, n) for m, n in self.layer_dims]
        except (TypeError, ValueError):
            raise ValueError(f"layer_dims must be a sequence of (m, n) pairs, "
                             f"got {self.layer_dims!r}") from None
        dims = tuple((_positive_int(m, "a layer dimension"),
                      _positive_int(n, "a layer dimension")) for m, n in pairs)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 1:
            raise ValueError("at least one layer required")
        if (isinstance(self.s, bool) or not isinstance(self.s, numbers.Real)
                or not 0 < self.s < math.inf):
            raise ValueError(f"scale s must be positive and finite, got {self.s!r}")
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "k", _positive_int(self.k, "k"))

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims)

    @property
    def d(self) -> tuple:
        return tuple(min(m, n) for m, n in self.layer_dims)


@dataclass
class ParamPoint:
    """A point (W^1, ..., W^L, theta) in a product of matrix spaces."""

    matrices: list
    theta: np.ndarray

    def __post_init__(self):
        self.matrices = [linalg.as_matrix(M) for M in self.matrices]
        th = np.asarray(self.theta, dtype=float)
        if th.ndim != 1:
            raise ValueError("theta must be a 1-d vector")
        if not linalg._all_finite(th):
            raise ValueError("theta entries must be finite")
        self.theta = th

    def copy(self) -> "ParamPoint":
        return ParamPoint([M.copy() for M in self.matrices], self.theta.copy())

    def zeros_like(self) -> "ParamPoint":
        return ParamPoint([np.zeros_like(M) for M in self.matrices], np.zeros_like(self.theta))

    def fro(self) -> float:
        return math.sqrt(inner(self, self))

    def __add__(self, other: "ParamPoint") -> "ParamPoint":
        _same_shapes(self, other)
        return ParamPoint([A + B for A, B in zip(self.matrices, other.matrices)],
                          self.theta + other.theta)

    def __sub__(self, other: "ParamPoint") -> "ParamPoint":
        _same_shapes(self, other)
        return ParamPoint([A - B for A, B in zip(self.matrices, other.matrices)],
                          self.theta - other.theta)

    def __mul__(self, scalar: float) -> "ParamPoint":
        return ParamPoint([scalar * M for M in self.matrices], scalar * self.theta)

    __rmul__ = __mul__

    def __neg__(self) -> "ParamPoint":
        return self * -1.0


def _same_shapes(a: ParamPoint, b: ParamPoint):
    """Raise ValueError unless the points' layer shapes and theta lengths match."""
    x, y = ([M.shape for M in p.matrices] + [p.theta.shape] for p in (a, b))
    if x != y:
        raise ValueError(f"ParamPoint shapes do not match: {x} and {y}")


@dataclass(frozen=True)
class CompressorConstants:
    """Frobenius-equivalence constant alpha and compression quality delta.

    delta = alpha^2 / beta^2 for alpha ||W||_F <= ||W|| <= beta ||W||_F.
    """

    alpha: float
    delta: float


def inner(a, b) -> float:
    """Trace inner product, extended blockwise to ParamPoints."""
    if isinstance(a, ParamPoint):
        _same_shapes(a, b)
        total = sum(float(np.sum(A * B)) for A, B in zip(a.matrices, b.matrices))
        return total + float(np.dot(a.theta, b.theta))
    return float(np.sum(np.asarray(a, float) * np.asarray(b, float)))


def fro(a) -> float:
    if type(a) is np.ndarray and a.dtype is linalg._FLOAT64:
        return linalg._fro(a)  # the fallback's result, without its type tests
    if isinstance(a, ParamPoint):
        return a.fro()
    return linalg._fro(np.asarray(a, dtype=float))


def zeros_like(a):
    if isinstance(a, ParamPoint):
        return a.zeros_like()
    return np.zeros_like(np.asarray(a, float))


def _conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1, for p > 1."""
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# Stacks.  Every spec's kernels act on a stack of B members:
#
#   L1, L2, Linf, Lp       a (B, d) array of vectors;
#   Operator, Nuclear      a (B, m, n) array of matrices;
#   ProductNormSpec        a pair (matrices, theta) of per-layer
#                          (B, m_l, n_l) stacks and a (B, k) theta.
#
# Each member's result equals the per-call function's on that member bit for
# bit; the per-call functions are the B = 1 case.  Where the per-call form
# used Python float arithmetic (``x ** 2`` is libm's pow, which is not
# always numpy's x * x), the stacks keep it per member.

_VECTOR_SPECS = (L1, L2, Linf, Lp)
_MATRIX_SPECS = (OperatorNorm, NuclearNorm)


def _stack(W, spec):
    """Validate and coerce a stack for ``spec``."""
    if isinstance(spec, _VECTOR_SPECS):
        V = np.asarray(W, dtype=float)
        if V.ndim != 2:
            raise ValueError(f"expected a (B, d) stack of vectors, got shape {V.shape}")
        if not linalg._all_finite(V):
            raise ValueError("vector entries must be finite")
        return V
    if isinstance(spec, _MATRIX_SPECS):
        return linalg._as_stack(W)
    if isinstance(spec, ProductNormSpec):
        try:
            mats, theta = W
        except (TypeError, ValueError):
            raise ValueError("a product stack is a (matrices, theta) pair") from None
        mats = [np.asarray(M, dtype=float) for M in mats]
        theta = np.asarray(theta, dtype=float)
        B = theta.shape[0] if theta.ndim == 2 else -1
        if (theta.shape != (B, spec.k) or len(mats) != spec.num_layers
                or any(M.shape != (B, *dims) for M, dims in zip(mats, spec.layer_dims))):
            raise ValueError("shapes do not match the product spec")
        # ParamPoint's checks and messages.
        if not all(linalg._all_finite(M) for M in mats):
            raise ValueError("matrix entries must be finite")
        if not linalg._all_finite(theta):
            raise ValueError("theta entries must be finite")
        return mats, theta
    raise ValueError(f"unknown norm spec {spec!r}")


def _one(W, spec):
    """The B = 1 stack of a per-call argument, validated by ``_stack``."""
    if isinstance(spec, _VECTOR_SPECS):
        W = linalg._as_vector(W)[None]
    elif isinstance(spec, _MATRIX_SPECS):
        W = linalg._matrix(W)[None]
    elif isinstance(spec, ProductNormSpec):
        if not isinstance(W, ParamPoint):
            raise ValueError("product spec requires a ParamPoint")
        W = [M[None] for M in W.matrices], W.theta[None]
    return _stack(W, spec)


def _first(X):
    """Member 0 of a stacked result, in the per-call form."""
    if isinstance(X, tuple):
        return ParamPoint([M[0] for M in X[0]], X[1][0])
    return X[0]


def _sq(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each entry as a Python float, i.e. libm's pow."""
    return np.array([v ** 2 for v in x.tolist()])


def _l1_rows(V):
    return np.abs(V).sum(axis=1)


def _l2_rows(V):
    # linalg._fro of each row: vecdot is ndarray.dot row by row, bit for bit, on
    # rows made contiguous as _fro's ravel makes them (strided, it sums otherwise).
    V = np.ascontiguousarray(V)
    return np.sqrt(np.vecdot(V, V))


def _linf_rows(V):
    return np.abs(V).max(axis=1) if V.shape[1] else np.zeros(len(V))


def _lp_rows(V, p: float):
    """||v||_p of each row, the outer power taken per member as a Python float."""
    inv = 1.0 / p
    return np.array([x ** inv for x in (np.abs(V) ** p).sum(axis=1).tolist()])


def _lmo_l1_rows(V, amax: np.ndarray):
    # Maximizers live on the coordinates with maximal |w_i|, ``amax`` from
    # _linf_rows; the least Euclidean norm element of their hull is the centroid.
    top = (np.abs(V) >= (amax * (1.0 - TIE_RTOL))[:, None]) & (amax != 0.0)[:, None]
    X = np.zeros_like(V)
    np.divide(np.sign(V), np.count_nonzero(top, axis=1)[:, None], out=X, where=top)
    return X


def _lmo_lp_rows(V, p: float, nq: np.ndarray):
    """The Lp LMO for p > 1, given each row's conjugate norm ``nq``."""
    nz = (V != 0.0) & (nq != 0.0)[:, None]
    R = np.zeros_like(V)
    np.divide(np.abs(V), nq[:, None], out=R, where=nz)
    return np.where(nz, np.sign(V) * R ** (_conjugate_exponent(p) - 1.0), 0.0)


def _nuclear_ball(A: np.ndarray) -> tuple:
    """(||A_b||_op, lmo over the nuclear ball) of each member, from one
    stacked SVD of the finite (B, m, n) stack ``A``."""
    if not linalg._all_finite(A):
        raise ValueError("matrix entries must be finite")
    U, s, Vt = linalg._svd(A)
    # The zero matrix maps to 0; others average the dyads of their top
    # singular values.
    s0 = s[:, 0]
    top = (s >= (s0 * (1.0 - TIE_RTOL))[:, None]) & (s0 != 0.0)[:, None]
    k = np.count_nonzero(top, axis=1)
    X = np.zeros_like(A)
    one = k == 1
    # A single dyad U[:, [0]] @ Vt[[0]] is, per entry, one product added to
    # the +0.0 the matmul starts from; so is this, -0.0 products included.
    X[one] = U[one][:, :, :1] * Vt[one][:, :1, :] + 0.0
    for b in np.flatnonzero(k > 1):
        idx = np.flatnonzero(top[b])
        X[b] = (U[b][:, idx] @ Vt[b][idx]) / len(idx)
    return np.where(s0 == 0.0, 0.0, s0), X


def _product_y(nuclear, spec) -> np.ndarray:
    """sum_l ||W^l||_nuc / sqrt(d_l), added layer by layer."""
    y = None
    for nuc, d in zip(nuclear, spec.d):
        term = nuc / math.sqrt(d)
        y = term if y is None else y + term
    return y


def _product_dual(y, l1, spec) -> np.ndarray:
    return np.sqrt(spec.s * _sq(y) + _sq(l1) / spec.k)


def _primal(W, spec) -> np.ndarray:
    if isinstance(spec, L1):
        return _l1_rows(W)
    if isinstance(spec, L2):
        return _l2_rows(W)
    if isinstance(spec, Linf):
        return _linf_rows(W)
    if isinstance(spec, Lp):
        return _lp_rows(W, spec.p)
    if isinstance(spec, OperatorNorm):
        return linalg.op_norm_stack(W)
    if isinstance(spec, NuclearNorm):
        return linalg.nuclear_norm_stack(W)
    mats, theta = W
    block = None
    for M, d in zip(mats, spec.d):
        b = math.sqrt(d / spec.s) * linalg.op_norm_stack(M)
        block = b if block is None else np.maximum(block, b)
    return np.sqrt(_sq(block) + spec.k * _sq(_linf_rows(theta)))


def _dual_spec(spec):
    """The basic spec whose primal norm is ``spec``'s dual norm: the one table
    of duality pairs.  Lp's is Lq with 1/p + 1/q = 1, and Lp(1)'s is Linf."""
    if isinstance(spec, Lp):
        return Linf() if spec.p == 1.0 else Lp(_conjugate_exponent(spec.p))
    pairs = {L1: Linf, L2: L2, Linf: L1, OperatorNorm: NuclearNorm, NuclearNorm: OperatorNorm}
    return pairs[type(spec)]()


def _dual(W, spec) -> np.ndarray:
    if not isinstance(spec, ProductNormSpec):
        return _primal(W, _dual_spec(spec))
    mats, theta = W
    y = _product_y([linalg.nuclear_norm_stack(M) for M in mats], spec)
    return _product_dual(y, _l1_rows(theta), spec)


def _dual_and_lmo(W, spec) -> tuple:
    """(dual norm, lmo_min) of each member.  The vector specs' LMOs are
    built from the dual norm; the matrix specs take one SVD per matrix block
    for both."""
    if isinstance(spec, _VECTOR_SPECS):
        dn = _dual(W, spec)
        if isinstance(spec, Linf):
            return dn, np.sign(W)
        if isinstance(spec, L2):
            X = np.zeros_like(W)
            np.divide(W, dn[:, None], out=X, where=(dn > 0)[:, None])
            return dn, X
        if isinstance(spec, Lp) and spec.p != 1.0:
            return dn, _lmo_lp_rows(W, spec.p, dn)
        return dn, _lmo_l1_rows(W, dn)  # L1 and Lp(1): dn is the max |entry|
    if isinstance(spec, OperatorNorm):
        X, nuc = linalg.polar_and_nuclear_stack(W)
        return nuc, X
    if isinstance(spec, NuclearNorm):
        return _nuclear_ball(W)
    # One SVD per layer gives both ||W^l||_nuc (for the dual norm) and
    # polar(W^l) (for the LMO).
    mats, theta = W
    parts = [linalg.polar_and_nuclear_stack(M) for M in mats]
    y = _product_y([nuc for _, nuc in parts], spec)
    l1 = _l1_rows(theta)
    dn = _product_dual(y, l1, spec)
    zero = dn == 0.0
    safe = np.where(zero, 1.0, dn)
    X = [((spec.s * y) / (math.sqrt(d) * safe))[:, None, None] * P
         for (P, _), d in zip(parts, spec.d)]
    th = (l1 / (spec.k * safe))[:, None] * np.sign(theta)
    return dn, _zeroed((X, th), zero)


def _blocks(X) -> list:
    """The arrays of a stacked result: the product's layers and theta, or X."""
    return [*X[0], X[1]] if isinstance(X, tuple) else [X]


def _zeroed(X, zero: np.ndarray):
    """``X`` with the members flagged in ``zero`` set to +0.0."""
    if zero.any():
        for Y in _blocks(X):
            Y[zero] = 0.0
    return X


def _dims(W, spec):
    """The ``dims`` argument of ``compressor_constants`` for a stack."""
    if isinstance(spec, _VECTOR_SPECS):
        return W.shape[1]
    if isinstance(spec, _MATRIX_SPECS):
        return W.shape[1:]
    return None


def primal_norm_stack(W, spec) -> np.ndarray:
    """``primal_norm`` of each member of a stack, as a (B,) array."""
    return _primal(_stack(W, spec), spec)


def dual_norm_stack(W, spec) -> np.ndarray:
    """``dual_norm`` of each member of a stack, as a (B,) array."""
    return _dual(_stack(W, spec), spec)


def lmo_min_stack(W, spec):
    """``lmo_min`` of each member of a stack, as a stack of the same form."""
    return _dual_and_lmo(_stack(W, spec), spec)[1]


def _compress(W, spec):
    alpha = compressor_constants(spec, _dims(W, spec)).alpha
    dn, X = _dual_and_lmo(W, spec)
    coef = alpha**2 * dn
    out = [coef.reshape((-1,) + (1,) * (Y.ndim - 1)) * Y for Y in _blocks(X)]
    return _zeroed((out[:-1], out[-1]) if isinstance(X, tuple) else out[0], dn == 0.0)


def compress_stack(W, spec):
    """``compress`` of each member of a stack, as a stack of the same form."""
    return _compress(_stack(W, spec), spec)


def primal_norm(W, spec) -> float:
    """Evaluate the norm selected by ``spec``."""
    return float(_primal(_one(W, spec), spec)[0])


def dual_norm(W, spec) -> float:
    """Dual norm max_{||X|| <= 1} <X, W> of the spec's norm."""
    return float(_dual(_one(W, spec), spec)[0])


def lmo_min(W, spec):
    """Least-Frobenius-norm element of argmax_{||X|| <= 1} <X, W>.

    At W = 0 every feasible X attains the maximum 0 and the least-norm
    element is 0.
    """
    return _first(_dual_and_lmo(_one(W, spec), spec)[1])


def dual_norm_and_lmo(W, spec) -> tuple:
    """``(dual_norm(W, spec), lmo_min(W, spec))``, the two factors of the
    scaled sharp operator ||W||_* lmo_min(W).

    The matrix specs take one SVD per matrix block for both.
    """
    dn, X = _dual_and_lmo(_one(W, spec), spec)
    return float(dn[0]), _first(X)


def _vector_dim(dims) -> int:
    if dims is None:
        raise ValueError("vector specs need the dimension d")
    return _positive_int(dims, "the dimension d")


def _matrix_rank(dims) -> int:
    """min(m, n) of a matrix shape (m, n) of positive integers."""
    try:
        m, n = dims
    except (TypeError, ValueError):
        raise ValueError("matrix specs need the shape (m, n)") from None
    return min(_positive_int(m, "a matrix dimension"), _positive_int(n, "a matrix dimension"))


def compressor_constants(spec, dims=None) -> CompressorConstants:
    """Table of (alpha, delta) for the supported norms.

    ``dims`` is the vector length d for L1/L2/Linf/Lp, the matrix shape
    (m, n) for Operator/Nuclear, and ignored for the product spec.
    """
    if isinstance(spec, L1):
        d = _vector_dim(dims)
        return CompressorConstants(1.0, 1.0 / d)
    if isinstance(spec, L2):
        return CompressorConstants(1.0, 1.0)
    if isinstance(spec, Linf):
        d = _vector_dim(dims)
        return CompressorConstants(1.0 / math.sqrt(d), 1.0 / d)
    if isinstance(spec, Lp):
        d = _vector_dim(dims)
        alpha = d ** min(0.0, 1.0 / spec.p - 0.5)
        delta = d ** (-2.0 * abs(1.0 / spec.p - 0.5))
        return CompressorConstants(alpha, delta)
    if isinstance(spec, NuclearNorm):
        return CompressorConstants(1.0, 1.0 / _matrix_rank(dims))
    if isinstance(spec, OperatorNorm):
        r = _matrix_rank(dims)
        return CompressorConstants(1.0 / math.sqrt(r), 1.0 / r)
    if isinstance(spec, ProductNormSpec):
        alpha = min(1.0, 1.0 / math.sqrt(spec.s * spec.num_layers))
        # sup ||W|| / ||W||_F, attained by a rank-one block on the layer with
        # the largest d_l / s, or by a single theta coordinate.
        beta = math.sqrt(max(max(d / spec.s for d in spec.d), spec.k))
        return CompressorConstants(alpha, min(1.0, alpha**2 / beta**2))
    raise ValueError(f"unknown norm spec {spec!r}")


def compress(W, spec):
    """The scaled sharp operator C(W) = alpha^2 ||W||_* lmo_min(W).

    C is a delta-compressor: ||W - C(W)||_F^2 <= (1 - delta) ||W||_F^2.
    compress(0) = 0.  Matrix specs take one SVD per matrix block.
    """
    return _first(_compress(_one(W, spec), spec))
