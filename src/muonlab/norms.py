"""Norm specifications, dual norms, least-Frobenius LMO selections, and the
induced compression operators, including the layerwise product norm used by
the MuonMax family.

A norm spec is a small frozen dataclass; the public entry points
``primal_norm``, ``dual_norm``, ``lmo_min``, ``compressor_constants`` and
``compress`` dispatch on its type.  Vector specs (L1/L2/Linf/Lp) act on 1-d
arrays, matrix specs (Operator/Nuclear) on 2-d arrays, and the product spec
on :class:`ParamPoint`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg

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
        if not self.p >= 1:
            raise ValueError("Lp requires p >= 1")


@dataclass(frozen=True)
class OperatorNorm:
    pass


@dataclass(frozen=True)
class NuclearNorm:
    pass


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
        dims = tuple((int(m), int(n)) for m, n in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 1:
            raise ValueError("at least one layer required")
        if any(m < 1 or n < 1 for m, n in dims):
            raise ValueError("layer dimensions must be positive")
        if not self.s > 0:
            raise ValueError("scale s must be positive")
        if self.k < 1:
            raise ValueError("k must be a positive integer")

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

    def conforms(self, spec: ProductNormSpec) -> bool:
        return (
            len(self.matrices) == spec.num_layers
            and all(M.shape == dims for M, dims in zip(self.matrices, spec.layer_dims))
            and self.theta.shape == (spec.k,)
        )

    def copy(self) -> "ParamPoint":
        return ParamPoint([M.copy() for M in self.matrices], self.theta.copy())

    def zeros_like(self) -> "ParamPoint":
        return ParamPoint([np.zeros_like(M) for M in self.matrices], np.zeros_like(self.theta))

    def fro(self) -> float:
        sq = sum(float(np.sum(M * M)) for M in self.matrices)
        sq += float(np.dot(self.theta, self.theta))
        return math.sqrt(sq)

    def __add__(self, other: "ParamPoint") -> "ParamPoint":
        return ParamPoint(
            [A + B for A, B in zip(self.matrices, other.matrices)],
            self.theta + other.theta,
        )

    def __sub__(self, other: "ParamPoint") -> "ParamPoint":
        return ParamPoint(
            [A - B for A, B in zip(self.matrices, other.matrices)],
            self.theta - other.theta,
        )

    def __mul__(self, scalar: float) -> "ParamPoint":
        return ParamPoint([scalar * M for M in self.matrices], scalar * self.theta)

    __rmul__ = __mul__

    def __neg__(self) -> "ParamPoint":
        return self * -1.0


@dataclass(frozen=True)
class CompressorConstants:
    """Frobenius-equivalence constant alpha and compression quality delta.

    delta = alpha^2 / beta^2 for alpha ||W||_F <= ||W|| <= beta ||W||_F.
    ``empirical_beta`` is set only for the product norm, where beta has no
    closed form in the source material and is estimated numerically.
    """

    alpha: float
    delta: float
    empirical_beta: float | None = None


def inner(a, b) -> float:
    """Trace inner product, extended blockwise to ParamPoints."""
    if isinstance(a, ParamPoint):
        total = sum(float(np.sum(A * B)) for A, B in zip(a.matrices, b.matrices))
        return total + float(np.dot(a.theta, b.theta))
    return float(np.sum(np.asarray(a, float) * np.asarray(b, float)))


def fro(a) -> float:
    if type(a) is np.ndarray and a.dtype is linalg._FLOAT64:
        return linalg._fro(a)  # what linalg.norm(a, "fro") returns, without its dispatch
    if isinstance(a, ParamPoint):
        return a.fro()
    return linalg.norm(a, "fro")


def zeros_like(a):
    if isinstance(a, ParamPoint):
        return a.zeros_like()
    return np.zeros_like(np.asarray(a, float))


def _conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def _require_product_point(W, spec: ProductNormSpec) -> ParamPoint:
    if not isinstance(W, ParamPoint):
        raise ValueError("product spec requires a ParamPoint")
    if not W.conforms(spec):
        raise ValueError("ParamPoint shape does not match the product spec")
    return W


def _product_y(W: ParamPoint, spec: ProductNormSpec) -> float:
    return sum(
        linalg.norm(M, "nuc") / math.sqrt(d) for M, d in zip(W.matrices, spec.d)
    )


def primal_norm(W, spec) -> float:
    """Evaluate the norm selected by ``spec``."""
    if isinstance(spec, L1):
        return linalg.norm(W, "l1")
    if isinstance(spec, L2):
        return linalg.norm(W, "l2")
    if isinstance(spec, Linf):
        return linalg.norm(W, "linf")
    if isinstance(spec, Lp):
        return linalg.norm(W, "lp", p=spec.p)
    if isinstance(spec, OperatorNorm):
        return linalg.norm(W, "op")
    if isinstance(spec, NuclearNorm):
        return linalg.norm(W, "nuc")
    if isinstance(spec, ProductNormSpec):
        W = _require_product_point(W, spec)
        block_max = max(
            math.sqrt(d / spec.s) * linalg.norm(M, "op")
            for M, d in zip(W.matrices, spec.d)
        )
        th = linalg.norm(W.theta, "linf") if W.theta.size else 0.0
        return math.sqrt(block_max**2 + spec.k * th**2)
    raise ValueError(f"unknown norm spec {spec!r}")


def dual_norm(W, spec) -> float:
    """Dual norm max_{||X|| <= 1} <X, W> of the spec's norm."""
    if isinstance(spec, L1):
        return linalg.norm(W, "linf")
    if isinstance(spec, L2):
        return linalg.norm(W, "l2")
    if isinstance(spec, Linf):
        return linalg.norm(W, "l1")
    if isinstance(spec, Lp):
        q = _conjugate_exponent(spec.p)
        if math.isinf(q):
            return linalg.norm(W, "linf")
        return linalg.norm(W, "lp", p=q)
    if isinstance(spec, OperatorNorm):
        return linalg.norm(W, "nuc")
    if isinstance(spec, NuclearNorm):
        return linalg.norm(W, "op")
    if isinstance(spec, ProductNormSpec):
        W = _require_product_point(W, spec)
        y = _product_y(W, spec)
        l1 = linalg.norm(W.theta, "l1") if W.theta.size else 0.0
        return math.sqrt(spec.s * y**2 + l1**2 / spec.k)
    raise ValueError(f"unknown norm spec {spec!r}")


def _lmo_l1(w: np.ndarray) -> np.ndarray:
    # Maximizers live on the coordinates with maximal |w_i|; the least
    # Euclidean norm element of their convex hull is the centroid.
    out = np.zeros_like(w)
    amax = np.abs(w).max() if w.size else 0.0
    if amax == 0.0:
        return out
    idx = np.nonzero(np.abs(w) >= amax * (1.0 - TIE_RTOL))[0]
    out[idx] = np.sign(w[idx]) / len(idx)
    return out


def _lmo_lp(w: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return _lmo_l1(w)
    q = _conjugate_exponent(p)
    nq = linalg.norm(w, "lp", p=q)
    if nq == 0.0:
        return np.zeros_like(w)
    out = np.zeros_like(w)
    nz = w != 0.0
    out[nz] = np.sign(w[nz]) * (np.abs(w[nz]) / nq) ** (q - 1.0)
    return out


def _nuclear_ball(W: np.ndarray) -> tuple:
    # (||W||_op, lmo over the nuclear ball) from one SVD.
    f = linalg.reduced_svd(W)
    if f.rank == 0:
        return 0.0, np.zeros_like(W)
    top = np.nonzero(f.sigma >= f.sigma[0] * (1.0 - TIE_RTOL))[0]
    k = len(top)
    return float(f.sigma[0]), (f.U[:, top] @ f.Vt[top]) / k


def _product_dual_and_lmo(W, spec: ProductNormSpec) -> tuple:
    # One SVD per layer gives both ||W^l||_nuc (for the dual norm) and
    # polar(W^l) (for the LMO).
    W = _require_product_point(W, spec)
    parts = [linalg.polar_and_nuclear(M) for M in W.matrices]
    y = sum(nuc / math.sqrt(d) for (_, nuc), d in zip(parts, spec.d))
    l1 = linalg.norm(W.theta, "l1")
    dn = math.sqrt(spec.s * y**2 + l1**2 / spec.k)
    if dn == 0.0:
        return dn, W.zeros_like()
    mats = [(spec.s * y / (math.sqrt(d) * dn)) * P for (P, _), d in zip(parts, spec.d)]
    theta = (l1 / (spec.k * dn)) * np.sign(W.theta)
    return dn, ParamPoint(mats, theta)


def lmo_min(W, spec):
    """Least-Frobenius-norm element of argmax_{||X|| <= 1} <X, W>.

    At W = 0 every feasible X attains the maximum 0 and the least-norm
    element is 0.
    """
    if isinstance(spec, L1):
        return _lmo_l1(linalg._as_vector(W))
    if isinstance(spec, L2):
        w = linalg._as_vector(W)
        n = np.linalg.norm(w)
        return w / n if n > 0 else np.zeros_like(w)
    if isinstance(spec, Linf):
        return np.sign(linalg._as_vector(W))
    if isinstance(spec, Lp):
        return _lmo_lp(linalg._as_vector(W), spec.p)
    if isinstance(spec, OperatorNorm):
        return linalg.polar_exact(W)
    if isinstance(spec, NuclearNorm):
        return _nuclear_ball(linalg.as_matrix(W))[1]
    if isinstance(spec, ProductNormSpec):
        return _product_dual_and_lmo(W, spec)[1]
    raise ValueError(f"unknown norm spec {spec!r}")


def dual_norm_and_lmo(W, spec) -> tuple:
    """``(dual_norm(W, spec), lmo_min(W, spec))``, the two factors of the
    scaled sharp operator ||W||_* lmo_min(W).

    The matrix specs take one SVD per matrix block for both; the vector
    specs evaluate the two separately.
    """
    if isinstance(spec, OperatorNorm):
        X, nuc = linalg.polar_and_nuclear(W)
        return nuc, X
    if isinstance(spec, NuclearNorm):
        return _nuclear_ball(linalg.as_matrix(W))
    if isinstance(spec, ProductNormSpec):
        return _product_dual_and_lmo(W, spec)
    return dual_norm(W, spec), lmo_min(W, spec)


@functools.lru_cache(maxsize=None)
def _estimate_product_beta(spec: ProductNormSpec, trials: int = 256, seed: int = 0) -> float:
    """Empirical upper Frobenius-equivalence constant for the product norm.

    Maximizes ||W|| / ||W||_F over random directions plus the structured
    witnesses (a rank-one matrix concentrated on the block maximizing
    d_l / s, and a single-coordinate theta) that attain the analytic
    supremum sqrt(max(max_l d_l/s, k)).
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        W = ParamPoint(
            [rng.standard_normal(dims) for dims in spec.layer_dims],
            rng.standard_normal(spec.k),
        )
        best = max(best, primal_norm(W, spec) / W.fro())
    # Structured witnesses.
    for ell in range(spec.num_layers):
        mats = [np.zeros(dims) for dims in spec.layer_dims]
        mats[ell][0, 0] = 1.0
        W = ParamPoint(mats, np.zeros(spec.k))
        best = max(best, primal_norm(W, spec))
    theta = np.zeros(spec.k)
    theta[0] = 1.0
    W = ParamPoint([np.zeros(dims) for dims in spec.layer_dims], theta)
    best = max(best, primal_norm(W, spec))
    return best


def _vector_dim(dims) -> int:
    if dims is None:
        raise ValueError("vector specs need the dimension d")
    return int(dims)


def compressor_constants(spec, dims=None) -> CompressorConstants:
    """Table of (alpha, delta) for the supported norms.

    ``dims`` is the vector length d for L1/L2/Linf/Lp, the matrix shape
    (m, n) for Operator/Nuclear, and ignored for the product spec.  The
    product delta uses an empirical beta estimate and is flagged as such.
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
        m, n = dims
        return CompressorConstants(1.0, 1.0 / min(m, n))
    if isinstance(spec, OperatorNorm):
        m, n = dims
        r = min(m, n)
        return CompressorConstants(1.0 / math.sqrt(r), 1.0 / r)
    if isinstance(spec, ProductNormSpec):
        alpha = min(1.0, 1.0 / math.sqrt(spec.s * spec.num_layers))
        beta_hat = _estimate_product_beta(spec)
        delta = min(1.0, alpha**2 / beta_hat**2)
        return CompressorConstants(alpha, delta, empirical_beta=beta_hat)
    raise ValueError(f"unknown norm spec {spec!r}")


def _alpha_for(W, spec) -> float:
    if isinstance(spec, (L1, L2, Linf, Lp)):
        return compressor_constants(spec, linalg._as_vector(W).size).alpha
    if isinstance(spec, (OperatorNorm, NuclearNorm)):
        return compressor_constants(spec, linalg.as_matrix(W).shape).alpha
    if isinstance(spec, ProductNormSpec):
        return min(1.0, 1.0 / math.sqrt(spec.s * spec.num_layers))
    raise ValueError(f"unknown norm spec {spec!r}")


def compress(W, spec):
    """The scaled sharp operator C(W) = alpha^2 ||W||_* lmo_min(W).

    C is a delta-compressor: ||W - C(W)||_F^2 <= (1 - delta) ||W||_F^2.
    compress(0) = 0.  Matrix specs take one SVD per matrix block.
    """
    alpha = _alpha_for(W, spec)
    dn, X = dual_norm_and_lmo(W, spec)
    if dn == 0.0:
        return zeros_like(W)
    return (alpha**2 * dn) * X
