"""Dense matrix kernels: reduced SVD, polar factors, elementwise sign, norms.

All operations are pure functions on float64 numpy arrays and are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Centralized numeric defaults; every kernel accepts overrides per call.
SVD_TRUNCATION_RTOL = 1e-12
NEWTON_SCHULZ_DEFAULT_ITERS = 12
NEWTON_SCHULZ_GROWTH_LIMIT = 10.0

# Native float64.  ``A.dtype is _FLOAT64`` is the hot paths' cheap test for
# it; a byte-swapped float64 array fails it and takes the general path.
_FLOAT64 = np.dtype(float)


class NumericalError(RuntimeError):
    """An iterative kernel failed to converge or diverged."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float64 array, rejecting NaN/Inf entries."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError("matrix dimensions must be positive")
    if not _all_finite(A):
        raise ValueError("matrix entries must be finite")
    return A


def _all_finite(A: np.ndarray) -> bool:
    """``np.all(np.isfinite(A))``, without the cost of the np.all wrapper."""
    return np.count_nonzero(np.isfinite(A)) == A.size


def _as_vector(a) -> np.ndarray:
    """Accept a 1-d array, or a single-row/single-column matrix."""
    v = np.asarray(a, dtype=float)
    if v.ndim == 2 and 1 in v.shape:
        v = v.ravel()
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def _offdiag_is_zero(A: np.ndarray) -> bool:
    return np.count_nonzero(A) == np.count_nonzero(A.diagonal())


def _fro(arr: np.ndarray) -> float:
    # The expression np.linalg.norm(arr) evaluates for a real array, without
    # its argument handling; the result is bit-identical.
    x = arr.ravel(order="K")
    return math.sqrt(x.dot(x))


@dataclass(frozen=True)
class SvdFactors:
    """Truncated factors A ~= U @ diag(sigma) @ Vt with rank retained columns.

    ``nuclear`` is the sum of all singular values, before truncation.
    """

    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray
    rank: int
    nuclear: float

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.Vt


def reduced_svd(A, tol: float = SVD_TRUNCATION_RTOL) -> SvdFactors:
    """Reduced SVD with relative rank truncation.

    Singular values <= tol * sigma_max are dropped, so the zero matrix has
    rank 0 and empty factors.
    """
    A = as_matrix(A)
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol * s[0]))
    return SvdFactors(
        U=np.ascontiguousarray(U[:, :rank]),
        sigma=s[:rank].copy(),
        Vt=np.ascontiguousarray(Vt[:rank]),
        rank=rank,
        nuclear=float(s.sum()),
    )


def polar_exact(A, tol: float = SVD_TRUNCATION_RTOL) -> np.ndarray:
    """Polar factor U @ Vt of the reduced SVD.

    Null directions are zeroed (least Frobenius norm selection), so the
    polar of the zero matrix is zero and the polar of a rectangular
    diagonal matrix is its elementwise sign.  The diagonal case is served
    by an exact fast path.
    """
    A = as_matrix(A)
    if _offdiag_is_zero(A):
        return np.sign(A)
    return _polar_of(reduced_svd(A, tol), A)


def polar_and_nuclear(A, tol: float = SVD_TRUNCATION_RTOL) -> tuple:
    """``(polar_exact(A), norm(A, "nuc"))`` from a single SVD.

    Diagonal inputs take the same exact fast path as both functions:
    ``sign(A)`` and the sum of the absolute diagonal entries.
    """
    A = as_matrix(A)
    if _offdiag_is_zero(A):
        return np.sign(A), float(np.abs(A.diagonal()).sum())
    f = reduced_svd(A, tol)
    return _polar_of(f, A), f.nuclear


def _polar_of(f: SvdFactors, A: np.ndarray) -> np.ndarray:
    if f.rank == 0:
        return np.zeros_like(A)
    return f.U @ f.Vt


def _as_stack(a) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 3:
        raise ValueError(f"expected a (B, m, n) stack, got shape {A.shape}")
    return A


def _diagonal_members(A: np.ndarray) -> np.ndarray:
    """``_offdiag_is_zero`` of each member of a stack: NaN counts as nonzero."""
    nz = A != 0
    return (np.count_nonzero(nz, axis=(1, 2))
            == np.count_nonzero(nz.diagonal(axis1=1, axis2=2), axis=1))


def _stack_is_diagonal(A: np.ndarray) -> bool:
    """Whether every member of a stack is diagonal, from two counts."""
    return np.count_nonzero(A) == np.count_nonzero(A.diagonal(axis1=1, axis2=2))


def polar_exact_stack(A) -> np.ndarray:
    """``polar_exact`` of each member of a (B, m, n) stack, bit for bit.

    Finite diagonal members take the fast path ``sign``; every other member
    goes through ``polar_exact`` itself, so non-finite entries raise the
    same error and non-diagonal members get the same SVD.
    """
    A = _as_stack(A)
    X = np.sign(A)
    if not (_all_finite(A) and _stack_is_diagonal(A)):
        fast = np.isfinite(A).all(axis=(1, 2)) & _diagonal_members(A)
        for b in np.flatnonzero(~fast):
            X[b] = polar_exact(A[b])
    return X


def nuclear_norm_stack(A) -> np.ndarray:
    """``norm(A[b], "nuc")`` of each member of a (B, m, n) stack, bit for bit."""
    A = _as_stack(A)
    out = np.abs(A.diagonal(axis1=1, axis2=2)).sum(axis=1)
    if not _stack_is_diagonal(A):
        for b in np.flatnonzero(~_diagonal_members(A)):
            out[b] = norm(A[b], "nuc")
    return out


def polar_newton_schulz(A, iters: int = NEWTON_SCHULZ_DEFAULT_ITERS) -> np.ndarray:
    """Approximate the polar factor with the cubic iteration X <- 1.5X - 0.5 X X^T X.

    The input is pre-scaled by its Frobenius norm so all singular values lie
    in (0, 1].  Accuracy target: within 1e-4 of ``polar_exact`` at the
    default iteration count for mildly conditioned inputs; heavily
    rank-deficient or ill-conditioned inputs converge more slowly.  The zero
    matrix maps to zero without iterating.
    """
    A = as_matrix(A)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    fro = _fro(A)
    if fro == 0.0:
        return np.zeros_like(A)
    X = A / fro
    limit = NEWTON_SCHULZ_GROWTH_LIMIT * math.sqrt(min(A.shape))
    for _ in range(iters):
        X = 1.5 * X - 0.5 * (X @ X.T @ X)
        if not _all_finite(X) or _fro(X) > limit:
            raise NumericalError("Newton-Schulz iteration diverged")
    return X


def sign_elementwise(A) -> np.ndarray:
    """Elementwise sign with sign(0) = 0."""
    return np.sign(np.asarray(A, dtype=float))


def norm(A, kind: str, p: float | None = None) -> float:
    """Scalar norms used across the package.

    kind is one of "fro", "op", "nuc" (matrices) or "l1", "l2", "linf",
    "lp" (vectors, or single-row/column matrices).  "lp" needs p >= 1.
    """
    arr = np.asarray(A, dtype=float)
    if kind == "fro":
        return _fro(arr)
    if kind in ("op", "nuc"):
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        if _offdiag_is_zero(arr):
            d = np.abs(arr.diagonal())
            return float(d.max()) if kind == "op" else float(d.sum())
        s = np.linalg.svd(arr, compute_uv=False)
        return float(s[0]) if kind == "op" else float(s.sum())
    v = _as_vector(arr)
    if kind == "l1":
        return float(np.abs(v).sum())
    if kind == "l2":
        return _fro(v)
    if kind == "linf":
        return float(np.abs(v).max()) if v.size else 0.0
    if kind == "lp":
        if p is None or p < 1:
            raise ValueError("lp norm requires p >= 1")
        return float((np.abs(v) ** p).sum() ** (1.0 / p))
    raise ValueError(f"unknown norm kind {kind!r}")
