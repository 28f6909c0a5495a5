"""Dense matrix kernels: reduced SVD, polar factors, norms.

All operations are pure functions on float64 numpy arrays and are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The kernels' fixed numeric constants: the relative rank cut of every SVD
# and the Newton-Schulz iteration count.
SVD_TRUNCATION_RTOL = 1e-12
NEWTON_SCHULZ_DEFAULT_ITERS = 12
NEWTON_SCHULZ_GROWTH_LIMIT = 10.0
# The Frobenius norm below which a sum of squares is no longer a normal number.
_FRO_UNDERFLOW = math.sqrt(np.finfo(float).tiny)

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


def reduced_svd(A) -> SvdFactors:
    """Reduced SVD with relative rank truncation.

    Singular values <= SVD_TRUNCATION_RTOL * sigma_max are dropped, so the
    zero matrix has rank 0 and empty factors.
    """
    return _truncated(*_svd(as_matrix(A)))


def _svd(A: np.ndarray) -> tuple:
    """``np.linalg.svd(A, full_matrices=False)`` of a finite matrix or stack."""
    try:
        return np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def _truncated(U: np.ndarray, s: np.ndarray, Vt: np.ndarray) -> SvdFactors:
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > SVD_TRUNCATION_RTOL * s[0]))
    return SvdFactors(
        U=np.ascontiguousarray(U[:, :rank]),
        sigma=s[:rank].copy(),
        Vt=np.ascontiguousarray(Vt[:rank]),
        rank=rank,
        nuclear=float(s.sum()),
    )


def polar_exact(A) -> np.ndarray:
    """Polar factor U @ Vt of the reduced SVD.

    Null directions are zeroed (least Frobenius norm selection), so the
    polar of the zero matrix is zero and the polar of a rectangular
    diagonal matrix is its elementwise sign.  The diagonal case is served
    by an exact fast path.
    """
    A = as_matrix(A)
    if _offdiag_is_zero(A):
        return np.sign(A)
    return _polar_of(reduced_svd(A), A)


def polar_and_nuclear(A) -> tuple:
    """``(polar_exact(A), norm(A, "nuc"))`` from a single SVD.

    Diagonal inputs take the same exact fast path as both functions:
    ``sign(A)`` and the sum of the absolute diagonal entries.
    """
    A = as_matrix(A)
    if _offdiag_is_zero(A):
        return np.sign(A), float(np.abs(A.diagonal()).sum())
    f = reduced_svd(A)
    return _polar_of(f, A), f.nuclear


def _polar_of(f: SvdFactors, A: np.ndarray) -> np.ndarray:
    if f.rank == 0:
        return np.zeros_like(A)
    return f.U @ f.Vt


def _as_stack(a) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 3:
        raise ValueError(f"expected a (B, m, n) stack, got shape {A.shape}")
    if A.shape[1] < 1 or A.shape[2] < 1:
        raise ValueError("matrix dimensions must be positive")
    return A


def _stack_is_diagonal(A: np.ndarray) -> bool:
    """Whether every member of a stack is diagonal, from two counts."""
    return np.count_nonzero(A) == np.count_nonzero(A.diagonal(axis1=1, axis2=2))


def _svd_members(A: np.ndarray) -> np.ndarray | None:
    """The indices of the non-diagonal members of a stack, or None if all are
    diagonal; a stacked SVD gives each of them its 2-d factors bit for bit.
    A non-finite entry raises as it does per matrix."""
    if not _all_finite(A):
        raise ValueError("matrix entries must be finite")
    if _stack_is_diagonal(A):
        return None
    nz = A != 0  # _offdiag_is_zero of each member
    return np.flatnonzero(np.count_nonzero(nz, axis=(1, 2))
                          != np.count_nonzero(nz.diagonal(axis1=1, axis2=2), axis=1))


def _polar_stack(A: np.ndarray, nuclear: np.ndarray | None) -> np.ndarray:
    """The polar factor of each member (and, into ``nuclear``, its nuclear
    norm), bit for bit as ``polar_exact`` (``polar_and_nuclear``) gives it.
    A stack of one goes through that function; in a larger one, the members
    off the ``sign`` fast path share one SVD, truncated as ``reduced_svd`` is."""
    if len(A) == 1:
        if nuclear is None:
            return polar_exact(A[0])[None]
        X, nuclear[0] = polar_and_nuclear(A[0])
        return X[None]
    svd = _svd_members(A)
    X = np.sign(A)
    if svd is None:
        return X
    U, s, Vt = _svd(A[svd])
    full = np.all(s > SVD_TRUNCATION_RTOL * s[:, :1], axis=1)
    X[svd[full]] = U[full] @ Vt[full]
    for j in np.flatnonzero(~full):
        f = _truncated(U[j], s[j], Vt[j])
        X[svd[j]] = _polar_of(f, A[svd[j]])
    if nuclear is not None:
        nuclear[svd] = s.sum(axis=1)
    return X


def polar_exact_stack(A) -> np.ndarray:
    """``polar_exact`` of each member of a (B, m, n) stack, bit for bit."""
    return _polar_stack(_as_stack(A), None)


def polar_and_nuclear_stack(A) -> tuple:
    """``polar_and_nuclear`` of each member of a (B, m, n) stack, bit for bit,
    as a (B, m, n) stack of polar factors and a (B,) array of nuclear norms."""
    A = _as_stack(A)
    nuclear = np.abs(A.diagonal(axis1=1, axis2=2)).sum(axis=1)
    return _polar_stack(A, nuclear), nuclear


def _norm_stack(A, kind: str) -> np.ndarray:
    """``norm(A[b], kind)`` of each member, for kind "op" or "nuc".  A stack
    of one goes through ``norm``; in a larger one, the members off its
    diagonal fast path share one SVD of singular values alone.
    """
    A = _as_stack(A)
    if len(A) == 1:
        return np.array([norm(A[0], kind)])
    svd = _svd_members(A)
    d = np.abs(A.diagonal(axis1=1, axis2=2))
    out = d.max(axis=1) if kind == "op" else d.sum(axis=1)
    if svd is not None:
        s = np.linalg.svd(A[svd], compute_uv=False)
        out[svd] = s[:, 0] if kind == "op" else s.sum(axis=1)
    return out


def op_norm_stack(A) -> np.ndarray:
    """``norm(A[b], "op")`` of each member of a (B, m, n) stack, bit for bit."""
    return _norm_stack(A, "op")


def nuclear_norm_stack(A) -> np.ndarray:
    """``norm(A[b], "nuc")`` of each member of a (B, m, n) stack, bit for bit."""
    return _norm_stack(A, "nuc")


def polar_newton_schulz(A) -> np.ndarray:
    """Approximate the polar factor with the cubic iteration X <- 1.5X - 0.5 X X^T X.

    The input is pre-scaled by its Frobenius norm so all singular values lie
    in (0, 1]; one whose sum of squares overflows or underflows is divided
    by its largest |entry| first.  Accuracy target: within 1e-4 of
    ``polar_exact`` after NEWTON_SCHULZ_DEFAULT_ITERS iterations for mildly
    conditioned inputs; heavily rank-deficient or ill-conditioned inputs
    converge more slowly.  The zero matrix maps to zero without iterating.
    This is the B = 1 case of ``polar_newton_schulz_stack``.
    """
    return _newton_schulz(as_matrix(A)[None])[0]


def polar_newton_schulz_stack(A) -> np.ndarray:
    """``polar_newton_schulz`` of each member of a (B, m, n) stack, bit for bit.

    Every rule holds per member: the Frobenius pre-scaling, zero members
    mapping to zero, and the finiteness and growth checks of each iteration.
    A non-finite member raises ``as_matrix``'s ValueError; a diverging one,
    NumericalError.
    """
    A = _as_stack(A)
    if not _all_finite(A):
        raise ValueError("matrix entries must be finite")
    return _newton_schulz(A)


def _fro_members(A: np.ndarray) -> np.ndarray:
    """``_fro`` of each member of a stack: vecdot is ndarray.dot row by row."""
    flat = A.reshape(len(A), -1)
    return np.sqrt(np.vecdot(flat, flat))


def _newton_schulz(A: np.ndarray) -> np.ndarray:
    # A stacked matmul is the 2-d one per member, so each member's iterates
    # are what a stack of one gives.
    # A nonzero member whose sum of squares overflows or underflows would be
    # divided by inf or taken for zero: divide it by its largest |entry|
    # first.  Every other member keeps its bits.
    with np.errstate(over="ignore"):
        fro = _fro_members(A)
    odd = np.flatnonzero((fro < _FRO_UNDERFLOW) | (fro == math.inf))
    if odd.size:
        peak = np.abs(A[odd]).max(axis=(1, 2))
        A = A.copy()
        A[odd[peak > 0.0]] /= peak[peak > 0.0, None, None]  # a zero member stays zero
        fro[odd] = _fro_members(A[odd])
    live = fro != 0.0
    if not live.all():
        X = np.zeros_like(A)
        if live.any():
            X[live] = _newton_schulz(A[live])
        return X
    X = A / fro[:, None, None]
    limit = NEWTON_SCHULZ_GROWTH_LIMIT * math.sqrt(min(A.shape[1:]))
    for _ in range(NEWTON_SCHULZ_DEFAULT_ITERS):
        X = 1.5 * X - 0.5 * (X @ X.mT @ X)
        # The largest member norm, NaN or inf if any entry is not finite:
        # one test of both checks.
        flat = X.reshape(len(X), -1)
        if not math.sqrt(np.vecdot(flat, flat).max()) <= limit:
            raise NumericalError("Newton-Schulz iteration diverged")
    return X


def _non_finite_norm(r: float, arr: np.ndarray, what: str) -> float:
    """The non-finite norm ``r`` of ``arr``: an error if an entry is not
    finite, else an overflow, returned as it is.

    Callers test ``r`` first, so finite input pays no scan of its entries.
    """
    if not _all_finite(arr):
        raise ValueError(f"{what} entries must be finite")
    return r


def norm(A, kind: str, p: float | None = None) -> float:
    """Scalar norms used across the package.

    kind is one of "fro", "op", "nuc" (matrices) or "l1", "l2", "linf",
    "lp" (vectors, or single-row/column matrices).  "lp" needs a finite
    p >= 1; "linf" is the p = inf norm.  Every kind but "fro" raises
    ValueError on a NaN or infinite entry.
    """
    arr = np.asarray(A, dtype=float)
    if kind == "fro":
        return _fro(arr)
    if kind in ("op", "nuc"):
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        if _offdiag_is_zero(arr):
            d = np.abs(arr.diagonal())
            r = float(d.max()) if kind == "op" else float(d.sum())
            return r if math.isfinite(r) else _non_finite_norm(r, arr, "matrix")
        if not _all_finite(arr):
            raise ValueError("matrix entries must be finite")
        s = np.linalg.svd(arr, compute_uv=False)
        return float(s[0]) if kind == "op" else float(s.sum())
    v = _as_vector(arr)
    if kind == "l1":
        r = float(np.abs(v).sum())
    elif kind == "l2":
        r = _fro(v)
    elif kind == "linf":
        r = float(np.abs(v).max()) if v.size else 0.0
    elif kind == "lp":
        if p is None or not 1 <= p < math.inf:
            raise ValueError(f"lp norm requires a finite p >= 1, got {p!r}")
        r = float((np.abs(v) ** p).sum() ** (1.0 / p))
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return r if math.isfinite(r) else _non_finite_norm(r, v, "vector")
