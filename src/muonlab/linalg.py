"""Dense matrix kernels: SVD, polar factors, operator and nuclear norms.

All operations are pure functions on float64 numpy arrays and are safe to
call concurrently.

The polar factors and the operator and nuclear norms have one implementation
each, on a (B, m, n) stack: a per-call entry is member 0 of a stack of one, bit
for bit, since a stacked SVD, ``@`` or row ``np.vecdot`` is the 2-d one per member.
"""

from __future__ import annotations

import math

import numpy as np

# The kernels' fixed numeric constants: the relative rank cut of the polar
# factor and the Newton-Schulz iteration count.
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


def _matrix(a, ndim: int = 2) -> np.ndarray:
    """``a`` as a float64 matrix, or with ``ndim`` 3 a (B, m, n) stack of
    them, each of positive dimensions; its entries are not checked."""
    A = np.asarray(a, dtype=float)
    if A.ndim != ndim:
        what = "a 2-d array" if ndim == 2 else "a (B, m, n) stack"
        raise ValueError(f"expected {what}, got shape {A.shape}")
    if A.shape[-2] < 1 or A.shape[-1] < 1:
        raise ValueError("matrix dimensions must be positive")
    return A


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float64 array, rejecting NaN/Inf entries."""
    A = _matrix(a)
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


def _fro(arr: np.ndarray) -> float:
    # The expression np.linalg.norm(arr) evaluates for a real array, without
    # its argument handling; the result is bit-identical.
    x = arr.ravel(order="K")
    return math.sqrt(x.dot(x))


def _svd(A: np.ndarray) -> tuple:
    """``np.linalg.svd(A, full_matrices=False)`` of a finite matrix or stack."""
    try:
        return np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc


def polar_exact(A) -> np.ndarray:
    """Polar factor U @ Vt of the reduced SVD.

    Null directions are zeroed (least Frobenius norm selection), so the
    polar of the zero matrix is zero and the polar of a rectangular
    diagonal matrix is its elementwise sign.  The diagonal case is served
    by an exact fast path.  This is the B = 1 case of ``polar_exact_stack``.
    """
    return _polar_stack(_matrix(A)[None], False)[0][0]


def _stack_is_diagonal(A: np.ndarray) -> bool:
    """Whether every member of a stack is diagonal, from two counts."""
    return np.count_nonzero(A) == np.count_nonzero(A.diagonal(0, 1, 2))


def _svd_members(A: np.ndarray) -> np.ndarray | None:
    """None if every member of a stack is diagonal, else the indices of the
    non-diagonal members, once every entry is found finite.  A NaN or inf
    counts as nonzero, so a diagonal stack is zero off its diagonals: its
    callers test only those, the norms only when one comes out not finite.
    A stacked SVD gives each member its 2-d factors bit for bit."""
    if _stack_is_diagonal(A):
        return None
    if not _all_finite(A):
        raise ValueError("matrix entries must be finite")
    nz = A != 0
    return np.flatnonzero(np.count_nonzero(nz, axis=(1, 2))
                          != np.count_nonzero(nz.diagonal(0, 1, 2), axis=1))


def _polar_stack(A: np.ndarray, nuclear: bool) -> tuple:
    """The polar factor of each member of a stack and, if ``nuclear``, its
    nuclear norm (else None).  A diagonal member's are its sign and the sum
    of its absolute diagonal entries.  The others share one SVD; a factor
    drops the singular values <= SVD_TRUNCATION_RTOL * sigma_max, and when
    none is dropped and all members share it, the factors are ``U @ Vt``."""
    svd = _svd_members(A)
    d = A.diagonal(0, 1, 2)
    if svd is None:
        if not _all_finite(d):
            raise ValueError("matrix entries must be finite")
        return np.sign(A), np.abs(d).sum(axis=1) if nuclear else None
    every = len(svd) == len(A)
    U, s, Vt = _svd(A if every else A[svd])
    norms = None
    if nuclear:
        norms = s.sum(axis=1) if every else np.abs(d).sum(axis=1)
        if not every:
            norms[svd] = s.sum(axis=1)
    full = s[:, -1] > SVD_TRUNCATION_RTOL * s[:, 0]  # s is sorted: no value is cut
    if every and full.all():
        return U @ Vt, norms
    X = np.sign(A)
    X[svd[full]] = U[full] @ Vt[full]
    for j in np.flatnonzero(~full):
        k = np.count_nonzero(s[j] > SVD_TRUNCATION_RTOL * s[j, 0])
        X[svd[j]] = U[j][:, :k] @ Vt[j][:k]
    return X, norms


def polar_exact_stack(A) -> np.ndarray:
    """``polar_exact`` of each member of a (B, m, n) stack."""
    return _polar_stack(_matrix(A, 3), False)[0]


def polar_and_nuclear_stack(A) -> tuple:
    """``polar_exact`` and the nuclear norm of each member of a (B, m, n)
    stack from one SVD, as a (B, m, n) stack and a (B,) array."""
    return _polar_stack(_matrix(A, 3), True)


def _norm_stack(A: np.ndarray, kind: str) -> np.ndarray:
    """The "op" or "nuc" norm of each member of a stack: the largest or the
    sum of the absolute diagonal entries of a diagonal member, and from one
    SVD of singular values alone for the others."""
    svd = _svd_members(A)
    if svd is not None and len(svd) == len(A):
        s = np.linalg.svd(A, compute_uv=False)
        return s[:, 0] if kind == "op" else s.sum(axis=1)
    d = np.abs(A.diagonal(0, 1, 2))
    out = d.max(axis=1) if kind == "op" else d.sum(axis=1)
    if svd is None:
        # A sum that overflows is inf and is returned as it is.
        if not _all_finite(out) and not _all_finite(d):
            raise ValueError("matrix entries must be finite")
        return out
    s = np.linalg.svd(A[svd], compute_uv=False)
    out[svd] = s[:, 0] if kind == "op" else s.sum(axis=1)
    return out


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
    A = _matrix(A, 3)
    if not _all_finite(A):
        raise ValueError("matrix entries must be finite")
    return _newton_schulz(A)


def _fro_members(A: np.ndarray) -> np.ndarray:
    """``_fro`` of each member of a stack: vecdot is ndarray.dot on each
    contiguous row (on a strided row the dot sums in another order)."""
    flat = np.ascontiguousarray(A).reshape(len(A), -1)
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
        if not _fro_members(X).max() <= limit:
            raise NumericalError("Newton-Schulz iteration diverged")
    return X
