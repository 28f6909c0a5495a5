import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from muonlab import linalg


def rand_matrix(rng, m=None, n=None):
    if m is None:
        m, n = rng.integers(2, 8, 2)
    return rng.standard_normal((m, n))


class TestReducedSvd:
    def test_diagonal(self):
        f = linalg.reduced_svd(np.diag([3.0, -4.0]))
        assert f.rank == 2
        np.testing.assert_allclose(f.sigma, [4.0, 3.0])

    def test_zero_matrix(self):
        f = linalg.reduced_svd(np.zeros((2, 3)))
        assert f.rank == 0
        assert f.U.shape == (2, 0)
        assert f.sigma.size == 0

    def test_rank_one_column(self):
        A = np.array([[3.0, 0.0], [4.0, 0.0]])
        f = linalg.reduced_svd(A)
        assert f.rank == 1
        np.testing.assert_allclose(f.sigma, [5.0])
        # independent oracle: eigendecomposition of A^T A
        evals = np.sort(np.linalg.eigvalsh(A.T @ A))[::-1]
        np.testing.assert_allclose(f.sigma**2, evals[:1], atol=1e-12)
        np.testing.assert_allclose(np.abs(f.U[:, 0]), [0.6, 0.8])
        np.testing.assert_allclose(np.abs(f.Vt[0]), [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(f.reconstruct(), A, atol=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            A = rand_matrix(rng)
            f = linalg.reduced_svd(A)
            r = f.rank
            assert np.linalg.norm(f.U.T @ f.U - np.eye(r)) <= 1e-10
            assert np.linalg.norm(f.Vt @ f.Vt.T - np.eye(r)) <= 1e-10
            assert np.all(np.diff(f.sigma) <= 0)
            assert np.all(f.sigma > 0)
            err = np.linalg.norm(f.reconstruct() - A)
            assert err <= 1e-8 * max(1.0, np.linalg.norm(A))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linalg.reduced_svd(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            linalg.reduced_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            linalg.reduced_svd(np.eye(2), tol=0.0)


class TestPolarExact:
    def test_diagonal_is_sign(self):
        np.testing.assert_array_equal(
            linalg.polar_exact(np.diag([2.0, -3.0, 0.0])), np.diag([1.0, -1.0, 0.0]))

    def test_zero(self):
        np.testing.assert_array_equal(linalg.polar_exact(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_rotation_fixed_point(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(linalg.polar_exact(R), R, atol=1e-14)

    def test_random_diagonals_with_zeros(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m, n = rng.integers(2, 7, 2)
            D = np.zeros((m, n))
            d = min(m, n)
            vals = rng.standard_normal(d)
            vals[rng.random(d) < 0.3] = 0.0
            D[np.arange(d), np.arange(d)] = vals
            np.testing.assert_array_equal(linalg.polar_exact(D), np.sign(D))

    def test_duality_and_rank_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            A = rand_matrix(rng)
            P = linalg.polar_exact(A)
            assert linalg.norm(P, "op") <= 1 + 1e-10
            assert abs(np.sum(A * P) - linalg.norm(A, "nuc")) <= 1e-8
            rank = linalg.reduced_svd(A).rank
            assert abs(np.linalg.norm(P) ** 2 - rank) <= 1e-8


class TestPolarAndNuclear:
    def reference(self, A):
        return linalg.polar_exact(A), linalg.norm(A, "nuc")

    def test_diagonal_and_zero_exact(self):
        rng = np.random.default_rng(5)
        cases = [np.diag([3.0, -4.0]), np.zeros((2, 2)), np.zeros((3, 2)),
                 np.diag([2.0, -3.0, 0.0])]
        for _ in range(20):
            m, n = rng.integers(2, 7, 2)
            D = np.zeros((m, n))
            d = min(m, n)
            D[np.arange(d), np.arange(d)] = rng.standard_normal(d)
            cases.append(D)
        for A in cases:
            X, nuc = linalg.polar_and_nuclear(A)
            P, ref = self.reference(A)
            np.testing.assert_array_equal(X, P)
            assert nuc == ref

    def test_dense_rank_deficient_rectangular(self):
        rng = np.random.default_rng(6)
        cases = [rand_matrix(rng) for _ in range(20)]
        cases += [rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
                  for m, n in ((5, 5), (6, 3), (3, 7))]
        cases += [rng.standard_normal((9, 4)), rng.standard_normal((4, 9))]
        for A in cases:
            X, nuc = linalg.polar_and_nuclear(A)
            P, ref = self.reference(A)
            assert np.linalg.norm(X - P) <= 1e-12 * max(1.0, np.linalg.norm(P))
            assert abs(nuc - ref) <= 1e-12 * ref

    def test_factors_carry_untruncated_nuclear_norm(self):
        A = np.diag([1.0, 1e-14]) @ np.array([[1.0, 1.0], [1.0, -1.0]])
        f = linalg.reduced_svd(A)
        assert f.rank == 1
        assert f.nuclear > float(f.sigma.sum())
        assert abs(f.nuclear - linalg.norm(A, "nuc")) <= 1e-12 * f.nuclear


class TestStacks:
    """The stack kernels equal their per-matrix counterparts bit for bit."""

    def stack(self, rng, m, n):
        members = [np.zeros((m, n)), rng.standard_normal((m, n))]
        for zeros in (0, 1):
            D = np.zeros((m, n))
            d = min(m, n)
            D[np.arange(d), np.arange(d)] = rng.standard_normal(d)
            D[0, 0] *= 1 - zeros
            members.append(D)
        return np.stack(members)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (6, 4), (20, 20)])
    def test_members_match(self, shape):
        A = self.stack(np.random.default_rng(8), *shape)
        X, nuc = linalg.polar_exact_stack(A), linalg.nuclear_norm_stack(A)
        for b in range(len(A)):
            np.testing.assert_array_equal(X[b], linalg.polar_exact(A[b]))
            assert nuc[b] == linalg.norm(A[b], "nuc")

    @pytest.mark.parametrize("bad", [(0, 0, np.inf), (1, 1, np.nan), (0, 1, np.nan)])
    def test_non_finite_member_raises_as_polar_exact(self, bad):
        A = self.stack(np.random.default_rng(9), 2, 2)
        A[(2,) + bad[:2]] = bad[2]
        with pytest.raises(ValueError, match="finite"):
            linalg.polar_exact(A[2])
        with pytest.raises(ValueError, match="finite"):
            linalg.polar_exact_stack(A)

    def test_non_finite_diagonal_nuclear_norm(self):
        # A non-finite diagonal entry raises, per call and in a stack, as a
        # non-finite entry off the diagonal does.
        for bad in (np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0])):
            for kind, stacked in (("nuc", linalg.nuclear_norm_stack),
                                  ("op", linalg.op_norm_stack)):
                with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                    linalg.norm(bad, kind)
                with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                    stacked(np.stack([np.diag([2.0, 1.0]), bad]))

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            linalg.polar_exact_stack(np.eye(2))
        with pytest.raises(ValueError):
            linalg.nuclear_norm_stack(np.eye(2))
        with pytest.raises(ValueError, match="dimensions must be positive"):
            linalg.op_norm_stack(np.ones((2, 0, 3)))

    def mixed(self, rng, m, n):
        """Full-rank, rank-deficient, diagonal and zero members of one shape."""
        r = min(m, n)
        members = [rng.standard_normal((m, n)) for _ in range(4)]
        members.append(rng.standard_normal((m, 1)) @ rng.standard_normal((1, n)))
        members.append(np.round(rng.standard_normal((m, n))))
        members += list(self.stack(rng, m, n))
        if r > 2:
            members.append(rng.standard_normal((m, r - 1)) @ rng.standard_normal((r - 1, n)))
        return np.stack(members)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 2), (3, 5), (6, 4), (7, 7), (20, 20)])
    def test_all_stack_kernels_match(self, shape):
        A = self.mixed(np.random.default_rng(10), *shape)
        X = linalg.polar_exact_stack(A)
        P, nuc_uv = linalg.polar_and_nuclear_stack(A)
        op, nuc = linalg.op_norm_stack(A), linalg.nuclear_norm_stack(A)
        for b in range(len(A)):
            ref_P, ref_nuc = linalg.polar_and_nuclear(A[b])
            assert X[b].tobytes() == linalg.polar_exact(A[b]).tobytes()
            assert P[b].tobytes() == ref_P.tobytes()
            assert nuc_uv[b] == ref_nuc
            assert op[b] == linalg.norm(A[b], "op")
            assert nuc[b] == linalg.norm(A[b], "nuc")

    def test_one_svd_per_stack(self, monkeypatch):
        A = self.mixed(np.random.default_rng(11), 4, 3)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for kernel in (linalg.polar_exact_stack, linalg.polar_and_nuclear_stack,
                       linalg.op_norm_stack, linalg.nuclear_norm_stack):
            kernel(A)
        assert len(calls) == 4

    def test_lone_member_goes_through_the_reference(self, monkeypatch):
        A = self.stack(np.random.default_rng(12), 3, 3)  # one non-diagonal member
        calls = []
        polar_exact = linalg.polar_exact
        monkeypatch.setattr(linalg, "polar_exact",
                            lambda M, *a: calls.append(1) or polar_exact(M, *a))
        X = linalg.polar_exact_stack(A)
        assert len(calls) == 1
        assert X[1].tobytes() == polar_exact(A[1]).tobytes()

    @pytest.mark.parametrize("kernel", ["op_norm_stack", "nuclear_norm_stack",
                                        "polar_and_nuclear_stack"])
    def test_non_finite_member_raises_as_the_reference(self, kernel):
        A = self.mixed(np.random.default_rng(13), 3, 3)
        A[3, 0, 1] = np.nan
        reference = {"op_norm_stack": lambda M: linalg.norm(M, "op"),
                     "nuclear_norm_stack": lambda M: linalg.norm(M, "nuc"),
                     "polar_and_nuclear_stack": linalg.polar_and_nuclear}[kernel]
        with pytest.raises(Exception) as ref:
            reference(A[3])
        with pytest.raises(type(ref.value)) as got:
            getattr(linalg, kernel)(A)
        assert str(got.value) == str(ref.value)


class TestPolarNewtonSchulz:
    def test_identity_fixed_point(self):
        np.testing.assert_allclose(linalg.polar_newton_schulz(np.eye(2)), np.eye(2), atol=5e-12)

    def test_diagonal(self):
        got = linalg.polar_newton_schulz(np.diag([3.0, -4.0]))
        np.testing.assert_allclose(got, np.diag([1.0, -1.0]), atol=1e-4)

    def test_well_conditioned_vs_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            U = np.linalg.qr(rng.standard_normal((8, 5)))[0]
            V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
            A = (U * rng.uniform(0.5, 2.0, 5)) @ V.T
            err = np.linalg.norm(linalg.polar_newton_schulz(A) - linalg.polar_exact(A))
            assert err <= 1e-4

    def test_zero_input(self):
        np.testing.assert_array_equal(linalg.polar_newton_schulz(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_bad_iters(self):
        with pytest.raises(ValueError):
            linalg.polar_newton_schulz(np.eye(2), iters=0)

    @pytest.mark.parametrize("scale", [1e200, 1e154, 1e-170])
    def test_frobenius_overflow_or_underflow(self, scale):
        # Each used to return the zero matrix: the Frobenius norm came out as
        # inf (the input was divided by it) or as 0 (the zero-matrix branch).
        A = scale * np.array([[2.0, 1.0], [0.5, -1.5]])
        np.testing.assert_allclose(linalg.polar_newton_schulz(A), linalg.polar_exact(A),
                                   atol=1e-12)


def ns_reference(A, iters=linalg.NEWTON_SCHULZ_DEFAULT_ITERS):
    """The 2-d iteration ``polar_newton_schulz`` ran before it became the
    B = 1 case of ``polar_newton_schulz_stack``, kept as the reference."""
    A = linalg.as_matrix(A)
    fro = math.sqrt(A.ravel().dot(A.ravel()))
    if fro == 0.0:
        return np.zeros_like(A)
    X = A / fro
    limit = linalg.NEWTON_SCHULZ_GROWTH_LIMIT * math.sqrt(min(A.shape))
    for _ in range(iters):
        X = 1.5 * X - 0.5 * (X @ X.T @ X)
        if not np.all(np.isfinite(X)) or np.linalg.norm(X) > limit:
            raise linalg.NumericalError("Newton-Schulz iteration diverged")
    return X


# SHA-256 of polar_newton_schulz's output bytes on seeded Gaussian inputs,
# recorded with the 2-d iteration (ns_reference) before the stack kernel,
# with numpy 2.4.6's OpenBLAS at one thread on an x86-64 CPU.  A threaded
# BLAS changes the last bits at 256 x 256, so the digests are computed in a
# child process held at one thread; another BLAS build may differ too.
NS_DIGESTS = {
    "2x2": "56992fe5ef7fc79a0be5b51b82aaec6c0d5f6983829acd34094ec6039453f12e",
    "5x3": "e1aabac91f3ed86acaa79440138d4b310184440011a1ca1f248970f1d0f02b86",
    "8x8": "ab893780bde6fd82b32aca497194aca460167dc9c9e43c54cb4fe85057739877",
    "64x64": "4333f062d8e8f58e6da870832fde27143214f98d98d251381a544ad0d7fd5e56",
    "256x256": "0c8cf536796e7011fee21c10dd6bae5346b4657f4830c170f0f72c7fa1e05c0c",
}
NS_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from muonlab import linalg
rng = np.random.default_rng(2024)
out = {}
for m, n in ((2, 2), (5, 3), (8, 8), (64, 64), (256, 256)):
    X = linalg.polar_newton_schulz(rng.standard_normal((m, n)))
    out[f"{m}x{n}"] = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()
print(json.dumps(out))
"""


def test_newton_schulz_digests():
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NS_DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == NS_DIGESTS


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestNewtonSchulzStack:
    """Each member of a stack is the B = 1 call, and both are the 2-d
    iteration they replaced, bit for bit."""

    def check_members(self, A, iters=linalg.NEWTON_SCHULZ_DEFAULT_ITERS):
        got = linalg.polar_newton_schulz_stack(A, iters=iters)
        assert got.shape == A.shape
        for b in range(len(A)):
            one = linalg.polar_newton_schulz(A[b], iters=iters)
            assert_same_bits(got[b], one)
            assert_same_bits(one, ns_reference(A[b], iters))

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3), (3, 5), (1, 4), (4, 1), (8, 8), (33, 17)])
    def test_mixed_members(self, shape):
        rng = np.random.default_rng(sum(shape))
        m, n = shape
        A = rng.standard_normal((7, m, n))
        A[1] = 0.0  # a zero member beside non-zero ones
        A[3] = rng.standard_normal((m, 1)) @ rng.standard_normal((1, n))  # rank one
        A[4] *= 1e-150  # tiny
        A[5] = -0.0
        k = np.arange(min(m, n))
        A[6] = 0.0
        A[6, k, k] = rng.standard_normal(k.size)  # diagonal
        self.check_members(A)
        self.check_members(A, iters=1)
        assert_same_bits(linalg.polar_newton_schulz_stack(A)[[1, 5]], np.zeros((2, m, n)))

    def test_frobenius_overflow_or_underflow_member(self):
        # Such members used to come out as zero; the others keep their bits.
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 3, 3))
        A[1] *= 1e200
        A[2] = 0.0
        A[3] = 1e-170 * np.eye(3)
        A[4] *= 1e-150  # tiny, but its sum of squares is a normal number
        got = linalg.polar_newton_schulz_stack(A)
        for b in (0, 2, 4, 5):
            assert_same_bits(got[b], ns_reference(A[b]))
        for b in (1, 3):
            np.testing.assert_allclose(got[b], linalg.polar_exact(A[b]), atol=1e-12)
            assert_same_bits(got[b], linalg.polar_newton_schulz(A[b]))

    def test_all_zero_and_single_member(self):
        self.check_members(np.zeros((3, 4, 2)))
        self.check_members(np.random.default_rng(1).standard_normal((1, 6, 6)))

    def test_strided_and_fortran_input(self):
        A = np.random.default_rng(2).standard_normal((5, 8, 6))
        for view in (A[::2], A[:, ::2, 1:], np.asfortranarray(A), A.mT):
            self.check_members(view)

    def test_diverging_member_raises(self, monkeypatch):
        # From a Frobenius-scaled start every singular value stays in (0, 1],
        # so a lower growth limit stands in for divergence.  One step takes
        # the identity's X to 0.6875 I (Frobenius norm 1.375) and a rank-one
        # member's to itself (norm 1): the limit 0.6 * sqrt(4) lies between.
        monkeypatch.setattr(linalg, "NEWTON_SCHULZ_GROWTH_LIMIT", 0.6)
        rank_one = np.zeros((4, 4))
        rank_one[0, 0] = 3.0
        A = np.stack([rank_one, np.eye(4)])
        np.testing.assert_array_equal(linalg.polar_newton_schulz(rank_one), rank_one / 3.0)
        for call in (lambda: linalg.polar_newton_schulz(A[1]),
                     lambda: linalg.polar_newton_schulz_stack(A),
                     lambda: ns_reference(A[1])):
            with pytest.raises(linalg.NumericalError, match="Newton-Schulz iteration diverged"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member(self, bad):
        A = np.random.default_rng(3).standard_normal((4, 3, 3))
        A[2, 1, 0] = bad
        with pytest.raises(ValueError) as ref:
            linalg.polar_newton_schulz(A[2])
        with pytest.raises(ValueError) as got:
            linalg.polar_newton_schulz_stack(A)
        assert str(got.value) == str(ref.value) == "matrix entries must be finite"

    def test_bad_iters(self):
        A = np.stack([np.eye(2), np.zeros((2, 2))])
        for iters in (0, -1):
            with pytest.raises(ValueError, match="iters must be >= 1"):
                linalg.polar_newton_schulz_stack(A, iters=iters)
            with pytest.raises(ValueError, match="iters must be >= 1"):
                linalg.polar_newton_schulz(A[1], iters=iters)

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError, match="stack"):
            linalg.polar_newton_schulz_stack(np.eye(2))
        with pytest.raises(ValueError, match="dimensions must be positive"):
            linalg.polar_newton_schulz_stack(np.ones((2, 0, 3)))


class TestNorm:
    def test_matrix_examples(self):
        A = np.diag([3.0, -4.0])
        assert linalg.norm(A, "op") == 4.0
        assert linalg.norm(A, "nuc") == 7.0
        assert linalg.norm(A, "fro") == 5.0
        I3 = np.eye(3)
        assert linalg.norm(I3, "nuc") == 3.0
        assert linalg.norm(I3, "op") == 1.0
        assert abs(linalg.norm(I3, "fro") - np.sqrt(3)) < 1e-15

    def test_vector_examples(self):
        v = np.array([2.0, 0.0, -1.0])
        assert linalg.norm(v, "l1") == 3.0
        assert linalg.norm(v, "linf") == 2.0
        assert abs(linalg.norm(v, "l2") - np.sqrt(5)) < 1e-15
        assert abs(linalg.norm(v, "lp", p=3) - (8 + 1) ** (1 / 3)) < 1e-12

    def test_lp_rejects_small_p(self):
        with pytest.raises(ValueError):
            linalg.norm(np.ones(3), "lp", p=0.5)
        with pytest.raises(ValueError):
            linalg.norm(np.ones(3), "badkind")

    def test_norm_equivalences(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = rand_matrix(rng)
            fro = linalg.norm(A, "fro")
            op = linalg.norm(A, "op")
            nuc = linalg.norm(A, "nuc")
            tol = 1e-12
            assert fro / np.sqrt(min(A.shape)) <= op + tol
            assert op <= fro + tol
            assert fro <= nuc + tol

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["op", "nuc"])
    def test_matrix_norms_reject_non_finite(self, kind, bad):
        # A diagonal NaN used to give a NaN norm, and a NaN off the diagonal
        # numpy's bare LinAlgError.
        for A in (np.diag([1.0, bad]), np.array([[1.0, bad], [0.0, 2.0]])):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                linalg.norm(A, kind)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["l1", "l2", "linf", "lp"])
    def test_vector_norms_reject_non_finite(self, kind, bad):
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            linalg.norm(np.array([1.0, bad, 2.0]), kind, p=3.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_finite_input_keeps_inf(self):
        # Only a non-finite entry raises; a norm that overflows is inf.
        big = np.finfo(float).max
        assert linalg.norm(np.diag([big, big]), "nuc") == math.inf
        assert linalg.norm(np.array([big, big]), "l1") == math.inf
        assert linalg.norm(np.array([big, big]), "l2") == math.inf
        assert linalg.norm(np.diag([big, big]), "op") == big

    def test_vector_norm_accepts_row_or_column(self):
        assert linalg.norm(np.array([[2.0], [0.0], [-1.0]]), "l1") == 3.0
        assert linalg.norm(np.array([[2.0, 0.0, -1.0]]), "linf") == 2.0


def layouts(rng):
    """The same kinds of values in every memory layout the kernels may see."""
    A = rng.standard_normal((6, 9)) * np.logspace(-8, 8, 9)
    return {
        "c-order": A,
        "fortran": np.asfortranarray(A),
        "transposed": A.T,
        "strided": A[::2, ::3],
        "vector": A[1],
        "strided-vector": A[:, 2],
    }


class TestFastKernels:
    """The cheap finiteness, diagonal and Frobenius kernels keep numpy's answers."""

    def test_fro_bit_equal_to_numpy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            for name, X in layouts(rng).items():
                assert linalg.norm(X, "fro") == float(np.linalg.norm(X)), name
                if X.ndim == 1:
                    assert linalg.norm(X, "l2") == float(np.linalg.norm(X)), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(0, 0), (1, 1), (0, 1), (1, 0)])
    def test_as_matrix_rejects_non_finite(self, bad, pos):
        A = np.eye(2)
        A[pos] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            linalg.as_matrix(A)

    def test_as_matrix_accepts_largest_finite_entries(self):
        # A sum- or dot-based finiteness shortcut would overflow to inf here.
        A = np.array([[1e308, 1e308], [-1e308, 1e308]])
        np.testing.assert_array_equal(linalg.as_matrix(A), A)
        np.testing.assert_array_equal(linalg.as_matrix(np.full((3, 2), 1e308)), 1e308)

    def test_all_finite_matches_numpy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            A = rng.standard_normal((5, 7))
            for _ in range(int(rng.integers(0, 3))):
                A[rng.integers(0, 5), rng.integers(0, 7)] = rng.choice([np.nan, np.inf, -np.inf])
            for X in (A, A.T, A[::2, ::3], np.asfortranarray(A)):
                assert linalg._all_finite(X) == bool(np.all(np.isfinite(X)))

    def test_offdiag_is_zero_matches_reference(self):
        def reference(A):
            D = np.zeros(A.shape)
            k = min(A.shape)
            D[:k, :k] = np.diag(np.diagonal(A))
            return np.array_equal(A, D)

        rng = np.random.default_rng(10)
        cases = []
        for m, n in ((2, 2), (2, 5), (5, 2), (4, 4)):
            D = np.zeros((m, n))
            k = min(m, n)
            D[np.arange(k), np.arange(k)] = rng.standard_normal(k)
            cases.append(D)
            E = D.copy()
            E[m - 1, 0] = 1.0
            cases.append(E)
            cases.append(rng.standard_normal((m, n)))
        big = np.zeros((8, 12))
        big[::2, ::3][np.arange(4), np.arange(4)] = rng.standard_normal(4)
        cases += [big, big[::2, ::3], big.T[::3, ::2], np.asfortranarray(big)]
        for A in cases + [A.T for A in cases]:
            assert linalg._offdiag_is_zero(A) == reference(A)
