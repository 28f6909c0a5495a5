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


class TestSign:
    def test_examples(self):
        np.testing.assert_array_equal(
            linalg.sign_elementwise(np.diag([2.0, -3.0])), np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(linalg.sign_elementwise(np.zeros((2, 2))), np.zeros((2, 2)))
        np.testing.assert_array_equal(
            linalg.sign_elementwise(np.array([[0.5, -0.5], [0.0, 7.0]])),
            np.array([[1.0, -1.0], [0.0, 1.0]]))


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
