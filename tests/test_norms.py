import math

import numpy as np
import pytest

from muonlab import linalg, norms


def product_spec():
    return norms.ProductNormSpec(layer_dims=((2, 2),), s=1.0, k=1)


class TestParamPoint:
    def test_arithmetic(self):
        a = norms.ParamPoint([np.eye(2)], np.array([1.0, 2.0]))
        b = norms.ParamPoint([2 * np.eye(2)], np.array([0.0, 1.0]))
        s = a + b
        np.testing.assert_array_equal(s.matrices[0], 3 * np.eye(2))
        np.testing.assert_array_equal((a - b).theta, [1.0, 1.0])
        np.testing.assert_array_equal((2.0 * a).matrices[0], 2 * np.eye(2))
        np.testing.assert_array_equal((-a).theta, [-1.0, -2.0])
        assert abs(a.fro() - math.sqrt(2 + 5)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            norms.ParamPoint([np.eye(2)], np.array([[1.0]]))
        with pytest.raises(ValueError):
            norms.ProductNormSpec(layer_dims=(), s=1.0, k=1)
        with pytest.raises(ValueError):
            norms.ProductNormSpec(layer_dims=((2, 2),), s=0.0, k=1)
        with pytest.raises(ValueError):
            norms.Lp(0.5)


class TestDualNorm:
    def test_operator_dual_is_nuclear(self):
        assert norms.dual_norm(np.diag([3.0, -4.0]), norms.OperatorNorm()) == 7.0

    def test_linf_dual_is_l1(self):
        assert norms.dual_norm(np.array([2.0, 0.0, -1.0]), norms.Linf()) == 3.0

    def test_product_closed_form(self):
        W = norms.ParamPoint([np.diag([3.0, -4.0])], np.array([2.0]))
        got = norms.dual_norm(W, product_spec())
        assert abs(got - math.sqrt(28.5)) < 1e-12

    def test_product_vs_sampled_maximization(self):
        # the dual norm upper-bounds the pairing over sampled unit-ball points
        # and the LMO attains it
        rng = np.random.default_rng(5)
        spec = product_spec()
        W = norms.ParamPoint([rng.standard_normal((2, 2))], rng.standard_normal(1))
        dn = norms.dual_norm(W, spec)
        best = 0.0
        for _ in range(2000):
            X = norms.ParamPoint([rng.standard_normal((2, 2))], rng.standard_normal(1))
            X = (1.0 / norms.primal_norm(X, spec)) * X
            best = max(best, norms.inner(W, X))
        assert best <= dn + 1e-10
        assert abs(norms.inner(W, norms.lmo_min(W, spec)) - dn) < 1e-10

    def test_lp_dual_is_conjugate(self):
        w = np.array([1.0, -2.0, 3.0])
        got = norms.dual_norm(w, norms.Lp(3.0))
        assert abs(got - linalg.norm(w, "lp", p=1.5)) < 1e-14


class TestLmoMin:
    def test_operator_is_polar(self):
        W = np.diag([3.0, -4.0, 0.0])
        np.testing.assert_array_equal(
            norms.lmo_min(W, norms.OperatorNorm()), np.diag([1.0, -1.0, 0.0]))

    def test_linf_sign_with_zero(self):
        w = np.array([2.0, 0.0, -1.0])
        got = norms.lmo_min(w, norms.Linf())
        np.testing.assert_array_equal(got, [1.0, 0.0, -1.0])
        # brute force over sign patterns with zero allowed per coordinate
        best_val, best_fro = -np.inf, np.inf
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                for c in (-1, 0, 1):
                    x = np.array([a, b, c], float)
                    v = float(x @ w)
                    if v > best_val + 1e-12:
                        best_val, best_fro = v, np.linalg.norm(x)
                    elif abs(v - best_val) <= 1e-12:
                        best_fro = min(best_fro, np.linalg.norm(x))
        assert abs(float(got @ w) - best_val) < 1e-12
        assert np.linalg.norm(got) <= best_fro + 1e-12

    def test_l2_normalized(self):
        w = np.array([3.0, 4.0])
        np.testing.assert_allclose(norms.lmo_min(w, norms.L2()), [0.6, 0.8])

    def test_l1_tie_centroid(self):
        got = norms.lmo_min(np.array([2.0, -2.0, 1.0]), norms.L1())
        np.testing.assert_allclose(got, [0.5, -0.5, 0.0])

    def test_zero_input_maps_to_zero(self):
        assert np.all(norms.lmo_min(np.zeros(3), norms.Linf()) == 0)
        assert np.all(norms.lmo_min(np.zeros((2, 2)), norms.NuclearNorm()) == 0)
        Z = norms.ParamPoint([np.zeros((2, 2))], np.zeros(1))
        got = norms.lmo_min(Z, product_spec())
        assert got.fro() == 0.0

    def test_product_zero_block_stays_zero(self):
        spec = norms.ProductNormSpec(layer_dims=((2, 2), (2, 3)), s=1.0, k=2)
        W = norms.ParamPoint([np.zeros((2, 2)), np.eye(2, 3)], np.array([1.0, 0.0]))
        got = norms.lmo_min(W, spec)
        assert np.all(got.matrices[0] == 0)
        assert got.theta[1] == 0.0

    def test_nuclear_tie_centroid(self):
        # equal singular values: least-norm maximizer averages the dyads
        got = norms.lmo_min(np.eye(2), norms.NuclearNorm())
        np.testing.assert_allclose(got, np.eye(2) / 2, atol=1e-12)


class TestCompressorConstants:
    def test_table(self):
        assert norms.compressor_constants(norms.OperatorNorm(), (4, 7)).delta == 0.25
        assert norms.compressor_constants(norms.L2(), 5).delta == 1.0
        cc = norms.compressor_constants(norms.Linf(), 9)
        assert cc.alpha == 1.0 / 3.0 and cc.delta == 1.0 / 9.0
        assert norms.compressor_constants(norms.L1(), 4).delta == 0.25
        assert norms.compressor_constants(norms.NuclearNorm(), (3, 5)).delta == 1.0 / 3.0
        cc = norms.compressor_constants(norms.Lp(3.0), 8)
        assert abs(cc.alpha - 8 ** (1 / 3 - 0.5)) < 1e-15
        assert abs(cc.delta - 8 ** (-2 * abs(1 / 3 - 0.5))) < 1e-15

    def test_product_alpha_and_empirical_beta(self):
        spec = norms.ProductNormSpec(layer_dims=((3, 4), (2, 2)), s=1.5, k=3)
        cc = norms.compressor_constants(spec)
        assert abs(cc.alpha - min(1.0, 1.0 / math.sqrt(1.5 * 2))) < 1e-15
        assert cc.empirical_beta is not None
        # analytic supremum of ||.|| / ||.||_F is sqrt(max(max_l d_l/s, k))
        sup = math.sqrt(max(max(min(m, n) / spec.s for m, n in spec.layer_dims), spec.k))
        assert cc.empirical_beta <= sup + 1e-12
        assert cc.empirical_beta >= sup - 1e-9
        assert 0 < cc.delta <= 1.0


class TestCompress:
    def test_operator_hand_example(self):
        W = np.diag([3.0, -4.0])
        C = norms.compress(W, norms.OperatorNorm())
        np.testing.assert_allclose(C, np.diag([3.5, -3.5]))
        assert abs(np.linalg.norm(W - C) ** 2 - 0.5) < 1e-12
        assert np.linalg.norm(W - C) ** 2 <= (1 - 0.5) * 25 + 1e-12

    def test_l2_is_identity(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal(7)
        np.testing.assert_allclose(norms.compress(w, norms.L2()), w, atol=1e-14)

    def test_product_closed_form_single_layer(self):
        # L=1, s=1: matrix block of C(W) is min{s,1/L} * (y/sqrt(d)) * polar(W)
        rng = np.random.default_rng(7)
        spec = product_spec()
        W = norms.ParamPoint([rng.standard_normal((2, 2))], rng.standard_normal(1))
        C = norms.compress(W, spec)
        y = linalg.norm(W.matrices[0], "nuc") / math.sqrt(2)
        expected = (y / math.sqrt(2)) * linalg.polar_exact(W.matrices[0])
        np.testing.assert_allclose(C.matrices[0], expected, atol=1e-12)
        exp_theta = (np.abs(W.theta).sum() / spec.k) * np.sign(W.theta)
        np.testing.assert_allclose(C.theta, exp_theta, atol=1e-12)

    def test_compress_zero(self):
        assert np.all(norms.compress(np.zeros((2, 3)), norms.OperatorNorm()) == 0)


class TestProductNormAxioms:
    def test_axioms_sampled(self):
        rng = np.random.default_rng(8)
        spec = norms.ProductNormSpec(layer_dims=((2, 3), (3, 2)), s=2.0, k=2)
        sample = lambda: norms.ParamPoint(
            [rng.standard_normal(d) for d in spec.layer_dims], rng.standard_normal(2))
        for _ in range(100):
            A, B = sample(), sample()
            na, nb = norms.primal_norm(A, spec), norms.primal_norm(B, spec)
            assert norms.primal_norm(A + B, spec) <= na + nb + 1e-12
            c = float(rng.standard_normal())
            assert abs(norms.primal_norm(c * A, spec) - abs(c) * na) < 1e-12
            assert na > 0
        Z = norms.ParamPoint([np.zeros(d) for d in spec.layer_dims], np.zeros(2))
        assert norms.primal_norm(Z, spec) == 0.0


class TestFastKernels:
    def test_fro_bit_equal_to_numpy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.standard_normal((6, 9)) * np.logspace(-8, 8, 9)
            for X in (A, np.asfortranarray(A), A.T, A[::2, ::3], A[1], A[:, 2]):
                assert norms.fro(X) == float(np.linalg.norm(X))
                assert norms.fro(X) == linalg.norm(X, "fro")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_param_point_rejects_non_finite_theta(self, bad):
        with pytest.raises(ValueError, match="theta entries must be finite"):
            norms.ParamPoint([np.eye(2)], np.array([1.0, bad]))

    def test_param_point_accepts_largest_finite_theta(self):
        p = norms.ParamPoint([np.eye(2)], np.array([1e308, -1e308]))
        np.testing.assert_array_equal(p.theta, [1e308, -1e308])
