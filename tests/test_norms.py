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

    @pytest.mark.parametrize("other", [
        norms.ParamPoint([np.eye(2), np.eye(2)], np.array([1.0, 2.0])),  # two layers
        norms.ParamPoint([np.ones((1, 2))], np.array([1.0, 2.0])),  # a (1, 2) layer
        norms.ParamPoint([np.eye(2)], np.array([1.0]))],  # a theta of length 1
        ids=["layer-count", "layer-shape", "theta-length"])
    def test_arithmetic_refuses_mismatched_points(self, other):
        # Each used to give a result: zip dropped the second layer, and the
        # (1, 2) layer and the length-1 theta broadcast (inner of the layer
        # pair read 4.0).
        a = norms.ParamPoint([np.eye(2)], np.array([1.0, 2.0]))
        for x, y in ((a, other), (other, a)):
            for op in (lambda: x + y, lambda: x - y, lambda: norms.inner(x, y)):
                with pytest.raises(ValueError, match="^ParamPoint shapes do not match"):
                    op()

    def test_validation(self):
        with pytest.raises(ValueError):
            norms.ParamPoint([np.eye(2)], np.array([[1.0]]))
        with pytest.raises(ValueError):
            norms.ProductNormSpec(layer_dims=(), s=1.0, k=1)
        with pytest.raises(ValueError):
            norms.ProductNormSpec(layer_dims=((2, 2),), s=0.0, k=1)
        with pytest.raises(ValueError):
            norms.Lp(0.5)


class TestSpecValidation:
    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan, 0.5, 0.0,
                                   True, False, "2", None, 2j])
    def test_lp_requires_finite_p_at_least_one(self, p):
        # Lp(inf) used to be accepted and give NaN duals, LMOs and compressions;
        # Lp(True) was taken for L1, and Lp("2") raised a bare TypeError.
        with pytest.raises(ValueError, match="finite p >= 1"):
            norms.Lp(p)

    def test_lp_one_is_l1(self):
        w = np.array([2.0, -2.0, 1.0])
        assert norms.dual_norm(w, norms.Lp(1.0)) == norms.dual_norm(w, norms.L1())
        np.testing.assert_array_equal(norms.lmo_min(w, norms.Lp(1.0)), norms.lmo_min(w, norms.L1()))

    @pytest.mark.parametrize("s", [math.inf, math.nan, 0.0, -1.0, True, "1.5", None])
    def test_product_requires_finite_positive_s(self, s):
        # s = inf used to be accepted, with alpha = delta = 0.0.
        with pytest.raises(ValueError, match="scale s"):
            norms.ProductNormSpec(layer_dims=((2, 2),), s=s, k=1)

    @pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, True, "2", None])
    def test_product_requires_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            norms.ProductNormSpec(layer_dims=((2, 2),), s=1.0, k=k)

    @pytest.mark.parametrize("dims", [(2.5, 2), (2, True), ("3", 2), (0, 2), (2, None)])
    def test_product_requires_integer_layer_dims(self, dims):
        # 2.5 used to become 2, True 1, and "3" was accepted.
        with pytest.raises(ValueError, match="layer dimension must be a positive integer"):
            norms.ProductNormSpec(layer_dims=((2, 2), dims), s=1.0, k=1)

    @pytest.mark.parametrize("layer_dims", [5, None, ((2, 2, 2),), ((2,),), ((2, 2), 3)])
    def test_product_requires_layer_dim_pairs(self, layer_dims):
        # 5 raised TypeError and (2, 2, 2) "too many values to unpack".
        with pytest.raises(ValueError, match="^layer_dims must be a sequence of \\(m, n\\) pairs"):
            norms.ProductNormSpec(layer_dims=layer_dims, s=1.0, k=1)

    def test_product_normalises_s_and_k(self):
        spec = norms.ProductNormSpec(layer_dims=((2, 2),), s=2, k=np.int64(3))
        assert type(spec.s) is float and spec.s == 2.0
        assert type(spec.k) is int and spec.k == 3
        assert spec == norms.ProductNormSpec(layer_dims=((2, 2),), s=2.0, k=3)


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
        assert abs(got - np.linalg.norm(w, 1.5)) < 1e-14


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

    @pytest.mark.parametrize("spec", [norms.L1(), norms.Linf(), norms.Lp(3.0)])
    @pytest.mark.parametrize("d", [0, -1, 2.5, True, "4"])
    def test_vector_dims_must_be_a_positive_integer(self, spec, d):
        # 0 used to raise ZeroDivisionError, and 2.5 became 2.
        with pytest.raises(ValueError, match="dimension d must be a positive integer"):
            norms.compressor_constants(spec, d)

    @pytest.mark.parametrize("spec", [norms.OperatorNorm(), norms.NuclearNorm()])
    @pytest.mark.parametrize("dims", [(0, 3), (2.5, 3), (3, True)])
    def test_matrix_dims_must_be_positive_integers(self, spec, dims):
        with pytest.raises(ValueError, match="matrix dimension must be a positive integer"):
            norms.compressor_constants(spec, dims)

    @pytest.mark.parametrize("spec", [norms.OperatorNorm(), norms.NuclearNorm()])
    @pytest.mark.parametrize("dims", [None, 3, (2, 3, 4)])
    def test_matrix_specs_need_a_shape_pair(self, spec, dims):
        # None and 3 used to raise a bare TypeError from the unpacking.
        with pytest.raises(ValueError, match=r"matrix specs need the shape \(m, n\)"):
            norms.compressor_constants(spec, dims)

    def test_compress_refuses_an_empty_vector(self):
        # It used to raise ZeroDivisionError.
        with pytest.raises(ValueError, match="dimension d must be a positive integer"):
            norms.compress(np.array([]), norms.L1())

    def test_product_alpha_and_closed_form_delta(self):
        spec = norms.ProductNormSpec(layer_dims=((3, 4), (2, 2)), s=1.5, k=3)
        cc = norms.compressor_constants(spec)
        alpha = min(1.0, 1.0 / math.sqrt(1.5 * 2))
        assert cc.alpha == alpha
        # beta = sup ||W|| / ||W||_F = sqrt(max(max_l d_l/s, k)) = sqrt(3)
        beta = math.sqrt(max(max(min(m, n) / spec.s for m, n in spec.layer_dims), spec.k))
        assert cc.delta == min(1.0, alpha**2 / beta**2)
        assert 0 < cc.delta <= 1.0
        # the supremum bounds sampled ratios and a single theta coordinate attains it
        rng = np.random.default_rng(11)
        for _ in range(200):
            W = norms.ParamPoint([rng.standard_normal(d) for d in spec.layer_dims],
                                 rng.standard_normal(spec.k))
            assert norms.primal_norm(W, spec) <= beta * W.fro() * (1 + 1e-12)
        e = norms.ParamPoint([np.zeros(d) for d in spec.layer_dims], np.array([1.0, 0.0, 0.0]))
        assert abs(norms.primal_norm(e, spec) - beta) <= 1e-15

    def test_product_delta_from_the_layer_term(self):
        # max_l d_l / s = 4 / 0.5 = 8 beats k = 2: a rank-one block on layer 1 attains it
        spec = norms.ProductNormSpec(layer_dims=((2, 3), (4, 5)), s=0.5, k=2)
        alpha = min(1.0, 1.0 / math.sqrt(0.5 * 2))
        assert norms.compressor_constants(spec).delta == min(1.0, alpha**2 / math.sqrt(8.0)**2)
        mats = [np.zeros(d) for d in spec.layer_dims]
        mats[1][0, 0] = 1.0
        e = norms.ParamPoint(mats, np.zeros(2))
        assert abs(norms.primal_norm(e, spec) - math.sqrt(8.0)) <= 1e-15


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
        y = np.linalg.norm(W.matrices[0], "nuc") / math.sqrt(2)
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
            for X in (A, A[1]):  # not an ndarray: coerced, then the same kernel
                assert norms.fro(X.tolist()) == float(np.linalg.norm(X))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_param_point_rejects_non_finite_theta(self, bad):
        with pytest.raises(ValueError, match="theta entries must be finite"):
            norms.ParamPoint([np.eye(2)], np.array([1.0, bad]))

    def test_param_point_accepts_largest_finite_theta(self):
        p = norms.ParamPoint([np.eye(2)], np.array([1e308, -1e308]))
        np.testing.assert_array_equal(p.theta, [1e308, -1e308])


# ---------------------------------------------------------------------------
# Stack kernels.  The reference below is the per-call implementation the stack
# kernels replaced, kept here so both forms are checked against it bit for bit.
# Its vector norms are numpy's; its operator and nuclear norms are the linalg
# stack kernels, which test_linalg pins by digest and checks against numpy
# (whose SVD-based norms differ from them in the last bits).


def ref_vector_norm(v, spec):
    """The norm of a vector spec, as ``np.linalg.norm`` of its order.  Numpy
    takes sqrt(v . v) for order 2, which rounds otherwise than Lp's sum of
    |v_i|^p; Lp(2) is that sum written out."""
    if isinstance(spec, norms.Lp) and spec.p == 2.0:
        return float(np.sum(np.abs(v) ** 2.0)) ** 0.5
    order = spec.p if isinstance(spec, norms.Lp) else {
        norms.L1: 1, norms.L2: 2, norms.Linf: np.inf}[type(spec)]
    return float(np.linalg.norm(v, order))


def ref_matrix_norm(M, spec):
    kernel = {norms.OperatorNorm: linalg.op_norm_stack,
              norms.NuclearNorm: linalg.nuclear_norm_stack}[type(spec)]
    return float(kernel(np.asarray(M)[None])[0])


def _ref_nuclear_ball(W):
    # The rank cut at SVD_TRUNCATION_RTOL never drops a singular value within
    # TIE_RTOL of the largest, so the top dyads come from the plain SVD.
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    if s[0] == 0.0:
        return 0.0, np.zeros_like(W)
    top = np.nonzero(s >= s[0] * (1.0 - norms.TIE_RTOL))[0]
    return float(s[0]), (U[:, top] @ Vt[top]) / len(top)


def _ref_product_dual_and_lmo(W, spec):
    parts = [linalg.polar_and_nuclear(M) for M in W.matrices]
    y = sum(nuc / math.sqrt(d) for (_, nuc), d in zip(parts, spec.d))
    l1 = float(np.linalg.norm(W.theta, 1))
    dn = math.sqrt(spec.s * y**2 + l1**2 / spec.k)
    if dn == 0.0:
        return dn, W.zeros_like()
    mats = [(spec.s * y / (math.sqrt(d) * dn)) * P for (P, _), d in zip(parts, spec.d)]
    return dn, norms.ParamPoint(mats, (l1 / (spec.k * dn)) * np.sign(W.theta))


def ref_primal(W, spec):
    if isinstance(spec, norms.ProductNormSpec):
        block = max(math.sqrt(d / spec.s) * ref_matrix_norm(M, norms.OperatorNorm())
                    for M, d in zip(W.matrices, spec.d))
        return math.sqrt(block**2 + spec.k * float(np.linalg.norm(W.theta, np.inf))**2)
    if isinstance(spec, (norms.OperatorNorm, norms.NuclearNorm)):
        return ref_matrix_norm(W, spec)
    return ref_vector_norm(W, spec)


def ref_dual(W, spec):
    if isinstance(spec, norms.ProductNormSpec):
        y = sum(ref_matrix_norm(M, norms.NuclearNorm()) / math.sqrt(d)
                for M, d in zip(W.matrices, spec.d))
        return math.sqrt(spec.s * y**2 + float(np.linalg.norm(W.theta, 1))**2 / spec.k)
    if isinstance(spec, norms.Lp):
        dual = norms.Linf() if spec.p == 1.0 else norms.Lp(spec.p / (spec.p - 1.0))
    else:
        dual = {norms.L1: norms.Linf, norms.L2: norms.L2, norms.Linf: norms.L1,
                norms.OperatorNorm: norms.NuclearNorm,
                norms.NuclearNorm: norms.OperatorNorm}[type(spec)]()
    return ref_primal(W, dual)


def _ref_lmo_l1(w):
    out = np.zeros_like(w)
    amax = np.abs(w).max() if w.size else 0.0
    if amax == 0.0:
        return out
    idx = np.nonzero(np.abs(w) >= amax * (1.0 - norms.TIE_RTOL))[0]
    out[idx] = np.sign(w[idx]) / len(idx)
    return out


def ref_lmo(W, spec):
    if isinstance(spec, norms.ProductNormSpec):
        return _ref_product_dual_and_lmo(W, spec)[1]
    if isinstance(spec, norms.OperatorNorm):
        return linalg.polar_exact(W)
    if isinstance(spec, norms.NuclearNorm):
        return _ref_nuclear_ball(linalg.as_matrix(W))[1]
    w = linalg._as_vector(W)
    if isinstance(spec, norms.L1) or isinstance(spec, norms.Lp) and spec.p == 1.0:
        return _ref_lmo_l1(w)
    if isinstance(spec, norms.L2):
        n = np.linalg.norm(w)
        return w / n if n > 0 else np.zeros_like(w)
    if isinstance(spec, norms.Linf):
        return np.sign(w)
    q = spec.p / (spec.p - 1.0)
    nq = ref_vector_norm(w, norms.Lp(q))
    out = np.zeros_like(w)
    if nq != 0.0:
        nz = w != 0.0
        out[nz] = np.sign(w[nz]) * (np.abs(w[nz]) / nq) ** (q - 1.0)
    return out


def ref_dual_and_lmo(W, spec):
    if isinstance(spec, norms.OperatorNorm):
        X, nuc = linalg.polar_and_nuclear(W)
        return nuc, X
    if isinstance(spec, norms.NuclearNorm):
        return _ref_nuclear_ball(linalg.as_matrix(W))
    if isinstance(spec, norms.ProductNormSpec):
        return _ref_product_dual_and_lmo(W, spec)
    return ref_dual(W, spec), ref_lmo(W, spec)


def ref_compress(W, spec):
    if isinstance(spec, norms.ProductNormSpec):
        alpha = min(1.0, 1.0 / math.sqrt(spec.s * spec.num_layers))
    elif isinstance(spec, (norms.OperatorNorm, norms.NuclearNorm)):
        alpha = norms.compressor_constants(spec, np.shape(W)).alpha
    else:
        alpha = norms.compressor_constants(spec, linalg._as_vector(W).size).alpha
    dn, X = ref_dual_and_lmo(W, spec)
    if dn == 0.0:
        return norms.zeros_like(X)
    return (alpha**2 * dn) * X


REFERENCE = {"primal_norm": ref_primal, "dual_norm": ref_dual, "lmo_min": ref_lmo,
             "compress": ref_compress}


def _blocks(x):
    """The arrays of a per-call result, as a list."""
    if isinstance(x, norms.ParamPoint):
        return [*x.matrices, x.theta]
    return [np.asarray(x)]


def assert_bits(got, want):
    got, want = _blocks(got), _blocks(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()  # -0.0 and NaN payloads included


VECTOR_SPECS = [norms.L1(), norms.L2(), norms.Linf(), norms.Lp(1.0), norms.Lp(1.5),
                norms.Lp(2.0), norms.Lp(3.0)]
MATRIX_SPECS = [norms.OperatorNorm(), norms.NuclearNorm()]
PRODUCT_SPECS = [norms.ProductNormSpec(layer_dims=((3, 4), (2, 2)), s=1.5, k=3),
                 norms.ProductNormSpec(layer_dims=((5, 3), (1, 4), (2, 6)), s=0.7, k=2)]


def vector_groups(rng):
    """Stacks of several lengths with ties, near-ties, zeros, -0.0, tiny,
    huge and one-hot members.  Non-finite members raise
    (test_non_finite_vector_member)."""
    for d in (1, 2, 5, 8, 9, 20):
        members = [rng.standard_normal(d) for _ in range(6)]
        members += [np.zeros(d), np.full(d, -0.0), rng.integers(-2, 3, d).astype(float),
                    rng.standard_normal(d) * 1e-300]
        tie = rng.standard_normal(d)
        tie[: (d + 1) // 2] = -1.5
        near = rng.standard_normal(d)
        near[0], near[-1] = 3.0, -3.0 * (1 - 1e-13)  # a tie within TIE_RTOL
        members += [tie, near]
        one_hot = np.zeros(d)
        one_hot[d // 2] = -2.5
        # Finite entries whose squares overflow, at two scales.
        members += [one_hot, rng.standard_normal(d) * 1e200, rng.standard_normal(d) * 1e160]
        yield np.stack(members)


def matrix_groups(rng):
    """Stacks of several shapes with diagonal, zero, rank-deficient and tied members."""
    for m, n in ((1, 3), (2, 2), (3, 2), (4, 4), (5, 7), (7, 3)):
        r = min(m, n)
        members = [rng.standard_normal((m, n)) for _ in range(5)]
        D = np.zeros((m, n))
        D[np.arange(r), np.arange(r)] = rng.standard_normal(r)
        members += [np.zeros((m, n)), D, np.round(rng.standard_normal((m, n)))]
        members.append(rng.standard_normal((m, 1)) @ rng.standard_normal((1, n)))
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        members.append(Q @ np.eye(m, n))  # all singular values tie
        members.append(-members[0])
        yield np.stack(members)


def product_stack(rng, spec, B=12):
    mats = [rng.standard_normal((B, m, n)) for m, n in spec.layer_dims]
    theta = rng.standard_normal((B, spec.k))
    for M in mats:
        M[0] = 0.0
    theta[0] = 0.0  # the zero point
    mats[0][1] = 0.0  # a zero block
    theta[2] = 1.0  # tied theta entries
    mats[-1][3] = np.eye(*spec.layer_dims[-1])  # a diagonal block
    return mats, theta


def member(W, spec, b):
    if isinstance(spec, norms.ProductNormSpec):
        return norms.ParamPoint([M[b] for M in W[0]], W[1][b])
    return W[b]


def stack_member(X, b):
    if isinstance(X, tuple):
        return norms.ParamPoint([M[b] for M in X[0]], X[1][b])
    return X[b]


def all_cases():
    rng = np.random.default_rng(2024)
    for spec in VECTOR_SPECS:
        for W in vector_groups(rng):
            yield spec, W
    for spec in MATRIX_SPECS:
        for W in matrix_groups(rng):
            yield spec, W
    for spec in PRODUCT_SPECS:
        yield spec, product_stack(rng, spec)


def size(W):
    return len(W[1]) if isinstance(W, tuple) else len(W)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestStackedNorms:
    """Each stack kernel equals the per-call function member by member, and
    both equal the per-call implementation they replaced, bit for bit."""

    @pytest.mark.parametrize("fname", ["primal_norm", "dual_norm", "lmo_min", "compress"])
    def test_members_match_per_call_and_reference(self, fname):
        checked = 0
        for spec, W in all_cases():
            stacked = getattr(norms, fname + "_stack")(W, spec)
            for b in range(size(W)):
                Wb = member(W, spec, b)
                per_call = getattr(norms, fname)(Wb, spec)
                assert_bits(per_call, REFERENCE[fname](Wb, spec))
                assert_bits(stack_member(stacked, b), per_call)
                checked += 1
        assert checked > 700

    def test_dual_norm_and_lmo_match_reference(self):
        for spec, W in all_cases():
            for b in range(size(W)):
                Wb = member(W, spec, b)
                dn, X = norms.dual_norm_and_lmo(Wb, spec)
                ref_dn, ref_X = ref_dual_and_lmo(Wb, spec)
                assert type(dn) is float
                assert_bits(np.float64(dn), np.float64(ref_dn))
                assert_bits(X, ref_X)

    def test_scalars_are_python_floats(self):
        for spec, W in all_cases():
            Wb = member(W, spec, 0)
            assert type(norms.primal_norm(Wb, spec)) is float
            assert type(norms.dual_norm(Wb, spec)) is float

    @pytest.mark.parametrize("spec", VECTOR_SPECS, ids=repr)
    def test_single_row_and_column_vectors(self, spec):
        w = np.random.default_rng(3).standard_normal(6)
        for shaped in (w[None], w[:, None]):
            for fname in ("primal_norm", "dual_norm", "lmo_min", "compress"):
                assert_bits(getattr(norms, fname)(shaped, spec), getattr(norms, fname)(w, spec))

    def test_strided_vectors(self):
        A = np.random.default_rng(4).standard_normal((7, 9))
        for spec in VECTOR_SPECS:
            for w in (A[:, 2], A[1, ::2]):
                for fname in ("primal_norm", "dual_norm", "lmo_min", "compress"):
                    assert_bits(getattr(norms, fname)(w, spec), REFERENCE[fname](w, spec))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("spec", MATRIX_SPECS, ids=repr)
    @pytest.mark.parametrize("fname", ["primal_norm", "dual_norm", "lmo_min", "compress"])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_non_finite_matrix_member(self, bad, spec, fname, where):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((4, 3, 3))
        W[2][where] = bad
        if where == (1, 1):
            W[2] = np.diag(np.diagonal(W[2]))  # non-finite but diagonal
        try:
            expected = getattr(norms, fname)(W[2], spec)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                getattr(norms, fname + "_stack")(W, spec)
            assert str(got.value) == str(exc)
        else:
            stacked = getattr(norms, fname + "_stack")(W, spec)
            assert_bits(stack_member(stacked, 2), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", VECTOR_SPECS, ids=repr)
    @pytest.mark.parametrize("fname", ["primal_norm", "dual_norm", "lmo_min", "compress"])
    def test_non_finite_vector_member(self, bad, spec, fname):
        # These used to return NaN, or zeros from lmo_min; they now raise
        # the vector specs' error, per call and in a stack alike.
        W = np.random.default_rng(8).standard_normal((4, 5))
        W[2, 3] = bad
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            getattr(norms, fname)(W[2], spec)
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            getattr(norms, fname + "_stack")(W, spec)

    def test_non_finite_product_members(self):
        spec = PRODUCT_SPECS[0]
        mats, theta = product_stack(np.random.default_rng(6), spec)
        mats[1][4, 0, 1] = np.nan
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            norms.lmo_min_stack((mats, theta), spec)
        mats[1][4, 0, 1] = 0.0
        theta[5, 1] = np.inf
        with pytest.raises(ValueError, match="theta entries must be finite"):
            norms.compress_stack((mats, theta), spec)

    def test_rejects_bad_stacks(self):
        spec = PRODUCT_SPECS[0]
        mats, theta = product_stack(np.random.default_rng(7), spec)
        with pytest.raises(ValueError, match="do not match"):
            norms.dual_norm_stack((mats, theta[:, :2]), spec)
        with pytest.raises(ValueError, match="do not match"):
            norms.dual_norm_stack((mats[:1], theta), spec)
        with pytest.raises(ValueError, match="pair"):
            norms.dual_norm_stack(member((mats, theta), spec, 0), spec)
        with pytest.raises(ValueError, match="stack of vectors"):
            norms.lmo_min_stack(np.ones(3), norms.L1())
        with pytest.raises(ValueError, match="stack"):
            norms.lmo_min_stack(np.ones((2, 2)), norms.OperatorNorm())
        with pytest.raises(ValueError, match="2-d array"):
            norms.lmo_min(np.ones(3), norms.OperatorNorm())
        with pytest.raises(ValueError, match="ParamPoint"):
            norms.lmo_min(np.ones(3), spec)

    @pytest.mark.parametrize("fname, y, t", [
        ("dual_norm", "0x1.9afda88a20538p+0", "0x1.58d19a9544c25p-1"),
        ("primal_norm", "0x1.bcf5fff969864p-1", "0x1.e06ae89b2584dp+0")])
    def test_python_float_squares(self, fname, y, t):
        # Values whose norm differs when y**2 is numpy's y * y instead of libm's pow.
        spec = norms.ProductNormSpec(layer_dims=((1, 1),), s=1.5, k=1)
        W = norms.ParamPoint([[[float.fromhex(y)]]], [float.fromhex(t)])
        got = getattr(norms, fname)(W, spec)
        assert got == REFERENCE[fname](W, spec)
        assert getattr(norms, fname + "_stack")(([W.matrices[0][None]], W.theta[None]), spec)[0] == got

    def test_one_svd_for_a_stack(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        W = np.random.default_rng(8).standard_normal((50, 4, 3))
        norms.lmo_min_stack(W, norms.NuclearNorm())
        norms.compress_stack(W, norms.OperatorNorm())
        norms.dual_norm_stack(W, norms.OperatorNorm())
        assert len(calls) == 3


PER_CALL = ["primal_norm", "dual_norm", "lmo_min", "dual_norm_and_lmo", "compress"]
# The stack form each per-call entry is the B = 1 case of.
STACK_FORM = {"primal_norm": norms.primal_norm_stack, "dual_norm": norms.dual_norm_stack,
              "lmo_min": norms.lmo_min_stack, "dual_norm_and_lmo": norms.lmo_min_stack,
              "compress": norms.compress_stack}


def refused_points(spec):
    """ParamPoints the product ``spec`` refuses: non-finite entries set in
    place after construction, and layers or theta of the wrong shape."""
    rng = np.random.default_rng(10)

    def point(dims=spec.layer_dims, k=spec.k):
        return norms.ParamPoint([rng.standard_normal(d) for d in dims], rng.standard_normal(k))

    bad_theta, bad_layer, nan_theta = point(), point(), point()
    bad_theta.theta[0] = np.inf
    bad_layer.matrices[-1][0, 1] = -np.inf
    nan_theta.theta[-1] = np.nan
    swapped = [(n, m) for m, n in spec.layer_dims]
    return [bad_theta, bad_layer, nan_theta, point(dims=swapped), point(k=spec.k + 1),
            point(dims=spec.layer_dims[:1])]


def refused_members(spec):
    """(per-call argument, its one-member stack) pairs that ``spec`` refuses."""
    if isinstance(spec, norms.ProductNormSpec):
        return [(P, ([M[None] for M in P.matrices], P.theta[None])) for P in refused_points(spec)]
    if isinstance(spec, (norms.OperatorNorm, norms.NuclearNorm)):
        nan, inf = np.ones((3, 3)), np.eye(3, 4)
        nan[0, 2], inf[1, 1] = np.nan, np.inf
        members = [np.zeros((0, 3)), np.zeros((3, 0)), nan, inf]
    else:
        nan, inf = np.ones(4), np.ones(4)
        nan[1], inf[3] = np.nan, -np.inf
        members = [nan, inf]
    return [(W, W[None]) for W in members]


def other_kinds(spec):
    """(argument, message) pairs of per-call arguments not of ``spec``'s
    kind; they raise the per-call coercion's error before any stack exists."""
    if isinstance(spec, norms.ProductNormSpec):
        P = refused_points(spec)[0]
        return [(W, "product spec requires a ParamPoint")
                for W in (np.zeros((0, 3)), np.ones((3, 4)), (P.matrices, P.theta))]
    if isinstance(spec, (norms.OperatorNorm, norms.NuclearNorm)):
        return [(W, f"expected a 2-d array, got shape {W.shape}")
                for W in (np.ones(3), np.ones((1, 2, 2)))]
    return [(W, f"expected a vector, got shape {W.shape}")
            for W in (np.zeros((0, 3)), np.zeros((3, 0)), np.ones((2, 2)))]


@pytest.mark.filterwarnings("error")
class TestPerCallValidation:
    """Every per-call entry refuses what its stack form refuses, with the same
    ValueError, because it builds the one-member stack and validates it there."""

    @pytest.mark.parametrize("fname", PER_CALL)
    @pytest.mark.parametrize("spec", VECTOR_SPECS + MATRIX_SPECS + PRODUCT_SPECS, ids=repr)
    def test_refuses_as_its_stack_form(self, spec, fname):
        # At the parent of this test the 0x3 matrix reached the SVD (IndexError
        # for NuclearNorm), a point with theta set to inf in place had primal
        # norm inf, and the LMO of one warned on a division.
        for W, stack in refused_members(spec):
            with pytest.raises(ValueError) as want:
                STACK_FORM[fname](stack, spec)
            with pytest.raises(ValueError) as got:
                getattr(norms, fname)(W, spec)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("fname", PER_CALL)
    @pytest.mark.parametrize("spec", VECTOR_SPECS + MATRIX_SPECS + PRODUCT_SPECS, ids=repr)
    def test_refuses_other_kinds(self, spec, fname):
        for W, message in other_kinds(spec):
            with pytest.raises(ValueError) as got:
                getattr(norms, fname)(W, spec)
            assert str(got.value) == message

    def test_product_messages(self):
        spec = PRODUCT_SPECS[0]
        got = []
        for P in refused_points(spec):
            with pytest.raises(ValueError) as exc:
                norms.compress(P, spec)
            got.append(str(exc.value))
        finite = ["theta", "matrix", "theta"]
        assert got == ([f"{what} entries must be finite" for what in finite]
                       + ["shapes do not match the product spec"] * 3)

    @pytest.mark.parametrize("spec, dual", [
        (norms.L1(), norms.Linf()), (norms.L2(), norms.L2()), (norms.Lp(1.0), norms.Linf()),
        (norms.Lp(1.5), norms.Lp(3.0)),
        (norms.OperatorNorm(), norms.NuclearNorm())], ids=repr)
    def test_duality_table(self, spec, dual):
        assert norms._dual_spec(spec) == dual
        if not isinstance(spec, norms.Lp) or spec.p > 1.0:
            assert norms._dual_spec(dual) == spec
