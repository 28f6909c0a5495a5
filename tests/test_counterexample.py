import math

import numpy as np
import pytest

from muonlab import counterexample as cex
from muonlab import optim


class TestKinkyFunction:
    def test_values(self):
        fn = cex.KinkyFunction(c=0.5)
        assert fn.value(np.zeros((2, 2))) == 0.0
        assert fn.diag_value(1.0, 1.0) == 1.0
        beta = 0.9
        c = (1 - beta) / (2 * (1 + beta))
        fn = cex.KinkyFunction(c=c)
        got = fn.diag_value(1 + math.log(2), 1 - math.log(2))
        assert abs(got - (2 * c + 2 * math.log(2))) < 1e-14

    def test_matrix_matches_diag(self):
        rng = np.random.default_rng(20)
        fn = cex.KinkyFunction(c=0.3, m=3, n=4)
        for _ in range(20):
            W = rng.standard_normal((3, 4))
            assert fn.value(W) == fn.diag_value(W[0, 0], W[1, 1])

    def test_subgradient_examples(self):
        fn = cex.KinkyFunction(c=0.5)
        G = fn.subgradient(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(np.diagonal(G), [1.5, -0.5])
        assert np.all(fn.subgradient(np.zeros((2, 2))) == 0)

    def test_subgradient_structure_and_norm(self):
        rng = np.random.default_rng(21)
        fn = cex.KinkyFunction(c=0.7, m=3, n=3)
        bound = cex.lipschitz_bound(0.7)
        for _ in range(50):
            W = rng.standard_normal((3, 3))
            G = fn.subgradient(W)
            off = G.copy()
            off[0, 0] = off[1, 1] = 0.0
            assert np.all(off == 0)
            assert np.linalg.norm(G) <= bound + 1e-12 <= 2 + 1e-12

    def test_kink_selections(self):
        fn = cex.KinkyFunction(c=0.5)
        w = np.array([1.0, 1.0])  # on the |w1 - w2| kink
        g0 = fn.diag_subgradient(w, "zero")
        gp = fn.diag_subgradient(w, "plus")
        gm = fn.diag_subgradient(w, "minus")
        np.testing.assert_allclose(g0, [0.5, 0.5])
        np.testing.assert_allclose(gp, [1.5, -0.5])
        np.testing.assert_allclose(gm, [-0.5, 1.5])
        with pytest.raises(ValueError):
            fn.diag_subgradient(w, "bogus")

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(22)
        fn = cex.KinkyFunction(c=0.4)
        for _ in range(20):
            W = rng.standard_normal((2, 2))
            G = fn.subgradient(W)
            fW = fn.value(W)
            for _ in range(50):
                V = 3 * rng.standard_normal((2, 2))
                assert fn.value(V) >= fW + np.sum(G * (V - W)) - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            cex.KinkyFunction(c=0.0)
        with pytest.raises(ValueError):
            cex.KinkyFunction(c=0.5, m=1)
        with pytest.raises(ValueError):
            cex.lipschitz_bound(1.5)

    def test_lipschitz_values(self):
        assert abs(cex.lipschitz_bound(0.5) - math.sqrt(2.5)) < 1e-15
        assert cex.lipschitz_bound(1e-9) < math.sqrt(2) + 1e-8
        assert cex.lipschitz_bound(1 - 1e-12) <= 2.0


def _bits(x) -> bytes:
    return np.asarray(x, float).tobytes()


# Diagonals on both kinks, at signed zeros and with non-finite entries.
ORACLE_DIAGONALS = [
    (0.7, 0.7), (0.7, -0.7), (-1.25, 1.25), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
    (-0.0, -0.0), (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan), (np.inf, np.inf),
    (np.inf, -np.inf), (-np.inf, 2.0), (0.5, np.inf), (np.inf, np.nan),
    (0.3, -0.9), (-2.0, -0.5), (1e-300, -1e-300),
]


class TestKinkyOracle:
    @pytest.mark.parametrize("selection", ["zero", "plus", "minus"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
    def test_equals_function_bit_for_bit(self, selection, shape):
        rng = np.random.default_rng(24)
        fn = cex.KinkyFunction(c=0.35, m=shape[0], n=shape[1])
        oracle = fn.oracle(selection)
        for w1, w2 in ORACLE_DIAGONALS:
            W = rng.standard_normal(shape)  # off-diagonal entries are ignored
            W[0, 0], W[1, 1] = w1, w2
            value, G = oracle.evaluate(W)
            ref = fn.subgradient(W, selection)
            assert type(value) is float
            assert _bits(value) == _bits(fn.value(W)) == _bits(oracle.value(W))
            assert G.shape == ref.shape and G.dtype == ref.dtype
            assert G.tobytes() == ref.tobytes(), (w1, w2)

    def test_returned_subgradient_is_a_copy(self):
        fn = cex.KinkyFunction(c=0.3)
        oracle = fn.oracle()
        W = np.diag([0.4, -1.0])
        _, G = oracle.evaluate(W)
        G[:] = 99.0
        _, again = oracle.evaluate(W)
        np.testing.assert_array_equal(again, fn.subgradient(W))

    def test_unknown_selection(self):
        with pytest.raises(ValueError, match="kink selection"):
            cex.KinkyFunction(c=0.3).oracle("bogus")


class TestKinkyStack:
    def test_members_match_function(self):
        rng = np.random.default_rng(21)
        fns = [cex.KinkyFunction(c=c, m=3, n=4) for c in (0.2, 0.5, 0.2, 0.9, 0.5, 0.7)]
        W = rng.standard_normal((len(fns), 3, 4))
        # Kinks (w1 = w2, w1 = -w2) and non-finite diagonals, which the
        # scalar subgradient maps through sign(NaN) = 0.
        W[1, 0, 0], W[1, 1, 1] = 0.5, 0.5
        W[2, 0, 0], W[2, 1, 1] = 0.5, -0.5
        W[3, 0, 0], W[3, 1, 1] = np.nan, 1.0
        W[4, 0, 0], W[4, 1, 1] = np.inf, -np.inf
        W[5, 0, 0], W[5, 1, 1] = 0.0, 0.0
        stack = cex.KinkyStack(fns)
        with np.errstate(invalid="ignore"):
            values, G, fro = stack.evaluate(W)
            np.testing.assert_array_equal(stack.value(W), values)
        for b, fn in enumerate(fns):
            np.testing.assert_array_equal(values[b], fn.value(W[b]))
            np.testing.assert_array_equal(G[b], fn.subgradient(W[b]))
            assert fro[b] == optim.norms.fro(fn.subgradient(W[b]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cex.KinkyStack([])
        with pytest.raises(ValueError):
            cex.KinkyStack([cex.KinkyFunction(c=0.3), cex.KinkyFunction(c=0.3, m=3)])
        with pytest.raises(ValueError):
            cex.KinkyStack([cex.KinkyFunction(c=0.3).oracle()])


class TestComputeR:
    def test_constant_schedule(self):
        for t in (0, 3, 17):
            assert abs(cex.compute_R(optim.Constant(0.2), t) - 0.1) < 1e-14

    def test_invt_known_values(self):
        assert abs(cex.compute_R(optim.InvT(), 0) - math.log(2)) < 1e-12
        assert abs(cex.compute_R(optim.InvT(), 1) - (1 - math.log(2))) < 1e-12

    def test_recursion_residual(self):
        for sch in (optim.InvT(), optim.InvSqrtT(), optim.Table((0.5, 0.4, 0.3))):
            for t in (0, 1, 5):
                r1 = cex.compute_R(sch, t)
                r2 = cex.compute_R(sch, t + 1)
                assert abs(r2 - (sch.value(t) - r1)) <= 2e-12

    def test_sequence_matches_recursion(self):
        R = cex.compute_R_sequence(optim.InvT(), 50)
        for t in range(50):
            assert R[t + 1] == optim.InvT().value(t) - R[t]
        assert abs(R[0] - math.log(2)) < 1e-12

    def test_rejects_increasing_schedule(self):
        with pytest.raises(ValueError):
            cex.compute_R(optim.Table((0.1, 0.2)), 0)


class TestCex1:
    def test_appendix_style_build(self):
        beta = 0.9
        c = (1 - beta) / (2 * (1 + beta))
        fn, W0, init = cex.cex1_build(beta, optim.InvT(), c=c)
        assert abs(W0[0, 0] - (1 + math.log(2))) < 1e-12
        assert abs(W0[1, 1] - (1 - math.log(2))) < 1e-12
        assert fn.c == c
        assert init.lambda_inf == 0.0

    def test_delta_feasibility(self):
        fn, W0, init = cex.cex1_build(0.5, optim.Constant(0.2), delta=0.05)
        assert init.delta == 0.05
        with pytest.raises(ValueError, match="t=0"):
            cex.cex1_build(0.5, optim.Constant(0.2), delta=0.2)
        with pytest.raises(ValueError):
            cex.cex1_build(0.5, optim.InvT(), delta=0.01)
        with pytest.raises(ValueError):
            cex.cex1_build(0.5, optim.Constant(0.2), r=0.5)
        with pytest.raises(ValueError):
            cex.cex1_build(0.5, optim.Constant(0.2), c=0.4)  # >= (1-b)/(1+b)

    @pytest.mark.parametrize("kw, match", [
        ({"r": math.inf}, "finite r"),
        ({"r": math.nan}, "finite r"),
        ({"delta": math.nan}, "delta must be finite"),
        ({"delta": -math.inf}, "delta must be finite"),
    ])
    def test_rejects_non_finite_r_and_delta(self, kw, match):
        # r = inf and delta = nan used to build a start with inf or NaN entries.
        for schedule in (optim.Constant(0.2), optim.InvT()):
            with pytest.raises(ValueError, match=match):
                cex.cex1_build(0.5, schedule, **kw)

    def test_predicted_iterate(self):
        beta = 0.9
        fn, W0, init = cex.cex1_build(beta, optim.InvT())
        w1, w2 = cex.cex1_predicted_iterate(init, 0)
        assert (w1, w2) == (W0[0, 0], W0[1, 1])
        w1, w2 = cex.cex1_predicted_iterate(init, 1)
        assert abs(w1 - math.log(2)) < 1e-12
        assert abs(w2 - (2 - math.log(2))) < 1e-12
        for t in range(40):
            w1, w2 = cex.cex1_predicted_iterate(init, t)
            assert abs(w1 + w2 - 2 * init.r) < 1e-12

    def test_lazy_extension_equals_a_longer_horizon(self):
        # Past the build horizon Cex1Init extends R by the recursion that
        # compute_R_sequence runs, so both give the same bits.
        for schedule in (optim.InvT(), optim.Constant(0.2)):
            short = cex.cex1_build(0.5, schedule, horizon=10)[2]
            long = cex.cex1_build(0.5, schedule, horizon=100)[2]
            assert (cex.cex1_predicted_sequence(short, 100).tobytes()
                    == cex.cex1_predicted_sequence(long, 100).tobytes())

    def test_run_matches_prediction_and_floor(self):
        T = 300
        for beta in (0.0, 0.9):
            fn, W0, init = cex.cex1_build(beta, optim.InvT(), horizon=T)
            st = optim.OptimizerState(W=W0, beta=beta, schedule=optim.InvT())
            tr = optim.run("muon", fn.oracle(), st, T, track_average=False)
            pred = cex.cex1_predicted_sequence(init, T)
            np.testing.assert_allclose(tr.w11, pred[:, 0], atol=1e-10)
            np.testing.assert_allclose(tr.w22, pred[:, 1], atol=1e-10)
            assert np.min(tr.f) >= 2 * fn.c * init.r - 1e-12


class TestCex2:
    def test_track_and_floor(self):
        rng = np.random.default_rng(23)
        beta = 0.2
        c = 0.5 - beta
        fn = cex.KinkyFunction(c=c)
        W0 = rng.standard_normal((2, 2))
        st = optim.OptimizerState(W=W0, beta=beta, schedule=optim.AdaptiveNuclear(0.05))
        tr = optim.run("regmuon", fn.oracle(), st, 500, track_average=False)
        p, q = tr.sum_diag, tr.diff_diag
        p0 = W0[0, 0] + W0[1, 1]
        assert np.max(np.abs(p - p0)) <= 1e-12
        # q recursion: q_{t+1} = q_t - 2 lam_t sign(q_t)
        res = q[1:] - (q[:-1] - 2 * tr.lam[:-1] * np.sign(q[:-1]))
        assert np.max(np.abs(res)) <= 1e-12
        assert np.min(tr.f) >= c * abs(p0) - 1e-12

    def test_guard_check(self):
        rng = np.random.default_rng(24)
        sch = optim.Table(tuple(rng.uniform(0.01, 0.3, 100)))
        g = cex.cex2_guard_check(rng.standard_normal((2, 2)), 0.2, sch, 100)
        assert g.ok
        g = cex.cex2_guard_check(np.diag([1.0, 1.0]), 0.2, sch, 100)
        assert not g.ok and g.first_bad_t == 0  # q0 = 0
        g = cex.cex2_guard_check(np.diag([1.0, -1.0]), 0.2, sch, 100)
        assert not g.ok  # p0 = 0
        with pytest.raises(ValueError):
            cex.cex2_guard_check(np.eye(2), 0.6, sch, 10)
