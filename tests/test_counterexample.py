import copy
import math
import pickle

import numpy as np
import pytest

from muonlab import counterexample as cex
from muonlab import optim

# An integer too large for a float, of either sign, with short test ids.
HUGE = [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]


class TestKinkyFunction:
    def test_values(self):
        fn = cex.KinkyFunction(c=0.5)
        assert fn.value(np.zeros((2, 2))) == 0.0
        assert fn.value(np.diag([1.0, 1.0])) == 1.0
        beta = 0.9
        c = (1 - beta) / (2 * (1 + beta))
        fn = cex.KinkyFunction(c=c)
        got = fn.value(np.diag([1 + math.log(2), 1 - math.log(2)]))
        assert abs(got - (2 * c + 2 * math.log(2))) < 1e-14

    def test_c_is_stored_as_a_float(self):
        for c in (np.float32(0.3), np.float64(0.3), 0.3):
            fn = cex.KinkyFunction(c=c)
            assert type(fn.c) is float and fn.c == float(c)
        fn = cex.KinkyFunction(c=0.3, m=np.int64(3), n=4)
        assert type(fn.m) is int and (fn.m, fn.n) == (3, 4)
        fn = cex.KinkyFunction(c=0.3, m=np.array(3), n=np.uint8(4))
        assert (type(fn.m), type(fn.n)) == (int, int) and (fn.m, fn.n) == (3, 4)

    @pytest.mark.parametrize("kw", [dict(c=True), dict(c="0.3"), dict(c=0.3 + 0j),
                                    dict(c=0.3, m=2.5), dict(c=0.3, n=3.0),
                                    dict(c=0.3, m=True), dict(c=0.3, n="3"),
                                    dict(c=0.3, m=np.True_), dict(c=0.3, n=np.array(3.0))])
    def test_refuses_non_real_c_and_non_integer_shape(self, kw):
        # m = 2.5 used to pass and then fail in np.zeros.
        with pytest.raises(ValueError, match="must be"):
            cex.KinkyFunction(**kw)

    def test_matrix_matches_diag(self):
        rng = np.random.default_rng(20)
        fn = cex.KinkyFunction(c=0.3, m=3, n=4)
        for _ in range(20):
            W = rng.standard_normal((3, 4))
            D = np.zeros((3, 4))
            D[0, 0], D[1, 1] = W[0, 0], W[1, 1]
            s, d = W[0, 0] + W[1, 1], W[0, 0] - W[1, 1]
            assert fn.value(W) == fn.value(D) == fn.sd_value(s, d)

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
        W = np.diag([1.0, 1.0])  # on the |w1 - w2| kink, where sign(0) = 0
        np.testing.assert_allclose(fn.subgradient(W), np.diag([0.5, 0.5]))

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
        # KinkyFunction(c=10**400) used to raise OverflowError.
        for c in (0.0, 10**400, -10**400):
            with pytest.raises(ValueError, match=r"c must lie in \(0, 1\)"):
                cex.KinkyFunction(c=c)
        with pytest.raises(ValueError):
            cex.KinkyFunction(c=0.5, m=1)
        for c in (1.5, 10**400, -10**400):
            with pytest.raises(ValueError, match=r"c must lie in \(0, 1\)"):
                cex.lipschitz_bound(c)

    @pytest.mark.parametrize("c", ["0.5", True, None])
    def test_lipschitz_bound_rejects_non_real_c(self, c):
        # "0.5" and None used to raise TypeError from the comparison.
        with pytest.raises(ValueError, match="c must be a real number"):
            cex.lipschitz_bound(c)

    def test_lipschitz_bound_computes_in_double_precision(self):
        # A np.float32 c used to give 1.4764823286301811.
        got = cex.lipschitz_bound(np.float32(0.3))
        assert type(got) is float and got == cex.lipschitz_bound(float(np.float32(0.3)))

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

_TRACE_COLUMNS = ("t", "lam", "f", "w11", "w22", "grad_fro", "favg")


class TestKinkyOracle:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
    def test_equals_function_bit_for_bit(self, shape):
        rng = np.random.default_rng(24)
        fn = cex.KinkyFunction(c=0.35, m=shape[0], n=shape[1])
        oracle = fn.oracle()
        for w1, w2 in ORACLE_DIAGONALS:
            W = rng.standard_normal(shape)  # off-diagonal entries are ignored
            W[0, 0], W[1, 1] = w1, w2
            value, G = oracle.evaluate(W)
            ref = fn.subgradient(W)
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

    def test_the_function_is_its_own_oracle(self):
        fn = cex.KinkyFunction(c=0.3)
        assert fn.oracle() is fn

    def test_the_table_is_read_only(self):
        fn = cex.KinkyFunction(c=0.3, m=3, n=2)
        # A deep copy and a pickle round trip are built anew: read-only too.
        for g in (fn, copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
            assert g == fn
            for A in (g._table, g._table_fro):
                with pytest.raises(ValueError, match="read-only"):
                    A[0] = 1.0

    def test_functions_of_equal_shape_and_c_share_rows_and_norms(self):
        a, b = cex.KinkyFunction(c=0.3, m=3, n=4), cex.KinkyFunction(c=np.float32(0.3), m=3, n=4)
        c = cex.KinkyFunction(c=float(np.float32(0.3)), m=np.int64(3), n=4)
        assert b.rows is c.rows and b._table_fro is c._table_fro
        assert a.rows is not b.rows and a._table_fro is not b._table_fro  # another c
        assert cex.KinkyFunction(c=0.3, m=4, n=3).rows is not a.rows
        for fro in (a._table_fro, b._table_fro):
            with pytest.raises(ValueError, match="read-only"):
                fro[4] = 1.0

    @staticmethod
    def sign_classes(fn, diagonals):
        s, d = np.array([1.0, -2.0, 0.0, np.nan]), np.array([-0.5, 0.0, 3.0, 1.0])
        return ([fn.rows, fn._table_fro.tobytes(), fn.grad_fro(s, d).tobytes()]
                + [fn.evaluate(np.diag(w))[1].tobytes() for w in diagonals])

    def test_a_function_built_after_the_cache_turned_over_is_the_same(self):
        diagonals = [(w1, w2) for w1 in (-1.0, 0.0, 2.0) for w2 in (-1.0, 0.0, 2.0)]
        first = cex.KinkyFunction(c=0.3)
        want = self.sign_classes(first, diagonals)
        size = cex._sign_classes.cache_info().maxsize
        for c in np.linspace(0.01, 0.99, size + 5):  # more keys than the cache holds
            cex.KinkyFunction(c=float(c))
        again = cex.KinkyFunction(c=0.3)
        assert again.rows is not first.rows  # built anew, not found
        assert self.sign_classes(again, diagonals) == want

    def test_the_cache_holds_no_array_of_the_function_s_size(self):
        fn = cex.KinkyFunction(c=0.3, m=300, n=300)
        assert "_table" not in vars(fn)  # the stack is built on first use

        def arrays(x):
            if isinstance(x, np.ndarray):
                yield x
                yield from arrays(x.base)
            elif isinstance(x, tuple):
                for y in x:
                    yield from arrays(y)

        cached = list(arrays(cex._sign_classes(0.3, 300, 300)))
        assert cached and max(a.size for a in cached) <= 9
        assert fn.evaluate(np.eye(300))[1].shape == (300, 300)
        assert fn._table.shape == (9, 300, 300)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 5)])
    def test_the_stack_is_built_on_first_use_by_the_subgradient_expressions(self, shape):
        m, n = shape
        fn = cex.KinkyFunction(c=0.35, m=m, n=n)
        assert "_table" not in vars(fn)
        want = np.zeros((9, m, n))
        for s1 in (-1.0, 0.0, 1.0):
            for s2 in (-1.0, 0.0, 1.0):
                k = 3 * int(s1) + int(s2)
                want[k, 0, 0], want[k, 1, 1] = fn.c * s1 + s2, fn.c * s1 - s2
        table = fn._table
        assert fn._table is table and not table.flags.writeable
        assert table.dtype == np.float64 and table.tobytes() == want.tobytes()
        assert fn._table_fro.tobytes() == np.array([np.linalg.norm(G) for G in want]).tobytes()
        rng = np.random.default_rng(35)
        for g in (copy.copy(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
            assert g == fn and g.rows is fn.rows and g._table_fro is fn._table_fro
            for w1, w2 in ORACLE_DIAGONALS:
                W = rng.standard_normal(shape)
                W[0, 0], W[1, 1] = w1, w2
                (v, G), (u, H) = fn.evaluate(W), g.evaluate(W)
                assert _bits(v) == _bits(u) and G.tobytes() == H.tobytes()
            assert g._table is not table and not g._table.flags.writeable

    def test_runs_on_one_function_share_no_memory(self):
        fn = cex.KinkyFunction(c=0.3)
        st = optim.OptimizerState(W=np.diag([1.0, -0.5]), beta=0.5, schedule=optim.InvT())
        for track_average in (True, False):
            a, b = (optim.run("muon", fn, st, 30, track_average) for _ in range(2))
            columns = [getattr(tr, col) for tr in (a, b) for col in _TRACE_COLUMNS]
            for i, x in enumerate(columns + [fn._table, fn._table_fro]):
                for y in columns[:i]:
                    assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("method", cex.RUN_METHODS)
    def test_run_on_the_function_equals_run_on_its_oracle(self, method):
        def trace(oracle):
            st = optim.OptimizerState(W=np.diag([1.3, -0.45]), beta=0.4,
                                      schedule=optim.Constant(0.05))
            tr = optim.run(method, oracle, st, 40)
            return [getattr(tr, col).tobytes() for col in _TRACE_COLUMNS]

        assert trace(cex.KinkyFunction(c=0.3)) == trace(cex.KinkyFunction(c=0.3).oracle())


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
        # A numpy integer t or T is its Python int: compute_R from
        # np.int8(120) raised OverflowError, its head range passing the
        # type's maximum.
        for sch in (optim.InvT(), optim.Table((0.5, 0.4, 0.3))):
            assert cex.compute_R(sch, np.int8(120)) == cex.compute_R(sch, 120)
            assert cex.compute_R_sequence(sch, np.int8(127)).tobytes() == \
                cex.compute_R_sequence(sch, 127).tobytes()

    @pytest.mark.parametrize("values", [(0.1, 0.2), (1e-20, 5e-16)])
    def test_rejects_increasing_schedule(self, values):
        # A rise of at most 1e-15 used to pass: (1e-20, 5e-16) gave R_0 = -2.5e-16.
        with pytest.raises(ValueError, match="schedule must be nonincreasing"):
            cex.compute_R(optim.Table(values), 0)

    def test_rejects_negative_t_and_T(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            cex.compute_R(optim.InvT(), -1)
        with pytest.raises(ValueError, match="T must be nonnegative"):
            cex.compute_R_sequence(optim.InvT(), -1)

    @pytest.mark.parametrize("T", [True, 2.0, 1.5, "3"])
    def test_rejects_non_integer_T(self, T):
        # True returned R_0 .. R_1, and 2.0 was refused under the internal name n.
        with pytest.raises(ValueError, match="^T must be nonnegative: a nonnegative integer"):
            cex.compute_R_sequence(optim.InvT(), T)

    @pytest.mark.parametrize("t", [True, 1.0, "0"])
    def test_compute_R_rejects_non_integer_t(self, t):
        with pytest.raises(ValueError, match="^t must be nonnegative: a nonnegative integer"):
            cex.compute_R(optim.InvT(), t)

    @pytest.mark.parametrize("limit", [0.2, math.nextafter(0.1, math.inf)])
    def test_rejects_schedule_below_its_limit(self, limit):
        # A schedule at most 1e-15 below its limit used to pass.
        class BelowLimit(optim.Constant):
            def limit(self):
                return limit

        with pytest.raises(ValueError, match="fall below the declared limit"):
            cex.compute_R(BelowLimit(0.1), 0)


def _R_loop(schedule, R0, n):
    """The float recursion R_{t+1} = lam_t - R_t as a Python loop."""
    R = [float(R0)]
    for lam in optim.offline_stepsizes(schedule, 0, n - 1).tolist():
        R.append(lam - R[-1])
    return np.array(R)


class TestRRecursion:
    """_R_recursion's signed running sum against the loop, bit for bit."""

    SCHEDULES = (optim.Constant(0.2), optim.InvT(), optim.InvSqrtT(),
                 optim.Table(tuple(np.sort(np.random.default_rng(19).uniform(0.05, 0.4, 64))[::-1])))

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 3, 5001])
    @pytest.mark.parametrize("R0", [-0.0, 1e-300])
    def test_equals_the_loop(self, schedule, n, R0):
        R = cex._R_recursion(schedule, R0, n)
        assert R.dtype == np.float64 and R.tobytes() == _R_loop(schedule, R0, n).tobytes()

    def test_exact_zeros_are_positive(self):
        # R_0 = lam: every odd R_t is lam - lam, +0.0 in the loop, where the
        # sign flip of the running sum gives -0.0.
        expected = _R_loop(optim.Constant(0.2), 0.2, 101)
        assert np.count_nonzero(expected == 0.0) == 50
        assert cex._R_recursion(optim.Constant(0.2), 0.2, 101).tobytes() == expected.tobytes()

    def test_cex1_R_values_equal_the_loop(self):
        # R_t up to the build horizon and past it, through the prediction.
        for schedule in self.SCHEDULES:
            _, _, init = cex.cex1_build(0.5, schedule, horizon=200)
            assert init._R.tobytes() == _R_loop(schedule, init.R0, 201).tobytes()
            signs = np.where(np.arange(301) % 2 == 0, 1.0, -1.0)
            osc = init.delta + signs * _R_loop(schedule, init.R0, 301)
            expected = np.column_stack([init.r + osc, init.r - osc])
            assert cex.cex1_predicted_sequence(init, 300).tobytes() == expected.tobytes()


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

    def test_stores_python_floats(self):
        # r = np.float32(1.3) used to be stored as given, and cex1_floor
        # returned np.float32(0.65).
        f32 = dict(beta=np.float32(0.5), r=np.float32(1.3), delta=np.float32(0.05))
        fn, W0, init = cex.cex1_build(schedule=optim.Constant(0.2), **f32)
        want_fn, want_W0, want = cex.cex1_build(
            schedule=optim.Constant(0.2), **{k: float(v) for k, v in f32.items()})
        for field in f32:
            assert type(getattr(init, field)) is float
            assert getattr(init, field) == getattr(want, field)
        assert W0.tobytes() == want_W0.tobytes() and fn == want_fn
        floor = cex.cex1_floor(init, fn)
        assert type(floor) is float and floor == cex.cex1_floor(want, want_fn)

    @pytest.mark.parametrize("style", cex.AUTO_C)
    def test_auto_c_computes_in_double_precision(self, style):
        # A np.float32 beta used to give a np.float32 c.
        c = cex.AUTO_C[style](np.float32(0.3))
        assert type(c) is float and c == cex.AUTO_C[style](float(np.float32(0.3)))

    @pytest.mark.parametrize("beta", [-0.1, 1.0, *HUGE])
    def test_rejects_beta_outside_unit_interval(self, beta):
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\)"):
            cex.cex1_build(beta, optim.Constant(0.2))

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("beta", "r", "delta", "c") for value in (True, "0.5", None)
        if (field, value) != ("c", None)])  # c = None asks for the default
    def test_rejects_parameters_that_are_not_real_numbers(self, field, value):
        # r = True used to be stored in the construction's Cex1Init.
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            cex.cex1_build(**{"beta": 0.5, "schedule": optim.Constant(0.1), field: value})

    def test_rejects_delta_at_half_the_limit(self):
        # R_t > lam/2 up to the horizon, but R_t tends to lam/2 = 0.1 past it.
        schedule = optim.Table(tuple(0.2 + 1.0 / (t + 1) for t in range(1000)) + (0.2,))
        cex.cex1_build(0.5, schedule, delta=0.099, horizon=10)
        with pytest.raises(ValueError, match="lambda/2"):
            cex.cex1_build(0.5, schedule, delta=0.1, horizon=10)

    @pytest.mark.parametrize("kw, match", [
        ({"r": math.inf}, "finite r"),
        ({"r": math.nan}, "finite r"),
        ({"delta": math.nan}, "delta must be finite"),
        ({"delta": -math.inf}, "delta must be finite"),
        ({"r": 10**400}, "finite r"),
        ({"r": -10**400}, "finite r"),
        ({"delta": 10**400}, "delta must be finite"),
        ({"delta": -10**400}, "delta must be finite"),
    ])
    def test_rejects_non_finite_r_and_delta(self, kw, match):
        # r = inf and delta = nan used to build a start with inf or NaN
        # entries; r = 10**400 and delta = 10**400 raised OverflowError.
        for schedule in (optim.Constant(0.2), optim.InvT()):
            with pytest.raises(ValueError, match=match):
                cex.cex1_build(0.5, schedule, **kw)

    def test_predicted_sequence(self):
        beta = 0.9
        fn, W0, init = cex.cex1_build(beta, optim.InvT())
        pred = cex.cex1_predicted_sequence(init, 39)
        assert (pred[0, 0], pred[0, 1]) == (W0[0, 0], W0[1, 1])
        assert abs(pred[1, 0] - math.log(2)) < 1e-12
        assert abs(pred[1, 1] - (2 - math.log(2))) < 1e-12
        assert np.max(np.abs(pred[:, 0] + pred[:, 1] - 2 * init.r)) < 1e-12

    def test_predicted_sequence_reads_R(self):
        # A numpy integer T is a count; row t holds r +- (delta + (-1)^t R_t).
        init = cex.cex1_build(0.5, optim.InvT(), horizon=10)[2]
        pred = cex.cex1_predicted_sequence(init, np.int64(3))
        assert pred.tobytes() == cex.cex1_predicted_sequence(init, 3).tobytes()
        R = cex.compute_R_sequence(optim.InvT(), 3)
        osc = init.delta + np.array([1.0, -1.0, 1.0, -1.0]) * R
        assert pred.tobytes() == np.column_stack([init.r + osc, init.r - osc]).tobytes()
        # np.int8(127) wrapped at T + 1, and the prediction was a (0, 2) array.
        for T in (np.int8(127), np.uint8(255)):
            assert cex.cex1_predicted_sequence(init, T).tobytes() == \
                cex.cex1_predicted_sequence(init, int(T)).tobytes()
        # The build's horizon is a count too.
        built = cex.cex1_build(0.5, optim.Constant(0.2), delta=0.05, horizon=np.int8(127))[2]
        assert built._R.tobytes() == cex.compute_R_sequence(optim.Constant(0.2), 127).tobytes()

    @pytest.mark.parametrize("T", [1.5, "1", "2"])
    def test_predicted_sequence_rejects_non_integer_T(self, T):
        # -1 and True are in test_predicted_sequence_rejects_bad_T.
        init = cex.cex1_build(0.5, optim.InvT(), horizon=10)[2]
        with pytest.raises(ValueError, match="^T must be nonnegative: a nonnegative integer"):
            cex.cex1_predicted_sequence(init, T)

    @pytest.mark.parametrize("T", [-1, 2.5, True])
    def test_predicted_sequence_rejects_bad_T(self, T):
        # -1 returned an empty array and 2.5 raised IndexError.
        init = cex.cex1_build(0.5, optim.InvT(), horizon=10)[2]
        with pytest.raises(ValueError, match="^T must be nonnegative: a nonnegative integer"):
            cex.cex1_predicted_sequence(init, T)

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
        # A numpy integer T is its Python int; np.int8(127) + 1 wrapped in run.
        g = cex.cex2_guard_check(np.diag([1.0, 0.5]), 0.2, sch, np.int8(127))
        assert g == cex.cex2_guard_check(np.diag([1.0, 0.5]), 0.2, sch, 127)
        assert type(g.T) is int
        with pytest.raises(ValueError):
            cex.cex2_guard_check(np.eye(2), 0.6, sch, 10)

    @pytest.mark.parametrize("W0", [np.zeros((2, 2)), np.diag([1.0, 0.5])])
    @pytest.mark.parametrize("kwargs, match", [
        ({"T": -5}, "T must be nonnegative"), ({"T": 2.5}, "T must be nonnegative"),
        ({"T": True}, "T must be nonnegative"), ({"method": "bogus"}, "unknown method"),
        ({"method": "muonmax"}, "a run takes one of"),
        ({"method": "efmuonmax"}, "a run takes one of")])
    def test_guard_check_validates_t_and_method_before_p0(self, W0, kwargs, match):
        # With p0 = 0 the check used to return Cex2Guard(T=-5, ok=False, ...)
        # before it looked at T or the method.  The product-norm rules, which
        # need a ProductNormSpec point, got through the method check: with
        # p0 = 0 as a failed guard, and otherwise as optim.run's ValueError.
        args = {"T": 10, "method": "muon", **kwargs}
        with pytest.raises(ValueError, match=match):
            cex.cex2_guard_check(W0, 0.2, optim.Constant(0.1), **args)

    @pytest.mark.parametrize("W0, match", [(np.diag([np.nan, 1.0]), "must be finite"),
                                           (np.array([1.0, 0.5]), "2-d")])
    def test_guard_check_rejects_invalid_starts(self, W0, match):
        # The NaN start used to pass (q is NaN at every step); the 1-d one
        # raised a bare IndexError.
        with pytest.raises(ValueError, match=match):
            cex.cex2_guard_check(W0, 0.2, optim.Table((0.1,)), 10)

    @pytest.mark.parametrize("beta", ["0.1", None, True])
    def test_guard_check_rejects_non_real_beta(self, beta):
        # "0.1" and None used to raise TypeError from the comparison.
        with pytest.raises(ValueError, match="beta must be a real number"):
            cex.cex2_guard_check(np.diag([1.0, 0.5]), beta, optim.Table((0.1,)), 10)

    # The general loop's numpy warns on the overflowing stepsize.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_guard_check_counts_a_nan_q_as_a_hit(self):
        # The stepsize overflows: q is [0.5, -inf, nan, ...].  This run used
        # to pass.
        g = cex.cex2_guard_check(np.diag([1.0, 0.5]), 0.0, optim.AdaptiveNuclear(1e308), 6,
                                 method="regmuon")
        assert not g.ok and g.first_bad_t == 2
