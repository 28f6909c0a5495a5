import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from muonlab import counterexample as cex
from muonlab import linalg, norms, optim

# An integer too large for a float, of either sign, with short test ids.
HUGE = [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]


def kinky_oracle(c=0.5):
    return cex.KinkyFunction(c=c).oracle()


def diagonal_oracle(c):
    """The counterexample function on the 2-vector (w1, w2) of its leading
    diagonal, with the diagonal of its subgradient."""
    fn = cex.KinkyFunction(c=c)
    return optim.FunctionOracle(lambda w: fn.value(np.diag(w)),
                                lambda w: np.diagonal(fn.subgradient(np.diag(w))).copy())


def state(W, beta=0.0, schedule=None, **kw):
    return optim.OptimizerState(W=np.asarray(W, float), beta=beta,
                                schedule=schedule or optim.Constant(0.1), **kw)


class TestSchedules:
    def test_values(self):
        assert optim.InvT().value(0) == 1.0
        assert optim.InvT().value(4) == 0.2
        assert abs(optim.InvSqrtT().value(3) - 0.5) < 1e-15
        assert optim.Constant(0.3).value(10) == 0.3
        tab = optim.Table((0.4, 0.2))
        assert tab.value(0) == 0.4 and tab.value(5) == 0.2 and tab.limit() == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            optim.Constant(0.0)
        with pytest.raises(ValueError):
            optim.Table(())
        with pytest.raises(ValueError):
            optim.Table((0.1, -0.1))
        with pytest.raises(ValueError):
            optim.AdaptiveNuclear(0.05).limit()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_stepsizes(self, value):
        # Each used to be accepted and ran to a trace of inf or NaN rows.
        with pytest.raises(ValueError, match="finite"):
            optim.Constant(value)
        with pytest.raises(ValueError, match="finite"):
            optim.Table((0.5, value))
        with pytest.raises(ValueError, match="finite"):
            optim.AdaptiveNuclear(value)

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", 0.5 + 0j, None,
                                       pytest.param(10**400, id="10**400")])
    def test_rejects_bool_non_real_and_float_overflow(self, value):
        # 10**400 used to pass the range check and raise OverflowError at
        # the first step of every run.
        for make in (optim.Constant, lambda v: optim.Table((0.5, v)), optim.AdaptiveNuclear):
            with pytest.raises(ValueError):
                make(value)

    @pytest.mark.parametrize("value", [np.float32(0.1), np.float64(0.1), 2, np.int64(2)])
    def test_numbers_are_stored_as_floats(self, value):
        for sch, stored in ((optim.Constant(value), lambda s: s.lam),
                            (optim.AdaptiveNuclear(value), lambda s: s.base),
                            (optim.Table((value,)), lambda s: s.values[0])):
            assert type(stored(sch)) is float and stored(sch) == float(value)

    def test_adaptive_nuclear(self):
        # The schedule is its base; step multiplies it by ||M||_nuc = 3 + 4.
        sch = optim.AdaptiveNuclear(0.1)
        assert sch.value(3) == 0.1
        oracle = optim.FunctionOracle(lambda W: 0.0, lambda W: np.diag([3.0, -4.0]))
        _, info = optim.step_muon(state(np.zeros((2, 2)), schedule=sch), oracle)
        assert abs(info.lam - 0.7) < 1e-15


class HalvingConstant(optim.Constant):
    """A Constant subclass with its own value(): not a repeat of lam."""

    def value(self, t, momentum=None):
        return self.lam / (t + 1)


class TableSubclass(optim.Table):
    pass


# Every offline schedule type, exact and subclassed; Tables of 1 to 6 entries.
_OFFLINE_SCHEDULES = hs.one_of(
    hs.floats(0.01, 2.0).map(optim.Constant),
    hs.floats(0.01, 2.0).map(HalvingConstant),
    hs.just(optim.InvT()),
    hs.just(optim.InvSqrtT()),
    hs.lists(hs.floats(0.01, 2.0), min_size=1, max_size=6).map(
        lambda v: optim.Table(tuple(v))),
    hs.lists(hs.floats(0.01, 2.0), min_size=1, max_size=6).map(
        lambda v: TableSubclass(tuple(v))),
    hs.floats(0.01, 2.0).map(optim.AdaptiveNuclear),
)


class TestOfflineStepsizes:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_OFFLINE_SCHEDULES, hs.integers(0, 10), hs.integers(0, 12))
    def test_equals_value_comprehension(self, schedule, t0, n):
        # t0 and t0 + n fall before, inside and past a Table's end.
        got = optim.offline_stepsizes(schedule, t0, n)
        want = [schedule.value(t) for t in range(t0, t0 + n)]
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == np.array(want, float).tobytes()

    TABLE = (0.3, 0.25, 0.25, 0.1)

    # (schedule, t0, n): a Table's t0 inside, at and past its end, and an
    # InvT range that ends at 2**53, the last step whose float t + 1 is exact.
    CASES = {
        "Constant": (optim.Constant(0.3), 2, 7),
        "AdaptiveNuclear": (optim.AdaptiveNuclear(0.3), 2, 7),
        "InvT": (optim.InvT(), 5, 1000),
        "InvSqrtT": (optim.InvSqrtT(), 5, 1000),
        "InvT up to 2**53": (optim.InvT(), 2**53 - 6, 6),
        "Table, t0 inside": (optim.Table(TABLE), 1, 6),
        "Table, t0 at the end": (optim.Table(TABLE), 4, 3),
        "Table, t0 past the end": (optim.Table(TABLE), 9, 3),
        "Table subclass": (TableSubclass(TABLE), 1, 6),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_cases_equal_value_comprehension(self, case):
        schedule, t0, n = self.CASES[case]
        got = optim.offline_stepsizes(schedule, t0, n)
        want = np.array([schedule.value(t) for t in range(t0, t0 + n)])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t0", [0, 2, 9])
    def test_writing_the_result_leaves_the_table_unchanged(self, t0):
        table = optim.Table(self.TABLE)
        got = optim.offline_stepsizes(table, t0, 5)
        got[:] = -1.0
        assert table.values == self.TABLE
        assert optim.offline_stepsizes(table, 0, 4).tolist() == list(self.TABLE)

    @pytest.mark.parametrize("t0, n", [(0, 3), (1, 2), (0, 4), (1, 3), (4, 0), (0, 6),
                                       (2, 5), (4, 2), (9, 3)])
    def test_a_table_range_is_a_new_writable_array(self, t0, n):
        # t0 + n below, at and past the table's end.  The float loop writes
        # the final lam of its Trace to NaN in place.
        table = optim.Table(self.TABLE)
        got = optim.offline_stepsizes(table, t0, n)
        want = np.array([table.value(t) for t in range(t0, t0 + n)], float)
        assert got.flags.writeable and got.flags.owndata
        assert not np.shares_memory(got, table._array)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="t0"):
            optim.offline_stepsizes(optim.Table((0.1, 0.2)), -1, 2)

    @pytest.mark.parametrize("bad", [-1, True, 2.0, "3", pytest.param(-10**5000, id="-10**5000")])
    def test_t0_and_n_must_be_nonnegative_integers(self, bad):
        with pytest.raises(ValueError, match="t0 must be nonnegative: a nonnegative integer"):
            optim.offline_stepsizes(optim.InvT(), bad, 2)
        with pytest.raises(ValueError, match="n must be nonnegative: a nonnegative integer"):
            optim.offline_stepsizes(optim.InvT(), 0, bad)

    def test_numpy_integers_are_accepted(self):
        got = optim.offline_stepsizes(optim.InvT(), np.int64(2), np.int64(3))
        assert got.tolist() == [1 / 3, 1 / 4, 1 / 5]
        # Each count is its Python int: np.int8(126) + 1 wrapped to -128 and
        # gave negative stepsizes.
        got = optim.offline_stepsizes(optim.InvT(), np.int8(126), 3)
        assert got.tolist() == [1 / 127, 1 / 128, 1 / 129]
        for schedule in (optim.InvT(), optim.InvSqrtT(), optim.Table(self.TABLE),
                         HalvingConstant(0.5)):
            for t0, n in ((np.int8(126), 3), (np.array(126), np.uint8(3)),
                          (np.int16(32760), np.int8(20))):
                want = optim.offline_stepsizes(schedule, int(t0), int(n))
                assert optim.offline_stepsizes(schedule, t0, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("schedule, t0, n", [
        (optim.InvT(), 2**53 - 5, 6),
        (optim.InvSqrtT(), 0, 2**53 + 1),
        (optim.Constant(0.1), 2**53, 1),
        (optim.Table((0.2, 0.1)), 10**400, 0),
        (optim.AdaptiveNuclear(0.1), 0, 10**13 * 2**40),
    ], ids=["InvT", "InvSqrtT", "Constant", "Table", "AdaptiveNuclear"])
    def test_refuses_a_range_past_2_53(self, schedule, t0, n):
        # InvT past 2**53 used to be asked step by step in a list comprehension,
        # and a long range allocated, or failed to allocate, all its floats.
        with pytest.raises(ValueError, match=r"t0 \+ n must be at most 2\*\*53"):
            optim.offline_stepsizes(schedule, t0, n)


class TestOptimizerState:
    @pytest.mark.parametrize("t", [-1, 1.5, True, pytest.param(np.True_, id="np.True_"),
                                   pytest.param(np.array(1.0), id="0-d float array")])
    def test_rejects_t_that_is_not_a_nonnegative_integer(self, t):
        # t = -1 used to raise ZeroDivisionError in run under InvT and
        # InvSqrtT, and a Table read its last stepsize first.
        with pytest.raises(ValueError, match="nonnegative integer"):
            optim.OptimizerState(W=np.eye(2), schedule=optim.InvT(), t=t)

    def test_accepts_numpy_integer_t(self):
        # t is kept as the Python int, as a 0-d integer array's is.
        for t in (np.int64(3), np.array(3)):
            st = optim.OptimizerState(W=np.eye(2), t=t)
            assert type(st.t) is int and st.t == 3
        # The loops counted in the numpy type, which wraps at its maximum:
        # from np.int8(126) under InvT the float loop and the general loop
        # gave wrong, unequal stepsizes, and from np.int16(32760) the general
        # loop raised IndexError on the Table.
        fn = cex.KinkyFunction(c=0.3)

        def traces(method, schedule, t0):
            def state0():
                return optim.OptimizerState(W=np.diag([1.3, -0.45]), beta=0.4,
                                            schedule=schedule, t=t0)

            return [trace_bytes(optim.run(method, oracle, state0(), 20, track_average=False))
                    for oracle in (fn.oracle(), general_oracle(fn))]

        for schedule, t in ((optim.InvT(), np.int8(126)),
                            (optim.Table((0.5, 0.25)), np.int16(32760))):
            for method in DIAGONAL_METHODS:
                assert traces(method, schedule, t) == traces(method, schedule, int(t))

    @pytest.mark.parametrize("beta", [-0.1, 1.0, math.nan, *HUGE])
    def test_rejects_beta_outside_unit_interval(self, beta):
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\)"):
            optim.OptimizerState(W=np.eye(2), beta=beta)

    @pytest.mark.parametrize("beta", ["0.5", None, False, 0.5j])
    def test_rejects_beta_that_is_not_a_real_number(self, beta):
        # beta = "0.5" used to raise a bare TypeError, and False passed as 0.
        with pytest.raises(ValueError, match="beta must be a real number"):
            optim.OptimizerState(W=np.eye(2), beta=beta)

    def test_float32_beta_is_stored_as_a_python_float(self):
        # A np.float32 beta used to be kept, so 1 - beta was computed in
        # float32.  Every loop now runs as with the float64 beta of its value.
        beta = np.float32(0.3)
        assert type(optim.OptimizerState(W=np.eye(2), beta=beta).beta) is float
        fn = cex.KinkyFunction(c=0.3)

        def state0(b=beta):
            return optim.OptimizerState(W=np.diag([1.3, -0.45]), beta=b,
                                        schedule=optim.Constant(0.05))

        for method in DIAGONAL_METHODS:
            runs = ((fn.oracle(), state0()), (general_oracle(fn), state0()),
                    (fn.oracle(), state0(float(beta))))
            assert len({trace_bytes(optim.run(method, oracle, st, 60, track_average=False))
                        for oracle, st in runs}) == 1


class TestBasicSteps:
    def test_specgd_zero_gradient(self):
        oracle = optim.FunctionOracle(lambda W: 0.0, lambda W: np.zeros_like(W))
        st = state(np.eye(2))
        st2, _ = optim.step_specgd(st, oracle)
        np.testing.assert_array_equal(st2.W, np.eye(2))

    def test_specgd_diagonal(self):
        oracle = optim.FunctionOracle(lambda W: 0.0, lambda W: np.diag([3.0, -4.0]))
        st = state(np.zeros((2, 2)), schedule=optim.Constant(1.0))
        st2, _ = optim.step_specgd(st, oracle)
        np.testing.assert_array_equal(st2.W, np.diag([-1.0, 1.0]))

    def test_specgd_kinky_hand_example(self):
        st = state(np.diag([2.0, 1.0]), schedule=optim.Constant(0.1))
        st2, info = optim.step_specgd(st, kinky_oracle(0.5))
        np.testing.assert_allclose(np.diagonal(st2.W), [1.9, 1.1], atol=1e-15)
        np.testing.assert_allclose(np.diagonal(info.grad), [1.5, -0.5])

    def test_muon_beta_zero_is_specgd(self):
        oracle = kinky_oracle(0.3)
        rng = np.random.default_rng(9)
        W0 = rng.standard_normal((2, 2))
        a, _ = optim.step_specgd(state(W0.copy()), oracle)
        b, _ = optim.step_muon(state(W0.copy()), oracle)
        np.testing.assert_array_equal(a.W, b.W)

    def test_muon_appendix_style_step(self):
        beta = 0.9
        c = (1 - beta) / (2 * (1 + beta))
        W0 = np.diag([1 + math.log(2), 1 - math.log(2)])
        st = state(W0, beta=beta, schedule=optim.InvT())
        st2, _ = optim.step_muon(st, kinky_oracle(c))
        np.testing.assert_allclose(
            np.diagonal(st2.W), [math.log(2), 2 - math.log(2)], atol=1e-14)

    def test_regmuon_rescales_by_nuclear(self):
        oracle = optim.FunctionOracle(lambda W: 0.0, lambda W: np.diag([3.0, -4.0]))
        st = state(np.zeros((2, 2)), schedule=optim.Constant(0.1))
        st2, info = optim.step_regmuon(st, oracle)
        np.testing.assert_allclose(st2.W, -0.7 * np.diag([1.0, -1.0]), atol=1e-15)
        assert abs(info.lam - 0.7) < 1e-15

    def test_regmuon_equals_muon_with_adaptive_schedule(self):
        oracle = kinky_oracle(0.3)
        rng = np.random.default_rng(10)
        W0 = rng.standard_normal((2, 2))
        a = state(W0.copy(), beta=0.5, schedule=optim.Constant(0.05))
        b = state(W0.copy(), beta=0.5, schedule=optim.AdaptiveNuclear(0.05))
        for _ in range(20):
            a, _ = optim.step_regmuon(a, oracle)
            b, _ = optim.step_muon(b, oracle)
        np.testing.assert_array_equal(a.W, b.W)
        # The stepsize has one ||M||_nuc factor, from the rule, the schedule
        # or both, in the general loop and the float loop alike.
        fn, starts = cex.KinkyFunction(c=0.3), (W0, np.diag([1.3, -0.45]), np.diag([0.7, 0.7]))
        traces = []
        for method, schedule in (("muon", optim.AdaptiveNuclear(0.05)),
                                 ("regmuon", optim.Constant(0.05)),
                                 ("regmuon", optim.AdaptiveNuclear(0.05))):
            states = [state(W, beta=0.5, schedule=schedule) for W in starts]
            for oracle in (fn.oracle(), general_oracle(fn)):
                traces.append([trace_bytes(optim.run(method, oracle, st, 200, track_average=False))
                               for st in states])
        assert all(t == traces[0] for t in traces)

    def test_sign_steps(self):
        oracle = optim.FunctionOracle(lambda w: 0.0, lambda w: np.zeros_like(w))
        st = state(np.array([1.0, -1.0]))
        st2, _ = optim.step_signgd(st, oracle)
        np.testing.assert_array_equal(st2.W, st.W)

        oracle = diagonal_oracle(0.5)
        st = state(np.array([2.0, 1.0]), schedule=optim.Constant(0.1))
        st2, info = optim.step_signgd(st, oracle)
        np.testing.assert_allclose(st2.W, [1.9, 1.1], atol=1e-15)
        np.testing.assert_allclose(info.grad, [1.5, -0.5])

    def test_signmomentum_beta_zero_is_signgd(self):
        oracle = diagonal_oracle(0.4)
        w0 = np.array([0.3, -1.2])
        a, _ = optim.step_signgd(state(w0.copy()), oracle)
        b, _ = optim.step_signmomentum(state(w0.copy()), oracle)
        np.testing.assert_array_equal(a.W, b.W)


class TestErrorFeedback:
    def test_operator_compressor_hand_example(self):
        oracle = optim.FunctionOracle(lambda W: 0.0, lambda W: np.diag([3.0, -4.0]))
        st = state(np.zeros((2, 2)), schedule=optim.Constant(1.0))
        st2, _ = optim.step_efmuon(st, oracle)
        np.testing.assert_allclose(st2.W, -np.diag([3.5, -3.5]), atol=1e-15)
        np.testing.assert_allclose(st2.E, -0.5 * np.eye(2), atol=1e-15)
        assert abs(np.linalg.norm(st2.E) ** 2 - 0.5) < 1e-15

    def test_bookkeeping_identity(self):
        # E' + C(P) = E + lam M bitwise, with C recomputed from the same P
        oracle = kinky_oracle(0.3)
        rng = np.random.default_rng(12)
        st = state(rng.standard_normal((2, 2)), beta=0.9, schedule=optim.InvSqrtT())
        for _ in range(30):
            prev = st
            st, info = optim.step_efmuon(st, oracle)
            P = prev.E + info.lam * st.M
            C = optim._operator_compressor(P)
            np.testing.assert_allclose(st.E + C, P, atol=1e-14)

    def test_efmuon_always_uses_exact_polar(self):
        # The compressor contraction needs the exact polar factor, so the
        # polar backend of the state does not reach the EF-Muon step.
        rng = np.random.default_rng(16)
        target = rng.standard_normal((5, 4))
        oracle = optim.FunctionOracle(lambda W: 0.0, lambda W: np.sign(W - target))
        W0 = rng.standard_normal((5, 4))
        a = state(W0.copy(), beta=0.9, schedule=optim.InvSqrtT())
        b = state(W0.copy(), beta=0.9, schedule=optim.InvSqrtT(),
                  polar=optim.linalg.polar_newton_schulz)
        for _ in range(5):
            a, _ = optim.step_efmuon(a, oracle)
            b, _ = optim.step_efmuon(b, oracle)
            np.testing.assert_array_equal(a.W, b.W)
            np.testing.assert_array_equal(a.M, b.M)
            np.testing.assert_array_equal(a.E, b.E)

    def test_efmuon_matches_generic_efm(self):
        # EF-M written out here, with its own compressor (1/r) ||P||_nuc polar(P).
        oracle = cex.KinkyFunction(c=0.3, m=3, n=2).oracle()
        rng = np.random.default_rng(13)
        W0 = rng.standard_normal((3, 2))
        beta, schedule = 0.7, optim.InvSqrtT()
        a = state(W0.copy(), beta=beta, schedule=schedule)
        W, M, E = W0.copy(), np.zeros_like(W0), np.zeros_like(W0)
        for t in range(20):
            a, info = optim.step_efmuon(a, oracle)
            _, G = oracle.evaluate(W)
            M = beta * M + (1 - beta) * G
            lam = schedule.value(t)
            P = E + lam * M
            C = (np.linalg.svd(P, compute_uv=False).sum() / 2) * linalg.polar_exact(P)
            W, E = W - C, P - C
            assert info.lam == lam
        np.testing.assert_allclose(a.W, W, atol=1e-12)
        np.testing.assert_allclose(a.M, M, atol=1e-12)
        np.testing.assert_allclose(a.E, E, atol=1e-12)

    def test_alternative_error_update_agrees(self):
        # E' = E + W' - (W - lam M') agrees with E' = P - C(P) within 1e-14
        oracle = kinky_oracle(0.3)
        rng = np.random.default_rng(14)
        st = state(rng.standard_normal((2, 2)), beta=0.9, schedule=optim.InvSqrtT())
        for _ in range(50):
            prev = st
            st, info = optim.step_efmuon(st, oracle)
            alt = prev.E + st.W - (prev.W - info.lam * st.M)
            np.testing.assert_allclose(st.E, alt, atol=1e-14)


class TestRules:
    def test_entries_come_from_the_table(self):
        assert list(optim.STEP_FUNCTIONS) == list(optim.RULES)
        for name, entry in optim.STEP_FUNCTIONS.items():
            assert getattr(optim, f"step_{name}") is entry
            assert entry.__name__ == f"step_{name}"

    def test_entries_and_run_go_through_step(self, monkeypatch):
        for name, entry in optim.STEP_FUNCTIONS.items():
            assert entry.func is optim.step and entry.args == (optim.RULES[name],)
        calls = []
        step = optim.STEP_FUNCTIONS["regmuon"]
        monkeypatch.setitem(optim.STEP_FUNCTIONS, "regmuon",
                            lambda st, oracle: calls.append(1) or step(st, oracle))
        # A KinkyFunction would take run's float loop, which calls no entry.
        fn = cex.KinkyFunction(c=0.5)
        optim.run("regmuon", optim.FunctionOracle(fn.value, fn.subgradient), state(np.eye(2)), 3)
        assert len(calls) == 3

    def test_efm_method_is_gone(self):
        with pytest.raises(ValueError, match="unknown method"):
            optim.run("efm", kinky_oracle(), state(np.eye(2)), 1)
        assert not hasattr(optim, "step_efm") and not hasattr(optim, "identity_compressor")


class TestProductSteps:
    def spec(self):
        return norms.ProductNormSpec(layer_dims=((2, 2),), s=1.0, k=1)

    def oracle(self):
        def fn(W):
            return float(np.abs(np.diagonal(W.matrices[0])).sum() + abs(W.theta[0]))

        def grad(W):
            return norms.ParamPoint(
                [np.diag(np.sign(np.diagonal(W.matrices[0])))],
                np.sign(W.theta))

        return optim.FunctionOracle(fn, grad)

    def test_muonmax_diagonal_direction(self):
        W0 = norms.ParamPoint([np.diag([2.0, -3.0])], np.zeros(1))
        st = optim.OptimizerState(W=W0, schedule=optim.Constant(0.1), spec=self.spec())
        st2, _ = optim.step_muonmax(st, self.oracle())
        delta = st2.W.matrices[0] - W0.matrices[0]
        # update direction proportional to the sign of the diagonal
        sg = np.diag([1.0, -1.0])
        scale = delta[0, 0] / sg[0, 0]
        np.testing.assert_allclose(delta, scale * sg, atol=1e-12)
        assert scale < 0

    def test_muonmax_zero_theta_block_stays_zero(self):
        W0 = norms.ParamPoint([np.diag([2.0, -3.0])], np.zeros(1))
        st = optim.OptimizerState(W=W0, schedule=optim.Constant(0.1), spec=self.spec())
        st2, _ = optim.step_muonmax(st, self.oracle())
        assert st2.W.theta[0] == 0.0

    def test_efmuonmax_bookkeeping(self):
        rng = np.random.default_rng(15)
        W0 = norms.ParamPoint([rng.standard_normal((2, 2))], rng.standard_normal(1))
        st = optim.OptimizerState(W=W0, beta=0.5, schedule=optim.Constant(0.1),
                                  spec=self.spec())
        spec = self.spec()
        for _ in range(10):
            prev = st
            st, info = optim.step_efmuonmax(st, self.oracle())
            P = prev.E + info.lam * st.M
            C = norms.compress(P, spec)
            assert (st.E + C - P).fro() <= 1e-14

    def test_muonmax_lam_is_the_lmo_coefficient(self):
        # StepInfo.lam is lam_t ||M||_*, the coefficient of lmo(M), as for regmuon.
        rng = np.random.default_rng(17)
        W0 = norms.ParamPoint([rng.standard_normal((2, 2))], rng.standard_normal(1))
        st = optim.OptimizerState(W=W0, beta=0.5, schedule=optim.Constant(0.1),
                                  spec=self.spec())
        st2, info = optim.step_muonmax(st, self.oracle())
        dn, X = norms.dual_norm_and_lmo(st2.M, self.spec())
        assert info.lam == 0.1 * dn
        moved = W0 - info.lam * X
        for a, b in zip(st2.W.matrices + [st2.W.theta], moved.matrices + [moved.theta]):
            assert a.tobytes() == b.tobytes()

    def test_spec_required(self):
        st = optim.OptimizerState(W=np.eye(2), schedule=optim.Constant(0.1))
        with pytest.raises(ValueError):
            optim.step_muonmax(st, self.oracle())

    @pytest.mark.parametrize("method", ["muonmax", "efmuonmax"])
    def test_adaptive_nuclear_refused(self, method):
        # Used to raise TypeError from the nuclear norm of a ParamPoint.
        W0 = norms.ParamPoint([np.diag([2.0, -3.0])], np.zeros(1))
        st = optim.OptimizerState(W=W0, schedule=optim.AdaptiveNuclear(0.1), spec=self.spec())
        with pytest.raises(ValueError, match="muonmax and efmuonmax take no AdaptiveNuclear"):
            optim.STEP_FUNCTIONS[method](st, self.oracle())


class TestRun:
    def test_one_step_matches_manual(self):
        oracle = kinky_oracle(0.5)
        W0 = np.diag([2.0, 1.0])
        tr = optim.run("muon", oracle, state(W0.copy()), 1)
        st2, _ = optim.step_muon(state(W0.copy()), oracle)
        assert len(tr) == 2
        assert tr.w11[1] == st2.W[0, 0]
        assert tr.w22[1] == st2.W[1, 1]

    def test_trace_columns(self):
        oracle = kinky_oracle(0.5)
        tr = optim.run("muon", oracle, state(np.diag([2.0, 1.0])), 5)
        assert np.all(np.isfinite(tr.f))
        assert np.isnan(tr.lam[-1]) and np.isnan(tr.grad_fro[-1])
        assert np.all(np.isfinite(tr.favg))
        np.testing.assert_allclose(tr.sum_diag, tr.w11 + tr.w22)

    def test_momentum_convex_combination(self):
        oracle = kinky_oracle(0.3)
        rng = np.random.default_rng(16)
        st = state(rng.standard_normal((2, 2)), beta=0.8, schedule=optim.InvT())
        gmax = 0.0
        for _ in range(100):
            st, info = optim.step_muon(st, oracle)
            gmax = max(gmax, np.linalg.norm(info.grad))
            assert np.linalg.norm(st.M) <= gmax + 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            optim.run("nope", kinky_oracle(), state(np.eye(2)), 1)

    @pytest.mark.parametrize("track_average", ["no", 1, None, np.bool_(True)])
    def test_rejects_track_average_that_is_not_a_bool(self, track_average):
        # A truthy string such as "no" used to track the mean.
        with pytest.raises(ValueError, match="^track_average must be a bool"):
            optim.run("muon", kinky_oracle(), state(np.eye(2)), 1, track_average=track_average)

    def test_rejects_a_state_without_a_schedule(self):
        # The OptimizerState default used to raise AttributeError from inside
        # the loop.
        st = optim.OptimizerState(W=np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="^state0.schedule is None"):
            optim.run("muon", kinky_oracle(), st, 1)

    def test_noisy_iterates_do_not_depend_on_track_average(self):
        def noisy_run(track_average):
            oracle = optim.NoisyOracle(kinky_oracle(0.3), noise_std=0.5, seed=4)
            st = state(np.diag([1.0, -0.5]), beta=0.5, schedule=optim.InvSqrtT())
            return optim.run("muon", oracle, st, 200, track_average=track_average)

        on, off = noisy_run(True), noisy_run(False)
        for col in ("lam", "f", "w11", "w22", "grad_fro"):
            np.testing.assert_array_equal(getattr(on, col), getattr(off, col))
        assert np.all(np.isfinite(on.favg)) and np.all(np.isnan(off.favg))

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf, 10**400, -0.1, True, "0.5",
                                           None, pytest.param(10**5000, id="10**5000")])
    def test_noisy_oracle_refuses_bad_noise_std(self, noise_std):
        # NaN and inf used to give NaN and inf subgradients, and 10**400 an
        # OverflowError at the first evaluate.
        with pytest.raises(ValueError, match="noise_std must be nonnegative and finite"):
            optim.NoisyOracle(kinky_oracle(), noise_std)

    def test_noisy_oracle_stores_a_float32_noise_std_as_a_python_float(self):
        # A np.float32 used to warn of an overflow in its range check and was
        # stored as given; the noise keeps its bits.
        std, W = np.float32(0.1), np.diag([1.0, -0.5])
        oracle = optim.NoisyOracle(kinky_oracle(0.3), std, seed=4)
        assert type(oracle.noise_std) is float and oracle.noise_std == std
        G = kinky_oracle(0.3).evaluate(W)[1]
        noisy = G + std * np.random.default_rng(4).standard_normal(G.shape)
        assert oracle.evaluate(W)[1].tobytes() == noisy.tobytes()

    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1])
    def test_noisy_oracle_refuses_bad_seed(self, seed):
        # True was taken as seed 1, and 2.5 and "3" raised numpy's TypeError.
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            optim.NoisyOracle(kinky_oracle(), 0.1, seed=seed)

    def test_noisy_oracle_takes_a_numpy_integer_seed(self):
        W = np.diag([1.0, -0.5])
        a = optim.NoisyOracle(kinky_oracle(0.3), 0.1, seed=np.int64(4))
        b = optim.NoisyOracle(kinky_oracle(0.3), 0.1, seed=4)
        assert a.evaluate(W)[1].tobytes() == b.evaluate(W)[1].tobytes()

    def test_noisy_oracle_on_a_product_point(self):
        # f(W) = sum_l ||W^l - A^l||_1 + ||theta - a||_1 on two layers.
        rng = np.random.default_rng(12)
        spec = norms.ProductNormSpec(layer_dims=((2, 3), (3, 2)), s=2.0, k=3)
        A = norms.ParamPoint([rng.standard_normal(d) for d in spec.layer_dims],
                             rng.standard_normal(3))
        base = optim.FunctionOracle(
            lambda W: sum(float(np.abs(X).sum()) for X in (W - A).matrices + [(W - A).theta]),
            lambda W: norms.ParamPoint([np.sign(X) for X in (W - A).matrices],
                                       np.sign((W - A).theta)))
        W0 = norms.ParamPoint([rng.standard_normal(d) for d in spec.layer_dims],
                              rng.standard_normal(3))

        def parts(P):
            return [X.tobytes() for X in P.matrices + [P.theta]]

        # Each draw is layer by layer, then theta, from default_rng(seed).
        oracle, draws = optim.NoisyOracle(base, 0.3, seed=7), np.random.default_rng(7)
        for W in (W0, A):
            G = base.evaluate(W)[1]
            noisy = norms.ParamPoint([M + 0.3 * draws.standard_normal(M.shape) for M in G.matrices],
                                     G.theta + 0.3 * draws.standard_normal(G.theta.shape))
            assert parts(oracle.evaluate(W)[1]) == parts(noisy)
        assert parts(optim.NoisyOracle(base, 0.0).evaluate(W0)[1]) == parts(base.evaluate(W0)[1])

        def traced(method, oracle):
            st = optim.OptimizerState(W=W0, beta=0.5, schedule=optim.InvSqrtT(), spec=spec)
            return trace_bytes(optim.run(method, oracle, st, 30))

        for method in ("muonmax", "efmuonmax"):
            noisy = traced(method, optim.NoisyOracle(base, 0.3, seed=7))
            assert traced(method, optim.NoisyOracle(base, 0.3, seed=7)) == noisy
            assert traced(method, optim.NoisyOracle(base, 0.0, seed=7)) == \
                traced(method, base) != noisy

    def test_oracle_with_evaluate_only(self):
        class EvaluateOnly:
            def __init__(self, base):
                self.base = base

            def evaluate(self, W):
                return self.base.evaluate(W)

        a = optim.run("muon", kinky_oracle(0.3), state(np.diag([1.0, -0.5])), 20)
        b = optim.run("muon", EvaluateOnly(kinky_oracle(0.3)), state(np.diag([1.0, -0.5])), 20)
        for col in TRACE_COLUMNS:
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))


TRACE_COLUMNS = ("t", "lam", "f", "w11", "w22", "grad_fro", "favg")


# The rules run's float loop takes on a KinkyFunction: those that run on one.
DIAGONAL_METHODS = cex.RUN_METHODS


def trace_bytes(tr):
    return tuple(getattr(tr, col).tobytes() for col in TRACE_COLUMNS)


def general_oracle(fn):
    """fn's oracle as a FunctionOracle, which run's float loop does not take."""
    return optim.FunctionOracle(fn.value, fn.subgradient)


def result_or_error(fn):
    """fn()'s trace bytes, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared with the other loop's
        return type(exc), str(exc)


@contextlib.contextmanager
def counting_steps():
    """A list that gets an item per call of a STEP_FUNCTIONS entry, which still runs."""
    calls = []
    counting = {name: lambda st, oracle, entry=entry: calls.append(1) or entry(st, oracle)
                for name, entry in optim.STEP_FUNCTIONS.items()}
    with mock.patch.dict(optim.STEP_FUNCTIONS, counting):
        yield calls


# Diagonal entries: zeros, ties for the kinks, non-finite and extreme values.
_ENTRIES = hs.one_of(
    hs.sampled_from((0.0, -0.0, 0.7, -0.7, 1e308, -5e-324, np.inf, -np.inf, np.nan)),
    hs.floats(-3.0, 3.0))
_SCHEDULES = hs.one_of(
    hs.floats(0.01, 2.0).map(optim.Constant),
    hs.just(optim.InvT()),
    hs.just(optim.InvSqrtT()),
    hs.lists(hs.floats(0.01, 2.0), min_size=1, max_size=6).map(lambda v: optim.Table(tuple(v))),
    hs.floats(0.01, 1.0).map(optim.AdaptiveNuclear),
)


@hs.composite
def diagonal_runs(draw):
    """(method, KinkyFunction, state factory, T, track_average)."""
    shape = draw(hs.sampled_from(((2, 2), (3, 4), (4, 3))))
    fn = cex.KinkyFunction(c=draw(hs.floats(0.05, 0.95)), m=shape[0], n=shape[1])
    w1 = draw(_ENTRIES)
    w2 = draw(hs.one_of(hs.just(w1), hs.just(-w1), _ENTRIES))
    W0 = np.random.default_rng(draw(hs.integers(0, 2**32 - 1))).standard_normal(shape)
    W0[0, 0], W0[1, 1] = w1, w2
    M0, E0 = np.zeros(shape), np.zeros(shape)
    M0[0, 0], M0[1, 1], E0[0, 0], E0[1, 1] = draw(hs.lists(hs.floats(-3.0, 3.0),
                                                            min_size=4, max_size=4))
    beta = draw(hs.one_of(hs.just(0.0), hs.floats(0.0, 1.0, exclude_max=True)))
    schedule, t0 = draw(_SCHEDULES), draw(hs.integers(0, 50))

    def state0():
        return optim.OptimizerState(W=W0.copy(), beta=beta, schedule=schedule,
                                    M=M0.copy(), E=E0.copy(), t=t0)

    return (draw(hs.sampled_from(DIAGONAL_METHODS)), fn, state0,
            draw(hs.integers(0, 30)), draw(hs.booleans()))


# The non-finite starts make the general loop's numpy warn where the float
# loop is silent; the values are the same.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDiagonalRun:
    """run's float loop on a KinkyFunction against its general loop."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(diagonal_runs())
    def test_equals_general_loop_bit_for_bit(self, case):
        method, fn, state0, T, track_average = case
        with counting_steps() as calls:
            fast = optim.run(method, fn.oracle(), state0(), T, track_average)
        assert not calls  # all T steps ran in the float loop
        general = optim.run(method, general_oracle(fn), state0(), T, track_average)
        assert trace_bytes(fast) == trace_bytes(general)

    @pytest.mark.parametrize("diag, first_failing_T", (((1.0, 1.0), 2), ((1.0, -0.5), 1)))
    def test_efmuon_overflow_raises_as_general_loop(self, diag, first_failing_T):
        # P = E + lam M overflows at step 0 from (1, -0.5).  From the kink
        # (1, 1), P is finite but its nuclear norm overflows: W and E go to
        # -inf and P at step 1 is not finite.
        fn = cex.KinkyFunction(c=0.9)

        def outcome(oracle, T):
            st = optim.OptimizerState(W=np.diag(diag), beta=0.0,
                                      schedule=optim.Table((1e308, 1e308)))
            try:
                return trace_bytes(optim.run("efmuon", oracle, st, T))
            except Exception as exc:  # compared with the general loop's
                return type(exc), str(exc)

        for T in range(first_failing_T + 2):
            general = outcome(general_oracle(fn), T)
            assert outcome(fn.oracle(), T) == general
            raises = T >= first_failing_T
            assert (general == (ValueError, "matrix entries must be finite")) is raises

    @pytest.mark.parametrize("method", ("muon", "regmuon"))
    def test_infinite_stepsize_hands_over_to_general_loop(self, method):
        # ||M||_nuc overflows, so lam is inf and W goes to inf and NaN, in
        # the general loop: run hands the step over.
        fn = cex.KinkyFunction(c=0.3)

        def state0():
            return optim.OptimizerState(W=np.diag([1.0, -0.5]), beta=0.9, M=np.diag([1.7e308] * 2),
                                        schedule=optim.AdaptiveNuclear(0.5))

        general = optim.run(method, general_oracle(fn), state0(), 3)
        with counting_steps() as calls:
            fast = optim.run(method, fn.oracle(), state0(), 3)
        assert trace_bytes(fast) == trace_bytes(general)
        assert len(calls) == 3 and not np.isfinite(general.w11[-1])

    def test_interior_infinite_stepsize_hands_over_to_general_loop(self):
        # lam_2 = 1.7e308 ||M_2||_nuc overflows at step 2 of 5; the float
        # loop finds it after the loop and the general loop runs all 5 steps.
        fn = cex.KinkyFunction(c=0.3)

        def state0():
            return optim.OptimizerState(W=np.diag([1.0, -0.5]), beta=0.5,
                                        schedule=optim.Table((0.1, 0.1, 1.7e308)))

        general = optim.run("regmuon", general_oracle(fn), state0(), 5)
        assert np.isfinite(general.lam[:2]).all() and general.lam[2] == np.inf
        with counting_steps() as calls:
            fast = optim.run("regmuon", fn.oracle(), state0(), 5)
        assert trace_bytes(fast) == trace_bytes(general) and len(calls) == 5
        with counting_steps() as calls:
            optim.run("regmuon", fn.oracle(), state0(), 2)
        assert not calls  # both stepsizes are finite

    @pytest.mark.parametrize("diag, first_failing_T", (((1.0, 1.0), 4), ((1.0, -0.5), 3)))
    def test_efmuon_interior_overflow_raises_as_general_loop(self, diag, first_failing_T):
        # At step 2 the nuclear norm of P overflows from (1, 1), and P itself
        # from (1, -0.5).  From (1, 1) the run of T = 3 finishes with W and E
        # not finite; step 3 raises.
        fn = cex.KinkyFunction(c=0.9)

        def outcome(oracle, T):
            st = optim.OptimizerState(W=np.diag(diag), beta=0.0,
                                      schedule=optim.Table((0.1, 0.1, 1e308, 1e308)))
            with counting_steps() as calls:
                try:
                    return trace_bytes(optim.run("efmuon", oracle, st, T)), len(calls)
                except Exception as exc:  # compared with the general loop's
                    return type(exc), str(exc)

        for T in range(first_failing_T + 2):
            general, fast = outcome(general_oracle(fn), T), outcome(fn.oracle(), T)
            if T >= first_failing_T:
                assert fast == general == (ValueError, "matrix entries must be finite")
            else:  # the float loop runs T <= 2 and hands a later T over
                assert fast == (general[0], 0 if T <= 2 else T)

    @pytest.mark.parametrize("diag, entry", (((0.5, 1.0), 0), ((1.0, 0.5), 1)))
    def test_efmuon_overflow_in_one_entry_raises_as_general_loop(self, diag, entry):
        # E cancels lam G in one entry of P, and the other entry overflows:
        # that entry of E turns NaN while the cancelled one stays 0.
        fn, lam = cex.KinkyFunction(c=0.3), 1.5e308
        G = fn.subgradient(np.diag(diag))
        E0 = np.zeros((2, 2))
        E0[entry, entry] = -(lam * G[entry, entry])

        def outcome(oracle):
            st = optim.OptimizerState(W=np.diag(diag), E=E0.copy(),
                                      schedule=optim.Table((lam,)))
            return result_or_error(lambda: trace_bytes(optim.run("efmuon", oracle, st, 1)))

        assert outcome(fn.oracle()) == outcome(general_oracle(fn)) == \
            (ValueError, "matrix entries must be finite")

    # Schedule numbers of other real types than float: both loops compute
    # with the float they are stored as.
    REAL_TYPED = {
        "Constant(np.float32)": optim.Constant(np.float32(0.1)),
        "Constant(np.float64)": optim.Constant(np.float64(0.1)),
        "Constant(int)": optim.Constant(1),
        "AdaptiveNuclear(np.float32)": optim.AdaptiveNuclear(np.float32(0.05)),
        "AdaptiveNuclear(np.float64)": optim.AdaptiveNuclear(np.float64(0.05)),
        "AdaptiveNuclear(int)": optim.AdaptiveNuclear(1),
    }

    @pytest.mark.parametrize("schedule", REAL_TYPED)
    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_real_typed_schedule_numbers_equal_in_every_loop(self, method, schedule):
        fn, sched = cex.KinkyFunction(c=0.3), self.REAL_TYPED[schedule]
        as_float = type(sched)(float(getattr(sched, "lam", getattr(sched, "base", None))))

        def state0(s=sched):
            return optim.OptimizerState(W=np.diag([1.3, -0.45]), beta=0.4, schedule=s)

        with counting_steps() as calls:
            fast = optim.run(method, fn.oracle(), state0(), 60, track_average=False)
        assert not calls
        expected = trace_bytes(fast)
        assert trace_bytes(optim.run(method, general_oracle(fn), state0(), 60,
                                     track_average=False)) == expected
        assert trace_bytes(optim.run(method, fn.oracle(), state0(as_float), 60,
                                     track_average=False)) == expected

    def test_takes_float_loop(self):
        with counting_steps() as calls:
            for method in DIAGONAL_METHODS:
                optim.run(method, kinky_oracle(), state(np.diag([1.0, -0.5]), beta=0.5), 5)
        assert not calls

    class Halving(optim.Constant):
        def value(self, t, momentum=None):
            return self.lam / (t + 1)

    # (method, function shape, state keywords, error the general loop raises)
    INELIGIBLE = {
        "newton-schulz polar": ("muon", (2, 2), dict(polar=linalg.polar_newton_schulz), None),
        "non-diagonal M": ("muon", (2, 2), dict(beta=0.5, M=np.array([[0.3, 0.1], [0.0, 0.2]])),
                           None),
        "non-finite M": ("signmomentum", (2, 2), dict(M=np.diag([np.inf, 1.0])), None),
        "non-finite M, polar": ("muon", (2, 2), dict(beta=0.5, M=np.diag([np.inf, 1.0])),
                                ValueError),
        "M past the first two": ("muon", (3, 3), dict(W=np.eye(3), beta=0.5,
                                                      M=np.diag([0.0, 0.0, 1.0])), None),
        "non-diagonal E": ("efmuon", (2, 2), dict(E=np.array([[0.0, 0.1], [0.0, 0.0]])), None),
        "schedule subclass": ("regmuon", (2, 2), dict(schedule=Halving(0.1)), None),
        "float32 W": ("muon", (2, 2), dict(W=np.eye(2, dtype=np.float32)), None),
        "shape mismatch": ("muon", (3, 4), {}, ValueError),
        "muonmax": ("muonmax", (2, 2), {}, ValueError),
        "efmuonmax": ("efmuonmax", (2, 2), {}, ValueError),
    }

    @pytest.mark.parametrize("case", INELIGIBLE)
    def test_ineligible_takes_general_loop(self, case):
        method, shape, kw, error = self.INELIGIBLE[case]
        kw = {"W": np.diag([1.0, -0.5]), "schedule": optim.Constant(0.1), **kw}
        oracle = cex.KinkyFunction(c=0.3, m=shape[0], n=shape[1]).oracle()
        with counting_steps() as calls:
            if error is None:
                optim.run(method, oracle, optim.OptimizerState(**kw), 4)
            else:
                with pytest.raises(error):
                    optim.run(method, oracle, optim.OptimizerState(**kw), 4)
        assert len(calls) == (4 if error is None else 1)

    # Every schedule type _run_diagonal takes, for the long-horizon check.
    LONG_SCHEDULES = {
        "Constant": optim.Constant(0.05),
        "InvT": optim.InvT(),
        "InvSqrtT": optim.InvSqrtT(),
        "Table": optim.Table(tuple(np.random.default_rng(5).uniform(0.01, 0.3, 700))),
        "AdaptiveNuclear": optim.AdaptiveNuclear(0.05),
    }

    @pytest.mark.parametrize("schedule", LONG_SCHEDULES)
    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_long_horizon_equals_general_loop(self, method, schedule):
        # T = 2000, past the Table's end: the loops agree over a whole run,
        # with the running mean and a start on neither kink.
        fn = cex.KinkyFunction(c=0.35)

        def state0():
            return optim.OptimizerState(W=np.diag([1.3, -0.45]), beta=0.4,
                                        schedule=self.LONG_SCHEDULES[schedule])

        with counting_steps() as calls:
            fast = optim.run(method, fn.oracle(), state0(), 2000)
        assert not calls
        assert trace_bytes(fast) == trace_bytes(optim.run(method, general_oracle(fn),
                                                          state0(), 2000))

    @pytest.mark.parametrize("diag", [(np.inf, 1.0), (np.inf, -np.inf), (np.nan, 0.5),
                                      (-np.inf, -np.inf), (1e308, 1e308)])
    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_non_finite_start_stays_silent(self, method, diag):
        # The columns derived after the float loop see inf - inf and
        # overflowing sums; numpy must not warn where the floats do not.
        st = optim.OptimizerState(W=np.diag(diag), beta=0.3, schedule=optim.InvT())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with counting_steps() as calls:
                tr = optim.run(method, kinky_oracle(), st, 6)
        assert not calls and len(tr) == 7

    def test_float32_c_is_converted_and_takes_float_loop(self):
        # KinkyFunction stores c as a float, so f is float64 in both loops.
        fn = cex.KinkyFunction(c=np.float32(0.3))
        assert type(fn.c) is float and fn.c == float(np.float32(0.3))

        def state0():
            return state(np.diag([1.1, -0.57]), beta=0.2, schedule=optim.InvT())

        with counting_steps() as calls:
            tr = optim.run("muon", fn.oracle(), state0(), 5)
        assert not calls
        assert trace_bytes(tr) == trace_bytes(optim.run("muon", general_oracle(fn), state0(), 5))

    def test_noisy_oracle_takes_general_loop(self):
        with counting_steps() as calls:
            optim.run("muon", optim.NoisyOracle(kinky_oracle(), 0.0), state(np.eye(2)), 4)
        assert len(calls) == 4


class TestDiagonalTrace:
    """The Trace the float loop builds from its records, through run."""

    SCHEDULES = (optim.Table((0.3, 0.2, 0.1)), optim.Constant(0.1), optim.InvT(),
                 optim.InvSqrtT(), optim.AdaptiveNuclear(0.05))

    def traces(self, method, schedule, T=6):
        fn = cex.KinkyFunction(c=0.3)
        st = state(np.diag([1.0, -0.5]), beta=0.5, schedule=schedule)
        with counting_steps() as calls:
            yield optim.run(method, fn.oracle(), st, T)
            yield optim.run(method, fn.oracle(), st, T, track_average=False)
        assert not calls  # every Trace came from a float loop

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=repr)
    def test_columns_are_native_aligned_writable_float64(self, method, schedule):
        for tr in self.traces(method, schedule):
            for col in TRACE_COLUMNS:
                a = getattr(tr, col)
                assert a.dtype == np.float64 and a.dtype.isnative and a.shape == (7,)
                assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=repr)
    def test_writing_a_trace_does_not_change_a_later_run(self, method, schedule):
        expected = [trace_bytes(tr) for tr in self.traces(method, schedule)]
        for tr in self.traces(method, schedule):
            for col in TRACE_COLUMNS:
                getattr(tr, col)[:] = -1.0
        assert [trace_bytes(tr) for tr in self.traces(method, schedule)] == expected


class TestRepeatPeriod:
    @staticmethod
    def resized(records, period, n):
        head = np.array(records, float)
        return np.concatenate((head, np.resize(head[len(head) - period:], n - len(head))))

    def test_equals_a_resized_tail(self):
        rng = np.random.default_rng(35)
        for size in range(1, 12):
            records = rng.standard_normal(size).tolist()
            for period in range(1, size + 1):  # up to every record
                for n in (size, size + 1, size + period, size + 2 * period + 1, 40):
                    got = optim._repeat_period(records, period, n)
                    assert got.dtype == np.float64 and got.shape == (n,)
                    assert got.tobytes() == self.resized(records, period, n).tobytes()

    def test_keeps_the_bits_of_each_record(self):
        records = [1.0, -0.0, 0.0, math.nan, -math.inf, 5e-324]
        got = optim._repeat_period(records, 4, 13)
        assert got.tobytes() == self.resized(records, 4, 13).tobytes()


@contextlib.contextmanager
def counting_repeats():
    """A list that gets (records, period) per call of optim._repeat_period,
    which still runs: one call per column a float loop fills by its period."""
    calls = []
    repeat = optim._repeat_period

    def counting(records, period, n):
        calls.append((len(records), period))
        return repeat(records, period, n)

    with mock.patch.object(optim, "_repeat_period", counting):
        yield calls


@hs.composite
def steady_runs(draw):
    """(method, KinkyFunction, state factory, T) of a run whose stepsize
    coefficient is constant from some step before T."""
    fn = cex.KinkyFunction(c=draw(hs.floats(0.05, 0.95)))
    w1 = draw(_ENTRIES)
    w2 = draw(hs.one_of(hs.just(w1), hs.just(-w1), _ENTRIES))
    T = draw(hs.integers(200, 3000))
    schedule = draw(hs.one_of(
        hs.floats(0.01, 2.0).map(optim.Constant),
        hs.floats(0.01, 1.0).map(optim.AdaptiveNuclear),
        hs.lists(hs.floats(0.01, 2.0), min_size=1, max_size=T - 1).map(
            lambda v: optim.Table(tuple(v)))))
    beta = draw(hs.sampled_from((0.0, 0.2, 0.5, 0.9)))

    def state0():
        return optim.OptimizerState(W=np.diag([w1, w2]), beta=beta, schedule=schedule)

    return draw(hs.sampled_from(DIAGONAL_METHODS)), fn, state0, T


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCycleExit:
    """The float loop's early exit once its state repeats, without the running mean."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(steady_runs())
    def test_equals_general_loop_bit_for_bit(self, case):
        method, fn, state0, T = case
        fast = optim.run(method, fn.oracle(), state0(), T, track_average=False)
        assert trace_bytes(fast) == trace_bytes(optim.run(method, general_oracle(fn), state0(), T,
                                                          track_average=False))

    def test_taken_by_a_cex_sweep_regmuon_run(self):
        fn = cex.KinkyFunction(c=0.3)

        def state0():
            W0 = np.random.default_rng(5).standard_normal((2, 2))
            return optim.OptimizerState(W=W0, beta=0.2, schedule=optim.AdaptiveNuclear(0.05))

        with counting_repeats() as calls:
            fast = optim.run("regmuon", fn.oracle(), state0(), 1000, track_average=False)
        # W1, W2 and the recorded stepsizes, after at most 200 of the 1000 steps.
        assert len(calls) == 3 and calls[0][0] <= 201
        assert trace_bytes(fast) == trace_bytes(
            optim.run("regmuon", general_oracle(fn), state0(), 1000, track_average=False))

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    def test_taken_by_a_cex1_constant_run(self, beta):
        fn, W0, init = cex.cex1_build(beta, optim.Constant(0.2), horizon=1000)

        def state0():
            return optim.OptimizerState(W=W0.copy(), beta=beta, schedule=optim.Constant(0.2))

        with counting_repeats() as calls:
            fast = optim.run("muon", fn.oracle(), state0(), 1000, track_average=False)
        assert len(calls) == 2 and calls[0][0] <= 500
        assert trace_bytes(fast) == trace_bytes(
            optim.run("muon", general_oracle(fn), state0(), 1000, track_average=False))
        pred = cex.cex1_predicted_sequence(init, 1000)
        assert np.max(np.abs(fast.w11 - pred[:, 0])) <= 1e-10

    @pytest.mark.parametrize("schedule", [optim.InvT(), optim.Table(tuple(np.linspace(0.3, 0.1,
                                                                                      1001)))],
                             ids=repr)
    def test_not_taken_before_the_coefficient_is_constant(self, schedule):
        fn = cex.KinkyFunction(c=0.3)
        st = optim.OptimizerState(W=np.diag([1.0, -0.5]), beta=0.5, schedule=schedule)
        with counting_repeats() as calls:
            optim.run("muon", fn.oracle(), st, 1000, track_average=False)
        assert not calls

    def test_not_taken_with_the_running_mean(self):
        fn = cex.KinkyFunction(c=0.3)
        st = optim.OptimizerState(W=np.diag([1.0, -0.5]), schedule=optim.Constant(0.2))
        with counting_repeats() as calls:
            tr = optim.run("muon", fn.oracle(), st, 1000)
        assert not calls and not np.isnan(tr.favg).any()

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_states_that_differ_in_the_sign_of_a_zero_do_not_match(self, method):
        # From W = 0 with M = E = -0.0 every step keeps W at 0 and makes M
        # and E +0.0: the state after 32 steps equals the start as floats,
        # not as bytes.  The repeat is found between steps 32 and 64.
        fn = cex.KinkyFunction(c=0.3)

        def state0():
            return optim.OptimizerState(W=np.zeros((2, 2)), beta=0.5, M=np.diag([-0.0, -0.0]),
                                        E=np.diag([-0.0, -0.0]), schedule=optim.Constant(0.2))

        with counting_repeats() as calls:
            fast = optim.run(method, fn.oracle(), state0(), 200, track_average=False)
        assert calls and all(n == 65 and period == 32 for n, period in calls[:2])
        assert trace_bytes(fast) == trace_bytes(
            optim.run(method, general_oracle(fn), state0(), 200, track_average=False))


def assert_same_trace(a, b):
    """Equal in every column, bit for bit, NaN in the same places."""
    for col in TRACE_COLUMNS:
        x, y = getattr(a, col), getattr(b, col)
        assert x.shape == y.shape, col
        assert np.array_equal(x, y, equal_nan=True), col


def mixed_starts(seed, n=15, shape=(2, 2)):
    """Functions and starts with mixed c, beta (0 included) and schedules."""
    rng = np.random.default_rng(seed)
    # Diagonals of special starts: on the kink w1 = w2, and non-finite ones,
    # which run carries along without an error.
    special = {3: (0.7, 0.7), 4: (np.nan, 1.0), 9: (np.inf, np.inf), 10: (np.inf, -np.inf)}
    schedules = [optim.Constant(0.1), optim.InvT(),
                 optim.Table(tuple(rng.uniform(0.01, 0.3, 40))), optim.AdaptiveNuclear(0.05)]
    fns, states = [], []
    for b in range(n):
        W0 = rng.standard_normal(shape)
        if b in special:
            W0 = np.zeros(shape)
            W0[0, 0], W0[1, 1] = special[b]
        # Start 6 has beta = 0, so its run never reads this M.
        M0 = np.full(shape, np.inf) if b == 6 else None
        fns.append(cex.KinkyFunction(c=float(rng.uniform(0.05, 0.95)), m=shape[0], n=shape[1]))
        states.append(optim.OptimizerState(
            W=W0, beta=(0.0, 0.5, 0.9)[b % 3], schedule=schedules[b % 4], M=M0))
    return fns, states


# The general loop makes numpy warn on non-finite values; the float loop is
# silent.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestMixedStarts:
    """run on a KinkyFunction against its general loop, start by start, over
    a list of mixed starts, as verify cex2 runs its sweeps."""

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    @pytest.mark.parametrize("shape", ((2, 2), (3, 4)))
    def test_each_start_equals_general_loop(self, method, shape):
        fns, states = mixed_starts(5, shape=shape)
        for fn, st in zip(fns, states):
            assert_same_trace(optim.run(method, fn.oracle(), st, 120, track_average=False),
                              optim.run(method, general_oracle(fn), st, 120, track_average=False))

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_only_a_non_diagonal_start_takes_general_loop(self, method):
        fns, states = mixed_starts(6, n=4)
        states[2].M = np.array([[0.3, -1.2], [0.8, 0.1]])
        T = 60
        with counting_steps() as calls:
            traces = [optim.run(method, fn.oracle(), st, T, track_average=False)
                      for fn, st in zip(fns, states)]
        assert len(calls) == T  # the non-diagonal start's steps, and no others
        for fn, st, tr in zip(fns, states, traces):
            assert_same_trace(tr, optim.run(method, general_oracle(fn), st, T,
                                            track_average=False))

    @pytest.mark.parametrize("method", ("muon", "regmuon"))
    @pytest.mark.parametrize("schedule", (optim.Constant(0.1), optim.AdaptiveNuclear(0.05)))
    @pytest.mark.parametrize("M0", (np.diag([np.inf, 1.0]),
                                    np.array([[1.0, np.nan], [0.0, 1.0]])))
    def test_non_finite_M_raises_as_general_loop(self, method, schedule, M0):
        fn = cex.KinkyFunction(c=0.3)

        def outcome(oracle):
            st = optim.OptimizerState(W=np.eye(2), beta=0.5, schedule=schedule, M=M0.copy())
            return result_or_error(lambda: trace_bytes(optim.run(method, oracle, st, 5)))

        assert outcome(fn.oracle()) == outcome(general_oracle(fn))
        assert outcome(fn.oracle())[0] is ValueError

    @pytest.mark.parametrize("method", ("muonmax", "efmuonmax", "efm", "nope"))
    def test_unsupported_method_raises_as_general_loop(self, method):
        # The product rules refuse these states, which have no
        # ProductNormSpec; an unknown name is refused before any step.
        fns, states = mixed_starts(7, n=2)
        with pytest.raises(ValueError) as general:
            optim.run(method, general_oracle(fns[0]), states[0], 3)
        with pytest.raises(ValueError) as fast:
            optim.run(method, fns[0].oracle(), states[0], 3)
        assert str(fast.value) == str(general.value)

    def test_any_polar_schedule_and_start_equal_general_loop(self):
        # The Newton-Schulz polar, a schedule subclass, InvSqrtT and a start
        # at t = 2, next to a plain start.
        fn = cex.KinkyFunction(c=0.3)
        states = [state(np.diag([1.0, -0.5]), beta=0.5, **kw) for kw in (
            {}, dict(polar=linalg.polar_newton_schulz), dict(schedule=HalvingConstant(0.1)),
            dict(schedule=optim.InvSqrtT()), dict(t=2))]
        for method in DIAGONAL_METHODS:
            for st in states:
                assert_same_trace(optim.run(method, fn.oracle(), st, 20, track_average=False),
                                  optim.run(method, general_oracle(fn), st, 20,
                                            track_average=False))

    def test_start_of_another_shape_raises_as_general_loop(self):
        # A 3 x 3 state on a 2 x 2 function.
        fn = cex.KinkyFunction(c=0.3)
        with pytest.raises(ValueError) as general:
            optim.run("muon", general_oracle(fn), state(np.eye(3)), 3)
        with pytest.raises(ValueError) as fast:
            optim.run("muon", fn.oracle(), state(np.eye(3)), 3)
        assert str(fast.value) == str(general.value)

    def test_zero_steps(self):
        fns, states = mixed_starts(8, n=3)
        for method in DIAGONAL_METHODS:
            for fn, st in zip(fns, states):
                assert_same_trace(optim.run(method, fn.oracle(), st, 0, track_average=False),
                                  optim.run(method, general_oracle(fn), st, 0,
                                            track_average=False))

    def test_every_cex2_regmuon_start_stops_at_its_repeat(self):
        # The shape of verify cex2's regmuon groups; from these starts each
        # of the ten runs repeats before T, and is not stepped to T.
        fn, T = cex.KinkyFunction(c=0.3), 2000
        rng = np.random.default_rng(0)
        states = [optim.OptimizerState(W=rng.standard_normal((2, 2)), beta=0.2,
                                       schedule=optim.AdaptiveNuclear(0.05)) for _ in range(10)]
        with mock.patch.object(optim, "_repeat_period", wraps=optim._repeat_period) as exits:
            traces = [optim.run("regmuon", fn, st, T, track_average=False) for st in states]
        # One call per repeated column: w11, w22 and the recorded stepsizes.
        assert exits.call_count == 3 * 10
        for st, tr in zip(states, traces):
            assert_same_trace(tr, optim.run("regmuon", general_oracle(fn), st, T,
                                            track_average=False))


# Diagonal entries on the boundaries of the sign classes of w1 + w2 and
# w1 - w2: zeros of both signs, the least subnormals, values whose sum or
# difference overflows, infinities and a NaN; and adjacent doubles, one ulp
# apart, in both orders.
_BOUNDARY_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 0.7, -0.7, 1e308, -1e308,
                     math.inf, -math.inf, math.nan)
_ADJACENT = [(x, math.nextafter(x, math.inf)) for x in (
    -math.inf, -1e308, -0.7, -5e-324, -0.0, 0.0, 5e-324, 0.7, 1e308, np.finfo(float).max)]
BOUNDARY_STARTS = ([(w1, w2) for w1 in _BOUNDARY_ENTRIES for w2 in _BOUNDARY_ENTRIES]
                   + _ADJACENT + [(w2, w1) for w1, w2 in _ADJACENT])


def signaling_nan(payload=1, negative=False):
    """A float64 signaling NaN: exponent all ones, quiet bit clear."""
    bits = (0xFFF0000000000000 if negative else 0x7FF0000000000000) | payload
    return np.array([bits], np.uint64).view(np.float64)[0]


# The general loop makes numpy warn on non-finite values; the float loop is
# silent.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSignClassBoundaries:
    """run's float loop against its general loop from starts on every
    boundary of the sign classes, where the float loop picks the class of
    w1 - w2 by comparing w1 with w2."""

    @staticmethod
    def assert_float_loop_equals_general_loop(method, w1, w2, track_average):
        fn = cex.KinkyFunction(c=0.3)

        def state0():
            return state(np.diag([w1, w2]), beta=0.5)

        with counting_steps() as calls:
            fast = optim.run(method, fn, state0(), 3, track_average)
        assert not calls  # the float loop ran to the end
        ref = optim.run(method, general_oracle(fn), state0(), 3, track_average)
        assert trace_bytes(fast) == trace_bytes(ref), (w1, w2, track_average)

    @pytest.mark.parametrize("track_average", (True, False))
    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_every_boundary_start_equals_general_loop(self, method, track_average):
        for w1, w2 in BOUNDARY_STARTS:
            self.assert_float_loop_equals_general_loop(method, w1, w2, track_average)

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_signaling_nan_start_equals_general_loop(self, method):
        # Row 0 keeps the signaling NaN, and a later row holds the quiet NaN
        # the general loop's first step makes of it, even where the step
        # leaves w unchanged.
        snan, negative_snan = signaling_nan(), signaling_nan(5, negative=True)
        for w1, w2 in ((snan, 1.0), (-0.0, negative_snan), (snan, negative_snan)):
            for track_average in (True, False):
                self.assert_float_loop_equals_general_loop(method, w1, w2, track_average)


class TestLockstep:
    """The lock-step engine on dense stacks: with ``polar_exact_stack`` as
    the LMO, each member equals a ``step_muon`` loop bit for bit."""

    T = 30

    @pytest.mark.parametrize("n", (2, 3, 8))
    @pytest.mark.parametrize("B", (1, 8))
    def test_dense_muon_members_equal_step_muon_loops(self, n, B):
        # f(W) = ||W - A||_1 from a dense start, each member with its own
        # target, beta and schedule.
        rng = np.random.default_rng(10 * n + B)
        A, W0 = rng.standard_normal((B, n, n)), rng.standard_normal((B, n, n))
        beta = rng.uniform(0.1, 0.9, B)
        kinds = (optim.InvSqrtT(), optim.Constant(0.05),
                 optim.Table(tuple(rng.uniform(0.01, 0.3, self.T // 2))))
        schedules = [kinds[b % 3] for b in range(B)]
        coef = np.array([optim.offline_stepsizes(s, 0, self.T) for s in schedules]).T
        one_minus_beta = (1.0 - beta)[:, None, None]
        Ws, M = optim._lockstep(lambda W: one_minus_beta * np.sign(W - A),
                                linalg.polar_exact_stack, W0, np.zeros_like(W0), beta, coef)
        assert Ws.shape == (self.T + 1, B, n, n)
        for b in range(B):
            oracle = optim.FunctionOracle(lambda W: float(np.abs(W - A[b]).sum()),
                                          lambda W: np.sign(W - A[b]))
            st = optim.OptimizerState(W=W0[b], beta=float(beta[b]), schedule=schedules[b])
            iterates, steps = [st.W], []
            for _ in range(self.T):
                st, info = optim.step_muon(st, oracle)
                iterates.append(st.W)
                steps.append(info.lam)
            assert Ws[:, b].tobytes() == np.array(iterates).tobytes()
            assert coef[:, b].tobytes() == np.array(steps).tobytes()
            assert M[b].tobytes() == st.M.tobytes()


class TestStepCounts:
    """T (the number of steps) must be a nonnegative integer, as the state's t."""

    # Each call's result, as bytes where it is an array or a Trace.
    CALLS = {
        "run": lambda T: trace_bytes(optim.run("muon", kinky_oracle(), state(np.eye(2)), T)),
        "run, general loop": lambda T: trace_bytes(optim.run(
            "muon", general_oracle(cex.KinkyFunction(c=0.5)), state(np.eye(2)), T)),
        "efm_bound": lambda T: optim.efm_bound(T, 0.5, 0.5, 1.0, 1.0),
        "efm_bound_column": lambda T: optim.efm_bound_column(T, 0.5, 0.5, 1.0, 1.0).tobytes(),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("T", [-1, True, False, 2.0, 2.5, "3",
                                   pytest.param(np.True_, id="np.True_"),
                                   pytest.param(np.array(2.0), id="0-d float array")])
    def test_rejects_T_that_is_not_a_nonnegative_integer(self, call, T):
        # run took one step for True, run with 2.0 failed inside numpy and
        # efm_bound(2.5, ...) returned a number.
        with pytest.raises(ValueError, match="T must be nonnegative: a nonnegative integer"):
            self.CALLS[call](T)

    @pytest.mark.parametrize("call", CALLS)
    def test_numpy_integer_T_is_accepted(self, call):
        # T is its Python int.  T + 1 wrapped in the numpy type: run raised
        # ValueError at np.int8(127) and IndexError at np.uint8(255), and
        # efm_bound_column a broadcast ValueError.
        for T in (np.int64(3), np.int8(127), np.uint8(255), np.array(3)):
            assert self.CALLS[call](T) == self.CALLS[call](int(T))

    @pytest.mark.parametrize("call", ["efm_bound", "efm_bound_column"])
    def test_bound_refuses_T_whose_successor_overflows_a_float(self, call):
        # Both used to raise OverflowError from T + 1.0.
        with pytest.raises(ValueError, match="T must be finite"):
            self.CALLS[call](10**400)


class TestBound:
    def test_hand_example(self):
        assert optim.efm_bound(0, 1.0, 0.0, 2.0, 1.0) == 2.5

    def test_delta_one_beta_zero_reduces_to_sgd_term(self):
        sigma, dist0, T = 1.7, 0.3, 100
        got = optim.efm_bound(T, 1.0, 0.0, sigma, dist0)
        expected = dist0**2 / (2 * math.sqrt(T + 1)) + \
            sigma**2 * 0.5 * (1 + math.log(T + 1)) / math.sqrt(T + 1)
        assert abs(got - expected) < 1e-15

    def test_monotone_in_delta(self):
        vals = [optim.efm_bound(50, d, 0.3, 1.0, 1.0) for d in np.linspace(0.05, 1.0, 30)]
        assert np.all(np.diff(vals) <= 1e-15)

    def test_domain_validation(self):
        for bad in [dict(delta=0.0), dict(delta=1.5), dict(beta=1.0),
                    dict(sigma=-1.0), dict(dist0=-1.0)]:
            kw = dict(T=10, delta=0.5, beta=0.5, sigma=1.0, dist0=1.0)
            kw.update(bad)
            with pytest.raises(ValueError):
                optim.efm_bound(**kw)

    @pytest.mark.parametrize("field", ["delta", "beta", "sigma", "dist0"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_rejects_parameters_that_are_not_real_numbers(self, field, value):
        # delta = True used to be read as 1: efm_bound(10, True, ...) gave 1.6875.
        kw = dict(delta=0.5, beta=0.5, sigma=1.0, dist0=1.0)
        kw[field] = value
        for bound in (lambda: optim.efm_bound(10, **kw),
                      lambda: optim.efm_bound_column(10, **kw),
                      lambda: optim.efm_bound_schedule([1.0, 0.5], **kw)):
            with pytest.raises(ValueError, match=f"{field} must be a real number"):
                bound()

    @pytest.mark.parametrize("field", ["delta", "beta", "sigma", "dist0"])
    def test_computes_in_double_precision(self, field):
        # A np.float32 parameter used to carry through in single precision:
        # efm_bound(100, np.float32(0.3), 0.9, 1.3, 2.1) gave np.float32(14.456494).
        kw = dict(delta=0.3, beta=0.9, sigma=1.3, dist0=2.1)
        f32 = {**kw, field: np.float32(kw[field])}
        f64 = {**kw, field: float(np.float32(kw[field]))}
        got, want = optim.efm_bound(100, **f32), optim.efm_bound(100, **f64)
        assert type(got) is float and got == want
        column = optim.efm_bound_column(3, **f32)
        assert column.tobytes() == optim.efm_bound_column(3, **f64).tobytes()
        got = optim.efm_bound_schedule([0.5, 0.4], **f32)
        assert type(got) is float and got == optim.efm_bound_schedule([0.5, 0.4], **f64)

    @pytest.mark.parametrize("field", ["sigma", "dist0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, *HUGE])
    def test_rejects_non_finite_sigma_and_dist0(self, field, value):
        # Both used to pass the sign check and come out as a nan or inf
        # bound; 10**400 raised OverflowError.
        kw = dict(delta=0.5, beta=0.5, sigma=1.0, dist0=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            optim.efm_bound(10, **kw)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            optim.efm_bound_column(10, **kw)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            optim.efm_bound_schedule([1.0, 0.5], **kw)

    @pytest.mark.parametrize("lams", [[], [[1.0, 0.5]]])
    def test_schedule_form_rejects_empty_or_non_vector_stepsizes(self, lams):
        with pytest.raises(ValueError, match="lams must be a nonempty 1-d sequence"):
            optim.efm_bound_schedule(lams, 0.5, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_schedule_form_rejects_non_finite_stepsizes(self, bad):
        # Both used to come out as a nan bound.
        with pytest.raises(ValueError, match="finite and positive"):
            optim.efm_bound_schedule([1.0, bad], 0.5, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("lams", [[0.01, 1.0, 5.0], [1.0, 0.5, 0.6], [1e-20, 5e-16]])
    def test_schedule_form_rejects_increasing_stepsizes(self, lams):
        # [0.01, 1.0, 5.0] used to give 7.54; the bound assumes lam_t nonincreasing.
        # [1e-20, 5e-16], a rise within the old 1e-15 slack, gave 5.0e14.
        with pytest.raises(ValueError, match="schedule must be nonincreasing"):
            optim.efm_bound_schedule(lams, 0.5, 0.5, 1.0, 1.0)
        # constant and decreasing schedules pass the same check
        optim.efm_bound_schedule([1.0, 1.0, 0.5], 0.5, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("T", [0, 1, 5000])
    def test_column_equals_per_row_bound(self, T):
        args = (0.5, 0.9, 2.0 ** 0.5 * 1.1, 1.7)
        column = optim.efm_bound_column(T, *args)
        expected = np.array([optim.efm_bound(t, *args) for t in range(T + 1)])
        assert column.shape == (T + 1,) and column.tobytes() == expected.tobytes()

    @settings(derandomize=True, max_examples=12, deadline=None)
    @example(20_000, 0.3, 0.5, 1.5, 2.0)
    @given(hs.integers(0, 20_000), hs.floats(1e-6, 1.0), hs.floats(0.0, 0.999),
           hs.floats(0.0, 10.0), hs.floats(0.0, 10.0))
    def test_column_equals_per_row_bound_at_random_parameters(self, T, delta, beta, sigma,
                                                              dist0):
        column = optim.efm_bound_column(T, delta, beta, sigma, dist0)
        expected = np.array([optim.efm_bound(t, delta, beta, sigma, dist0)
                             for t in range(T + 1)])
        assert column.shape == (T + 1,) and column.tobytes() == expected.tobytes()

    def test_column_domain(self):
        with pytest.raises(ValueError, match="T must be nonnegative"):
            optim.efm_bound_column(-1, 0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="sigma must be finite"):
            optim.efm_bound_column(3, 0.5, 0.5, math.nan, 1.0)

    @pytest.mark.parametrize("args, bits", [
        ((1.0 / np.sqrt(np.arange(101) + 1.0), 0.5, 0.3, 2.0, 1.0), "0x1.f492c0edcfbefp+2"),
        (([0.3, 0.2, 0.2, 0.1], 1.0, 0.0, 1.5, 0.7), "0x1.1e66666666666p+0"),
        (([1.0], 0.25, 0.9, 0.0, 3.0), "0x1.2000000000000p+2")])
    def test_schedule_form_returns_a_python_float(self, args, bits):
        # It used to return an np.float64 with these bits; efm_bound returns a float.
        value = optim.efm_bound_schedule(*args)
        assert type(value) is float and value.hex() == bits

    def test_schedule_form_dominated_by_special_case(self):
        # with lam_t = 1/sqrt(t+1), sum lam^2 <= 1 + log(T+1)
        for T in (0, 10, 500):
            lams = 1.0 / np.sqrt(np.arange(T + 1) + 1.0)
            a = optim.efm_bound_schedule(lams, 0.5, 0.3, 2.0, 1.0)
            b = optim.efm_bound(T, 0.5, 0.3, 2.0, 1.0)
            assert a <= b + 1e-12
