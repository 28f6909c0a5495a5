import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from muonlab import counterexample as cex
from muonlab import linalg, norms, optim


def kinky_oracle(c=0.5):
    return cex.KinkyFunction(c=c).oracle()


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
            optim.AdaptiveNuclear(0.05).value(0)
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
        sch = optim.AdaptiveNuclear(0.1)
        assert abs(sch.value(3, momentum=np.diag([3.0, -4.0])) - 0.7) < 1e-15


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
)


class TestOfflineStepsizes:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_OFFLINE_SCHEDULES, hs.integers(0, 10), hs.integers(0, 12))
    def test_equals_value_comprehension(self, schedule, t0, n):
        # t0 and t0 + n fall before, inside and past a Table's end.
        got = optim.offline_stepsizes(schedule, t0, n)
        want = [schedule.value(t) for t in range(t0, t0 + n)]
        assert [type(v) for v in got] == [type(v) for v in want]
        assert np.array(got, float).tobytes() == np.array(want, float).tobytes()

    def test_adaptive_nuclear_raises_as_value_does(self):
        assert optim.offline_stepsizes(optim.AdaptiveNuclear(0.1), 3, 0) == []
        with pytest.raises(ValueError, match="momentum"):
            optim.offline_stepsizes(optim.AdaptiveNuclear(0.1), 3, 2)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="t0"):
            optim.offline_stepsizes(optim.Table((0.1, 0.2)), -1, 2)


class TestOptimizerState:
    @pytest.mark.parametrize("t", [-1, 1.5, True])
    def test_rejects_t_that_is_not_a_nonnegative_integer(self, t):
        # t = -1 used to raise ZeroDivisionError in run under InvT and
        # InvSqrtT, and a Table read its last stepsize first.
        with pytest.raises(ValueError, match="nonnegative integer"):
            optim.OptimizerState(W=np.eye(2), schedule=optim.InvT(), t=t)

    def test_accepts_numpy_integer_t(self):
        assert optim.OptimizerState(W=np.eye(2), t=np.int64(3)).t == 3


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

    def test_sign_steps(self):
        oracle = optim.FunctionOracle(lambda w: 0.0, lambda w: np.zeros_like(w))
        st = state(np.array([1.0, -1.0]))
        st2, _ = optim.step_signgd(st, oracle)
        np.testing.assert_array_equal(st2.W, st.W)

        oracle = cex.KinkyFunction(c=0.5).diag_oracle()
        st = state(np.array([2.0, 1.0]), schedule=optim.Constant(0.1))
        st2, info = optim.step_signgd(st, oracle)
        np.testing.assert_allclose(st2.W, [1.9, 1.1], atol=1e-15)
        np.testing.assert_allclose(info.grad, [1.5, -0.5])

    def test_signmomentum_beta_zero_is_signgd(self):
        oracle = cex.KinkyFunction(c=0.4).diag_oracle()
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
        # A KinkyOracle would take run's float loop, which calls no entry.
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

    def test_noisy_iterates_do_not_depend_on_track_average(self):
        def noisy_run(track_average):
            oracle = optim.NoisyOracle(kinky_oracle(0.3), noise_std=0.5, seed=4)
            st = state(np.diag([1.0, -0.5]), beta=0.5, schedule=optim.InvSqrtT())
            return optim.run("muon", oracle, st, 200, track_average=track_average)

        on, off = noisy_run(True), noisy_run(False)
        for col in ("lam", "f", "w11", "w22", "grad_fro"):
            np.testing.assert_array_equal(getattr(on, col), getattr(off, col))
        assert np.all(np.isfinite(on.favg)) and np.all(np.isnan(off.favg))

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


def assert_same_trace(a, b):
    """Equal in every column, bit for bit, NaN in the same places."""
    for col in TRACE_COLUMNS:
        x, y = getattr(a, col), getattr(b, col)
        assert x.shape == y.shape, col
        assert np.array_equal(x, y, equal_nan=True), col


def mixed_batch(seed, n=15, shape=(2, 2)):
    """Members with mixed c, beta (0 included) and schedules."""
    rng = np.random.default_rng(seed)
    # Diagonals of special starts: on the kink w1 = w2, and non-finite ones,
    # which the scalar run carries along without an error.
    special = {3: (0.7, 0.7), 4: (np.nan, 1.0), 9: (np.inf, np.inf), 10: (np.inf, -np.inf)}
    schedules = [optim.Constant(0.1), optim.InvT(),
                 optim.Table(tuple(rng.uniform(0.01, 0.3, 40))), optim.AdaptiveNuclear(0.05)]
    fns, states = [], []
    for b in range(n):
        W0 = rng.standard_normal(shape)
        if b in special:
            W0 = np.zeros(shape)
            W0[0, 0], W0[1, 1] = special[b]
        # Member 6 has beta = 0, so its scalar run never reads this M.
        M0 = np.full(shape, np.inf) if b == 6 else None
        fns.append(cex.KinkyFunction(c=float(rng.uniform(0.05, 0.95)), m=shape[0], n=shape[1]))
        states.append(optim.OptimizerState(
            W=W0, beta=(0.0, 0.5, 0.9)[b % 3], schedule=schedules[b % 4], M=M0))
    return fns, states


# The rules run's float loop takes on a KinkyOracle: all but the product ones.
DIAGONAL_METHODS = tuple(name for name, rule in optim.RULES.items() if rule.lmo != "product")


def trace_bytes(tr):
    return tuple(getattr(tr, col).tobytes() for col in TRACE_COLUMNS)


def general_oracle(fn, selection="zero"):
    """fn's oracle as a FunctionOracle, which run's float loop does not take."""
    return optim.FunctionOracle(fn.value, lambda W: fn.subgradient(W, selection))


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
    """(method, KinkyFunction, selection, state factory, T, track_average)."""
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

    return (draw(hs.sampled_from(DIAGONAL_METHODS)), fn,
            draw(hs.sampled_from(("zero", "plus", "minus"))), state0,
            draw(hs.integers(0, 30)), draw(hs.booleans()))


# The non-finite starts make the general loop's numpy warn where the float
# loop is silent; the values are the same.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDiagonalRun:
    """run's float loop on a KinkyOracle against its general loop."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(diagonal_runs())
    def test_equals_general_loop_bit_for_bit(self, case):
        method, fn, selection, state0, T, track_average = case
        with counting_steps() as calls:
            fast = optim.run(method, fn.oracle(selection), state0(), T, track_average)
        assert not calls  # all T steps ran in the float loop
        general = optim.run(method, general_oracle(fn, selection), state0(), T, track_average)
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

    # Schedule numbers of other real types than float: both loops and
    # run_batch compute with the float they are stored as.
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
            (batch,) = optim.run_batch(method, [fn], [state0()], 60)
        assert not calls
        expected = trace_bytes(fast)
        assert trace_bytes(batch) == expected
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


def result_or_error(fn):
    """fn()'s trace bytes, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared with the scalar runs'
        return type(exc), str(exc)


def _changed(state0, change):
    """A factory of state0()'s with ``change`` applied."""
    def make():
        st = state0()
        if change == "overflowing Table":
            st.schedule = optim.Table((1e308, 1e308))
        elif change == "non-diagonal M":
            st.M[0, 1] = 0.5
        elif change == "non-finite M":
            st.M[1, 1] = np.inf
        return st
    return make


@hs.composite
def batches(draw):
    """(method, [(KinkyFunction, state factory)], T).

    The members are diagonal_runs' functions and starts; their method,
    selection, T and track_average are not used.  Some get a Table whose
    steps overflow, or an M the float loop refuses.
    """
    members = []
    for _, fn, _, state0, _, _ in draw(hs.lists(diagonal_runs(), min_size=1, max_size=6)):
        change = draw(hs.sampled_from((None, None, "overflowing Table", "non-diagonal M",
                                       "non-finite M")))
        members.append((fn, _changed(state0, change)))
    return draw(hs.sampled_from(DIAGONAL_METHODS)), members, draw(hs.integers(0, 30))


class TestRunBatch:
    """run_batch against [run(..., track_average=False)] for each member."""

    # Members that go through run's general loop make numpy warn on
    # non-finite values; the lock-step engine is silent.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(batches())
    def test_equals_scalar_runs_bit_for_bit(self, case):
        method, members, T = case

        def scalar_runs():
            return [trace_bytes(optim.run(method, fn.oracle(), state0(), T, track_average=False))
                    for fn, state0 in members]

        def batch():
            return [trace_bytes(tr) for tr in optim.run_batch(
                method, [fn for fn, _ in members], [state0() for _, state0 in members], T)]

        with counting_steps() as scalar_calls:
            expected = result_or_error(scalar_runs)
        with counting_steps() as batch_calls:
            assert result_or_error(batch) == expected
        # Members the float loop runs to the end make no step calls.
        assert len(batch_calls) == len(scalar_calls)

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    @pytest.mark.parametrize("shape", ((2, 2), (3, 4)))
    def test_members_equal_scalar_runs(self, method, shape):
        fns, states = mixed_batch(5, shape=shape)
        T = 120
        traces = optim.run_batch(method, fns, states, T)
        assert len(traces) == len(states)
        for fn, st, tr in zip(fns, states, traces):
            assert_same_trace(tr, optim.run(method, fn.oracle(), st, T, track_average=False))

    @pytest.mark.parametrize("method", DIAGONAL_METHODS)
    def test_non_diagonal_member_runs_through_run(self, method):
        fns, states = mixed_batch(6, n=4)
        states[2].M = np.array([[0.3, -1.2], [0.8, 0.1]])
        T = 60
        expected = [optim.run(method, fn.oracle(), st, T, track_average=False)
                    for fn, st in zip(fns, states)]
        with counting_steps() as calls:
            traces = optim.run_batch(method, fns, states, T)
        assert len(calls) == T  # the non-diagonal member's steps, and no others
        for tr, ref in zip(traces, expected):
            assert_same_trace(tr, ref)

    @pytest.mark.parametrize("method", ("muon", "regmuon"))
    @pytest.mark.parametrize("schedule", (optim.Constant(0.1), optim.AdaptiveNuclear(0.05)))
    @pytest.mark.parametrize("M0", (np.diag([np.inf, 1.0]),
                                    np.array([[1.0, np.nan], [0.0, 1.0]])))
    def test_non_finite_member_raises_as_scalar_run(self, method, schedule, M0):
        fn = cex.KinkyFunction(c=0.3)
        bad = optim.OptimizerState(W=np.eye(2), beta=0.5, schedule=schedule, M=M0)
        with pytest.raises(Exception) as scalar:
            optim.run(method, fn.oracle(), bad, 5)
        good = optim.OptimizerState(W=np.eye(2), beta=0.5, schedule=schedule)
        with pytest.raises(type(scalar.value)) as batch:
            optim.run_batch(method, [fn, fn], [good, bad], 5)
        assert type(batch.value) is type(scalar.value)
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("method", ("muonmax", "efmuonmax", "efm", "nope"))
    def test_unsupported_method(self, method):
        # The product rules raise as run raises: these states have no
        # ProductNormSpec.  Unknown names raise before any member runs.
        fns, states = mixed_batch(7, n=2)
        with pytest.raises(ValueError) as scalar:
            optim.run(method, fns[0].oracle(), states[0], 3)
        with pytest.raises(ValueError) as batch:
            optim.run_batch(method, fns, states, 3)
        assert str(batch.value) == str(scalar.value)

    def test_any_polar_schedule_and_start_equal_scalar_runs(self):
        # The Newton-Schulz polar, a schedule subclass, InvSqrtT and a start
        # at t = 2, next to a plain member.
        fn = cex.KinkyFunction(c=0.3)

        def states():
            return [state(np.diag([1.0, -0.5]), beta=0.5, **kw) for kw in (
                {}, dict(polar=linalg.polar_newton_schulz), dict(schedule=HalvingConstant(0.1)),
                dict(schedule=optim.InvSqrtT()), dict(t=2))]

        for method in DIAGONAL_METHODS:
            traces = optim.run_batch(method, [fn] * 5, states(), 20)
            for st, tr in zip(states(), traces):
                assert_same_trace(tr, optim.run(method, fn.oracle(), st, 20, track_average=False))

    def test_malformed_input(self):
        fn = cex.KinkyFunction(c=0.3)
        with pytest.raises(ValueError, match="KinkyFunction"):
            optim.run_batch("muon", [kinky_oracle()], [state(np.eye(2))], 3)
        with pytest.raises(ValueError, match="2 functions but 1 states"):
            optim.run_batch("muon", [fn, fn], [state(np.eye(2))], 3)
        with pytest.raises(ValueError, match="T must be nonnegative"):
            optim.run_batch("muon", [fn], [state(np.eye(2))], -1)
        assert optim.run_batch("muon", [], [], 3) == []
        # A 3 x 3 state on a 2 x 2 function raises as its run raises.
        with pytest.raises(ValueError) as scalar:
            optim.run("muon", fn.oracle(), state(np.eye(3)), 3)
        with pytest.raises(ValueError) as batch:
            optim.run_batch("muon", [fn], [state(np.eye(3))], 3)
        assert str(batch.value) == str(scalar.value)

    def test_zero_steps(self):
        fns, states = mixed_batch(8, n=3)
        for method in DIAGONAL_METHODS:
            for fn, st, tr in zip(fns, states, optim.run_batch(method, fns, states, 0)):
                assert_same_trace(tr, optim.run(method, fn.oracle(), st, 0, track_average=False))


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

    @pytest.mark.parametrize("field", ["sigma", "dist0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_sigma_and_dist0(self, field, value):
        # Both used to pass the sign check and come out as a nan or inf bound.
        kw = dict(delta=0.5, beta=0.5, sigma=1.0, dist0=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            optim.efm_bound(10, **kw)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            optim.efm_bound_schedule([1.0, 0.5], **kw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_schedule_form_rejects_non_finite_stepsizes(self, bad):
        # Both used to come out as a nan bound.
        with pytest.raises(ValueError, match="finite and positive"):
            optim.efm_bound_schedule([1.0, bad], 0.5, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("lams", [[0.01, 1.0, 5.0], [1.0, 0.5, 0.6]])
    def test_schedule_form_rejects_increasing_stepsizes(self, lams):
        # [0.01, 1.0, 5.0] used to give 7.54; the bound assumes lam_t nonincreasing.
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

    def test_column_domain(self):
        with pytest.raises(ValueError, match="T must be nonnegative"):
            optim.efm_bound_column(-1, 0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="sigma must be finite"):
            optim.efm_bound_column(3, 0.5, 0.5, math.nan, 1.0)

    def test_schedule_form_dominated_by_special_case(self):
        # with lam_t = 1/sqrt(t+1), sum lam^2 <= 1 + log(T+1)
        for T in (0, 10, 500):
            lams = 1.0 / np.sqrt(np.arange(T + 1) + 1.0)
            a = optim.efm_bound_schedule(lams, 0.5, 0.3, 2.0, 1.0)
            b = optim.efm_bound(T, 0.5, 0.3, 2.0, 1.0)
            assert a <= b + 1e-12
