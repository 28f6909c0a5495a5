import csv
import dataclasses
import inspect
import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from muonlab import cli, harness, linalg, norms, optim
from muonlab import counterexample as cex

# An integer too large for a float, of either sign, with short test ids.
HUGE = [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]


class TestConfig:
    def test_auto_c_by_style(self):
        base = {"method": "muon", "schedule": {"kind": "invt"}, "T": 1,
                "init": {"kind": "cex1"}, "beta": 0.2}
        assert harness.resolve_config({**base, "style": "cex1"})["c"] == 0.4
        assert abs(harness.resolve_config({**base, "style": "cex2"})["c"] - 0.3) < 1e-15
        e = harness.resolve_config({**base, "style": "appendix_e"})["c"]
        assert abs(e - 0.8 / 2.4) < 1e-15

    def test_missing_fields(self):
        with pytest.raises(harness.ConfigError):
            harness.resolve_config({"method": "muon"})
        with pytest.raises(harness.ConfigError):
            harness.resolve_config({"method": "bogus", "schedule": {"kind": "invt"},
                                    "T": 1, "init": {"kind": "cex1"}})
        with pytest.raises(harness.ConfigError):
            harness.resolve_config({"method": "muon", "schedule": {"kind": "bogus"},
                                    "T": 1, "init": {"kind": "cex1"}})

    BASE = {"method": "muon", "schedule": {"kind": "invt"}, "T": 1,
            "init": {"kind": "cex1"}}

    def test_rejects_efmuon_with_newton_schulz(self):
        with pytest.raises(harness.ConfigError, match="exact polar"):
            harness.resolve_config({**self.BASE, "method": "efmuon", "polar": "ns"})
        harness.resolve_config({**self.BASE, "method": "muon", "polar": "ns"})

    @pytest.mark.parametrize("method", ["muonmax", "efmuonmax", "efm"])
    def test_rejects_methods_a_run_cannot_take(self, method):
        # muonmax and efmuonmax need a ProductNormSpec point and used to fail
        # only after the run had started; "efm" is no longer a method.
        with pytest.raises(harness.ConfigError, match="a run takes one of") as exc:
            harness.resolve_config({**self.BASE, "method": method})
        assert all(name in str(exc.value) for name in cex.RUN_METHODS)

    def test_run_methods(self):
        assert cex.RUN_METHODS == ("specgd", "muon", "regmuon", "signgd",
                                   "signmomentum", "efmuon")
        for method in cex.RUN_METHODS:
            harness.run_experiment({**self.BASE, "method": method, "T": 3})

    @pytest.mark.parametrize("override, match", [
        ({"schedule": {}}, "schedule needs a 'kind' field"),
        ({"schedule": "invt"}, "schedule needs a 'kind' field"),
        ({"style": "bogus"}, "unknown style 'bogus'"),
        ({"c": 0.0}, r"c must lie in \(0, 1\)"),
        ({"c": 1.0}, r"c must lie in \(0, 1\)"),
        ({"c": 10**400}, r"c must lie in \(0, 1\)"),
        ({"c": -10**400}, r"c must lie in \(0, 1\)"),
        ({"beta": 10**400}, r"beta must lie in \[0, 1\)"),
        ({"beta": -10**400}, r"beta must lie in \[0, 1\)"),
        ({"T": -1}, "T must be nonnegative"),
        ({"seed": -3}, "seed must be nonnegative"),
        ({"seed": -3, "init": {"kind": "random"}}, "seed must be nonnegative"),
        ({"polar": "svd"}, "polar must be 'exact' or 'ns'"),
        ({"T": 2**53}, r"T must be below 2\*\*53"),
        ({"T": 10**400}, r"T must be below 2\*\*53"),
    ])
    def test_rejects_out_of_domain_values(self, override, match):
        with pytest.raises(harness.ConfigError, match=match):
            harness.resolve_config({**self.BASE, **override})

    @pytest.mark.parametrize("c", ["auto", 0.3])
    @pytest.mark.parametrize("style", ["bogus", None, ["cex1"]])
    def test_rejects_an_unknown_style_whatever_c_is(self, style, c):
        # With a number c the style used to go unread, and "bogus" was
        # recorded in the sidecar; a list style raised TypeError.
        with pytest.raises(harness.ConfigError) as exc:
            harness.resolve_config({**self.BASE, "style": style, "c": c})
        assert str(exc.value) == f"unknown style {style!r}"

    def test_accepts_T_below_2_53(self):
        assert harness.resolve_config({**self.BASE, "T": 2**53 - 1})["T"] == 2**53 - 1

    def test_refused_huge_integers_show_their_digit_count(self):
        # Their messages used to print every digit, and past 4300 digits the
        # repr itself raised in place of the ConfigError.
        for value, shown in ((10**5000, "an integer of 5001 digits"),
                             (-10**400, "a negative integer of 401 digits")):
            with pytest.raises(harness.ConfigError) as exc:
                harness.resolve_config({**self.BASE, "schedule": {"kind": "constant", "lam": value}})
            assert str(exc.value) == f"bad schedule spec: lam must be finite, got {shown}"
            with pytest.raises(harness.ConfigError, match=f"got {shown}$"):
                harness.run_experiment({**self.BASE, "init": value})

    def test_rejects_unknown_key(self):
        with pytest.raises(harness.ConfigError, match="unknown config keys"):
            harness.resolve_config({**self.BASE, "betta": 0.5})

    def test_rejects_string_track_average(self):
        with pytest.raises(harness.ConfigError, match="track_average"):
            harness.resolve_config({**self.BASE, "track_average": "false"})

    @pytest.mark.parametrize("key", ["m", "n", "seed", "T"])
    @pytest.mark.parametrize("value", [True, 2.0, "2", pytest.param(np.True_, id="np.True_")])
    def test_rejects_non_integer_sizes_and_seed(self, key, value):
        with pytest.raises(harness.ConfigError, match=key):
            harness.resolve_config({**self.BASE, key: value})

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_rejects_non_number_beta(self, value):
        with pytest.raises(harness.ConfigError, match="beta must be a number"):
            harness.resolve_config({**self.BASE, "beta": value})

    @pytest.mark.parametrize("value", ["0.1", False, "AUTO"])
    def test_rejects_non_number_c(self, value):
        with pytest.raises(harness.ConfigError, match="c must be a number"):
            harness.resolve_config({**self.BASE, "c": value})

    @pytest.mark.parametrize("value", ["0.2", True])
    def test_rejects_non_number_lam(self, value):
        with pytest.raises(harness.ConfigError, match="lam must be a number"):
            harness.resolve_config({**self.BASE, "schedule": {"kind": "constant", "lam": value}})

    @pytest.mark.parametrize("value", ["0.05", True])
    def test_rejects_non_number_base(self, value):
        with pytest.raises(harness.ConfigError, match="base must be a number"):
            harness.resolve_config(
                {**self.BASE, "schedule": {"kind": "adaptive_nuclear", "base": value}})

    @pytest.mark.parametrize("values", [["0.5", 0.25], [0.5, True], "0.5"])
    def test_rejects_non_number_table_values(self, values):
        with pytest.raises(harness.ConfigError, match="table value must be a number"):
            harness.resolve_config({**self.BASE, "schedule": {"kind": "table", "values": values}})

    def test_accepts_real_numbers(self):
        cfg = harness.resolve_config({**self.BASE, "beta": np.float64(0.5), "c": 0.25,
                                      "schedule": {"kind": "table", "values": [1, 0.5]}})
        assert cfg["beta"] == 0.5 and type(cfg["beta"]) is float
        assert cfg["c"] == 0.25
        assert harness.resolve_config({**self.BASE, "beta": 0})["beta"] == 0.0

    def test_accepts_every_preset_key(self):
        keys = set()
        for preset in harness.PRESETS.values():
            keys |= set(preset())
        assert keys <= harness.CONFIG_KEYS
        cfg = harness.resolve_config({**self.BASE, "m": np.int64(3), "seed": 4,
                                      "track_average": False})
        assert cfg["m"] == 3 and type(cfg["m"]) is int
        assert cfg["track_average"] is False
        cfg = harness.resolve_config({**self.BASE, "T": np.uint8(255), "n": np.array(3)})
        assert (cfg["T"], cfg["n"]) == (255, 3) and type(cfg["T"]) is type(cfg["n"]) is int

    @pytest.mark.parametrize("init, match", [
        ("cex1", "init must be an object"),
        ({"kind": "cex1", "r": "2.0"}, "r must be a number"),
        ({"kind": "cex1", "delta": True}, "delta must be a number"),
        ({"kind": "explicit", "diag": [1, 2, 3]}, "diag must be a list of two numbers"),
        ({"kind": "explicit", "diag": [1, "2"]}, "diag entry must be a number"),
        ({"kind": "random", "scale": True}, "scale must be a number"),
        ({"kind": "explicit", "matrix": [["1", "0"], ["0", "1"]]},
         "matrix entry must be a number, got '1'"),
        ({"kind": "explicit", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "shape mismatch"),
        ({"kind": "explicit"}, "explicit init needs 'matrix' or 'diag'"),
        ({"kind": "bogus"}, "unknown init kind 'bogus'"),
    ])
    def test_rejects_bad_init(self, init, match):
        with pytest.raises(harness.ConfigError, match=match):
            harness.run_experiment({**self.BASE, "init": init})

    @pytest.mark.parametrize("bound, match", [
        ({"delta": True}, "bound delta must be a number"),
        ({"sigma": "2"}, "bound sigma must be a number"),
        ([1], "bound must be an object"),
        (None, "bound must be an object"),
        ({"foo": 1}, r"bound has unknown keys \['foo'\]"),
        ({"delta": 2}, r"bound delta must lie in \(0, 1\]"),
        ({"delta": 10**400}, r"bound delta must lie in \(0, 1\]"),
        ({"delta": -10**400}, r"bound delta must lie in \(0, 1\]"),
        ({"sigma": -1.0}, "bound sigma must be finite and nonnegative"),
        ({"dist0": math.inf}, "bound dist0 must be finite and nonnegative"),
    ])
    def test_rejects_bad_bound(self, bound, match):
        cfg = {**harness.PRESETS["efm-appendixE"](), "T": 1, "bound": bound}
        with pytest.raises(harness.ConfigError, match=match):
            harness.run_experiment(cfg)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, *HUGE])
    @pytest.mark.parametrize("field, config", [
        ("lam", lambda v: {"schedule": {"kind": "constant", "lam": v}}),
        ("base", lambda v: {"schedule": {"kind": "adaptive_nuclear", "base": v}}),
        ("table value", lambda v: {"schedule": {"kind": "table", "values": [0.5, v]}}),
        ("r", lambda v: {"init": {"kind": "cex1", "r": v}}),
        ("delta", lambda v: {"init": {"kind": "cex1", "delta": v}}),
        ("scale", lambda v: {"init": {"kind": "random", "scale": v}}),
        ("diag entry", lambda v: {"init": {"kind": "explicit", "diag": [v, 0.5]}}),
        ("diag entry", lambda v: {"init": {"kind": "explicit", "diag": [0.5, v]}}),
        ("matrix entry", lambda v: {"init": {"kind": "explicit", "matrix": [[0.5, 0], [0, v]]}}),
        ("bound sigma", lambda v: {"bound": {"sigma": v}}),
        ("bound dist0", lambda v: {"bound": {"dist0": v}}),
    ], ids=["lam", "base", "table", "r", "delta", "scale", "diag0", "diag1", "matrix",
            "sigma", "dist0"])
    def test_rejects_non_finite_numbers(self, field, config, value):
        # JSON's NaN and Infinity used to run and write NaN or inf rows, a
        # 400-digit integer raised OverflowError (a matrix entry was refused
        # as not a number) and a non-finite matrix entry raised a bare ValueError.
        with pytest.raises(harness.ConfigError, match=f"{field} must be finite"):
            harness.run_experiment({**self.BASE, **config(value)})

    def test_bound_fields_override_defaults(self):
        cfg = {**harness.PRESETS["efm-appendixE"](), "T": 1,
               "bound": {"delta": 1, "dist0": np.float64(2.5)}}
        _, bound, rcfg = harness.run_experiment(cfg)
        assert rcfg["bound"] == {"delta": 1.0, "sigma": cex.lipschitz_bound(rcfg["c"]),
                                 "dist0": 2.5}
        assert all(type(v) is float for v in rcfg["bound"].values())
        assert bound[1] == optim.efm_bound(1, 1.0, rcfg["beta"], rcfg["bound"]["sigma"], 2.5)

    def test_accepts_numeric_init(self):
        for init in ({"kind": "cex1", "r": 2, "delta": 0.0},
                     {"kind": "explicit", "diag": [1, -0.5]},
                     {"kind": "explicit", "matrix": [[1, 0], [0, 2.5]]},
                     {"kind": "random", "scale": 0.5}):
            trace, _, _ = harness.run_experiment({**self.BASE, "init": init})
            assert len(trace) == 2

    def test_presets_resolve(self):
        for name, preset in harness.PRESETS.items():
            cfg = harness.resolve_config(preset())
            assert cfg["T"] == 5000
            assert cfg["beta"] == 0.9


class TestRunExperiment:
    def test_t_zero_single_row(self, tmp_path):
        cfg = harness.PRESETS["cex1-appendixE"]()
        cfg["T"] = 0
        trace, bound, rcfg = harness.run_experiment(cfg)
        assert len(trace) == 1
        out = tmp_path / "t0.csv"
        harness.write_csv(str(out), trace, bound)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(harness.CSV_COLUMNS)

    def test_csv_replay_against_closed_form(self, tmp_path):
        cfg = harness.PRESETS["cex1-appendixE"]()
        cfg["T"] = 200
        trace, bound, rcfg = harness.run_experiment(cfg)
        out = tmp_path / "replay.csv"
        harness.write_csv(str(out), trace, bound)
        rows = out.read_text().splitlines()[1:]
        data = np.array([[float(x) for x in row.split(",")] for row in rows])
        w11, w22 = data[:, 3], data[:, 4]
        from muonlab import optim
        _, _, init = cex.cex1_build(0.9, optim.InvT(), c=rcfg["c"], horizon=200)
        pred = cex.cex1_predicted_sequence(init, 200)
        np.testing.assert_allclose(w11, pred[:, 0], atol=1e-10)
        np.testing.assert_allclose(w22, pred[:, 1], atol=1e-10)

    def test_seventeen_digit_roundtrip(self, tmp_path):
        cfg = harness.PRESETS["cex1-appendixE"]()
        cfg["T"] = 5
        trace, bound, _ = harness.run_experiment(cfg)
        out = tmp_path / "digits.csv"
        harness.write_csv(str(out), trace, bound)
        row1 = out.read_text().splitlines()[1].split(",")
        assert float(row1[3]) == trace.w11[0]
        assert float(row1[2]) == trace.f[0]

    def test_bound_column_filled_for_ef_preset(self):
        cfg = harness.PRESETS["efm-appendixE"]()
        cfg["T"] = 10
        trace, bound, rcfg = harness.run_experiment(cfg)
        assert np.all(np.isfinite(bound))
        assert rcfg["bound"]["delta"] == 0.5
        sigma = cex.lipschitz_bound(rcfg["c"])
        assert abs(rcfg["bound"]["sigma"] - sigma) < 1e-15
        d0 = math.hypot(1 + math.log(2), 1 - math.log(2))
        assert abs(rcfg["bound"]["dist0"] - d0) < 1e-12

    def test_bound_column_equals_per_row_bound(self):
        # The column used to be filled by one efm_bound call per row.
        trace, bound, rcfg = harness.run_experiment(harness.PRESETS["efm-appendixE"]())
        b = rcfg["bound"]
        expected = np.array([optim.efm_bound(t, b["delta"], rcfg["beta"], b["sigma"], b["dist0"])
                             for t in range(rcfg["T"] + 1)])
        assert len(bound) == len(trace)
        assert bound.tobytes() == expected.tobytes()


def _per_row_csv(trace, bound):
    """The per-row, per-cell writer that write_csv replaced: the reference."""
    rows = [",".join(harness.CSV_COLUMNS)]
    for i in range(len(trace)):
        rows.append(",".join("%.17g" % v for v in (
            trace.t[i], trace.lam[i], trace.f[i], trace.w11[i], trace.w22[i],
            trace.sum_diag[i], trace.diff_diag[i], trace.grad_fro[i],
            trace.favg[i], bound[i],
        )))
    return "\n".join(rows) + "\n"


class _CountingTrace(optim.Trace):
    """Counts reads of the two derived columns."""

    @property
    def sum_diag(self):
        self.reads["sum_diag"] += 1
        return super().sum_diag

    @property
    def diff_diag(self):
        self.reads["diff_diag"] += 1
        return super().diff_diag


def _awkward_trace(cls=optim.Trace):
    values = np.array([
        np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
        0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0 * 1e300, np.nextafter(1.0, 2.0),
        1.7976931348623157e308, 123456789.12345679, -1e-5, 7.0,
    ])
    rng = np.random.default_rng(5)
    cols = {k: rng.permutation(values) for k in ("lam", "f", "w11", "w22", "grad_fro", "favg")}
    return cls(t=np.arange(values.size, dtype=float), **cols), rng.permutation(values)


class TestWriteCsv:
    def test_bytes_equal_per_row_writer(self, tmp_path):
        trace, bound = _awkward_trace()
        out = tmp_path / "awkward.csv"
        harness.write_csv(str(out), trace, bound)
        assert out.read_bytes() == _per_row_csv(trace, bound).encode("utf-8")
        assert "nan" in out.read_text() and "-inf" in out.read_text()

    def test_bytes_equal_per_row_writer_on_runs(self, tmp_path):
        cfg = {**harness.PRESETS["efm-appendixE"](), "T": 300}
        runs = [harness.run_experiment(cfg)[:2]]
        fn, W0, _ = cex.cex1_build(0.5, optim.InvT(), horizon=50)
        state = optim.OptimizerState(W=W0, beta=0.5, schedule=optim.InvT())
        runs.append((optim.run("muon", fn.oracle(), state, 50, track_average=False),
                     np.full(51, np.nan)))
        for i, (trace, bound) in enumerate(runs):
            out = tmp_path / f"run{i}.csv"
            harness.write_csv(str(out), trace, bound)
            assert out.read_bytes() == _per_row_csv(trace, bound).encode("utf-8")

    def test_derived_columns_read_once(self, tmp_path):
        # The per-row writer rebuilt both (T+1)-arrays for every row: O(T^2).
        from collections import Counter
        trace, bound = _awkward_trace(_CountingTrace)
        trace.reads = Counter()
        harness.write_csv(str(tmp_path / "count.csv"), trace, bound)
        assert trace.reads == {"sum_diag": 1, "diff_diag": 1}

    def test_rejects_bound_of_other_length(self, tmp_path):
        trace, bound = _awkward_trace()
        with pytest.raises(ValueError):
            harness.write_csv(str(tmp_path / "short.csv"), trace, bound[:-1])


def _assert_cells_match(values, columns=1):
    """``harness._csv_block`` writes each of ``values`` as ``"%.17g" % v``."""
    cells = np.asarray(values, dtype=float).reshape(-1, columns)
    got = harness._csv_block(cells).decode("ascii").replace("\n", ",").split(",")[:-1]
    for v, text in zip(cells.ravel().tolist(), got, strict=True):
        assert text == "%.17g" % v, (v.hex(), text)


def _ties(rng, n):
    """Doubles exactly halfway between two 17-digit decimals, ``n`` per
    exponent E in -6..14: odd j * 2**(E - 17) in [10**E, 10**(E + 1))."""
    out = []
    for e in range(-6, 15):
        scale = 2.0 ** (e - 17)
        lo, hi = math.ceil(10.0**e / scale), math.floor(10.0 ** (e + 1) / scale)
        j = rng.integers(lo // 2, (hi - 1) // 2, n) * 2 + 1
        out.append(j * scale)
    return np.concatenate(out)


class TestCsvCells:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(hs.lists(hs.floats(), min_size=1, max_size=40))
    def test_equals_percent_17g(self, values):
        # st.floats() draws NaN (with payloads and sign), infinities, zeros
        # and subnormals beside ordinary values.
        _assert_cells_match(values)

    def test_powers_of_ten_and_neighbours(self):
        p = np.array([10.0**e for e in range(-8, 18)])
        for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)):
            _assert_cells_match(np.concatenate([v, -v]))

    def test_edges_of_the_exact_range(self):
        v = []
        for edge in (1e-6, 1e15):
            for side in (0.0, np.inf):
                x = edge
                for _ in range(4):
                    x = np.nextafter(x, side)
                    v.append(x)
            v.append(edge)
        v = np.array(v)
        _assert_cells_match(np.concatenate([v, -v]), columns=2)

    def test_exact_ties_round_to_even(self):
        rng = np.random.default_rng(3)
        ints = rng.integers(10**14, 10**15, 500).astype(float)
        odd = (2 * rng.integers(0, 4, 500) + 1) / 8.0
        _assert_cells_match(ints + odd, columns=10)
        _assert_cells_match(_ties(rng, 20), columns=7)

    def test_awkward_trace_values(self):
        trace, bound = _awkward_trace()
        _assert_cells_match(np.concatenate([trace.f, bound]), columns=3)

    def test_one_block_per_1024_rows(self, tmp_path):
        # Rows split across blocks are written whole and in order.
        rng = np.random.default_rng(9)
        n = 2 * harness._BLOCK_ROWS + 5
        cols = {k: rng.standard_normal(n) * 10.0 ** rng.integers(-9, 17, n)
                for k in ("lam", "f", "w11", "w22", "grad_fro", "favg")}
        trace = optim.Trace(t=np.arange(n, dtype=float), **cols)
        bound = rng.standard_normal(n)
        out = tmp_path / "blocks.csv"
        harness.write_csv(str(out), trace, bound)
        assert out.read_bytes() == _per_row_csv(trace, bound).encode("utf-8")


def _grid_loop(rng, base, Up, Vp, samples):
    """The per-candidate loop that _least_frobenius_grid replaced: the reference."""
    k = Up.shape[1]
    best = np.inf
    for _ in range(samples):
        E = rng.uniform(-1.0, 1.0, (k, k))
        op = np.linalg.norm(E, 2)
        if op > 1.0:
            E = E / op
        cand = base + Up @ E @ Vp.T
        best = min(best, float(np.linalg.norm(cand)))
    return best


class TestLeastFrobeniusGrid:
    # The lmo suite clips its observed gap at 0.0, so its golden output cannot
    # see a changed draw order or a last-ulp change in a candidate's norm.
    @pytest.mark.parametrize("seed", [17, 2024])
    def test_equals_per_candidate_loop(self, seed):
        stacked, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            rank = int(stacked.integers(1, 3))
            assert rank == int(loop.integers(1, 3))
            U = np.linalg.qr(stacked.standard_normal((3, 3)))[0]
            V = np.linalg.qr(stacked.standard_normal((3, 3)))[0]
            loop.standard_normal((3, 3)), loop.standard_normal((3, 3))
            args = (U[:, :rank] @ V[:, :rank].T, U[:, rank:], V[:, rank:])
            got = harness._least_frobenius_grid(stacked, *args, 400)
            want = _grid_loop(loop, *args, 400)
            assert got == want
            assert stacked.bit_generator.state == loop.bit_generator.state


def _scalar_reduction(beta, schedule, a, U, b, w0, steps):
    """The per-trial loop suite_reduction ran before the lock-step engine:
    the iterates of step_signmomentum on f and of step_muon on f(diag W),
    then their final momenta."""
    vec = optim.FunctionOracle(lambda w: float(a @ np.abs(U @ w + b)),
                               lambda w: (a * np.sign(U @ w + b)) @ U)
    mat = optim.FunctionOracle(lambda W: vec.fn(np.diagonal(W)),
                               lambda W: np.diag(vec.subgrad(np.diagonal(W))))
    sm = optim.OptimizerState(W=w0.copy(), beta=float(beta), schedule=schedule)
    mu = optim.OptimizerState(W=np.diag(w0), beta=float(beta), schedule=schedule)
    ws, Ws = [], []
    for _ in range(steps):
        sm, _ = optim.step_signmomentum(sm, vec)
        mu, _ = optim.step_muon(mu, mat)
        ws.append(sm.W)
        Ws.append(mu.W)
    return np.array(ws), np.array(Ws), sm.M, mu.M


def _stacked(members):
    """One group of ``_reduction_lockstep`` arguments from per-trial
    (beta, schedule, a, U, b, w0) tuples that share one U shape."""
    ((_, *group),) = harness._grouped((m[3].shape, *m) for m in members)
    return group


class TestGrouped:
    def test_keys_in_first_appearance_and_members_in_draw_order(self):
        draws = [("b", 1.0), ("a", 2.0), ("b", 3.0), ("c", 4.0), ("a", 5.0), ("b", 6.0)]
        got = harness._grouped(iter(draws))
        assert [key for key, *_ in got] == ["b", "a", "c"]
        for key, values in got:
            assert values.tolist() == [v for k, v in draws if k == key]

    def test_stacks_each_field(self):
        rng = np.random.default_rng(0)
        draws = [((2, 3), rng.standard_normal((2, 3)), float(i), optim.InvT())
                 for i in range(3)]
        ((key, W, beta, schedules),) = harness._grouped(draws)
        assert key == (2, 3)
        assert W.shape == (3, 2, 3) and W.tobytes() == np.array([d[1] for d in draws]).tobytes()
        assert beta.dtype == float and beta.tolist() == [0.0, 1.0, 2.0]
        assert schedules.shape == (3,) and list(schedules) == [d[3] for d in draws]

    def test_group_of_one(self):
        A = np.arange(6.0).reshape(2, 3)
        got = harness._grouped([("x", A, 0.5), ("y", -A, 0.25)])
        assert [key for key, *_ in got] == ["x", "y"]
        for (_, W, beta), sign in zip(got, (1, -1)):
            assert W.shape == (1, 2, 3) and (W[0] == sign * A).all()
            assert beta.shape == (1,)
        assert harness._grouped([]) == []


def _per_trial_spec_draws(rng, spec, trials):
    """The reference for ``_spec_draws``: a per-trial draw of (shape, W),
    stacked by ``_grouped``."""
    if isinstance(spec, norms.ProductNormSpec):
        ends = np.cumsum([m * n for m, n in spec.layer_dims])
        Z = rng.standard_normal((trials, int(ends[-1]) + spec.k))
        mats = [Z[:, end - m * n:end].reshape(trials, m, n)
                for end, (m, n) in zip(ends, spec.layer_dims)]
        return [(mats, Z[:, ends[-1]:])]
    hi, dims = (21, 1) if isinstance(spec, norms._VECTOR_SPECS) else (8, 2)

    def draw():
        shape = tuple(int(rng.integers(2, hi)) for _ in range(dims))
        return shape, rng.standard_normal(shape)

    return [W for _, W in harness._grouped(draw() for _ in range(trials))]


def _stacks(group):
    """The arrays of one ``_spec_draws`` group: a stack, or a product point's
    layer stacks and theta."""
    if isinstance(group, np.ndarray):
        return [group]
    mats, theta = group
    return [*mats, theta]


class TestSpecDraws:
    """``_spec_draws`` makes the suites' RNG calls in the reference's order:
    the same groups in the same order, each member bit for bit in draw order,
    and the generator left in the same state."""

    @pytest.mark.parametrize("trials", [1, 7, 1000])
    @pytest.mark.parametrize("spec", [*harness._basic_specs(), harness._product_spec()],
                             ids=lambda spec: repr(spec))
    def test_equals_the_per_trial_draw(self, spec, trials):
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        got = harness._spec_draws(rng, spec, trials)
        expected = _per_trial_spec_draws(ref_rng, spec, trials)
        assert len(got) == len(expected)
        for group, ref in zip(got, expected):
            for a, b in zip(_stacks(group), _stacks(ref), strict=True):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestReductionLockstep:
    """Each member of the lock-step reduction run equals the scalar
    step_signmomentum and step_muon loops bit for bit."""

    STEPS = 60

    def check(self, group):
        # The iterates read only the sign of the momentum, so the final
        # momenta are compared too.
        got = harness._reduction_lockstep(*group, self.STEPS)
        for b, member in enumerate(zip(*group)):
            want = _scalar_reduction(*member, self.STEPS)
            got_b = (got[0][:, b], got[1][:, b], got[2][b], got[3][b])
            for g, w in zip(got_b, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def groups(self):
        rng = np.random.default_rng(11)
        return [group for _, *group
                in harness._grouped(harness._reduction_draw(rng) for _ in range(50))]

    def test_suite_groups(self):
        groups = self.groups()
        assert len(groups) > 5
        schedules = set()
        for group in groups[:6]:
            self.check(group)
            schedules |= {type(s) for s in group[1]}
        assert schedules == {optim.Constant, optim.InvT, optim.InvSqrtT}

    def test_beta_zero_member_and_group_of_one(self):
        group = list(zip(*max(self.groups(), key=lambda g: len(g[0]))))
        assert len(group) >= 3
        (beta0, *rest0), (_, *rest1) = group[0], group[1]
        mixed = [group[0], (0.0, *rest1), group[2], (0.0, *rest0[:4], -rest0[4])]
        assert beta0 != 0.0
        self.check(_stacked(mixed))
        self.check(_stacked(mixed[1:2]))
        self.check(_stacked(group[2:3]))

    def test_suite_reports_a_nan(self, monkeypatch):
        # A NaN iterate fails the check; max() over Python floats could
        # have dropped it.
        lockstep = harness._reduction_lockstep

        def with_nan(*args):
            vec, mat, m, M = lockstep(*args)
            vec[-1, 0, 0] = np.nan
            return vec, mat, m, M

        monkeypatch.setattr(harness, "_reduction_lockstep", with_nan)
        (result,) = harness.suite_reduction(trials=4, steps=3)
        assert not result.passed
        assert math.isnan(result.observed)


def _with_nan_member(func):
    """``func`` with the last member of its stacked result (its theta, for a
    product stack) set to NaN."""
    def wrapped(*args, **kwargs):
        out = func(*args, **kwargs)
        (out[1] if isinstance(out, tuple) else out)[-1] = np.nan
        return out
    return wrapped


class TestSuitesFailOnNaN:
    """A NaN reaches each suite's observed value, so its check fails; Python
    ``max`` would drop a NaN that does not come first."""

    def assert_nan_fails(self, results):
        assert results
        for r in results:
            assert not r.passed and math.isnan(r.observed), r.line()

    @pytest.mark.parametrize("kernel, check", [("polar_newton_schulz_stack", 0),
                                               ("polar_exact_stack", 1)])
    def test_polar(self, kernel, check, monkeypatch):
        monkeypatch.setattr(harness.linalg, kernel,
                            _with_nan_member(getattr(harness.linalg, kernel)))
        self.assert_nan_fails([harness.suite_polar(trials=6)[check]])

    def test_compressor(self, monkeypatch):
        monkeypatch.setattr(harness.norms, "compress_stack",
                            _with_nan_member(harness.norms.compress_stack))
        self.assert_nan_fails(harness.suite_compressor(trials=6))

    def test_lmo(self, monkeypatch):
        # A NaN from lmo_min_stack would be refused by primal_norm_stack.
        for kernel in ("dual_norm_stack", "primal_norm_stack"):
            monkeypatch.setattr(harness.norms, kernel,
                                _with_nan_member(getattr(harness.norms, kernel)))
        lmo_min, calls = harness.norms.lmo_min, []

        def second_call_nan(W, spec):  # the least-Frobenius trials call lmo_min
            calls.append(1)
            return lmo_min(W, spec) * (np.nan if len(calls) == 2 else 1.0)

        monkeypatch.setattr(harness.norms, "lmo_min", second_call_nan)
        self.assert_nan_fails(harness.suite_lmo(trials=6))

    def test_cex1(self, monkeypatch):
        predicted = cex.cex1_predicted_sequence

        def with_nan(init, T):
            pred = predicted(init, T)
            pred[-1, 1] = np.nan  # w22, the second of the two deviations
            return pred

        monkeypatch.setattr(cex, "cex1_predicted_sequence", with_nan)
        self.assert_nan_fails(harness.suite_cex1(T=20)[::2])

    @pytest.mark.parametrize("hit", ["nan", "zero"])
    def test_cex2(self, hit, monkeypatch):
        run, calls = optim.run, []

        def with_hit(method, oracle, state, *args, **kwargs):
            trace = run(method, oracle, state, *args, **kwargs)
            calls.append(1)
            if len(calls) % 3 == 0:  # the last of each group's three starts
                if hit == "nan":
                    trace.w11[-1] = np.nan
                else:  # q_T = 0 exactly, while p_T = p_0 stays exact
                    trace.w11[-1] = trace.w22[-1] = (state.W[0, 0] + state.W[1, 1]) / 2
            return trace

        monkeypatch.setattr(optim, "run", with_hit)
        results = harness.suite_cex2(trials=3, T=10)
        if hit == "nan":
            self.assert_nan_fails(results[::3])  # the invariant p
            assert not any(r.passed for r in results)  # q and the floor, by count
            return
        p, q, floor = results[::3], results[1::3], results[2::3]
        assert all(r.passed for r in p)
        assert all(r.name.startswith("q never hits zero") and not r.passed for r in q)
        assert all(" in 2/3 runs " in r.name and not r.passed for r in floor)


class TestPassRule:
    """A check passes exactly when ``observed <= required``; each check states
    its tolerance once, as ``required``."""

    SMALL = {"polar": {"trials": 6}, "reduction": {"trials": 4, "steps": 3},
             "compressor": {"trials": 6}, "lmo": {"trials": 2}, "cex1": {"T": 20},
             "cex2": {"trials": 3, "T": 10}, "ef-bound": {"T": 20}}

    def test_passed_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(harness.CheckResult)] == \
            ["name", "observed", "required"]
        assert not harness.CheckResult("nan", math.nan, math.inf).passed

    @pytest.mark.parametrize("suite", sorted(harness.SUITES))
    def test_every_suite_follows_the_rule(self, suite):
        results = harness.SUITES[suite](**self.SMALL[suite])
        assert results
        for r in results:
            assert r.passed is (r.observed <= r.required), r.line()
            assert r.line().startswith("PASS " if r.passed else "FAIL ")

    @pytest.mark.parametrize("suite, key", [(suite, "trials") for suite in sorted(
        harness.TRIAL_ARGS)] + [("reduction", "steps"), ("cex2", "T"), ("cex1", "T"),
                                ("ef-bound", "T")])
    @pytest.mark.parametrize("bad", [True, 0, -1, 2.5, "3"])
    def test_suites_refuse_a_bad_count(self, suite, key, bad):
        # Unparsed, True ran one trial, -1 none, 2.5 raised a bare TypeError,
        # steps=0 a ValueError from an empty reduction, cex2's T=0 one from an
        # empty Table and its T=-1 numpy's negative-dimension error.  cex1 and
        # ef-bound ran T=0 and raised three other messages for the rest.
        with pytest.raises(ValueError, match=f"^{key} must be a positive integer"):
            harness.SUITES[suite](**{**self.SMALL[suite], key: bad})

    def test_ef_bound_final_f_is_strictly_below(self, monkeypatch):
        run_experiment = harness.run_experiment
        for final, passed in ((0.05, False), (math.nextafter(0.05, 0.0), True)):
            def pinned(cfg, final=final):
                trace, bound, rcfg = run_experiment(cfg)
                trace.f[-1] = final
                return trace, bound, rcfg

            monkeypatch.setattr(harness, "run_experiment", pinned)
            result = harness.suite_ef_bound(T=20)[0]
            assert result.observed == final and result.passed is passed
            assert result.line().endswith("required <= 5.000e-02")


class TestCli:
    def test_bound_command(self, capsys):
        rc = cli.main(["bound", "--T", "0", "--delta", "1", "--beta", "0",
                       "--sigma", "2", "--dist0", "1"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 2.5

    def test_bound_domain_error(self, capsys):
        rc = cli.main(["bound", "--T", "0", "--delta", "2", "--beta", "0",
                       "--sigma", "2", "--dist0", "1"])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("field", ["sigma", "dist0"])
    def test_bound_whose_square_overflows_exits_config_error(self, field, capsys):
        # Both used to exit 1, the property-failure code, with an OverflowError traceback.
        values = {"delta": "0.5", "beta": "0.5", "sigma": "1", "dist0": "1", field: "1e200"}
        rc = cli.main(["bound", "--T", "10", *(a for k, v in values.items() for a in (f"--{k}", v))])
        assert rc == cli.EXIT_CONFIG
        assert f"error: {field} is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("delta, sigma", [("0.5", "1e154"), ("1e-300", "1e150")])
    def test_bound_whose_noise_factor_overflows_exits_config_error(self, delta, sigma, capsys):
        # Both used to print inf and exit 0.
        rc = cli.main(["bound", "--T", "10", "--delta", delta, "--beta", "0.5",
                       "--sigma", sigma, "--dist0", "1"])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: sigma is too large")

    def test_run_whose_bound_sigma_overflows_exits_config_error(self, tmp_path, capsys):
        # The efm-appendixE bound column used to be inf in every row.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound": {"sigma": 1e154}}))
        rc = cli.main(["run", "--preset", "efm-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: bound sigma is too large")
        assert not (tmp_path / "tr.csv").exists()

    def test_run_whose_bound_dist0_overflows_exits_config_error(self, tmp_path, capsys):
        # The dist0 that _resolve_bound computes from this start used to
        # raise OverflowError out of cli.main.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init": {"kind": "explicit",
                                            "matrix": [[1e200, 0], [0, 1e200]]}}))
        rc = cli.main(["run", "--preset", "efm-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "error: bound dist0 is too large" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

    def test_run_whose_bound_column_overflows_exits_before_the_run(self, tmp_path, capsys,
                                                                   monkeypatch):
        # sigma^2 times the coefficient is finite here, but the column
        # overflows from row 1: it used to be refused only after all T steps.
        def run(*args, **kwargs):
            raise AssertionError("the run started before the bound was checked")

        monkeypatch.setattr(optim, "run", run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bound": {"sigma": 3e153}, "T": 20}))
        rc = cli.main(["run", "--preset", "efm-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: bound overflows a float at these parameters\n"
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("override, method, kind", [
        ({"method": "muon"}, "muon", "invsqrt"),
        ({"schedule": {"kind": "constant", "lam": 0.9}}, "efmuon", "constant"),
    ], ids=["method", "schedule"])
    def test_run_whose_bound_does_not_fit_exits_config_error(self, override, method, kind,
                                                            tmp_path, capsys, monkeypatch):
        # Both used to run and fill the column with the EF-M bound for
        # lambda_t = 1/sqrt(t+1), which is not this run's bound.  The fit is
        # checked before the column, here two million rows, is built.
        def efm_bound_column(*args, **kwargs):
            raise AssertionError("the bound column was built before the fit was checked")

        monkeypatch.setattr(optim, "efm_bound_column", efm_bound_column)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 2_000_000, **override}))
        rc = cli.main(["run", "--preset", "efm-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: bound is the EF-M bound for lambda_t = 1/sqrt(t+1): it needs method "
            f"'efmuon' and schedule 'invsqrt', not method {method!r} and schedule {kind!r}\n")
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("w22, column", [(1e308, "sum_diag"), (-1e308, "diff_diag")])
    def test_run_from_a_start_whose_diagonal_sum_overflows_warns_nothing(self, w22, column,
                                                                         tmp_path, capsys):
        # Trace.sum_diag and diff_diag used to warn "overflow encountered in
        # add" (or subtract), a traceback under python -W error.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 5, "init": {"kind": "explicit",
                                                    "matrix": [[1e308, 0], [0, w22]]}}))
        out = tmp_path / "tr.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                           "--out", str(out)])
        assert rc == cli.EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 and rows[0][column] == "inf"

    def test_run_preset_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "tr.csv"
        cfg = {"T": 20}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["run", "--preset", "cex1-appendixE",
                       "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        sidecar = tmp_path / "tr.config.json"
        resolved = json.loads(sidecar.read_text())
        assert resolved["T"] == 20
        assert resolved["c"] != "auto"
        assert len(out.read_text().splitlines()) == 22

    def test_run_without_config_or_preset(self, capsys):
        assert cli.main(["run"]) == cli.EXIT_CONFIG

    def test_run_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err

    def test_run_string_number_exits_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": "0.5"}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "beta must be a number" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("method", ["muonmax", "efmuonmax", "efm"])
    def test_run_product_or_removed_method_exits_config_error(self, method, tmp_path, capsys):
        # muonmax and efmuonmax used to exit 2 only after the run had started.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": method}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "a run takes one of" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("args, init", [
        (["--seed", "-3"], "cex1"),
        (["--seed", "-3"], "random"),
        ([], "random"),  # the seed from the config
    ])
    def test_run_negative_seed_exits_config_error(self, args, init, tmp_path, capsys):
        # A cex1 run used to write the negative seed to its sidecar, and a
        # random one to die in numpy's seeding.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init": {"kind": init}, "seed": -3 if not args else 0}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv"), *args])
        assert rc == cli.EXIT_CONFIG
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("init", [
        "cex1",
        {"kind": "cex1", "r": "2.0"},
        {"kind": "explicit", "diag": [1, 2, 3]},
        {"kind": "random", "scale": True},
    ])
    def test_run_bad_init_exits_config_error(self, init, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"init": init}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "tr.config.json").exists()

    @pytest.mark.parametrize("dims", [{"m": 1}, {"n": 1}, {"m": 1, "n": 1}, {"m": 0}])
    def test_run_matrix_under_2x2_exits_config_error(self, dims, tmp_path, capsys):
        # An explicit diag on such a matrix used to crash with an IndexError
        # traceback and exit 1, the code of a failed property check.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**dims, "init": {"kind": "explicit", "diag": [1, 2]}}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: m and n must be at least 2\n"
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("bound", [{"delta": True}, {"sigma": "2"}, [1], {"foo": 1}])
    def test_run_bad_bound_exits_config_error(self, bound, tmp_path, capsys):
        # {"delta": true} and {"foo": 1} used to run; the other two died with
        # a bare TypeError or ValueError message that named no field.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 3, "bound": bound}))
        rc = cli.main(["run", "--preset", "efm-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: bound ")
        assert not (tmp_path / "tr.csv").exists()
        assert not (tmp_path / "tr.config.json").exists()

    @pytest.mark.parametrize("override, error", [
        ({"init": {"kind": "cex1", "R": 2.0}}, "init 'cex1' has unknown keys ['R']"),
        ({"init": {"kind": "random", "scael": 5}}, "init 'random' has unknown keys ['scael']"),
        ({"init": {"kind": "explicit", "diag": [1, 2], "scale": 2}},
         "init 'explicit' has unknown keys ['scale']"),
        ({"init": {"kind": "explicit", "diag": [1, 2], "matrix": [[1, 0], [0, 2]]}},
         "explicit init needs 'matrix' or 'diag', and not both"),
        ({"schedule": {"kind": "constant", "lam": 0.1, "values": [0.5]}},
         "schedule 'constant' has unknown keys ['values']"),
        ({"schedule": {"kind": "table", "values": [0.5], "lam": 0.1}},
         "schedule 'table' has unknown keys ['lam']"),
        ({"schedule": {"kind": "adaptive_nuclear", "base": 0.05, "bsae": 1}},
         "schedule 'adaptive_nuclear' has unknown keys ['bsae']"),
        ({"schedule": {"kind": "invt", "lam": 0.1}}, "schedule 'invt' has unknown keys ['lam']"),
        ({"schedule": {"kind": "invsqrt", "base": 0.05, "x": 0}},
         "schedule 'invsqrt' has unknown keys ['base', 'x']"),
    ])
    def test_run_unknown_schedule_or_init_key_exits_config_error(
            self, override, error, tmp_path, capsys):
        # Each of these used to run: the unknown key was ignored, and an
        # explicit init with both a matrix and a diag took the matrix.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 3, **override}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("matrix", [[[1, 0], [0, True]], [[False, 0.5], [0, 1]]])
    def test_run_boolean_matrix_entry_exits_config_error(self, matrix, tmp_path, capsys):
        # [[1, 0], [0, true]] used to run with W22 = 1, as the mixed list
        # makes an int64 array; a diag entry of true was already refused.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 3, "init": {"kind": "explicit", "matrix": matrix}}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: matrix entry must be a number, got ")
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--dist0", "inf"),
                                             pytest.param("--T", "1" + "0" * 400, id="10**400")])
    def test_bound_non_finite_exits_config_error(self, flag, value, capsys):
        # --T 10**400 used to end in an OverflowError traceback and exit 1.
        argv = {"--T": "10", "--delta": "0.5", "--beta": "0.5", "--sigma": "1", "--dist0": "1"}
        argv[flag] = value
        rc = cli.main(["bound", *(x for kv in argv.items() for x in kv)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert f"{flag[2:]} must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("override", [
        {"schedule": {"kind": "constant", "lam": math.inf}},
        {"init": {"kind": "explicit", "diag": [math.nan, 0.5]}},
        {"init": {"kind": "cex1", "r": math.inf}},
        {"schedule": {"kind": "constant", "lam": 10**400}},
        {"init": {"kind": "explicit", "diag": [-10**400, 0.5]}},
    ])
    def test_run_non_finite_number_exits_config_error(self, override, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))  # JSON NaN / Infinity, or a 400-digit integer
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("preset", sorted(harness.PRESETS))
    @pytest.mark.parametrize("T", [pytest.param(2**53, id="2**53"),
                                   pytest.param(10**400, id="10**400")])
    def test_run_T_from_2_53_exits_config_error(self, preset, T, tmp_path, capsys):
        # A 400-digit T under cex1-appendixE used to run on past 60 s in
        # offline_stepsizes, and T = 10**13 under efm-appendixE failed to
        # allocate its stepsizes in a traceback.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": T}))
        start = time.perf_counter()
        rc = cli.main(["run", "--preset", preset, "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert time.perf_counter() - start < 1.0
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: T must be below 2**53, where the float t column stops being exact\n")
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("text, error", [
        (b'{"beta": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"beta": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["5001-digit integer", "bad UTF-8"])
    def test_run_unparsable_config_exits_config_error(self, text, error, tmp_path, capsys):
        # json.load's ValueError (not a JSONDecodeError) used to end in a
        # traceback and exit 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"error: cannot read config: {error}") and err.count("\n") == 1
        assert not (tmp_path / "tr.csv").exists()

    @pytest.mark.parametrize("where", ["run_experiment", "write_csv"])
    def test_run_that_cannot_allocate_exits_config_error(self, where, tmp_path, capsys,
                                                         monkeypatch):
        # Stands in for an allocation too large for the machine, which used to
        # end in an _ArrayMemoryError traceback and exit 1.
        def cannot_allocate(*args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(harness, where, cannot_allocate)
        rc = cli.main(["run", "--preset", "efm-appendixE", "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: cannot allocate: Unable to allocate 72.8 TiB for an array\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', '[["method", "muon"]]'])
    def test_run_config_not_an_object_exits_config_error(self, text, tmp_path, capsys):
        # The first two used to end in a traceback and exit 1; the third ran.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

    def test_run_unwritable_output_exits_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "tr.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 3}))
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("argv, message", [
        (["verify", "polar", "--trials", "2"], "error: numerical failure: diverged\n"),
        (["run", "--preset", "cex1-appendixE", "--polar", "ns"],
         "error: numerical failure: step t=0 failed: diverged\n"),
    ])
    def test_numerical_failure_exits_3(self, argv, message, tmp_path, capsys, monkeypatch):
        def diverged(A):
            raise linalg.NumericalError("diverged")

        monkeypatch.setattr(linalg, "_newton_schulz", diverged)
        monkeypatch.chdir(tmp_path)  # where run writes its default trace.csv
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == message
        assert not list(tmp_path.iterdir())

    def test_run_bad_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "muon", "beta": 2.0,
                                   "schedule": {"kind": "invt"}, "T": 1,
                                   "init": {"kind": "cex1"}}))
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("suite", ["polar", "reduction"])
    def test_verify_one_trial(self, suite, capsys):
        rc = cli.main(["verify", suite, "--trials", "1"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "FAIL" not in out and out.count("PASS") == len(harness.SUITES[suite](trials=1))

    def test_verify_small_suite(self, capsys):
        rc = cli.main(["verify", "reduction", "--trials", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    @pytest.mark.parametrize("suite", ["cex1", "ef-bound"])
    def test_verify_trials_rejected_without_trial_count(self, suite, capsys):
        # --trials used to reach these suites as the horizon T.
        rc = cli.main(["verify", suite, "--trials", "10"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert "no trial count" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", sorted(harness.SUITES))
    def test_verify_trials_accepted_exactly_where_the_suite_takes_trials(
            self, suite, monkeypatch, capsys):
        # The suite is swapped for a stub whose signature hides its own, as
        # perfbench's tracing wrappers do: TRIAL_ARGS was taken at import.
        takes = "trials" in inspect.signature(harness.SUITES[suite]).parameters
        calls = []
        monkeypatch.setitem(harness.SUITES, suite, lambda **kw: calls.append(kw) or [])
        rc = cli.main(["verify", suite, "--trials", "2"])
        if takes:
            assert (rc, calls) == (cli.EXIT_OK, [{"trials": 2}])
        else:
            assert (rc, calls) == (cli.EXIT_CONFIG, [])
            assert "no trial count" in capsys.readouterr().err

    def test_verify_trials_must_be_positive(self, capsys):
        assert cli.main(["verify", "polar", "--trials", "0"]) == cli.EXIT_CONFIG

    def test_verify_trials_sets_cex2_starts(self, capsys):
        rc = cli.main(["verify", "cex2", "--trials", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "in 1/1 runs" in out

    def test_verify_unknown_suite(self):
        with pytest.raises(SystemExit):
            cli.main(["verify", "nonsense"])


def _refusal(call) -> str:
    """The message of the ValueError that ``call()`` raises."""
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


def _run_refusal(tmp_path, capsys, override: dict) -> str:
    """The message ``muonlab run`` prints for a config with ``override``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TestConfig.BASE, **override}))
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "tr.csv")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG and err.startswith("error: ") and err.endswith("\n")
    assert not (tmp_path / "tr.csv").exists()
    return err[len("error: "):-1]


# The owners' one message for each parameter, the values each refuses, and
# every entry that takes the parameter: (the parameters it takes, a call).
OWNER_MESSAGES = {"beta": "beta must lie in [0, 1)", "c": "c must lie in (0, 1)",
                  "m": "m and n must be at least 2", "n": "m and n must be at least 2"}
OUT_OF_DOMAIN = [*(("beta", v) for v in (-0.1, 1.0, math.nan, 10**400, -10**400)),
                 *(("c", v) for v in (0.0, 1.0, -1.0, math.nan, 10**400)),
                 *(("m", v) for v in (1, 0, -3)), ("n", 1)]
DOMAIN_ENTRIES = {
    "OptimizerState": ({"beta"}, lambda kw: optim.OptimizerState(W=np.eye(2), **kw)),
    "cex1_build": ({"beta", "c", "m", "n"}, lambda kw: cex.cex1_build(
        **{"beta": 0.5, "schedule": optim.Constant(0.2), **kw})),
    "efm_bound": ({"beta"}, lambda kw: optim.efm_bound(10, 0.5, kw["beta"], 1.0, 1.0)),
    "efm_bound_column": ({"beta"},
                         lambda kw: optim.efm_bound_column(10, 0.5, kw["beta"], 1.0, 1.0)),
    "efm_bound_schedule": ({"beta"}, lambda kw: optim.efm_bound_schedule(
        [1.0, 0.5], 0.5, kw["beta"], 1.0, 1.0)),
    "KinkyFunction": ({"c", "m", "n"}, lambda kw: cex.KinkyFunction(**{"c": 0.3, **kw})),
    "lipschitz_bound": ({"c"}, lambda kw: cex.lipschitz_bound(kw["c"])),
    "resolve_config": ({"beta", "c", "m", "n"},
                       lambda kw: harness.resolve_config({**TestConfig.BASE, **kw})),
    "muonlab run": ({"beta", "c", "m", "n"}, None),
}


def _value_id(value) -> str:
    return {10**400: "10**400", -10**400: "-10**400"}.get(value, repr(value))


class TestDomainOwners:
    """beta's domain is checked by ``optim``, c's and the matrix shape's by
    ``counterexample``; every entry that takes one calls that one check, so
    each refuses the same values with the owner's one message."""

    @pytest.mark.parametrize("entry, field, value", [
        pytest.param(entry, field, value, id=f"{entry}-{field}={_value_id(value)}")
        for entry, (fields, _) in DOMAIN_ENTRIES.items()
        for field, value in OUT_OF_DOMAIN if field in fields])
    def test_every_entry_raises_the_owner_s_message(self, entry, field, value, tmp_path,
                                                    capsys):
        # cex1_build and KinkyFunction said "need m, n >= 2", cex1_build
        # refused a NaN or huge c as "need c < (1-beta)/(1+beta)".
        call = DOMAIN_ENTRIES[entry][1]
        if call is None:
            message = _run_refusal(tmp_path, capsys, {field: value})
        else:
            message = _refusal(lambda: call({field: value}))
        assert message == OWNER_MESSAGES[field]

    @pytest.mark.parametrize("kw", [{"beta": 1.0}, {"c": -1.0}, {"c": math.nan}, {"m": 1},
                                    {"n": 0}])
    def test_cex1_build_checks_before_it_computes_R(self, kw, monkeypatch):
        # c = -1.0 and m = 1 used to be refused only once R_0 .. R_horizon
        # were computed: 0.20 s and 0.13 s at a horizon of 10**7.
        def compute_R_sequence(schedule, T):
            raise AssertionError("R computed before the domain check")

        monkeypatch.setattr(cex, "compute_R_sequence", compute_R_sequence)
        field, = kw
        kw = {"beta": 0.5, "schedule": optim.InvT(), "horizon": 10**7, **kw}
        assert _refusal(lambda: cex.cex1_build(**kw)) == OWNER_MESSAGES[field]


class TestImportBoundary:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def loaded(self, module: str) -> set:
        """The muonlab modules a fresh interpreter holds after ``import <module>``."""
        code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'muonlab'))")
        done = subprocess.run([sys.executable, "-c", code, str(self.SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        return set(done.stdout.split())

    def test_the_package_loads_only_the_library(self):
        # The package used to import harness, so every import paid for it.
        library = {f"muonlab.{m}" for m in ("linalg", "norms", "optim", "counterexample")}
        loaded = self.loaded("muonlab")
        assert library <= loaded
        assert not {"muonlab.harness", "muonlab.cli"} & loaded

    def test_the_command_line_loads_the_harness(self):
        assert {"muonlab.harness", "muonlab.cli"} <= self.loaded("muonlab.cli")


class TestDeterminism:
    def test_preset_csv_digests(self, tmp_path):
        # The benchmark's record of the preset CSVs is the single source of
        # truth for their bytes.
        import hashlib
        expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                               / "expected.json").read_text())["preset_csv_sha256"]
        assert set(expected) == set(harness.PRESETS)
        for name, preset in harness.PRESETS.items():
            trace, bound, _ = harness.run_experiment(preset())
            out = tmp_path / f"{name}.csv"
            harness.write_csv(str(out), trace, bound)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == expected[name], name

    def test_identical_runs_byte_identical(self, tmp_path):
        import hashlib
        digests = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"T": 50}))
            rc = cli.main(["run", "--preset", "efm-appendixE",
                           "--config", str(cfg), "--out", str(out), "--seed", "7"])
            assert rc == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
