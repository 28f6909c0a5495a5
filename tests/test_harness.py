import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from muonlab import cli, harness, optim
from muonlab import counterexample as cex


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
        assert all(name in str(exc.value) for name in harness.RUN_METHODS)

    def test_run_methods(self):
        assert harness.RUN_METHODS == ("specgd", "muon", "regmuon", "signgd",
                                       "signmomentum", "efmuon")
        for method in harness.RUN_METHODS:
            harness.run_experiment({**self.BASE, "method": method, "T": 3})

    def test_rejects_unknown_key(self):
        with pytest.raises(harness.ConfigError, match="unknown config keys"):
            harness.resolve_config({**self.BASE, "betta": 0.5})

    def test_rejects_string_track_average(self):
        with pytest.raises(harness.ConfigError, match="track_average"):
            harness.resolve_config({**self.BASE, "track_average": "false"})

    @pytest.mark.parametrize("key", ["m", "n", "seed", "T"])
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
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

    @pytest.mark.parametrize("init, match", [
        ("cex1", "init must be an object"),
        ({"kind": "cex1", "r": "2.0"}, "r must be a number"),
        ({"kind": "cex1", "delta": True}, "delta must be a number"),
        ({"kind": "explicit", "diag": [1, 2, 3]}, "diag must be a list of two numbers"),
        ({"kind": "explicit", "diag": [1, "2"]}, "diag entry must be a number"),
        ({"kind": "random", "scale": True}, "scale must be a number"),
        ({"kind": "explicit", "matrix": [["1", "0"], ["0", "1"]]}, "matrix entries"),
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
        ({"sigma": -1.0}, "bound sigma must be finite and nonnegative"),
        ({"dist0": math.inf}, "bound dist0 must be finite and nonnegative"),
    ])
    def test_rejects_bad_bound(self, bound, match):
        cfg = {**harness.PRESETS["efm-appendixE"](), "T": 1, "bound": bound}
        with pytest.raises(harness.ConfigError, match=match):
            harness.run_experiment(cfg)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, config", [
        ("lam", lambda v: {"schedule": {"kind": "constant", "lam": v}}),
        ("base", lambda v: {"schedule": {"kind": "adaptive_nuclear", "base": v}}),
        ("table value", lambda v: {"schedule": {"kind": "table", "values": [0.5, v]}}),
        ("r", lambda v: {"init": {"kind": "cex1", "r": v}}),
        ("delta", lambda v: {"init": {"kind": "cex1", "delta": v}}),
        ("scale", lambda v: {"init": {"kind": "random", "scale": v}}),
        ("diag entry", lambda v: {"init": {"kind": "explicit", "diag": [v, 0.5]}}),
        ("diag entry", lambda v: {"init": {"kind": "explicit", "diag": [0.5, v]}}),
    ], ids=["lam", "base", "table", "r", "delta", "scale", "diag0", "diag1"])
    def test_rejects_non_finite_numbers(self, field, config, value):
        # JSON's NaN and Infinity used to run and write NaN or inf rows.
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
        runs.append((optim.run_batch("muon", [fn], [state], 50)[0], np.full(51, np.nan)))
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


def _scalar_reduction(trial, steps):
    """The per-trial loop suite_reduction ran before the lock-step engine:
    the iterates of step_signmomentum on f and of step_muon on f(diag W),
    then their final momenta."""
    a, U, b = trial.a, trial.U, trial.b
    vec = optim.FunctionOracle(lambda w: float(a @ np.abs(U @ w + b)),
                               lambda w: (a * np.sign(U @ w + b)) @ U)
    mat = optim.FunctionOracle(lambda W: vec.fn(np.diagonal(W)),
                               lambda W: np.diag(vec.subgrad(np.diagonal(W))))
    sm = optim.OptimizerState(W=trial.w0.copy(), beta=trial.beta, schedule=trial.schedule)
    mu = optim.OptimizerState(W=np.diag(trial.w0), beta=trial.beta, schedule=trial.schedule)
    ws, Ws = [], []
    for _ in range(steps):
        sm, _ = optim.step_signmomentum(sm, vec)
        mu, _ = optim.step_muon(mu, mat)
        ws.append(sm.W)
        Ws.append(mu.W)
    return np.array(ws), np.array(Ws), sm.M, mu.M


class TestReductionLockstep:
    """Each member of the lock-step reduction run equals the scalar
    step_signmomentum and step_muon loops bit for bit, as TestRunBatch holds
    run_batch to optim.run."""

    STEPS = 60

    def check(self, trials):
        # The iterates read only the sign of the momentum, so the final
        # momenta are compared too.
        got = harness._reduction_lockstep(trials, self.STEPS)
        for b, trial in enumerate(trials):
            want = _scalar_reduction(trial, self.STEPS)
            got_b = (got[0][:, b], got[1][:, b], got[2][b], got[3][b])
            for g, w in zip(got_b, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def groups(self):
        trials = harness._reduction_trials(np.random.default_rng(11), 50)
        return [[trials[i] for i in idx] for idx in harness._group_by(t.U.shape for t in trials)]

    def test_suite_groups(self):
        groups = self.groups()
        assert len(groups) > 5
        schedules = set()
        for group in groups[:6]:
            self.check(group)
            schedules |= {type(t.schedule) for t in group}
        assert schedules == {optim.Constant, optim.InvT, optim.InvSqrtT}

    def test_beta_zero_member_and_group_of_one(self):
        group = max(self.groups(), key=len)
        assert len(group) >= 3
        mixed = [group[0], dataclasses.replace(group[1], beta=0.0), group[2],
                 dataclasses.replace(group[0], beta=0.0, w0=-group[0].w0)]
        self.check(mixed)
        self.check(mixed[1:2])
        self.check(group[2:3])

    def test_suite_reports_a_nan(self, monkeypatch):
        # A NaN iterate fails the check; max() over Python floats could
        # have dropped it.
        lockstep = harness._reduction_lockstep

        def with_nan(trials, steps):
            vec, mat, m, M = lockstep(trials, steps)
            vec[-1, 0, 0] = np.nan
            return vec, mat, m, M

        monkeypatch.setattr(harness, "_reduction_lockstep", with_nan)
        (result,) = harness.suite_reduction(trials=4, steps=3)
        assert not result.passed
        assert math.isnan(result.observed)


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

    @pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--dist0", "inf")])
    def test_bound_non_finite_exits_config_error(self, flag, value, capsys):
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
    ])
    def test_run_non_finite_number_exits_config_error(self, override, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))  # written as JSON NaN / Infinity
        rc = cli.main(["run", "--preset", "cex1-appendixE", "--config", str(cfg),
                       "--out", str(tmp_path / "tr.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "tr.csv").exists()

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
