import json
import math
from pathlib import Path

import numpy as np
import pytest

from muonlab import cli, harness
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

    def test_run_bad_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "muon", "beta": 2.0,
                                   "schedule": {"kind": "invt"}, "T": 1,
                                   "init": {"kind": "cex1"}}))
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG

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
