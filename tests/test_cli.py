import json

import pytest

from hrtwist.cli import ConfigError, ExperimentConfig, main


WB_PAIR = {
    "components": [{"family": "weibull", "shape": 0.5, "scale": 1.0,
                    "count": 2}],
    "thresholds_db": [15.0, 20.0],
    "samples_is": 20_000,
    "samples_naive": 20_000,
    "seed": 777,
}

LN_PAIR = {
    "components": [{"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0,
                    "count": 2}],
    "thresholds_db": [20.0],
    "samples_is": 20_000,
    "samples_naive": 20_000,
    "seed": 777,
}


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def run(tmp_path, command, raw, *extra):
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    return main([command, "--config", cfg, "--output", str(out)]
                + list(extra)), out


class TestConfigParsing:
    def test_count_replication(self):
        cfg = ExperimentConfig.from_dict(WB_PAIR)
        assert len(cfg.components) == 2
        assert cfg.components[0] is cfg.components[1] or (
            cfg.components[0].params == cfg.components[1].params)

    def test_hash_stable_under_key_order(self):
        reordered = dict(reversed(list(WB_PAIR.items())))
        assert (ExperimentConfig.from_dict(WB_PAIR).config_hash
                == ExperimentConfig.from_dict(reordered).config_hash)

    def test_both_threshold_forms_rejected(self):
        bad = dict(WB_PAIR, thresholds_linear=[10.0])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_missing_thresholds_rejected(self):
        bad = {k: v for k, v in WB_PAIR.items() if k != "thresholds_db"}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_bad_family_rejected(self):
        bad = dict(WB_PAIR, components=[{"family": "gamma", "shape": 0.5}])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(WB_PAIR, samples_is=0))

    def test_linear_thresholds_problems(self):
        raw = {k: v for k, v in LN_PAIR.items() if k != "thresholds_db"}
        raw["thresholds_linear"] = [100.0]
        cfg = ExperimentConfig.from_dict(raw)
        (gamma_db, problem), = cfg.problems()
        assert gamma_db == pytest.approx(20.0)
        assert problem.gamma == pytest.approx(100.0)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "none.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 1

    def test_invalid_config(self, tmp_path, capsys):
        bad = dict(WB_PAIR, components=[])
        assert run(tmp_path, "solve", bad)[0] == 1

    def test_theta_sweep_without_grid(self, tmp_path, capsys):
        assert run(tmp_path, "theta-sweep", WB_PAIR)[0] == 1


class TestSolveCommand:
    def test_writes_solution_report(self, tmp_path, capsys):
        code, out = run(tmp_path, "solve", WB_PAIR)
        assert code == 0
        report = json.loads((out / "solve.json").read_text())
        sols = report["solutions"]
        assert [s["gamma_db"] for s in sols] == [15.0, 20.0]
        assert sols[1]["objective"] == pytest.approx(10.0, rel=1e-10)
        assert sols[1]["theta_star"] == pytest.approx(0.8, rel=1e-10)
        assert "theta_star=" in capsys.readouterr().out


class TestDeterminism:
    def test_ccdf_byte_identical_across_runs_and_workers(self, tmp_path):
        cfg = write_config(tmp_path, LN_PAIR)
        outs = []
        for tag, extra in (("a", []), ("b", []), ("c", ["--workers", "4"])):
            out = tmp_path / tag
            assert main(["ccdf", "--config", cfg, "--output", str(out)]
                        + extra) == 0
            outs.append((out / "ccdf.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, LN_PAIR)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["ccdf", "--config", cfg, "--output", str(out1)])
        main(["ccdf", "--config", cfg, "--output", str(out2),
              "--seed", "999"])
        a = (out1 / "ccdf.csv").read_text()
        b = (out2 / "ccdf.csv").read_text()
        assert a != b
        assert "# seed=777" in a and "# seed=999" in b

    def test_header_metadata(self, tmp_path):
        code, out = run(tmp_path, "ccdf", LN_PAIR)
        text = (out / "ccdf.csv").read_text()
        assert text.startswith("# tool=hrtwist ")
        assert "# config_sha256=" in text


class TestFreqTable:
    def test_columns_and_consistency(self, tmp_path):
        code, out = run(tmp_path, "freq-table", LN_PAIR)
        assert code == 0
        lines = [l for l in (out / "freq_table.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "gamma_db,alpha_is,freq_is,freq_naive"
        gamma_db, alpha, f_is, f_mc = lines[1].split(",")
        assert int(f_is) > int(f_mc)
        assert 0.0 < float(alpha) < 1.0


class TestEfficiency:
    def test_k_column_positive(self, tmp_path):
        code, out = run(tmp_path, "efficiency", LN_PAIR)
        assert code == 0
        lines = [l for l in (out / "efficiency.csv").read_text().splitlines()
                 if not l.startswith("#")]
        row = lines[1].split(",")
        assert float(row[3]) > 1.0  # variance reduction at a rare threshold


class TestThetaSweep:
    def test_writes_per_threshold_files(self, tmp_path):
        raw = dict(WB_PAIR, thresholds_db=[20.0], samples_is=5_000,
                   theta_grid=[0.5, 0.7, 0.9])
        code, out = run(tmp_path, "theta-sweep", raw)
        assert code == 0
        text = (out / "theta_sweep_20dB.csv").read_text()
        assert "# theta_star=8.000000000000e-01" in text
        data = [l for l in text.splitlines() if not l.startswith("#")]
        # grid plus the inserted optimum
        assert len(data) == 1 + 4


class TestValidate:
    def test_pass_on_weibull_pair(self, tmp_path, capsys):
        raw = dict(WB_PAIR, thresholds_db=[10.0], samples_is=50_000,
                   samples_naive=50_000)
        code, _ = run(tmp_path, "validate", raw)
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_when_both_sides_underflow(self, tmp_path, capsys):
        # at 58 dB the Weibull pair's tail is below the smallest double
        raw = dict(WB_PAIR, thresholds_db=[58.0])
        code, _ = run(tmp_path, "validate", raw)
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL") and "oracle=0.000000e+00" in out

    def test_rejects_three_components(self, tmp_path, capsys):
        raw = dict(WB_PAIR, components=[{"family": "weibull", "shape": 0.5,
                                         "scale": 1.0, "count": 3}])
        code, _ = run(tmp_path, "validate", raw)
        assert code == 1


class TestNaiveCap:
    @pytest.mark.parametrize("command", ["ccdf", "freq-table", "validate"])
    def test_cap_without_allow_large(self, tmp_path, capsys, command):
        raw = dict(LN_PAIR, samples_naive=2_000_000, samples_is=1_000)
        code, out = run(tmp_path, command, raw)
        assert code == 0
        assert "capping samples_naive" in capsys.readouterr().err
