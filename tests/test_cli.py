import json
import math
import re

import pytest

from hrtwist.cli import ConfigError, ExperimentConfig, main

from outputs_digest import CASES, run_case


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


def data_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


class TestConfigParsing:
    def test_count_replication(self):
        cfg = ExperimentConfig.from_dict(WB_PAIR)
        for _, problem in cfg.problems:
            assert problem.n == 2
            assert problem.components[0] == problem.components[1]

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
        (gamma_db, problem), = cfg.problems
        assert gamma_db == pytest.approx(20.0)
        assert problem.gamma == pytest.approx(100.0)

    def test_whole_number_floats_accepted(self):
        # JSON writers emit 1e6 and 2.0 for whole numbers
        raw = dict(WB_PAIR, samples_is=1e6, samples_naive=2.0, seed=7.0,
                   components=[dict(WB_PAIR["components"][0], count=3.0)])
        cfg = ExperimentConfig.from_dict(raw)
        assert (cfg.samples_is, cfg.samples_naive, cfg.seed) == (10**6, 2, 7)
        assert all(type(v) is int for v in (cfg.samples_is, cfg.seed))
        assert cfg.problems[0][1].n == 3


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

    @pytest.mark.parametrize("command, change", [
        ("ccdf", {"theta_override": 1.0}),
        ("ccdf", {"theta_override": -0.1}),
        ("solve", {"thresholds_db": None, "thresholds_linear": [0.0]}),
        ("solve", {"components": [{"family": "weibull", "shape": 1.5,
                                   "scale": 1.0, "count": 2}]}),
        ("theta-sweep", {"theta_grid": [0.5, 1.2]}),
        ("efficiency", {"confidence_constant": -1.0}),
        ("ccdf", {"confidence_constant": -1.0}),
        ("ccdf", {"thresholds_db": [4000.0]}),
        ("solve", {"components": [{"family": "lognormal", "mu": math.nan,
                                   "sigma": 1.0, "count": 2}]}),
        ("solve", {"components": [{"family": "lognormal", "mu": math.inf,
                                   "sigma": 1.0, "count": 2}]}),
        ("ccdf", {"components": [{"family": "lognormal", "mu_db": math.nan,
                                  "sigma_db": 6.0, "count": 2}]}),
        ("ccdf", {"components": [{"family": "lognormal", "mu": 5.0,
                                  "sigma": 1.0, "mu_db": 0.0, "count": 2}]}),
        ("solve", {"components": ["weibull"]}),
        ("solve", {"components": [5]}),
        ("solve", {"components": {"family": "weibull", "shape": 0.5,
                                  "scale": 1.0, "count": 2}}),
        ("solve", {"components": [{"family": "weibull", "shape": 0.5,
                                   "scale": 1.0, "count": 2.7}]}),
        ("solve", {"components": [{"family": "weibull", "shape": 0.5,
                                   "scale": 1.0, "count": True}]}),
        ("ccdf", {"samples_is": 10.9}),
        ("ccdf", {"samples_naive": True}),
        ("ccdf", {"seed": 1.5}),
        ("ccdf", {"thresholds_db": "20"}),
        ("ccdf", {"thresholds_db": {"20": 1}}),
        ("ccdf", {"thresholds_db": [True]}),
        ("ccdf", {"thresholds_db": None, "thresholds_linear": "23"}),
        ("theta-sweep", {"theta_grid": {"0.5": 1}}),
        ("theta-sweep", {"theta_grid": [False]}),
        ("ccdf", {"theta_override": False}),
        ("ccdf", {"theta_override": "0.5"}),
        ("solve", {"components": [{"family": "weibull", "shape": 0.5,
                                   "scale": 1.0, "count": "2"}]}),
        ("ccdf", {"samples_is": "1000"}),
        ("ccdf", {"samples_naive": "1000"}),
        ("ccdf", {"seed": "7"}),
        ("efficiency", {"confidence_constant": "1.96"}),
        ("efficiency", {"confidence_constant": math.inf}),
        ("ccdf", {"components": [{"family": "weibull", "shape": 0.5,
                                  "scale": 1.0, "cont": 2}]}),
        ("ccdf", {"theta_overide": 0.5}),
        ("ccdf", {"thresholds_db": None, "thresholds_linear": [5e-324],
                  "components": [{"family": "weibull", "shape": 0.5,
                                  "scale": 1.0, "count": 3}]}),
        ("solve", {"components": [{"family": "lognormal", "mu": 0.0,
                                   "sigma": 1e-4, "count": 2}]}),
    ], ids=["theta-override-1", "theta-override-negative", "linear-zero",
            "weibull-shape-1.5", "theta-grid-1.2", "efficiency-confidence",
            "ccdf-confidence", "threshold-4000dB", "lognormal-mu-nan",
            "lognormal-mu-inf", "lognormal-mu-db-nan", "lognormal-lone-mu-db",
            "component-string", "component-number", "components-object",
            "count-2.7", "count-true", "samples-is-10.9", "samples-naive-true",
            "seed-1.5", "thresholds-string", "thresholds-object",
            "thresholds-true", "thresholds-linear-string", "theta-grid-object",
            "theta-grid-false", "theta-override-false", "theta-override-string",
            "count-string", "samples-is-string", "samples-naive-string",
            "seed-string", "confidence-string", "confidence-inf",
            "component-unknown-key", "unknown-key", "linear-subnormal",
            "lognormal-sigma-1e-4"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, command, change):
        raw = {k: v for k, v in {**WB_PAIR, "samples_is": 100,
                                 "samples_naive": 100, **change}.items()
               if v is not None}
        assert run(tmp_path, command, raw)[0] == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("change", [
        {"thresholds_db": [-200.0],
         "components": [{"family": "lognormal", "mu": 0.0, "sigma": 1.0,
                         "count": 2}]},
        {"components": [{"family": "lognormal", "mu": 0.0, "sigma": 30.0,
                         "count": 2}]},
    ], ids=["lognormal-1-at-m200dB", "lognormal-sigma-30"])
    def test_numerical_failure_is_exit_2(self, tmp_path, capsys, change):
        assert run(tmp_path, "solve", dict(WB_PAIR, **change))[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_config_directory_is_config_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_output_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        raw = dict(WB_PAIR, samples_is=100, samples_naive=100)
        code = main(["ccdf", "--config", write_config(tmp_path, raw),
                     "--output", str(taken)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, workers):
        code, _ = run(tmp_path, "ccdf", WB_PAIR, "--workers", str(workers))
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")


class TestSolveCommand:
    def test_writes_solution_report(self, tmp_path, capsys):
        code, out = run(tmp_path, "solve", WB_PAIR)
        assert code == 0
        report = json.loads((out / "solve.json").read_text())
        sols = report["solutions"]
        assert [s["gamma_db"] for s in sols] == [15.0, 20.0]
        assert sols[1]["objective"] == pytest.approx(10.0, rel=1e-10)
        assert sols[1]["theta_star"] == pytest.approx(0.8, rel=1e-10)
        # the problem's gamma and N, which the solution no longer carries
        assert (sols[1]["gamma"], sols[1]["n"]) == (pytest.approx(100.0), 2)
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

    def test_skips_threshold_where_estimate_is_one(self, tmp_path, capsys):
        # at -30 dB theta* clamps to 0; with this seed all 1,000 samples
        # exceed gamma, so alpha_is = 1
        raw = dict(WB_PAIR, thresholds_db=[-30.0, 20.0], samples_is=1_000)
        code, out = run(tmp_path, "efficiency", raw)
        assert code == 0
        assert "skipping gamma_db=-30: estimate is at least 1" in capsys.readouterr().err
        assert [float(r[0]) for r in data_rows(out / "efficiency.csv")] == [20.0]

    def test_one_is_sample_is_config_error(self, tmp_path, capsys, monkeypatch):
        # with this seed the single IS sample hits (alpha_is about 0.49), so
        # only the IS relative error, which needs two samples, is undefined
        from hrtwist import cli

        monkeypatch.setattr(cli, "is_estimate", None)  # nothing is sampled
        raw = dict(WB_PAIR, thresholds_db=[10.0], samples_is=1, seed=3)
        code, out = run(tmp_path, "efficiency", raw)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "config error: efficiency needs samples_is >= 2 ")
        assert not out.exists()


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

    def test_runs_on_the_requested_workers(self, tmp_path, monkeypatch):
        from hrtwist import estimators

        seen = []
        real = estimators.is_estimate

        def spy(*args, **kwargs):
            seen.append(kwargs.get("workers", 1))
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "is_estimate", spy)
        raw = dict(WB_PAIR, samples_is=40_000, theta_grid=[0.5, 0.9])
        csvs = {}
        for workers in (1, 2):
            seen.clear()
            (tmp_path / str(workers)).mkdir()
            code, out = run(tmp_path / str(workers), "theta-sweep", raw,
                            "--workers", str(workers))
            assert code == 0
            assert seen == [workers] * 6  # two thresholds, grid plus theta*
            csvs[workers] = {p.name: p.read_bytes()
                             for p in sorted(out.glob("*.csv"))}
        assert len(csvs[1]) == 2 and csvs[1] == csvs[2]

    @pytest.mark.parametrize("thresholds, clashes", [
        ([20.0, 20.0000001], ["theta_sweep_20dB.csv (gamma_db 20.0, 20.0000001)"]),
        ([20.0, 20.0], ["theta_sweep_20dB.csv (gamma_db 20.0, 20.0)"]),
        ([15.0, -1.5, 15.0, -1.5], ["theta_sweep_15dB.csv (gamma_db 15.0, 15.0)",
                                    "theta_sweep_m1p5dB.csv (gamma_db -1.5, -1.5)"]),
    ], ids=["rounds-equal", "repeated", "two-pairs"])
    def test_file_name_clash_is_config_error(self, tmp_path, capsys, monkeypatch,
                                             thresholds, clashes):
        from hrtwist import estimators

        monkeypatch.setattr(estimators, "is_estimate", None)  # nothing is sampled
        raw = dict(WB_PAIR, thresholds_db=thresholds, theta_grid=[0.5])
        code, out = run(tmp_path, "theta-sweep", raw)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert all(clash in err for clash in clashes)
        assert not out.exists()


class TestValidate:
    def test_pass_on_weibull_pair(self, tmp_path, capsys):
        raw = dict(WB_PAIR, thresholds_db=[10.0], samples_is=50_000,
                   samples_naive=50_000)
        code, _ = run(tmp_path, "validate", raw)
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_pass_when_theta_clamps_to_zero(self, tmp_path, capsys):
        # at -30 dB theta* clamps to 0, and with this seed all 1,000 IS
        # samples exceed gamma: alpha_is = 1 with SE 0, judged binomially
        raw = dict(WB_PAIR, thresholds_db=[-30.0], samples_is=1_000,
                   samples_naive=1_000)
        code, _ = run(tmp_path, "validate", raw)
        out = capsys.readouterr().out
        assert "is=1.000000e+00 (se=0.00e+00)" in out
        assert code == 0 and out.startswith("PASS")

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


class TestSharedPass:
    def test_tables_agree_on_alpha_is(self, tmp_path, capsys):
        by_theta = []
        for override in (None, 0.6):
            raw = dict(WB_PAIR, samples_is=5_000, samples_naive=5_000)
            if override is not None:
                raw["theta_override"] = override
            _, out = run(tmp_path, "ccdf", raw)
            ccdf = [r[2] for r in data_rows(out / "ccdf.csv")]
            _, out = run(tmp_path, "freq-table", raw)
            freq = [r[1] for r in data_rows(out / "freq_table.csv")]
            capsys.readouterr()
            run(tmp_path, "validate", raw)
            validate = re.findall(r" is=(\S+) ", capsys.readouterr().out)
            assert ccdf == freq
            assert [format(float(a), ".6e") for a in ccdf] == validate
            by_theta.append(ccdf)
        assert len(by_theta[0]) == 2
        assert all(a != b for a, b in zip(*by_theta))  # the override is used


class TestNaiveCount:
    @pytest.mark.parametrize("command", ["ccdf", "freq-table", "validate"])
    def test_runs_the_configured_count(self, tmp_path, capsys, monkeypatch,
                                       command):
        from hrtwist import cli

        counts = []
        real = cli.naive_mc

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            counts.append(result.sample_count)
            return result

        monkeypatch.setattr(cli, "naive_mc", spy)
        raw = dict(LN_PAIR, samples_naive=2_000_000, samples_is=1_000)
        code, out = run(tmp_path, command, raw)
        assert code == 0
        assert counts == [2_000_000]
        assert capsys.readouterr().err == ""


class TestWorkers:
    @pytest.mark.parametrize("command, raw", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_outputs_identical_for_any_worker_count(self, tmp_path, command,
                                                   raw):
        runs = []
        for workers in (1, 2):
            (tmp_path / str(workers)).mkdir()
            runs.append(run_case(main, command, raw, workers,
                                 tmp_path / str(workers)))
        assert runs[0][0] in (0, 1, 2)
        assert runs[0] == runs[1]
