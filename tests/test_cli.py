import argparse
import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hrtwist
from hrtwist import cli, estimators
from hrtwist.cli import (COMMANDS, MAX_COMPONENTS, MAX_WORKERS, ConfigError,
                         ExperimentConfig, main)

from conftest import WB_PAIR_TAIL_20DB
from outputs_digest import CASES, CONFIGS, run_case


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

    def test_sample_words_stay_below_2_63(self):
        # a run draws N words per sample, and the pair has N = 2
        cfg = ExperimentConfig.from_dict(dict(WB_PAIR, samples_is=2 ** 62 - 1))
        assert cfg.samples_is == 2 ** 62 - 1
        with pytest.raises(ConfigError, match=re.escape(
                "samples_naive 4611686018427387904 with 2 components "
                "draws 2^63 words or more")):
            ExperimentConfig.from_dict(dict(WB_PAIR, samples_naive=2 ** 62))

    def test_hash_stable_under_key_order(self):
        reordered = dict(reversed(list(WB_PAIR.items())))
        assert (ExperimentConfig.from_dict(WB_PAIR).config_hash
                == ExperimentConfig.from_dict(reordered).config_hash)

    def test_missing_thresholds_rejected(self):
        # and every other required key, each named in the message
        for key in ("thresholds_db", "components", "samples_is",
                    "samples_naive", "seed"):
            bad = {k: v for k, v in WB_PAIR.items() if k != key}
            with pytest.raises(ConfigError) as info:
                ExperimentConfig.from_dict(bad)
            assert str(info.value) == f"missing config key(s) ['{key}']"

    def test_bad_family_rejected(self):
        # a family that is not a string is unknown too
        for family in ("gamma", ["weibull"]):
            bad = dict(WB_PAIR, components=[{"family": family, "shape": 0.5}])
            with pytest.raises(ConfigError) as info:
                ExperimentConfig.from_dict(bad)
            assert str(info.value) == f"unknown distribution family: {family!r}"

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(WB_PAIR, samples_is=0))

    def test_whole_number_floats_accepted(self):
        # JSON writers emit 1e6 and 2.0 for whole numbers
        raw = dict(WB_PAIR, samples_is=1e6, samples_naive=2.0, seed=7.0,
                   components=[dict(WB_PAIR["components"][0], count=3.0)])
        cfg = ExperimentConfig.from_dict(raw)
        assert (cfg.samples_is, cfg.samples_naive, cfg.seed) == (10**6, 2, 7)
        assert all(type(v) is int for v in (cfg.samples_is, cfg.seed))
        assert cfg.problems[0][1].n == 3

    def test_max_components_accepted(self):
        # the bound counts every component, whatever its family
        spec = dict(WB_PAIR["components"][0], count=MAX_COMPONENTS - 1)
        cfg = ExperimentConfig.from_dict(dict(
            WB_PAIR, components=[spec, {"family": "lognormal", "mu": 0.0,
                                        "sigma": 1.0}]))
        assert cfg.problems[0][1].n == MAX_COMPONENTS

    def test_mixed_lognormal_spelling_names_both(self):
        spec = {"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0,
                "mu": 0.0, "sigma": 1.3815510557964275}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(dict(LN_PAIR, components=[spec]))
        message = str(info.value)
        assert all(part in message for part in
                   ("('mu', 'sigma')", "('mu_db', 'sigma_db')", repr(spec)))

    def test_readme_example_parses(self):
        cfg = ExperimentConfig.from_dict(json.loads(readme_block("json")))
        assert [gamma_db for gamma_db, _ in cfg.problems] == [15, 20, 25, 30]
        assert cfg.theta_grid == (0.5, 0.6, 0.7, 0.8, 0.9)


def readme_block(language):
    """The README's one fenced code block in `language`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block, = re.findall(rf"```{language}\n(.*?)```", readme, re.S)
    return block


def test_readme_library_example_runs(capsys):
    names = {}
    exec(readme_block("python"), names)
    assert names["sol"].theta_star == pytest.approx(0.8, rel=1e-10)
    r = names["r"]
    assert abs(r.alpha_hat - names["oracle"]) <= 3.0 * r.std_error
    assert capsys.readouterr().out.split() == [
        repr(r.alpha_hat), repr(r.std_error), str(r.hit_frequency)]


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
        ("solve", {"thresholds_db": [-4000.0]}),  # gamma underflows to 0
        ("solve", {"components": [{"family": "weibull", "shape": 1.5,
                                   "scale": 1.0, "count": 2}]}),
        ("theta-sweep", {"theta_grid": [0.5, 1.2]}),
        ("ccdf", {"thresholds_db": [4000.0]}),
        ("solve", {"components": [{"family": "lognormal", "mu": math.nan,
                                   "sigma": 1.0, "count": 2}]}),
        ("solve", {"components": [{"family": "lognormal", "mu": math.inf,
                                   "sigma": 1.0, "count": 2}]}),
        ("ccdf", {"components": [{"family": "lognormal", "mu_db": math.nan,
                                  "sigma_db": 6.0, "count": 2}]}),
        ("ccdf", {"components": [{"family": "lognormal", "mu": 5.0,
                                  "sigma": 1.0, "mu_db": 0.0, "count": 2}]}),
        ("ccdf", {"components": [{"family": "weibull", "shape": "0.5",
                                  "scale": 1.0, "count": 2}]}),
        ("ccdf", {"components": [{"family": "weibull", "shape": 0.5,
                                  "scale": True, "count": 2}]}),
        ("ccdf", {"components": [{"family": "weibull", "shape": 0.5,
                                  "scale": "1e0", "count": 2}]}),
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
        ("theta-sweep", {"theta_grid": {"0.5": 1}}),
        ("theta-sweep", {"theta_grid": [False]}),
        ("ccdf", {"theta_override": False}),
        ("ccdf", {"theta_override": "0.5"}),
        ("solve", {"components": [{"family": "weibull", "shape": 0.5,
                                   "scale": 1.0, "count": "2"}]}),
        ("ccdf", {"samples_is": "1000"}),
        ("ccdf", {"samples_naive": "1000"}),
        ("ccdf", {"seed": "7"}),
        ("ccdf", {"components": [{"family": "weibull", "shape": 0.5,
                                  "scale": 1.0, "cont": 2}]}),
        ("ccdf", {"theta_overide": 0.5}),
        ("ccdf", {"thresholds_db": [-3233.0],  # gamma 5e-324, subnormal
                  "components": [{"family": "weibull", "shape": 0.5,
                                  "scale": 1.0, "count": 3}]}),
        ("solve", {"components": [{"family": "lognormal", "mu": 0.0,
                                   "sigma": 1e-4, "count": 2}]}),
        # Philox keys on 64 bits, so these would alias seeds in range
        ("ccdf", {"seed": 2 ** 63}),
        ("ccdf", {"seed": -2 ** 63 - 1}),
        # N M words in a run, 2^63 or more
        ("ccdf", {"samples_is": 1e30}),
        ("ccdf", {"samples_naive": 2 ** 62}),
        # the bound is on the running total of the counts
        ("solve", {"components": [{"family": "weibull", "shape": 0.5,
                                   "scale": 1.0, "count": 1000},
                                  {"family": "lognormal", "mu": 0.0,
                                   "sigma": 1.0, "count": 25}]}),
    ], ids=["theta-override-1", "theta-override-negative", "linear-zero",
            "weibull-shape-1.5", "theta-grid-1.2", "threshold-4000dB",
            "lognormal-mu-nan", "lognormal-mu-inf", "lognormal-mu-db-nan",
            "lognormal-lone-mu-db", "weibull-shape-string", "weibull-scale-true",
            "weibull-scale-string", "component-string", "component-number",
            "components-object", "count-2.7", "count-true", "samples-is-10.9",
            "samples-naive-true", "seed-1.5", "thresholds-string",
            "thresholds-object", "thresholds-true", "theta-grid-object",
            "theta-grid-false", "theta-override-false", "theta-override-string",
            "count-string", "samples-is-string", "samples-naive-string",
            "seed-string", "component-unknown-key", "unknown-key",
            "linear-subnormal", "lognormal-sigma-1e-4", "seed-2^63",
            "seed-below-2^63", "samples-is-1e30", "samples-naive-2^62",
            "components-past-1024"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, command, change):
        raw = {**WB_PAIR, "samples_is": 100, "samples_naive": 100, **change}
        assert run(tmp_path, command, raw)[0] == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("raw, kind", [
        ("abc", "str"), ([], "list"), (5, "int"), (None, "NoneType"),
    ], ids=["string", "array", "number", "null"])
    def test_config_not_an_object_is_named(self, tmp_path, capsys, raw, kind):
        assert run(tmp_path, "ccdf", raw)[0] == 1
        assert capsys.readouterr().err == (
            f"config error: config must be a JSON object, got {kind}\n")

    @pytest.mark.parametrize("key, value", [
        ("thresholds_linear", [10.0, 100.0]), ("confidence_constant", 1.96),
    ], ids=["thresholds-linear", "confidence-constant"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key, value):
        # thresholds are given in dB only, and the confidence constant is 1.96
        raw = {**WB_PAIR, "samples_is": 100, "samples_naive": 100, key: value}
        assert run(tmp_path, "ccdf", raw)[0] == 1
        assert capsys.readouterr().err == (
            f"config error: unknown config key(s) ['{key}']\n")

    def test_component_count_is_bounded_before_the_laws_are_built(
            self, tmp_path, capsys):
        # the shape is invalid too: code that built this law, and so perhaps
        # its 10^9 copies, before bounding the count fails on the shape
        spec = {"family": "weibull", "shape": 1.5, "scale": 1.0, "count": 1e9}
        assert run(tmp_path, "solve", dict(WB_PAIR, components=[spec]))[0] == 1
        assert capsys.readouterr().err == (
            f"config error: a config takes at most {MAX_COMPONENTS} "
            f"components, and count 1000000000 of {spec} goes past it\n")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "CFG", "--workers", "abc"],
        ["sovle", "--config", "CFG"],
        # ccdf writes their tables
        ["freq-table", "--config", "CFG"],
        ["efficiency", "--config", "CFG"],
        ["solve", "--config", "CFG", "--seed", "5"],
        ["solve", "--config", "CFG", "--output"],
        ["solve"],
    ], ids=["workers-abc", "unknown-command", "freq-table-command",
            "efficiency-command", "seed-flag", "output-no-value", "no-config"])
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv):
        config = write_config(tmp_path, WB_PAIR)
        assert main([config if arg == "CFG" else arg for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "--workers" in capsys.readouterr().out

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, WB_PAIR)
        argv = ["solve", "--config", config, "--output", str(tmp_path / "out")]
        assert main(argv) == 0

        def no_build(*args, **kwargs):
            raise AssertionError("main built its parser again")

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", no_build)
        assert main(argv) == 0
        assert main(["solve", "--config", config, "--workers", "abc"]) == 1
        assert "invalid int value" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"a": "\xff"}')
        assert main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, workers):
        code, _ = run(tmp_path, "ccdf", WB_PAIR, "--workers", str(workers))
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")

    # a run starts a thread per chunk up to --workers, so these tests stop
    # at parse or at the sampling entry and never start a thread
    @pytest.mark.parametrize("workers", [MAX_WORKERS + 1, 5000])
    def test_workers_past_the_bound_is_config_error(self, tmp_path, capsys,
                                                    monkeypatch, workers):
        def no_sampling(*args):
            raise AssertionError("a run sampled")

        monkeypatch.setattr(estimators, "_run", no_sampling)
        raw = dict(WB_PAIR, samples_is=10 ** 8)
        code, out = run(tmp_path, "ccdf", raw, "--workers", str(workers))
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: --workers must lie in [1, {MAX_WORKERS}], "
            f"got {workers}\n")
        assert not out.exists()

    def test_workers_at_the_bound_reach_sampling(self, tmp_path, monkeypatch):
        class Sampled(Exception):
            pass

        def spy(problem, theta, sample_count, seed, stream_id, workers):
            raise Sampled(workers)

        monkeypatch.setattr(estimators, "_run", spy)
        with pytest.raises(Sampled) as info:
            run(tmp_path, "ccdf", WB_PAIR, "--workers", str(MAX_WORKERS))
        assert info.value.args == (MAX_WORKERS,)


class TestSolveCommand:
    def test_writes_solution_report(self, tmp_path, capsys):
        code, out = run(tmp_path, "solve", WB_PAIR)
        assert code == 0
        report = json.loads((out / "solve.json").read_text())
        sols = report["solutions"]
        assert [s["gamma_db"] for s in sols] == [15.0, 20.0]
        assert sols[1]["objective"] == pytest.approx(10.0, rel=1e-10)
        assert sols[1]["theta_star"] == pytest.approx(0.8, rel=1e-10)
        assert sols[1]["clamped"] is False and isinstance(sols[1]["x_star"], list)
        # the problem's gamma and N, which the solution no longer carries
        assert (sols[1]["gamma"], sols[1]["n"]) == (pytest.approx(100.0), 2)
        assert "theta_star=" in capsys.readouterr().out
        # three lognormal laws reach the root finder: at 30 dB the minimizer
        # puts rising-branch mass on the two lesser coordinates
        code, out = run(tmp_path, "solve", dict(CONFIGS["ln3"], thresholds_db=[30.0]))
        assert code == 0
        (sol,) = json.loads((out / "solve.json").read_text())["solutions"]
        assert 0.0 < sol["theta_star"] < 1.0
        assert sorted(sol["x_star"])[0] > 0.0


def test_module_entry_point_runs_main(tmp_path):
    # `python -m hrtwist.cli` in a fresh interpreter passes main's exit code
    # on and writes the bytes of an in-process run
    src = str(Path(hrtwist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_config(tmp_path, CONFIGS["mixed"])

    def module(command, out):
        return subprocess.run(
            [sys.executable, "-m", "hrtwist.cli", command, "--config", cfg,
             "--output", str(tmp_path / out)],
            capture_output=True, text=True, timeout=120, env=env)

    proc = module("ccdf", "module")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["ccdf", "--config", cfg, "--output", str(tmp_path / "main")]) == 0
    assert ((tmp_path / "module" / "ccdf.csv").read_bytes()
            == (tmp_path / "main" / "ccdf.csv").read_bytes())
    # the tables' former commands are gone: a config error
    proc = module("efficiency", "refused")
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: ")


def test_digest_tool_runs_each_case_once():
    # tests/outputs_digest.py, run in a fresh interpreter on its first case
    # alone: one digest line for the case, then the total line; the values
    # mode on one tree finds no number that differs
    src = str(Path(hrtwist.__file__).resolve().parents[1])
    script = ("import sys, outputs_digest as d; d.CASES[1:] = []; "
              "sys.exit(d.main(sys.argv[1:]))")

    def digest(*args):
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              cwd=Path(__file__).parent, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert f"hrtwist from {Path(src) / 'hrtwist'}" in proc.stderr
        return proc.stdout.splitlines()

    one, total = digest(src)
    assert re.fullmatch(r"[0-9a-f]{16}  solve-wb2", one)
    assert re.fullmatch(r"total [0-9a-f]{16}", total)
    (values,) = digest("--values", src, src)
    assert values.startswith("0 numbers or texts differ")


def _numpy_env(disabled: str = "") -> dict:
    """This environment with numpy's `disabled` CPU features, and no
    others, turned off."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return env


@functools.cache
def _digest_total(disabled: str = "") -> str:
    """The total line of tests/outputs_digest.py over every case, in a
    fresh interpreter, with numpy's `disabled` CPU features turned off."""
    src = str(Path(hrtwist.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "outputs_digest.py", src],
                          cwd=Path(__file__).parent, env=_numpy_env(disabled),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_digest_total_is_one_on_both_dispatch_paths():
    # numpy picks a SIMD path by CPU, and exp's last bit with it.  Turning
    # off the host's dispatched features above X86_V3 stands in for a CPU
    # without them: AVX2's path in place of AVX-512's
    script = ("from numpy._core._multiarray_umath import __cpu_dispatch__, "
              "__cpu_features__ as has\n"
              "above = __cpu_dispatch__[__cpu_dispatch__.index('X86_V3') + 1:] "
              "if 'X86_V3' in __cpu_dispatch__ else []\n"
              "print(' '.join(f for f in above if has.get(f)))")
    proc = subprocess.run([sys.executable, "-c", script], env=_numpy_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    disabled = proc.stdout.strip()
    if not disabled:
        pytest.skip("numpy dispatches to no feature above X86_V3 on this host, "
                    "so it has no second path to compare")
    assert _digest_total(disabled) == _digest_total()


def test_digest_total_is_the_committed_one():
    # tests/DIGEST holds the total and the numpy and scipy versions it was
    # recorded with; other versions may round differently
    import numpy
    import scipy

    recorded = dict(line.split(" ", 1) for line in
                    (Path(__file__).parent / "DIGEST").read_text().splitlines())
    installed = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if {k: recorded[k] for k in installed} != installed:
        pytest.skip(f"tests/DIGEST was recorded with numpy {recorded['numpy']} and "
                    f"scipy {recorded['scipy']}; this host has numpy "
                    f"{installed['numpy']} and scipy {installed['scipy']}")
    assert _digest_total() == f"total {recorded['total']}"


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

    @pytest.mark.parametrize("seeds", [(777, 999), (-1, -5)],
                             ids=["positive", "negative"])
    def test_config_seed_changes_output(self, tmp_path, seeds):
        outs = []
        for seed in seeds:
            (tmp_path / str(seed)).mkdir()
            code, out = run(tmp_path / str(seed), "ccdf", dict(LN_PAIR, seed=seed))
            assert code == 0
            assert f"# seed={seed}\n" in (out / "ccdf.csv").read_text()
            outs.append(data_rows(out / "ccdf.csv"))
        assert outs[0] != outs[1]

    def test_header_metadata(self, tmp_path):
        code, out = run(tmp_path, "ccdf", LN_PAIR)
        text = (out / "ccdf.csv").read_text()
        assert text.startswith("# tool=hrtwist ")
        assert "# config_sha256=" in text


class TestFreqTable:
    def test_columns_and_consistency(self, tmp_path):
        code, out = run(tmp_path, "ccdf", LN_PAIR)
        assert code == 0
        lines = [l for l in (out / "freq_table.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "gamma_db,alpha_is,freq_is,freq_naive"
        gamma_db, alpha, f_is, f_mc = lines[1].split(",")
        assert int(f_is) > int(f_mc)
        assert 0.0 < float(alpha) < 1.0


class TestEfficiency:
    def test_k_column_positive(self, tmp_path):
        code, out = run(tmp_path, "ccdf", LN_PAIR)
        assert code == 0
        lines = [l for l in (out / "efficiency.csv").read_text().splitlines()
                 if not l.startswith("#")]
        row = lines[1].split(",")
        assert float(row[3]) > 1.0  # variance reduction at a rare threshold

    def test_columns_follow_from_the_ccdf_run(self, tmp_path):
        # one ccdf run writes both tables from the same alpha_is; at -30 dB
        # theta* clamps to 0, so the IS weights are the hit indicators, and
        # at 52 dB se_is is about 3e-174, whose square underflows
        raw = CONFIGS["wb2"]
        m, m_naive = raw["samples_is"], raw["samples_naive"]
        assert run(tmp_path, "ccdf", raw)[0] == 0
        ccdf = data_rows(tmp_path / "out" / "ccdf.csv")
        rows = data_rows(tmp_path / "out" / "efficiency.csv")
        assert [r[0] for r in rows] == [r[0] for r in ccdf]
        for (_, _, alpha, _, se_is), row in zip(ccdf, rows):
            alpha, se_is = float(alpha), float(se_is)
            rel_naive, rel_is, k = map(float, row[1:])
            assert rel_naive == pytest.approx(
                1.96 * math.sqrt(alpha * (1 - alpha)) / (math.sqrt(m_naive) * alpha),
                rel=1e-12)
            assert rel_is == pytest.approx(1.96 * se_is / alpha, rel=1e-11)
            assert se_is > 0.0
            assert k == pytest.approx(
                (alpha / se_is) * ((1 - alpha) / se_is) / m, rel=1e-11)
        assert float(rows[0][3]) == pytest.approx((m - 1) / m, rel=1e-12)

    def test_skips_threshold_where_estimate_is_one(self, tmp_path, capsys):
        # at -30 dB theta* clamps to 0; with this seed all 1,000 samples
        # exceed gamma, so alpha_is = 1
        raw = dict(WB_PAIR, thresholds_db=[-30.0, 20.0], samples_is=1_000)
        code, out = run(tmp_path, "ccdf", raw)
        assert code == 0
        assert "skipping gamma_db=-30: estimate is at least 1" in capsys.readouterr().err
        assert [float(r[0]) for r in data_rows(out / "efficiency.csv")] == [20.0]
        # the other two tables keep the threshold
        for name in ("ccdf.csv", "freq_table.csv"):
            assert [float(r[0]) for r in data_rows(out / name)] == [-30.0, 20.0]

    def test_one_is_sample_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a parse rule on every command: the standard error of one IS
        # sample is 0, and the IS relative error is undefined
        from hrtwist import cli

        monkeypatch.setattr(cli, "is_estimate", None)  # nothing is sampled
        raw = dict(WB_PAIR, samples_is=1, theta_grid=[0.5])
        for command in COMMANDS:
            code, out = run(tmp_path, command, raw)
            assert code == 1
            assert capsys.readouterr().err == (
                "config error: samples_is must be at least 2 and "
                "samples_naive at least 1\n")
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
        from hrtwist import cli

        seen = []
        real = cli.is_estimate

        def spy(*args, **kwargs):
            seen.append(kwargs.get("workers", 1))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "is_estimate", spy)
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

    def test_seeds_do_not_alias_across_thresholds(self, tmp_path):
        # two configs that a per-threshold seed of seed + 1000003 i would
        # sample alike at 20 dB
        rows = []
        for name, seed, thresholds in (("a", 0, [10.0, 20.0]),
                                       ("b", 1000003, [20.0])):
            (tmp_path / name).mkdir()
            raw = dict(WB_PAIR, seed=seed, thresholds_db=thresholds,
                       samples_is=2_000, theta_grid=[0.5])
            code, out = run(tmp_path / name, "theta-sweep", raw)
            assert code == 0
            rows.append(data_rows(out / "theta_sweep_20dB.csv"))
        assert rows[0] != rows[1]

    @pytest.mark.parametrize("thresholds, clashes", [
        ([20.0, 20.0000001], ["theta_sweep_20dB.csv (gamma_db 20.0, 20.0000001)"]),
        ([20.0, 20.0], ["theta_sweep_20dB.csv (gamma_db 20.0, 20.0)"]),
        ([15.0, -1.5, 15.0, -1.5], ["theta_sweep_15dB.csv (gamma_db 15.0, 15.0)",
                                    "theta_sweep_m1p5dB.csv (gamma_db -1.5, -1.5)"]),
    ], ids=["rounds-equal", "repeated", "two-pairs"])
    def test_file_name_clash_is_config_error(self, tmp_path, capsys, monkeypatch,
                                             thresholds, clashes):
        from hrtwist import cli

        monkeypatch.setattr(cli, "is_estimate", None)  # nothing is sampled
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

    def test_underflow_names_the_log_tail(self, tmp_path, capsys):
        # at 58 dB every IS weight underflows, and the error names log10 of
        # the tail, near the one-big-jump asymptote log10(2 e^-sqrt(gamma))
        raw = dict(WB_PAIR, thresholds_db=[58.0], samples_is=500_000)
        code, _ = run(tmp_path, "ccdf", raw)
        assert code == 2
        err = capsys.readouterr().err
        log10_alpha = float(re.search(r"log10_alpha_is=(\S+)\)", err).group(1))
        asymptote = math.log10(2.0) - math.sqrt(10.0 ** 5.8) / math.log(10.0)
        assert math.isfinite(log10_alpha) and abs(log10_alpha - asymptote) <= 1.0

    def test_rejects_three_components(self, tmp_path, capsys):
        raw = dict(WB_PAIR, components=[{"family": "weibull", "shape": 0.5,
                                         "scale": 1.0, "count": 3}])
        code, _ = run(tmp_path, "validate", raw)
        assert code == 1


def sweep_nan_rows(path):
    """The rows of a sweep table whose second moment reads nan; every row
    keeps a finite bound."""
    rows = data_rows(path)
    for row in rows:
        assert (row[1] == "nan") == (row[3] == "nan")
        assert math.isfinite(float(row[2]))  # the bound stays
    return [row for row in rows if row[1] == "nan"]


@pytest.mark.parametrize("command", ["ccdf", "validate", "theta-sweep"])
def test_hits_that_all_weigh_0_are_a_numerical_failure(tmp_path, capsys,
                                                       command):
    # theta this close to 1 twists the samples so far past gamma that every
    # weight underflows: a tail of 0 with SE 0 would look exact
    theta = 1.0 - 1e-12
    raw = dict(WB_PAIR, thresholds_db=[20.0], theta_override=theta,
               theta_grid=[theta], samples_is=1_000, samples_naive=1_000, seed=1)
    code, out = run(tmp_path, command, raw)
    sweep = command == "theta-sweep"
    assert code == (0 if sweep else 2)
    printed, err = capsys.readouterr()
    *notes, last = err.splitlines()
    prefix = "nan row: " if sweep else "numerical failure: "
    # the sweep samples theta on the threshold's second stream, after theta*
    top, log10_alpha = (r"-3\.53\d*", r"-1\.53\d*") if sweep else (r"-4\.6\d*", r"-2\.0\d*")
    assert re.fullmatch(
        rf"{prefix}gamma_db=20, theta={re.escape(repr(theta))}: "
        r"the weights of all 1000 IS hits underflow to 0 "
        rf"\(max_log_weight_hit={top}e\+10, log10_alpha_is={log10_alpha}e\+10\)", last)
    # the failure is raised once the threshold's run has been used: ccdf
    # writes no table and notes no skipped row, validate prints its line;
    # the sweep writes the row as nan beside its bound
    if sweep:
        assert notes == [] and printed == ""
        (row,) = sweep_nan_rows(out / "theta_sweep_20dB.csv")
        assert row[0] == format(theta, ".12e")
    elif command == "ccdf":
        assert notes == []
        assert printed == "" and not out.exists()
    else:
        assert notes == []
        assert printed.startswith("FAIL gamma_db=20 oracle=1.046964e-04 "
                                  "is=0.000000e+00 (se=0.00e+00) ")



@pytest.mark.parametrize("command", ["ccdf", "validate", "theta-sweep"])
def test_an_is_run_without_hits_is_a_numerical_failure(tmp_path, capsys, command):
    # an IS run that draws no hit would report a tail of 0 with SE 0; the
    # failure names M, N, theta and M p_lo, the hits expected at the floor
    # p_lo = 1 - prod_i (1 - S_i(gamma)^(1 - theta)).  At a vertex theta*,
    # 16 laws hit with p_lo of about 16 e^-16: 0.18 hits in 10^5 samples
    if command == "ccdf":
        raw = dict(LN_PAIR, components=[dict(LN_PAIR["components"][0], count=16)],
                   thresholds_db=[60.0], samples_is=100_000, samples_naive=100_000,
                   seed=1)
        theta, n, m_p_lo = r"0\.699\d*", 16, r"0\.18"
    else:  # naive MC at 30 dB on the Weibull pair, where max(X_1, X_2) > gamma
        # with p_lo = 3.69e-14, below the tail 3.82e-14; the sweep's theta 0
        # is its first theta and draws validate's IS stream
        raw = dict(WB_PAIR, thresholds_db=[30.0], theta_override=0.0,
                   theta_grid=[0.0], samples_is=1_000, samples_naive=1_000, seed=1)
        theta, n, m_p_lo = r"0\.0", 2, r"3\.69e-11"
    code, out = run(tmp_path, command, raw)
    sweep = command == "theta-sweep"
    assert code == (0 if sweep else 2)
    printed, err = capsys.readouterr()
    *notes, last = err.splitlines()
    prefix = "nan row: " if sweep else "numerical failure: "
    assert re.fullmatch(
        rf"{prefix}gamma_db={raw['thresholds_db'][0]:g}, theta={theta}: "
        rf"IS drew no hit in M={raw['samples_is']} samples of N={n} components, "
        rf"where M\*p_lo={m_p_lo} are expected at the floor .*", last)
    if sweep:
        assert notes == [] and printed == ""
        (row,) = sweep_nan_rows(out / "theta_sweep_30dB.csv")
        assert float(row[0]) == 0.0
    elif command == "ccdf":
        assert notes == []
        assert printed == "" and not out.exists()
    else:
        assert notes == []
        assert printed.startswith("FAIL gamma_db=30 oracle=3.824360e-14 "
                                  "is=0.000000e+00 (se=0.00e+00) ")


@pytest.mark.parametrize("command, law, n, gamma_db, code", [
    ("solve", "weibull", 64, 100.0, 0),
    ("ccdf", "weibull", 64, 100.0, 2),  # IS at theta* draws no hit
    ("solve", "weibull", 1024, 300.0, 0),
    ("theta-sweep", "lognormal", 256, 40.0, 0),
    ("theta-sweep", "weibull", 300, 56.9, 0)])
def test_large_n_bound_never_fails(tmp_path, capsys, command, law, n, gamma_db, code):
    # (1 - theta)^(-2N) past the float range, or exp(-2 theta A) below it:
    # the second-moment bound is inf or 0 past the float range, and the
    # normal value of its log form inside it
    spec = ({"family": "weibull", "shape": 0.5, "scale": 1.0} if law == "weibull"
            else LN_PAIR["components"][0])
    raw = dict(WB_PAIR, components=[dict(spec, count=n)], thresholds_db=[gamma_db],
               samples_is=1_000, samples_naive=1_000, seed=1, theta_grid=[0.6, 0.8])
    assert run(tmp_path, command, raw)[0] == code
    printed, err = capsys.readouterr()
    if code:
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "M*p_lo=" in err
        return
    if command == "solve":
        assert err == ""
        (sol,) = json.loads((tmp_path / "out" / "solve.json").read_text())["solutions"]
        assert sol["second_moment_bound"] == 0.0
        assert "bound=0.000000e+00" in printed
    else:
        tag = format(gamma_db, "g").replace(".", "p")
        path = tmp_path / "out" / f"theta_sweep_{tag}dB.csv"
        bounds = {float(row[0]): float(row[2]) for row in data_rows(path)}
        # a row whose IS run drew no hit reads nan, its cause on stderr: at
        # theta 0 of the lognormal sum, and at every theta of the Weibull sum
        causes = err.splitlines()
        assert all(re.fullmatch(r"nan row: .*: IS drew no hit .* M\*p_lo=\S+ .*", cause)
                   for cause in causes)
        nan_thetas = [float(row[0]) for row in data_rows(path) if row[1] == row[3] == "nan"]
        assert len(causes) == len(nan_thetas)
        if law == "lognormal":  # A <= N: theta* is 0
            assert nan_thetas == [0.0]
            assert bounds[0.0] == 1.0 and bounds[0.8] == math.inf
        else:
            assert nan_thetas == sorted(bounds)
            assert bounds[0.6] == pytest.approx(1.093917881989e-126, rel=1e-11)



@pytest.mark.parametrize("command, override", [
    ("solve", None), ("ccdf", None), ("ccdf", 0.5), ("theta-sweep", None),
    ("validate", None)])
def test_each_threshold_is_solved_once(tmp_path, monkeypatch, command, override):
    # one path solves every command's thresholds, one solve each, in order,
    # also where theta_override leaves theta* unused
    solved, solve = [], cli.solve_pprime

    def spy(problem):
        solved.append(problem)
        return solve(problem)

    monkeypatch.setattr(cli, "solve_pprime", spy)
    raw = dict(WB_PAIR, samples_is=1_000, samples_naive=1_000,
               theta_grid=[0.5, 0.9], theta_override=override)
    assert run(tmp_path, command, raw)[0] == 0
    assert solved == [problem for _, problem in ExperimentConfig.from_dict(raw).problems]


class TestImports:
    # scipy.special and what it loads are about half of the CLI's start-up,
    # and only lognormal laws use it; scipy.optimize, and scipy.integrate
    # which loads it, are no command's, validate included
    PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hrtwist.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

before = loaded()
code = hrtwist.cli.main([sys.argv[2], "--config", sys.argv[3],
                         "--output", sys.argv[4]])
print(json.dumps({"before": before, "code": code, "after": loaded()}))
"""
    PARSE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hrtwist.cli import ExperimentConfig

before = "scipy.special" in sys.modules
ExperimentConfig.from_dict(json.loads(sys.argv[2]))
print(json.dumps([before, "scipy.special" in sys.modules]))
"""

    @staticmethod
    def fresh(script, *argv):
        """Last stdout line of `script` in a fresh interpreter, as JSON, and
        the lines before it."""
        src = Path(hrtwist.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, str(src), *argv],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        *printed, last = proc.stdout.splitlines()
        return json.loads(last), printed

    def probe(self, tmp_path, command, raw):
        return self.fresh(self.PROBE, command, write_config(tmp_path, raw),
                          str(tmp_path / "out"))

    @pytest.mark.parametrize("command", ["solve", "ccdf", "theta-sweep",
                                         "validate"])
    def test_weibull_run_loads_no_scipy(self, tmp_path, command):
        raw = dict(WB_PAIR, thresholds_db=[20.0], samples_is=1_000,
                   samples_naive=1_000, theta_grid=[0.5, 0.9])
        report, printed = self.probe(tmp_path, command, raw)
        assert report == {"before": [], "code": 0, "after": []}
        if command == "validate":
            assert f"oracle={WB_PAIR_TAIL_20DB:.6e}" in printed[0]

    def test_threaded_run_loads_no_executor(self, tmp_path):
        # three chunks a run on two threads: the caller and one plain helper
        # thread, which take no concurrent.futures
        script = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hrtwist.cli import main

code = main(["ccdf", "--config", sys.argv[2], "--output", sys.argv[3],
             "--workers", "2"])
print(json.dumps([code, "concurrent.futures" in sys.modules]))
"""
        raw = dict(WB_PAIR, samples_is=3 * estimators.CHUNK_SIZE,
                   samples_naive=3 * estimators.CHUNK_SIZE)
        report, _ = self.fresh(script, write_config(tmp_path, raw), str(tmp_path / "out"))
        assert report == [0, False]

    def test_cli_loads_no_scipy_integrate_or_optimize(self, tmp_path):
        # a lognormal run, which does load scipy.special
        raw = dict(LN_PAIR, samples_is=1_000, samples_naive=1_000)
        report, _ = self.probe(tmp_path, "validate", raw)
        assert report["before"] == [] and report["code"] == 0
        assert "scipy.special" in report["after"]
        assert not [m for m in report["after"]
                    if m.startswith(("scipy.optimize", "scipy.integrate"))]

    def test_lognormal_config_loads_special_at_parse(self):
        assert self.fresh(self.PARSE, json.dumps(LN_PAIR))[0] == [False, True]
        assert self.fresh(self.PARSE, json.dumps(WB_PAIR))[0] == [False, False]

    def test_lognormal_sigma_too_small_is_config_error(self, tmp_path):
        raw = dict(WB_PAIR, components=[{"family": "lognormal", "mu": 0.0,
                                         "sigma": 1e-4, "count": 2}])
        report, _ = self.probe(tmp_path, "solve", raw)
        assert report["before"] == [] and report["code"] == 1


class TestSharedPass:
    def test_tables_agree_on_alpha_is(self, tmp_path, capsys):
        by_theta = []
        for override in (None, 0.6):
            raw = dict(WB_PAIR, samples_is=5_000, samples_naive=5_000)
            if override is not None:
                raw["theta_override"] = override
            _, out = run(tmp_path, "ccdf", raw)
            ccdf = [r[2] for r in data_rows(out / "ccdf.csv")]
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
    @pytest.mark.parametrize("command", ["ccdf", "validate"])
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


# every case exits 0 but these: the 52 dB wb2 IS run reads more than 3 SE
# under the oracle (exit 2), and validate refuses N = 3 (exit 1)
CASE_EXIT_CODES = {"validate-wb2": 2, "validate-ln3": 1, "validate-mixed": 1}


# the digest's 40,000 samples are one chunk, so two workers split none of
# its runs; this case's three chunks give both threads work
SPLIT_CASE = ("ccdf-wb2-three-chunks", "ccdf",
              dict(CONFIGS["wb2"], samples_is=2 * estimators.CHUNK_SIZE + 8_928,
                   samples_naive=2 * estimators.CHUNK_SIZE + 8_928))


class TestWorkers:
    @pytest.mark.parametrize("case_id, command, raw", [*CASES, SPLIT_CASE],
                             ids=[case[0] for case in [*CASES, SPLIT_CASE]])
    def test_outputs_identical_for_any_worker_count(self, tmp_path, case_id,
                                                   command, raw):
        runs = []
        for workers in (1, 2):
            (tmp_path / str(workers)).mkdir()
            runs.append(run_case(main, command, raw, workers,
                                 tmp_path / str(workers)))
        assert runs[0][0] == CASE_EXIT_CODES.get(case_id, 0)
        assert runs[0] == runs[1]
