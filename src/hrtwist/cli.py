"""Configuration-driven experiment runner.

One JSON config describes one experiment (components, thresholds, sample
counts, seed); subcommands emit CSV tables for curves and JSON for
solver reports.  Reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 config error, 2 numerical or validation failure.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .distributions import Lognormal, Weibull
from .errors import OracleConvergenceError, ParameterError
from .estimators import (MAX_COMPONENTS, MAX_WORKERS, EstimateResult, is_estimate,
                         is_estimates, log_big_jump, naive_mc)
from .oracles import tail_convolution_2
from .solver import SumProblem, log_weight, second_moment_bound, solve_pprime


class ConfigError(Exception):
    """A command line or config that hrtwist does not accept: exit 1."""


def _number(value, name: str) -> float:
    """A JSON number: true and "20" are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _numbers(values, name: str) -> list:
    """A JSON array of numbers: "20" and {"20": 1} are not arrays."""
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return [_number(v, name) for v in values]


def _whole(value, name: str) -> int:
    """A count, sample size or seed: 2 and 2.0 pass, 2.7 and true do not."""
    if not _number(value, name).is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


_REQUIRED_KEYS = {"components", "thresholds_db", "samples_is", "samples_naive",
                  "seed"}
_CONFIG_KEYS = _REQUIRED_KEYS | {"theta_override", "theta_grid"}

# each family's spellings: the exact field names, and the constructor they feed
_FAMILIES = {
    "weibull": {("shape", "scale"): Weibull},
    "lognormal": {("mu", "sigma"): Lognormal,
                  ("mu_db", "sigma_db"): Lognormal.from_db},
}


def _component(spec: dict, room: int) -> list:
    """The `count` copies of the law one component object describes, if they
    fit in `room`."""
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"unknown distribution family: {family!r}")
    spellings = _FAMILIES[family]
    fields = set(spec) - {"family", "count"}
    names = next((names for names in spellings if set(names) == fields), None)
    if names is None:
        raise ConfigError(f"a {family} component takes exactly "
                          f"{' or '.join(map(str, spellings))}, got {spec}")
    count = _whole(spec.get("count", 1), "component count")
    if count < 1:
        raise ConfigError(f"component count must be >= 1: {spec}")
    if count > room:
        raise ConfigError(f"a config takes at most {MAX_COMPONENTS} components, "
                          f"and count {count} of {spec} goes past it")
    law = spellings[names](*(_number(spec[n], f"{family} {n}") for n in names))
    law.concavity_onset()  # shape >= 1 or tiny sigma raises
    return [law] * count


@dataclass(frozen=True)
class ExperimentConfig:
    problems: tuple  # (gamma_db, SumProblem) per threshold
    samples_is: int
    samples_naive: int
    seed: int
    theta_override: float | None
    theta_grid: tuple
    config_hash: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(
                f"config must be a JSON object, got {type(raw).__name__}")
        try:
            unknown = sorted(set(raw) - _CONFIG_KEYS)
            if unknown:
                raise ConfigError(f"unknown config key(s) {unknown}")
            missing = sorted(_REQUIRED_KEYS - set(raw))
            if missing:
                raise ConfigError(f"missing config key(s) {missing}")
            specs = raw["components"]
            if not (specs and isinstance(specs, list)
                    and all(isinstance(spec, dict) for spec in specs)):
                raise ConfigError("components must be a non-empty list of objects")
            components = []
            for spec in specs:
                components += _component(spec, MAX_COMPONENTS - len(components))
            thresholds = _numbers(raw["thresholds_db"], "thresholds_db")
            if not thresholds:
                raise ConfigError("threshold list is empty")
            problems = [(t, SumProblem.from_db(components, t)) for t in thresholds]
            # + 0.0 turns a theta of -0.0 into 0.0, which prints as 0.0 does
            theta_override = raw.get("theta_override")
            if theta_override is not None:
                theta_override = _number(theta_override, "theta_override") + 0.0
            theta_grid = [t + 0.0 for t in _numbers(raw.get("theta_grid", []),
                                                    "theta_grid")]
            thetas = theta_grid + ([] if theta_override is None else [theta_override])
            bad = [t for t in thetas if not 0.0 <= t < 1.0]
            if bad:
                raise ConfigError(f"theta values outside [0, 1): {bad}")
            samples_is = _whole(raw["samples_is"], "samples_is")
            samples_naive = _whole(raw["samples_naive"], "samples_naive")
            if samples_is < 2 or samples_naive < 1:  # one IS sample has SE 0
                raise ConfigError("samples_is must be at least 2 and "
                                  "samples_naive at least 1")
            # a run draws N words per sample, indexed by 64-bit signed integers
            for name, m in (("samples_is", samples_is),
                            ("samples_naive", samples_naive)):
                if len(components) * m >= 2 ** 63:
                    raise ConfigError(
                        f"{name} {m} with {len(components)} components "
                        f"draws 2^63 words or more")
            seed = _whole(raw["seed"], "seed")
            # the stream keys Philox with the seed's 64 bits: a wider seed
            # would sample what some seed in this range samples
            if not -2 ** 63 <= seed < 2 ** 63:
                raise ConfigError(f"seed must lie in [-2^63, 2^63), got {seed}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        return cls(problems=tuple(problems), samples_is=samples_is,
                   samples_naive=samples_naive, seed=seed,
                   theta_override=theta_override, theta_grid=tuple(theta_grid),
                   config_hash=config_hash)


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12e")


def _write_csv(path: Path, cfg: ExperimentConfig, header: str, rows: list[tuple]):
    lines = [
        f"# tool=hrtwist {__version__}",
        f"# config_sha256={cfg.config_hash}",
        f"# seed={cfg.seed}",
        header,
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _solved(cfg: ExperimentConfig):
    """Each threshold of `cfg`, solved once, with its substream id.

    Threshold idx samples every run, IS at any theta and in any command
    and naive MC (the run at theta 0), on substream 2 idx, alone or in
    one pass with other thetas (`is_estimates`).  So no two thresholds
    share a stream, and a run at one theta is the same run in every
    command.  The id is 2 idx rather than idx so that each IS run reads
    the words it read when naive MC had the odd ids.  Yields (gamma_db,
    problem, MinmaxSolution, stream_id).
    """
    for idx, (gamma_db, problem) in enumerate(cfg.problems):
        yield gamma_db, problem, solve_pprime(problem), 2 * idx


def _unreported(gamma_db: float, problem: SumProblem,
                r: EstimateResult) -> str | None:
    """Why the IS run `r` on `problem` cannot be reported, or None.

    A run with no hit, or whose every hit weighs 0, would report a tail
    of 0 with SE 0 as if it were exact.  A run with no hit names M * p_lo,
    the hits expected at the floor p_lo of the IS hit probability
    (`log_big_jump`).
    """
    theta = r.theta_used
    if r.hit_frequency == 0:
        log_p_lo = log_big_jump(problem, theta)
        return (f"gamma_db={gamma_db:g}, theta={theta!r}: IS drew no hit in "
                f"M={r.sample_count} samples of N={problem.n} components, where "
                f"M*p_lo={r.sample_count * math.exp(log_p_lo):.3g} are expected "
                f"at the floor p_lo = 1 - prod_i (1 - S_i(gamma)^(1 - theta)) "
                f"(log10_p_lo={log_p_lo / math.log(10.0):.6g}); about 100 hits "
                f"take M near 100 / p_lo")
    if r.alpha_hat == 0.0:
        return (f"gamma_db={gamma_db:g}, theta={theta!r}: the weights of all "
                f"{r.hit_frequency} IS hits underflow to 0 "
                f"(max_log_weight_hit="
                f"{log_weight(theta, r.min_hazard_sum_hit, problem.n):.6g}, "
                f"log10_alpha_is={r.log_alpha_hat / math.log(10.0):.6g})")
    return None


def _runs(cfg: ExperimentConfig, workers: int):
    """The estimation pass behind `ccdf` and `validate`, one threshold at a time.

    Each threshold is sampled by IS at theta_override (theta* if unset) and
    by naive MC, both on the one stream `_solved` gives it: naive MC is
    the theta 0 run over the words IS reads, so the two estimates are
    each unbiased but correlated, and where theta used is 0 they are one
    run at equal M.  Yields (gamma_db, problem, r_is, r_mc); once the
    caller has used a run that `_unreported` turns down (so validate
    prints its line), raises ParameterError with the cause.
    """
    for gamma_db, problem, solution, stream_id in _solved(cfg):
        theta = (solution.theta_star if cfg.theta_override is None
                 else cfg.theta_override)
        r_is = is_estimate(problem, theta, cfg.samples_is, cfg.seed,
                           stream_id=stream_id, workers=workers)
        r_mc = naive_mc(problem, cfg.samples_naive, cfg.seed,
                        stream_id=stream_id, workers=workers)
        yield gamma_db, problem, r_is, r_mc
        cause = _unreported(gamma_db, problem, r_is)
        if cause is not None:
            raise ParameterError(cause)


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    reports = []
    for gamma_db, problem, sol, *_ in _solved(cfg):
        # x_star at the CSVs' 13 significant digits, since its last bits
        # follow numpy's SIMD dispatch; theta_star keeps every bit, so that
        # it can be fed back as theta_override
        reports.append({"gamma_db": gamma_db, "gamma": problem.gamma,
                        "n": problem.n, **asdict(sol),
                        "x_star": [float(format(x, ".12e")) for x in sol.x_star]})
        flag = "  [clamped: degenerates to naive MC]" if sol.clamped else ""
        print(f"gamma_db={gamma_db:g}  A={sol.objective:.10g}  "
              f"theta_star={sol.theta_star:.10g}  i0={sol.dominant_index}  "
              f"bound={sol.second_moment_bound:.6e}{flag}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "solve.json").write_text(
        json.dumps({"config_sha256": cfg.config_hash, "seed": cfg.seed,
                    "solutions": reports}, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_ccdf(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    """Per threshold, from one pass: the tail estimates and their SEs
    (ccdf.csv), the hit counts (freq_table.csv), and the naive and IS
    relative errors at 95 % confidence (C = 1.96) with k, the naive-to-IS
    sample-count ratio at equal error (efficiency.csv).

    The naive error is the one a naive run of samples_naive would reach on
    the IS estimate alpha: C sqrt(alpha (1 - alpha) / M_naive) / alpha.
    The IS columns are formed from se_is alone, never from its square,
    which underflows in deep tails while se_is is still normal.
    """
    ccdf, freq, efficiency = [], [], []
    for gamma_db, _, r_is, r_mc in _runs(cfg, workers):
        alpha, se = r_is.alpha_hat, r_is.std_error
        ccdf.append((gamma_db, r_mc.alpha_hat, alpha, r_mc.std_error, se))
        freq.append((gamma_db, alpha, r_is.hit_frequency, r_mc.hit_frequency))
        if not 0.0 < alpha < 1.0:
            # the relative errors are undefined outside (0, 1); a zero
            # estimate is turned down by `_unreported` once this row is done,
            # and no table is written, so only an estimate of at least 1
            # gets a note
            if alpha >= 1.0:
                print(f"skipping gamma_db={gamma_db:g}: estimate is at least 1",
                      file=sys.stderr)
            continue
        efficiency.append((
            gamma_db,
            1.96 * math.sqrt(alpha * (1.0 - alpha)) / (
                math.sqrt(cfg.samples_naive) * alpha),
            1.96 * se / alpha,
            math.inf if se == 0.0 else (alpha / se) * ((1.0 - alpha) / se) / cfg.samples_is,
        ))
    for name, header, rows in (
            ("ccdf.csv", "gamma_db,alpha_naive,alpha_is,se_naive,se_is", ccdf),
            ("freq_table.csv", "gamma_db,alpha_is,freq_is,freq_naive", freq),
            ("efficiency.csv", "gamma_db,rel_err_naive,rel_err_is,k", efficiency)):
        _write_csv(out_dir / name, cfg, header, rows)
    return 0


def cmd_theta_sweep(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    """Per threshold and theta, the IS second moment against its bound
    (theta_sweep.csv), one row each, in threshold order and then by theta;
    a threshold's rows are one pass on its stream; the row at ccdf's theta
    (theta*, or a theta_override on the grid) is ccdf's IS run, and a
    theta 0 row ccdf's naive run at equal M."""
    if not cfg.theta_grid:
        raise ConfigError("theta-sweep requires a theta_grid in the config")
    rows = []
    for gamma_db, problem, solution, stream_id in _solved(cfg):
        theta_star = solution.theta_star
        for r in is_estimates(problem, sorted({*cfg.theta_grid, theta_star}), cfg.samples_is,
                              cfg.seed, stream_id=stream_id, workers=workers):
            theta, m2, se = r.theta_used, r.second_moment_weight, r.second_moment_std_error
            cause = _unreported(gamma_db, problem, r)
            if cause is not None:
                print(f"nan row: {cause}", file=sys.stderr)
                m2 = se = math.nan
            rows.append((gamma_db, theta_star, theta, m2, second_moment_bound(
                theta, solution.objective, problem.n), se))
    _write_csv(out_dir / "theta_sweep.csv", cfg,
               "gamma_db,theta_star,theta,second_moment_empirical,"
               "second_moment_bound,std_error", rows)
    return 0


def _agrees(r: EstimateResult, reference: float) -> bool:
    """|alpha_hat - reference| <= 3 SE, where a run at theta 0 (SE 0 if it
    hits always or never) floors its SE at the reference's binomial SE."""
    se = r.std_error
    if r.theta_used == 0.0:
        se = max(se, math.sqrt(reference * (1 - reference) / r.sample_count))
    return abs(r.alpha_hat - reference) <= 3.0 * se


def cmd_validate(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    """Per threshold, PASS if both runs are within 3 SE of the exact tail
    (`_agrees`), every run at theta 0, naive MC or IS clamped or overridden
    to 0, by one rule; an IS tail or oracle outside (0, inf) FAILs; exit 2
    on any FAIL."""
    if cfg.problems[0][1].n > 2:
        raise ConfigError("validate supports configs with N <= 2 components")
    failures = 0
    for gamma_db, problem, r_is, r_mc in _runs(cfg, workers):
        if problem.n == 1:
            reference = float(problem.components[0].survival(problem.gamma))
        else:
            reference = tail_convolution_2(*problem.components, problem.gamma)
        # a tail that underflowed on either side validates nothing
        ok_is = (0.0 < reference < math.inf and 0.0 < r_is.alpha_hat < math.inf
                 and _agrees(r_is, reference))
        status = "PASS" if ok_is and _agrees(r_mc, reference) else "FAIL"
        print(f"{status} gamma_db={gamma_db:g} oracle={reference:.6e} "
              f"is={r_is.alpha_hat:.6e} (se={r_is.std_error:.2e}) "
              f"naive={r_mc.alpha_hat:.6e}")
        if status == "FAIL":
            failures += 1
    return 2 if failures else 0


COMMANDS = {
    "solve": cmd_solve,
    "ccdf": cmd_ccdf,
    "theta-sweep": cmd_theta_sweep,
    "validate": cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is a config error, exit 1
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each add_argument
    makes a help formatter, which costs more than parsing."""
    parser = _Parser(
        prog="hrtwist",
        description="Tail probabilities of heavy-tailed sums via "
                    "hazard-rate-twisting importance sampling.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--output", default="out",
                        help="output directory (default: out)")
    parser.add_argument("--workers", type=int, default=1,
                        help=f"worker threads per estimation run: 1 to {MAX_WORKERS}, "
                             "a ceiling; see README, Threads and memory (results "
                             "are identical for any count)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not 1 <= args.workers <= MAX_WORKERS:
            raise ConfigError(f"--workers must lie in [1, {MAX_WORKERS}], "
                              f"got {args.workers}")
        cfg = ExperimentConfig.from_dict(
            json.loads(Path(args.config).read_text(encoding="utf-8")))
        return COMMANDS[args.command](cfg, Path(args.output), args.workers)
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OracleConvergenceError, ParameterError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
