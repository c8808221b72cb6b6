"""Configuration-driven experiment runner.

One JSON config describes one experiment (components, thresholds, sample
counts, seed); subcommands emit CSV tables for curves and JSON for
solver reports.  Reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 config error, 2 numerical or validation failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .distributions import distribution_from_dict, linear_to_db
from .errors import OracleConvergenceError, ParameterError
from .estimators import (
    efficiency_indicator,
    is_estimate,
    naive_mc,
    relative_error_is,
    relative_error_naive,
    theta_sensitivity_sweep,
)
from .oracles import exact_tail_single, tail_convolution_2
from .solver import SumProblem, solve_pprime


class ConfigError(ValueError):
    pass


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


_CONFIG_KEYS = {"components", "thresholds_db", "thresholds_linear", "samples_is",
                "samples_naive", "seed", "theta_override", "theta_grid",
                "confidence_constant", "output_dir"}


@dataclass
class ExperimentConfig:
    problems: list  # (gamma_db, SumProblem) per threshold
    samples_is: int
    samples_naive: int
    seed: int
    theta_override: float | None = None
    theta_grid: list = field(default_factory=list)
    confidence_constant: float = 1.96
    output_dir: str = "out"
    config_hash: str = ""

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            unknown = sorted(set(raw) - _CONFIG_KEYS)
            if unknown:
                raise ConfigError(f"unknown config key(s) {unknown}")
            comp_specs = raw["components"]
            if not (isinstance(comp_specs, list)
                    and all(isinstance(spec, dict) for spec in comp_specs)):
                raise ConfigError("components must be a list of objects")
            if not comp_specs:
                raise ConfigError("components list is empty")
            components = []
            for spec in comp_specs:
                count = _whole(spec.get("count", 1), "component count")
                if count < 1:
                    raise ConfigError(f"component count must be >= 1: {spec}")
                d = {k: v for k, v in spec.items() if k != "count"}
                components.extend([distribution_from_dict(d)] * count)
                components[-1].concavity_onset()  # shape >= 1 or tiny sigma raises
            has_db = "thresholds_db" in raw
            if has_db == ("thresholds_linear" in raw):
                raise ConfigError(
                    "exactly one of thresholds_db / thresholds_linear required")
            key = "thresholds_db" if has_db else "thresholds_linear"
            thresholds = _numbers(raw[key], key)
            if not thresholds:
                raise ConfigError("threshold list is empty")
            if has_db:
                problems = [(t, SumProblem.from_db(components, t)) for t in thresholds]
            else:
                problems = [(float(linear_to_db(t)), SumProblem(tuple(components), t))
                            for t in thresholds]
            theta_override = raw.get("theta_override")
            if theta_override is not None:
                theta_override = _number(theta_override, "theta_override")
            theta_grid = _numbers(raw.get("theta_grid", []), "theta_grid")
            thetas = theta_grid + ([] if theta_override is None else [theta_override])
            bad = [t for t in thetas if not 0.0 <= t < 1.0]
            if bad:
                raise ConfigError(f"theta values outside [0, 1): {bad}")
            confidence_constant = _number(
                raw.get("confidence_constant", 1.96), "confidence_constant")
            if not 0.0 < confidence_constant < math.inf:
                raise ConfigError("confidence constant must be positive and finite")
            cfg = cls(
                problems=problems,
                samples_is=_whole(raw["samples_is"], "samples_is"),
                samples_naive=_whole(raw["samples_naive"], "samples_naive"),
                seed=_whole(raw["seed"], "seed"),
                theta_override=theta_override,
                theta_grid=theta_grid,
                confidence_constant=confidence_constant,
                output_dir=str(raw.get("output_dir", "out")),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if cfg.samples_is < 1 or cfg.samples_naive < 1:
            raise ConfigError("sample counts must be positive")
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        cfg.config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        return cfg


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".12e")


def _write_csv(path: Path, cfg: ExperimentConfig, columns: list[str],
               rows: list[tuple], extra_meta: dict | None = None):
    lines = [
        f"# tool=hrtwist {__version__}",
        f"# config_sha256={cfg.config_hash}",
        f"# seed={cfg.seed}",
    ]
    for k, v in (extra_meta or {}).items():
        lines.append(f"# {k}={v}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _derived_seed(seed: int, index: int) -> int:
    return (seed + 1000003 * index) & 0xFFFFFFFFFFFFFFFF


def _runs(cfg: ExperimentConfig, args, naive: bool = True):
    """The estimation pass behind every sampling table, one threshold at a time.

    Threshold idx is solved, then sampled by IS at theta_override (theta*
    if unset) on stream 2*idx and, when `naive`, by naive MC on stream
    2*idx + 1.  Yields (gamma_db, problem, r_is, r_mc), with r_mc None
    when not `naive`.
    """
    for idx, (gamma_db, problem) in enumerate(cfg.problems):
        theta_star = solve_pprime(problem).theta_star
        theta = theta_star if cfg.theta_override is None else cfg.theta_override
        r_is = is_estimate(problem, theta, cfg.samples_is, cfg.seed,
                           stream_id=2 * idx, workers=args.workers)
        r_mc = (naive_mc(problem, cfg.samples_naive, cfg.seed,
                         stream_id=2 * idx + 1, workers=args.workers)
                if naive else None)
        yield gamma_db, problem, r_is, r_mc


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    reports = []
    for gamma_db, problem in cfg.problems:
        sol = solve_pprime(problem)
        reports.append({"gamma_db": gamma_db, "gamma": problem.gamma,
                        "n": problem.n, **sol.to_dict()})
        flag = "  [clamped: degenerates to naive MC]" if sol.clamped else ""
        print(f"gamma_db={gamma_db:g}  A={sol.objective:.10g}  "
              f"theta_star={sol.theta_star:.10g}  i0={sol.dominant_index}  "
              f"bound={sol.second_moment_bound:.6e}{flag}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "solve.json").write_text(
        json.dumps({"config_sha256": cfg.config_hash, "seed": cfg.seed,
                    "solutions": reports}, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_ccdf(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    rows = [(gamma_db, r_mc.alpha_hat, r_is.alpha_hat, r_mc.std_error, r_is.std_error)
            for gamma_db, _, r_is, r_mc in _runs(cfg, args)]
    _write_csv(out_dir / "ccdf.csv", cfg,
               ["gamma_db", "alpha_naive", "alpha_is", "se_naive", "se_is"],
               rows)
    return 0


def cmd_freq_table(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    rows = [(gamma_db, r_is.alpha_hat, r_is.hit_frequency, r_mc.hit_frequency)
            for gamma_db, _, r_is, r_mc in _runs(cfg, args)]
    _write_csv(out_dir / "freq_table.csv", cfg,
               ["gamma_db", "alpha_is", "freq_is", "freq_naive"], rows)
    return 0


def cmd_efficiency(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    if cfg.samples_is < 2:
        raise ConfigError("efficiency needs samples_is >= 2 for the IS relative error")
    rows = []
    for gamma_db, _, r_is, _ in _runs(cfg, args, naive=False):
        alpha = r_is.alpha_hat
        if not 0.0 < alpha < 1.0:
            # the relative errors are undefined outside (0, 1)
            why = "zero" if alpha <= 0.0 else "at least 1"
            print(f"skipping gamma_db={gamma_db:g}: estimate is {why}",
                  file=sys.stderr)
            continue
        rows.append((
            gamma_db,
            relative_error_naive(alpha, cfg.samples_naive,
                                 cfg.confidence_constant),
            relative_error_is(r_is, cfg.confidence_constant),
            efficiency_indicator(alpha, r_is.variance_weight),
        ))
    _write_csv(out_dir / "efficiency.csv", cfg,
               ["gamma_db", "rel_err_naive", "rel_err_is", "k"], rows)
    return 0


def cmd_theta_sweep(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    if not cfg.theta_grid:
        raise ConfigError("theta-sweep requires a theta_grid in the config")
    names = {}
    for gamma_db, _ in cfg.problems:
        tag = format(gamma_db, "g").replace("-", "m").replace(".", "p")
        names.setdefault(f"theta_sweep_{tag}dB.csv", []).append(gamma_db)
    clashes = [f"{name} (gamma_db {', '.join(map(repr, dbs))})"
               for name, dbs in names.items() if len(dbs) > 1]
    if clashes:
        raise ConfigError("thresholds share a sweep file: " + "; ".join(clashes))
    # with no clash, names holds one file per threshold, in threshold order
    for idx, ((gamma_db, problem), name) in enumerate(zip(cfg.problems, names)):
        rows, solution = theta_sensitivity_sweep(
            problem, cfg.theta_grid, cfg.samples_is,
            _derived_seed(cfg.seed, idx), workers=args.workers)
        _write_csv(
            out_dir / name, cfg,
            ["theta", "second_moment_empirical", "second_moment_bound",
             "std_error"], rows,
            extra_meta={"gamma_db": format(gamma_db, "g"),
                        "theta_star": format(solution.theta_star, ".12e")})
    return 0


def _binomial_se(result, reference: float) -> float:
    """SE of an unweighted run, floored at the binomial SE of the reference
    tail, so a run that hits always or never is judged against its
    expected count."""
    return max(result.std_error, math.sqrt(
        reference * (1 - reference) / result.sample_count))


def cmd_validate(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    if cfg.problems[0][1].n > 2:
        raise ConfigError("validate supports configs with N <= 2 components")
    failures = 0
    for gamma_db, problem, r_is, r_mc in _runs(cfg, args):
        if problem.n == 1:
            reference = exact_tail_single(problem.components[0], problem.gamma)
        else:
            reference = tail_convolution_2(*problem.components, problem.gamma)
        # IS at theta 0 is naive MC, whose SE can be 0 when every sample hits
        se_is = (_binomial_se(r_is, reference) if r_is.theta_used == 0.0
                 else r_is.std_error)
        # a tail that underflowed on either side validates nothing
        ok_is = (0.0 < reference < math.inf and 0.0 < r_is.alpha_hat < math.inf
                 and abs(r_is.alpha_hat - reference) <= 3.0 * se_is)
        ok_mc = (abs(r_mc.alpha_hat - reference)
                 <= 3.0 * _binomial_se(r_mc, reference))
        status = "PASS" if ok_is and ok_mc else "FAIL"
        print(f"{status} gamma_db={gamma_db:g} oracle={reference:.6e} "
              f"is={r_is.alpha_hat:.6e} (se={r_is.std_error:.2e}) "
              f"naive={r_mc.alpha_hat:.6e}")
        if status == "FAIL":
            failures += 1
    return 2 if failures else 0


COMMANDS = {
    "solve": cmd_solve,
    "ccdf": cmd_ccdf,
    "freq-table": cmd_freq_table,
    "efficiency": cmd_efficiency,
    "theta-sweep": cmd_theta_sweep,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrtwist",
        description="Tail probabilities of heavy-tailed sums via "
                    "hazard-rate-twisting importance sampling.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--output", default=None,
                        help="override the config output directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads per estimation run "
                             "(results are identical for any count)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        raw = json.loads(Path(args.config).read_text())
        cfg = ExperimentConfig.from_dict(raw)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.output if args.output else cfg.output_dir)
        return COMMANDS[args.command](cfg, out_dir, args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OracleConvergenceError, ParameterError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
