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
    ConfidenceConfig,
    efficiency_indicator,
    is_estimate,
    naive_mc,
    relative_error_is,
    relative_error_naive,
)
from .oracles import exact_tail_single, tail_convolution_2, theta_sensitivity_sweep
from .solver import SumProblem, solve_pprime

LARGE_NAIVE_CAP = 10 ** 6  # without --allow-large


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    components: list
    thresholds_db: list | None
    thresholds_linear: list | None
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
            comp_specs = raw["components"]
            if not comp_specs:
                raise ConfigError("components list is empty")
            components = []
            for spec in comp_specs:
                count = int(spec.get("count", 1))
                if count < 1:
                    raise ConfigError(f"component count must be >= 1: {spec}")
                d = {k: v for k, v in spec.items() if k != "count"}
                dist = distribution_from_dict(d)
                components.extend([dist] * count)
            has_db = "thresholds_db" in raw
            has_lin = "thresholds_linear" in raw
            if has_db == has_lin:
                raise ConfigError(
                    "exactly one of thresholds_db / thresholds_linear required")
            thresholds = raw["thresholds_db"] if has_db else raw["thresholds_linear"]
            if not thresholds:
                raise ConfigError("threshold list is empty")
            cfg = cls(
                components=components,
                thresholds_db=[float(t) for t in thresholds] if has_db else None,
                thresholds_linear=[float(t) for t in thresholds] if has_lin else None,
                samples_is=int(raw["samples_is"]),
                samples_naive=int(raw["samples_naive"]),
                seed=int(raw["seed"]),
                theta_override=(None if raw.get("theta_override") is None
                                else float(raw["theta_override"])),
                theta_grid=[float(t) for t in raw.get("theta_grid", [])],
                confidence_constant=float(raw.get("confidence_constant", 1.96)),
                output_dir=str(raw.get("output_dir", "out")),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, ParameterError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if cfg.samples_is < 1 or cfg.samples_naive < 1:
            raise ConfigError("sample counts must be positive")
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        cfg.config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        return cfg

    def problems(self):
        """(gamma_db, SumProblem) per threshold; gamma_db may be None."""
        out = []
        if self.thresholds_db is not None:
            for t in self.thresholds_db:
                out.append((t, SumProblem.from_db(self.components, t)))
        else:
            for t in self.thresholds_linear:
                out.append((float(linear_to_db(t)),
                            SumProblem(tuple(self.components), t)))
        return out

    @property
    def confidence(self) -> ConfidenceConfig:
        return ConfidenceConfig(self.confidence_constant)


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


def _solved_theta(cfg: ExperimentConfig, problem: SumProblem):
    solution = solve_pprime(problem)
    theta = (cfg.theta_override if cfg.theta_override is not None
             else solution.theta_star)
    return theta, solution


def _naive_count(cfg: ExperimentConfig, args) -> int:
    """samples_naive, capped at LARGE_NAIVE_CAP unless --allow-large."""
    if cfg.samples_naive > LARGE_NAIVE_CAP and not args.allow_large:
        print(f"capping samples_naive at {LARGE_NAIVE_CAP} "
              "(pass --allow-large for the full run)", file=sys.stderr)
        return LARGE_NAIVE_CAP
    return cfg.samples_naive


def _derived_seed(seed: int, index: int) -> int:
    return (seed + 1000003 * index) & 0xFFFFFFFFFFFFFFFF


def cmd_solve(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    reports = []
    for gamma_db, problem in cfg.problems():
        sol = solve_pprime(problem)
        entry = {"gamma_db": gamma_db, **sol.to_dict()}
        reports.append(entry)
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
    m_naive = _naive_count(cfg, args)
    rows = []
    for idx, (gamma_db, problem) in enumerate(cfg.problems()):
        theta, _ = _solved_theta(cfg, problem)
        r_is = is_estimate(problem, theta, cfg.samples_is, cfg.seed,
                           stream_id=2 * idx, confidence=cfg.confidence,
                           workers=args.workers)
        r_mc = naive_mc(problem, m_naive, cfg.seed, stream_id=2 * idx + 1,
                        confidence=cfg.confidence, workers=args.workers)
        rows.append((gamma_db, r_mc.alpha_hat, r_is.alpha_hat,
                     r_mc.std_error, r_is.std_error))
    _write_csv(out_dir / "ccdf.csv", cfg,
               ["gamma_db", "alpha_naive", "alpha_is", "se_naive", "se_is"],
               rows)
    return 0


def cmd_freq_table(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    m_naive = _naive_count(cfg, args)
    rows = []
    for idx, (gamma_db, problem) in enumerate(cfg.problems()):
        theta, _ = _solved_theta(cfg, problem)
        r_is = is_estimate(problem, theta, cfg.samples_is, cfg.seed,
                           stream_id=2 * idx, confidence=cfg.confidence,
                           workers=args.workers)
        r_mc = naive_mc(problem, m_naive, cfg.seed,
                        stream_id=2 * idx + 1, confidence=cfg.confidence,
                        workers=args.workers)
        rows.append((gamma_db, r_is.alpha_hat, r_is.hit_frequency,
                     r_mc.hit_frequency))
    _write_csv(out_dir / "freq_table.csv", cfg,
               ["gamma_db", "alpha_is", "freq_is", "freq_naive"], rows)
    return 0


def cmd_efficiency(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    rows = []
    for idx, (gamma_db, problem) in enumerate(cfg.problems()):
        theta, _ = _solved_theta(cfg, problem)
        r_is = is_estimate(problem, theta, cfg.samples_is, cfg.seed,
                           stream_id=2 * idx, confidence=cfg.confidence,
                           workers=args.workers)
        if r_is.alpha_hat <= 0.0:
            print(f"skipping gamma_db={gamma_db:g}: estimate is zero",
                  file=sys.stderr)
            continue
        rows.append((
            gamma_db,
            relative_error_naive(r_is.alpha_hat, cfg.samples_naive,
                                 cfg.confidence),
            relative_error_is(r_is, cfg.confidence),
            efficiency_indicator(r_is.alpha_hat, r_is.variance_weight),
        ))
    _write_csv(out_dir / "efficiency.csv", cfg,
               ["gamma_db", "rel_err_naive", "rel_err_is", "k"], rows)
    return 0


def cmd_theta_sweep(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    if not cfg.theta_grid:
        raise ConfigError("theta-sweep requires a theta_grid in the config")
    for idx, (gamma_db, problem) in enumerate(cfg.problems()):
        rows, solution = theta_sensitivity_sweep(
            problem, cfg.theta_grid, cfg.samples_is,
            _derived_seed(cfg.seed, idx))
        tag = format(gamma_db, "g").replace("-", "m").replace(".", "p")
        _write_csv(
            out_dir / f"theta_sweep_{tag}dB.csv", cfg,
            ["theta", "second_moment_empirical", "second_moment_bound",
             "std_error"],
            [(r.theta, r.second_moment_empirical, r.second_moment_bound,
              r.std_error) for r in rows],
            extra_meta={"gamma_db": format(gamma_db, "g"),
                        "theta_star": format(solution.theta_star, ".12e")})
    return 0


def cmd_validate(cfg: ExperimentConfig, out_dir: Path, args) -> int:
    if len(cfg.components) > 2:
        raise ConfigError("validate supports configs with N <= 2 components")
    m_naive = _naive_count(cfg, args)
    failures = 0
    for idx, (gamma_db, problem) in enumerate(cfg.problems()):
        if problem.n == 1:
            reference = exact_tail_single(problem.components[0], problem.gamma)
        else:
            reference = tail_convolution_2(problem.components[0],
                                           problem.components[1],
                                           problem.gamma)
        theta, _ = _solved_theta(cfg, problem)
        r_is = is_estimate(problem, theta, cfg.samples_is, cfg.seed,
                           stream_id=2 * idx, confidence=cfg.confidence,
                           workers=args.workers)
        r_mc = naive_mc(problem, m_naive, cfg.seed,
                        stream_id=2 * idx + 1, confidence=cfg.confidence,
                        workers=args.workers)
        # a tail that underflowed on either side validates nothing
        ok_is = (0.0 < reference < math.inf and 0.0 < r_is.alpha_hat < math.inf
                 and abs(r_is.alpha_hat - reference) <= 3.0 * r_is.std_error)
        # binomial SE from the reference tail, so a zero-hit naive run at a
        # deep threshold is judged against its own expected count
        se_mc = max(r_mc.std_error,
                    math.sqrt(reference * (1 - reference) / r_mc.sample_count))
        ok_mc = abs(r_mc.alpha_hat - reference) <= 3.0 * se_mc
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
    parser.add_argument("--allow-large", action="store_true",
                        help="permit naive runs beyond the desk-scale cap")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads per estimation run "
                             "(results are identical for any count)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
        cfg = ExperimentConfig.from_dict(raw)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.output if args.output else cfg.output_dir)
        return COMMANDS[args.command](cfg, out_dir, args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OracleConvergenceError, ParameterError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
