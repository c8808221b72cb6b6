"""Digest the CLI's outputs over a fixed table of commands and configs.

Run from the repository root, naming the source directory to import
hrtwist from:

    python tests/outputs_digest.py src

Every command runs on every config below, once with `--workers 1` and
once with `--workers 2`.  Each run prints one line, its digest and its
case id, and a last line prints the total over all runs.  A run's digest
covers its exit code, stdout, stderr and the name and bytes of every
file it writes; a run that raises instead of exiting records the
exception.  A change meant to keep every output byte-identical prints
the same total as its parent:

    mkdir ../parent && git archive HEAD | tar -x -C ../parent
    python tests/outputs_digest.py ../parent/src
    python tests/outputs_digest.py src

`tests/test_cli.py` reads `CASES` and `run_case` from here.  The file
name does not start with `test_`, so pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

COMMANDS = ["solve", "ccdf", "theta-sweep", "validate"]

_SAMPLES = {"samples_is": 40_000, "samples_naive": 40_000,
            "theta_grid": [0.5, 0.9]}

# 40,000 samples make two chunks, so two workers split every run
CONFIGS = {
    "wb2": {
        "components": [{"family": "weibull", "shape": 0.5, "scale": 1.0,
                        "count": 2}],
        "thresholds_db": [-30.0, 10.0, 30.0, 52.0],
        "seed": 11, **_SAMPLES},
    "ln2-db": {
        "components": [{"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0,
                        "count": 2}],
        "thresholds_db": [10.0, 20.0, 30.0],
        "seed": 12, **_SAMPLES},
    "ln3": {
        "components": [{"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0,
                        "count": 3}],
        "thresholds_db": [10.0, 20.0, 30.0],
        "seed": 13, **_SAMPLES},
    "mixed": {
        "components": [
            {"family": "weibull", "shape": 0.5, "scale": 1.0},
            {"family": "lognormal", "mu": 0.0, "sigma": 1.0},
            {"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0}],
        "thresholds_db": [10.0, 20.0, 30.0],
        "seed": 14, **_SAMPLES},
    "wb1": {
        "components": [{"family": "weibull", "shape": 0.5, "scale": 1.0}],
        "thresholds_db": [10.0, 20.0],
        "seed": 15, **_SAMPLES},
    "wb2-theta0": {
        "components": [{"family": "weibull", "shape": 0.5, "scale": 1.0,
                        "count": 2}],
        "thresholds_db": [10.0, 20.0],
        "theta_override": 0.0,
        "seed": 16, **_SAMPLES},
}

# (case id, command, config)
CASES = [(f"{command}-{name}", command, raw)
         for name, raw in CONFIGS.items() for command in COMMANDS]


def run_case(main, command: str, raw: dict, workers: int, work_dir) -> tuple:
    """Run `main` on one case in work_dir: (exit code, stdout, stderr, files).

    `files` maps each written file's path under the output directory to
    its bytes.
    """
    work_dir = Path(work_dir)
    config = work_dir / "cfg.json"
    config.write_text(json.dumps(raw))
    out_dir = work_dir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([command, "--config", str(config), "--output", str(out_dir),
                     "--workers", str(workers)])
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return code, stdout.getvalue(), stderr.getvalue(), files


def _digest(result) -> str:
    code, out, err, files = result
    record = [code, out, err,
              {name: hashlib.sha256(data).hexdigest()
               for name, data in files.items()}]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    import hrtwist
    from hrtwist.cli import main as cli_main

    print(f"hrtwist from {Path(hrtwist.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    for case_id, command, raw in CASES:
        for workers in (1, 2):
            with tempfile.TemporaryDirectory() as work_dir:
                try:
                    result = run_case(cli_main, command, raw, workers, work_dir)
                except Exception as exc:  # a traceback is an output too
                    result = (f"raised {type(exc).__name__}: {exc}", "", "", {})
            digest = _digest(result)
            total.update(digest.encode())
            print(f"{digest}  {case_id} --workers {workers}")
    print(f"total {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
