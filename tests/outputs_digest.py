"""Digest the CLI's outputs over a fixed table of commands and configs.

Run from the repository root, naming the source directory to import
hrtwist from:

    python tests/outputs_digest.py src

Every command runs once on every config below, with `--workers 1`: each
config's runs are one chunk, which one thread takes at any worker count,
and `tests/test_cli.py`'s `TestWorkers` checks that every case gives the
same outputs at one and two workers.  Each run prints one line, its
digest and its case id, and a last line prints the total over all runs.
A run's digest covers its exit code, stdout, stderr and the name and
bytes of every file it writes; a run that raises instead of exiting
records the exception.  A change meant to keep every output byte-identical prints
the same total as its parent:

    mkdir ../parent && git archive HEAD | tar -x -C ../parent
    python tests/outputs_digest.py ../parent/src
    python tests/outputs_digest.py src

A change meant to move some numbers and no others shows which moved in
the values mode, which runs every case on two source trees and prints
each number that differs, with its case, output and column, then the
largest relative difference over the changed numbers that are normal
floats on both sides:

    python tests/outputs_digest.py --values ../parent/src src

`tests/test_cli.py` reads `CASES` and `run_case` from here.  The file
name does not start with `test_`, so pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

COMMANDS = ["solve", "ccdf", "theta-sweep", "validate"]

_SAMPLES = {"samples_is": 40_000, "samples_naive": 40_000,
            "theta_grid": [0.5, 0.9]}

# 40,000 samples are one chunk, so at two workers each run still takes one
# thread; tests/test_cli.py's TestWorkers adds a case that two threads split
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


def _load_main(src: str):
    """hrtwist's CLI `main` from the source tree `src`, imported afresh."""
    for name in [name for name in sys.modules if name.split(".")[0] == "hrtwist"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import hrtwist
        from hrtwist.cli import main as cli_main
    finally:
        del sys.path[0]
    print(f"hrtwist from {Path(hrtwist.__file__).parent}", file=sys.stderr)
    return cli_main


def _results(cli_main):
    """(case id, result) of every case at one worker, in `CASES` order."""
    for case_id, command, raw in CASES:
        with tempfile.TemporaryDirectory() as work_dir:
            try:
                result = run_case(cli_main, command, raw, 1, work_dir)
            except Exception as exc:  # a traceback is an output too
                result = (f"raised {type(exc).__name__}: {exc}", "", "", {})
        yield case_id, result


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _numbers(name: str, text: str) -> tuple:
    """(skeleton, {label: number}) of one output: the text with each number
    replaced by #, and each number labelled by its line and column.  A CSV
    column is named by its header and its row by its first value, and by
    that value's count from its second row on (a sweep has a row per
    theta); any other number by the text just before it."""
    values, header, rows = {}, None, {}
    for i, line in enumerate(text.splitlines(), 1):
        if name.endswith(".csv") and not line.startswith("#"):
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            rows[cells[0]] = count = rows.get(cells[0], 0) + 1
            row = f"{header[0]}={cells[0]}" + (f" #{count}" if count > 1 else "")
            for column, cell in zip(header, cells):
                values[f"{name} {row} {column}"] = cell
            continue
        for k, match in enumerate(_NUMBER.finditer(line)):
            before = line[:match.start()].rstrip(' "=:')
            key = re.split(r'[\s"{,(]', before)[-1] if before else ""
            values[f"{name} line {i} #{k} {key}"] = match.group()
    skeleton = _NUMBER.sub("#", text)
    return skeleton, values


def _outputs(result) -> dict:
    """Each output of a run's result by name: exit code, stdout, stderr and
    every written file."""
    code, out, err, files = result
    return {"exit": str(code), "stdout": out, "stderr": err,
            **{name: data.decode("utf-8", "replace") for name, data in files.items()}}


def _compare_values(a_src: str, b_src: str) -> int:
    """Print every number that differs between the two trees' outputs."""
    a_runs = list(_results(_load_main(a_src)))
    b_runs = list(_results(_load_main(b_src)))
    changed, worst = 0, (0.0, "")
    for (case_id, a), (_, b) in zip(a_runs, b_runs):
        a_out, b_out = _outputs(a), _outputs(b)
        for name in sorted(a_out.keys() | b_out.keys()):
            a_skel, a_vals = _numbers(name, a_out.get(name, ""))
            b_skel, b_vals = _numbers(name, b_out.get(name, ""))
            if a_skel != b_skel:
                changed += 1
                print(f"{case_id}: {name}: text differs")
            for label in sorted(a_vals.keys() | b_vals.keys()):
                x, y = a_vals.get(label), b_vals.get(label)
                if x == y:
                    continue
                changed += 1
                print(f"{case_id}: {label}: {x} -> {y}")
                try:
                    x, y = float(x), float(y)
                except (TypeError, ValueError):
                    continue
                normal = [math.isfinite(v) and abs(v) >= sys.float_info.min for v in (x, y)]
                if all(normal):
                    rel = abs(x - y) / max(abs(x), abs(y))
                    worst = max(worst, (rel, f"{case_id}: {label}"))
    print(f"{changed} numbers or texts differ; largest relative difference "
          f"on normal values {worst[0]:.3g} {worst[1]}".rstrip())
    return 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--values":
        return _compare_values(argv[1], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    cli_main = _load_main(argv[0])
    total = hashlib.sha256()
    for case_id, result in _results(cli_main):
        digest = _digest(result)
        total.update(digest.encode())
        print(f"{digest}  {case_id}")
    print(f"total {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
