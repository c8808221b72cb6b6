"""Workloads of the hrtwist benchmark and the check applied to every answer.

An answer is one call of the public CLI entry point `hrtwist.cli.main`
on a config with a single threshold.  A pass asks one answer per step of
a fixed threshold ladder over the workload's dB range; the seed picks the
sampling seed of each config and the order of the answers.  The ladder is
the same for every seed because the solver's time depends strongly and
unevenly on the threshold: ladders drawn per seed spread the run time by
more than 10 %.  bench/references.json holds reference tails on a grid
that contains every ladder step.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

GRID_STEP_DB = 0.25   # of bench/references.json
LADDER_STEP_DB = 0.5
# An answer fails when its IS estimate is further than this many of its
# own standard errors from the reference tail.
MAX_Z = 5.0
# The quadrature oracle promises 1e-10 relative accuracy.
ORACLE_RTOL = 1e-6

REFERENCES = json.loads(
    Path(__file__).with_name("references.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    components: tuple
    samples: int          # IS and naive samples per answer
    workers: int
    lo_db: float
    hi_db: float
    pass_seconds: float   # wall time of one pass on the reference machine

    def ladder(self) -> list[float]:
        steps = int(round((self.hi_db - self.lo_db) / LADDER_STEP_DB))
        return [self.lo_db + LADDER_STEP_DB * k for k in range(steps)]

    def passes(self, seconds: float) -> int:
        """Passes per run: fixed work, about `seconds` on the reference machine."""
        return max(1, round(seconds / self.pass_seconds))


WEIBULL_HALF = {"family": "weibull", "shape": 0.5, "scale": 1.0}
LOGNORMAL_6DB = {"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0}

WORKLOADS = {w.name: w for w in (
    # Oracle (quadrature) and sampling do the work, the solver is nearly
    # free; the deep end is where the estimator's moments underflow.
    Workload("wb2-deep", "validate", ({**WEIBULL_HALF, "count": 2},),
             samples=500_000, workers=1, lo_db=15.0, hi_db=60.0,
             pass_seconds=20.0),
    # Small samples and N = 3: the multi-start solver takes nearly all of
    # the answer time, and validate refuses N >= 3.
    Workload("ln3-curve", "ccdf", ({**LOGNORMAL_6DB, "count": 3},),
             samples=20_000, workers=1, lo_db=10.0, hi_db=49.0,
             pass_seconds=23.0),
    # Large samples on two threads: the lognormal inversion (ndtri_exp)
    # and the thread pool, against wb2-deep's Weibull power law.
    Workload("ln2-w2", "ccdf", ({**LOGNORMAL_6DB, "count": 2},),
             samples=1_000_000, workers=2, lo_db=10.0, hi_db=49.0,
             pass_seconds=25.0),
)}


@dataclass
class Answer:
    """One CLI call: its input, and what the program returned."""
    tag: str
    gamma_db: float
    config_path: Path
    seconds: float = math.nan
    slowness: float = math.nan  # of the machine around the answer, see speed.py
    exit_code: int | None = None
    output: bytes = b""
    error: str = ""
    # filled by check()
    alpha_is: float = math.nan
    se_is: float = math.nan
    failure: str = ""

    @property
    def ref_seconds(self) -> float:
        """`seconds` scaled to the reference speed of speed.py."""
        return self.seconds / self.slowness

    def again(self) -> "Answer":
        """A fresh, unasked answer to the same config."""
        return Answer(self.tag, self.gamma_db, self.config_path)


def make_pass(workload: Workload, seed: int, index: int, workdir: Path) -> list[Answer]:
    """Write the configs of pass `index` and return its answers in asking order."""
    rng = np.random.default_rng([seed, index])
    ladder = workload.ladder()
    config_seeds = rng.integers(1, 2 ** 31, size=len(ladder))
    answers = []
    for k in rng.permutation(len(ladder)):
        tag = f"p{index}-{ladder[k]:g}dB"
        path = workdir / f"{tag}.json"
        path.write_text(json.dumps({
            "components": list(workload.components),
            "thresholds_db": [ladder[k]],
            "samples_is": workload.samples,
            "samples_naive": workload.samples,
            "seed": int(config_seeds[k]),
        }))
        answers.append(Answer(tag, ladder[k], path))
    return answers


def ask(cli, workload: Workload, answer: Answer, out_dir: Path,
        workers: int | None = None) -> Answer:
    """Run one answer through `cli.main` and keep its output bytes.

    `cli.main` is looked up at call time, so a traced run sees its wrapper.
    """
    argv = [workload.command, "--config", str(answer.config_path),
            "--output", str(out_dir),
            "--workers", str(workload.workers if workers is None else workers)]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            answer.exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        answer.exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any crash is a failed answer, not a lost one
        answer.exit_code = None
        answer.error = f"{type(exc).__name__}: {exc}"
    answer.seconds = perf_counter() - t0
    answer.error = (answer.error + stderr.getvalue()).strip()
    if workload.command == "validate":
        answer.output = stdout.getvalue().encode()
    else:
        csv = out_dir / "ccdf.csv"
        answer.output = csv.read_bytes() if csv.exists() else b""
    return answer


_VALIDATE_LINE = re.compile(
    r"^(PASS|FAIL) gamma_db=(\S+) oracle=(\S+) is=(\S+) \(se=(\S+)\) naive=(\S+)$")


def reference(workload: Workload, gamma_db: float) -> float:
    """Reference tail at a grid threshold; it underflows to 0 beyond 1e-308."""
    ref = REFERENCES[workload.name]
    i = int(round((gamma_db - ref["thresholds_db"][0]) / GRID_STEP_DB))
    if not math.isclose(ref["thresholds_db"][i], gamma_db):
        raise KeyError(f"{gamma_db} dB is not on the reference grid")
    return 10.0 ** ref["log10_tail"][i]


def _parse(workload: Workload, answer: Answer) -> tuple[float, float, float, float | None]:
    """(gamma_db, alpha_is, se_is, oracle or None) from the answer's output."""
    text = answer.output.decode()
    if workload.command == "validate":
        m = _VALIDATE_LINE.match(text.strip())
        if m is None:
            raise ValueError(f"unexpected validate output {text!r}")
        return float(m[2]), float(m[4]), float(m[5]), float(m[3])
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if len(rows) != 2 or rows[0] != "gamma_db,alpha_naive,alpha_is,se_naive,se_is":
        raise ValueError(f"unexpected ccdf.csv {text!r}")
    g, _, a, _, se = (float(v) for v in rows[1].split(","))
    return g, a, se, None


def check(workload: Workload, answer: Answer) -> Answer:
    """Set `answer.failure` to the first reason the answer is wrong, or ''.

    The exit code alone is not trusted: `validate` exits 0 when the oracle
    and the estimate both underflow to 0.
    """
    if answer.exit_code != 0:
        detail = answer.error or answer.output.decode().strip()
        answer.failure = f"exit {answer.exit_code}: {detail[-200:]}"
        return answer
    try:
        gamma_db, answer.alpha_is, answer.se_is, oracle = _parse(workload, answer)
    except ValueError as exc:
        answer.failure = str(exc)
        return answer
    tail = reference(workload, answer.gamma_db)
    a, se = answer.alpha_is, answer.se_is
    if not math.isclose(gamma_db, answer.gamma_db):
        answer.failure = f"answered {gamma_db} dB"
    elif not (math.isfinite(a) and a > 0.0):
        answer.failure = f"alpha_is={a}"
    elif not (math.isfinite(se) and se > 0.0):
        answer.failure = f"se_is={se}"
    elif abs(a - tail) > MAX_Z * se:
        answer.failure = f"alpha_is={a:.6e} is {abs(a - tail) / se:.1f} se from {tail:.6e}"
    elif oracle is not None and tail > 0.0 and abs(oracle - tail) > ORACLE_RTOL * tail:
        answer.failure = f"oracle={oracle:.6e}, reference {tail:.6e}"
    return answer


def digest(answers: list[Answer]) -> str:
    h = hashlib.sha256()
    for a in answers:
        h.update(a.tag.encode() + b"\0" + a.output + b"\0")
    return h.hexdigest()[:16]
