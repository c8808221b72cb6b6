"""Benchmark of the hrtwist CLI: one client asking single-threshold answers.

Run from the repository root:

    python3 bench/run.py --workload wb2-deep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all              # end-to-end metrics
    python3 bench/run.py --workload all --trace 1    # per-layer metrics

One process per workload drives `hrtwist.cli.main(argv)` in a closed loop
with one client; the workloads and the answer check are in workloads.py.
`--seconds` fixes the work of a run: the number of ladder passes that
take about that long on the reference machine (2 cores).  Every answer
is checked against bench/references.json; a failed answer counts in
`failed` and `ok_rate` and is never dropped.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
The host's speed changes within seconds, so each answer is timed between
two runs of a fixed speed probe (speed.py), and the answer times behind
`run_s`, `answer_s.*` and `re10_s.*` are scaled to the probe's reference
speed.  The unscaled wall times are printed in the details line.
`setup_s` is scaled by the median slowness of the whole run.
With `--trace 1` it asks each answer of one pass untraced and then again
with spans around each layer (spans.py), and reports the per-layer metrics.
Untimed checks follow the answers: the same configs give byte-identical
outputs, and on ln2-w2 one worker gives the same bytes as two.

Lines before the last are for people: machine facts, details, a table.
The last line is one JSON object: correct, attempted, failed, metrics.
`correct` is false when a determinism or tracing check fails; answers
that are wrong count in `failed` instead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import slowness
from workloads import WORKLOADS, ask, check, digest, make_pass

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
DETERMINISM_ANSWERS = 2
TAIL_BEYOND = 10
SELF_SUM_RTOL = 0.03

SETUP_CODE = """\
import json, sys
from pathlib import Path
sys.path.insert(0, "src")
from hrtwist.cli import ExperimentConfig
ExperimentConfig.from_dict(json.loads(Path(sys.argv[1]).read_text()))
"""


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit, "seed": seed}


def measure_setup(config_path: Path) -> list[float]:
    """Seconds from a fresh interpreter to an imported CLI and a parsed config."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                       cwd=ROOT, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times[1:]  # the first may compile bytecode


def ask_pass(cli, workload, answers, out_dir) -> None:
    """Ask `answers` in order with a speed probe before, between and after.

    An answer's slowness is the mean of the probes just before and just
    after it: the speed changes within seconds, so probes further away
    follow it worse.
    """
    before = slowness(workload.workers)
    for a in answers:
        ask(cli, workload, a, out_dir / a.tag)
        after = slowness(workload.workers)
        a.slowness = (before + after) / 2
        before = after


def same_outputs(cli, workload, answers, out_dir, workers=None) -> bool:
    """Ask `answers` again into `out_dir`; True if every output is unchanged."""
    again = [ask(cli, workload, a.again(), out_dir / a.tag, workers)
             for a in answers]
    return all(a.output == b.output for a, b in zip(answers, again))


def spec_metrics(kind: str, values: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def traced_pass(cli, workload, answers, workdir, spans_path):
    """Ask each answer untraced and right after again with spans.

    Pairing each answer with its traced twin keeps the machine's slow
    drift in speed out of `trace.overhead`.  Returns the per-layer
    metrics, the tracing checks and the traced answers.
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    traced = []
    for i, a in enumerate(answers):
        ask(cli, workload, a, workdir / "untraced" / a.tag)
        tracer.answer = i
        tracer.install()
        try:
            traced.append(ask(cli, workload, a.again(), workdir / "traced" / a.tag))
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    layers = layer_metrics(tracer.spans, tracer.counts)
    layers["trace.overhead"] = (sum(b.seconds for b in traced)
                                / sum(a.seconds for a in answers) - 1.0)
    k = len(traced)
    checks = {
        "traced outputs equal untraced": all(
            a.output == b.output for a, b in zip(answers, traced)),
        "one solve, IS and naive run per answer": all(
            layers[f"{layer}.calls"] == k for layer in (
                "solver.solve_pprime", "estimators.is_estimate",
                "estimators.naive_mc")),
        "one oracle call per validate answer":
            layers["oracles.tail_convolution_2.calls"]
            == (k if workload.command == "validate" else 0),
    }
    if workload.workers == 1:
        checks["self times add up to cli.main.s"] = math.isclose(
            layers["trace.self_sum_s"], layers["cli.main.s"], rel_tol=SELF_SUM_RTOL)
    return layers, checks, traced


def middle_mean(values: list[float]) -> float:
    """Mean of the values from the 30th to the 70th percentile.

    A median that averages over the answers around it, so that the noise
    of a single answer moves it less.  It is infinite once 30 % of the
    values are.
    """
    v = sorted(values)
    return statistics.fmean(v[int(0.3 * len(v)):math.ceil(0.7 * len(v))])


def end_to_end(answers, setup, details) -> dict:
    """End-to-end metrics; answer times at the reference speed (speed.py)."""
    n = len(answers)
    tail_i = max(0, n - 1 - TAIL_BEYOND)

    def times(seconds):
        lat = sorted(seconds(a) for a in answers)
        # seconds to reach +-10 % at 95 %; a failed answer never gets there
        re10 = [math.inf if a.failure else
                seconds(a) * (1.96 * a.se_is / a.alpha_is / 0.10) ** 2
                for a in answers]
        return {"run_s": sum(lat), "answer_s.p50": statistics.median(lat),
                "answer_s.tail": lat[tail_i], "re10_s.p30-70": middle_mean(re10)}

    slow = [a.slowness for a in answers]
    details.update(tail_percentile=100.0 * (tail_i + 1) / n,
                   tail_beyond=n - 1 - tail_i, setup_runs_s=setup,
                   wall_s={"setup_s": statistics.median(setup),
                           **times(lambda a: a.seconds)},
                   slowness={"median": statistics.median(slow),
                             "min": min(slow), "max": max(slow)})
    return {
        # set-up follows the host's slow changes of speed (0.67 to 1.17 s an
        # hour apart) but not the fast ones that probes around it see
        "setup_s": statistics.median(setup) / statistics.median(slow),
        **times(lambda a: a.ref_seconds),
        "ok_rate": 1.0 - details["failed"] / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    print("machine " + json.dumps(machine_facts(seed)))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        n_pass = 1 if trace else workload.passes(seconds)
        passes = [make_pass(workload, seed, i, workdir) for i in range(n_pass)]
        setup = [] if trace else measure_setup(passes[0][0].config_path)

        sys.path.insert(0, str(SRC))
        from hrtwist import cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported hrtwist from {cli.__file__}, not {SRC}")

        # first call fills lazy caches (lognormal concavity onsets, scipy)
        ask(cli, workload, passes[0][0].again(), workdir / "warmup")
        some = passes[0][:DETERMINISM_ANSWERS]
        if trace:
            layers, checks, traced = traced_pass(
                cli, workload, passes[0], workdir,
                WORK / f"trace-{name}-{seed}.jsonl")
        else:
            for i, p in enumerate(passes):
                ask_pass(cli, workload, p, workdir / f"pass{i}")
            checks = {"same config gives the same bytes":
                      same_outputs(cli, workload, some, workdir / "repeat")}
        answers = [a for p in passes for a in p]
        details = {"workload": name, "seed": seed, "passes": n_pass,
                   "answers_per_pass": len(passes[0]),
                   "outputs_digest": digest(answers)}
        if trace:
            answers += traced
        if workload.workers > 1:
            checks["one worker gives the bytes of two"] = same_outputs(
                cli, workload, some, workdir / "serial", 1)

        for a in answers:
            check(workload, a)
        failures = [(a.tag, a.failure) for a in answers if a.failure]
        details.update(checks=checks, attempted=len(answers), failed=len(failures),
                       error_rate=len(failures) / len(answers), failures=failures)
        table = layers if trace else end_to_end(answers, setup, details)
        print("details " + json.dumps(details))
        for key, value in table.items():
            print(f"  {key:36s} {value:.6g}")
        return {"correct": all(checks.values()), "attempted": len(answers),
                "failed": len(failures),
                "metrics": spec_metrics("per_layer" if trace else "end_to_end", table)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), then a table."""
    results, machine = {}, None
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for ln in lines[:-1]:
            if ln.startswith("machine "):
                machine = json.loads(ln[len("machine "):])
            elif ln.startswith("details "):
                result["details"] = json.loads(ln[len("details "):])
        results[name] = result
    names = list(results)
    first = results[names[0]]["metrics"]
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{n:>12s}" for n in names))
    for metric, v in first.items():
        cells = " ".join(f"{results[n]['metrics'][metric]['value']:12.6g}" for n in names)
        print(f"{metric:36s} {v['unit']:6s} {cells}")
    rows = {"error_rate": lambda r: r["failed"] / r["attempted"],
            "answers": lambda r: r["attempted"],
            "correct": lambda r: int(r["correct"])}
    if not args.trace:
        rows["answer_s.tail pct"] = lambda r: r["details"]["tail_percentile"]
    for label, f in rows.items():
        cells = " ".join(f"{f(results[n]):12.6g}" for n in names)
        print(f"{label:36s} {'':6s} {cells}")
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"machine": machine, "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="with --workload all: write the results here")
    args = parser.parse_args()
    if not (SRC / "hrtwist" / "cli.py").is_file():
        print(f"no hrtwist sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
