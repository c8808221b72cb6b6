"""A fixed probe of the machine's speed, timed between answers.

The shared 2-core host this benchmark was tuned on changes speed within
seconds: the same 0.1 s of Python and numpy work takes from 0.65 to 1.5
times its median, and Python-level and numpy work slow down together.
So every answer is bracketed by this probe, and its time is also
reported scaled to the reference speed:

    reference seconds = seconds / slowness

where the slowness is the mean of the probes just before and just after
the answer, each as a multiple of its time on the reference machine.
Over five runs of ln3-curve in a noisy spell this cut the run-to-run
coefficient of variation of the total answer time from 0.090 to 0.023;
in a quiet spell the probe's own noise adds a little.

The probe mixes the kinds of work hrtwist does: scalar Python (the CLI),
small numpy calls driven from Python (the solver) and special functions
on large arrays (the samplers and quadrature).  It shares no code with
hrtwist, so a change to the program does not move it.  An answer on two
worker threads runs its solver on one core and its samplers on both, so
its slowness is the geometric mean of the probe on one thread and on two:
over six runs of ln2-w2 in a noisy spell, that cut the coefficient of
variation of the median answer time to 0.037, against 0.074 with the
one-thread probe alone.
"""
from __future__ import annotations

import math
import threading
from time import perf_counter

import numpy as np
from scipy import special

# Mean seconds of one repeat on the reference machine (2-core Xeon VM),
# by the number of threads running it at once.
REF_S = {1: 0.00325, 2: 0.0065}
REPEATS = 8

_SMALL = np.linspace(0.5, 2.0, 3)
_LARGE = np.linspace(-30.0, -1e-3, 40_000)


def _work() -> float:
    acc = 0.0
    for i in range(1500):
        acc += math.exp(-i * 1e-3) * (i % 7)
    x = _SMALL
    for _ in range(100):
        x = np.clip(x - 1e-3 * np.power(x, 0.5), 0.1, 10.0)
        acc += float(np.sum(np.log(x)))
    acc += float(special.ndtri_exp(_LARGE).sum())
    acc += float(np.exp(_LARGE).sum())
    return acc


def _repeat():
    for _ in range(REPEATS):
        _work()


def probe_seconds(threads: int) -> float:
    """Mean seconds of one repeat with `threads` threads repeating at once.

    The mean, not the fastest: the fastest repeat catches short fast
    spells that the answer around it does not get.  Eight repeats, about
    30 ms: a shorter probe follows the speed over an answer worse.
    """
    others = [threading.Thread(target=_repeat) for _ in range(threads - 1)]
    t0 = perf_counter()
    for t in others:
        t.start()
    _repeat()
    for t in others:
        t.join()
    return (perf_counter() - t0) / REPEATS


def slowness(workers: int) -> float:
    """Probe time as a multiple of the reference, for answers on `workers` threads."""
    one = probe_seconds(1) / REF_S[1]
    if workers == 1:
        return one
    return math.sqrt(one * probe_seconds(workers) / REF_S[workers])
