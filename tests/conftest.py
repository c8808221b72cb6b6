import json

import numpy as np
import pytest

from hrtwist import Lognormal, SumProblem, Weibull
from hrtwist.cli import main

LN6_SIGMA = 1.3815510557964275          # 6 dB in natural-log units
# survival and cumulative hazard of Lognormal(0, LN6_SIGMA) at 100, from
# tests/make_constants.py (mpmath 1.3.0 at 50 digits, no hrtwist code)
LN6_SF_100 = 4.2906033319683764e-4
LN6_LAMBDA_100 = 7.7539130121022226
LN6_ONSET = 0.2057833                   # concavity onset, regression constant
LN1_ONSET = 0.6181332                   # same for Lognormal(0, 1)
# hazard-rate peak e^(sigma z), phi(z)/Phi_bar(z) - z = sigma, solved with
# mpmath 1.3.0 findroot at 40 digits
LN6_ONSET_EXACT = 0.2057826769264802
LN1_ONSET_EXACT = 0.6181288259401258

# min over x of Lambda(x) + Lambda(100 - x) for two iid 6 dB components,
# reached at x* = 0.0041250 below the vertex value Lambda(100), and
# theta* = 1 - 2 / A; from tests/make_constants.py
LN_PAIR_A_20DB = 7.7538409800085834
LN_PAIR_THETA_20DB = 7.4206331995245716e-1

# P(X1 + X2 > gamma) to 17 digits, from tests/make_constants.py (mpmath
# 1.3.0 quadrature at 50 digits, no hrtwist code)
LN_PAIR_TAIL_20DB = 9.2894328996958111e-4    # iid Lognormal 0/6 dB, gamma 100
WB_PAIR_TAIL_20DB = 1.0469642975019535e-4    # iid Weibull(0.5, 1), gamma 100
WB_PAIR_TAIL_30DB = 3.8243598235715955e-14   # iid Weibull(0.5, 1), gamma 1000
WB_PAIR_TAIL_55DB = 1.2024617976855149e-244  # iid Weibull(0.5, 1), 55 dB
WB_SKEW_TAIL_35DB = 6.6656167603880517e-3    # Weibull(0.2, 1) + Weibull(0.8, 3)
WB_SKEW_TAIL_42DB = 9.8979487930247306e-4    # same pair, 42 dB
WB_LN_TAIL_26DB = 8.6279163942626544e-3      # Weibull(0.3, 2) + Lognormal 1/8 dB
# Weibull(0.05, 1) + a lognormal spike at 1: Lognormal 0/0.1 dB, then 0/0.05 dB
WB_SPIKE_TAIL_200DB = 4.5399929762484794e-5
WB_SPIKE_TAIL_300DB = 1.8467266624096818e-14
WB_NARROW_SPIKE_TAIL_100DB = 4.2329219623874317e-2
WB_NARROW_SPIKE_TAIL_200DB = 4.5399929762484794e-5


@pytest.fixture
def weibull_half():
    return Weibull(0.5, 1.0)


@pytest.fixture
def lognormal_std():
    return Lognormal(0.0, 1.0)


@pytest.fixture
def lognormal_6db():
    return Lognormal.from_db(0.0, 6.0)


def weibull_pair(gamma_db):
    return SumProblem.from_db((Weibull(0.5, 1.0), Weibull(0.5, 1.0)), gamma_db)


def lognormal_pair(gamma_db):
    comps = (Lognormal.from_db(0.0, 6.0), Lognormal.from_db(0.0, 6.0))
    return SumProblem.from_db(comps, gamma_db)


def random_component(rng):
    """A random subexponential component for property-style sweeps."""
    if rng.random() < 0.5:
        return Weibull(rng.uniform(0.3, 0.95), rng.uniform(0.5, 3.0))
    return Lognormal(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))


def cdf(dist, x):
    """1 - survival, from the log survival."""
    return -np.expm1(dist.log_survival(x))


def quantile(dist, u):
    """Inverse cdf through the log-survival inverse."""
    return dist.quantile_from_log_sf(np.log1p(-u))


def sweep_rows(out, gamma_db):
    """The rows of the `theta-sweep` table in `out` at threshold gamma_db,
    in file order, as their text cells after gamma_db: theta*, theta, the
    empirical second moment, its bound and its SE."""
    lines = [line for line in (out / "theta_sweep.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == ("gamma_db,theta_star,theta,second_moment_empirical,"
                        "second_moment_bound,std_error")
    rows = [line.split(",") for line in lines[1:]]
    return [row[1:] for row in rows if float(row[0]) == gamma_db]


def weibull_pair_sweep(tmp_path, gamma_db, grid, samples, seed):
    """The `theta-sweep` rows of the Weibull(0.5, 1) pair at one threshold.

    Returns the rows (theta, empirical second moment, bound, SE), as
    floats, and the theta* they report.  With one threshold the sweep
    samples on the config seed itself.
    """
    raw = {"components": [{"family": "weibull", "shape": 0.5, "scale": 1.0,
                           "count": 2}],
           "thresholds_db": [gamma_db], "theta_grid": [float(t) for t in grid],
           "samples_is": samples, "samples_naive": 1, "seed": seed}
    config = tmp_path / f"sweep-{gamma_db}.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / f"sweep-{gamma_db}"
    assert main(["theta-sweep", "--config", str(config),
                 "--output", str(out)]) == 0
    rows = sweep_rows(out, gamma_db)
    (theta_star,) = {row[0] for row in rows}
    return [tuple(map(float, row[1:])) for row in rows], float(theta_star)
