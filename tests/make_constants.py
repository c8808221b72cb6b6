"""Recompute the frozen constants in conftest.py with mpmath.

Run from the repository root:

    python tests/make_constants.py

It prints one `NAME = value` line per constant, to 17 significant digits,
ready to paste into conftest.py.  Nothing here imports hrtwist: the
densities and survival functions are written out again in mpmath, and
every parameter and threshold is the float64 value the tests pass in, so
the constants are exact tails of the problems the tests pose.

Each tail is computed twice at 50 digits, by two different
decompositions of P(X1 + X2 > g):

    split:  S1(g/2) S2(g/2) + int_0^{g/2} f1(x) S2(g - x) dx
                            + int_0^{g/2} f2(y) S1(g - y) dy
    direct: S1(g) + int_0^g f1(x) S2(g - x) dx

each integral over panels packed geometrically toward its endpoints.
The script stops if the two disagree beyond 1e-20 relative.

The lognormal(0 dB, 6 dB) constants are its survival and cumulative
hazard at 100, and for the iid pair at gamma = 100 the minimum A of
Lambda(x) + Lambda(gamma - x) over 0 <= x <= gamma, with
theta* = 1 - 2 / A.  The sum is scanned on a geometric grid over
(0, gamma / 2], its least grid point is refined to the root of
lambda(x) = lambda(gamma - x) between its neighbours, and the result is
compared against the vertex value Lambda(gamma) at x = 0.
"""
from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 50

DB_SCALE = math.log(10.0) / 10.0  # as hrtwist.distributions.DB_SCALE


def weibull(shape, scale):
    k, b = mp.mpf(shape), mp.mpf(scale)

    def pdf(x):
        return (k / b) * (x / b) ** (k - 1) * mp.exp(-(x / b) ** k)

    def sf(x):
        return mp.exp(-(x / b) ** k)

    return pdf, sf


def lognormal_db(mu_db, sigma_db):
    mu, s = mp.mpf(DB_SCALE * mu_db), mp.mpf(DB_SCALE * sigma_db)

    def pdf(x):
        z = (mp.log(x) - mu) / s
        return mp.exp(-z * z / 2) / (x * s * mp.sqrt(2 * mp.pi))

    def sf(x):
        return mp.erfc((mp.log(x) - mu) / (s * mp.sqrt(2))) / 2

    return pdf, sf


def lognormal_pair_minimum(mu_db, sigma_db, g):
    """(A, x*) of min Lambda(x) + Lambda(g - x), iid lognormal pair."""
    pdf, sf = lognormal_db(mu_db, sigma_db)

    def hazard_sum(x):
        return -mp.log(sf(x)) - mp.log(sf(g - x))

    def slope(x):
        return pdf(x) / sf(x) - pdf(g - x) / sf(g - x)

    grid = [g / 2 * mp.mpf(10) ** (-12 * (1 - mp.mpf(i) / 2000))
            for i in range(2001)]
    i = min(range(len(grid)), key=lambda j: hazard_sum(grid[j]))
    if not 0 < i < len(grid) - 1:
        raise SystemExit("hazard-sum minimum at the edge of the scan")
    x = mp.findroot(slope, (grid[i - 1], grid[i + 1]), solver="anderson")
    interior, vertex = hazard_sum(x), -mp.log(sf(g))
    return (interior, x) if interior < vertex else (vertex, mp.mpf(0))


def spike_cuts(mu_db, sigma_db):
    """exp(mu + z sigma) for z = -8, ..., 8: cuts that resolve a lognormal
    spike far narrower than the integration range."""
    mu, s = mp.mpf(DB_SCALE * mu_db), mp.mpf(DB_SCALE * sigma_db)
    return [mp.exp(mu + z * s) for z in range(-8, 9)]


def _panels(lo, hi, cuts=()):
    # dense near both ends, where densities spike and heavy tails live,
    # with the cuts that lie inside (lo, hi) as panel ends too
    inner = sorted(c for c in cuts if lo < c < hi)
    if inner:
        return _panels(lo, inner[0]) + inner[1:] + _panels(inner[-1], hi)[1:]
    fracs = [mp.mpf(10) ** -e for e in range(15, 0, -1)]
    width = hi - lo
    left = [lo + width * f / 2 for f in fracs]
    right = [hi - width * f / 2 for f in reversed(fracs)]
    return [lo] + left + [lo + width / 2] + right + [hi]


def _quad(f, points):
    # mpmath stops refining once the error estimate falls below its
    # working epsilon in absolute terms, which a tail hundreds of decades
    # below 1 meets at once; integrate f over a rough value of its integral
    rough = mp.quad(f, points)
    return rough * mp.quad(lambda x: f(x) / rough, points)


def tail_split(d1, d2, g, spikes=()):
    (f1, s1), (f2, s2) = d1, d2
    h = g / 2
    cuts = [*spikes, *(g - c for c in spikes)]
    i1 = _quad(lambda x: f1(x) * s2(g - x), _panels(0, h, cuts))
    i2 = _quad(lambda y: f2(y) * s1(g - y), _panels(0, h, cuts))
    return s1(h) * s2(h) + i1 + i2


def tail_direct(d1, d2, g, spikes=()):
    (f1, s1), (_, s2) = d1, d2
    cuts = [*spikes, *(g - c for c in spikes)]
    return s1(g) + _quad(lambda x: f1(x) * s2(g - x), _panels(0, g, cuts))


def db(value_db):
    return 10.0 ** (value_db / 10.0)  # as hrtwist.distributions.db_to_linear


CASES = [
    # name, component 1, component 2, threshold (float64, linear)
    ("LN_PAIR_TAIL_20DB", lognormal_db(0.0, 6.0), lognormal_db(0.0, 6.0), 100.0),
    ("WB_PAIR_TAIL_20DB", weibull(0.5, 1.0), weibull(0.5, 1.0), 100.0),
    ("WB_PAIR_TAIL_30DB", weibull(0.5, 1.0), weibull(0.5, 1.0), 1000.0),
    ("WB_PAIR_TAIL_55DB", weibull(0.5, 1.0), weibull(0.5, 1.0), db(55.0)),
    ("WB_SKEW_TAIL_35DB", weibull(0.2, 1.0), weibull(0.8, 3.0), db(35.0)),
    ("WB_SKEW_TAIL_42DB", weibull(0.2, 1.0), weibull(0.8, 3.0), db(42.0)),
    ("WB_LN_TAIL_26DB", weibull(0.3, 2.0), lognormal_db(1.0, 8.0), db(26.0)),
]

# a lognormal spike beside a wide law, far narrower than gamma: each
# integral is also cut around the spike, where it sits in x and in g - x
SPIKE_CASES = [
    # name, component 1, component 2, threshold, the spike's cuts
    ("WB_SPIKE_TAIL_200DB", weibull(0.05, 1.0), lognormal_db(0.0, 0.1), db(200.0),
     spike_cuts(0.0, 0.1)),
    ("WB_SPIKE_TAIL_300DB", weibull(0.05, 1.0), lognormal_db(0.0, 0.1), db(300.0),
     spike_cuts(0.0, 0.1)),
    ("WB_NARROW_SPIKE_TAIL_100DB", weibull(0.05, 1.0), lognormal_db(0.0, 0.05),
     db(100.0), spike_cuts(0.0, 0.05)),
    ("WB_NARROW_SPIKE_TAIL_200DB", weibull(0.05, 1.0), lognormal_db(0.0, 0.05),
     db(200.0), spike_cuts(0.0, 0.05)),
]


def main():
    _, sf = lognormal_db(0.0, 6.0)
    a, x = lognormal_pair_minimum(0.0, 6.0, mp.mpf(100.0))
    values = [
        ("LN6_SF_100", sf(mp.mpf(100.0))),
        ("LN6_LAMBDA_100", -mp.log(sf(mp.mpf(100.0)))),
        ("LN_PAIR_A_20DB", a),
        ("LN_PAIR_THETA_20DB", 1 - 2 / a),
    ]
    print(f"# LN_PAIR_A_20DB minimiser x* = {mp.nstr(x, 8)}")
    for name, value in values:
        print(f"{name} = {mp.nstr(value, 17, min_fixed=1, max_fixed=0)}")
    for name, d1, d2, g, spikes in [(*case, ()) for case in CASES] + SPIKE_CASES:
        g = mp.mpf(g)
        split = tail_split(d1, d2, g, spikes)
        direct = tail_direct(d1, d2, g, spikes)
        gap = abs(split - direct) / split
        if gap > mp.mpf(10) ** -20:
            raise SystemExit(f"{name}: decompositions differ by {mp.nstr(gap, 3)}")
        print(f"{name} = {mp.nstr(split, 17, min_fixed=1, max_fixed=0)}")


if __name__ == "__main__":
    main()
