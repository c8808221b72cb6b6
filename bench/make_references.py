"""Compute the reference tails that the benchmark checks answers against.

Run from the repository root:

    python3 bench/make_references.py

It rewrites bench/references.json.  Nothing here imports hrtwist: the
pair tails come from mpmath quadrature of the two-component convolution,
and the three-component lognormal tails from the Asmussen-Kroese
conditional Monte Carlo estimator (Adv. Appl. Probab. 38(2), 2006) in
plain numpy.  The Asmussen-Kroese code is also run on the lognormal pair
and compared with the quadrature there, as a check on the estimator.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import special

OUT = Path(__file__).with_name("references.json")
DB = math.log(10.0) / 10.0
SIGMA_6DB = 6.0 * DB
GRID_STEP_DB = 0.25
AK_SAMPLES = 20_000_000
AK_CHUNK = 1_000_000
AK_SEED = 20140617

mp.mp.dps = 30


def grid(lo_db, hi_db):
    n = int(round((hi_db - lo_db) / GRID_STEP_DB))
    return [lo_db + GRID_STEP_DB * i for i in range(n)]


# --- quadrature of P(X1 + X2 > g) for iid pairs -----------------------------
# P = sf(g/2)^2 + 2 * int_{-inf}^{log(g/2)} h(u) sf(g - e^u) du, where h is
# the density of log X.  Both laws are given by (h, sf, centre, scale of log X).

def weibull_law(shape, scale):
    k, b = mp.mpf(shape), mp.mpf(scale)

    def h(u):
        t = (mp.exp(u) / b) ** k
        return k * t * mp.exp(-t)

    def sf(x):
        return mp.exp(-(x / b) ** k)

    return h, sf, float(mp.log(b)), 1.0 / shape


def lognormal_law(mu, sigma):
    mu, sigma = mp.mpf(mu), mp.mpf(sigma)

    def h(u):
        z = (u - mu) / sigma
        return mp.exp(-z * z / 2) / (sigma * mp.sqrt(2 * mp.pi))

    def sf(x):
        return mp.erfc((mp.log(x) - mu) / (sigma * mp.sqrt(2))) / 2

    return h, sf, float(mu), float(sigma)


def pair_tail(law, gamma_db):
    h, sf, centre, spread = law
    g = mp.mpf(10) ** (mp.mpf(gamma_db) / 10)
    top = mp.log(g / 2)
    lo = centre - 40.0 * spread
    pts = [-mp.inf] + [mp.mpf(v) for v in np.linspace(lo, float(top), 41)[:-1]
                       if v < top] + [top]
    body = mp.quad(lambda u: h(u) * sf(g - mp.exp(u)), pts)
    return sf(g / 2) ** 2 + 2 * body


# --- Asmussen-Kroese conditional Monte Carlo for iid lognormal sums --------
# P(S_n > g) = n E[ sf(max(M_{n-1}, g - S_{n-1})) ], M and S the max and sum
# of n-1 draws.

def ak_lognormal(n, mu, sigma, thresholds_db):
    gammas = 10.0 ** (np.asarray(thresholds_db) / 10.0)
    rng = np.random.default_rng(AK_SEED + n)
    s1 = np.zeros(len(gammas))
    s2 = np.zeros(len(gammas))
    for _ in range(AK_SAMPLES // AK_CHUNK):
        x = rng.lognormal(mu, sigma, size=(AK_CHUNK, n - 1))
        m, s = x.max(axis=1), x.sum(axis=1)
        for j, g in enumerate(gammas):
            z = n * special.ndtr(-(np.log(np.maximum(m, g - s)) - mu) / sigma)
            s1[j] += z.sum()
            s2[j] += (z * z).sum()
    mean = s1 / AK_SAMPLES
    var = (s2 / AK_SAMPLES - mean ** 2) * AK_SAMPLES / (AK_SAMPLES - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / AK_SAMPLES)


def log10(x):
    return float(mp.log10(x))


def main():
    wb2_grid = grid(15.0, 60.0)
    ln_grid = grid(10.0, 49.0)
    wb = weibull_law(0.5, 1.0)
    ln = lognormal_law(0.0, SIGMA_6DB)
    wb2 = [log10(pair_tail(wb, t)) for t in wb2_grid]
    ln2 = [log10(pair_tail(ln, t)) for t in ln_grid]
    ln3, ln3_se = ak_lognormal(3, 0.0, SIGMA_6DB, ln_grid)

    # the conditional estimator against quadrature on the pair
    ak2, ak2_se = ak_lognormal(2, 0.0, SIGMA_6DB, ln_grid)
    exact2 = 10.0 ** np.asarray(ln2)
    z = np.abs(ak2 - exact2) / ak2_se
    print(f"Asmussen-Kroese vs quadrature, lognormal pair: max |z| = "
          f"{z.max():.2f}, max rel se = {np.max(ak2_se / ak2):.2e}")
    print(f"lognormal N=3: max rel se = {np.max(ln3_se / ln3):.2e}")

    refs = {
        "wb2-deep": {
            "law": "iid Weibull(shape 0.5, scale 1), N = 2",
            "method": "mpmath quadrature of the convolution, 30 digits",
            "thresholds_db": wb2_grid, "log10_tail": wb2, "rel_se": None},
        "ln2-w2": {
            "law": "iid lognormal(0 dB, 6 dB), N = 2",
            "method": "mpmath quadrature of the convolution, 30 digits",
            "thresholds_db": ln_grid, "log10_tail": ln2, "rel_se": None},
        "ln3-curve": {
            "law": "iid lognormal(0 dB, 6 dB), N = 3",
            "method": f"Asmussen-Kroese conditional Monte Carlo, "
                      f"{AK_SAMPLES} samples, numpy seed {AK_SEED + 3}",
            "thresholds_db": ln_grid,
            "log10_tail": [float(np.log10(v)) for v in ln3],
            "rel_se": [float(v) for v in ln3_se / ln3]},
    }
    OUT.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
