"""Minmax choice of the twisting parameter.

The worst-case likelihood weight over the exceedance region is governed
by the minimum of the summed cumulative hazards subject to the
coordinates adding up to the threshold.  Solving that constrained
minimization gives the objective value A, from which the minmax-optimal
twisting amount is theta* = 1 - N/A (clamped at 0 when A <= N) and the
second-moment upper bound (1-theta)^(-2N) exp(-2 theta A).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Lognormal, db_to_linear
from .errors import ParameterError
from .roots import find_root


@dataclass(frozen=True)
class SumProblem:
    """N independent components plus the exceedance threshold."""

    components: tuple
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise ParameterError("need at least one component")
        # below the least normal float, gamma / N can round to 0
        if not np.finfo(float).tiny <= self.gamma < np.inf:
            raise ParameterError(f"gamma {self.gamma} is not a finite normal float")

    @classmethod
    def from_db(cls, components, gamma_db: float) -> "SumProblem":
        return cls(tuple(components), float(db_to_linear(gamma_db)))

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def laws(self) -> dict:
        """Each distinct law -> the list of its column indices, in order of
        first appearance: the one grouping of identical components."""
        laws: dict = {}
        for i, comp in enumerate(self.components):
            laws.setdefault(comp, []).append(i)
        return laws

    def hazard_sum(self, x) -> np.ndarray:
        """Sum of component cumulative hazards at coordinate vector(s) x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        total = np.zeros(x.shape[0])
        for i, comp in enumerate(self.components):
            total += comp.hazard_function(x[:, i])
        return total


@dataclass(frozen=True)
class MinmaxSolution:
    x_star: tuple  # floats, so that solutions compare and hash as values
    objective: float
    dominant_index: int
    theta_star: float
    second_moment_bound: float
    clamped: bool


def theta_star(objective: float, n: int) -> float:
    """Minmax-optimal twisting amount, clamped to 0 for small objectives."""
    if objective < 0.0:
        raise ParameterError(f"objective must be nonnegative, got {objective}")
    if n < 1:
        raise ParameterError("n must be >= 1")
    if objective <= n:
        return 0.0
    theta = 1.0 - n / objective
    if theta == 1.0:
        raise ParameterError(
            f"theta* = 1 - N/A rounds to 1.0 (A = {objective:.6e}, N = {n}): "
            "the twisted law cannot be sampled")
    return theta


def log_weight(theta, hazard_sum, n: int):
    """Log of the IS weight (1 - theta)^(-N) exp(-theta * hazard sum):
    -N log1p(-theta) - theta * hazard_sum, of a float or an ndarray of
    hazard sums.

    Each operation rounds monotonely, so the largest log weight of a set of
    hazard sums is that of the least, bit for bit.  At theta = 0 a finite
    hazard sum weighs exactly 1 (log weight +0.0).
    """
    return -n * math.log1p(-theta) - theta * hazard_sum


def second_moment_bound(theta: float, objective: float, n: int) -> float:
    """Upper bound (1 - theta)^(-2N) exp(-2 theta A) on the second moment of
    the weighted indicator: the squared weight at hazard sum A.

    Formed as exp(2 `log_weight`), so that the power and the exponential
    never overflow, underflow or lose bits alone: the bound is inf above the
    float range and 0 below it, never an overflow error or a false 0.  It
    takes `math`'s exp, not numpy's, whose last bit follows the SIMD path
    numpy dispatches to on the CPU at hand.
    """
    if not (0.0 <= theta < 1.0):
        raise ParameterError(f"theta must lie in [0, 1), got {theta}")
    try:
        return math.exp(2.0 * log_weight(theta, objective, n))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# constrained minimization over the scaled simplex
# ---------------------------------------------------------------------------

# cells of the log-rate scan; two roots inside one cell are not seen
_SCAN_POINTS = 128


def _equal_rate_points(gamma: float, n: int, d: int, rising, nu) -> np.ndarray:
    """Points with x_j = r_j(nu) for the listed j, x_d = the rest, 0 elsewhere.

    One row per rate in nu; rising holds (Log-normal component, indices).
    The rest is clamped at 0: where the r_j(nu) add up to gamma, it can
    round below it.
    """
    x = np.zeros((np.size(nu), n))
    for comp, idx in rising:
        x[:, idx] = comp.rising_branch(np.atleast_1d(nu))[:, None]
    x[:, d] = np.maximum(gamma - x.sum(axis=1), 0.0)
    return x


def solve_pprime(problem: SumProblem) -> MinmaxSolution:
    """Minimize the summed cumulative hazards over {x >= 0, sum x = gamma}.

    At a minimum every positive coordinate has the same hazard rate nu,
    and at most one coordinate d lies past the peak of its hazard rate,
    where its cumulative hazard turns concave.  Weibull hazard rates fall
    from the origin, so every Weibull coordinate other than d is 0, and
    every Log-normal coordinate other than d sits on the rising branch
    x_j = r_j(nu) of its hazard rate.  The candidates are the N vertices
    and, for each index d, the roots in nu of
    hazard_rate_d(gamma - sum_{j != d} r_j(nu)) = nu, bracketed by a scan
    over log nu and refined by `find_root` (Brent's method).  The scan runs
    from nu_lo, the least rate the largest coordinate can have, up to the
    least peak rate.  A root at nu_lo itself leaves no sign change, so when
    the first cell brackets none, the point at nu_lo is a candidate too.
    The candidate with the least hazard sum wins, ties going to the earlier
    candidate.  Identical components give identical candidates, so d runs
    over distinct components only.  A Weibull-only problem reduces to the
    closed form A = min_i Lambda_i(gamma).
    """
    comps = problem.components
    gamma = problem.gamma
    n = problem.n

    laws = problem.laws
    heads = [idx[0] for idx in laws.values()]

    candidates = []
    for d in heads:
        comps[d].concavity_onset()  # raises outside the family restriction
        vertex = np.zeros(n)
        vertex[d] = gamma
        candidates.append(vertex)

    for d in heads:
        rising = [(law, [j for j in idx if j != d]) for law, idx in laws.items()
                  if isinstance(law, Lognormal) and idx != [d]]
        if not rising:
            continue
        nu_hi = min(float(c.hazard_rate(c.concavity_onset())) for c, _ in rising)
        # the largest coordinate lies in [gamma/n, gamma] and has rate nu
        ends = np.array([gamma / n, gamma])
        nu_lo = min(float(np.min(c.hazard_rate(ends)))
                    for c in [comps[d]] + [c for c, _ in rising])
        if not nu_lo < nu_hi:
            continue
        if nu_lo == 0.0:
            raise ParameterError(f"hazard rates underflow to 0 at gamma={gamma}")

        def mismatch(t, d=d, rising=rising):
            nu = np.exp(t)
            x_d = _equal_rate_points(gamma, n, d, rising, nu)[:, d]
            rate = comps[d].hazard_rate(np.maximum(x_d, np.finfo(float).tiny))
            with np.errstate(over="ignore"):  # an inf ratio keeps its sign
                return rate / nu - 1.0

        grid = np.linspace(np.log(nu_lo), np.log(nu_hi), _SCAN_POINTS)
        f = mismatch(grid)
        cells = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
        for k in cells:
            # the scan's values at the bracket's ends are the refinement's
            t = find_root(lambda t: mismatch(t)[0], grid[k], grid[k + 1],
                          xtol=1e-14, f_lo=f[k], f_hi=f[k + 1])
            candidates.append(
                _equal_rate_points(gamma, n, d, rising, np.exp(t))[0])
        # a root at nu_lo itself, such as the equal split x_j = gamma / n,
        # rounds to either side of 0 there, and may leave no sign change
        if not (cells.size and cells[0] == 0):
            candidates.append(_equal_rate_points(gamma, n, d, rising, nu_lo)[0])

    x_all = np.array(candidates)
    objectives = problem.hazard_sum(x_all)
    best = int(np.argmin(objectives))
    x_best, a = x_all[best], float(objectives[best])
    th = theta_star(a, n)
    return MinmaxSolution(
        x_star=tuple(map(float, x_best)),
        objective=a,
        dominant_index=int(np.argmax(x_best)),
        theta_star=th,
        second_moment_bound=second_moment_bound(th, a, n),
        clamped=a <= n,
    )
