"""Exhaustive grid search over the scaled simplex: the reference that the
structured solver's objective is checked against."""
import numpy as np

from hrtwist import ParameterError, SumProblem


def grid_oracle_pprime(problem: SumProblem,
                       grid_points_per_dim: int) -> tuple[np.ndarray, float]:
    """Exhaustive simplex-grid minimization of the summed hazards, N <= 3."""
    n = problem.n
    gamma = problem.gamma
    if n > 3:
        raise ParameterError("grid oracle supports N <= 3 only")
    g = int(grid_points_per_dim)
    if g < 2:
        raise ParameterError("need at least 2 grid points per dimension")

    if n == 1:
        x = np.array([gamma])
        return x, float(problem.hazard_sum(x)[0])

    axis = np.linspace(0.0, gamma, g)
    if n == 2:
        pts = np.column_stack([axis, gamma - axis])
    else:
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        x1, x2 = x1.ravel(), x2.ravel()
        x3 = gamma - x1 - x2
        keep = x3 >= -1e-12 * gamma
        pts = np.column_stack([x1[keep], x2[keep], np.maximum(x3[keep], 0.0)])
    objs = problem.hazard_sum(pts)
    best = int(np.argmin(objs))
    return pts[best], float(objs[best])
