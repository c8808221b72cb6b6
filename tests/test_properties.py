"""Identities and bounds of the sampling core over random component
mixes, thresholds, sample counts and seeds.

The examples are derandomized and few, so the suite stays deterministic
and quick.  Identities compare whole results with ``==``; bounds allow
only rounding.
"""
from hypothesis import assume, given, settings, strategies as st

from hrtwist import (Lognormal, SumProblem, Weibull, is_estimate, naive_mc,
                     solve_pprime)
from hrtwist.estimators import CHUNK_SIZE
from hrtwist.solver import log_weight

components = st.one_of(
    st.builds(Weibull, st.floats(0.3, 0.95), st.floats(0.5, 3.0)),
    st.builds(Lognormal, st.floats(-1.0, 1.0), st.floats(0.5, 2.0)))

problems = st.builds(SumProblem.from_db,
                     st.lists(components, min_size=1, max_size=4),
                     st.floats(-5.0, 40.0))

seeds = st.integers(0, 2 ** 32 - 1)

sample_counts = st.integers(1, 3 * CHUNK_SIZE)

# two or three chunks, the last one ragged unless the count is a multiple
multi_chunk_counts = st.integers(CHUNK_SIZE + 1, 3 * CHUNK_SIZE)

quick = settings(derandomize=True, database=None, deadline=None)


@settings(quick, max_examples=20)
@given(problems, sample_counts, seeds, st.integers(0, 7))
def test_zero_twist_is_naive_mc(problem, m, seed, stream_id):
    assert (is_estimate(problem, 0.0, m, seed, stream_id=stream_id)
            == naive_mc(problem, m, seed, stream_id=stream_id))


@settings(quick, max_examples=10)
@given(problems, st.floats(0.0, 0.95), multi_chunk_counts, seeds)
def test_worker_count_irrelevant(problem, theta, m, seed):
    assert (is_estimate(problem, theta, m, seed, workers=1)
            == is_estimate(problem, theta, m, seed, workers=2))


@settings(quick, max_examples=12)
@given(problems, sample_counts, seeds)
def test_certificate_holds_at_theta_star(problem, m, seed):
    # every hit lies beyond the simplex, so its hazard sum is at least A
    # and its log weight at most the analytic worst case
    sol = solve_pprime(problem)
    theta, a = sol.theta_star, sol.objective
    r = is_estimate(problem, theta, m, seed)
    assert r.min_hazard_sum_hit >= a * (1.0 - 1e-9)
    # a run without hits has no hit weight: at theta 0, 0 * inf is nan
    assert (r.hit_frequency == 0
            or log_weight(theta, r.min_hazard_sum_hit, problem.n)
            <= log_weight(theta, a, problem.n) + 1e-12)


@settings(quick, max_examples=20)
@given(st.lists(components, min_size=1, max_size=4), st.floats(-5.0, 40.0),
       st.floats(0.01, 2.0), st.floats(0.0, 0.95), sample_counts, seeds)
def test_estimate_falls_as_threshold_rises(comps, gamma_db, rise_db, theta,
                                           m, seed):
    # the same words give the same samples at both thresholds, so the
    # hits at the higher one are a subset of those at the lower one
    low = is_estimate(SumProblem.from_db(comps, gamma_db), theta, m, seed)
    high = is_estimate(SumProblem.from_db(comps, gamma_db + rise_db), theta,
                       m, seed)
    assume(low.hit_frequency > 0)
    assert high.hit_frequency <= low.hit_frequency
    assert high.alpha_hat <= low.alpha_hat * (1.0 + 1e-12)
