"""Exact identities of the sampling core over random component mixes,
thresholds, sample counts and seeds.

The examples are derandomized and few, so the suite stays deterministic
and quick; every property compares whole results with ``==``.
"""
from hypothesis import given, settings, strategies as st

from hrtwist import Lognormal, SumProblem, Weibull, is_estimate, naive_mc
from hrtwist.estimators import CHUNK_SIZE

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
