"""expected_response_from_records against frozen per-policy references.

The references below compute each policy's value from scratch, as the
package once did: the delta-grid sweep took one mean per delta, and the
optimizer scored each reference policy with its own call.  They are kept here
only to pin the function bit for bit; nothing in the package uses them.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochint.effects import (
    UnitRecords,
    expected_response_from_records,
    m_term,
)

# sizes around numpy's 128-element pairwise-summation block, plus the sample
# sizes of the CLI workloads
SIZES = st.one_of(st.integers(1, 300),
                  st.sampled_from([127, 128, 129, 747, 1000, 8000, 10000]))
DELTAS = st.one_of(st.sampled_from([0.0, 1.0, 10.0]),
                   st.floats(0.0, 10.0, allow_nan=False))


def random_records(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.01, 0.99, n)
    mu0 = rng.normal(0.0, 2.0, n)
    mu1 = mu0 + rng.normal(0.5, 1.0, n)
    t = (rng.random(n) < p).astype(np.int64)
    y = np.where(t == 1, mu1, mu0) + rng.normal(0.0, 1.0, n)
    return UnitRecords(treatments=t, outcomes=y, mu0=mu0, mu1=mu1, p_hat=p)


def reference_terms(records):
    p = records.p_hat
    m1 = m_term(records.treatments, records.outcomes, records.mu1, p, 1)
    m0 = m_term(records.treatments, records.outcomes, records.mu0, p, 0)
    return p, m1, m0


def reference_sweep(records, grid):
    p, m1, m0 = reference_terms(records)
    qs = [d * p / (1.0 + (d - 1.0) * p) for d in grid]
    return np.array([np.mean(q * m1 + (1.0 - q) * m0) for q in qs])


def reference_policy_value(records, deltas):
    p, m1, m0 = reference_terms(records)
    q = deltas * p / (1.0 + (deltas - 1.0) * p)
    return float(np.mean(q * m1 + (1.0 - q) * m0))


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1),
       grid=st.lists(DELTAS, min_size=1, max_size=12))
def test_scalar_calls_match_per_delta_sweep(n, seed, grid):
    records = random_records(n, seed)
    grid = np.array(grid)
    got = [expected_response_from_records(records, d) for d in grid]
    assert all(isinstance(value, float) for value in got)
    assert np.array_equal(got, reference_sweep(records, grid))


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), n_policies=st.integers(1, 6),
       policy_seed=st.integers(0, 2**32 - 1))
def test_vector_calls_match_per_policy_references(n, seed, n_policies, policy_seed):
    records = random_records(n, seed)
    rng = np.random.default_rng(policy_seed)
    stack = rng.uniform(0.0, 10.0, (n_policies, n))
    stack[0] = 1.0
    for row in stack:
        single = expected_response_from_records(records, row)
        assert isinstance(single, float)
        assert single == reference_policy_value(records, row)


@settings(max_examples=60, deadline=None)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1), delta=DELTAS)
@example(n=747, seed=0, delta=2.0)
def test_scalar_delta_equals_its_constant_vector(n, seed, delta):
    records = random_records(n, seed)
    scalar = expected_response_from_records(records, delta)
    vector = expected_response_from_records(records, np.full(n, delta))
    assert np.float64(scalar).view(np.int64) == np.float64(vector).view(np.int64)


@pytest.mark.parametrize("shape", [(9,), (11,), (3,), (1,), (2, 9), (3, 2), (2, 10),
                                   (10, 1), (1, 10), (0, 5), (10, 1, 1), (1, 10, 1)])
def test_malformed_shapes_raise(shape):
    records = random_records(10, 0)
    with pytest.raises(ValueError, match=r"^expected a scalar delta or 10 per-unit "
                                         r"deltas, got shape \("):
        expected_response_from_records(records, np.ones(shape))


def test_invalid_deltas_raise():
    records = random_records(10, 0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        expected_response_from_records(records, np.full((2, 1), -1.0))
    with pytest.raises(ValueError, match="finite and >= 0"):
        expected_response_from_records(records, np.full((2, 10), np.nan))


def test_sweep_memory_is_linear_in_n():
    n = 20000
    records = random_records(n, 0)
    records.arm_terms  # built once per records, before any policy
    vector = np.random.default_rng(1).uniform(0.0, 10.0, n)
    for deltas in (2.5, vector):
        want = float(np.mean(records.phi(deltas)))
        tracemalloc.start()
        try:
            got = expected_response_from_records(records, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few (n,) temporaries of one policy
        assert peak < 10 * n * 8, (np.shape(deltas), peak / (n * 8))
        assert got == want
