"""Property test of the scalar sampling contract: n scalar draws of a spec
equal one batch of n draws bit for bit, and leave the stream where the batch
does, over the whole parameter range the package accepts."""

import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from nonneg_dp.distributions import RngState
from nonneg_dp.mechanisms import (
    PostProcessor,
    PrivacyParams,
    Variant,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
    sample_mechanism,
)

SMALLEST_NORMAL = sys.float_info.min
# Below 1/2 the multiplicative mechanism has finite variance and no warning.
BELOW_HALF = math.nextafter(0.5, 0.0)


def _scale(upper: float):
    """b log-uniform over the normal doubles up to ``upper``."""
    return st.floats(math.log(SMALLEST_NORMAL), math.log(upper)).map(
        lambda log_b: min(max(math.exp(log_b), SMALLEST_NORMAL), upper))


def _additive(make, alpha_ratio=st.just(0.0)):
    """(spec, q): b log-uniform up to 1e300, q/b in [0, 1e6], and the spec
    made by ``make(privacy, alpha)`` with alpha/b drawn from ``alpha_ratio``."""
    return st.tuples(_scale(1e300), st.floats(0.0, 1e6), alpha_ratio).map(
        lambda case: (make(PrivacyParams(1.0, case[0]), case[2] * case[0]), case[1] * case[0]))


# Multiplicative draws stay finite: for b < 1/2 the noise is below
# 36.05 b < 18.03, so exp(noise) < 6.8e7, and q stays at most 1e300.
SPECS = st.one_of(
    _additive(lambda privacy, alpha: make_laplace_mechanism(privacy)),
    _additive(lambda privacy, alpha: make_postprocessed_mechanism(privacy, PostProcessor.ramp())),
    _additive(lambda privacy, alpha: make_postprocessed_mechanism(
        privacy, PostProcessor.translated_ramp(alpha)), st.floats(0.0, 1e3)),
    _additive(lambda privacy, alpha: make_restricted_mechanism(privacy)),
    st.tuples(_scale(BELOW_HALF), st.floats(1e-300, 1e300)).map(
        lambda case: (make_multiplicative_mechanism(1.0, case[0]), case[1])),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=SPECS, seed=st.integers(0, 2**64 - 1), n=st.integers(1, 8))
def test_scalar_draws_equal_one_batch(case, seed, n):
    spec, q = case
    rng, reference = RngState(seed), RngState(seed)
    scalar = [sample_mechanism(spec, q, rng) for _ in range(n)]
    batch = sample_mechanism(spec, q, reference, size=n)
    assert all(type(value) is float for value in scalar)
    np.testing.assert_array_equal(scalar, batch)
    assert rng.uniform() == reference.uniform()
    if spec.variant is Variant.RESTRICTED:
        assert min(scalar) >= 0.0
