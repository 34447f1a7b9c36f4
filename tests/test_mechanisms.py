import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from nonneg_dp.distributions import (
    _TINY,
    LaplaceDist,
    RngState,
    laplace_quantile,
)
from nonneg_dp.mechanisms import (
    _BLOCK,
    MechanismSpec,
    PostProcessor,
    PrivacyParams,
    Variant,
    adjacent_densities,
    apply_postprocessor,
    guaranteed_privacy_level,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
    restricted_quantile,
    sample_mechanism,
    sample_restricted_inverse,
    sample_restricted_rejection,
)
from nonneg_dp.verify import certify_dp_densities

from reference import laplace_cdf, laplace_pdf, pointwise, restricted_cdf, restricted_pdf, softplus, wavy_ramp


class _FixedUniform:
    """Stub stream yielding a prescribed sequence of uniforms."""

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self, size=None, out=None):
        if size is None:
            return self.values.pop(0)
        if out is None:
            out = np.empty(size)
        out[...] = self.values[:size]
        del self.values[:size]
        return out


class TestPrivacyParams:
    def test_scale_is_sensitivity_over_epsilon(self):
        assert PrivacyParams(1.0, 1.0).scale == 1.0
        assert PrivacyParams(0.5, 0.1).scale == pytest.approx(0.2)

    @pytest.mark.parametrize("eps,sens", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1), (1.0, math.inf)])
    def test_rejects_bad_parameters(self, eps, sens):
        with pytest.raises(ValueError):
            PrivacyParams(eps, sens)


class TestPostProcessor:
    def test_ramp_clamps_negatives(self):
        assert apply_postprocessor(PostProcessor.ramp(), -3.0) == 0.0
        assert apply_postprocessor(PostProcessor.ramp(), 2.0) == 2.0

    def test_translated_ramp(self):
        pp = PostProcessor.translated_ramp(1.0)
        assert apply_postprocessor(pp, 2.5) == 1.5
        assert apply_postprocessor(pp, 0.5) == 0.0

    def test_rejects_negative_translation(self):
        with pytest.raises(ValueError):
            PostProcessor.translated_ramp(-0.5)

    @pytest.mark.parametrize("args, message", [
        (("ramp",), "^post-processor kind must be 'translated-ramp' or 'custom', got 'ramp'$"),
        (("custom",), "^a custom post-processor needs a callable func, got None$"),
        (("custom", 0.0, 1.0), "^a custom post-processor needs a callable func, got 1.0$"),
    ])
    def test_rejects_a_form_it_cannot_apply(self, args, message):
        # Each was built, and apply_postprocessor then raised
        # TypeError: 'NoneType' object is not callable.
        with pytest.raises(ValueError, match=message):
            PostProcessor(*args)

    def test_ramp_is_one_shared_translated_ramp_at_zero(self):
        assert PostProcessor.ramp() == PostProcessor.translated_ramp(0.0)
        assert PostProcessor.ramp() is PostProcessor.ramp()

    def test_custom_square_integrable_accepted(self):
        pp = PostProcessor.custom(lambda x: x * x, scale=1.0)
        assert apply_postprocessor(pp, 3.0) == 9.0
        assert apply_postprocessor(pp, -2.0) == 4.0
        # f^2 = |x|^-0.8 has an integrable singularity at 0
        pp = PostProcessor.custom(lambda x: abs(x) ** -0.4 if x else 0.0, scale=1.0)
        assert apply_postprocessor(pp, -1.0) == 1.0
        # Split only at 0, quad reports roundoff trouble for 161 kinks; split
        # at each declared kink, the integrals settle, also past 400 kinks.
        for knot_count in (161, 401):
            f, knots, _, _ = wavy_ramp(knot_count)
            pp = PostProcessor.custom(f, scale=1.0, kinks=reversed(knots))
            assert pp.kinks == tuple(knots)

    @pytest.mark.parametrize("scale", np.logspace(-3, 3, 25).tolist())
    def test_custom_softplus_accepted_at_every_scale(self, scale):
        # The benchmark's post-processor, vetted at scale 1 by `release` and
        # at log-uniform scales in [1e-2, 1e2] by `analysis`.
        assert PostProcessor.custom(softplus, scale).func is softplus

    def test_custom_rejects_negative_function(self):
        with pytest.raises(ValueError, match="not nonnegative"):
            PostProcessor.custom(lambda x: x, scale=1.0)

    def test_custom_rejects_non_square_integrable(self):
        # exp(|x|): f^2 grows like exp(2|x|), overwhelming the exp(-|x|)
        # weight.  1/|x| (infinite mean) and |x|^-0.75 (infinite variance):
        # f^2 is not integrable at 0.
        for func in (lambda x: math.exp(abs(x)),
                     lambda x: 1 / abs(x) if x else 0.0,
                     lambda x: abs(x) ** -0.75 if x else 0.0):
            with pytest.raises(ValueError, match="square-integrable"):
                PostProcessor.custom(func, scale=1.0)

    @pytest.mark.parametrize("kink", [math.inf, -math.inf, math.nan])
    def test_custom_rejects_non_finite_kink(self, kink):
        with pytest.raises(ValueError, match="kinks must be finite"):
            PostProcessor.custom(lambda x: max(x, 0.0), scale=1.0, kinks=(0.0, kink))

    def test_negative_output_caught_at_apply_time(self):
        # Leaves [0, inf) only beyond the construction spot-check grid; nan
        # and inf, past the reach of the settled integrals too, were released.
        for bad, edge, x in ((-1.0, 25.0, 30.0), (math.nan, 1e4, 2e4), (math.inf, 1e4, 2e4)):
            pp = PostProcessor.custom(lambda v, bad=bad, edge=edge: max(v, 0.0) if v <= edge else bad, 1.0)
            with pytest.raises(ValueError, match="not nonnegative"):
                apply_postprocessor(pp, x)

    def test_vectorized_application(self):
        pp = PostProcessor.translated_ramp(0.5)
        np.testing.assert_array_equal(
            apply_postprocessor(pp, np.array([-1.0, 0.5, 2.0])),
            np.array([0.0, 0.0, 1.5]))


class TestCustomPostProcessorShapes:
    """A custom function applies elementwise to any shape, each value equal to
    the scalar call."""

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3), (2, 2, 2)])
    def test_matches_scalar_calls(self, shape):
        pp = PostProcessor.custom(lambda x: x * x, scale=1.0)
        x = np.random.default_rng(7).normal(size=shape)
        out = apply_postprocessor(pp, x)
        expected = np.array([apply_postprocessor(pp, v) for v in x.ravel().tolist()])
        assert type(out) is (float if shape == () else np.ndarray)
        assert np.shape(out) == shape
        assert np.asarray(out).tobytes() == expected.reshape(shape).tobytes()


class TestFactories:
    def test_plain_uses_tight_scale(self):
        assert make_laplace_mechanism(PrivacyParams(1.0, 1.0)).scale == 1.0
        assert make_laplace_mechanism(PrivacyParams(0.5, 0.1)).scale == pytest.approx(0.2)

    def test_zero_sensitivity_flags_degenerate_mechanism(self):
        with pytest.warns(UserWarning, match="degenerate"):
            spec = make_laplace_mechanism(PrivacyParams(1.0, 0.0))
        assert spec.scale == 0.0
        assert spec.warning is not None
        assert sample_mechanism(spec, 3.0, RngState(0)) == 3.0

    def test_guaranteed_levels(self):
        privacy = PrivacyParams(0.7, 1.0)
        assert guaranteed_privacy_level(make_laplace_mechanism(privacy)) == 0.7
        pp_spec = make_postprocessed_mechanism(privacy, PostProcessor.ramp())
        assert guaranteed_privacy_level(pp_spec) == 0.7
        assert guaranteed_privacy_level(make_restricted_mechanism(privacy)) == pytest.approx(1.4)
        mult = make_multiplicative_mechanism(0.7, 0.2)
        assert guaranteed_privacy_level(mult) == 0.7

    def test_fair_comparison_doubles_scale_not_level(self):
        privacy = PrivacyParams(1.0, 1.0)
        spec = make_restricted_mechanism(privacy, fair_comparison=True)
        assert spec.scale == 2.0
        assert guaranteed_privacy_level(spec) == 1.0

    def test_multiplicative_warns_on_infinite_moments(self):
        with pytest.warns(UserWarning, match="mean is infinite"):
            spec = make_multiplicative_mechanism(1.0, 1.5)
        assert spec.warning is not None
        with pytest.warns(UserWarning, match="variance is infinite"):
            make_multiplicative_mechanism(1.0, 0.5)
        mult = make_multiplicative_mechanism(1.0, 0.4)
        assert mult.warning is None
        assert mult.scale == pytest.approx(0.4)


_DEGENERATE = "degenerate mechanism: zero sensitivity adds no noise"
_MEAN_INFINITE = "scale >= 1: mechanism mean is infinite"
_VARIANCE_INFINITE = "scale >= 1/2: mechanism variance is infinite"


def _made_with_warnings(make):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = make()
    return spec, [str(w.message) for w in caught]


def _at_scale(spec, scale):
    """``spec`` built again with only its scale changed."""
    return MechanismSpec(spec.variant, spec.privacy, scale, spec.postprocessor)


class TestLevelAndWarningFollowScale:
    """The level and warning come from the scale in use.  At the constructors'
    scales they equal the formulas in epsilon and the sensitivity: level
    epsilon (2*epsilon for restriction at the tight scale; 0 at zero
    sensitivity), a degenerate warning at zero sensitivity, and infinite
    moments for K >= epsilon or K >= epsilon/2."""

    def test_additive_constructors(self):
        rng = np.random.default_rng(2024)
        pairs = list(zip(10.0 ** rng.uniform(-3, 3, 100), 10.0 ** rng.uniform(-3, 3, 100)))
        pairs += [(eps, 0.0) for eps in (1e-3, 0.7, 1.0, 1e3)]
        for eps, delta in pairs:
            privacy = PrivacyParams(float(eps), float(delta))
            expected_warning = _DEGENERATE if delta == 0.0 else None
            for make, level in [
                (lambda: make_laplace_mechanism(privacy), eps),
                (lambda: make_postprocessed_mechanism(privacy, PostProcessor.ramp()), eps),
                (lambda: make_postprocessed_mechanism(privacy, PostProcessor.translated_ramp(0.3)), eps),
                (lambda: make_restricted_mechanism(privacy), 2.0 * eps),
                (lambda: make_restricted_mechanism(privacy, fair_comparison=True), eps),
            ]:
                spec, caught = _made_with_warnings(make)
                assert guaranteed_privacy_level(spec) == (level if delta > 0.0 else 0.0)
                assert spec.warning == expected_warning
                assert caught == ([expected_warning] if expected_warning else [])

    def test_multiplicative_constructor_at_the_moment_thresholds(self):
        rng = np.random.default_rng(2025)
        for eps in [1.0, 0.7, 3.0, *(10.0 ** rng.uniform(-3, 3, 50))]:
            eps = float(eps)
            bounds = [eps, math.nextafter(eps, 0.0), eps / 2.0, math.nextafter(eps / 2.0, 0.0)]
            bounds += [float(eps * k) for k in 10.0 ** rng.uniform(-2, 1, 20)]
            for k in bounds:
                expected = (_MEAN_INFINITE if k >= eps else
                            _VARIANCE_INFINITE if k >= eps / 2.0 else None)
                spec, caught = _made_with_warnings(lambda: make_multiplicative_mechanism(eps, k))
                assert spec.warning == expected, (eps, k)
                assert caught == ([expected] if expected else [])
                assert guaranteed_privacy_level(spec) == eps

    def test_replaced_scale_sets_level_and_warning(self):
        privacy = PrivacyParams(0.8, 1.5)
        plain = make_laplace_mechanism(privacy)
        assert guaranteed_privacy_level(_at_scale(plain, 2.5)) == pytest.approx(0.6, rel=2**-52)
        restricted = make_restricted_mechanism(PrivacyParams(0.5, 1.0))
        assert guaranteed_privacy_level(_at_scale(restricted, 2.5)) == pytest.approx(0.8, rel=2**-52)
        mult = make_multiplicative_mechanism(1.0, 0.3)
        assert guaranteed_privacy_level(_at_scale(mult, 2.5)) == pytest.approx(0.12, rel=2**-52)
        spec, caught = _made_with_warnings(lambda: _at_scale(mult, 1.5))
        assert spec.warning == _MEAN_INFINITE and caught == [_MEAN_INFINITE]
        spec, caught = _made_with_warnings(lambda: _at_scale(mult, 0.6))
        assert spec.warning == _VARIANCE_INFINITE and caught == [_VARIANCE_INFINITE]
        with pytest.warns(UserWarning):
            divergent = make_multiplicative_mechanism(1.0, 1.5)
        spec, caught = _made_with_warnings(lambda: _at_scale(divergent, 0.3))
        assert spec.warning is None and caught == []

    def test_zero_sensitivity_level(self):
        # Adjacent data give one output law, with or without noise; a positive
        # sensitivity without noise has no finite level.
        with pytest.warns(UserWarning, match="degenerate"):
            plain = make_laplace_mechanism(PrivacyParams(0.7, 0.0))
            restricted = make_restricted_mechanism(PrivacyParams(0.7, 0.0))
        assert guaranteed_privacy_level(plain) == 0.0
        assert guaranteed_privacy_level(restricted) == 0.0
        noisy, caught = _made_with_warnings(lambda: _at_scale(plain, 0.5))
        assert guaranteed_privacy_level(noisy) == 0.0
        assert noisy.warning is None and caught == []
        with pytest.warns(UserWarning, match="degenerate"):
            noiseless = _at_scale(make_laplace_mechanism(PrivacyParams(0.7, 1.0)), 0.0)
        assert guaranteed_privacy_level(noiseless) == math.inf

    def test_spec_has_only_its_four_fields(self):
        assert MechanismSpec.__match_args__ == ("variant", "privacy", "scale", "postprocessor")

    @pytest.mark.parametrize("scale", [-0.5, -1.0, math.nan, math.inf, -math.inf])
    def test_spec_rejects_a_scale_that_is_not_finite_and_nonnegative(self, scale):
        # Such a spec gave a closed-form bias of 0.333 (scale -0.5) and a
        # privacy level of inf (nan) instead of failing.
        with pytest.raises(ValueError, match="scale"):
            MechanismSpec(Variant.MULTIPLICATIVE, PrivacyParams(1.0, 0.3), scale)
        with pytest.raises(ValueError, match="scale"):
            _at_scale(make_laplace_mechanism(PrivacyParams(1.0, 1.0)), scale)

    @pytest.mark.parametrize("scale", [5e-324, 1e-310, sys.float_info.min * (1.0 - 2.0**-52)])
    def test_spec_rejects_a_subnormal_scale(self, scale):
        # Such a scale has lost bits: at b = 1.6e-315 verify-dp measured a
        # level Delta/b above the epsilon the spec claimed.
        with pytest.raises(ValueError, match="^scale must be 0 or at least 2.2250738585072014e-308"):
            _at_scale(make_laplace_mechanism(PrivacyParams(1.0, 1.0)), scale)
        with pytest.raises(ValueError, match="^scale must be 0 or at least"):
            make_laplace_mechanism(PrivacyParams(1.0, scale))

    def test_spec_rejects_a_subnormal_sensitivity_over_epsilon(self):
        # The fair restricted spec doubles it to 3e-308, a normal scale.
        privacy = PrivacyParams(1.0, 1.5e-308)
        with pytest.raises(ValueError, match="^sensitivity/epsilon must be 0 or at least"):
            make_restricted_mechanism(privacy, fair_comparison=True)
        with pytest.raises(ValueError, match="^sensitivity/epsilon must be 0 or at least"):
            MechanismSpec(Variant.PLAIN, privacy, 1.0)

    def test_spec_accepts_zero_and_the_smallest_normal_scale(self):
        assert make_laplace_mechanism(PrivacyParams(1.0, sys.float_info.min)).scale == sys.float_info.min
        assert make_restricted_mechanism(PrivacyParams(4.0, 4.0 * sys.float_info.min)).scale == (
            sys.float_info.min)
        with pytest.warns(UserWarning, match="degenerate"):
            assert make_laplace_mechanism(PrivacyParams(1e300, 1e-300)).scale == 0.0

    @pytest.mark.parametrize("variant", list(Variant))
    def test_spec_has_a_postprocessor_exactly_when_post_processed(self, variant):
        # A post-processed spec without one raised AttributeError when sampled;
        # a plain spec given a ramp ignored it.
        ramp = PostProcessor.ramp()
        pp, other = (ramp, None) if variant is Variant.POST_PROCESSED else (None, ramp)
        MechanismSpec(variant, PrivacyParams(1.0, 1.0), 0.25, pp)
        with pytest.raises(ValueError, match="post-processor"):
            MechanismSpec(variant, PrivacyParams(1.0, 1.0), 0.25, other)


class TestRestrictedLaw:
    def test_cdf_values(self):
        base = LaplaceDist(0.0, 1.0)
        assert restricted_cdf(base, 0.0) == 0.0
        assert restricted_cdf(base, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)
        assert restricted_cdf(LaplaceDist(5.0, 1.0), 60.0) == pytest.approx(1.0, abs=1e-15)

    def test_cdf_vanishes_below_zero(self):
        assert restricted_cdf(LaplaceDist(0.0, 1.0), -0.5) == 0.0

    def test_pdf_values(self):
        base = LaplaceDist(0.0, 1.0)
        assert restricted_pdf(base, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert restricted_pdf(base, -1.0) == 0.0

    @pytest.mark.parametrize("q,b", [(0.0, 1.0), (1.0, 1.0), (5.0, 0.5), (2.0, 3.0)])
    def test_pdf_normalizes(self, q, b):
        base = LaplaceDist(q, b)
        total, _ = integrate.quad(lambda x: restricted_pdf(base, x),
                                  0.0, q + 40 * b, points=[q], epsabs=1e-13)
        assert abs(total - 1.0) < 1e-10

    def test_cdf_strictly_below_base_cdf(self):
        for q, b in [(0.0, 1.0), (2.0, 0.5), (10.0, 0.5)]:
            base = LaplaceDist(q, b)
            grid = np.linspace(-10 * b, q + 10 * b, 2000)
            assert np.all(restricted_cdf(base, grid) < pointwise(laplace_cdf, base, grid))

    @pytest.mark.parametrize("loc", [-1e-300, -1.0, -20.0, -40.0])
    def test_negative_location_is_value_error(self, loc):
        # Below -20 the normaliser 1 - F(0) cancels: at -40 the pdf and cdf
        # divided by zero and the quantile at 0.5 was -3.956, a negative draw.
        base = LaplaceDist(loc, 1.0)
        for call in (lambda: restricted_cdf(base, 1.0), lambda: restricted_pdf(base, 1.0),
                     lambda: restricted_quantile(base, 0.5),
                     lambda: restricted_pdf(base, np.array([0.0, 1.0])),
                     lambda: sample_restricted_inverse(base, RngState(1), size=3)):
            with pytest.raises(ValueError, match="location"):
                call()

    def test_signed_zero_location_is_the_origin(self):
        assert restricted_pdf(LaplaceDist(-0.0, 1.0), 1.0) == restricted_pdf(
            LaplaceDist(0.0, 1.0), 1.0)


class TestRestrictedSamplers:
    def test_inverse_transform_known_uniform(self):
        base = LaplaceDist(0.0, 1.0)
        value = sample_restricted_inverse(base, _FixedUniform(0.5))
        assert value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_inverse_outputs_nonnegative(self):
        draws = sample_restricted_inverse(LaplaceDist(0.0, 1.0), RngState(3), size=10**5)
        assert np.all(draws >= 0)

    def test_inverse_survives_uniform_rounding_to_one(self):
        # The largest uniform the stream yields, 1 - 2**-53, whose base
        # probability 1/2 + u/2 rounds up to 1.0.  (1.0 - 2**-54 is 1.0 itself,
        # which is out of range.)
        u = math.nextafter(1.0, 0.0)
        assert 0.5 + u * 0.5 == 1.0
        value = sample_restricted_inverse(LaplaceDist(0.0, 1.0), _FixedUniform(u))
        assert math.isfinite(value)

    def test_rejection_outputs_nonnegative(self):
        rng = RngState(4)
        base = LaplaceDist(0.5, 1.0)
        assert all(sample_restricted_rejection(base, rng) >= 0 for _ in range(2000))

    def test_rejection_matches_restricted_cdf(self):
        base = LaplaceDist(1.0, 1.0)
        rng = RngState(5)
        draws = np.array([sample_restricted_rejection(base, rng) for _ in range(10**5)])
        result = stats.kstest(draws, lambda x: restricted_cdf(base, x))
        assert result.pvalue > 0.001

    def test_rejection_and_inverse_agree_in_distribution(self):
        base = LaplaceDist(0.5, 2.0)
        rng = RngState(6)
        rejection = np.array([sample_restricted_rejection(base, rng) for _ in range(10**5)])
        inverse = sample_restricted_inverse(base, RngState(7), size=10**5)
        result = stats.ks_2samp(rejection, inverse)
        assert result.pvalue > 0.001

    def test_mean_attempts_matches_acceptance_probability(self):
        # at location 0 each attempt succeeds with probability 1/2
        base = LaplaceDist(0.0, 1.0)
        rng = RngState(8)
        attempts = [sample_restricted_rejection(base, rng, return_attempts=True)[1]
                    for _ in range(10**5)]
        assert abs(np.mean(attempts) - 2.0) < 0.05

    # At this (q, b), log(2 F(0)) does not round-trip -q/b: unclamped, the
    # quantile at u = _TINY and at u = 1e-300 was -1.8189894035458565e-12.
    # RngState returns _TINY where PCG64 gives an exact 0 (2**-53 per draw).
    NEGATIVE_CASE = (5117.837244261334, 8224.514030516992)

    def test_draw_at_the_smallest_uniform_is_zero_not_negative(self):
        q, b = self.NEGATIVE_CASE
        spec = make_restricted_mechanism(PrivacyParams(1.0, b))
        assert spec.scale == b
        for value in (sample_mechanism(spec, q, _FixedUniform(_TINY)),
                      sample_restricted_inverse(LaplaceDist(q, b), _FixedUniform(_TINY)),
                      restricted_quantile(LaplaceDist(q, b), 1e-300)):
            assert type(value) is float and value == 0.0 and math.copysign(1.0, value) == 1.0
        np.testing.assert_array_equal(restricted_quantile(LaplaceDist(q, b), np.array([_TINY, 1e-300])),
                                      [0.0, 0.0])
        np.testing.assert_array_equal(sample_mechanism(spec, q, _FixedUniform(_TINY, 1e-300), size=2),
                                      [0.0, 0.0])

    def test_sweep_at_the_smallest_uniform_is_nonnegative(self):
        gen = np.random.default_rng(2027)
        bs = 10.0 ** gen.uniform(-5.0, 5.0, 10**4)
        qs = gen.uniform(0.0, 3.0, 10**4) * bs
        unclamped, draws, arrays = [], [], []
        for q, b in zip(qs.tolist(), bs.tolist()):
            mass_below_zero = laplace_cdf(LaplaceDist(q, b), 0.0)
            unclamped.append(laplace_quantile(LaplaceDist(q, b),
                                              mass_below_zero + _TINY * (1.0 - mass_below_zero)))
            draws.append(sample_mechanism(make_restricted_mechanism(PrivacyParams(1.0, b)), q,
                                          _FixedUniform(_TINY)))
            arrays.append(restricted_quantile(LaplaceDist(q, b), np.array([_TINY]))[0])
        # The sweep reaches the rounding: without the clamp, about 9 % of it is below 0.
        assert sum(value < 0.0 for value in unclamped) > 100
        assert min(draws) >= 0.0 and min(arrays) >= 0.0
        np.testing.assert_array_equal(draws, arrays)

    @pytest.mark.parametrize("u", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_quantile_rejects_a_probability_outside_the_unit_interval(self, u):
        # Unchecked, 1.5 and 1.0 gave 37.04 (the base probability is capped
        # below 1) and 0.0 gave 0.0.  The range is checked before the
        # location, which is out of range at -1.
        for base in (LaplaceDist(1.0, 1.0), LaplaceDist(-1.0, 1.0)):
            for value in (u, np.float64(u), np.array(u), np.array([0.5, u, 0.25])):
                with pytest.raises(ValueError, match="^probability out of range$"):
                    restricted_quantile(base, value)

    def test_quantile_rejects_a_grid_holding_one_zero(self):
        grid = np.arange(1, 2001, dtype=float) / 2001
        assert restricted_quantile(LaplaceDist(1.0, 1.0), grid).shape == grid.shape
        grid[1000] = 0.0
        before = grid.copy()
        with pytest.raises(ValueError, match="^probability out of range$"):
            restricted_quantile(LaplaceDist(1.0, 1.0), grid)
        np.testing.assert_array_equal(grid, before)

    def test_rejection_budget_exhaustion(self):
        # far-negative location makes acceptance astronomically unlikely
        with pytest.raises(RuntimeError, match="rejection budget exceeded"):
            sample_restricted_rejection(LaplaceDist(-80.0, 1.0), RngState(9), max_attempts=8)


class TestSampleMechanism:
    def test_clamped_mean_at_zero(self):
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), PostProcessor.ramp())
        draws = sample_mechanism(spec, 0.0, RngState(42), size=10**6)
        assert abs(draws.mean() - 0.5) < 0.005

    def test_restricted_mean_at_zero(self):
        spec = make_restricted_mechanism(PrivacyParams(1.0, 1.0))
        draws = sample_mechanism(spec, 0.0, RngState(42), size=10**6)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_multiplicative_mean(self):
        with pytest.warns(UserWarning):
            spec = make_multiplicative_mechanism(1.0, 0.5)
        draws = sample_mechanism(spec, 1.0, RngState(42), size=10**6)
        assert abs(draws.mean() - 4.0 / 3.0) < 0.02

    def test_postprocessed_outputs_nonnegative(self):
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0),
                                            PostProcessor.translated_ramp(0.3))
        draws = sample_mechanism(spec, 0.5, RngState(10), size=10**6)
        assert np.all(draws >= 0)

    def test_multiplicative_outputs_strictly_positive(self):
        with pytest.warns(UserWarning):
            spec = make_multiplicative_mechanism(1.0, 0.5)
        draws = sample_mechanism(spec, 0.25, RngState(11), size=10**6)
        assert np.all(draws > 0)

    def test_multiplicative_draw_that_underflows_is_the_smallest_positive_double(self):
        # q*exp(b log(2u)) is exactly 0.0 here: a positive query released as 0.
        q, b, u = 1e-300, 0.49, 1e-300
        assert q * math.exp(b * math.log(2.0 * u)) == 0.0
        spec = make_multiplicative_mechanism(1.0, b)
        assert spec.scale == b
        scalars = [sample_mechanism(spec, q, _FixedUniform(v)) for v in (u, 0.5, _TINY, u)]
        assert all(type(value) is float for value in scalars)
        assert scalars == [5e-324, q, 5e-324, 5e-324]
        batch = sample_mechanism(spec, q, _FixedUniform(u, 0.5, _TINY, u), size=4)
        np.testing.assert_array_equal(batch, scalars)

    @pytest.mark.parametrize("size", [2.5, 2.0, "2"])
    def test_batch_size_must_be_an_integer(self, size):
        # 2.5 raised numpy's TypeError("expected a sequence of integers ...").
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        with pytest.raises(ValueError, match="^size must be an integer, got "):
            sample_mechanism(spec, 0.0, RngState(1), size=size)
        np.testing.assert_array_equal(sample_mechanism(spec, 0.0, RngState(1), size=np.int64(2)),
                                      sample_mechanism(spec, 0.0, RngState(1), size=2))

    def test_multiplicative_rejects_zero_query(self):
        with pytest.warns(UserWarning):
            spec = make_multiplicative_mechanism(1.0, 0.5)
        with pytest.raises(ValueError, match="strictly positive"):
            sample_mechanism(spec, 0.0, RngState(0))

    def test_noiseless_multiplicative_draw_raises_before_drawing(self):
        with pytest.warns(UserWarning, match="degenerate"):
            spec = _at_scale(make_multiplicative_mechanism(1.0, 0.3), 0.0)
        stream = _FixedUniform(0.5)
        with pytest.raises(ValueError, match=r"^scale must be finite and > 0, got 0\.0$"):
            sample_mechanism(spec, 2.0, stream)
        assert stream.values == [0.5]

    def test_noiseless_restricted_draw_is_q_without_drawing(self):
        with pytest.warns(UserWarning, match="degenerate"):
            spec = make_restricted_mechanism(PrivacyParams(1.0, 0.0))
        stream = _FixedUniform(0.5)
        assert sample_mechanism(spec, 2.5, stream) == 2.5
        assert stream.values == [0.5]

    def test_rejects_negative_query(self):
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        with pytest.raises(ValueError):
            sample_mechanism(spec, -1.0, RngState(0))

    def test_plain_is_unbiased(self):
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        draws = sample_mechanism(spec, 5.0, RngState(12), size=10**6)
        assert abs(draws.mean() - 5.0) < 0.005


def _scalar_path_specs():
    privacy = PrivacyParams(0.8, 1.0)
    return {
        "plain": make_laplace_mechanism(privacy),
        "ramp": make_postprocessed_mechanism(privacy, PostProcessor.ramp()),
        "translated-ramp": make_postprocessed_mechanism(privacy, PostProcessor.translated_ramp(0.44)),
        "softplus": make_postprocessed_mechanism(privacy, PostProcessor.custom(softplus, 1.25)),
        "restricted": make_restricted_mechanism(privacy),
        "multiplicative": make_multiplicative_mechanism(1.0, 0.3),
    }


SCALAR_PATH_SPECS = _scalar_path_specs()


class TestScalarPath:
    """Scalar draws and densities are Python floats equal bit for bit to the
    batched result at the same uniform."""

    @pytest.mark.parametrize("q", [0.0, 0.5, 30.0])
    @pytest.mark.parametrize("name", sorted(SCALAR_PATH_SPECS))
    def test_scalar_draws_equal_batched_draw(self, name, q):
        spec = SCALAR_PATH_SPECS[name]
        if spec.variant is Variant.MULTIPLICATIVE and q == 0.0:
            for size in (None, 20_000):
                with pytest.raises(ValueError, match="strictly positive"):
                    sample_mechanism(spec, q, RngState(77), size=size)
            return
        rng = RngState(77)
        scalar = [sample_mechanism(spec, q, rng) for _ in range(20_000)]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_array_equal(scalar, sample_mechanism(spec, q, RngState(77), size=20_000))

    @pytest.mark.parametrize("q,b", [(0.0, 1.0), (0.5, 2.0), (30.0, 0.7), (1e6, 1e-3)])
    def test_restricted_quantile_matches_array_form(self, q, b):
        base = LaplaceDist(q, b)
        us = np.concatenate([[_TINY, 1e-300, 0.5, 1.0 - 2**-53],
                             np.random.default_rng(2025).random(2000)])
        batched = restricted_quantile(base, us)
        scalar = [restricted_quantile(base, float(u)) for u in us]
        np.testing.assert_array_equal(scalar, batched)

    @pytest.mark.parametrize("q,b", [
        (0.0, 1.0), (40.0, 1.0), (1e6, 1.0), (5117.837244261334, 8224.514030516992),
        (3e-301, 1e-300), (1e-294, 1e-300), (1e3, 1e-3), (5e299, 1e300), (1e306, 1e300)])
    def test_restricted_quantile_is_the_sampler_transform(self, q, b):
        # restricted_quantile, float and array, and the scalar and batched
        # draws at the same uniforms run one transform, bit for bit.
        us = [sys.float_info.min, 1e-300, 1e-12, 0.25, 0.5, math.nextafter(0.5, 1.0),
              1.0 - 2**-53] + np.random.default_rng(2028).random(50).tolist()
        spec = make_restricted_mechanism(PrivacyParams(1.0, b))
        base = LaplaceDist(q, b)
        array = restricted_quantile(base, np.array(us))
        stream = _FixedUniform(*us)
        for other in ([restricted_quantile(base, u) for u in us],
                      [sample_mechanism(spec, q, stream) for _ in us],
                      sample_mechanism(spec, q, _FixedUniform(*us), size=len(us))):
            np.testing.assert_array_equal(other, array)
            np.testing.assert_array_equal(np.signbit(other), np.signbit(array))

    @pytest.mark.parametrize("name", ["ramp", "translated-ramp", "softplus"])
    def test_postprocessor_matches_array_form(self, name):
        pp = SCALAR_PATH_SPECS[name].postprocessor
        xs = np.array([-1e308, -3.0, -0.0, 0.0, 0.44, 0.4400000000000001, 2.5, 1e308, math.nan])
        if pp.kind == "custom":
            # softplus(nan) is nan, which no custom output may be.
            for arg in (math.nan, xs):
                with pytest.raises(ValueError, match="not nonnegative"):
                    apply_postprocessor(pp, arg)
            xs = xs[:-1]
        scalar = np.array([apply_postprocessor(pp, float(x)) for x in xs])
        batched = apply_postprocessor(pp, xs)
        np.testing.assert_array_equal(scalar, batched)
        np.testing.assert_array_equal(np.signbit(scalar), np.signbit(batched))

    def test_zero_dim_arrays_give_python_floats(self):
        base = LaplaceDist(0.5, 2.0)
        for x in (0.3, 0.7):
            value = restricted_quantile(base, np.asarray(x))
            assert type(value) is float and value == restricted_quantile(base, x)
        for name in ("ramp", "translated-ramp", "softplus"):
            pp = SCALAR_PATH_SPECS[name].postprocessor
            for x in (-0.3, 0.7):
                value = apply_postprocessor(pp, np.asarray(x))
                assert type(value) is float and value == apply_postprocessor(pp, x)

    def test_batched_primitives_leave_input_unchanged(self):
        xs = np.random.default_rng(2026).random(1000)
        before = xs.copy()
        restricted_quantile(LaplaceDist(0.5, 2.0), xs)
        for name in ("ramp", "translated-ramp", "softplus"):
            apply_postprocessor(SCALAR_PATH_SPECS[name].postprocessor, xs)
        np.testing.assert_array_equal(xs, before)

    def test_results_are_python_floats(self):
        base = LaplaceDist(np.float64(0.5), 2.0)
        for x in (0.3, np.float64(0.3), -0.3, np.float64(-0.3)):
            assert type(restricted_pdf(base, x)) is float
            assert type(apply_postprocessor(SCALAR_PATH_SPECS["ramp"].postprocessor, x)) is float
            assert type(apply_postprocessor(SCALAR_PATH_SPECS["softplus"].postprocessor, x)) is float
        for u in (0.3, np.float64(0.3)):
            assert type(restricted_quantile(base, u)) is float
        for spec in SCALAR_PATH_SPECS.values():
            assert type(sample_mechanism(spec, np.float64(2.0), RngState(3))) is float

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_restricted_pdf_nonfinite_error_matches_array_form(self, x):
        for arg in (x, np.float64(x), np.array([0.0, x])):
            with pytest.raises(ValueError, match="non-finite input"):
                restricted_pdf(LaplaceDist(0.0, 1.0), arg)

    def test_negative_custom_output_error_matches_array_form(self):
        for bad, edge, x in ((-1.0, 25.0, 30.0), (math.nan, 1e4, 2e4), (math.inf, 1e4, 2e4)):
            pp = PostProcessor.custom(lambda v, bad=bad, edge=edge: max(v, 0.0) if v <= edge else bad, 1.0)
            spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), pp)
            for call in (lambda: apply_postprocessor(pp, x), lambda: apply_postprocessor(pp, np.float64(x)),
                         lambda: apply_postprocessor(pp, np.array([1.0, x])),
                         lambda: sample_mechanism(spec, 2 * x, RngState(1)),
                         lambda: sample_mechanism(spec, 2 * x, RngState(1), size=3)):
                with pytest.raises(ValueError, match="not nonnegative"):
                    call()


def _one_batch(spec, q, rng, size):
    """The draws of ``spec`` at q from ``size`` uniforms of ``rng`` (none
    without noise), by the public per-array functions run once over the
    whole array."""
    if spec.variant is Variant.MULTIPLICATIVE:
        return np.multiply(np.exp(laplace_quantile(LaplaceDist(0.0, spec.scale), rng.uniform(size))), q)
    if spec.scale == 0.0:
        noise = np.full(size, q)
    elif spec.variant is Variant.RESTRICTED:
        return restricted_quantile(LaplaceDist(q, spec.scale), rng.uniform(size))
    else:
        noise = laplace_quantile(LaplaceDist(q, spec.scale), rng.uniform(size))
    if spec.variant is Variant.POST_PROCESSED:
        return apply_postprocessor(spec.postprocessor, noise)
    return noise


def _blocked_batch_specs():
    specs = dict(SCALAR_PATH_SPECS)
    with pytest.warns(UserWarning, match="degenerate"):
        specs["noiseless"] = _at_scale(specs["translated-ramp"], 0.0)
    return specs


BLOCKED_BATCH_SPECS = _blocked_batch_specs()


class TestBlockedBatch:
    """A batch larger than one block equals the same functions run over one
    uniform array, bit for bit, at every size around the block boundary, and
    leaves the stream where that array does."""

    # A custom post-processor runs per draw in Python: 2 s at 1e6 draws,
    # where 3 * _BLOCK + 7 already crosses three block boundaries.
    @pytest.mark.parametrize("name,size", [
        (name, size) for name in sorted(BLOCKED_BATCH_SPECS)
        for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 10**6)
        if (name, size) != ("softplus", 10**6)])
    def test_equals_one_batch_over_the_uniforms(self, name, size):
        spec, q, seed = BLOCKED_BATCH_SPECS[name], 0.7, 31
        rng, reference = RngState(seed), RngState(seed)
        draws = sample_mechanism(spec, q, rng, size=size)
        assert draws.shape == (size,)
        np.testing.assert_array_equal(draws, _one_batch(spec, q, reference, size))
        np.testing.assert_array_equal(rng.uniform(3), reference.uniform(3))

    @pytest.mark.parametrize("name", sorted(set(BLOCKED_BATCH_SPECS) - {"softplus"}))
    def test_peak_memory_is_the_output_and_one_scratch_block(self, name):
        # A custom post-processor calls its function per draw and holds a
        # block of Python floats; every other spec works in place.
        spec, rng, n = BLOCKED_BATCH_SPECS[name], RngState(5), 10**6
        tracemalloc.start()
        try:
            sample_mechanism(spec, 0.7, rng, size=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 1.5 * 8 * _BLOCK


class TestDensityRatioCertificates:
    """Pointwise density-ratio bounds at the guaranteed privacy level, from
    the test-side densities one point at a time, and the independent grid
    check of the kink certificate of ``adjacent_densities``."""

    @staticmethod
    def _max_ratio(pdf_a, pdf_b, grid):
        """max |log pdf_a(x) - log pdf_b(x)| over the grid points where both
        densities are normal doubles, and how many points those are."""
        worst, used = 0.0, 0
        for x in grid.tolist():
            fa, fb = pdf_a(x), pdf_b(x)
            if fa >= sys.float_info.min and fb >= sys.float_info.min:
                worst, used = max(worst, abs(math.log(fa) - math.log(fb))), used + 1
        return worst, used

    def test_plain_pairs_within_epsilon(self):
        privacy = PrivacyParams(1.0, 1.0)
        spec = make_laplace_mechanism(privacy)
        level = guaranteed_privacy_level(spec)
        rng = np.random.default_rng(100)
        pairs = [(q, q + 1.0) for q in rng.uniform(0, 5, 50)]
        pairs += [(q, q + gap) for q, gap in zip(rng.uniform(0, 5, 50), rng.uniform(0, 1, 50))]
        for q, qp in pairs:
            grid = np.linspace(min(q, qp) - 10, max(q, qp) + 10, 2000)
            a, b = LaplaceDist(q, spec.scale), LaplaceDist(qp, spec.scale)
            ratio, used = self._max_ratio(lambda x: laplace_pdf(a, x), lambda x: laplace_pdf(b, x), grid)
            assert used == grid.size
            assert ratio <= level * (1 + 1e-9)

    def test_restricted_pairs_within_doubled_epsilon(self):
        privacy = PrivacyParams(1.0, 1.0)
        spec = make_restricted_mechanism(privacy)
        level = guaranteed_privacy_level(spec)
        rng = np.random.default_rng(101)
        pairs = [(q, q + 1.0) for q in rng.uniform(0, 5, 50)]
        pairs += [(q, q + gap) for q, gap in zip(rng.uniform(0, 5, 50), rng.uniform(0, 1, 50))]
        for q, qp in pairs:
            grid = np.linspace(0.0, max(q, qp) + 10, 2000)
            a, b = LaplaceDist(q, spec.scale), LaplaceDist(qp, spec.scale)
            ratio, used = self._max_ratio(lambda x: restricted_pdf(a, x), lambda x: restricted_pdf(b, x),
                                          grid)
            assert used == grid.size
            assert ratio <= level * (1 + 1e-9)

    def test_multiplicative_pairs_within_epsilon_on_log_scale(self):
        with pytest.warns(UserWarning):
            spec = make_multiplicative_mechanism(1.0, 0.5)
        level = guaranteed_privacy_level(spec)
        rng = np.random.default_rng(102)
        # adjacent queries sit at log-distance at most the relative bound
        pairs = [(q, q * math.exp(spec.privacy.sensitivity)) for q in rng.uniform(0.5, 3, 50)]
        pairs += [(q, q * math.exp(g)) for q, g in
                  zip(rng.uniform(0.5, 3, 50), rng.uniform(0, spec.privacy.sensitivity, 50))]
        for q, qp in pairs:
            locs = (math.log(q), math.log(qp))
            grid = np.linspace(min(locs) - 10 * spec.scale, max(locs) + 10 * spec.scale, 2000)
            a, b = LaplaceDist(locs[0], spec.scale), LaplaceDist(locs[1], spec.scale)
            ratio, used = self._max_ratio(lambda x: laplace_pdf(a, x), lambda x: laplace_pdf(b, x), grid)
            assert used == grid.size
            assert ratio <= level * (1 + 1e-9)

    @pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.RESTRICTED, Variant.MULTIPLICATIVE],
                             ids=lambda v: v.value)
    @pytest.mark.parametrize("b", [1e-3, 1e3])
    @pytest.mark.parametrize("s", [1e-6, 0.8, 30.0])
    def test_grid_never_exceeds_the_kink_value(self, variant, b, s):
        """On 20 001 points over [-10b, Delta + 10b] the log ratio of the
        test-side densities stays within 1e-12(1 + eps) of the certificate's
        value at the kinks, and comes within one grid step of reaching it."""
        delta = s * b
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the multiplicative spec warns at b >= 1/2
            spec = MechanismSpec(variant, PrivacyParams(s, delta), delta / s)
        log_a, log_b, points = adjacent_densities(spec)
        kink = certify_dp_densities(log_a, log_b, guaranteed_privacy_level(spec),
                                    points).max_log_ratio_observed
        scale = spec.scale
        pdf = restricted_pdf if variant is Variant.RESTRICTED else laplace_pdf
        a, b_ = LaplaceDist(0.0, scale), LaplaceDist(delta, scale)
        grid = np.linspace(-10 * scale, delta + 10 * scale, 20_001)
        worst, used = self._max_ratio(lambda x: pdf(a, x), lambda x: pdf(b_, x), grid)
        step = float(grid[1] - grid[0])
        assert used > grid.size // 3
        assert kink - 2 * step / scale - 1e-12 * (1 + kink) <= worst <= kink + 1e-12 * (1 + kink)
