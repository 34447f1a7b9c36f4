import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import integrate, stats

from nonneg_dp.distributions import (
    _TINY,
    LaplaceDist,
    RngState,
    laplace_cdf,
    laplace_pdf,
    laplace_quantile,
)
from nonneg_dp.mechanisms import (
    _BLOCK,
    MechanismSpec,
    PostProcessor,
    PrivacyParams,
    Variant,
    apply_postprocessor,
    guaranteed_privacy_level,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
    restricted_pdf,
    restricted_quantile,
    sample_mechanism,
    sample_restricted_inverse,
    sample_restricted_rejection,
)

from piecewise_linear import wavy_ramp
from restricted_law import restricted_cdf


class _FixedUniform:
    """Stub stream yielding a prescribed sequence of uniforms."""

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = np.array(self.values[:size])
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
        def softplus(x):
            return max(x, 0.0) + math.log1p(math.exp(-abs(x)))

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
        # dips below zero only beyond the construction spot-check grid
        pp = PostProcessor.custom(lambda x: max(x, 0.0) if x <= 25.0 else -1.0, scale=1.0)
        with pytest.raises(ValueError, match="not nonnegative"):
            apply_postprocessor(pp, 30.0)

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
        assert guaranteed_privacy_level(replace(plain, scale=2.5)) == pytest.approx(0.6, rel=2**-52)
        restricted = make_restricted_mechanism(PrivacyParams(0.5, 1.0))
        assert guaranteed_privacy_level(replace(restricted, scale=2.5)) == pytest.approx(0.8, rel=2**-52)
        mult = make_multiplicative_mechanism(1.0, 0.3)
        assert guaranteed_privacy_level(replace(mult, scale=2.5)) == pytest.approx(0.12, rel=2**-52)
        spec, caught = _made_with_warnings(lambda: replace(mult, scale=1.5))
        assert spec.warning == _MEAN_INFINITE and caught == [_MEAN_INFINITE]
        spec, caught = _made_with_warnings(lambda: replace(mult, scale=0.6))
        assert spec.warning == _VARIANCE_INFINITE and caught == [_VARIANCE_INFINITE]
        with pytest.warns(UserWarning):
            divergent = make_multiplicative_mechanism(1.0, 1.5)
        spec, caught = _made_with_warnings(lambda: replace(divergent, scale=0.3))
        assert spec.warning is None and caught == []

    def test_zero_sensitivity_level(self):
        # Adjacent data give one output law, with or without noise; a positive
        # sensitivity without noise has no finite level.
        with pytest.warns(UserWarning, match="degenerate"):
            plain = make_laplace_mechanism(PrivacyParams(0.7, 0.0))
            restricted = make_restricted_mechanism(PrivacyParams(0.7, 0.0))
        assert guaranteed_privacy_level(plain) == 0.0
        assert guaranteed_privacy_level(restricted) == 0.0
        noisy, caught = _made_with_warnings(lambda: replace(plain, scale=0.5))
        assert guaranteed_privacy_level(noisy) == 0.0
        assert noisy.warning is None and caught == []
        with pytest.warns(UserWarning, match="degenerate"):
            noiseless = replace(make_laplace_mechanism(PrivacyParams(0.7, 1.0)), scale=0.0)
        assert guaranteed_privacy_level(noiseless) == math.inf

    def test_spec_has_only_its_four_fields(self):
        assert [f.name for f in fields(MechanismSpec)] == ["variant", "privacy", "scale",
                                                            "postprocessor"]

    @pytest.mark.parametrize("scale", [-0.5, -1.0, math.nan, math.inf, -math.inf])
    def test_spec_rejects_a_scale_that_is_not_finite_and_nonnegative(self, scale):
        # Such a spec gave a closed-form bias of 0.333 (scale -0.5) and a
        # privacy level of inf (nan) instead of failing.
        with pytest.raises(ValueError, match="scale"):
            MechanismSpec(Variant.MULTIPLICATIVE, PrivacyParams(1.0, 0.3), scale)
        with pytest.raises(ValueError, match="scale"):
            replace(make_laplace_mechanism(PrivacyParams(1.0, 1.0)), scale=scale)

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
            assert np.all(restricted_cdf(base, grid) < laplace_cdf(base, grid))

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
        value = sample_restricted_inverse(LaplaceDist(0.0, 1.0), _FixedUniform(1.0 - 2**-54))
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

    def test_multiplicative_rejects_zero_query(self):
        with pytest.warns(UserWarning):
            spec = make_multiplicative_mechanism(1.0, 0.5)
        with pytest.raises(ValueError, match="strictly positive"):
            sample_mechanism(spec, 0.0, RngState(0))

    def test_rejects_negative_query(self):
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        with pytest.raises(ValueError):
            sample_mechanism(spec, -1.0, RngState(0))

    def test_plain_is_unbiased(self):
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        draws = sample_mechanism(spec, 5.0, RngState(12), size=10**6)
        assert abs(draws.mean() - 5.0) < 0.005


def _softplus(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _scalar_path_specs():
    privacy = PrivacyParams(0.8, 1.0)
    return {
        "plain": make_laplace_mechanism(privacy),
        "ramp": make_postprocessed_mechanism(privacy, PostProcessor.ramp()),
        "translated-ramp": make_postprocessed_mechanism(privacy, PostProcessor.translated_ramp(0.44)),
        "softplus": make_postprocessed_mechanism(privacy, PostProcessor.custom(_softplus, 1.25)),
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
    def test_restricted_quantile_and_pdf_match_array_form(self, q, b):
        base = LaplaceDist(q, b)
        us = np.concatenate([[_TINY, 1e-300, 0.5, 1.0 - 2**-53],
                             np.random.default_rng(2025).random(2000)])
        batched = restricted_quantile(base, us)
        scalar = [restricted_quantile(base, float(u)) for u in us]
        np.testing.assert_array_equal(scalar, batched)
        xs = np.concatenate([batched, [0.0, -0.0, -1.0, q, 1e308]])
        with np.errstate(over="ignore"):  # (x - q)/b overflows at x = 1e308
            batched_pdf = restricted_pdf(base, xs)
        np.testing.assert_array_equal([restricted_pdf(base, float(x)) for x in xs], batched_pdf)

    @pytest.mark.parametrize("name", ["ramp", "translated-ramp", "softplus"])
    def test_postprocessor_matches_array_form(self, name):
        pp = SCALAR_PATH_SPECS[name].postprocessor
        xs = np.array([-1e308, -3.0, -0.0, 0.0, 0.44, 0.4400000000000001, 2.5, 1e308, math.nan])
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
        pp = PostProcessor.custom(lambda x: max(x, 0.0) if x <= 25.0 else -1.0, scale=1.0)
        for arg in (30.0, np.float64(30.0), np.array([1.0, 30.0])):
            with pytest.raises(ValueError, match="not nonnegative"):
                apply_postprocessor(pp, arg)


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
        specs["noiseless"] = replace(specs["translated-ramp"], scale=0.0)
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
    """Pointwise density-ratio bounds at the guaranteed privacy level."""

    def _max_ratio(self, pdf_a, pdf_b, grid):
        fa, fb = pdf_a(grid), pdf_b(grid)
        return float(np.max(np.abs(np.log(fa) - np.log(fb))))

    def test_plain_pairs_within_epsilon(self):
        privacy = PrivacyParams(1.0, 1.0)
        spec = make_laplace_mechanism(privacy)
        level = guaranteed_privacy_level(spec)
        rng = np.random.default_rng(100)
        pairs = [(q, q + 1.0) for q in rng.uniform(0, 5, 50)]
        pairs += [(q, q + gap) for q, gap in zip(rng.uniform(0, 5, 50), rng.uniform(0, 1, 50))]
        for q, qp in pairs:
            grid = np.linspace(min(q, qp) - 10, max(q, qp) + 10, 2000)
            ratio = self._max_ratio(lambda x: laplace_pdf(LaplaceDist(q, spec.scale), x),
                                    lambda x: laplace_pdf(LaplaceDist(qp, spec.scale), x), grid)
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
            ratio = self._max_ratio(lambda x: restricted_pdf(LaplaceDist(q, spec.scale), x),
                                    lambda x: restricted_pdf(LaplaceDist(qp, spec.scale), x), grid)
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
            ratio = self._max_ratio(lambda x: laplace_pdf(LaplaceDist(locs[0], spec.scale), x),
                                    lambda x: laplace_pdf(LaplaceDist(locs[1], spec.scale), x), grid)
            assert ratio <= level * (1 + 1e-9)
