import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from nonneg_dp.bias import (
    bias_bit,
    bias_ratio_restricted_vs_bit,
    bias_restricted,
    bias_translated_ramp,
    closed_form_bias,
    expectation_postprocessed_quadrature,
    expectation_translated_ramp,
    max_abs_bias_translated_ramp,
    optimal_alpha,
    quadrature_bias,
)
from nonneg_dp.distributions import LaplaceDist, RngState, log_laplace_mgf
from nonneg_dp.mechanisms import (
    MechanismSpec,
    PostProcessor,
    PrivacyParams,
    Variant,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
    restricted_pdf,
    sample_mechanism,
)
from nonneg_dp.verify import certify_dp_densities, check_divergence_log_laplace

from numeric_sup import max_abs_bias_numeric
from piecewise_linear import hinge_sum_bias, wavy_ramp


def ramp_expectation_quad(q, b, alpha=0.0):
    """Independent oracle: integrate max(x - alpha, 0) against the density."""
    value, _ = integrate.quad(
        lambda x: max(x - alpha, 0.0) * math.exp(-abs(x - q) / b) / (2 * b),
        q - 45 * b, q + 45 * b, points=sorted({q, alpha}), limit=300)
    return value


class TestBitBias:
    def test_maximum_at_zero_is_half_scale(self):
        assert bias_bit(0.0, 1.0) == 0.5
        assert bias_bit(0.0, 0.5) == 0.25  # scale from sensitivity 1 at privacy level 2

    def test_one_scale_out(self):
        assert bias_bit(1.0, 1.0) == pytest.approx(0.18393972058572117, abs=1e-15)

    def test_matches_quadrature(self):
        for q, b in [(0.0, 1.0), (0.7, 0.4), (3.0, 2.0), (10.0, 1.5)]:
            assert bias_bit(q, b) == pytest.approx(ramp_expectation_quad(q, b) - q, abs=1e-10)

    def test_strictly_positive_and_decreasing(self):
        qs = np.linspace(0, 20, 200)
        values = np.array([bias_bit(q, 1.0) for q in qs])
        assert np.all(values > 0)
        assert np.all(np.diff(values) < 0)

    def test_rejects_negative_query(self):
        with pytest.raises(ValueError):
            bias_bit(-0.1, 1.0)

    @pytest.mark.parametrize("b", [1e-300, 1e-100, 1e-13, 1.0, 1e5, 1e100, 1e300])
    def test_equals_translated_ramp_at_zero_translation(self, b):
        # closed_form_bias gives the ramp through bias_translated_ramp alone.
        rng = np.random.default_rng(int(-math.log10(b)) + 400)
        spec = MechanismSpec(Variant.POST_PROCESSED, PrivacyParams(1.0, b), b, PostProcessor.ramp())
        for q in [0.0, b, *(b * 10.0 ** rng.uniform(-20, 6, 2000))]:
            clamped = bias_bit(q, b)
            ramp = closed_form_bias(spec, q)
            assert ramp == clamped and math.copysign(1.0, ramp) == math.copysign(1.0, clamped)


class TestTranslatedRampExpectation:
    def test_branch_above_translation(self):
        assert expectation_translated_ramp(2.0, 1.0, 1.0) == pytest.approx(
            1.0 + 0.5 * math.exp(-1), abs=1e-15)

    def test_branch_below_translation(self):
        assert expectation_translated_ramp(0.0, 1.0, 1.0) == pytest.approx(
            0.5 * math.exp(-1), abs=1e-15)

    def test_branches_meet_at_translation(self):
        assert expectation_translated_ramp(3.0, 3.0, 2.0) == 1.0
        left = expectation_translated_ramp(math.nextafter(3.0, 0.0), 3.0, 2.0)
        right = expectation_translated_ramp(math.nextafter(3.0, 4.0), 3.0, 2.0)
        assert left == pytest.approx(1.0, abs=1e-12)
        assert right == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing_in_translation(self):
        alphas = np.linspace(0.0, 4.0, 50)
        for q in (0.0, 1.0, 3.0):
            values = [expectation_translated_ramp(q, a, 1.0) for a in alphas]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            expectation_translated_ramp(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            expectation_translated_ramp(1.0, -0.5, 1.0)


class TestTranslatedRampBias:
    def test_reduces_to_clamping_bias_at_zero_translation(self):
        assert bias_translated_ramp(0.0, 0.0, 1.0) == 0.5
        for q in (0.0, 0.5, 2.0):
            assert bias_translated_ramp(q, 0.0, 1.0) == pytest.approx(bias_bit(q, 1.0), abs=1e-15)

    def test_below_translation_value(self):
        assert bias_translated_ramp(0.0, 1.0, 1.0) == pytest.approx(
            0.5 * math.exp(-1), abs=1e-15)

    def test_limit_is_negative_translation(self):
        # bias at large q approaches -alpha from above
        assert bias_translated_ramp(60.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_strictly_decreasing_in_query(self):
        qs = np.linspace(0, 10, 300)
        for alpha in (0.0, 0.35, 1.0, 2.0):
            values = [bias_translated_ramp(q, alpha, 1.0) for q in qs]
            assert all(x > y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("q,alpha,b", [
        (1e6, 3.5e-4, 1e-3), (1e3, 0.35, 1.0), (40.0, 1.0, 1.0), (2.0, 1.0, 1.0),
        (1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (0.0, 0.35, 1.0), (1e300, 3e299, 1e300),
        (5e-301, 2e-301, 1e-300), (7.5, 0.7, 2.0)])
    def test_matches_mpmath_without_cancellation(self, q, alpha, b):
        # Error within a few ulp of the larger of the two terms; forming
        # E[output] - q lost 3.6e-8 relative at q = 1e6, b = 1e-3.
        with mpmath.workdps(50):
            q_, a_, b_ = mpmath.mpf(q), mpmath.mpf(alpha), mpmath.mpf(b)
            boundary = b_ / 2 * mpmath.exp(-abs(q_ - a_) / b_)
            exact = boundary - a_ if q >= alpha else boundary - q_
            size = max(boundary, a_ if q >= alpha else q_)
            error = abs(mpmath.mpf(bias_translated_ramp(q, alpha, b)) - exact)
            assert error <= 4 * 2.0**-53 * size


class TestWorstCaseBias:
    def test_zero_translation_gives_half_scale(self):
        assert max_abs_bias_translated_ramp(0.0, 1.0) == 0.5

    def test_large_translation_dominates(self):
        assert max_abs_bias_translated_ramp(2.0, 1.0) == 2.0

    def test_is_max_of_endpoint_and_limit(self):
        for alpha, b in [(0.1, 1.0), (0.5, 1.0), (1.0, 2.0), (0.0, 0.3)]:
            endpoint = abs(bias_translated_ramp(0.0, alpha, b))
            limit = alpha
            assert max_abs_bias_translated_ramp(alpha, b) == max(endpoint, limit)


class TestOptimalAlpha:
    def test_matches_lambert_w_oracle(self):
        # the defining equation at b=1 rearranges to alpha*exp(alpha) = 1/2
        oracle = float(special.lambertw(0.5).real)
        assert optimal_alpha(1.0) == pytest.approx(oracle, abs=1e-11)

    def test_residual_within_tolerance(self):
        for b in (0.5, 1.0, 2.0):
            alpha = optimal_alpha(b)
            assert abs(0.5 * b * math.exp(-alpha / b) - alpha) <= 1e-11

    @pytest.mark.parametrize("b", [1e-300, 1e-13, 1.0, 1e5, 1e300])
    def test_closed_form_at_extreme_scales(self, b):
        # A bisection returned 0.25*b at b = 1e-13 and never returned at b = 1e5.
        with mpmath.workdps(50):
            exact = mpmath.mpf(b) * mpmath.lambertw(0.5).real
            alpha = optimal_alpha(b)
            assert abs(mpmath.mpf(alpha) - exact) <= 0.52 * math.ulp(alpha)

    def test_scaling_in_b(self):
        unit = optimal_alpha(1.0)
        for b in (0.1, 0.5, 2.0, 10.0):
            assert optimal_alpha(b) == pytest.approx(b * unit, rel=1e-10)

    def test_equalizer_at_optimum(self):
        for b in (0.5, 1.0, 3.0):
            alpha = optimal_alpha(b)
            assert abs(0.5 * b * math.exp(-alpha / b) - alpha) <= 1e-10

    def test_minimality_over_sampled_translations(self):
        b = 1.0
        best = max_abs_bias_translated_ramp(optimal_alpha(b), b)
        rng = np.random.default_rng(77)
        for alpha in rng.uniform(0.0, 3.0, 100):
            assert max_abs_bias_translated_ramp(float(alpha), b) >= best - 1e-12

    def test_improves_on_plain_clamping(self):
        for b in (0.2, 1.0, 5.0):
            assert optimal_alpha(b) < 0.5 * b


class TestRestrictedBias:
    def test_value_at_zero_is_scale(self):
        assert bias_restricted(0.0, 1.0) == 1.0
        assert bias_restricted(0.0, 2.5) == 2.5

    def test_analytic_value(self):
        assert bias_restricted(1.0, 1.0) == pytest.approx(2 / (2 * math.e - 1), abs=1e-15)

    def test_epsilon_sensitivity_form(self):
        # with b = sensitivity/epsilon the bias equals (q eps + delta)/(2 eps e^{q eps/delta} - eps)
        for q, eps, delta in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.4), (3.0, 0.5, 1.5)]:
            b = delta / eps
            expected = (q * eps + delta) / (2 * eps * math.exp(q * eps / delta) - eps)
            assert bias_restricted(q, b) == pytest.approx(expected, rel=1e-14)

    def test_matches_quadrature_of_restricted_density(self):
        for q, b in [(0.0, 1.0), (1.0, 1.0), (2.0, 0.5), (5.0, 2.0)]:
            base = LaplaceDist(q, b)
            mean, _ = integrate.quad(lambda x: x * restricted_pdf(base, x),
                                     0.0, q + 45 * b, points=[q], limit=300)
            assert bias_restricted(q, b) == pytest.approx(mean - q, abs=1e-10)

    def test_no_overflow_far_out(self):
        assert bias_restricted(1e6, 1.0) == 0.0  # underflows cleanly, never overflows

    def test_strictly_positive(self):
        for q in np.linspace(0, 30, 100):
            assert bias_restricted(float(q), 1.0) > 0


class TestBiasRatio:
    def test_equals_four_at_zero(self):
        assert bias_ratio_restricted_vs_bit(0.0, 1.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_value_one_sensitivity_out(self):
        assert bias_ratio_restricted_vs_bit(1.0, 1.0, 1.0) == pytest.approx(
            7.0990637096907605, rel=1e-12)

    def test_inf_beyond_double_range(self):
        # e^{s/2} overflows a double once s = eps*q/Delta >~ 1419.
        assert bias_ratio_restricted_vs_bit(3000.0, 1.0, 1.0) == math.inf

    def test_large_finite_value_matches_mpmath(self):
        with mpmath.workdps(50):
            s = mpmath.mpf(1350)
            exact = 2 * mpmath.exp(s) * (s + 2) / (2 * mpmath.exp(s / 2) - 1)
            got = bias_ratio_restricted_vs_bit(1350.0, 1.0, 1.0)
            assert math.isfinite(got)
            assert abs(got - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("eps,delta", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.1)])
    def test_always_above_two(self, eps, delta):
        for q in np.linspace(0.0, 20 * delta / eps, 200):
            assert bias_ratio_restricted_vs_bit(float(q), eps, delta) > 2.0

    @pytest.mark.parametrize("eps,delta", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.1)])
    def test_consistent_with_component_biases(self, eps, delta):
        # doubled scale for restriction matches the clamped mechanism's level
        for q in np.linspace(0.0, 20 * delta / eps, 200):
            q = float(q)
            direct = bias_restricted(q, 2 * delta / eps) / bias_bit(q, delta / eps)
            assert bias_ratio_restricted_vs_bit(q, eps, delta) == pytest.approx(
                direct, rel=1e-10)


class TestSpecBias:
    def test_closed_form_matches_quadrature_for_every_variant(self):
        privacy = PrivacyParams(1.0, 0.8)
        specs = [make_laplace_mechanism(privacy),
                 make_postprocessed_mechanism(privacy, PostProcessor.ramp()),
                 make_postprocessed_mechanism(privacy, PostProcessor.translated_ramp(0.3)),
                 make_restricted_mechanism(privacy),
                 make_restricted_mechanism(privacy, fair_comparison=True),
                 make_multiplicative_mechanism(1.0, 0.3)]
        for spec in specs:
            for q in (0.5, 2.0):
                assert quadrature_bias(spec, q) == pytest.approx(closed_form_bias(spec, q), abs=1e-8)

    @pytest.mark.parametrize("b", [1e-300, 1e-9, 1e-5, 0.1, 0.3, 0.49, 0.9, 0.999999])
    def test_multiplicative_closed_form_matches_mpmath(self, b):
        # q(1/(1 - b^2) - 1) cancelled to exactly 0 at b = 1e-9.  Results
        # below the subnormal range round to 0, hence the absolute floor.
        spec = MechanismSpec(Variant.MULTIPLICATIVE, PrivacyParams(1.0, b), b)
        for q in (1e-200, 0.7, 3.0, 1e200):
            with mpmath.workdps(50):
                b_ = mpmath.mpf(b)
                exact = mpmath.mpf(q) * b_**2 / (1 - b_**2)
                error = abs(mpmath.mpf(closed_form_bias(spec, q)) - exact)
                assert error <= 4 * 2.0**-53 * exact + 2.0**-1074

    @pytest.mark.parametrize("b", [1e-9, 1e-5, 1e-3, 0.1, 0.3, 0.6, 0.9, 0.947, 0.95, 0.99])
    def test_multiplicative_quadrature_matches_mpmath(self, b):
        # q*(truncated moment - 1) returned 0 at b = 1e-9 and was off by 8.3e-8
        # (relative) at b = 1e-5; past b ~ 0.947 exp(x) overflowed.
        spec = MechanismSpec(Variant.MULTIPLICATIVE, PrivacyParams(1.0, b), b)
        for q in (0.7, 3.0):
            with mpmath.workdps(50):
                b_ = mpmath.mpf(b)
                exact = mpmath.mpf(q) * b_**2 / (1 - b_**2)
                error = abs(mpmath.mpf(quadrature_bias(spec, q)) - exact)
                assert error <= 1e-13 * exact

    def test_custom_postprocessor_has_quadrature_only(self):
        pp = PostProcessor.custom(lambda x: max(x, 0.0), scale=1.0)
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), pp)
        with pytest.raises(ValueError):
            closed_form_bias(spec, 1.0)
        assert quadrature_bias(spec, 1.0) == pytest.approx(bias_bit(1.0, 1.0), abs=1e-8)

    @pytest.mark.parametrize("make", [
        lambda privacy: make_laplace_mechanism(privacy),
        lambda privacy: make_postprocessed_mechanism(privacy, PostProcessor.ramp()),
        lambda privacy: make_postprocessed_mechanism(privacy, PostProcessor.translated_ramp(3.5e-4)),
        lambda privacy: make_restricted_mechanism(privacy),
    ], ids=["laplace", "bit", "ramp", "restricted"])
    def test_quadrature_does_not_cancel_at_large_q_over_b(self, make):
        # E[output] - q at q = 1e6, b = 1e-3 lost ~0.011 to cancellation.
        spec = make(PrivacyParams(1.0, 1e-3))
        q, b = 1e6, spec.scale
        assert b == 1e-3
        gap = abs(quadrature_bias(spec, q) - closed_form_bias(spec, q))
        assert gap <= 1e-12 * (q + b)


def _mp_additive_bias(variant, q, b, alpha):
    """Bias at 50 digits: 0 (plain), the translated ramp, or restriction."""
    with mpmath.workdps(50):
        q, b, alpha = mpmath.mpf(q), mpmath.mpf(b), mpmath.mpf(alpha)
        if variant is Variant.PLAIN:
            return mpmath.mpf(0)
        if variant is Variant.RESTRICTED:
            return (q + b) / (2 * mpmath.exp(q / b) - 1)
        if q >= alpha:
            return b / 2 * mpmath.exp((alpha - q) / b) - alpha
        return b / 2 * mpmath.exp((q - alpha) / b) - q


class TestTinyScaleQuadrature:
    """quadrature_bias of the additive variants stays relative at tiny b;
    quad's absolute tolerance 1e-12 once cost 1.2e-10 relative at b <= 1e-12."""

    @pytest.mark.parametrize("b", [1e-12, 1e-20, 1e-300, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("variant,alpha_over_b", [
        (Variant.PLAIN, 0.0),
        (Variant.POST_PROCESSED, 0.0),
        (Variant.POST_PROCESSED, 0.35173371124919584),
        (Variant.POST_PROCESSED, 2.0),
        (Variant.RESTRICTED, 0.0),
    ], ids=["plain", "ramp", "translated-optimal", "translated-2b", "restricted"])
    def test_matches_mpmath(self, b, variant, alpha_over_b):
        alpha = alpha_over_b * b
        pp = PostProcessor.translated_ramp(alpha) if variant is Variant.POST_PROCESSED else None
        spec = MechanismSpec(variant, PrivacyParams(1.0, b), b, pp)
        for q in (0.0, 0.5 * b, 2.0 * b, 10.0 * b):
            exact = _mp_additive_bias(variant, q, b, alpha)
            error = abs(mpmath.mpf(quadrature_bias(spec, q)) - exact)
            assert error <= 1e-15 * (q + b), (q, float(error / (q + b)))


class TestQuadratureEngine:
    def test_ramp_matches_closed_form(self):
        pp = PostProcessor.ramp()
        assert expectation_postprocessed_quadrature(pp, 1.0, 1.0) == pytest.approx(
            1.0 + 0.5 * math.exp(-1), abs=1e-10)

    def test_translated_ramp_matches_closed_form(self):
        pp = PostProcessor.translated_ramp(0.5)
        assert expectation_postprocessed_quadrature(pp, 2.0, 1.0) == pytest.approx(
            1.5 + 0.5 * math.exp(-1.5), abs=1e-10)

    def test_random_parameter_sweep(self):
        rng = np.random.default_rng(2718)
        for _ in range(50):
            q = float(rng.uniform(0, 6))
            alpha = float(rng.uniform(0, 3))
            b = float(rng.uniform(0.2, 4))
            pp = PostProcessor.translated_ramp(alpha)
            assert expectation_postprocessed_quadrature(pp, q, b) == pytest.approx(
                expectation_translated_ramp(q, alpha, b), abs=1e-8)

    def test_zero_function_has_zero_expectation(self):
        pp = PostProcessor.custom(lambda x: 0.0, scale=1.0)
        for q in (0.0, 1.0, 5.0):
            assert expectation_postprocessed_quadrature(pp, q, 1.0) == 0.0

    def test_non_integrable_function_raises(self):
        # bypasses the constructor check; the engine must still notice.  At
        # q = 0 quad calls |x|^-1.2 "probably divergent" with a tiny error
        # estimate and a negative value, which must not pass as a mean.
        for func, q in [(lambda x: 1 / abs(x) if x else math.inf, 1.0),
                        (lambda x: abs(x) ** -1.2 if x else 0.0, 0.0)]:
            pp = PostProcessor(kind="custom", func=func)
            with pytest.raises(ValueError, match="not integrable"):
                expectation_postprocessed_quadrature(pp, q, 1.0)

    def test_integrand_warning_reaches_the_caller(self):
        def loud_ramp(x):
            if x > 30.0:
                warnings.warn("loud ramp beyond 30")
            return max(x, 0.0)

        with pytest.warns(UserWarning, match="loud ramp"):
            pp = PostProcessor.custom(loud_ramp, 1.0, kinks=(0.0,))
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), pp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = quadrature_bias(spec, 1.0)
        assert caught and all(str(w.message) == "loud ramp beyond 30" for w in caught)
        assert abs(value - 0.5 * math.exp(-1.0)) <= 1e-12

    def test_many_kinked_post_processor_matches_hinge_sum(self):
        # f = sum_i w_i max(x - x_i, 0) at 161 knots, whose bias has a closed
        # form; split at t = 0 only, quad fails at most q.
        f, knots, weights, floor = wavy_ramp(161)
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), PostProcessor.custom(f, 1.0, knots))
        for q in np.linspace(0.0, 20.0, 41).tolist():
            exact = hinge_sum_bias(knots, weights, floor, q, 1.0)
            assert abs(quadrature_bias(spec, q) - exact) <= 1e-12 * (q + 1.0)


class TestNumericSup:
    def test_clamping_bias_peaks_at_zero(self):
        result = max_abs_bias_numeric(lambda q: bias_bit(q, 1.0), q_max=20.0, grid_points=201)
        assert result.value == 0.5
        assert result.argmax_q == 0.0
        assert result.truncated

    def test_optimal_translation_ties_endpoint_and_limit(self):
        b = 1.0
        alpha = optimal_alpha(b)
        result = max_abs_bias_numeric(lambda q: bias_translated_ramp(q, alpha, b),
                                      q_max=20.0, grid_points=201, limit=-alpha)
        assert result.value == pytest.approx(alpha, abs=1e-9)
        assert result.argmax_q in (0.0, math.inf)

    def test_zero_function(self):
        result = max_abs_bias_numeric(lambda q: 0.0, q_max=20.0, grid_points=21)
        assert result == (0.0, 0.0, True)

    def test_limit_can_dominate_grid(self):
        result = max_abs_bias_numeric(lambda q: bias_translated_ramp(q, 2.0, 1.0),
                                      q_max=20.0, grid_points=201, limit=-2.0)
        assert result.value == 2.0
        assert result.argmax_q == math.inf


class TestPositiveBiasWitnesses:
    """Any nonnegative square-integrable post-processing leaves positive
    worst-case bias; the zero function makes it infinite.  The exact infimum
    over all admissible functions is an open question and nothing here pins it
    down; each family member is only certified strictly biased."""

    def _bias(self, pp, q, b=1.0):
        return expectation_postprocessed_quadrature(pp, q, b) - q

    def test_every_family_member_has_positive_worst_case_bias(self):
        family = [PostProcessor.translated_ramp(a) for a in (0.0, 0.2, 0.35, 1.0, 2.0)]
        family.append(PostProcessor.custom(lambda x: x * x, scale=1.0))
        family.append(PostProcessor.custom(lambda x: 1.0, scale=1.0))
        for pp in family:
            assert self._bias(pp, 0.0) > 0
            sup = max_abs_bias_numeric(lambda q: self._bias(pp, q), q_max=20.0,
                                       grid_points=41)
            assert sup.value > 0

    def test_zero_function_bias_magnitude_equals_query(self):
        pp = PostProcessor.custom(lambda x: 0.0, scale=1.0)
        for q in (0.0, 0.5, 1.0, 4.0, 9.0):
            assert abs(self._bias(pp, q)) == pytest.approx(q, abs=1e-12)



_BAD_Q = [-1.0, -1e-300, math.nan, math.inf]


class TestDispatcherInputChecks:
    """closed_form_bias and quadrature_bias check q (and the scale) once,
    before they branch on the variant, and every public entry names the
    argument it finds out of range."""

    @pytest.mark.parametrize("q", _BAD_Q)
    @pytest.mark.parametrize("spec", [
        make_laplace_mechanism(PrivacyParams(1.0, 1.0)),
        make_multiplicative_mechanism(1.0, 0.3),
    ], ids=["plain", "multiplicative"])
    def test_closed_form_rejects_bad_q(self, spec, q):
        with pytest.raises(ValueError, match="q must be"):
            closed_form_bias(spec, q)

    @pytest.mark.parametrize("q", _BAD_Q)
    def test_multiplicative_quadrature_rejects_bad_q(self, q):
        spec = make_multiplicative_mechanism(1.0, 0.3)
        with pytest.raises(ValueError, match="q must be"):
            quadrature_bias(spec, q)

    def test_multiplicative_quadrature_rejects_zero_scale(self):
        spec = MechanismSpec(Variant.MULTIPLICATIVE, PrivacyParams(1.0, 0.3), 0.0)
        with pytest.raises(ValueError, match="scale must be"):
            quadrature_bias(spec, 1.0)

    # (argument name, call with the value, whether 0 is rejected too)
    ENTRIES = [
        ("scale", lambda v: LaplaceDist(0.0, v), True),
        ("scale", lambda v: log_laplace_mgf(v, 1.0), True),
        ("epsilon", lambda v: PrivacyParams(v, 1.0), True),
        ("sensitivity", lambda v: PrivacyParams(1.0, v), False),
        ("translation", PostProcessor.translated_ramp, False),
        ("scale", lambda v: PostProcessor.custom(lambda x: 1.0, v), True),
        ("scale", lambda v: MechanismSpec(Variant.PLAIN, PrivacyParams(1.0, 1.0), v), False),
        ("relative bound", lambda v: make_multiplicative_mechanism(1.0, v), True),
        ("query value", lambda v: sample_mechanism(
            make_laplace_mechanism(PrivacyParams(1.0, 1.0)), v, RngState(0)), False),
        ("epsilon", lambda v: bias_ratio_restricted_vs_bit(1.0, v, 1.0), True),
        ("sensitivity", lambda v: bias_ratio_restricted_vs_bit(1.0, 1.0, v), True),
        ("claimed level", lambda v: certify_dp_densities(
            lambda x: np.ones_like(x), lambda x: np.ones_like(x), v, [0.0, 1.0]), False),
        ("scale", lambda v: check_divergence_log_laplace(v, (10.0, 20.0)), True),
    ]

    @pytest.mark.parametrize("name,call,positive", ENTRIES, ids=[
        "LaplaceDist", "log_laplace_mgf", "PrivacyParams-epsilon", "PrivacyParams-sensitivity",
        "translated_ramp", "custom", "MechanismSpec", "make_multiplicative_mechanism",
        "sample_mechanism", "ratio-epsilon", "ratio-sensitivity", "certify_dp_densities",
        "check_divergence_log_laplace"])
    def test_public_entries_name_the_argument_out_of_range(self, name, call, positive):
        bound = "> 0" if positive else ">= 0"
        for value in [math.nan, math.inf, -math.inf, -1.0] + ([0.0] if positive else []):
            with pytest.raises(ValueError, match=f"^{name} must be finite and {bound}, got"):
                call(value)

    @pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.MULTIPLICATIVE])
    def test_closed_form_is_zero_at_zero_scale(self, variant):
        with pytest.warns(UserWarning, match="degenerate"):
            spec = MechanismSpec(variant, PrivacyParams(1.0, 0.0), 0.0)
        for q in (0.0, 1.0, 1e300):
            assert closed_form_bias(spec, q) == 0.0


class TestClampFormsAreTheTranslatedRamp:
    """bias_bit and the worst-case bias are the translated ramp at alpha = 0
    and at q = 0, bit for bit, with b log-uniform over the double range."""

    def test_log_uniform_sweep(self):
        rng = np.random.default_rng(1301)
        b = 10.0 ** rng.uniform(-300, 300, 4000)
        ratio = 10.0 ** rng.uniform(-6, 3, 4000)
        for b_, r in zip(b.tolist(), ratio.tolist()):
            x = r * b_
            assert bias_bit(x, b_) == bias_translated_ramp(x, 0.0, b_)
            assert max_abs_bias_translated_ramp(x, b_) == max(
                bias_translated_ramp(0.0, x, b_), x)
        for b_ in b[:50].tolist():
            assert bias_bit(0.0, b_) == bias_translated_ramp(0.0, 0.0, b_)
            assert max_abs_bias_translated_ramp(0.0, b_) == bias_translated_ramp(0.0, 0.0, b_)
