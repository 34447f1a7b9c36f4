import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from nonneg_dp.bias import bias_bit, bias_restricted, bias_translated_ramp, optimal_alpha
from nonneg_dp.distributions import (
    LaplaceDist,
    RngState,
    laplace_quantile,
    log_laplace_mgf,
)
from nonneg_dp.mechanisms import (
    MechanismSpec,
    PostProcessor,
    PrivacyParams,
    Variant,
    adjacent_densities,
    guaranteed_privacy_level,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
    restricted_quantile,
    sample_mechanism,
)
from nonneg_dp.verify import (
    certify_dp_densities,
    check_divergence_log_laplace,
    coupling_bias_lower_bound,
    mc_bias,
)

from reference import exact_log_ratio, laplace_cdf, pointwise, restricted_cdf, truncated_exp_moment


class TestCertifyDpDensities:
    def test_laplace_extremal_pair_meets_epsilon_exactly(self):
        log_a, log_b, points = adjacent_densities(make_laplace_mechanism(PrivacyParams(1.0, 1.0)))
        cert = certify_dp_densities(log_a, log_b, 1.0, points)
        assert cert.passed
        assert cert.max_log_ratio_observed == 1.0
        assert cert.grid_description == "2 points in [0, 1]"

    def test_identical_densities(self):
        log_density = lambda x: -abs(x - 2.0)
        cert = certify_dp_densities(log_density, log_density, 1e-6, np.linspace(-5, 9, 500))
        assert cert.passed
        assert cert.max_log_ratio_observed == 0.0

    def test_restricted_pair_passes_doubled_and_fails_single(self):
        log_a, log_b, points = adjacent_densities(make_restricted_mechanism(PrivacyParams(1.0, 1.0)))
        assert certify_dp_densities(log_a, log_b, 2.0, points).passed
        failed = certify_dp_densities(log_a, log_b, 1.0, points)
        assert not failed.passed
        # the renormalizer contributes log((1 - F_b(0)) / (1 - F_a(0))) on top of epsilon
        extra = math.log((1 - 0.5 * math.exp(-1)) / 0.5)
        assert failed.max_log_ratio_observed == pytest.approx(1.0 + extra, abs=1e-15)

    def test_rejects_vanishing_density(self):
        log_a, log_b, _ = adjacent_densities(make_restricted_mechanism(PrivacyParams(1.0, 1.0)))
        # the restricted density is zero below 0
        with pytest.raises(ValueError, match="finite"):
            certify_dp_densities(log_a, log_b, 2.0, [-1.0, 0.0, 1.0])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            certify_dp_densities(lambda x: 0.0, lambda x: 0.0, 1.0, [])

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_rejects_claimed_level_that_is_not_finite_and_nonnegative(self, eps):
        log_density = lambda x: -abs(x)
        with pytest.raises(ValueError, match="finite and >= 0"):
            certify_dp_densities(log_density, log_density, eps, np.linspace(-1, 1, 5))

    def test_claimed_level_zero_certifies_identical_densities(self):
        log_density = lambda x: -abs(x)
        assert certify_dp_densities(log_density, log_density, 0.0, np.linspace(-1, 1, 5)).passed

    def test_calls_each_log_density_once_per_point(self):
        calls = []

        def log_density(x):
            calls.append(x)
            return -abs(x)

        certify_dp_densities(log_density, log_density, 1.0, np.linspace(-3.0, 3.0, 50))
        points = np.linspace(-3.0, 3.0, 50).tolist()
        assert calls == [x for x in points for _ in range(2)]
        assert all(type(x) is float for x in calls)

    def test_postprocessed_has_no_density(self):
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), PostProcessor.ramp())
        with pytest.raises(ValueError, match="no closed-form density"):
            adjacent_densities(spec)

    def test_zero_scale_is_value_error(self):
        with pytest.warns(UserWarning, match="degenerate"):
            spec = make_laplace_mechanism(PrivacyParams(1.0, 0.0))
        with pytest.raises(ValueError, match="^scale must be finite and > 0, got 0.0"):
            adjacent_densities(spec)


class TestExactCertificate:
    """The certificate is the exact supremum of the log ratio, Delta/b,
    s + log(2 - e^(-s)) with s = Delta/b, or K/b, over the whole range of b."""

    @pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.RESTRICTED, Variant.MULTIPLICATIVE],
                             ids=lambda v: v.value)
    @pytest.mark.parametrize("b", [1e-300, 1e-3, 1.0, 1e3, 1e300])
    @pytest.mark.parametrize("s", [0.0, 1e-6, 0.8, 715.0, 1e5])
    def test_max_log_ratio_within_4_ulps_and_passes_at_guaranteed_level(self, variant, b, s):
        # At s = 0 the sensitivity is 0 and the scale is given: b = 0/eps would be no noise.
        privacy = PrivacyParams(s or 1.0, s * b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the multiplicative spec warns at b >= 1/2
            spec = MechanismSpec(variant, privacy, privacy.scale if s else b)
        log_a, log_b, points = adjacent_densities(spec)
        assert points == (0.0, privacy.sensitivity)
        cert = certify_dp_densities(log_a, log_b, guaranteed_privacy_level(spec), points)
        exact = exact_log_ratio(privacy.sensitivity, spec.scale, variant is Variant.RESTRICTED)
        assert abs(cert.max_log_ratio_observed - exact) <= 4 * math.ulp(exact)
        assert cert.passed

    def test_default_claim_is_certified_for_every_accepted_spec(self):
        # epsilon and the sensitivity log-uniform over 300 decades.  The spec
        # rejects a subnormal scale sensitivity/epsilon, which has lost bits so
        # that Delta/b can exceed epsilon; adjacent_densities rejects one that
        # underflows to 0.
        rng = random.Random(26)
        makers = [make_laplace_mechanism, make_restricted_mechanism,
                  lambda p: make_restricted_mechanism(p, fair_comparison=True)]
        certified = subnormal = 0
        for _ in range(3000):
            privacy = PrivacyParams(10.0 ** rng.uniform(-3.0, 300.0), 10.0 ** rng.uniform(-300.0, 3.0))
            make = rng.choice(makers)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")   # a scale of 0 warns: no noise
                    spec = make(privacy)
                log_a, log_b, points = adjacent_densities(spec)
            except ValueError as exc:
                subnormal += "must be 0 or at least" in str(exc)
                continue
            cert = certify_dp_densities(log_a, log_b, guaranteed_privacy_level(spec), points)
            assert cert.passed, (privacy, spec.variant, spec.scale)
            certified += 1
        assert certified > 1000 and subnormal > 100

    def test_large_level_is_certified(self):
        # The 2000-point grid of density values read 715.00000000153079 here and failed.
        log_a, log_b, points = adjacent_densities(make_laplace_mechanism(PrivacyParams(715.0, 1.0)))
        cert = certify_dp_densities(log_a, log_b, 715.0, points)
        assert cert.max_log_ratio_observed == 1.0 / (1.0 / 715.0)
        assert cert.passed


class TestMcBias:
    def test_clamped_at_zero(self):
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), PostProcessor.ramp())
        est = mc_bias(spec, 0.0, 10**6, seed=42)
        assert abs(est.mean - 0.5) <= 3 * est.stderr
        assert est.warning is None

    def test_restricted_at_one(self):
        spec = make_restricted_mechanism(PrivacyParams(1.0, 1.0))
        est = mc_bias(spec, 1.0, 10**6, seed=43)
        assert abs(est.mean - bias_restricted(1.0, 1.0)) <= 3 * est.stderr

    def test_plain_is_unbiased(self):
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        est = mc_bias(spec, 5.0, 10**6, seed=44)
        assert abs(est.mean) <= 3 * est.stderr

    def test_deterministic_given_seed(self):
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        assert mc_bias(spec, 1.0, 1000, seed=7) == mc_bias(spec, 1.0, 1000, seed=7)

    def test_divergent_multiplicative_attaches_warning(self):
        with pytest.warns(UserWarning):
            spec = make_multiplicative_mechanism(1.0, 1.5)
        est = mc_bias(spec, 1.0, 1000, seed=1)
        assert est.warning is not None
        assert "infinite" in est.warning

    @pytest.mark.parametrize("k_bound", [0.3, 0.6, 1.5])
    def test_warning_is_the_spec_warning(self, k_bound):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = make_multiplicative_mechanism(1.0, k_bound)
        assert mc_bias(spec, 1.0, 1000, seed=1).warning == spec.warning

    def test_requires_enough_draws(self):
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        with pytest.raises(ValueError):
            mc_bias(spec, 0.0, 99, seed=0)

    @pytest.mark.parametrize("n", [1000.5, 1000.0, "1000"])
    def test_draw_count_must_be_an_integer(self, n):
        # 1000.5 raised numpy's TypeError("expected a sequence of integers ...").
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            mc_bias(spec, 0.0, n, seed=1)
        assert mc_bias(spec, 0.0, np.int64(1000), seed=1) == mc_bias(spec, 0.0, 1000, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_custom_output_that_is_not_finite_is_value_error(self, bad):
        # Passes the vetting grid, which ends at 20; the estimate was nan or inf.
        pp = PostProcessor.custom(lambda x: max(x, 0.0) if x < 1e4 else bad, 1.0)
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), pp)
        with pytest.raises(ValueError, match="not nonnegative"):
            mc_bias(spec, 2e4, 1000, seed=1)

    def test_seed_that_is_not_an_integer_is_value_error(self):
        # 1.5 drew the stream of seed 1 and reported seed=1.5.
        spec = make_laplace_mechanism(PrivacyParams(1.0, 1.0))
        with pytest.raises(ValueError, match="seed must be an integer"):
            mc_bias(spec, 0.0, 1000, 1.5)
        assert mc_bias(spec, 0.0, 1000, np.uint64(5)) == mc_bias(spec, 0.0, 1000, 5)

    @pytest.mark.parametrize("q_factor", [0.0, 0.5, 1.0, 5.0])
    def test_agrees_with_closed_forms(self, q_factor):
        b = 1.0
        q = q_factor * b
        alpha_star = optimal_alpha(b)
        cases = [
            (make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), PostProcessor.ramp()),
             bias_bit(q, b)),
            (make_postprocessed_mechanism(PrivacyParams(1.0, 1.0),
                                          PostProcessor.translated_ramp(alpha_star)),
             bias_translated_ramp(q, alpha_star, b)),
            (make_postprocessed_mechanism(PrivacyParams(1.0, 1.0),
                                          PostProcessor.translated_ramp(2 * alpha_star)),
             bias_translated_ramp(q, 2 * alpha_star, b)),
            (make_restricted_mechanism(PrivacyParams(1.0, 1.0)), bias_restricted(q, b)),
        ]
        for index, (spec, expected) in enumerate(cases):
            est = mc_bias(spec, q, 10**6, seed=1000 + index)
            assert abs(est.mean - expected) <= 4 * est.stderr

    def test_convergent_multiplicative_matches_moment(self):
        with pytest.warns(UserWarning):
            spec = make_multiplicative_mechanism(1.0, 0.5)
        est = mc_bias(spec, 1.0, 10**6, seed=42)
        expected = log_laplace_mgf(0.5, 1.0) - 1.0
        assert abs(est.mean - expected) <= 4 * est.stderr


def _mc_specs():
    privacy = PrivacyParams(0.8, 1.0)
    return {
        "plain": make_laplace_mechanism(privacy),
        "ramp": make_postprocessed_mechanism(privacy, PostProcessor.ramp()),
        "translated-ramp": make_postprocessed_mechanism(privacy,
                                                        PostProcessor.translated_ramp(0.44)),
        "restricted": make_restricted_mechanism(privacy),
        "multiplicative": make_multiplicative_mechanism(1.0, 0.3),
    }


MC_SPECS = _mc_specs()


class TestMcBiasOfLargeBatches:
    """At 1e6 draws ``mc_bias`` returns numpy's mean and ddof=1 standard
    deviation of the draws, bit for bit, and holds little more than the draws."""

    @pytest.mark.parametrize("name", sorted(MC_SPECS))
    def test_equals_numpy_mean_and_std_of_the_draws(self, name):
        spec, q, seed, n = MC_SPECS[name], 0.7, 5, 10**6
        draws = sample_mechanism(spec, q, RngState(seed), size=n)
        est = mc_bias(spec, q, n, seed)
        assert est.mean == float(np.mean(draws)) - q
        assert est.stderr == float(np.std(draws, ddof=1)) / math.sqrt(n)

    @pytest.mark.parametrize("name", sorted(MC_SPECS))
    def test_peak_memory_is_about_one_array_of_draws(self, name):
        spec, n = MC_SPECS[name], 10**6
        tracemalloc.start()
        try:
            mc_bias(spec, 0.7, n, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n


class TestMcBiasNearTheTopOfTheFloatRange:
    """At b = 1e300 the sum of the draws or of their squared deviations
    overflows; ``mc_bias`` takes both again over the draws scaled by a power
    of two, with no warning."""

    def test_equals_the_scaled_estimate_at_a_power_of_two_scale(self):
        # At q = 0 and b = 2**996 every draw is exactly 2**996 times the
        # draw at b = 1, so the estimate scales exactly too.
        unit = mc_bias(make_laplace_mechanism(PrivacyParams(1.0, 1.0)), 0.0, 10**5, seed=1)
        huge = mc_bias(make_laplace_mechanism(PrivacyParams(1.0, 2.0**996)), 0.0, 10**5, seed=1)
        assert huge.mean == unit.mean * 2.0**996
        assert huge.stderr == unit.stderr * 2.0**996

    @pytest.mark.parametrize("q,n", [(0.0, 10**5), (1e306, 1000)])
    def test_finite_and_unbiased_at_b_1e300(self, q, n):
        b = 1e300
        est = mc_bias(make_laplace_mechanism(PrivacyParams(1.0, b)), q, n, seed=1)
        assert math.isfinite(est.mean) and math.isfinite(est.stderr)
        assert est.stderr == pytest.approx(math.sqrt(2.0) * b / math.sqrt(n), rel=0.1)
        assert abs(est.mean) <= 4 * est.stderr


class TestMcBiasNearTheBottomOfTheFloatRange:
    """Below b ~ 1e-154 the squared deviations of the draws underflow, and
    below ~1e-162 their sum was 0; ``mc_bias`` takes both moments again over
    the draws scaled by a power of two."""

    @pytest.mark.parametrize("make", [make_laplace_mechanism, make_restricted_mechanism],
                             ids=["plain", "restricted"])
    @pytest.mark.parametrize("exponent", [-600, -990])
    def test_equals_the_scaled_estimate_at_a_power_of_two_scale(self, make, exponent):
        # At q = 0 every draw at b = 2**exponent is exactly 2**exponent
        # times the draw at b = 1, so the estimate scales exactly too.
        unit = mc_bias(make(PrivacyParams(1.0, 1.0)), 0.0, 1000, seed=3)
        tiny = mc_bias(make(PrivacyParams(1.0, 2.0**exponent)), 0.0, 1000, seed=3)
        assert tiny.mean == math.ldexp(unit.mean, exponent)
        assert tiny.stderr == math.ldexp(unit.stderr, exponent)


class TestStochasticDominance:
    """The restricted cdf sits strictly below the base cdf: the gap
    F_base - F_restricted is positive at every grid point."""

    @staticmethod
    def _gap(base, grid):
        return pointwise(laplace_cdf, base, grid) - restricted_cdf(base, grid)

    def test_strict_dominance_at_origin(self):
        gap = self._gap(LaplaceDist(0.0, 1.0), np.arange(-5.0, 10.0, 0.01))
        assert np.all(gap > 0.0)
        assert np.min(gap) > 0

    def test_far_location_keeps_tiny_positive_gap(self):
        gap = self._gap(LaplaceDist(10.0, 0.5), np.linspace(-5.0, 15.0, 3000))
        assert np.all(gap > 0.0)
        assert 0 < np.min(gap) < 1e-9

    def test_negative_axis_gap_is_full_cdf(self):
        gap = self._gap(LaplaceDist(0.0, 1.0), np.linspace(-8, -0.1, 200))
        assert np.all(gap > 0.0)


class TestCouplingBias:
    def test_estimates_restriction_bias_at_origin(self):
        estimate = coupling_bias_lower_bound(LaplaceDist(0.0, 1.0), 10**5)
        assert estimate > 0
        assert estimate == pytest.approx(bias_restricted(0.0, 1.0), abs=1e-3)

    def test_estimates_restriction_bias_at_two(self):
        estimate = coupling_bias_lower_bound(LaplaceDist(2.0, 1.0), 10**5)
        assert estimate == pytest.approx(bias_restricted(2.0, 1.0), abs=1e-3)

    @pytest.mark.parametrize("q", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_positive_for_all_parameters(self, q, b):
        assert coupling_bias_lower_bound(LaplaceDist(q, b), 10**4) > 0

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            coupling_bias_lower_bound(LaplaceDist(0.0, 1.0), 99)

    @pytest.mark.parametrize("grid", [1000.5, 1000.0, "1000"])
    def test_rejects_a_grid_that_is_not_an_integer(self, grid):
        # 1000.5 ran 1001 points divided by 1001.5.
        with pytest.raises(ValueError, match="omega grid must be an integer"):
            coupling_bias_lower_bound(LaplaceDist(0.0, 1.0), grid)

    def test_numpy_integer_grid(self):
        base = LaplaceDist(1.0, 1.0)
        assert coupling_bias_lower_bound(base, np.int64(1000)) == coupling_bias_lower_bound(base, 1000)

    def test_rejects_negative_location(self):
        # At -40 it returned 35.97 where the gap is 41.
        with pytest.raises(ValueError, match="location"):
            coupling_bias_lower_bound(LaplaceDist(-40.0, 1.0), 1000)

    def test_both_quantiles_see_the_same_omega_grid(self):
        # Neither quantile may write into the shared grid before the other reads it.
        base, n = LaplaceDist(1.0, 0.5), 1000
        omega = np.arange(1, n + 1, dtype=float) / (n + 1)
        gap = restricted_quantile(base, omega.copy()) - laplace_quantile(base, omega.copy())
        assert coupling_bias_lower_bound(base, n) == float(np.trapezoid(gap, omega))


class TestDivergenceCheck:
    def test_boundary_scale_grows_linearly(self):
        report = check_divergence_log_laplace(1.0, (10, 20, 40, 80))
        assert report.strictly_increasing
        for radius, value in zip(report.radii, report.values):
            assert value == pytest.approx(truncated_exp_moment(1.0, radius), rel=1e-9)
        assert report.growth_factor == pytest.approx(40.25 / 5.25, rel=1e-9)
        assert not report.converged

    def test_wide_radii_witness_divergence_at_boundary_scale(self):
        report = check_divergence_log_laplace(1.0, (5, 10, 20, 40, 80, 160))
        assert report.diverges

    def test_above_boundary_grows_exponentially(self):
        report = check_divergence_log_laplace(2.0, (10, 20))
        assert report.strictly_increasing
        assert report.values[1] / report.values[0] > math.exp(5)
        assert report.diverges

    def test_below_boundary_converges_to_moment(self):
        report = check_divergence_log_laplace(0.5, (10, 20, 40))
        assert report.converged
        assert abs(report.values[-1] - 4.0 / 3.0) <= 1e-6
        assert report.limit == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert not report.diverges

    @pytest.mark.parametrize("b,radii,diverges,converged", [
        pytest.param(1e-300, (1.0, 2.0, 4.0), False, True, id="1e-300"),
        pytest.param(1e-6, (1.0, 2.0, 4.0), False, True, id="1e-06"),
        pytest.param(1e-4, (1.0, 2.0, 4.0), False, True, id="0.0001"),
        pytest.param(0.5, (1.0, 2.0, 4.0), False, False, id="0.5"),
        pytest.param(1e300, (1.0, 2.0, 4.0), True, False, id="1e+300"),
        pytest.param(1e300, (10.0, 20.0, 40.0, 80.0, 160.0), True, False, id="1e+300-radii-10-to-160"),
        # Just below 1 the moments grow as they do at 1 until T(1 - b) nears 1.
        pytest.param(1 - 1e-12, (1e6, 1e8), True, False, id="1-1e-12"),
        pytest.param(1 + 1e-12, (1e6, 1e8), True, False, id="1+1e-12"),
    ])
    def test_truncated_moment_at_every_scale(self, b, radii, diverges, converged):
        # Integrated in x, at b = 1e-4 the moments were (1.00000001, 1.6e-17,
        # 4.4e-36), not converged, and at b <= 1e-6 a ZeroDivisionError.  By
        # quadrature in t = x/b, b = 1e300 lost up to 4.9e-4 of a moment of
        # order 1e-231 to the absolute tolerance, and b = 1 -+ 1e-12 at radius
        # 1e8 was reported not integrable.
        report = check_divergence_log_laplace(b, radii)
        for radius, value in zip(report.radii, report.values):
            # abs=0: approx's default abs=1e-12 would pass any moment near 1e-231.
            assert value == pytest.approx(truncated_exp_moment(b, radius), rel=1e-12, abs=0.0)
        assert report.converged == converged
        assert report.diverges == diverges

    def test_radius_over_scale_that_underflows_is_value_error(self):
        with pytest.raises(ValueError, match="underflows at radius 1e-30"):
            check_divergence_log_laplace(1e300, (1e-30, 1.0))

    def test_rejects_unordered_radii(self):
        with pytest.raises(ValueError):
            check_divergence_log_laplace(1.0, (10, 10))
        with pytest.raises(ValueError):
            check_divergence_log_laplace(1.0, (10,))

    @pytest.mark.parametrize("radii", [(0.0, 10.0), (-10.0, -5.0), (10.0, math.inf),
                                       (5.0, math.nan, 10.0), (math.nan, 10.0)])
    def test_rejects_radii_not_finite_and_positive(self, radii):
        # At radius 0 the moments divided by zero, negative radii gave negative
        # "moments", inf reached scipy, and a nan passed the ordering check.
        with pytest.raises(ValueError, match="finite and > 0"):
            check_divergence_log_laplace(1.0, radii)


class TestDivergenceOverflow:
    @pytest.mark.parametrize("b,radii,bad", [(2.0, (10.0, 2000.0), "2000"),
                                             (1e3, (10.0, 1000.0), "1000")])
    def test_overflow_is_value_error_naming_the_radius(self, b, radii, bad):
        with pytest.raises(ValueError, match=f"radius {bad}"):
            check_divergence_log_laplace(b, radii)

    @pytest.mark.parametrize("b", [1e-300, 1e-10, 0.5, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0, 1e300])
    def test_moments_match_50_digits_or_name_the_radius(self, b):
        # Radii from 1e-3 to 1e8 in half decades.  At b = 1e300 and T = 1000
        # the moment is 1e134, though e^(T(b-1)/b) alone overflows.
        radii = [10.0 ** (k / 2) for k in range(-6, 17)]
        wants = [truncated_exp_moment(b, radius) for radius in radii]
        finite = [radius for radius, want in zip(radii, wants) if want < math.inf]
        report = check_divergence_log_laplace(b, finite)
        for value, want in zip(report.values, wants):
            assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        if len(finite) < len(radii):
            with pytest.raises(ValueError, match=f"overflows at radius {radii[len(finite)]:g}$"):
                check_divergence_log_laplace(b, radii)
