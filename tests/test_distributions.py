import math

import numpy as np
import pytest
from scipy import integrate, stats

from nonneg_dp.distributions import (
    _TINY,
    LaplaceDist,
    RngState,
    laplace_quantile,
    log_laplace_mgf,
)
from nonneg_dp.mechanisms import PrivacyParams, make_laplace_mechanism, sample_mechanism

from reference import laplace_cdf, laplace_pdf, pointwise


def _plain(b):
    """The plain mechanism at scale b: its draws at q are the Laplace (q, b) law's."""
    return make_laplace_mechanism(PrivacyParams(1.0, b))


class TestLaplaceDist:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError):
            LaplaceDist(0.0, scale)

    def test_rejects_nonfinite_location(self):
        with pytest.raises(ValueError):
            LaplaceDist(math.inf, 1.0)

    @pytest.mark.parametrize("q,b", [(0.0, 1.0), (3.0, 2.0), (-1.5, 0.3), (10.0, 5.0)])
    def test_density_normalizes(self, q, b):
        dist = LaplaceDist(q, b)
        total, _ = integrate.quad(lambda x: laplace_pdf(dist, x),
                                  q - 40 * b, q + 40 * b, points=[q], epsabs=1e-13)
        assert abs(total - 1.0) < 1e-10


class TestPdf:
    """The reference density of ``tests/reference.py``, which other tests compare against."""

    def test_peak_value(self):
        assert laplace_pdf(LaplaceDist(0.0, 1.0), 0.0) == 0.5
        assert laplace_pdf(LaplaceDist(3.0, 2.0), 3.0) == 0.25

    def test_one_scale_away_from_peak(self):
        assert laplace_pdf(LaplaceDist(0.0, 1.0), 1.0) == pytest.approx(
            0.18393972058572117, abs=1e-15)

    def test_strictly_positive(self):
        xs = np.linspace(-50, 50, 101)
        assert np.all(pointwise(laplace_pdf, LaplaceDist(0.0, 1.0), xs) > 0)

    def test_translation_invariance(self):
        xs = np.linspace(-8, 12, 100)
        shifted = pointwise(laplace_pdf, LaplaceDist(2.5, 0.7), xs)
        centered = pointwise(laplace_pdf, LaplaceDist(0.0, 0.7), xs - 2.5)
        np.testing.assert_array_equal(shifted, centered)

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError, match="non-finite input"):
            laplace_pdf(LaplaceDist(0.0, 1.0), math.nan)


class TestCdf:
    """The reference cdf of ``tests/reference.py``, which other tests compare against."""

    def test_half_at_mean(self):
        assert laplace_cdf(LaplaceDist(0.0, 1.0), 0.0) == 0.5

    def test_analytic_values(self):
        assert laplace_cdf(LaplaceDist(0.0, 1.0), 1.0) == pytest.approx(
            0.8160602794142788, abs=1e-15)
        assert laplace_cdf(LaplaceDist(5.0, 1.0), 0.0) == pytest.approx(
            0.0033689734995427335, abs=1e-18)

    def test_matches_quadrature(self):
        dist = LaplaceDist(0.0, 1.0)
        mass, _ = integrate.quad(lambda x: laplace_pdf(dist, x), -45, 1.0, points=[0.0])
        assert laplace_cdf(dist, 1.0) == pytest.approx(mass, abs=1e-10)

    def test_monotone_and_bounded(self):
        xs = np.linspace(-30, 30, 500)
        values = pointwise(laplace_cdf, LaplaceDist(1.0, 2.0), xs)
        assert np.all(np.diff(values) >= 0)
        assert np.all((values > 0) & (values < 1))

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError, match="non-finite input"):
            laplace_cdf(LaplaceDist(0.0, 1.0), math.inf)


class TestQuantile:
    def test_median_is_mean(self):
        assert laplace_quantile(LaplaceDist(0.0, 1.0), 0.5) == 0.0

    def test_analytic_values(self):
        assert laplace_quantile(LaplaceDist(0.0, 1.0), 0.25) == pytest.approx(
            -0.6931471805599453, abs=1e-15)
        assert laplace_quantile(LaplaceDist(2.0, 3.0), 0.9) == pytest.approx(
            6.828313737302301, abs=1e-12)

    def test_cdf_roundtrip_on_percentiles(self):
        dist = LaplaceDist(1.0, 2.0)
        ps = np.arange(1, 100) / 100.0
        back = pointwise(laplace_cdf, dist, laplace_quantile(dist, ps))
        np.testing.assert_allclose(back, ps, rtol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError, match="probability out of range"):
            laplace_quantile(LaplaceDist(0.0, 1.0), p)


# Uniforms from the smallest one the sampler emits to the largest double below 1,
# the two neighbours of 0.5, where the quantile switches branch, and [0.2, 0.3],
# where 1 - p rounds.
SCALAR_GRID_U = np.concatenate([[_TINY, 1e-300, 1e-12, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0 - 2**-53,
                                 math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)],
                                np.linspace(0.2, 0.3, 1001),
                                np.random.default_rng(2024).random(2000)])
SCALAR_DISTS = [LaplaceDist(0.0, 1.0), LaplaceDist(3.7, 0.013), LaplaceDist(1e6, 1e-3),
                LaplaceDist(-2.0, 250.0), LaplaceDist(-0.0, 1.0)]


class TestScalarPath:
    """A float input gives a Python float equal bit for bit to the array result."""

    @pytest.mark.parametrize("dist", SCALAR_DISTS)
    def test_quantile_matches_array_form(self, dist):
        batched = laplace_quantile(dist, SCALAR_GRID_U)
        scalar = [laplace_quantile(dist, float(u)) for u in SCALAR_GRID_U]
        np.testing.assert_array_equal(scalar, batched)
        np.testing.assert_array_equal(np.signbit(scalar), np.signbit(batched))

    def test_quantile_at_half_keeps_sign_of_location(self):
        for loc in (0.0, -0.0):
            dist = LaplaceDist(loc, 1.0)
            for value in (laplace_quantile(dist, 0.5), laplace_quantile(dist, np.array([0.5]))[0]):
                assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, loc)

    @pytest.mark.parametrize("func", [laplace_pdf, laplace_cdf, laplace_quantile])
    def test_zero_dim_array_gives_python_float(self, func):
        dist = LaplaceDist(0.5, 2.0)
        for x in (0.3, 0.7):
            value = func(dist, np.asarray(x))
            assert type(value) is float and value == func(dist, x)

    def test_quantile_leaves_input_unchanged(self):
        p = np.random.default_rng(2026).random(1000)
        before = p.copy()
        laplace_quantile(LaplaceDist(1.0, 2.0), p)
        np.testing.assert_array_equal(p, before)

    @pytest.mark.parametrize("func", [laplace_pdf, laplace_cdf, laplace_quantile])
    def test_results_are_python_floats(self, func):
        dist = LaplaceDist(np.float64(0.5), 2.0)
        for x in (0.3, np.float64(0.3), 0.7, np.float64(0.7)):
            assert type(func(dist, x)) is float

    def test_sample_is_python_float(self):
        assert type(sample_mechanism(_plain(1.0), 1.0, RngState(1))) is float

    # nan passed the old array check, np.any(p <= 0) or np.any(p >= 1), and
    # came back as the quantile.
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_quantile_range_error_matches_array_form(self, p):
        for arg in (p, np.float64(p), np.asarray(p), np.array([0.5, p])):
            with pytest.raises(ValueError, match="probability out of range"):
                laplace_quantile(LaplaceDist(0.0, 1.0), arg)

    @pytest.mark.parametrize("func", [laplace_pdf, laplace_cdf])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_input_is_value_error(self, func, x):
        for arg in (x, np.float64(x), np.asarray(x)):
            with pytest.raises(ValueError, match="non-finite input"):
                func(LaplaceDist(0.0, 1.0), arg)

    def test_tiny_is_smallest_normal_double(self):
        assert type(_TINY) is float
        assert _TINY == np.finfo(float).tiny


class TestRngState:
    def test_identical_seed_identical_stream(self):
        a = RngState(12345)
        b = RngState(12345)
        np.testing.assert_array_equal(a.uniform(1000), b.uniform(1000))

    def test_scalar_and_vector_draws_agree(self):
        a = RngState(7)
        b = RngState(7)
        scalars = [a.uniform() for _ in range(10)]
        np.testing.assert_array_equal(scalars, b.uniform(10))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RngState(-1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        # 1.5 was the stream of seed 1.
        with pytest.raises(ValueError, match="seed must be an integer"):
            RngState(seed)

    def test_numpy_integer_seed(self):
        for seed in (np.uint64(5), np.int32(5)):
            np.testing.assert_array_equal(RngState(seed).uniform(100), RngState(5).uniform(100))
            assert type(RngState(seed).seed) is int


class TestSampling:
    """The Laplace law as the plain mechanism draws it."""

    def test_fixed_seed_reproduces_stream(self):
        first = sample_mechanism(_plain(1.0), 0.0, RngState(42), size=1000)
        second = sample_mechanism(_plain(1.0), 0.0, RngState(42), size=1000)
        np.testing.assert_array_equal(first, second)

    def test_sample_mean_is_unbiased(self):
        # tolerance: 3 standard errors of the mean, std = b*sqrt(2)
        draws = sample_mechanism(_plain(1.0), 0.0, RngState(42), size=10**6)
        assert abs(draws.mean()) < 0.005

    def test_mean_absolute_deviation_equals_scale(self):
        draws = sample_mechanism(_plain(1.0), 0.0, RngState(43), size=10**6)
        assert abs(np.abs(draws).mean() - 1.0) < 0.005

    def test_empirical_cdf_matches_analytic(self):
        dist = LaplaceDist(0.0, 1.0)
        draws = sample_mechanism(_plain(1.0), 0.0, RngState(42), size=10**5)
        result = stats.kstest(draws, lambda x: pointwise(laplace_cdf, dist, x))
        assert result.pvalue > 0.001

    def test_one_uniform_per_draw(self):
        dist = LaplaceDist(2.0, 0.5)
        draws = sample_mechanism(_plain(0.5), 2.0, RngState(11), size=64)
        expected = laplace_quantile(dist, RngState(11).uniform(64))
        np.testing.assert_array_equal(draws, expected)


class TestLogLaplaceMgf:
    def test_closed_form_values(self):
        assert log_laplace_mgf(0.5, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert log_laplace_mgf(0.4, 2.0) == pytest.approx(2.7777777777777777, abs=1e-15)

    def test_infinite_at_and_beyond_unit_product(self):
        assert log_laplace_mgf(1.0, 1.0) == math.inf
        assert log_laplace_mgf(2.0, 1.0) == math.inf
        assert log_laplace_mgf(0.5, 2.0) == math.inf
        assert log_laplace_mgf(0.5, -2.0) == math.inf

    @pytest.mark.parametrize("b", [0.1, 0.3, 0.5, 0.9])
    def test_matches_quadrature(self, b):
        # integrand decays like exp(-(1/b - 1)|x|); truncate far out in the tail
        radius = 45.0 * b / (1.0 - b)
        value, _ = integrate.quad(
            lambda x: math.exp(x) * math.exp(-abs(x) / b) / (2 * b),
            -radius, radius, points=[0.0], limit=300)
        assert log_laplace_mgf(b, 1.0) == pytest.approx(value, rel=1e-8)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            log_laplace_mgf(0.0, 1.0)
