"""Acceptance suite: one test per shipping criterion, one printed verdict line each.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
for passing criteria too (pytest shows captured output for failures anyway).
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from nonneg_dp.bias import (
    bias_bit,
    bias_ratio_restricted_vs_bit,
    bias_restricted,
    bias_translated_ramp,
    expectation_postprocessed_quadrature,
    max_abs_bias_translated_ramp,
    optimal_alpha,
)
from nonneg_dp.cli import main as cli_main
from nonneg_dp.distributions import LaplaceDist, log_laplace_mgf
from nonneg_dp.mechanisms import (
    PostProcessor,
    PrivacyParams,
    adjacent_densities,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_restricted_mechanism,
)
from nonneg_dp.queries import QueryDescriptor, QueryKind, relative_bound_K
from nonneg_dp.verify import (
    certify_dp_densities,
    check_divergence_log_laplace,
    coupling_bias_lower_bound,
    mc_bias,
)

from reference import (laplace_cdf, max_abs_bias_numeric, pointwise, ramp_mean_quad, restricted_cdf,
                       restricted_mean_quad, truncated_exp_moment)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_01_clamping_bias_formula():
    start = time.perf_counter()
    scales = (0.25, 0.5, 1.0, 2.0, 5.0)
    worst = 0.0
    for b in scales:
        for q in np.linspace(0.0, 6.0 * b, 20):
            q = float(q)
            worst = max(worst, abs(bias_bit(q, b) - (ramp_mean_quad(q, b) - q)))
    sup_results = [max_abs_bias_numeric(lambda q, b=b: bias_bit(q, b),
                                        q_max=20.0 * b, grid_points=201) for b in scales]
    exact_max = all(r.value == 0.5 * b and r.argmax_q == 0.0
                    for r, b in zip(sup_results, scales))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and exact_max and elapsed < 1.0
    report(1, ok, f"closed form vs quadrature gap {worst:.2e} on 100 points, "
                  f"max at q=0 equals b/2 exactly: {exact_max}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert exact_max
    assert elapsed < 1.0


def test_criterion_02_optimal_translation():
    start = time.perf_counter()
    alpha_star = optimal_alpha(1.0)
    residual = abs(0.5 * math.exp(-alpha_star) - alpha_star)
    oracle_gap = abs(alpha_star - float(special.lambertw(0.5).real))
    branch_gap = abs(0.5 * math.exp(-alpha_star) - alpha_star)
    best = max_abs_bias_translated_ramp(alpha_star, 1.0)
    rng = np.random.default_rng(4242)
    minimal = all(max_abs_bias_translated_ramp(float(a), 1.0) >= best - 1e-12
                  for a in rng.uniform(0.0, 3.0, 100))
    unit = optimal_alpha(1.0)
    scaling_gap = max(abs(optimal_alpha(b) - b * unit) / (b * unit)
                      for b in (0.1, 0.5, 2.0, 10.0))
    elapsed = time.perf_counter() - start
    ok = (residual <= 1e-11 and oracle_gap <= 1e-9 and branch_gap <= 1e-10
          and minimal and scaling_gap <= 1e-10 and elapsed < 1.0)
    report(2, ok, f"alpha*(1)={alpha_star:.7f}, residual {residual:.1e}, "
                  f"scaling gap {scaling_gap:.1e}, minimal over 100 samples: {minimal}, "
                  f"{elapsed:.2f}s")
    assert residual <= 1e-11
    assert oracle_gap <= 1e-9
    assert branch_gap <= 1e-10
    assert minimal
    assert scaling_gap <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_restriction_bias():
    start = time.perf_counter()
    worst_quad = 0.0
    for b in (0.5, 1.0, 2.0):
        for q in np.linspace(0.0, 5.0 * b, 12):
            q = float(q)
            mean = restricted_mean_quad(LaplaceDist(q, b))
            worst_quad = max(worst_quad, abs(bias_restricted(q, b) - (mean - q)))
    spec = make_restricted_mechanism(PrivacyParams(1.0, 1.0))
    worst_z = 0.0
    for index, q in enumerate((0.0, 0.5, 1.0, 5.0)):
        est = mc_bias(spec, q, 10**6, seed=9000 + index)
        worst_z = max(worst_z, abs(est.mean - bias_restricted(q, 1.0)) / est.stderr)
    elapsed = time.perf_counter() - start
    ok = worst_quad <= 1e-8 and worst_z <= 4.0 and elapsed < 30.0
    report(3, ok, f"closed form vs quadrature gap {worst_quad:.2e}, "
                  f"max Monte Carlo |z| {worst_z:.2f} at n=1e6, {elapsed:.1f}s")
    assert worst_quad <= 1e-8
    assert worst_z <= 4.0
    assert elapsed < 30.0


def test_criterion_04_restriction_to_clamping_ratio():
    at_zero_gap = abs(bias_ratio_restricted_vs_bit(0.0, 1.0, 1.0) - 4.0)
    above_two = True
    for eps, delta in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.1)):
        for q in np.linspace(0.0, 20.0 * delta / eps, 200):
            above_two &= bias_ratio_restricted_vs_bit(float(q), eps, delta) > 2.0
    ok = at_zero_gap <= 1e-12 and above_two
    report(4, ok, f"ratio(0) off 4 by {at_zero_gap:.1e}, "
                  f"above 2 on all 600 grid points: {above_two}")
    assert at_zero_gap <= 1e-12
    assert above_two


def test_criterion_05_privacy_certificates():
    start = time.perf_counter()
    privacy = PrivacyParams(1.0, 1.0)   # b = 1, adjacent values 0 and 1
    log_a, log_b, points = adjacent_densities(make_laplace_mechanism(privacy))
    plain_cert = certify_dp_densities(log_a, log_b, 1.0, points)
    plain_gap = abs(plain_cert.max_log_ratio_observed - 1.0)
    log_a, log_b, points = adjacent_densities(make_restricted_mechanism(privacy))
    restricted_at_double = certify_dp_densities(log_a, log_b, 2.0, points)
    restricted_at_single = certify_dp_densities(log_a, log_b, 1.0, points)
    elapsed = time.perf_counter() - start
    ok = (plain_cert.passed and plain_gap <= 1e-9 and restricted_at_double.passed
          and not restricted_at_single.passed and elapsed < 5.0)
    report(5, ok, f"plain max log-ratio {plain_cert.max_log_ratio_observed:.9f} at eps=1, "
                  f"restricted passes at 2eps and fails at eps "
                  f"(observed {restricted_at_single.max_log_ratio_observed:.4f}), "
                  f"{elapsed:.1f}s")
    assert plain_cert.passed
    assert plain_gap <= 1e-9
    assert restricted_at_double.passed
    assert not restricted_at_single.passed
    assert elapsed < 5.0


def test_criterion_06_dominance_and_coupling():
    combos = [(q, b) for q in (0.0, 1.0, 5.0) for b in (0.5, 1.0, 2.0)]
    dominance_ok = True
    coupling_gap = 0.0
    coupling_positive = True
    for q, b in combos:
        base = LaplaceDist(q, b)
        grid = np.linspace(-10.0 * b, q + 10.0 * b, 1500)
        dominance_ok &= bool(np.all(pointwise(laplace_cdf, base, grid) - restricted_cdf(base, grid) > 0.0))
        estimate = coupling_bias_lower_bound(base, 10**5)
        coupling_positive &= estimate > 0
        coupling_gap = max(coupling_gap, abs(estimate - bias_restricted(q, b)))
    ok = dominance_ok and coupling_positive and coupling_gap <= 1e-3
    report(6, ok, f"strict dominance on 9 combos x 1500 points: {dominance_ok}, "
                  f"coupling vs closed form max gap {coupling_gap:.1e}")
    assert dominance_ok
    assert coupling_positive
    assert coupling_gap <= 1e-3


def test_criterion_07_exp_moment_dichotomy():
    moment_quad, _ = integrate.quad(
        lambda x: math.exp(x) * math.exp(-2 * abs(x)), -45.0, 45.0, points=[0.0])
    quad_gap = abs(moment_quad - 4.0 / 3.0)
    closed_gap = abs(log_laplace_mgf(0.5, 1.0) - 4.0 / 3.0)

    # At b = 1 the truncated moment grows linearly in T, so the growth factor
    # is about T_last/T_first: the radii must span more than the 10x threshold.
    growth = check_divergence_log_laplace(1.0, (10.0, 20.0, 40.0, 80.0, 160.0))
    # A finite set of radii cannot tell b = 1 from b just below 1 by the ratio
    # alone, so each truncated value is pinned to its analytic form as well.
    analytic = [truncated_exp_moment(1.0, t) for t in growth.radii]
    pinned = all(v == pytest.approx(a, rel=1e-9) for v, a in zip(growth.values, analytic))
    t_first, t_last = growth.radii[0], growth.radii[-1]
    expected_growth = (t_last / 2 + 0.25) / (t_first / 2 + 0.25)

    with pytest.warns(UserWarning):
        spec = make_multiplicative_mechanism(1.0, 0.5)
    est = mc_bias(spec, 1.0, 10**6, seed=42)
    mc_z = abs(est.mean - 1.0 / 3.0) / est.stderr

    ok = (quad_gap <= 1e-6 and closed_gap <= 1e-6 and growth.strictly_increasing
          and pinned and growth.growth_factor > 10.0 and mc_z <= 4.0)
    report(7, ok, f"moment quadrature gap {quad_gap:.1e}, truncated-integral growth "
                  f"over radii {growth.radii} monotone: {growth.strictly_increasing}, "
                  f"matches analytic values: {pinned}, final/initial "
                  f"{growth.growth_factor:.3f} (need > 10; analytic "
                  f"(T_last/2 + 1/4)/(T_first/2 + 1/4) = {expected_growth:.3f}), "
                  f"multiplicative Monte Carlo |z| {mc_z:.2f}")
    assert quad_gap <= 1e-6
    assert closed_gap <= 1e-6
    assert growth.strictly_increasing
    assert pinned, f"truncated moments {growth.values} differ from analytic {analytic}"
    assert mc_z <= 4.0
    assert growth.growth_factor > 10.0, (
        f"boundary-scale growth over radii {growth.radii} is "
        f"{growth.growth_factor:.6f}, analytic (T_last/2 + 1/4)/(T_first/2 + 1/4) "
        f"= {expected_growth:.6f}; need > 10")


def test_criterion_08_positive_bias_witnesses():
    """Worst-case bias is strictly positive for every admissible post-processor
    tested, and infinite for the zero function.  Out of scope by design: the
    numeric value of the infimum of the worst-case bias over all admissible
    post-processors (only its positivity is established)."""
    alpha_star = optimal_alpha(1.0)
    family = [PostProcessor.translated_ramp(a) for a in (0.0, alpha_star, 1.0, 2.0)]
    family.append(PostProcessor.custom(lambda x: x * x, scale=1.0))
    family.append(PostProcessor.custom(lambda x: 1.0, scale=1.0))
    all_positive = True
    for pp in family:
        bias_fn = lambda q, pp=pp: expectation_postprocessed_quadrature(pp, q, 1.0) - q
        sup = max_abs_bias_numeric(bias_fn, q_max=20.0, grid_points=41)
        all_positive &= bias_fn(0.0) > 0 and sup.value > 0

    zero = PostProcessor.custom(lambda x: 0.0, scale=1.0)
    zero_matches = all(
        abs(abs(expectation_postprocessed_quadrature(zero, float(q), 1.0) - q) - q) <= 1e-12
        for q in (0.0, 0.5, 1.0, 4.0, 9.0))

    ok = all_positive and zero_matches
    report(8, ok, f"positive worst-case bias for all {len(family)} post-processors: "
                  f"{all_positive}, zero function has |bias| = q: {zero_matches} "
                  f"(infimum value out of scope)")
    assert all_positive
    assert zero_matches


def test_criterion_09_relative_bound_examples():
    mean = QueryDescriptor(QueryKind.BOUNDED_MEAN)
    first = relative_bound_K(mean, (0.1, 1.0), 10)
    second = relative_bound_K(mean, (0.01, 1.0), 5)
    exact = first == (1 - 0.1) / (0.1 * 10) and second == (1 - 0.01) / (0.01 * 5)
    unbounded = relative_bound_K(mean, (0.0, 1.0), 10) == math.inf
    ok = exact and unbounded
    report(9, ok, f"floor 0.1/n=10 gives {first}, floor 0.01/n=5 gives {second} "
                  f"(both exact), zero floor unbounded: {unbounded}")
    assert exact
    assert unbounded


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "records.txt"
    data.write_text("0.2\n0.4\n0.6\n")
    invocations = [
        ("bias-curve", "--mechanism", "bit", "--q-points", "3", "--q-max", "2",
         "--samples", "2000", "--seed", "17"),
        ("optimal-alpha", "--scale", "1.5", "--seed", "17"),
        ("compare", "--epsilon", "1", "--sensitivity", "1", "--q-points", "5",
         "--q-max", "4", "--seed", "17"),
        ("verify-dp", "--mechanism", "restricted", "--epsilon", "1",
         "--sensitivity", "1", "--seed", "17"),
        ("mc-validate", "--mechanism", "restricted", "--q-points", "3",
         "--q-max", "2", "--samples", "2000", "--seed", "17"),
        ("query-info", "--data", str(data), "--lower", "0.1", "--upper", "1",
         "--query", "mean", "--seed", "17"),
    ]
    identical = True
    for index, argv in enumerate(invocations):
        first = tmp_path / f"run{index}_a.out"
        second = tmp_path / f"run{index}_b.out"
        assert cli_main([*argv, "--out", str(first)]) in (0, 1)
        assert cli_main([*argv, "--out", str(second)]) in (0, 1)
        identical &= first.read_bytes() == second.read_bytes()
    report(10, identical, f"byte-identical repeat runs for all {len(invocations)} subcommands")
    assert identical
