"""Numerical and statistical verification of mechanism guarantees.

Privacy is certified through density ratios: if two output densities never
differ by more than a factor exp(eps) pointwise, the event-level privacy
inequality follows by integration.  The closed-form log densities are
piecewise linear, so the supremum of |log density ratio| is its value at a
kink, and those few points give an exact certificate.

Bias claims are validated three ways: closed form, seeded Monte Carlo with
standard errors, and a quantile coupling.  The coupling evaluates the base
and restricted inverse cdfs on one shared uniform grid, where the restricted
quantile dominates the base quantile pointwise; the mean gap then equals the
restriction bias, witnessing its strict positivity constructively.

The divergence check for multiplicative mechanisms watches truncated
integrals of exp(x) against the Laplace weight grow without bound once the
noise scale reaches 1, instead of trusting sample means of a heavy-tailed
law to misbehave reliably; each truncated integral is a closed form.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .distributions import (LaplaceDist, RngState, _require_integer, _require_nonnegative,
                            _require_positive, _Value, laplace_quantile, log_laplace_mgf, np)
from .mechanisms import MechanismSpec, restricted_quantile, sample_mechanism

__all__ = [
    "DpCertificate",
    "McEstimate",
    "DivergenceReport",
    "certify_dp_densities",
    "mc_bias",
    "coupling_bias_lower_bound",
    "check_divergence_log_laplace",
]

# Slack on density-ratio certificates, absorbing float rounding in the log;
# four ulps of the claimed level where those are larger (level above ~1e7),
# since Delta/b itself rounds.
_CERT_SLACK = 1e-9
# Overall growth of the truncated moments that flags divergence at scale >= 1.
_DIVERGENCE_GROWTH = 10.0
# Distance from the closed-form moment within which scale < 1 counts as converged.
_CONVERGENCE_TOL = 1e-6


class DpCertificate(_Value):
    """Result of :func:`certify_dp_densities`: whether the largest log density
    ratio observed over the grid stays within the claimed level."""

    epsilon_claimed: float
    max_log_ratio_observed: float
    grid_description: str
    passed: bool
    __match_args__ = ("epsilon_claimed", "max_log_ratio_observed", "grid_description", "passed")

    def __init__(self, epsilon_claimed: float, max_log_ratio_observed: float, grid_description: str,
                 passed: bool):
        self.__dict__.update(epsilon_claimed=epsilon_claimed, max_log_ratio_observed=max_log_ratio_observed,
                             grid_description=grid_description, passed=passed)


class McEstimate(_Value):
    """Monte Carlo bias estimate: mean of draws minus the true value."""

    mean: float
    stderr: float
    n: int
    seed: int
    warning: str | None
    __match_args__ = ("mean", "stderr", "n", "seed", "warning")

    def __init__(self, mean: float, stderr: float, n: int, seed: int, warning: str | None = None):
        self.__dict__.update(mean=mean, stderr=stderr, n=n, seed=seed, warning=warning)


class DivergenceReport(_Value):
    """Truncated integrals of the exp-transformed Laplace weight at growing radii.

    For scale >= 1 the values increase without bound; ``diverges`` records
    that they were strictly increasing with overall growth of at least
    ``_DIVERGENCE_GROWTH`` (10).  For scale < 1 the last value is compared
    against the closed-form moment instead, within ``_CONVERGENCE_TOL``.

    At the boundary scale 1 the growth is only linear, (T/2 + 1/4) up to a
    term in exp(-2T), so ``growth_factor`` is about ``radii[-1] / radii[0]``
    and ``diverges`` can be set there only when the radii span more than
    roughly ``_DIVERGENCE_GROWTH``; radii (10, 20, 40, 80) give 7.667.
    """

    scale: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    strictly_increasing: bool
    growth_factor: float
    diverges: bool
    limit: float
    converged: bool
    __match_args__ = ("scale", "radii", "values", "strictly_increasing", "growth_factor", "diverges",
                      "limit", "converged")

    def __init__(self, scale: float, radii: tuple[float, ...], values: tuple[float, ...],
                 strictly_increasing: bool, growth_factor: float, diverges: bool, limit: float,
                 converged: bool):
        self.__dict__.update(scale=scale, radii=radii, values=values, strictly_increasing=strictly_increasing,
                             growth_factor=growth_factor, diverges=diverges, limit=limit, converged=converged)


def certify_dp_densities(log_density_a: Callable[[float], float], log_density_b: Callable[[float], float],
                         eps: float, points: Sequence[float]) -> DpCertificate:
    """Largest |log_density_a(x) - log_density_b(x)| over ``points`` checked
    against eps; the log densities may omit a constant they share.

    A pointwise density-ratio bound implies the measure-level privacy
    inequality, so passing is sufficient evidence once the points hold the
    supremum of the log ratio, as the kinks of
    :func:`nonneg_dp.mechanisms.adjacent_densities` do.  It certifies those
    ideal densities, not the doubles that ``sample_mechanism`` returns: a
    double one query value releases can be one its neighbour never does
    (Mironov, CCS 2012).
    """
    _require_nonnegative("claimed level", eps)
    points = [float(x) for x in points]
    if not points:
        raise ValueError("points must be non-empty")
    ratios = [abs(log_density_a(x) - log_density_b(x)) for x in points]
    if not all(math.isfinite(r) for r in ratios):
        raise ValueError("log densities must be finite at the points")
    max_log_ratio = max(ratios)
    return DpCertificate(
        epsilon_claimed=eps,
        max_log_ratio_observed=max_log_ratio,
        grid_description=f"{len(points)} points in [{min(points):g}, {max(points):g}]",
        passed=max_log_ratio <= eps + max(_CERT_SLACK, 4 * math.ulp(eps)),
    )


def mc_bias(spec: MechanismSpec, q: float, n: int, seed: int) -> McEstimate:
    """Empirical bias from n seeded draws, with its standard error.

    Both equal numpy's ``mean`` and ``std(ddof=1)/sqrt(n)`` of the draws bit
    for bit, and the draws array is the only large one held.  Where a sum
    overflows (draws near the top of the float range, as at b = 1e300) or a
    squared deviation or the mean underflows (draws below about 1e-154, where
    the square of a deviation leaves the normal range), both are taken again
    over the draws scaled by an exact power of two and scaled back."""
    n = _require_integer("n", n)
    if n < 100:
        raise ValueError("need at least 100 draws for a standard error")
    draws = sample_mechanism(spec, q, RngState(seed), size=n)
    try:
        with np.errstate(over="ignore", under="raise"):
            mean, stderr = _mean_and_stderr(draws, n)
    except FloatingPointError:   # underflow: the pass lost bits, perhaps all of them
        mean = stderr = math.nan
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        # The first pass overwrote the draws; the seed gives them again.
        draws = sample_mechanism(spec, q, RngState(seed), size=n)
        exponent = math.frexp(max(float(draws.max()), -float(draws.min())))[1]
        mean, stderr = _mean_and_stderr(np.ldexp(draws, -exponent, out=draws), n)
        mean, stderr = math.ldexp(mean, exponent), math.ldexp(stderr, exponent)
    return McEstimate(mean=mean - q, stderr=stderr, n=n, seed=seed, warning=spec.warning)


def _mean_and_stderr(draws: np.ndarray, n: int) -> tuple[float, float]:
    """np.mean's and np.std's steps, summing once; overwrites ``draws``."""
    mean = np.add.reduce(draws, keepdims=True) / n
    np.square(np.subtract(draws, mean, out=draws), out=draws)
    return float(mean[0]), math.sqrt(float(np.add.reduce(draws)) / (n - 1)) / math.sqrt(n)


def coupling_bias_lower_bound(base: LaplaceDist, omega_grid: int) -> float:
    """Mean gap between the restricted and base quantiles on a shared uniform grid.

    Both inverse cdfs are evaluated at the same omega; the restricted quantile
    must dominate pointwise (anything else is an implementation bug), and the
    trapezoidal mean of the gap estimates E[restricted] - E[base], the
    restriction bias, which is strictly positive.  ``omega_grid``, the
    number of grid points, is an integer of at least 100.
    """
    omega_grid = _require_integer("omega grid", omega_grid)
    if omega_grid < 100:
        raise ValueError("omega grid too coarse")
    omega = np.arange(1, omega_grid + 1, dtype=float) / (omega_grid + 1)
    gap = restricted_quantile(base, omega) - laplace_quantile(base, omega)
    if np.any(gap < 0.0):
        raise RuntimeError("dominance coupling broken")
    return float(np.trapezoid(gap, omega))


def _truncated_exp_moment(b: float, radius: float) -> float:
    """E[exp(noise)] for Laplace noise of scale b truncated to [-T, T], in closed
    form through expm1: (e^r - 1)/(2(b-1)) over [0, T], with r = T((b-1)/b) <= T,
    or T/2 at b = 1, plus (1 - e^(-T(1+b)/b))/(2(1+b)) over [-T, 0].  From r = 700
    on, the division is taken in the exponent, where e^r alone overflows first."""
    rate = radius * ((b - 1.0) / b)
    try:
        right = (radius / 2.0 if b == 1.0 else math.expm1(rate) / (2.0 * (b - 1.0)) if rate < 700.0
                 else math.exp(rate - math.log(2.0 * (b - 1.0))))
    except OverflowError:
        raise ValueError(f"truncated moment overflows at radius {radius:g}") from None
    moment = right - math.expm1(-radius * (1.0 + b) / b) / (2.0 * (1.0 + b))
    if moment == 0.0:
        raise ValueError(f"truncated moment underflows at radius {radius:g}")
    return moment


def check_divergence_log_laplace(b: float, radii: Sequence[float]) -> DivergenceReport:
    """Witness the finite/infinite dichotomy of E[exp(noise)] at scale b from
    the truncated moment (1/2b) * integral of exp(x)exp(-|x|/b) over [-T, T]
    at each radius T, read as :class:`DivergenceReport` describes.  Every
    radius must be finite and > 0; one whose moment overflows or underflows
    to 0 is a ValueError naming it.  Radii (10, ..., 160) flag b = 1."""
    _require_positive("scale", b)
    radii = tuple(float(r) for r in radii)
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError(f"radii must be finite and > 0, got {radii}")
    if len(radii) < 2 or any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing, at least two")
    values = tuple(_truncated_exp_moment(b, r) for r in radii)
    increasing = all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    growth = values[-1] / values[0]
    limit = log_laplace_mgf(b, 1.0)
    converged = math.isfinite(limit) and abs(values[-1] - limit) <= _CONVERGENCE_TOL
    return DivergenceReport(
        scale=b,
        radii=radii,
        values=values,
        strictly_increasing=increasing,
        growth_factor=growth,
        diverges=increasing and growth >= _DIVERGENCE_GROWTH,
        limit=limit,
        converged=converged,
    )
