"""Numerical and statistical verification of mechanism guarantees.

Privacy is certified through density ratios: if two output densities never
differ by more than a factor exp(eps) pointwise, the event-level privacy
inequality follows by integration, so a grid supremum of |log density ratio|
is a sufficient certificate for mechanisms with closed-form densities.

Bias claims are validated three ways: closed form, seeded Monte Carlo with
standard errors, and a quantile coupling.  The coupling evaluates the base
and restricted inverse cdfs on one shared uniform grid, where the restricted
quantile dominates the base quantile pointwise; the mean gap then equals the
restriction bias, witnessing its strict positivity constructively.

The divergence check for multiplicative mechanisms watches truncated
integrals of exp(x) against the Laplace weight grow without bound once the
noise scale reaches 1, instead of trusting sample means of a heavy-tailed
law to misbehave reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .distributions import (LaplaceDist, RngState, _integrate, _require_nonnegative, _require_positive,
                            laplace_quantile, log_laplace_mgf, np)
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

# Slack on density-ratio certificates, absorbing float rounding in the log.
_CERT_SLACK = 1e-9
# Overall growth of the truncated moments that flags divergence at scale >= 1.
_DIVERGENCE_GROWTH = 10.0
# Distance from the closed-form moment within which scale < 1 counts as converged.
_CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class DpCertificate:
    epsilon_claimed: float
    max_log_ratio_observed: float
    grid_description: str
    passed: bool


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo bias estimate: mean of draws minus the true value."""

    mean: float
    stderr: float
    n: int
    seed: int
    warning: str | None = None


@dataclass(frozen=True)
class DivergenceReport:
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


def certify_dp_densities(density_a: Callable, density_b: Callable, eps: float,
                         grid: Sequence[float]) -> DpCertificate:
    """Grid supremum of |log(density_a/density_b)| checked against eps; each
    density takes the grid array and returns its values there.

    A pointwise density-ratio bound implies the measure-level privacy
    inequality, so passing is sufficient (not necessary) evidence.
    """
    _require_nonnegative("claimed level", eps)
    xs = np.asarray(grid, dtype=float)
    if xs.size == 0:
        raise ValueError("grid must be non-empty")
    fa, fb = np.asarray(density_a(xs), dtype=float), np.asarray(density_b(xs), dtype=float)
    if np.any(fa <= 0) or np.any(fb <= 0):
        raise ValueError("densities must be strictly positive on the grid")
    max_log_ratio = float(np.max(np.abs(np.log(fa) - np.log(fb))))
    return DpCertificate(
        epsilon_claimed=eps,
        max_log_ratio_observed=max_log_ratio,
        grid_description=f"{xs.size} points in [{xs.min():g}, {xs.max():g}]",
        passed=max_log_ratio <= eps + _CERT_SLACK,
    )


def mc_bias(spec: MechanismSpec, q: float, n: int, seed: int) -> McEstimate:
    """Empirical bias from n seeded draws, with its standard error.

    Both equal numpy's ``mean`` and ``std(ddof=1)/sqrt(n)`` of the draws bit
    for bit, and the draws array is the only large one held.  Where a sum
    overflows (draws near the top of the float range, as at b = 1e300), both
    are taken again over the draws scaled by an exact power of two and scaled
    back."""
    if n < 100:
        raise ValueError("need at least 100 draws for a standard error")
    draws = sample_mechanism(spec, q, RngState(seed), size=n)
    with np.errstate(over="ignore"):
        mean, stderr = _mean_and_stderr(draws, n)
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
    restriction bias, which is strictly positive.
    """
    if omega_grid < 100:
        raise ValueError("omega grid too coarse")
    omega = np.arange(1, omega_grid + 1, dtype=float) / (omega_grid + 1)
    gap = restricted_quantile(base, omega) - laplace_quantile(base, omega)
    if np.any(gap < 0.0):
        raise RuntimeError("dominance coupling broken")
    return float(np.trapezoid(gap, omega))


def _truncated_exp_moment(b: float, radius: float) -> float:
    """Quadrature of E[exp(noise)] for Laplace noise of scale b, truncated to
    [-radius, radius]; ValueError once exp(radius) overflows."""
    try:
        return _integrate(lambda x: math.exp(x) * math.exp(-abs(x) / b) / (2.0 * b),
                          -radius, radius, [0.0])
    except OverflowError:
        raise ValueError(f"truncated moment overflows at radius {radius:g}") from None


def check_divergence_log_laplace(b: float, radii: Sequence[float]) -> DivergenceReport:
    """Witness the finite/infinite dichotomy of E[exp(noise)] at scale b.

    Computes the truncated moment (1/2b) * integral of exp(x)exp(-|x|/b) over
    [-T, T] for each radius T.  For b >= 1 the values must increase strictly;
    divergence is flagged when the overall growth reaches
    ``_DIVERGENCE_GROWTH``.  For b < 1 the values approach the closed-form
    moment and ``converged`` reports whether the last radius got within
    ``_CONVERGENCE_TOL``.  Every radius must be finite and > 0, and one whose
    moment overflows is a ValueError naming it.  At b = 1 the growth is only
    linear in T (see :class:`DivergenceReport`), so radii (10, ..., 160) flag it.
    """
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
