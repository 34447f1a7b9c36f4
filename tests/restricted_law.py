"""Closed forms of the Laplace and restricted laws, the densities and cdfs
that the sampler, coupling, certificate and acceptance tests compare draws,
quantiles and log ratios against, and ``pointwise``, which takes a
one-point density or cdf over an array.

The package has no public density or cdf: these are written out here with
the arithmetic its restricted quadrature applies (``np.exp``, then the
divisions in the same order), so a reference value never comes from the
code under test."""

import math

import numpy as np

from nonneg_dp.distributions import LaplaceDist
from nonneg_dp.mechanisms import _mass_below_zero


def laplace_pdf(dist: LaplaceDist, x: float) -> float:
    """Density (1/2b) exp(-|x - q|/b); strictly positive for all finite x."""
    if not math.isfinite(x):
        raise ValueError("non-finite input")
    return float(np.exp(-abs(x - dist.location) / dist.scale)) / (2.0 * dist.scale)


def laplace_cdf(dist: LaplaceDist, x: float) -> float:
    """Exact cdf: (1/2)e^{(x-q)/b} below the mean, 1 - (1/2)e^{-(x-q)/b} above."""
    if not math.isfinite(x):
        raise ValueError("non-finite input")
    z = (x - dist.location) / dist.scale
    return 0.5 * float(np.exp(z)) if z < 0 else 1.0 - 0.5 * float(np.exp(-z))


def pointwise(func, base: LaplaceDist, x):
    """func(base, v) at each point v of ``x``: a float for a scalar, else an
    array of ``x``'s shape."""
    if isinstance(x, float):
        return func(base, x)
    arr = np.asarray(x, dtype=float)
    out = np.array([func(base, v) for v in arr.ravel().tolist()], dtype=float).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def restricted_pdf(base: LaplaceDist, x):
    """Density of the renormalized law: f(x)/(1 - F(0)) on [0, inf), zero below."""
    normalizer = 1.0 - _mass_below_zero(base.location, base.scale)

    def density(base, v):
        value = laplace_pdf(base, v) / normalizer
        return 0.0 if v < 0 else value

    return pointwise(density, base, x)


def restricted_cdf(base: LaplaceDist, t):
    """cdf of the base law renormalized to [0, inf):
    (F(t) - F(0)) / (1 - F(0)) for t >= 0, zero below."""
    mass_below_zero = _mass_below_zero(base.location, base.scale)

    def cdf(base, v):
        value = (laplace_cdf(base, max(v, 0.0)) - mass_below_zero) / (1.0 - mass_below_zero)
        return 0.0 if v < 0 else value

    return pointwise(cdf, base, t)
