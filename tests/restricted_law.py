"""Closed forms of the restricted law, the density and cdf that the sampler,
coupling, certificate and acceptance tests compare draws, quantiles and log
ratios against, and ``pointwise``, which takes the library's one-point
Laplace pdf or cdf over an array."""

import numpy as np

from nonneg_dp.distributions import LaplaceDist, laplace_cdf, laplace_pdf
from nonneg_dp.mechanisms import _mass_below_zero


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
