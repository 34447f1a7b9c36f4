"""cdf of the restricted law, the closed form that the sampler, coupling and
acceptance tests compare draws and quantiles against."""

import numpy as np

from nonneg_dp.distributions import LaplaceDist, laplace_cdf
from nonneg_dp.mechanisms import _mass_below_zero


def restricted_cdf(base: LaplaceDist, t):
    """cdf of the base law renormalized to [0, inf):
    (F(t) - F(0)) / (1 - F(0)) for t >= 0, zero below."""
    mass_below_zero = _mass_below_zero(base)
    arr = np.asarray(t, dtype=float)
    out = np.where(
        arr < 0, 0.0,
        (laplace_cdf(base, np.maximum(arr, 0.0)) - mass_below_zero) / (1.0 - mass_below_zero),
    )
    return float(out) if arr.ndim == 0 else out
