"""Reference forms the tests check the package against, each written once:
the Laplace and restricted laws, means by scipy quadrature, biases and log
ratios by mpmath, the truncated exp moment, and custom post-processors.

No reference value comes from the code under test: this module imports the
standard library, numpy, scipy and mpmath, and nothing from ``nonneg_dp``.
A law is any object with ``location`` and ``scale``, such as a ``LaplaceDist``.
"""

import bisect
import math
from typing import Callable, NamedTuple

import mpmath
import numpy as np
from scipy import integrate


# The densities and cdfs apply the arithmetic of the package's restricted
# quadrature: np.exp, then the divisions in the same order.
def laplace_pdf(dist, x: float) -> float:
    """Density (1/2b) exp(-|x - q|/b); strictly positive for all finite x."""
    if not math.isfinite(x):
        raise ValueError("non-finite input")
    return float(np.exp(-abs(x - dist.location) / dist.scale)) / (2.0 * dist.scale)


def laplace_cdf(dist, x: float) -> float:
    """Exact cdf: (1/2)e^{(x-q)/b} below the mean, 1 - (1/2)e^{-(x-q)/b} above."""
    if not math.isfinite(x):
        raise ValueError("non-finite input")
    z = (x - dist.location) / dist.scale
    return 0.5 * float(np.exp(z)) if z < 0 else 1.0 - 0.5 * float(np.exp(-z))


def pointwise(func, base, x):
    """func(base, v) at each point v of ``x``: a float for a scalar, else an
    array of ``x``'s shape."""
    if isinstance(x, float):
        return func(base, x)
    arr = np.asarray(x, dtype=float)
    out = np.array([func(base, v) for v in arr.ravel().tolist()], dtype=float).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _mass_below_zero(base) -> float:
    """F(0) = exp(-q/b)/2, the mass restriction removes; below 0 the law's
    1 - F(0) cancels, so a location q < 0 is a ValueError."""
    q = base.location
    if q < 0:
        raise ValueError(f"restricted law needs a location >= 0, got {q}")
    return 0.5 * float(np.exp(-q / base.scale))


def restricted_pdf(base, x):
    """Density of the renormalized law: f(x)/(1 - F(0)) on [0, inf), zero below."""
    normalizer = 1.0 - _mass_below_zero(base)

    def density(base, v):
        value = laplace_pdf(base, v) / normalizer
        return 0.0 if v < 0 else value

    return pointwise(density, base, x)


def restricted_cdf(base, t):
    """cdf of the base law renormalized to [0, inf):
    (F(t) - F(0)) / (1 - F(0)) for t >= 0, zero below."""
    mass_below_zero = _mass_below_zero(base)

    def cdf(base, v):
        value = (laplace_cdf(base, max(v, 0.0)) - mass_below_zero) / (1.0 - mass_below_zero)
        return 0.0 if v < 0 else value

    return pointwise(cdf, base, t)


def ramp_mean_quad(q: float, b: float, alpha: float = 0.0) -> float:
    """E[max(q + Z - alpha, 0)] for Laplace Z of scale b, by scipy's quad."""
    value, _ = integrate.quad(
        lambda x: max(x - alpha, 0.0) * math.exp(-abs(x - q) / b) / (2 * b),
        q - 45 * b, q + 45 * b, points=sorted({q, alpha}), limit=300)
    return value


def restricted_mean_quad(base) -> float:
    """Mean of the restricted law, by scipy's quad of x times its density."""
    q, b = base.location, base.scale
    mean, _ = integrate.quad(lambda x: x * restricted_pdf(base, x), 0.0, q + 45 * b, points=[q], limit=300)
    return mean


def mp_bias(variant: str, q: float, b: float, alpha: float = 0.0):
    """E[output] - q at 50 digits for the variant named as ``Variant`` values
    are: 0 (plain), the translated ramp by alpha (post-processed),
    (q + b)/(2e^(q/b) - 1) (restricted), or q b^2/(1 - b^2) (multiplicative)."""
    with mpmath.workdps(50):
        q, b, alpha = mpmath.mpf(q), mpmath.mpf(b), mpmath.mpf(alpha)
        if variant == "plain":
            return mpmath.mpf(0)
        if variant == "restricted":
            return (q + b) / (2 * mpmath.exp(q / b) - 1)
        if variant == "multiplicative":
            return q * b**2 / (1 - b**2)
        if q >= alpha:
            return b / 2 * mpmath.exp((alpha - q) / b) - alpha
        return b / 2 * mpmath.exp((q - alpha) / b) - q


def mp_softplus_bias(q: float, b: float):
    """E[softplus(q + Z)] - q for Laplace Z of scale b, by mpmath's quad at 30 digits."""
    with mpmath.workdps(30):
        q_, b_ = mpmath.mpf(q), mpmath.mpf(b)

        def excess(z):
            x = q_ + z
            value = mpmath.log1p(mpmath.exp(x)) if x < 0 else x + mpmath.log1p(mpmath.exp(-x))
            return (value - q_) * mpmath.exp(-abs(z) / b_) / (2 * b_)

        return mpmath.quad(excess, [-mpmath.inf, -q_, 0, mpmath.inf])


def exact_log_ratio(delta: float, b: float, restricted: bool) -> float:
    """sup of the adjacent log density ratio at the doubles delta and b, 50
    digits: s = delta/b, or s + log(2 - e^(-s)) for the restricted law."""
    with mpmath.workdps(50):
        s = mpmath.mpf(delta) / mpmath.mpf(b)
        return float(s + mpmath.log(2 - mpmath.exp(-s)) if restricted else s)


def truncated_exp_moment(b: float, radius: float) -> float:
    """E[exp(Z)] for Laplace Z of scale b truncated to [-T, T]: at b = 1 it
    grows linearly, (1/2)((1 - e^(-2T))/2 + T)."""
    if b == 1.0:
        return 0.5 * ((1 - math.exp(-2 * radius)) / 2 + radius)
    return 0.5 * (-math.expm1(-radius * (1 + b) / b) / (1 + b)
                  - math.expm1(-radius * (1 - b) / b) / (1 - b))


def softplus(x: float) -> float:
    """log(1 + e^x), written so that neither branch overflows."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def wavy_ramp(knot_count: int):
    """The linear interpolant of max(0, x + 0.3 sin 3x) at ``knot_count``
    evenly spaced knots on [-6, 10], constant below -6 and of slope 1 beyond 10.

    Returns (f, knots, weights, floor): f = floor + sum_i weights[i] max(x - knots[i], 0).
    """
    knots = [-6.0 + 16.0 * i / (knot_count - 1) for i in range(knot_count)]
    values = [max(0.0, x + 0.3 * math.sin(3.0 * x)) for x in knots]

    def f(x: float) -> float:
        if x >= knots[-1]:
            return values[-1] + (x - knots[-1])
        if x <= knots[0]:
            return values[0]
        j = bisect.bisect_right(knots, x) - 1
        return values[j] + (values[j + 1] - values[j]) * (x - knots[j]) / (knots[j + 1] - knots[j])

    slopes = [0.0] + [(values[j + 1] - values[j]) / (knots[j + 1] - knots[j])
                      for j in range(knot_count - 1)] + [1.0]
    weights = [slopes[i + 1] - slopes[i] for i in range(knot_count)]
    return f, knots, weights, values[0]


def hinge_sum_bias(knots, weights, floor: float, q: float, b: float) -> float:
    """E[f(q + Z)] - q for Laplace Z of scale b, from E[max(m + Z, 0)], which is
    m + (b/2)e^(-m/b) for m >= 0 and (b/2)e^(m/b) below."""
    def hinge_mean(m: float) -> float:
        return m + 0.5 * b * math.exp(-m / b) if m >= 0 else 0.5 * b * math.exp(m / b)

    return floor + sum(w * hinge_mean(q - x) for w, x in zip(weights, knots)) - q


class NumericSup(NamedTuple):
    """Grid maximum of |bias| plus where it occurred.

    ``argmax_q`` is math.inf when a caller-supplied q->inf limit wins the
    comparison.  ``truncated`` records that the supremum over the unbounded
    domain was only sampled up to q_max (plus the limit, when given).
    """

    value: float
    argmax_q: float
    truncated: bool


def max_abs_bias_numeric(bias_fn: Callable[[float], float], q_max: float,
                         grid_points: int, limit: float | None = None) -> NumericSup:
    """Proxy for sup over q >= 0 of |bias_fn(q)|: a grid on [0, q_max] plus an
    optional analytic q->inf limit supplied by the caller."""
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if not q_max > 0:
        raise ValueError("q_max must be positive")
    grid = np.linspace(0.0, q_max, grid_points)
    magnitudes = np.array([abs(bias_fn(float(q))) for q in grid])
    best = int(np.argmax(magnitudes))
    value, argmax = float(magnitudes[best]), float(grid[best])
    if limit is not None and abs(limit) > value:
        value, argmax = abs(limit), math.inf
    return NumericSup(value, argmax, truncated=True)
