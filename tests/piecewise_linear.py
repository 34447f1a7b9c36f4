"""A nonnegative piecewise-linear post-processor with many kinks, and the
exact hinge-sum form of its mean under Laplace noise, used by the mechanism
and bias tests."""

import bisect
import math


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
