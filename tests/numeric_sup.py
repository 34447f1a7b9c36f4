"""Grid proxy for the supremum over q >= 0 of a bias magnitude, used by the
bias and acceptance tests."""

import math
from typing import Callable, NamedTuple

import numpy as np


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
