"""Laplace distribution primitives and seeded random streams.

Everything in this package ultimately reduces to the Laplace density

    f_q(x) = (1/2b) * exp(-|x - q|/b)

with location q and scale b > 0, plus its exponential transform (the
log-Laplace law used by multiplicative mechanisms).  This module provides
the exact pdf/cdf/quantile, the moment generating function of exp-transformed
Laplace noise, and deterministic inverse-transform sampling.

Sampling draws exactly one uniform variate per Laplace draw.  That accounting
is load-bearing: the quantile-coupling construction in :mod:`nonneg_dp.verify`
relies on the sample being a deterministic function of a single uniform.

Each per-point function takes a float (Python or numpy scalar) or an array.
A float skips numpy's array machinery but applies the same ``np.log`` and
``np.exp``, so a scalar result is a Python ``float`` equal bit for bit to the
array result at the same point: a scalar draw equals the batched draw at the
same uniform.  The batched quantile takes one log per draw and is
branch-free; the public one never writes into its input, and the batched
sampler runs the same steps in place over its output blocks.

``_integrate`` is the package's one quadrature; it imports scipy when it runs.
``_require_positive`` and ``_require_nonnegative`` are the package's range checks.

``np`` is numpy, loaded on its first attribute access, so a process that
only evaluates closed forms never executes it; the package's other modules
take ``np`` from here.  On Python 3.10 and 3.11 that first load is not
thread-safe: a program whose first use of the package may come from several
threads at once should ``import numpy`` itself first.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field
from typing import Callable


def _lazy_numpy():
    """numpy as loaded so far, else a module that executes it on first use;
    ModuleNotFoundError when it is not installed."""
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("numpy")   # None also when imports of numpy are blocked
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

__all__ = [
    "LaplaceDist",
    "RngState",
    "laplace_pdf",
    "laplace_cdf",
    "laplace_quantile",
    "sample_laplace",
    "log_laplace_mgf",
]

# Smallest uniform admitted by the inverse transform; keeps quantile finite
# while preserving the one-draw-per-sample contract.
_TINY = sys.float_info.min


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class LaplaceDist:
    """Laplace law with mean ``location`` (the true query value) and scale ``scale``."""

    location: float
    scale: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError("location must be finite")
        _require_positive("scale", self.scale)


@dataclass
class RngState:
    """Deterministic uniform stream.

    Built on a seeded :class:`numpy.random.SeedSequence`; the same seed always
    reproduces the same stream bit-for-bit.  A state is single-owner: never
    share one across concurrent tasks, give each its own seed instead.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        self.seed = int(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def uniform(self, size: int | None = None, out: np.ndarray | None = None):
        """One uniform draw in (0, 1), or an array of ``size`` draws, written
        into ``out`` (of ``size`` elements) when it is given."""
        # Generator.random() yields [0, 1); nudge an exact 0 to the smallest
        # positive double rather than consuming a second draw.
        if size is None:
            u = self._gen.random()
            return float(u) if u > 0.0 else _TINY
        u = self._gen.random(size, out=out)
        return np.maximum(u, _TINY, out=u)


def _check_finite(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite input")
    return arr


def laplace_pdf(dist: LaplaceDist, x):
    """Density (1/2b) exp(-|x - q|/b); strictly positive for all finite x."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite input")
        return float(np.exp(-abs(x - dist.location) / dist.scale)) / (2.0 * dist.scale)
    arr = _check_finite(x)
    out = np.exp(-np.abs(arr - dist.location) / dist.scale) / (2.0 * dist.scale)
    return out if arr.ndim else float(out)


def laplace_cdf(dist: LaplaceDist, x):
    """Exact cdf: (1/2)e^{(x-q)/b} below the mean, 1 - (1/2)e^{-(x-q)/b} above."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite input")
        z = (x - dist.location) / dist.scale
        return 0.5 * float(np.exp(z)) if z < 0 else 1.0 - 0.5 * float(np.exp(-z))
    arr = _check_finite(x)
    z = (arr - dist.location) / dist.scale
    out = np.where(z < 0, 0.5 * np.exp(np.minimum(z, 0.0)),
                   1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))
    return out if arr.ndim else float(out)


def laplace_quantile(dist: LaplaceDist, p):
    """Closed-form inverse cdf, valid for p in the open interval (0, 1)."""
    if isinstance(p, float):
        if p <= 0.0 or p >= 1.0:
            raise ValueError("probability out of range")
        if p < 0.5:
            return float(dist.location + dist.scale * np.log(2.0 * p))
        return float(dist.location - dist.scale * np.log(2.0 * (1.0 - p)))
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("probability out of range")
    out = _quantile_in_place(dist, arr.copy(), np.empty(arr.shape))
    return out if arr.ndim else float(out)


def _quantile_in_place(dist: LaplaceDist, p: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``p``, all in (0, 1), with the quantile of
    ``dist`` at each point, using ``scratch`` (same shape) for the log term;
    returns ``p``.  Nothing is checked or allocated: the caller vouches for
    the range.

    It computes loc - copysign(b, p - 0.5) log(2 min(p, 1 - p)), one log per
    point, which equals both scalar branches of :func:`laplace_quantile` bit
    for bit (p = 0.5 takes the upper: p - 0.5 = +0.0).
    """
    np.subtract(1.0, p, out=scratch)
    np.log(np.multiply(np.minimum(p, scratch, out=scratch), 2.0, out=scratch), out=scratch)
    np.copysign(dist.scale, np.subtract(p, 0.5, out=p), out=p)
    np.multiply(p, scratch, out=p)
    return np.subtract(dist.location, p, out=p)


def sample_laplace(dist: LaplaceDist, rng: RngState, size: int | None = None):
    """Inverse-transform sample; consumes exactly one uniform per draw."""
    return laplace_quantile(dist, rng.uniform(size))


def log_laplace_mgf(b: float, k: float) -> float:
    """E[e^{k L_b}] for zero-mean Laplace noise L_b.

    Equals 1/(1 - k^2 b^2) when |k| b < 1 and +inf otherwise.  The infinity is
    an in-band sentinel: the finite/infinite dichotomy is the result callers
    branch on, not an error condition.
    """
    _require_positive("scale", b)
    if abs(k) * b >= 1.0:
        return math.inf
    return 1.0 / (1.0 - (k * b) ** 2)


def _integrate(integrand: Callable[[float], float], lo: float, hi: float,
               points: list[float]) -> float:
    """The package's one quadrature: adaptive quad of ``integrand`` over [lo, hi],
    split at the ``points`` inside it (epsabs 1e-12, epsrel 1e-10, 400
    subintervals or twice as many as points, if more).  QUADPACK's status is
    read from quad's return value, whose fourth element is its message when
    anything went wrong; no warning filter is touched, so a warning of the
    integrand reaches the caller.
    ValueError("integrand not integrable") when the value is not finite, when
    the message calls the integral probably divergent, or when there is a
    message and the error estimate is above max(1e-10, 1e-8|value|).
    An exception of the integrand, such as OverflowError, propagates."""
    from scipy import integrate

    breakpoints = [x for x in points if lo < x < hi]
    value, abserr, _, *trouble = integrate.quad(
        integrand, lo, hi, points=breakpoints or None, epsabs=1e-12, epsrel=1e-10,
        limit=max(400, 2 * len(breakpoints)), full_output=1)
    # QUADPACK's ier = 5, whose error estimate means nothing.
    divergent = bool(trouble) and trouble[0].startswith("The integral is probably divergent")
    tolerance = max(1e-10, 1e-8 * abs(value))
    if not math.isfinite(value) or divergent or (trouble and abserr > tolerance):
        raise ValueError("integrand not integrable")
    return value
