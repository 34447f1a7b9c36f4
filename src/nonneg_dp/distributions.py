"""Laplace distribution primitives and seeded random streams.

Everything in this package ultimately reduces to the Laplace density

    f_q(x) = (1/2b) * exp(-|x - q|/b)

with location q and scale b > 0, plus its exponential transform (the
log-Laplace law used by multiplicative mechanisms).  This module provides
the exact quantile, the moment generating function of exp-transformed
Laplace noise, and deterministic inverse-transform sampling.  The density
and cdf have no function of their own: the restricted quadrature of
:mod:`nonneg_dp.bias`, the log densities of
:func:`nonneg_dp.mechanisms.adjacent_densities` and F(0) in
``mechanisms._mass_below_zero`` each write out the closed form they use.

Sampling draws exactly one uniform variate per Laplace draw.  That accounting
is load-bearing: the quantile-coupling construction in :mod:`nonneg_dp.verify`
relies on the sample being a deterministic function of a single uniform.
The samplers, the plain mechanism's included, are in :mod:`nonneg_dp.mechanisms`.

The quantile takes a float (Python or numpy scalar) or an array in (0, 1),
checked by ``_quantile``, which the restricted quantile shares.  Its float form
``_scalar_quantile`` and branch-free block form ``_quantile_in_place`` (one
log per point) apply the same ``np.log`` and agree bit for bit; samplers
call them directly.  The public quantile never writes into its input.

``_integrate`` is the package's one quadrature; it imports :mod:`nonneg_dp.quadpack`
when it runs.
``_even_grid`` is its one evenly spaced grid, built without numpy.
``_require_positive`` and ``_require_nonnegative`` are the package's range checks,
``_require_integer`` its integer check.
``_Value`` is the base of the package's frozen value types.

``np`` is numpy, loaded on its first attribute access, so a process that
only evaluates closed forms never executes it; the package's other modules
take ``np`` from here.  On Python 3.10 and 3.11 that first load is not
thread-safe: a program whose first use of the package may come from several
threads at once should ``import numpy`` itself first.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
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
    "laplace_quantile",
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


def _require_integer(name: str, value) -> int:
    """``value`` as an int by ``operator.index``: numpy integers pass, 1.5 does not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class _Value:
    """Base of a frozen value type: equality, hash and repr over the fields
    named in ``__match_args__``, as tuples in that order, and no attribute
    can be assigned or deleted.  A subclass's ``__init__`` checks its
    arguments, then stores every field with one ``self.__dict__.update``;
    ``copy.copy`` and pickling restore ``__dict__`` without calling it."""

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LaplaceDist(_Value):
    """Laplace law with mean ``location`` (the true query value) and scale ``scale``."""

    location: float
    scale: float
    __match_args__ = ("location", "scale")

    def __init__(self, location: float, scale: float):
        if not math.isfinite(location):
            raise ValueError("location must be finite")
        _require_positive("scale", scale)
        self.__dict__.update(location=location, scale=scale)


class RngState:
    """Deterministic uniform stream.

    Built on a seeded :class:`numpy.random.SeedSequence`; the same seed always
    reproduces the same stream bit-for-bit.  The seed is an integer in
    [0, 2^64), a Python or numpy one; any other value is a ValueError.  A
    state is single-owner: never share one across concurrent tasks, give
    each its own seed instead.
    """

    __match_args__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = _require_integer("seed", seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed!r})"

    def uniform(self, size: int | None = None, out: np.ndarray | None = None):
        """One uniform draw in (0, 1), or an array of ``size`` draws, written
        into ``out`` (of ``size`` elements) when it is given."""
        # Generator.random() is in [0, 1): an exact 0 becomes _TINY, not a second draw.
        if size is None:
            u = self._gen.random()
            return float(u) if u > 0.0 else _TINY
        u = self._gen.random(size, out=out)
        return np.maximum(u, _TINY, out=u)


def laplace_quantile(dist: LaplaceDist, p):
    """Closed-form inverse cdf, valid for p in the open interval (0, 1)."""
    return _quantile(_scalar_quantile, _quantile_in_place, dist.location, dist.scale, p)


def _quantile(scalar: Callable, in_place: Callable, loc: float, b: float, p):
    """``scalar(loc, b, p)`` at a float p, else ``in_place`` over a float array
    copy of p, once every p is in (0, 1), an array by one min and one max
    reduction, which nan fails; else ValueError("probability out of range")."""
    if isinstance(p, float):
        if 0.0 < p < 1.0:
            return scalar(loc, b, p)
    else:
        p = np.array(p, dtype=float)
        if p.size == 0 or (0.0 < p.min() and p.max() < 1.0):
            out = in_place(loc, b, p, np.empty(p.shape))
            return out if out.ndim else float(out)
    raise ValueError("probability out of range")


def _scalar_quantile(loc: float, b: float, p: float) -> float:
    """Laplace (loc, b) quantile at one p in (0, 1) as a Python float, unchecked."""
    if p < 0.5:
        return float(loc + b * np.log(2.0 * p))
    return float(loc - b * np.log(2.0 * (1.0 - p)))


def _quantile_in_place(loc: float, b: float, p: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``p``, all in (0, 1), with the Laplace
    (loc, b) quantile at each point, using ``scratch`` (same shape) for the
    log term; returns ``p``.  Nothing is checked or allocated.

    It computes loc - copysign(b, p - 0.5) log(2 min(p, 1 - p)), one log per
    point, which equals both branches of :func:`_scalar_quantile` bit for
    bit (p = 0.5 takes the upper: p - 0.5 = +0.0).
    """
    np.subtract(1.0, p, out=scratch)
    np.log(np.multiply(np.minimum(p, scratch, out=scratch), 2.0, out=scratch), out=scratch)
    np.copysign(b, np.subtract(p, 0.5, out=p), out=p)
    np.multiply(p, scratch, out=p)
    return np.subtract(loc, p, out=p)


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


def _even_grid(lo: float, hi: float, points: int) -> list[float]:
    """``points`` >= 2 evenly spaced values from lo to hi, numpy's linear grid
    bit for bit without loading numpy: i*step + lo, or i/div*delta + lo where
    the step underflows to 0, and hi last."""
    div = points - 1
    delta = hi - lo
    step = delta / div
    if step:
        return [i * step + lo for i in range(div)] + [hi]
    return [i / div * delta + lo for i in range(div)] + [hi]


def _integrate(integrand: Callable[[float], float], lo: float, hi: float,
               points: list[float]) -> float:
    """The package's one quadrature: QUADPACK's adaptive Gauss-Kronrod
    quadrature of ``integrand`` over [lo, hi] (:mod:`nonneg_dp.quadpack`),
    split at the ``points`` inside it, with epsabs 1e-12, epsrel 1e-10 and
    at most 400 subintervals, or twice as many as the points inside
    (duplicates counted), if more.  It is QAGP over the distinct points
    inside, which may be none, and equals ``scipy.integrate.quad`` given
    them as ``points`` bit for bit.
    ValueError("integrand not integrable") when the value is not finite,
    when QUADPACK's status ier is 5 (probably divergent: its error estimate
    means nothing), or when ier is any other non-zero status and the error
    estimate is above max(1e-10, 1e-8|value|).  An exception or warning of
    the integrand, such as OverflowError, reaches the caller."""
    from .quadpack import qagp

    inside = [x for x in points if lo < x < hi]
    fit = qagp(integrand, lo, hi, sorted(set(inside)), 1e-12, 1e-10, max(400, 2 * len(inside)))
    tolerance = max(1e-10, 1e-8 * abs(fit.value))
    if not math.isfinite(fit.value) or fit.ier == 5 or (fit.ier and fit.abserr > tolerance):
        raise ValueError("integrand not integrable")
    return fit.value
