"""Privacy mechanism construction: plain, post-processed, restricted, multiplicative.

Four ways to release a nonnegative query value q under epsilon-differential
privacy, all built on Laplace noise of scale b:

* plain            -- q + noise; unbiased but can go negative.
* post-processed   -- a nonnegative function applied to the plain output
                      (ramp, translated ramp, or a user-supplied function);
                      keeps the privacy level of the base mechanism.
* restricted       -- the plain law renormalized to [0, inf); costs a factor
                      of 2 in the privacy level.  Equivalent to rejection
                      sampling until a nonnegative draw appears.
* multiplicative   -- q * exp(noise), for strictly positive queries with a
                      bounded relative change between adjacent datasets.

The restricted law is implemented both by rejection and by inverse transform;
the two are distributionally identical, and the inverse form consumes exactly
one uniform per draw, which the coupling diagnostics in
:mod:`nonneg_dp.verify` exploit.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .distributions import (
    LaplaceDist,
    RngState,
    laplace_cdf,
    laplace_pdf,
    laplace_quantile,
    sample_laplace,
)

__all__ = [
    "PrivacyParams",
    "PostProcessor",
    "Variant",
    "MechanismSpec",
    "make_laplace_mechanism",
    "make_postprocessed_mechanism",
    "make_restricted_mechanism",
    "make_multiplicative_mechanism",
    "apply_postprocessor",
    "sample_mechanism",
    "restricted_cdf",
    "restricted_pdf",
    "restricted_quantile",
    "sample_restricted_rejection",
    "sample_restricted_inverse",
    "guaranteed_privacy_level",
    "adjacent_densities",
]


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget epsilon and query sensitivity; implies scale = sensitivity/epsilon.

    For multiplicative mechanisms ``sensitivity`` holds the relative bound K,
    which bounds the sensitivity of the log-transformed query.
    """

    epsilon: float
    sensitivity: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0):
            raise ValueError(f"sensitivity must be nonnegative and finite, got {self.sensitivity}")

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon


# Square-integrability tolerance for user-supplied post-processors: doubling
# the truncation radius must change the weighted integral of f^2 by less than
# this relative amount.
_VPLUS_RTOL = 1e-8
_VPLUS_GRID_POINTS = 10_000


def _weighted_square_integral(func: Callable[[float], float], scale: float, radius: float) -> float:
    from scipy import integrate

    def integrand(x: float) -> float:
        try:
            return func(x) ** 2 * math.exp(-abs(x) / scale)
        except OverflowError:
            return math.inf

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        value, _ = integrate.quad(integrand, -radius, radius, points=[0.0], limit=200)
    return value


def _check_v_plus_membership(func: Callable[[float], float], scale: float) -> None:
    """Reject functions outside the cone of nonnegative, square-integrable
    post-processors under the exp(-|x|/b) weight."""
    radius = 20.0 * scale
    grid = np.linspace(-radius, radius, _VPLUS_GRID_POINTS)
    values = np.array([func(x) for x in grid], dtype=float)
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("post-processor not nonnegative")

    previous = _weighted_square_integral(func, scale, radius)
    for _ in range(8):
        radius *= 2.0
        current = _weighted_square_integral(func, scale, radius)
        if not math.isfinite(current):
            break
        if abs(current - previous) <= max(_VPLUS_RTOL * abs(current), 1e-12):
            return
        previous = current
    raise ValueError("post-processor not square-integrable under the Laplace weight")


@dataclass(frozen=True)
class PostProcessor:
    """A nonnegative deterministic function applied to mechanism outputs.

    Use the classmethod constructors.  ``custom`` functions are vetted at
    construction: nonnegativity is spot-checked on a grid and
    square-integrability under the exp(-|x|/scale) weight is required, which
    guarantees finite first and second output moments at every query value.
    """

    kind: str
    alpha: float = 0.0
    func: Callable[[float], float] | None = None

    @classmethod
    def ramp(cls) -> "PostProcessor":
        """max(x, 0): clamp negative outputs to the boundary."""
        return cls.translated_ramp(0.0)

    @classmethod
    def translated_ramp(cls, alpha: float) -> "PostProcessor":
        """max(x - alpha, 0) for a translation alpha >= 0."""
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"translation must be nonnegative, got {alpha}")
        return cls(kind="translated-ramp", alpha=float(alpha))

    @classmethod
    def custom(cls, func: Callable[[float], float], scale: float) -> "PostProcessor":
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be positive, got {scale}")
        _check_v_plus_membership(func, scale)
        return cls(kind="custom", func=func)


def apply_postprocessor(pp: PostProcessor, x):
    """Apply the post-processing function to a scalar or array of outputs."""
    if isinstance(x, float):
        if pp.kind == "translated-ramp":
            shifted = float(x) - pp.alpha
            # np.maximum's answer, -0.0 and nan included.
            return 0.0 if shifted <= 0.0 else shifted
        value = float(pp.func(float(x)))
        if value < 0:
            raise ValueError("post-processor not nonnegative")
        return value
    arr = np.asarray(x, dtype=float)
    if pp.kind == "translated-ramp":
        out = np.subtract(arr, pp.alpha, out=np.empty(arr.shape))
        np.maximum(out, 0.0, out=out)
    else:
        out = np.array([apply_postprocessor(pp, v) for v in arr.ravel().tolist()],
                       dtype=float).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


class Variant(enum.Enum):
    PLAIN = "plain"
    POST_PROCESSED = "post-processed"
    RESTRICTED = "restricted"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class MechanismSpec:
    """One mechanism family at the Laplace scale ``scale`` it uses, parameterized
    by the true query value at sampling time.  Its privacy level
    (:func:`guaranteed_privacy_level`) and ``warning`` follow ``scale``, also
    through ``dataclasses.replace``; a spec warns when it is made.  It has a
    ``postprocessor`` exactly when it is post-processed."""

    variant: Variant
    privacy: PrivacyParams
    scale: float
    postprocessor: PostProcessor | None = None

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        if (self.postprocessor is None) == (self.variant is Variant.POST_PROCESSED):
            raise ValueError("a spec has a post-processor exactly when it is post-processed")
        if self.warning is not None:
            warnings.warn(self.warning)

    @property
    def warning(self) -> str | None:
        """Degenerate noise or infinite moments at this scale; b = K/epsilon is
        >= 1 iff K >= epsilon and >= 1/2 iff K >= epsilon/2."""
        if self.scale == 0.0:
            return "degenerate mechanism: zero sensitivity adds no noise"
        if self.scale < 0.5 or self.variant is not Variant.MULTIPLICATIVE:
            return None
        if self.scale >= 1.0:
            return "scale >= 1: mechanism mean is infinite"
        return "scale >= 1/2: mechanism variance is infinite"


def make_laplace_mechanism(privacy: PrivacyParams) -> MechanismSpec:
    """Plain additive mechanism with the tight scale b = sensitivity/epsilon."""
    return MechanismSpec(Variant.PLAIN, privacy, privacy.scale)


def make_postprocessed_mechanism(privacy: PrivacyParams, pp: PostProcessor) -> MechanismSpec:
    return MechanismSpec(Variant.POST_PROCESSED, privacy, privacy.scale, postprocessor=pp)


def make_restricted_mechanism(privacy: PrivacyParams, fair_comparison: bool = False) -> MechanismSpec:
    """Renormalized-to-[0, inf) mechanism.

    By default uses b = sensitivity/epsilon, which guarantees privacy level
    2*epsilon.  With ``fair_comparison`` the scale is doubled so the guarantee
    is exactly epsilon, making bias comparisons against post-processing fair.
    """
    scale = 2.0 * privacy.scale if fair_comparison else privacy.scale
    return MechanismSpec(Variant.RESTRICTED, privacy, scale)


def make_multiplicative_mechanism(epsilon: float, k_bound: float) -> MechanismSpec:
    """Release q * exp(noise) with b = k_bound/epsilon, for strictly positive queries.

    Construction succeeds even when the bound is too large for finite moments;
    the spec then warns, so divergence experiments can still run."""
    if not (math.isfinite(k_bound) and k_bound > 0):
        raise ValueError(f"relative bound must be positive and finite, got {k_bound}")
    privacy = PrivacyParams(epsilon, k_bound)
    return MechanismSpec(Variant.MULTIPLICATIVE, privacy, privacy.scale)


def guaranteed_privacy_level(spec: MechanismSpec) -> float:
    """Level sensitivity/scale of the scale in use, doubled for restriction, as
    epsilon*(privacy.scale/scale): exactly epsilon (2*epsilon for restriction
    at the tight scale) at the constructors' scales, 0 at zero sensitivity
    (adjacent data give one output law), inf for a noiseless positive one."""
    privacy, b = spec.privacy, spec.scale
    if privacy.sensitivity == 0.0:
        return 0.0
    factor = 2.0 if spec.variant is Variant.RESTRICTED else 1.0
    return factor * privacy.epsilon * (privacy.scale / b) if b > 0.0 else math.inf


def adjacent_densities(spec: MechanismSpec) -> tuple[Callable, Callable, np.ndarray]:
    """Output densities at two adjacent query values and a grid covering both,
    the inputs of :func:`nonneg_dp.verify.certify_dp_densities`.

    Plain and restricted mechanisms are compared at q = 0 and q = sensitivity,
    the multiplicative one in the log domain, where adjacent queries lie within
    log-distance K = ``privacy.sensitivity``.  Post-processed ones: ValueError.
    """
    if spec.variant is Variant.POST_PROCESSED:
        raise ValueError("post-processed mechanisms have no closed-form density to certify")
    b, delta = spec.scale, spec.privacy.sensitivity
    if spec.variant is Variant.RESTRICTED:
        pdf, lower = restricted_pdf, 0.0
    else:
        pdf, lower = laplace_pdf, -10 * b
    return (partial(pdf, LaplaceDist(0.0, b)), partial(pdf, LaplaceDist(delta, b)),
            np.linspace(lower, delta + 10 * b, 2000))


def _mass_below_zero(base: LaplaceDist) -> float:
    """F(0), the base mass that restriction removes.  The restricted law is
    defined for a nonnegative true value: at a location below 0, 1 - F(0)
    cancels (it is 0.0 at -40), so such a location is a ValueError."""
    if base.location < 0:
        raise ValueError(f"restricted law needs a location >= 0, got {base.location}")
    return laplace_cdf(base, 0.0)


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


def restricted_pdf(base: LaplaceDist, x):
    """Density of the renormalized law: f(x)/(1 - F(0)) on [0, inf)."""
    normalizer = 1.0 - _mass_below_zero(base)
    if isinstance(x, float):
        density = laplace_pdf(base, x) / normalizer
        return 0.0 if x < 0 else density
    arr = np.asarray(x, dtype=float)
    out = np.where(arr < 0, 0.0, laplace_pdf(base, arr) / normalizer)
    return float(out) if arr.ndim == 0 else out


def sample_restricted_rejection(base: LaplaceDist, rng: RngState,
                                max_attempts: int = 64,
                                return_attempts: bool = False):
    """Draw from the base law until a nonnegative value appears.

    For location >= 0 each attempt succeeds with probability >= 1/2, so the
    budget is exhausted with probability at most 2**-max_attempts.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    for attempt in range(1, max_attempts + 1):
        value = sample_laplace(base, rng)
        if value >= 0.0:
            return (value, attempt) if return_attempts else value
    raise RuntimeError("rejection budget exceeded")


# Largest double below 1: the restricted quantile's cap on its base probability.
_BELOW_ONE = math.nextafter(1.0, 0.0)


def restricted_quantile(base: LaplaceDist, u):
    """Generalized inverse of the restricted cdf at u in (0, 1): the base
    quantile at F(0) + u*(1 - F(0))."""
    mass_below_zero = _mass_below_zero(base)
    p = mass_below_zero + u * (1.0 - mass_below_zero)
    # u < 1 keeps p < 1 exactly, but the float sum can round up to 1.0.
    p = min(p, _BELOW_ONE) if isinstance(p, float) else np.minimum(p, _BELOW_ONE, out=p)
    return laplace_quantile(base, p)


def sample_restricted_inverse(base: LaplaceDist, rng: RngState, size: int | None = None):
    """Inverse-transform draw from the restricted law; exactly one uniform per draw."""
    return restricted_quantile(base, rng.uniform(size))


# Draws per block of a large batch: 128 KiB per temporary array, which stays in cache.
_BLOCK = 2**14


def sample_mechanism(spec: MechanismSpec, q: float, rng: RngState, size: int | None = None):
    """Draw one output (or ``size`` outputs) of the mechanism at true value q.

    More than ``_BLOCK`` outputs are drawn block by block into one array.
    The uniforms come from the same stream and every later step is
    elementwise, so the array equals a single batch bit for bit."""
    if size is None or size <= _BLOCK:
        return _draw(spec, q, rng, size)
    out = np.empty(size)
    for start in range(0, size, _BLOCK):
        block = out[start:start + _BLOCK]
        block[:] = _draw(spec, q, rng, block.size)
    return out


def _draw(spec: MechanismSpec, q: float, rng: RngState, size: int | None):
    if not (math.isfinite(q) and q >= 0):
        raise ValueError(f"query value must be nonnegative and finite, got {q}")
    if spec.variant is Variant.MULTIPLICATIVE:
        if q == 0.0:
            raise ValueError("query must be strictly positive for the multiplicative mechanism")
        noise = sample_laplace(LaplaceDist(0.0, spec.scale), rng, size)
        if size is None:
            return float(q) * float(np.exp(noise))
        return np.multiply(np.exp(noise, out=noise), q, out=noise)
    if spec.scale == 0.0:
        value = float(q) if size is None else np.full(size, float(q))
    elif spec.variant is Variant.RESTRICTED:
        return sample_restricted_inverse(LaplaceDist(q, spec.scale), rng, size)
    else:
        value = sample_laplace(LaplaceDist(q, spec.scale), rng, size)
    if spec.postprocessor is not None:
        return apply_postprocessor(spec.postprocessor, value)
    return value
