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
from typing import Callable, Iterable

from .distributions import (
    LaplaceDist,
    RngState,
    _integrate,
    _quantile_in_place,
    _require_nonnegative,
    _require_positive,
    laplace_cdf,
    laplace_pdf,
    laplace_quantile,
    np,
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
        _require_positive("epsilon", self.epsilon)
        _require_nonnegative("sensitivity", self.sensitivity)

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon


# Square-integrability tolerance for user-supplied post-processors: doubling
# the truncation radius must change the weighted integral of f^2 by less than
# this relative amount.
_VPLUS_RTOL = 1e-8
_VPLUS_GRID_POINTS = 10_000


def _check_v_plus_membership(func: Callable[[float], float], scale: float,
                             kinks: tuple[float, ...]) -> None:
    """Reject functions outside the cone of nonnegative, square-integrable
    post-processors under the exp(-|x|/b) weight.  E[f(bT)^2] for a standard
    Laplace T, integrated in t = x/b over [-T, T] for T = 20, 40, ..., split
    at 0 and at the kinks, must settle; an overflow or a failed integral means
    it does not."""
    grid = np.linspace(-20.0 * scale, 20.0 * scale, _VPLUS_GRID_POINTS)
    values = np.array([func(x) for x in grid], dtype=float)
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("post-processor not nonnegative")

    def weighted_square(t: float) -> float:
        return func(scale * t) ** 2 * math.exp(-abs(t)) / 2.0

    points = [0.0] + [kink / scale for kink in kinks]
    radius = 20.0
    try:
        previous = _integrate(weighted_square, -radius, radius, points)
        for _ in range(8):
            radius *= 2.0
            current = _integrate(weighted_square, -radius, radius, points)
            if abs(current - previous) <= max(_VPLUS_RTOL * abs(current), 1e-12):
                return
            previous = current
    except (OverflowError, ValueError):
        pass
    raise ValueError("post-processor not square-integrable under the Laplace weight")


@dataclass(frozen=True)
class PostProcessor:
    """A nonnegative deterministic function applied to mechanism outputs.

    Use the classmethod constructors.  ``custom`` functions are vetted at
    construction: nonnegativity is spot-checked on a grid and
    square-integrability under the exp(-|x|/scale) weight is required, which
    guarantees finite first and second output moments at every query value
    for noise of that ``scale``.  A spec sampling at another scale is not
    vetted again: exp(x/3) passes at scale 1, but at scale 2 its variance is
    infinite.

    ``kinks`` are the points where the function is not smooth, sorted: alpha
    for the translated ramp, those declared for a custom one.  Every integral
    of the function is split at them.
    """

    kind: str
    alpha: float = 0.0
    func: Callable[[float], float] | None = None
    kinks: tuple[float, ...] = ()

    @classmethod
    def ramp(cls) -> "PostProcessor":
        """max(x, 0): clamp negative outputs to the boundary."""
        return cls.translated_ramp(0.0)

    @classmethod
    def translated_ramp(cls, alpha: float) -> "PostProcessor":
        """max(x - alpha, 0) for a translation alpha >= 0."""
        _require_nonnegative("translation", alpha)
        return cls(kind="translated-ramp", alpha=float(alpha), kinks=(float(alpha),))

    @classmethod
    def custom(cls, func: Callable[[float], float], scale: float,
               kinks: Iterable[float] = ()) -> "PostProcessor":
        """``func`` vetted at noise scale ``scale``.  A piecewise-smooth one
        declares its ``kinks`` (finite), such as the knots of an interpolant:
        quadrature that cannot see them may fail to converge."""
        _require_positive("scale", scale)
        kinks = tuple(sorted(float(kink) for kink in kinks))
        if not all(math.isfinite(kink) for kink in kinks):
            raise ValueError(f"kinks must be finite, got {kinks}")
        _check_v_plus_membership(func, scale, kinks)
        return cls(kind="custom", func=func, kinks=kinks)


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
    out = _postprocess_in_place(pp, np.array(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def _postprocess_in_place(pp: PostProcessor, x: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``x`` with the post-processed outputs; returns ``x``."""
    if pp.kind == "translated-ramp":
        return np.maximum(np.subtract(x, pp.alpha, out=x), 0.0, out=x)
    x[...] = np.array([apply_postprocessor(pp, v) for v in x.ravel().tolist()],
                      dtype=float).reshape(x.shape)
    return x


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
        _require_nonnegative("scale", self.scale)
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
    _require_positive("relative bound", k_bound)
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


# Draws per block of a batch: 128 KiB of the output and of the one scratch
# buffer, which stay in cache.
_BLOCK = 2**14


def sample_mechanism(spec: MechanismSpec, q: float, rng: RngState, size: int | None = None):
    """Draw one output (or an array of ``size`` outputs) of the mechanism at true value q.

    A batch is drawn in place, ``_BLOCK`` draws at a time, into its one
    output array.  Each block's uniforms are written into its slice of the
    output, and the variant's transform runs over that slice with one
    scratch block: the Laplace quantile, after restriction's base
    probability F(0) + u(1 - F(0)) capped below 1, followed by exp and the
    product with q (multiplicative) or the post-processor.  Every step is
    elementwise and the uniforms come from the stream in order, so the batch
    equals the public per-array functions run over all its uniforms at once,
    bit for bit, and leaves the stream where they do.  Without noise (scale
    0) no uniform is drawn.
    """
    _require_nonnegative("query value", q)
    multiplicative = spec.variant is Variant.MULTIPLICATIVE
    if multiplicative and q == 0.0:
        raise ValueError("query must be strictly positive for the multiplicative mechanism")
    if size is not None:
        return _sample_batch(spec, q, rng, size)
    if multiplicative:
        noise = sample_laplace(LaplaceDist(0.0, spec.scale), rng)
        return float(q) * float(np.exp(noise))
    if spec.scale == 0.0:
        value = float(q)
    elif spec.variant is Variant.RESTRICTED:
        return sample_restricted_inverse(LaplaceDist(q, spec.scale), rng)
    else:
        value = sample_laplace(LaplaceDist(q, spec.scale), rng)
    if spec.postprocessor is not None:
        return apply_postprocessor(spec.postprocessor, value)
    return value


def _sample_batch(spec: MechanismSpec, q: float, rng: RngState, size: int) -> np.ndarray:
    out = np.empty(size)
    multiplicative = spec.variant is Variant.MULTIPLICATIVE
    if spec.scale == 0.0 and not multiplicative:
        out.fill(float(q))
        return out if spec.postprocessor is None else _postprocess_in_place(spec.postprocessor, out)
    dist = LaplaceDist(0.0 if multiplicative else q, spec.scale)
    mass_below_zero = _mass_below_zero(dist) if spec.variant is Variant.RESTRICTED else None
    scratch = np.empty(min(size, _BLOCK))
    for start in range(0, size, _BLOCK):
        block = out[start:start + _BLOCK]
        # Uniforms in (0, 1), and restricted probabilities in (0, _BELOW_ONE],
        # are in the quantile's range.
        rng.uniform(block.size, out=block)
        if mass_below_zero is not None:
            np.multiply(block, 1.0 - mass_below_zero, out=block)
            np.minimum(np.add(mass_below_zero, block, out=block), _BELOW_ONE, out=block)
        _quantile_in_place(dist, block, scratch[:block.size])
        if multiplicative:
            np.multiply(np.exp(block, out=block), q, out=block)
        elif spec.postprocessor is not None:
            _postprocess_in_place(spec.postprocessor, block)
    return out
