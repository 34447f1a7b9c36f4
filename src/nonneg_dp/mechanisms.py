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
:mod:`nonneg_dp.verify` exploit.  Its transform is written once for a float
and once for an array block, and every restricted path calls one of them.
A multiplicative draw is clamped at 5e-324, so it stays positive.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from typing import Callable, Iterable

from .distributions import (LaplaceDist, RngState, _even_grid, _integrate, _quantile, _quantile_in_place,
                            _require_integer, _require_nonnegative, _require_positive, _scalar_quantile,
                            _Value, np)

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
    "restricted_quantile",
    "sample_restricted_rejection",
    "sample_restricted_inverse",
    "guaranteed_privacy_level",
    "adjacent_densities",
]


class PrivacyParams(_Value):
    """Privacy budget epsilon and query sensitivity; implies scale = sensitivity/epsilon.

    For multiplicative mechanisms ``sensitivity`` holds the relative bound K,
    which bounds the sensitivity of the log-transformed query.
    """

    epsilon: float
    sensitivity: float
    __match_args__ = ("epsilon", "sensitivity")

    def __init__(self, epsilon: float, sensitivity: float):
        _require_positive("epsilon", epsilon)
        _require_nonnegative("sensitivity", sensitivity)
        self.__dict__.update(epsilon=epsilon, sensitivity=sensitivity)

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon


# Square-integrability tolerance for user-supplied post-processors: doubling
# the truncation radius must change the weighted integral of f^2 by less than
# this relative amount.
_VPLUS_RTOL = 1e-8
_VPLUS_GRID_POINTS = 10_000
# A custom post-processor's outputs lie in [0, _LARGEST], at vetting and at each application.
_LARGEST = sys.float_info.max


def _check_v_plus_membership(func: Callable[[float], float], scale: float,
                             kinks: tuple[float, ...]) -> None:
    """Reject functions outside the cone of nonnegative, square-integrable
    post-processors under the exp(-|x|/b) weight.  E[f(bT)^2] for a standard
    Laplace T, integrated in t = x/b over [-T, T] for T = 20, 40, ..., split
    at 0 and at the kinks, must settle; an overflow or a failed integral means
    it does not."""
    for x in _even_grid(-20.0 * scale, 20.0 * scale, _VPLUS_GRID_POINTS):
        if not 0.0 <= float(func(x)) <= _LARGEST:   # false for nan and inf too
            raise ValueError("post-processor not nonnegative")

    def weighted_square(t: float) -> float:
        return float(func(scale * t)) ** 2 * math.exp(-abs(t)) / 2.0

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


class PostProcessor(_Value):
    """A nonnegative deterministic function applied to mechanism outputs.

    Use the classmethod constructors.  ``kind`` is "translated-ramp" or
    "custom", and a custom one has a callable ``func``; any other is a
    ValueError.  Every output must be finite and nonnegative, each time the
    function is applied: a custom one that returns a negative value, nan or
    inf is a ValueError there.  ``custom`` functions are vetted at
    construction: their outputs are spot-checked on a grid and
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
    alpha: float
    func: Callable[[float], float] | None
    kinks: tuple[float, ...]
    __match_args__ = ("kind", "alpha", "func", "kinks")

    def __init__(self, kind: str, alpha: float = 0.0, func: Callable[[float], float] | None = None,
                 kinks: tuple[float, ...] = ()):
        if kind not in ("translated-ramp", "custom"):
            raise ValueError(f"post-processor kind must be 'translated-ramp' or 'custom', got {kind!r}")
        if kind == "custom" and not callable(func):
            raise ValueError(f"a custom post-processor needs a callable func, got {func!r}")
        self.__dict__.update(kind=kind, alpha=alpha, func=func, kinks=kinks)

    @classmethod
    def ramp(cls) -> "PostProcessor":
        """max(x, 0): clamp negative outputs to the boundary; one shared instance."""
        return _RAMP

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
    """Apply the post-processing function to a scalar or array of outputs.
    Every output must be finite and nonnegative, each time: a custom
    function's negative, nan or inf value is ValueError("post-processor not
    nonnegative")."""
    if isinstance(x, float):
        if pp.kind == "translated-ramp":
            shifted = float(x) - pp.alpha
            # np.maximum's answer, -0.0 and nan included.
            return 0.0 if shifted <= 0.0 else shifted
        value = float(pp.func(float(x)))
        if not 0.0 <= value <= _LARGEST:
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


# Bound once, in definition order: a lookup such as Variant.RESTRICTED costs ten identity tests.
_PLAIN, _POST_PROCESSED, _RESTRICTED, _MULTIPLICATIVE = Variant
_SMALLEST_NORMAL = sys.float_info.min
# 5e-324: a multiplicative draw is clamped here, so it never underflows to 0 for a q > 0.
_SMALLEST_POSITIVE = math.ulp(0.0)
_RAMP = PostProcessor.translated_ramp(0.0)


class MechanismSpec(_Value):
    """One mechanism family at the Laplace scale ``scale`` it uses, parameterized
    by the true query value at sampling time.  Its privacy level
    (:func:`guaranteed_privacy_level`) and ``warning`` follow ``scale``: the
    spec ``MechanismSpec(spec.variant, spec.privacy, b, spec.postprocessor)``
    samples at scale b, and a spec warns when it is made.  It has a
    ``postprocessor`` exactly when it is post-processed.  ``scale`` and
    ``privacy.scale`` are each 0 or a normal double: a subnormal one has lost
    bits, so the level Delta/b it gives can exceed epsilon."""

    variant: Variant
    privacy: PrivacyParams
    scale: float
    postprocessor: PostProcessor | None
    __match_args__ = ("variant", "privacy", "scale", "postprocessor")

    def __init__(self, variant: Variant, privacy: PrivacyParams, scale: float,
                 postprocessor: PostProcessor | None = None):
        privacy_scale = privacy.scale
        _require_nonnegative("scale", scale)
        if 0.0 < scale < _SMALLEST_NORMAL or 0.0 < privacy_scale < _SMALLEST_NORMAL:
            name, b = (("scale", scale) if 0.0 < scale < _SMALLEST_NORMAL
                       else ("sensitivity/epsilon", privacy_scale))
            raise ValueError(f"{name} must be 0 or at least {_SMALLEST_NORMAL}, got {b}")
        if (postprocessor is None) == (variant is _POST_PROCESSED):
            raise ValueError("a spec has a post-processor exactly when it is post-processed")
        self.__dict__.update(variant=variant, privacy=privacy, scale=scale,
                             postprocessor=postprocessor)
        if (warning := self.warning) is not None:
            warnings.warn(warning)

    @property
    def warning(self) -> str | None:
        """Degenerate noise or infinite moments at this scale; b = K/epsilon is
        >= 1 iff K >= epsilon and >= 1/2 iff K >= epsilon/2."""
        if self.scale == 0.0:
            return "degenerate mechanism: zero sensitivity adds no noise"
        if self.scale < 0.5 or self.variant is not _MULTIPLICATIVE:
            return None
        if self.scale >= 1.0:
            return "scale >= 1: mechanism mean is infinite"
        return "scale >= 1/2: mechanism variance is infinite"


def make_laplace_mechanism(privacy: PrivacyParams) -> MechanismSpec:
    """Plain additive mechanism with the tight scale b = sensitivity/epsilon."""
    return MechanismSpec(_PLAIN, privacy, privacy.scale)


def make_postprocessed_mechanism(privacy: PrivacyParams, pp: PostProcessor) -> MechanismSpec:
    return MechanismSpec(_POST_PROCESSED, privacy, privacy.scale, postprocessor=pp)


def make_restricted_mechanism(privacy: PrivacyParams, fair_comparison: bool = False) -> MechanismSpec:
    """Renormalized-to-[0, inf) mechanism.

    By default uses b = sensitivity/epsilon, which guarantees privacy level
    2*epsilon.  With ``fair_comparison`` the scale is doubled so the guarantee
    is exactly epsilon, making bias comparisons against post-processing fair.
    """
    scale = 2.0 * privacy.scale if fair_comparison else privacy.scale
    return MechanismSpec(_RESTRICTED, privacy, scale)


def make_multiplicative_mechanism(epsilon: float, k_bound: float) -> MechanismSpec:
    """Release q * exp(noise) with b = k_bound/epsilon, for strictly positive queries.

    Construction succeeds even when the bound is too large for finite moments;
    the spec then warns, so divergence experiments can still run."""
    _require_positive("relative bound", k_bound)
    privacy = PrivacyParams(epsilon, k_bound)
    return MechanismSpec(_MULTIPLICATIVE, privacy, privacy.scale)


def guaranteed_privacy_level(spec: MechanismSpec) -> float:
    """Level sensitivity/scale of the scale in use, doubled for restriction, as
    epsilon*(privacy.scale/scale): exactly epsilon (2*epsilon for restriction
    at the tight scale) at the constructors' scales, 0 at zero sensitivity
    (adjacent data give one output law), inf for a noiseless positive one."""
    privacy, b = spec.privacy, spec.scale
    if privacy.sensitivity == 0.0:
        return 0.0
    factor = 2.0 if spec.variant is _RESTRICTED else 1.0
    return factor * privacy.epsilon * (privacy.scale / b) if b > 0.0 else math.inf


def adjacent_densities(spec: MechanismSpec) -> tuple[Callable, Callable, tuple[float, float]]:
    """Log output densities at two adjacent query values, up to the constant
    they share, and the points (0, Delta) where the log ratio peaks: the
    inputs of :func:`nonneg_dp.verify.certify_dp_densities`.

    Plain and restricted mechanisms are compared at q = 0 and q = Delta =
    sensitivity, the multiplicative one in the log domain, where adjacent
    queries lie within log-distance K = ``privacy.sensitivity``.  Each log
    density is -|x - q|/b, less log(2(1 - F(0))) = log(2 - e^(-q/b)) for
    restriction (and -inf below 0), so their difference is linear between 0
    and Delta and constant beyond: its supremum is its larger value at 0 or
    Delta, Delta/b, or s + log(2 - e^(-s)) with s = Delta/b when restricted.
    Post-processed ones: ValueError.
    """
    if spec.variant is _POST_PROCESSED:
        raise ValueError("post-processed mechanisms have no closed-form density to certify")
    b, delta = spec.scale, spec.privacy.sensitivity
    _require_positive("scale", b)
    restricted = spec.variant is _RESTRICTED

    def log_density(q: float) -> Callable[[float], float]:
        # expm1 keeps the offset exact for small q/b, where 1 - F(0) is near 1/2.
        offset = math.log1p(-math.expm1(-q / b)) if restricted else 0.0
        return lambda x: -math.inf if restricted and x < 0 else -abs(x - q) / b - offset

    return log_density(0.0), log_density(delta), (0.0, delta)


def _mass_below_zero(q: float, b: float) -> float:
    """F(0) = exp(-q/b)/2, the Laplace (q, b) mass that restriction removes,
    by ``np.exp``: the one F(0) of the restricted samplers, quantile and
    quadrature.  Below 0 the restricted law's 1 - F(0) cancels (0.0 at
    q = -40), so a location q < 0 is a ValueError."""
    if q < 0:
        raise ValueError(f"restricted law needs a location >= 0, got {q}")
    return 0.5 * float(np.exp(-q / b))


def sample_restricted_rejection(base: LaplaceDist, rng: RngState, max_attempts: int = 64,
                                return_attempts: bool = False):
    """Draw from the base law until a nonnegative value appears.  For location
    >= 0 each attempt succeeds with probability >= 1/2, so the budget is
    exhausted with probability at most 2**-max_attempts."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    for attempt in range(1, max_attempts + 1):
        value = _scalar_quantile(base.location, base.scale, rng.uniform())
        if value >= 0.0:
            return (value, attempt) if return_attempts else value
    raise RuntimeError("rejection budget exceeded")


# Largest double below 1: the restricted quantile's cap on its base probability.
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _scalar_restricted_quantile(q: float, b: float, u: float) -> float:
    """Restricted (q, b) quantile at one u in (0, 1), unchecked: the Laplace
    quantile at F(0) + u(1 - F(0)), capped below 1 where the sum rounds up to
    1.0, then clamped at 0 as np.maximum clamps, since log(2 F(0)) need not
    round-trip -q/b and at u near 0 the quantile fell a few ulps below 0."""
    mass = _mass_below_zero(q, b)
    value = _scalar_quantile(q, b, min(mass + u * (1.0 - mass), _BELOW_ONE))
    return 0.0 if value <= 0.0 else value


def _restricted_quantile_in_place(q: float, b: float, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The steps of :func:`_scalar_restricted_quantile` over the float array
    ``u``, in place and bit for bit, with ``scratch`` for the log; returns ``u``."""
    mass = _mass_below_zero(q, b)
    np.minimum(np.add(mass, np.multiply(u, 1.0 - mass, out=u), out=u), _BELOW_ONE, out=u)
    return np.maximum(_quantile_in_place(q, b, u, scratch), 0.0, out=u)


def restricted_quantile(base: LaplaceDist, u):
    """Generalized inverse of the restricted cdf at u in (0, 1), a float or an
    array, range-checked as :func:`laplace_quantile` is, before the location."""
    return _quantile(_scalar_restricted_quantile, _restricted_quantile_in_place,
                     base.location, base.scale, u)


def sample_restricted_inverse(base: LaplaceDist, rng: RngState, size: int | None = None):
    """Inverse-transform draw from the restricted law; exactly one uniform per draw."""
    return restricted_quantile(base, rng.uniform(size))


# Draws per block of a batch: 128 KiB of output and of scratch, which stay in cache.
_BLOCK = 2**14


def sample_mechanism(spec: MechanismSpec, q: float, rng: RngState, size: int | None = None):
    """Draw one output (or an array of ``size`` outputs) of the mechanism at true value q.

    A batch is drawn in place, ``_BLOCK`` draws at a time, into its one
    output array: each block's uniforms go into its slice, where the
    restricted or the Laplace quantile runs with one scratch block, then for
    the multiplicative mechanism exp, the product with q and a clamp at
    5e-324, or the post-processor.  Every step is elementwise and the
    uniforms come from the stream in order, so the batch equals the public
    per-array functions run over all its uniforms at once, bit for bit, and
    leaves the stream where they do.  A scalar draw applies the float forms
    of the same steps to one uniform.  Without noise (scale 0) no uniform is drawn.
    """
    _require_nonnegative("query value", q)
    variant, b, post = spec.variant, spec.scale, spec.postprocessor
    multiplicative = variant is _MULTIPLICATIVE
    if multiplicative:
        if q == 0.0:
            raise ValueError("query must be strictly positive for the multiplicative mechanism")
        _require_positive("scale", b)
    if size is None:
        if multiplicative:
            value = float(q) * float(np.exp(_scalar_quantile(0.0, b, rng.uniform())))
            return value if value > 0.0 else _SMALLEST_POSITIVE
        if b == 0.0:
            value = float(q)
        elif variant is _RESTRICTED:
            return _scalar_restricted_quantile(q, b, rng.uniform())
        else:
            value = _scalar_quantile(q, b, rng.uniform())
        return value if post is None else apply_postprocessor(post, value)
    size = _require_integer("size", size)
    out = np.empty(size)
    if b == 0.0 and not multiplicative:
        out.fill(float(q))
        return out if post is None else _postprocess_in_place(post, out)
    quantile = _restricted_quantile_in_place if variant is _RESTRICTED else _quantile_in_place
    scratch = np.empty(min(size, _BLOCK))
    for start in range(0, size, _BLOCK):
        block = out[start:start + _BLOCK]
        rng.uniform(block.size, out=block)   # in (0, 1), the quantiles' range
        quantile(0.0 if multiplicative else q, b, block, scratch[:block.size])
        if multiplicative:
            np.multiply(np.exp(block, out=block), q, out=block)
            np.maximum(block, _SMALLEST_POSITIVE, out=block)
        elif post is not None:
            _postprocess_in_place(post, block)
    return out
