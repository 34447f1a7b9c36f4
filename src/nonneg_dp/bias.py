"""Bias formulas for nonnegative Laplace mechanisms and the optimal translation.

The bias of a mechanism at true value q is E[output] - q.  Clamping a Laplace
release at zero (ramp post-processing) inflates the output by
(b/2)exp(-q/b), worst at q = 0 where it equals b/2.  Translating the ramp by
alpha >= 0 trades that boundary inflation against an asymptotic deficit of
alpha, so the worst-case absolute bias over q >= 0 is

    B(alpha) = max{ (b/2) exp(-alpha/b), alpha }

which is minimized at the unique crossing point alpha* = b*W(1/2) of the
two terms, W being Lambert's W function.
Renormalizing the law to [0, inf) instead ("restriction") biases the release
by (q + b)/(2 exp(q/b) - 1), and at equal guaranteed privacy level the
restriction bias exceeds the clamping bias by a factor strictly greater
than 2 at every q.

Closed forms here are exact; a quadrature engine handles arbitrary
nonnegative square-integrable post-processing functions and doubles as the
independent cross-check for the closed forms.  ``closed_form_bias`` and
``quadrature_bias`` give both for any :class:`MechanismSpec`; for the plain
release both are exactly 0 with no integral, since its excess is the noise,
whose density is even.
"""

from __future__ import annotations

import math

from .distributions import _integrate, _require_nonnegative, _require_positive, np
from .mechanisms import (_MULTIPLICATIVE, _PLAIN, _RESTRICTED, MechanismSpec, PostProcessor, _mass_below_zero,
                         apply_postprocessor)

__all__ = [
    "bias_bit",
    "expectation_translated_ramp",
    "bias_translated_ramp",
    "max_abs_bias_translated_ramp",
    "optimal_alpha",
    "bias_restricted",
    "bias_ratio_restricted_vs_bit",
    "expectation_postprocessed_quadrature",
    "closed_form_bias",
    "quadrature_bias",
]

# Integration window: the exp(-|x-q|/b) envelope falls below 1e-16 of its
# peak at |x-q| = b*ln(1e16) ~ 36.8b; round up for headroom.
_TAIL_RADII = 40.0

# Lambert W(1/2), the root of w*exp(w) = 1/2, rounded to the nearest double.
_LAMBERT_W_HALF = 0.35173371124919584


def bias_bit(q: float, b: float) -> float:
    """Bias of the ramp-clamped (boundary inflated) mechanism: (b/2)exp(-q/b)."""
    return bias_translated_ramp(q, 0.0, b)


def expectation_translated_ramp(q: float, alpha: float, b: float) -> float:
    """E[max(q + noise - alpha, 0)]; two exponential branches meeting at q = alpha."""
    return q + bias_translated_ramp(q, alpha, b)


def bias_translated_ramp(q: float, alpha: float, b: float) -> float:
    """Bias of the translated-ramp mechanism; decreasing in q, tends to -alpha.

    Equals (b/2)exp(-|q - alpha|/b) - min(q, alpha), so no E[output] ~ q
    is formed and then cancelled against q.  Near the zero of the bias its
    two terms cancel, so where |bias| < alpha/64 it is evaluated again with
    40 significant digits.
    """
    _require_positive("scale", b)
    _require_nonnegative("q", q)
    _require_nonnegative("alpha", alpha)
    bias = 0.5 * b * math.exp(-abs(q - alpha) / b) - min(q, alpha)
    return _ramp_bias_to_40_digits(q, alpha, b) if abs(bias) < alpha / 64 else bias


def _ramp_bias_to_40_digits(q: float, alpha: float, b: float) -> float:
    """The translated-ramp bias (b/2)exp(-|q - alpha|/b) - min(q, alpha),
    evaluated with 40 significant digits and rounded once."""
    from decimal import Decimal, localcontext

    with localcontext() as context:
        context.prec = 40
        q, alpha, b = Decimal(q), Decimal(alpha), Decimal(b)
        return float(b / 2 * (-abs(q - alpha) / b).exp() - min(q, alpha))


def max_abs_bias_translated_ramp(alpha: float, b: float) -> float:
    """Worst-case |bias| over q >= 0: max of the q=0 value and the q->inf limit."""
    return max(bias_translated_ramp(0.0, alpha, b), alpha)


def optimal_alpha(b: float) -> float:
    """Translation minimizing the worst-case bias of the translated ramp.

    The two competing bias terms meet where (b/2)exp(-alpha/b) = alpha; with
    w = alpha/b that is w*exp(w) = 1/2, so alpha* = b*W(1/2) for Lambert's W.
    """
    _require_positive("scale", b)
    return b * _LAMBERT_W_HALF


def bias_restricted(q: float, b: float) -> float:
    """Bias of the renormalized-to-[0, inf) mechanism: (q + b)/(2 exp(q/b) - 1).

    Evaluated as (q + b)exp(-q/b)/(2 - exp(-q/b)) so large q/b cannot overflow.
    """
    _require_positive("scale", b)
    _require_nonnegative("q", q)
    decay = math.exp(-q / b)
    return (q + b) * decay / (2.0 - decay)


def bias_ratio_restricted_vs_bit(q: float, epsilon: float, delta_sens: float) -> float:
    """Restriction bias over clamping bias at equal guaranteed privacy level.

    Restriction runs at doubled scale (2*sensitivity/epsilon) to match the
    clamped mechanism's level.  With s = epsilon*q/sensitivity the ratio is
    2 exp(s)(s + 2)/(2 exp(s/2) - 1), which exceeds 2 for every q >= 0.
    Past the double range (s >~ 1419) it is returned as inf.
    """
    _require_nonnegative("q", q)
    _require_positive("epsilon", epsilon)
    _require_positive("sensitivity", delta_sens)
    s = epsilon * q / delta_sens
    try:
        growth = math.exp(s / 2.0)
    except OverflowError:
        return math.inf
    # 2 e^s (s+2) / (2 e^{s/2} - 1) divided through by e^{s/2}.
    return 2.0 * growth * (s + 2.0) / (2.0 - math.exp(-s / 2.0))


def _postprocessed_mean(pp: PostProcessor, q: float, b: float) -> float:
    """E[pp(q + noise)] - q, integrated in t = noise/b over [-40, 40],
    outside which the density is below 1e-16 of its peak.  The integrand is of
    order 1 at any b, so quad's absolute tolerance stays relative, and t = 0
    and the post-processor's kinks are breakpoints, so piecewise-smooth
    integrands keep full convergence order."""
    points = [0.0] + [(kink - q) / b for kink in pp.kinks]
    return b * _integrate(lambda t: (apply_postprocessor(pp, q + b * t) - q) / b * math.exp(-abs(t)) / 2.0,
                          -_TAIL_RADII, _TAIL_RADII, points)


def expectation_postprocessed_quadrature(pp: PostProcessor, q: float, b: float) -> float:
    """E[pp(q + noise)] by adaptive quadrature against the Laplace density:
    q plus the integral of pp(q + noise) - q, so that E - q keeps the
    accuracy of :func:`quadrature_bias`."""
    _require_positive("scale", b)
    _require_nonnegative("q", q)
    return q + _postprocessed_mean(pp, q, b)


def closed_form_bias(spec: MechanismSpec, q: float) -> float:
    """Exact bias of the mechanism at true value q.

    The multiplicative bias q(1/(1 - b^2) - 1) = q b^2/((1 - b)(1 + b)) is
    infinite once b >= 1.
    Custom post-processors have no closed form: ValueError.
    """
    _require_nonnegative("q", q)
    b = spec.scale
    if spec.variant is _PLAIN:
        return 0.0
    if spec.variant is _RESTRICTED:
        return bias_restricted(q, b)
    if spec.variant is _MULTIPLICATIVE:
        return q * b * b / ((1.0 - b) * (1.0 + b)) if b < 1.0 else math.inf
    pp = spec.postprocessor
    if pp.kind == "custom":
        raise ValueError("custom post-processors have no closed-form bias")
    return bias_translated_ramp(q, pp.alpha, b)


def quadrature_bias(spec: MechanismSpec, q: float) -> float:
    """Bias of the mechanism at q by adaptive quadrature of its output law,
    the independent cross-check of :func:`closed_form_bias`.

    The plain release's excess is the noise z itself, whose density is even,
    so its integrand z f(z) is odd and its bias is exactly 0 at every (q, b):
    no integral is taken.  The other additive variants integrate
    (output - q) times the density of the noise z, so no E[output] ~ q is
    formed and then cancelled against q.  The multiplicative bias q E[e^z - 1]
    folds z and -z into the positive integrand
    q exp(z(1 - 1/b)) expm1(-z)^2/(2b) on z >= 0: no cancellation, no overflow.
    Each integral is taken in t = z/b, where it is of order 1 (over b^2 when
    multiplicative), so quad's absolute tolerance stays relative at tiny b.
    """
    b = spec.scale
    _require_positive("scale", b)
    _require_nonnegative("q", q)
    if spec.variant is _PLAIN:
        return 0.0
    if spec.variant is _MULTIPLICATIVE:
        if b >= 1.0:
            return math.inf
        # Breaks at z = 1, 10, 40, where expm1(-z)^2 saturates, keep quad
        # from missing it as b -> 1.
        return q * b * b * _integrate(
            lambda t: (math.expm1(-b * t) / b) ** 2 * math.exp((b - 1.0) * t) / 2.0,
            0.0, _TAIL_RADII / (1.0 - b), [1.0 / b, 10.0 / b, 40.0 / b])
    if spec.variant is _RESTRICTED:
        # The restricted density e^(-|x - q|/b)/(2b)/(1 - F(0)), zero below
        # 0, with 1 - F(0) taken once.
        if q + b * _TAIL_RADII == math.inf:
            raise ValueError("the restricted law's integration window leaves the double range")
        normalizer = 1.0 - _mass_below_zero(q, b)

        def excess(t: float) -> float:
            x = q + b * t
            return t * b * (0.0 if x < 0 else float(np.exp(-abs(x - q) / b)) / (2.0 * b) / normalizer)

        return b * _integrate(excess, max(-_TAIL_RADII, -q / b), _TAIL_RADII, [0.0])
    return _postprocessed_mean(spec.postprocessor, q, b)
