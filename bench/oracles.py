"""Reference values computed apart from nonneg_dp, and the checks that use them.

Nothing here imports the package under test.  Closed forms are re-derived
from the Laplace law and evaluated with mpmath at 50 digits; query values
come from exact ``Fraction`` sums; the softplus post-processor's expectation
is an mpmath quadrature.  Each ``check_*`` raises ``CheckFailed`` with a
message naming the value that disagreed, so a workload counts the first
wrong output of an operation and stops trusting it.

Tolerances are stated next to each check together with the reason for
their size; ``selftest.py`` shows that every check rejects a value that is
wrong by the amounts the known faults produce.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 50
_mp = mpmath.mpf

# Lambert W(1/2): the translation alpha* = b * W(1/2) equates the two
# competing worst-case biases (b/2) e^{-alpha/b} and alpha.
W_HALF = mpmath.lambertw(_mp("0.5")).real

# Closed forms evaluated in doubles agree with the 50-digit value to a few
# ulps times the condition number of exp at q/b <= 10; 1e-12 leaves margin
# while still rejecting any value off by 1e-6 relative.
CLOSED_RTOL = 1e-12
# optimal_alpha bisects to an absolute width of 1e-12, which is at most
# 3e-9 relative for the scales b >= 1e-3 the workloads draw.
ALPHA_RTOL = 1e-8
# Monte Carlo and release means are judged by |z| <= Z_MAX: at most about
# 2e-9 of correct estimates fall outside under the normal approximation.
Z_MAX = 6.0


class CheckFailed(AssertionError):
    """An output disagreed with its reference value or property."""


class OpFailed(Exception):
    """The program produced no result for an operation (counted as failed)."""


def _close(name: str, got: float, want, rtol: float, atol: float = 0.0) -> None:
    want = float(want)
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        raise CheckFailed(f"{name}: got {got!r}, want {want!r} (rtol {rtol:g}, atol {atol:g})")


def _require(name: str, condition: bool, detail: str = "") -> None:
    if not condition:
        raise CheckFailed(f"{name}: {detail}")


# --------------------------------------------------------------------------
# closed forms, re-derived from E[X 1{X >= 0}] = q + (b/2) e^{-q/b} for
# X ~ Laplace(q, b), q >= 0

def ramp_bias(q, b):
    q, b = _mp(q), _mp(b)
    return b / 2 * mpmath.exp(-q / b)


def translated_ramp_bias(q, alpha, b):
    """E[max(X - alpha, 0)] - q: X - alpha is Laplace(q - alpha, b)."""
    q, alpha, b = _mp(q), _mp(alpha), _mp(b)
    shift = q - alpha
    if shift >= 0:
        mean = shift + b / 2 * mpmath.exp(-shift / b)
    else:
        mean = b / 2 * mpmath.exp(shift / b)
    return mean - q


def restricted_bias(q, b):
    """E[X | X >= 0] - q = (q + (b/2) e^{-q/b}) / (1 - e^{-q/b}/2) - q.

    The subtraction cancels about q/(b ln 10) digits, so the working
    precision grows by that many.
    """
    q, b = _mp(q), _mp(b)
    with mpmath.workdps(mpmath.mp.dps + int(q / b / mpmath.log(10)) + 10):
        tail = mpmath.exp(-q / b)
        value = (q + b / 2 * tail) / (1 - tail / 2) - q
    return +value


def restricted_vs_ramp_ratio(q, epsilon, sensitivity):
    """Restriction at scale 2*Delta/eps over clamping at Delta/eps: same level eps."""
    b = _mp(sensitivity) / _mp(epsilon)
    return restricted_bias(q, 2 * b) / ramp_bias(q, b)


def multiplicative_bias(q, b):
    """E[q e^Z] - q with E[e^Z] = 1/(1 - b^2) for b < 1."""
    q, b = _mp(q), _mp(b)
    return q * (1 / (1 - b * b) - 1)


def optimal_alpha(b):
    return _mp(b) * W_HALF


def softplus(x: float) -> float:
    """log(1 + e^x), written so that neither branch overflows."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def softplus_mean(q, b):
    """E[softplus(q + Z)] for Z ~ Laplace(0, b), by mpmath quadrature."""
    q, b = _mp(q), _mp(b)
    with mpmath.workdps(30):
        def integrand(z):
            x = q + z
            return (mpmath.log1p(mpmath.exp(x)) if x < 0 else x + mpmath.log1p(mpmath.exp(-x))) \
                * mpmath.exp(-abs(z) / b) / (2 * b)
        points = sorted({-60 * b, -q, _mp(0), 60 * b}) if q < 60 * b else [-60 * b, _mp(0), 60 * b]
        return mpmath.quad(integrand, points)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def softplus_mean_fast(q: float, b: float) -> float:
    """E[softplus(q + Z)] in doubles, for the release workload's mean test.

    softplus(x) = max(x, 0) + log1p(e^{-|x|}): the first term has the ramp
    mean q + (b/2) e^{-q/b}; the second is bounded and integrated with
    Gauss-Legendre in t = Z/b over pieces split at the density kink t = 0
    and at the knee t = -q/b, with pieces of width 1/b and 40/b around it.
    """
    knee = -q / b
    cuts = {-40.0, 40.0, 0.0}
    for width in (0.0, 1.0 / b, 40.0 / b):
        cuts.update((knee - width, knee + width))
    cuts = sorted(c for c in cuts if -40.0 <= c <= 40.0)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        t = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
        x = q + b * t
        total += 0.5 * (hi - lo) * float(np.sum(_GL_WEIGHTS * np.log1p(np.exp(-np.abs(x)))
                                                * 0.5 * np.exp(-np.abs(t))))
    return q + 0.5 * b * math.exp(-q / b) + total


def truncated_exp_moment(b, radius):
    """(1/2b) * integral over [-T, T] of e^x e^{-|x|/b} dx, in closed form."""
    b, t = _mp(b), _mp(radius)
    if b == 1:
        return ((1 - mpmath.exp(-2 * t)) / 2 + t) / 2
    down, up = 1 / b + 1, 1 / b - 1
    return ((1 - mpmath.exp(-t * down)) / down + (1 - mpmath.exp(-t * up)) / up) / (2 * b)


def restricted_certificate_max(epsilon):
    """max over x >= 0 of |log f_0(x)/f_Delta(x)| for the restricted pair at
    b = Delta/eps: eps + log(2 - e^{-eps}), reached at x = 0."""
    eps = _mp(epsilon)
    return eps + mpmath.log(2 - mpmath.exp(-eps))


# --------------------------------------------------------------------------
# queries, from exact rational arithmetic

def query_oracle(kind: str, records, lower: float, upper: float, threshold: float = 0.0):
    """(value, sensitivity, relative bound) of a count/sum/mean query."""
    n = len(records)
    if kind == "count":
        return Fraction(sum(1 for r in records if r >= threshold)), Fraction(1), None
    total = sum((Fraction(r) for r in records), Fraction(0))
    width = Fraction(upper) - Fraction(lower)
    relative = width / (n * Fraction(lower)) if lower > 0 else math.inf
    if kind == "sum":
        return total, width, relative
    return total / n, width / n, relative


# Correctly rounded sums match exactly; a mean is one more rounding.
QUERY_RTOL = 4 * 2.0 ** -52


# --------------------------------------------------------------------------
# checks

def check_closed(name: str, got: float, want) -> None:
    _close(name, got, want, CLOSED_RTOL, atol=1e-300)


def check_closed_abs(name: str, got: float, want, atol: float) -> None:
    _close(name, got, want, 0.0, atol=atol)


def check_closed_rel(name: str, got: float, want, rtol: float) -> None:
    _close(name, got, want, rtol)


def check_alpha(got: float, b: float) -> None:
    _close("alpha_star", got, optimal_alpha(b), ALPHA_RTOL)


def check_quadrature(name: str, got: float, want, q: float, b: float, rtol: float) -> None:
    """A quadrature bias integrates E[output] ~ q + b and subtracts q, so its
    error scales with q + b, not with the bias itself."""
    _close(name, got, want, 0.0, atol=rtol * (q + b))


def check_z(name: str, estimate: float, stderr: float, want) -> float:
    _require(name, math.isfinite(estimate) and stderr > 0, f"estimate {estimate!r} stderr {stderr!r}")
    z = (estimate - float(want)) / stderr
    _require(name, abs(z) <= Z_MAX, f"z = {z:.3f} beyond {Z_MAX} (estimate {estimate!r}, want {float(want)!r})")
    return z


def require_sign(name: str, draw: float, strict: bool = False, finite_only: bool = False) -> None:
    """Repaired releases are nonnegative, multiplicative ones positive."""
    ok = math.isfinite(draw) and (finite_only or (draw > 0.0 if strict else draw >= 0.0))
    _require(name, ok, f"release {draw!r} violates its sign constraint")


def require_self_normalised(name: str, total: float, squares: float) -> None:
    """sum(d) / sqrt(sum(d^2)) of independent centred d is about N(0, 1)."""
    _require(name, squares > 0, "no spread")
    z = total / math.sqrt(squares)
    _require(name, abs(z) <= Z_MAX, f"z = {z:.3f} beyond {Z_MAX}")


def check_query(name: str, got: float, want) -> None:
    if want == math.inf:
        _require(name, got == math.inf, f"got {got!r}, want inf")
        return
    _close(name, got, want, QUERY_RTOL)


def check_ratio(q: float, epsilon: float, sensitivity: float, got: float) -> None:
    """The restriction/clamping ratio exceeds 2 at every q; where the true
    value exceeds the double range the report must say inf."""
    want = restricted_vs_ramp_ratio(q, epsilon, sensitivity)
    _require("ratio", got > 2.0, f"ratio {got!r} at q={q!r} is not above 2")
    if want > mpmath.mpf(1.7976931348623157e308):
        _require("ratio", got == math.inf, f"got {got!r}, want inf at q={q!r}")
    else:
        check_closed(f"ratio at q={q!r}", got, want)


# --------------------------------------------------------------------------
# checks of whole reports, shared by the in-process and cold-process workloads


def check_compare_rows(rows, eps: float, sens: float) -> None:
    b = sens / eps
    for row in rows:
        q = float(row["q"])
        check_closed(f"bias_bit at q={q!r}", float(row["bias_bit"]), ramp_bias(q, b))
        check_closed(f"bias_restricted at q={q!r}", float(row["bias_restricted_same_eps"]),
                     restricted_bias(q, 2 * b))
        check_ratio(q, eps, sens, float(row["ratio"]))


def check_alpha_report(report: dict, b: float) -> None:
    alpha = report["alpha_star"]
    check_closed("b", report["b"], b)
    check_alpha(alpha, b)
    at_star = max(ramp_bias(alpha, b), mpmath.mpf(alpha))
    check_closed("B_at_alpha_star", report["B_at_alpha_star"], at_star)
    check_closed("B_at_zero", report["B_at_zero"], mpmath.mpf(b) / 2)
    check_closed("improvement_ratio", report["improvement_ratio"], mpmath.mpf(b) / 2 / at_star)


def check_certificate(report: dict, claimed: float, want, passed: bool) -> None:
    """A certificate is the grid maximum of an analytic log ratio whose
    maximum the grid contains (x = 0, or any x <= 0), so only rounding in
    the logs separates it from ``want``."""
    check_closed("epsilon_claimed", report["epsilon_claimed"], claimed)
    check_closed_abs("max_log_ratio_observed", report["max_log_ratio_observed"], want, 1e-9)
    if report["passed"] is not passed:
        raise CheckFailed(f"certificate passed={report['passed']}, want {passed}")


def coupling_tolerance(b: float, m: int) -> float:
    """The trapezoid over omega in [1/(m+1), m/(m+1)] leaves out the end
    pieces of the log-singular quantile gap, of size about
    b(1 + ln(m+1))/(m+1); the observed error stays below that, and the
    tolerance is twice it."""
    return 2 * b * (1 + math.log(m + 1)) / (m + 1)


def check_divergence(report, b: float, radii) -> None:
    for radius, value in zip(radii, report.values):
        check_closed_rel(f"truncated moment at T={radius}", value,
                         truncated_exp_moment(b, radius), 1e-9)
    if b >= 1:
        if not (report.strictly_increasing and report.diverges) or math.isfinite(report.limit):
            raise CheckFailed(f"b={b}: divergence not flagged (growth {report.growth_factor!r})")
    else:
        check_closed("moment limit", report.limit, 1 / (1 - _mp(b) ** 2))
        if report.diverges or not report.converged:
            raise CheckFailed(f"b={b}: diverges={report.diverges}, converged={report.converged}")
