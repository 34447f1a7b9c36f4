"""Shows that every output check of the benchmark rejects a wrong value.

    python3 bench/selftest.py

Each case feeds a check one value that is right and one that is wrong by
the amount a known fault or a small slip would produce; a check that
accepts the wrong value, or rejects the right one, fails the self-test.
Nothing here runs nonneg_dp: the values are built from the oracles.
"""

from __future__ import annotations

import math
import sys
import types

import oracles as O

mp = O.mpmath.mpf


def _off(value, rel=1e-6) -> float:
    return float(value) * (1 + rel)


def _divergence(b, radii, scale=1.0, diverges=None):
    values = tuple(float(O.truncated_exp_moment(b, r)) * scale for r in radii)
    growth = values[-1] / values[0]
    limit = math.inf if b >= 1 else 1 / (1 - b * b)
    return types.SimpleNamespace(
        values=values, strictly_increasing=all(v2 > v1 for v1, v2 in zip(values, values[1:])),
        growth_factor=growth, diverges=growth >= 10 if diverges is None else diverges,
        limit=limit, converged=b < 1 and abs(values[-1] - limit) <= 1e-6)


def _alpha_report(b, alpha):
    at_star = max(0.5 * b * math.exp(-alpha / b), alpha)
    return {"b": b, "alpha_star": alpha, "B_at_alpha_star": at_star, "B_at_zero": b / 2,
            "improvement_ratio": (b / 2) / at_star}


def _compare_row(q, eps, sens, ratio_scale=1.0, bit_scale=1.0):
    b = sens / eps
    return {"q": repr(q), "bias_bit": repr(_off(O.ramp_bias(q, b), bit_scale - 1)),
            "bias_restricted_same_eps": repr(float(O.restricted_bias(q, 2 * b))),
            "ratio": repr(float(O.restricted_vs_ramp_ratio(q, eps, sens)) * ratio_scale
                          if O.restricted_vs_ramp_ratio(q, eps, sens) < 1e308 else math.inf)}


def _cases():
    """(name, check, right value, wrong value) — each check is a function of one value."""
    b, q = 0.7, 1.3
    eps = 0.8
    yield ("optimal_alpha at b = 1e-13 (the 0.25*b fault)",
           lambda a: O.check_alpha(a, 1e-13), float(O.optimal_alpha(1e-13)), 0.25e-13)
    yield ("optimal_alpha at b = 1",
           lambda a: O.check_alpha(a, 1.0), float(O.W_HALF), _off(O.W_HALF))
    yield ("optimal-alpha report with alpha = 0.25*b",
           lambda r: O.check_alpha_report(r, 2.0), _alpha_report(2.0, float(O.optimal_alpha(2.0))),
           _alpha_report(2.0, 0.5))
    for name, want in (("ramp bias", O.ramp_bias(q, b)),
                       ("translated-ramp bias", O.translated_ramp_bias(q, O.optimal_alpha(b), b)),
                       ("restricted bias", O.restricted_bias(q, b)),
                       ("restricted/ramp ratio", O.restricted_vs_ramp_ratio(q, eps, 1.0))):
        yield (f"{name} off by 1e-6 relative",
               lambda v, want=want, name=name: O.check_closed(name, v, want), float(want), _off(want))
    mult = O.multiplicative_bias(q, 0.1)
    yield ("multiplicative bias off by 1e-6 relative",
           lambda v: O.check_closed_abs("multiplicative", v, mult, 8 * 2.0 ** -52 * q),
           float(mult), _off(mult))
    yield ("restricted quadrature bias at q = 0 off by 1e-6 relative",
           lambda v: O.check_quadrature("quad", v, O.restricted_bias(0.0, b), 0.0, b, 1e-9),
           float(O.restricted_bias(0.0, b)), _off(O.restricted_bias(0.0, b)))
    yield ("ramp quadrature at q = 1e6, b = 1e-3 reporting 0.011 (cancellation fault)",
           lambda v: O.check_quadrature("quad", v, O.ramp_bias(1e6, 1e-3), 1e6, 1e-3, 1e-9),
           0.0, 0.011)
    soft = O.softplus_mean(0.0, b)
    yield ("softplus quadrature bias off by 1e-6 relative",
           lambda v: O.check_quadrature("softplus", v, soft, 0.0, b, 1e-9), float(soft), _off(soft))
    yield ("fast softplus mean against the mpmath one",
           lambda v: O.check_closed_rel("softplus mean", v, O.softplus_mean(q, b), 1e-9),
           O.softplus_mean_fast(q, b), _off(O.softplus_mean(q, b)))
    yield ("Monte Carlo estimate 7 standard errors off",
           lambda v: O.check_z("mc", v, 0.01, O.ramp_bias(q, b)),
           float(O.ramp_bias(q, b)) + 0.03, float(O.ramp_bias(q, b)) + 0.07)
    yield ("self-normalised release mean with a shifted reference",
           lambda d: O.require_self_normalised("release", sum(d), sum(x * x for x in d)),
           [(-1) ** i * 1.0 for i in range(1000)], [(-1) ** i * 1.0 + 0.3 for i in range(1000)])
    records = [0.25, 0.5, 0.125, 1.0 / 3.0]
    value, sens, relative = O.query_oracle("mean", records, 0.1, 1.0)
    yield ("mean query off by 1e-6 relative",
           lambda v: O.check_query("mean", v, value), sum(records) / 4, _off(value))
    yield ("relative bound off by 1e-6 relative",
           lambda v: O.check_query("K", v, relative), (1.0 - 0.1) / (4 * 0.1), _off(relative))
    count, _, _ = O.query_oracle("count", records, 0.0, 1.0, threshold=0.3)
    yield ("count query off by one", lambda v: O.check_query("count", v, count), 2.0, 3.0)
    yield ("clamped release below zero",
           lambda v: O.require_sign("ramp", v), 0.0, -1e-12)
    yield ("multiplicative release of zero",
           lambda v: O.require_sign("multiplicative", v, strict=True), 1e-300, 0.0)
    yield ("compare row with bias_bit off by 1e-6 relative",
           lambda r: O.check_compare_rows([r], eps, 1.0),
           _compare_row(q, eps, 1.0), _compare_row(q, eps, 1.0, bit_scale=1 + 1e-6))
    yield ("ratio at most 2",
           lambda r: O.check_compare_rows([r], 1.0, 1.0),
           _compare_row(0.0, 1.0, 1.0), _compare_row(0.0, 1.0, 1.0, ratio_scale=0.5))
    yield ("ratio at q = 3000 must be inf",
           lambda v: O.check_ratio(3000.0, 1.0, 1.0, v), math.inf, 1.7e308)
    cert_max = float(O.restricted_certificate_max(eps))
    yield ("restricted certificate passing at claimed eps",
           lambda r: O.check_certificate(r, eps, cert_max, False),
           {"epsilon_claimed": eps, "max_log_ratio_observed": cert_max, "passed": False},
           {"epsilon_claimed": eps, "max_log_ratio_observed": cert_max, "passed": True})
    yield ("restricted certificate maximum off by 1e-6 relative",
           lambda r: O.check_certificate(r, 2 * eps, cert_max, True),
           {"epsilon_claimed": 2 * eps, "max_log_ratio_observed": cert_max, "passed": True},
           {"epsilon_claimed": 2 * eps, "max_log_ratio_observed": _off(cert_max), "passed": True})
    radii = (10.0, 20.0, 40.0, 80.0, 160.0)
    yield ("boundary-scale moments off by 1e-6 relative",
           lambda r: O.check_divergence(r, 1.0, radii), _divergence(1.0, radii),
           _divergence(1.0, radii, scale=1 + 1e-6))
    yield ("boundary-scale divergence not flagged",
           lambda r: O.check_divergence(r, 1.0, radii), _divergence(1.0, radii),
           _divergence(1.0, radii, diverges=False))
    yield ("b < 1 moment flagged as divergent",
           lambda r: O.check_divergence(r, 0.5, radii[:4]), _divergence(0.5, radii[:4]),
           _divergence(0.5, radii[:4], diverges=True))
    m = 200_000
    coup = O.restricted_bias(0.0, 1.0)
    yield ("coupling gap off by 1e-3 relative (tolerance ~1.3e-4 b at m = 2e5)",
           lambda v: O.check_closed_abs("coupling", v, coup, O.coupling_tolerance(1.0, m)),
           float(coup) - 0.5 * O.coupling_tolerance(1.0, m), _off(coup, 1e-3))


def main() -> int:
    bad = 0
    for name, check, right, wrong in _cases():
        try:
            check(right)
        except O.CheckFailed as exc:
            print(f"FAIL {name}: rejected the right value: {exc}")
            bad += 1
            continue
        try:
            check(wrong)
        except O.CheckFailed:
            print(f"ok   {name}")
            continue
        print(f"FAIL {name}: accepted the wrong value {wrong!r}")
        bad += 1
    print(f"{bad} check(s) failed the self-test" if bad else "every check rejects its wrong value")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
