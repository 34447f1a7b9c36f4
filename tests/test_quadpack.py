"""The pure-Python QUADPACK against scipy's, bit for bit.

Every integral the package takes goes through ``quadpack.qags`` or
``quadpack.qagp``.  Each corpus case runs package code with both routines
recording their calls, then redoes every recorded call with
``scipy.integrate.quad(..., full_output=1)``: the value, the error
estimate, QUADPACK's status and the infodict's ``neval``, ``last``,
``alist``, ``blist``, ``rlist``, ``elist`` and ``iord`` must all be equal.
scipy's QUADPACK is the Fortran one in older releases, such as 1.13, and
a C translation in newer ones, such as 1.17; its ``iord`` counts from 1 in
the first and from 0 in the second, which the comparison reads off a
trivial integral.
"""

import math

import pytest
from scipy import integrate

from nonneg_dp import quadpack
from nonneg_dp.bias import expectation_postprocessed_quadrature, quadrature_bias
from nonneg_dp.mechanisms import (
    PostProcessor,
    PrivacyParams,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
)
from nonneg_dp.verify import check_divergence_log_laplace
from piecewise_linear import wavy_ramp

# quad's message for each non-zero ier.
_MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}
_IORD_BASE = integrate.quad(lambda x: 1.0, 0.0, 1.0, full_output=1)[2]["iord"][0]


def _scipy(f, a, b, points, epsabs, epsrel, limit):
    value, abserr, info, *message = integrate.quad(
        f, a, b, points=points or None, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = next(code for text, code in _MESSAGES.items() if message[0].startswith(text)) if message else 0
    last = info["last"]
    kept = last if last <= limit // 2 + 2 else limit + 1 - last
    return quadpack.Quadrature(value, abserr, ier, info["neval"], last, info["alist"][:last].tolist(),
                               info["blist"][:last].tolist(), info["rlist"][:last].tolist(),
                               info["elist"][:last].tolist(),
                               [int(i) - _IORD_BASE for i in info["iord"][:kept]])


def _recorded_calls(monkeypatch, run):
    """The (f, a, b, points, epsabs, epsrel, limit) of every integral ``run`` takes."""
    calls = []
    qags, qagp = quadpack.qags, quadpack.qagp

    def recording_qags(f, a, b, epsabs, epsrel, limit):
        calls.append((f, a, b, [], epsabs, epsrel, limit))
        return qags(f, a, b, epsabs, epsrel, limit)

    def recording_qagp(f, a, b, points, epsabs, epsrel, limit):
        calls.append((f, a, b, list(points), epsabs, epsrel, limit))
        return qagp(f, a, b, points, epsabs, epsrel, limit)

    monkeypatch.setattr(quadpack, "qags", recording_qags)
    monkeypatch.setattr(quadpack, "qagp", recording_qagp)
    try:
        run()
    except ValueError:
        pass   # the rejections are part of the corpus
    monkeypatch.undo()
    assert calls
    return calls


def _port(f, a, b, points, epsabs, epsrel, limit):
    if points:
        return quadpack.qagp(f, a, b, points, epsabs, epsrel, limit)
    return quadpack.qags(f, a, b, epsabs, epsrel, limit)


def _power(exponent):
    return lambda x: abs(x) ** exponent if x else 0.0


def _softplus(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _biases(make, qs, scale=1.0):
    spec = make(PrivacyParams(1.0, scale))
    return lambda: [quadrature_bias(spec, q) for q in qs]


def _interpolant(knot_count):
    def run():
        f, knots, _, _ = wavy_ramp(knot_count)
        spec = make_postprocessed_mechanism(PrivacyParams(1.0, 1.0), PostProcessor.custom(f, 1.0, knots))
        for q in (0.0, 7.5):
            quadrature_bias(spec, q)
    return run


QS = (0.0, 0.3, 2.0, 45.0)
CORPUS = {
    "laplace": _biases(make_laplace_mechanism, QS),
    "bit": _biases(lambda p: make_postprocessed_mechanism(p, PostProcessor.ramp()), QS),
    "ramp": _biases(lambda p: make_postprocessed_mechanism(p, PostProcessor.translated_ramp(0.35)), QS),
    # At q = 0 no breakpoint lies inside [0, 40]: QAGS.
    "restricted": _biases(make_restricted_mechanism, QS),
    # At b = 0.02 the breaks 1/b, 10/b and 40/b all lie past 40/(1 - b): QAGS.
    "multiplicative": lambda: [quadrature_bias(make_multiplicative_mechanism(1.0, k), q)
                               for k in (0.02, 0.3, 0.45) for q in (0.5, 3.0)],
    # q/b = 1e9 sets the roundoff counters.
    "large-q-over-b": lambda: [
        quadrature_bias(make(PrivacyParams(1.0, 1e-3)), 1e6)
        for make in (make_laplace_mechanism, make_restricted_mechanism,
                     lambda p: make_postprocessed_mechanism(p, PostProcessor.ramp()),
                     lambda p: make_postprocessed_mechanism(p, PostProcessor.translated_ramp(3.5e-4)))],
    # The V+ check at T = 20, 40, 80, ...
    "v-plus-softplus": lambda: PostProcessor.custom(_softplus, 1.0),
    "v-plus-square": lambda: PostProcessor.custom(lambda x: x * x, 1.0),
    "v-plus-power-0.4": lambda: PostProcessor.custom(_power(-0.4), 1.0),
    # f^2 is not integrable at 0: ier 5, probably divergent.
    "v-plus-power-1": lambda: PostProcessor.custom(_power(-1.0), 1.0),
    "v-plus-power-0.75": lambda: PostProcessor.custom(_power(-0.75), 1.0),
    # The mean of 1/|x| exhausts the subdivision limit (ier 1) when its pole
    # is a breakpoint, at q = 0, and flags a bad point (ier 3) at q = 1; that
    # of |x|^-1.2 at q = 0 is probably divergent (ier 5).
    "mean-power-1-at-zero": lambda: expectation_postprocessed_quadrature(
        PostProcessor(kind="custom", func=_power(-1.0)), 0.0, 1.0),
    "mean-power-1-at-one": lambda: expectation_postprocessed_quadrature(
        PostProcessor(kind="custom", func=_power(-1.0)), 1.0, 1.0),
    "mean-power-1.2-at-zero": lambda: expectation_postprocessed_quadrature(
        PostProcessor(kind="custom", func=_power(-1.2)), 0.0, 1.0),
    "softplus-bias": _biases(lambda p: make_postprocessed_mechanism(p, PostProcessor.custom(_softplus, 2.0)),
                             QS, 2.0),
    "interpolant-161": _interpolant(161),
    "interpolant-401": _interpolant(401),
    "divergence-moments": lambda: [check_divergence_log_laplace(b, (10.0, 20.0, 40.0, 80.0, 160.0))
                                   for b in (0.5, 1.0, 2.0)],
}


@pytest.mark.parametrize("case", CORPUS)
def test_port_equals_scipy_quad(case, monkeypatch):
    for f, a, b, points, epsabs, epsrel, limit in _recorded_calls(monkeypatch, CORPUS[case]):
        want = _scipy(f, a, b, points, epsabs, epsrel, limit)
        got = _port(f, a, b, points, epsabs, epsrel, limit)
        assert got == want, (case, a, b, len(points), limit)


def test_corpus_reaches_every_status_and_both_routines(monkeypatch):
    seen = set()
    for run in CORPUS.values():
        for f, a, b, points, epsabs, epsrel, limit in _recorded_calls(monkeypatch, run):
            seen.add((bool(points), _port(f, a, b, points, epsabs, epsrel, limit).ier))
    assert {(False, 0), (True, 0), (True, 1), (True, 2), (True, 3), (True, 5)} <= seen


@pytest.mark.parametrize("f,a,b,points", [
    (math.sqrt, 0.0, 1.0, []),
    (lambda x: math.log(x) if x > 0 else 0.0, 0.0, 1.0, []),
    (lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0, []),
    (lambda x: math.cos(100.0 * x), 0.0, 10.0, [3.0, 3.0 + 1e-9]),
    (lambda x: 1.0 / (x * x + 1e-12), -1.0, 1.0, []),
    (lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, [0.3]),
], ids=["sqrt", "log", "sin-1/x", "cosine-close-points", "peak", "power-0.9"])
@pytest.mark.parametrize("limit", [3, 50, 400])
def test_port_equals_scipy_beyond_the_package(f, a, b, points, limit):
    # Small limits exercise the shrinking sorted part of iord.
    assert _port(f, a, b, points, 1e-12, 1e-10, limit) == _scipy(f, a, b, points, 1e-12, 1e-10, limit)
