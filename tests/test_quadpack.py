"""The pure-Python QUADPACK against scipy's, bit for bit.

Every integral the package takes goes through ``quadpack.qagp``, with or
without breakpoints.  Each corpus case runs package code with ``qagp``
recording its calls, then redoes every recorded call with
``scipy.integrate.quad(..., points=points, full_output=1)``: the value, the
error estimate, QUADPACK's status and the infodict's ``neval``, ``last``,
``alist``, ``blist``, ``rlist``, ``elist`` and ``iord`` must all be equal.
quad runs QAGP whenever ``points`` is given, even empty, and QAGS only
without it; a seeded randomized comparison covers integrands beyond the
package's, and a pinned case keeps that reason for passing ``points``
checked.  scipy's QUADPACK is the Fortran one in older releases, such as
1.13, and a C translation in newer ones, such as 1.17; its ``iord`` counts
from 1 in the first and from 0 in the second, which the comparison reads
off a trivial integral.
"""

import math
import random

import pytest
from scipy import integrate

from nonneg_dp import quadpack
from nonneg_dp.bias import expectation_postprocessed_quadrature, quadrature_bias
from nonneg_dp.mechanisms import (
    PostProcessor,
    PrivacyParams,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
)
from nonneg_dp.verify import check_divergence_log_laplace
from reference import softplus, wavy_ramp

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
        f, a, b, points=points, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
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
    qagp = quadpack.qagp

    def recording_qagp(f, a, b, points, epsabs, epsrel, limit):
        calls.append((f, a, b, list(points), epsabs, epsrel, limit))
        return qagp(f, a, b, points, epsabs, epsrel, limit)

    monkeypatch.setattr(quadpack, "qagp", recording_qagp)
    try:
        run()
    except ValueError:
        pass   # the rejections are part of the corpus
    monkeypatch.undo()
    assert calls
    return calls


def _power(exponent):
    return lambda x: abs(x) ** exponent if x else 0.0


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
    "bit": _biases(lambda p: make_postprocessed_mechanism(p, PostProcessor.ramp()), QS),
    "ramp": _biases(lambda p: make_postprocessed_mechanism(p, PostProcessor.translated_ramp(0.35)), QS),
    # At q = 0 no breakpoint lies inside [0, 40].
    "restricted": _biases(make_restricted_mechanism, QS),
    # At b = 0.02 the breaks 1/b, 10/b and 40/b all lie past 40/(1 - b): no breakpoint.
    "multiplicative": lambda: [quadrature_bias(make_multiplicative_mechanism(1.0, k), q)
                               for k in (0.02, 0.3, 0.45) for q in (0.5, 3.0)],
    # q/b = 1e9 sets the roundoff counters.
    "large-q-over-b": lambda: [
        quadrature_bias(make(PrivacyParams(1.0, 1e-3)), 1e6)
        for make in (make_restricted_mechanism,
                     lambda p: make_postprocessed_mechanism(p, PostProcessor.ramp()),
                     lambda p: make_postprocessed_mechanism(p, PostProcessor.translated_ramp(3.5e-4)))],
    # The V+ check at T = 20, 40, 80, ...
    "v-plus-softplus": lambda: PostProcessor.custom(softplus, 1.0),
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
    "softplus-bias": _biases(lambda p: make_postprocessed_mechanism(p, PostProcessor.custom(softplus, 2.0)),
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
        got = quadpack.qagp(f, a, b, points, epsabs, epsrel, limit)
        assert got == want, (case, a, b, len(points), limit)


def test_corpus_reaches_every_status_with_and_without_breakpoints(monkeypatch):
    seen = set()
    for run in CORPUS.values():
        for f, a, b, points, epsabs, epsrel, limit in _recorded_calls(monkeypatch, run):
            seen.add((bool(points), quadpack.qagp(f, a, b, points, epsabs, epsrel, limit).ier))
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
    assert quadpack.qagp(f, a, b, points, 1e-12, 1e-10, limit) == _scipy(f, a, b, points, 1e-12, 1e-10, limit)


def _random_integrand(rng, c):
    """One of six integrand families, with its singularity, peak or kink at c."""
    family = rng.randrange(6)
    if family == 0:
        s = rng.uniform(-1.5, 1.5)
        return lambda x: abs(x - c) ** s if x != c else 0.0
    if family == 1:
        width2 = 10.0 ** rng.uniform(-12.0, -2.0)
        return lambda x: 1.0 / ((x - c) ** 2 + width2)
    if family == 2:
        return lambda x: math.sin(1.0 / (x - c)) if x != c else 0.0
    if family == 3:
        return lambda x: math.log(abs(x - c)) if x != c else 0.0
    if family == 4:
        k = rng.uniform(1.0, 300.0)
        return lambda x: math.cos(k * x)
    rate = rng.uniform(0.1, 50.0)
    return lambda x: math.exp(-rate * abs(x - c)) * (2.0 if x > c else 1.0)


RANDOM_CASES = 300


@pytest.mark.parametrize("seed", range(RANDOM_CASES))
def test_port_equals_scipy_on_random_integrals(seed):
    """A random integrand over a random interval, with no breakpoint half of
    the time and otherwise up to limit - 1 of them (the point c among
    them or not), at limit 3, 10, 50 or 400 and epsrel 1e-10 or 1e-6."""
    rng = random.Random(seed)
    a = rng.uniform(-5.0, 5.0)
    b = a + 10.0 ** rng.uniform(-2.0, 1.0)
    c = rng.choice([a, b, rng.uniform(a, b)])
    f = _random_integrand(rng, c)
    limit = rng.choice([3, 10, 50, 400])
    points = []
    if rng.random() < 0.5:
        candidates = [rng.uniform(a, b) for _ in range(rng.randint(1, min(limit - 1, 5)))]
        if a < c < b and rng.random() < 0.5:
            candidates[0] = c
        points = sorted(set(candidates))
    epsrel = rng.choice([1e-10, 1e-6])
    got = quadpack.qagp(f, a, b, points, 1e-12, epsrel, limit)
    assert got == _scipy(f, a, b, points, 1e-12, epsrel, limit), (seed, got.ier, got.last)


def test_empty_points_run_qagp_not_qags():
    # quad without points runs QAGS, which bisects this integrand once more
    # than QAGP does; the package integrates as quad with points=[].
    f = lambda x: 1e-14 * math.sin(50.0 * x)
    got = quadpack.qagp(f, 0.0, 1.0, [], 1e-12, 1e-10, 400)
    assert got == _scipy(f, 0.0, 1.0, [], 1e-12, 1e-10, 400)
    assert (got.last, got.neval) == (1, 21)
    assert integrate.quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=400, full_output=1)[2]["last"] == 2
