"""Workload ``release``: one private release of one statistic per operation.

Set-up draws from the seed a pool of (dataset, query, mechanism) items and
their reference values; each timed operation takes the next item, evaluates
its query, takes its sensitivity (and, for the multiplicative mechanism, the
relative bound of a mean with a positive lower bound), builds the mechanism
and makes one scalar draw.  A run is whole passes over the pool.

Item make-up (per mechanism, ``ITEMS_PER_MECHANISM`` items):
  * queries cycle count / sum / mean over 16..256 records;
  * the Laplace scale b is log-uniform on [1e-3, 1e3] (count queries:
    [0.1, 25], since their value is an integer at most n), and q/b is
    uniform on [0, 10], with q = 0 exactly on the first item;
  * multiplicative items are means over [u/2, u], u log-uniform on
    [1e-2, 1e2], so K = 1/n, with log-domain scale b uniform on
    [0.02, 0.2] (K < eps/2 holds since b < 1/2).

Checks: each query value, sensitivity and relative bound against exact
``Fraction`` arithmetic; each translation against b*W(1/2); each output's
sign; and, at the end, for every mechanism the self-normalised sum of
(draw - reference mean)/scale within ``Z_MAX``.
"""

from __future__ import annotations

import math
import random
import resource
import types
from typing import NamedTuple

import oracles as O
from nonneg_dp import bias, distributions, mechanisms, queries

MECHANISMS = ("plain", "ramp", "translated_ramp", "restricted_inverse",
              "restricted_rejection", "multiplicative", "custom")
ITEMS_PER_MECHANISM = 16
KINDS = ("count", "sum", "mean")
# Scale of the post-processor's V+ check, done once in set-up.
CUSTOM_SCALE = 1.0


class Item(NamedTuple):
    mechanism: str
    query: object       # QueryDescriptor
    dataset: object     # Dataset
    bounds: tuple
    epsilon: float
    value: object       # exact query value (Fraction)
    sens: object        # exact sensitivity (Fraction)
    relative: object    # exact relative bound, or None
    scale: float        # Laplace scale the program will use
    mean: float         # reference mean of one draw
    spread: float       # normaliser of (draw - mean)


def _data(rng: random.Random, kind: str, mechanism: str, first: bool):
    """Records, bounds, threshold and target scale for one item."""
    n = rng.randint(16, 256)
    if mechanism == "multiplicative":
        u = 10 ** rng.uniform(-2, 2)
        records = [u / 2 + (u / 2) * rng.random() for _ in range(n)]
        return "mean", records, (u / 2, u), 0.0, rng.uniform(0.02, 0.2)
    ratio = 0.0 if first else rng.uniform(0.0, 10.0)
    if kind == "count":
        b = 10 ** rng.uniform(-1, math.log10(25))
        above = min(n, round(ratio * b))
        records = [0.5 + 0.5 * rng.random() for _ in range(above)]
        records += [0.5 * rng.random() for _ in range(n - above)]
        rng.shuffle(records)
        return kind, records, (0.0, 1.0), 0.5, b
    b = 10 ** rng.uniform(-3, 3)
    unit = [rng.random() for _ in range(n)]
    unit_query = sum(unit) if kind == "sum" else sum(unit) / n
    u = ratio * b / unit_query if ratio > 0 else 1.0
    records = [u * v for v in unit] if ratio > 0 else [0.0] * n
    return kind, records, (0.0, u), 0.0, b


def _reference(mechanism: str, q: float, b: float, alpha: float) -> tuple[float, float]:
    if mechanism == "plain":
        return q, b
    if mechanism == "ramp":
        return float(O.ramp_bias(q, b)) + q, b
    if mechanism == "translated_ramp":
        return float(O.translated_ramp_bias(q, alpha, b)) + q, b
    if mechanism.startswith("restricted"):
        return float(O.restricted_bias(q, b)) + q, b
    if mechanism == "multiplicative":
        return float(O.multiplicative_bias(q, b)) + q, q * b
    return O.softplus_mean_fast(q, b), b


def _build_item(rng: random.Random, mechanism: str, index: int) -> Item:
    kind = KINDS[index % len(KINDS)]
    kind, records, bounds, threshold, b = _data(rng, kind, mechanism, index == 0)
    qd = queries.QueryDescriptor(queries.QueryKind(kind), threshold=threshold)
    dataset = queries.Dataset(tuple(records), *bounds)
    value, sens, relative = O.query_oracle(kind, records, *bounds, threshold=threshold)
    if mechanism == "multiplicative":
        epsilon = float(relative) / b
        scale = float(relative) / epsilon
    else:
        epsilon = float(sens) / b
        scale = float(sens) / epsilon
    alpha = float(O.optimal_alpha(scale))
    mean, spread = _reference(mechanism, float(value), scale, alpha)
    return Item(mechanism, qd, dataset, bounds, epsilon, value, sens, relative, scale, mean, spread)


def setup(seed: int, out_dir):
    rng = random.Random(seed)
    pool = [_build_item(rng, mechanism, i)
            for i in range(ITEMS_PER_MECHANISM) for mechanism in MECHANISMS]
    state = types.SimpleNamespace(
        pool=pool,
        custom=mechanisms.PostProcessor.custom(O.softplus, CUSTOM_SCALE),
        rng=distributions.RngState(seed),
        sums={m: [0, 0.0, 0.0] for m in MECHANISMS},
        tracer=None,
    )
    for _, run, check in cycle(state, 0):  # warm-up: one untimed pass, checked too
        check(run())
    return state


def _release(state, item: Item):
    """What a user does for one private release: value, scale, spec, draw."""
    value = queries.evaluate_query(item.query, item.dataset)
    sens = queries.sensitivity(item.query, item.bounds, len(item.dataset))
    alpha = relative = None
    if item.mechanism == "multiplicative":
        relative = queries.relative_bound_K(item.query, item.bounds, len(item.dataset))
        spec = mechanisms.make_multiplicative_mechanism(item.epsilon, relative)
    else:
        privacy = mechanisms.PrivacyParams(item.epsilon, sens)
        if item.mechanism == "plain" or item.mechanism.startswith("restricted"):
            spec = (mechanisms.make_laplace_mechanism(privacy) if item.mechanism == "plain"
                    else mechanisms.make_restricted_mechanism(privacy))
        elif item.mechanism == "ramp":
            spec = mechanisms.make_postprocessed_mechanism(privacy, mechanisms.PostProcessor.ramp())
        elif item.mechanism == "translated_ramp":
            alpha = bias.optimal_alpha(privacy.scale)
            spec = mechanisms.make_postprocessed_mechanism(
                privacy, mechanisms.PostProcessor.translated_ramp(alpha))
        else:
            spec = mechanisms.make_postprocessed_mechanism(privacy, state.custom)
    if item.mechanism == "restricted_rejection":
        draw = mechanisms.sample_restricted_rejection(
            distributions.LaplaceDist(value, spec.scale), state.rng)
    else:
        draw = mechanisms.sample_mechanism(spec, value, state.rng)
    return value, sens, relative, alpha, draw


def _checker(state, item: Item):
    def check(result):
        value, sens, relative, alpha, draw = result
        O.check_query("query value", value, item.value)
        O.check_query("sensitivity", sens, item.sens)
        if relative is not None:
            O.check_query("relative bound", relative, item.relative)
        if alpha is not None:
            O.check_alpha(alpha, item.scale)
        if item.mechanism == "multiplicative":
            O.require_sign(item.mechanism, draw, strict=True)
        elif item.mechanism == "plain":
            O.require_sign(item.mechanism, draw, finite_only=True)
        else:
            O.require_sign(item.mechanism, draw)
        acc = state.sums[item.mechanism]
        d = (draw - item.mean) / item.spread
        acc[0] += 1
        acc[1] += d
        acc[2] += d * d
    return check


def cycle(state, k: int):
    return [(f"release:{item.mechanism}", lambda item=item: _release(state, item),
             _checker(state, item)) for item in state.pool]


def finish(state) -> None:
    for mechanism, (count, total, squares) in state.sums.items():
        O.require_self_normalised(f"release mean of {mechanism} over {count} draws", total, squares)


def peak_rss_kb(state) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def close(state) -> None:
    pass
