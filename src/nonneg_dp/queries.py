"""Datasets, query statistics, and their sensitivity bounds.

Supports three nonnegative real-valued statistics over a fixed-size dataset
of bounded records: count-above-threshold, bounded sum, and bounded mean.
Adjacency is replace-one-record: two datasets of the same size are adjacent
when they differ in at most one coordinate, both staying within the declared
bounds.

Two worst-case constants matter downstream:

* the additive sensitivity ``max |Q(d) - Q(d')|`` over adjacent pairs, which
  calibrates additive Laplace noise, and
* the relative bound ``max |Q(d) - Q(d')| / min(Q(d), Q(d'))``, which
  calibrates the multiplicative (log-domain) mechanism and is infinite as
  soon as the query can get arbitrarily close to zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "QueryKind",
    "QueryDescriptor",
    "Dataset",
    "evaluate_query",
    "sensitivity",
    "relative_bound_K",
    "load_records",
]


class QueryKind(enum.Enum):
    COUNT_ABOVE_THRESHOLD = "count"
    BOUNDED_SUM = "sum"
    BOUNDED_MEAN = "mean"


@dataclass(frozen=True)
class QueryDescriptor:
    """A query statistic plus the parameters needed to evaluate it.

    ``threshold`` applies to count queries only.  ``count_floor`` optionally
    declares a guaranteed minimum count (at least 1), without which the
    relative bound of a count query is infinite.
    """

    kind: QueryKind
    threshold: float = 0.0
    count_floor: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.count_floor is not None and self.count_floor < 1:
            raise ValueError("count_floor must be at least 1")


@dataclass(frozen=True)
class Dataset:
    """Ordered records constrained to [lower, upper], or (lower, upper] when
    ``lower_open`` is set."""

    records: tuple[float, ...]
    lower: float
    upper: float
    lower_open: bool = False

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise ValueError("bounds must satisfy lower <= upper")
        for r in self.records:
            if not math.isfinite(r):
                raise ValueError("non-finite record")
            inside = (self.lower < r) if self.lower_open else (self.lower <= r)
            if not (inside and r <= self.upper):
                raise ValueError(f"record {r} outside declared bounds")

    def __len__(self) -> int:
        return len(self.records)

    def replace(self, index: int, value: float) -> "Dataset":
        """Adjacent dataset with record ``index`` replaced by ``value``."""
        records = list(self.records)
        records[index] = value
        return Dataset(tuple(records), self.lower, self.upper, self.lower_open)


def evaluate_query(qd: QueryDescriptor, d: Dataset) -> float:
    """Evaluate the statistic; nonnegative whenever the lower bound is >= 0.
    A count below its declared ``count_floor`` is a ValueError."""
    if qd.kind is QueryKind.COUNT_ABOVE_THRESHOLD:
        count = sum(1 for r in d.records if r >= qd.threshold)
        if qd.count_floor is not None and count < qd.count_floor:
            raise ValueError(f"count {count} is below its declared count_floor {qd.count_floor}")
        return float(count)
    if len(d) == 0:
        raise ValueError("undefined query: mean/sum of empty dataset")
    total = math.fsum(d.records)
    if qd.kind is QueryKind.BOUNDED_SUM:
        return total
    return total / len(d)


def _checked_bounds(bounds: tuple[float, float], n: int) -> tuple[float, float]:
    """The bounds of a dataset of size n >= 1; nan bounds fail, as in :class:`Dataset`."""
    lower, upper = bounds
    if n < 1:
        raise ValueError("dataset size must be at least 1")
    if not (lower <= upper):
        raise ValueError("bounds must satisfy lower <= upper")
    return lower, upper


def sensitivity(qd: QueryDescriptor, bounds: tuple[float, float], n: int) -> float:
    """Worst-case |Q(d) - Q(d')| over replace-one adjacent pairs.

    count -> 1, bounded sum -> (u - l), bounded mean -> (u - l)/n.
    """
    lower, upper = _checked_bounds(bounds, n)
    if qd.kind is QueryKind.COUNT_ABOVE_THRESHOLD:
        return 1.0
    if qd.kind is QueryKind.BOUNDED_SUM:
        return upper - lower
    return (upper - lower) / n


def relative_bound_K(qd: QueryDescriptor, bounds: tuple[float, float], n: int) -> float:
    """Tight worst case of |Q(d) - Q(d')| / min(Q(d), Q(d')) over adjacent pairs.

    For sum and mean the ratio is scale-free and maximised by pushing every
    other record to the lower bound, giving (u - l)/(n*l) when l > 0.  A lower
    bound of zero (open or closed) lets the query approach zero, so no finite
    bound exists.  Count queries admit a finite bound only when a strictly
    positive floor on the count is declared, in which case it is 1/floor.
    Infinity is returned in-band, never raised.
    """
    lower, upper = _checked_bounds(bounds, n)
    if qd.kind is QueryKind.COUNT_ABOVE_THRESHOLD:
        if qd.count_floor is None:
            return math.inf
        return 1.0 / qd.count_floor
    if lower <= 0.0:
        return math.inf
    return (upper - lower) / (n * lower)


def load_records(path) -> tuple[float, ...]:
    """Read newline-delimited decimal values; blank lines are ignored."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a decimal value: {text!r}") from exc
    return tuple(values)
