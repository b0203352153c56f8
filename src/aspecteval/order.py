"""Distance orders over tuple spaces and order-preserving weight assignments.

Tuples are embedded as integer coordinate vectors (the schema's scaled embed
values) and ranked by distance from the best tuple.  Each aspect gets one
table of steps, the best grade's value minus each grade's value, so a key is
a sum over the tuple's grades (squared steps for Euclidean, plain steps for
Manhattan) or their max (Chebyshev), in exact integers.  Ties form
equivalence classes; class 0 is closest to the best tuple.

The check that an order extends Pareto dominance takes a suffix maximum of
class indices over the grade grid, so it is linear in the grid size; the
test suite keeps the dense pairwise check as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import getitem
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, MissingBestTuple, PolicyViolation
from .schema import AspectSchema, LabelTuple, TupleSpace

T = TypeVar("T")
R = TypeVar("R")


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    CHEBYSHEV = "chebyshev"

    @classmethod
    def parse(cls, name: str) -> "Metric":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigError(
                f"unknown metric {name!r} (expected one of: {valid})"
            ) from None

    @property
    def short(self) -> str:
        return {"euclidean": "EUCL", "manhattan": "MANH", "chebyshev": "CHEB"}[self.value]


@dataclass(frozen=True)
class DistanceClass:
    """One equivalence class: tuples at the same distance from the best tuple."""

    key: int
    members: tuple[LabelTuple, ...]


@dataclass(frozen=True)
class DistanceOrder:
    """Equivalence classes sorted by increasing distance from the best tuple."""

    metric: Metric
    schema: AspectSchema
    classes: tuple[DistanceClass, ...]
    _index: dict[LabelTuple, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {
            t: i for i, cls in enumerate(self.classes) for t in cls.members
        }
        object.__setattr__(self, "_index", index)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_of(self, t: LabelTuple) -> int:
        """Index of the class containing ``t`` (0 = closest to best)."""
        try:
            return self._index[t]
        except KeyError:
            raise KeyError(f"tuple {t!r} is not in this order") from None


def _table_lookup(
    tables: Sequence[Mapping[int, T]],
    tuples: Iterable[LabelTuple],
    schema: AspectSchema,
    combine: Callable[[Iterable[T]], R] = sum,
) -> Iterator[R]:
    """Yield ``combine(tables[i][t[i]] for each aspect i)`` for every tuple ``t``.

    The tables are keyed by grade index, so a grade outside an aspect's
    range, negative ones included, misses instead of wrapping around; such a
    tuple, or one of the wrong length, raises as ``schema.check_tuple`` does.
    """
    for t in tuples:
        if len(t) != len(tables):
            schema.check_tuple(t)
        try:
            value = combine(map(getitem, tables, t))
        except KeyError:
            schema.check_tuple(t)
            raise
        yield value


def build_order(space: TupleSpace, schema: AspectSchema, metric: Metric) -> DistanceOrder:
    """Group the space by distance from the best tuple and sort the groups.

    Members within a class are stored in descending lexicographic order of
    their grade indices, which makes dumps and comparisons deterministic.
    """
    if schema.best_tuple not in space:
        raise MissingBestTuple("tuple space does not contain the best tuple")
    power = 2 if metric is Metric.EUCLIDEAN else 1
    steps = [
        {g: (vals[-1] - v) ** power for g, v in enumerate(vals)}
        for vals in schema.scaled_values
    ]
    combine = max if metric is Metric.CHEBYSHEV else sum
    groups: dict[int, list[LabelTuple]] = {}
    for key, t in zip(_table_lookup(steps, space, schema, combine), space):
        groups.setdefault(key, []).append(t)
    classes = tuple(
        DistanceClass(key, tuple(sorted(groups[key], reverse=True)))
        for key in sorted(groups)
    )
    return DistanceOrder(metric, schema, classes)


def check_extends_partial_order(order: DistanceOrder, schema: AspectSchema) -> bool:
    """True iff the order never ranks a dominated tuple above its dominator.

    Tuple b dominates a when b's embed value is at least a's on every
    aspect; b must then sit in a class no later than a's.  The check writes
    each tuple's class index into a grid over all grade combinations (-1
    where the order has no tuple), takes a running maximum from the top
    grade down along every axis, and reads each tuple's cell with every
    grade lowered to the first grade of equal embed value, since equal
    values dominate each other.  That cell holds the latest class among the
    tuple's dominators.  Only grade and class indices enter numpy, so embed
    values of any size stay exact.
    """
    dims = tuple(a.n_grades for a in schema.aspects)
    offsets = [
        {g: g * math.prod(dims[i + 1 :]) for g in range(n)} for i, n in enumerate(dims)
    ]
    # one entry per distinct tuple, with the class that class_of reports
    index = order._index
    at = np.fromiter(_table_lookup(offsets, index, schema), dtype=np.intp, count=len(index))
    cls = np.fromiter(index.values(), dtype=np.int64, count=len(index))
    grid = np.full(math.prod(dims), -1, dtype=np.int64)
    grid[at] = cls
    grid = grid.reshape(dims)
    for axis, vals in enumerate(schema.scaled_values):
        grid = np.flip(np.maximum.accumulate(np.flip(grid, axis), axis=axis), axis)
        grid = grid.take([vals.index(v) for v in vals], axis=axis)
    return bool((grid.reshape(-1)[at] <= cls).all())


_DISTINCT = "distinct"
_BINARY = "binary"


@dataclass(frozen=True)
class WeightAssignment:
    """Non-negative integer weight per class of ``order``, non-increasing
    with distance from the best tuple; a tuple weighs what its class does."""

    policy: str
    order: DistanceOrder
    per_class: tuple[int, ...]

    def of(self, t: LabelTuple) -> int:
        return self.per_class[self.order.class_of(t)]

    @property
    def is_binary(self) -> bool:
        return set(self.per_class) <= {0, 1}


def _class_weights(policy: str | Sequence[int], n_classes: int) -> tuple[str, list[int]]:
    if isinstance(policy, str):
        name = policy.lower()
        if name == _DISTINCT:
            return _DISTINCT, [n_classes - 1 - i for i in range(n_classes)]
        if name == _BINARY:
            if n_classes == 1:
                # A single class contains the all-worst tuple, which must
                # always weigh zero.
                return _BINARY, [0]
            cut = -(-n_classes // 2)  # ceil(n/2)
            return _BINARY, [1 if i < cut else 0 for i in range(n_classes)]
        raise PolicyViolation(f"unknown weight policy {policy!r}")
    explicit = list(policy)
    if len(explicit) != n_classes:
        raise PolicyViolation(
            f"explicit weights: expected {n_classes} values, got {len(explicit)}"
        )
    for w in explicit:
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise PolicyViolation("explicit weights must be non-negative integers")
    for hi, lo in zip(explicit, explicit[1:]):
        if lo > hi:
            raise PolicyViolation("explicit weights must not increase with distance")
    return "explicit", explicit


def assign_weights(order: DistanceOrder, policy: str | Sequence[int]) -> WeightAssignment:
    """Turn a distance order into per-tuple gains.

    ``policy`` is ``"distinct"`` (class i of C gets C-1-i), ``"binary"``
    (1 for the top half of the classes, 0 below), or an explicit
    non-increasing list of non-negative integers, one per class.
    """
    name, per_class = _class_weights(policy, order.n_classes)
    return WeightAssignment(name, order, tuple(per_class))


def format_order_dump(order: DistanceOrder) -> str:
    """Render an order as one text line per class::

        class 0 dist 0 : hr,c
        class 1 dist 1 : fr,c;hr,pc
    """
    # what schema.format_tuple renders, without its per-tuple check_tuple
    schema = order.schema
    labels = [dict(enumerate(a.labels)) for a in schema.aspects]
    lines = [
        f"class {i} dist {cls.key} : "
        + ";".join(_table_lookup(labels, cls.members, schema, ",".join))
        for i, cls in enumerate(order.classes)
    ]
    return "\n".join(lines) + "\n"
