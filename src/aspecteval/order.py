"""Distance orders over tuple spaces and order-preserving weight assignments.

Tuples are embedded as integer coordinate vectors (the schema's scaled embed
values) and ranked by distance from the best tuple.  Each aspect gets one
column of steps, the best grade's value minus each grade's value, so a key is
a sum over the tuple's grades (squared steps for Euclidean, plain steps for
Manhattan) or their max (Chebyshev), in exact Python ints.  Ties form
equivalence classes, numbered by hashing: only the distinct keys are sorted.
Class 0 is closest to the best tuple.

An order is one key per class and a grid of class indices over the grade
grid.  The check that it extends Pareto dominance takes a suffix maximum of
that grid on reversed views, so it is linear in the grid size; the test
suite keeps the dense pairwise check as its oracle.  Members and dumps list
the grid's cells once, sorted by class in the smallest integer type that
holds the class count; a dump joins each class's slice of one flat list of
label prefixes (over all aspects but the last), last labels and separators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, MissingBestTuple, PolicyViolation
from .schema import AspectSchema, LabelTuple, TupleSpace, on_grid


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


@dataclass(frozen=True, eq=False)
class DistanceOrder:
    """Classes by increasing distance from the best tuple: one exact key per
    class, and a read-only int64 ``grid`` of class indices, -1 off the order."""

    metric: Metric
    schema: AspectSchema
    keys: tuple[int, ...]
    grid: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=np.int64)
        self.schema.check_grid(grid.shape)
        if grid.min() < -1 or grid.max() >= self.n_classes:
            raise ValueError(f"class indices must lie in [-1, {self.n_classes}), the keys' range")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    @property
    def n_classes(self) -> int:
        return len(self.keys)

    @property
    def classes(self) -> tuple[DistanceClass, ...]:
        """Each class with its members in descending lexicographic order of
        their grade indices, which makes dumps deterministic."""
        cells, spans = self._cells()
        members = list(zip(*np.array(np.unravel_index(cells, self.grid.shape)).tolist()))
        return tuple(DistanceClass(key, tuple(members[a:b])) for key, a, b in spans)

    def _cells(self) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """Flat grid indices of the members, class by class, each class in
        descending lexicographic order; and (key, start, end) per class."""
        cells = np.flatnonzero(self.grid >= 0)[::-1]
        cls = self.grid.ravel()[cells]
        ends = np.cumsum(np.bincount(cls, minlength=self.n_classes)).tolist()
        # numpy radix-sorts 8- and 16-bit keys when the sort is stable
        by_class = np.argsort(cls.astype(np.min_scalar_type(self.n_classes)), kind="stable")
        return cells[by_class], list(zip(self.keys, [0, *ends], ends))

    def class_of(self, t: LabelTuple) -> int:
        """Index of the class containing ``t`` (0 = closest to best)."""
        if on_grid(t, self.grid.shape) and (i := self.grid.item(t)) >= 0:
            return i
        raise KeyError(f"tuple {t!r} is not in this order")


def build_order(space: TupleSpace, schema: AspectSchema, metric: Metric) -> DistanceOrder:
    """Group the space by distance from the best tuple and sort the groups.

    The keys are a broadcast sum (max for Chebyshev) of per-aspect step
    columns in one object array, so keys of any size stay exact ints.  A
    set of the feasible keys is sorted, and a dict numbers the classes.
    """
    schema.check_grid(space.mask.shape)
    # the best tuple, every grade at its top, is the grid's last cell
    if not space.mask.item(-1):
        raise MissingBestTuple("tuple space does not contain the best tuple")
    power = 2 if metric is Metric.EUCLIDEAN else 1
    # each aspect's steps lie along its own axis: a column of shape
    # (n_grades, 1, ..., 1) that broadcasting aligns with the later axes
    steps = [
        np.array([(vals[-1] - v) ** power for v in vals], dtype=object).reshape(
            (-1,) + (1,) * (schema.n_aspects - 1 - axis)
        )
        for axis, vals in enumerate(schema.scaled_values)
    ]
    keys = functools.reduce(np.maximum if metric is Metric.CHEBYSHEV else np.add, steps)
    flat = keys[space.mask].tolist()
    distinct = sorted(set(flat))
    rank = dict(zip(distinct, range(len(distinct))))
    grid = np.full(space.mask.shape, -1, dtype=np.int64)
    grid[space.mask] = np.fromiter(map(rank.__getitem__, flat), np.int64, len(flat))
    return DistanceOrder(metric, schema, tuple(distinct), grid)


def check_extends_partial_order(order: DistanceOrder, schema: AspectSchema) -> bool:
    """True iff the order never ranks a dominated tuple above its dominator.

    Tuple b dominates a when b's embed value is at least a's on every
    aspect; b must then sit in a class no later than a's.  The check takes
    a running maximum of the order's class grid from the top grade down
    along every axis, on a reversed view, and on an axis whose embed values
    tie reads each tuple's cell with its grade lowered to the first grade
    of equal value, since equal values dominate each other.  That cell
    holds the latest class among the tuple's dominators.  Only grade and
    class indices enter numpy, so embed values of any size stay exact.
    """
    schema.check_grid(order.grid.shape)
    grid = order.grid
    for axis, vals in enumerate(schema.scaled_values):
        down = (slice(None),) * axis + (slice(None, None, -1),)
        grid = np.maximum.accumulate(grid[down], axis=axis)[down]
        if len(set(vals)) < len(vals):
            grid = grid.take([vals.index(v) for v in vals], axis=axis)
    return not ((grid > order.grid) & (order.grid >= 0)).any()


@dataclass(frozen=True)
class WeightAssignment:
    """Non-negative integer weight per class of ``order``, non-increasing
    with distance from the best tuple; a tuple weighs what its class does."""

    order: DistanceOrder
    per_class: tuple[int, ...]

    def of(self, t: LabelTuple) -> int:
        return self.per_class[self.order.class_of(t)]

    @property
    def is_binary(self) -> bool:
        return set(self.per_class) <= {0, 1}


def _class_weights(policy: str | Sequence[int], n_classes: int) -> list[int]:
    if isinstance(policy, str):
        name = policy.lower()
        if name == "distinct":
            return [n_classes - 1 - i for i in range(n_classes)]
        if name == "binary":
            if n_classes == 1:
                # A single class contains the all-worst tuple, which must
                # always weigh zero.
                return [0]
            cut = -(-n_classes // 2)  # ceil(n/2)
            return [1 if i < cut else 0 for i in range(n_classes)]
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
    if explicit[-1]:
        # otherwise a ranking of all-worst documents could score the maximum
        raise PolicyViolation(
            "explicit weights must give the last class, which holds the all-worst tuple, 0"
        )
    return explicit


def assign_weights(order: DistanceOrder, policy: str | Sequence[int]) -> WeightAssignment:
    """Turn a distance order into per-tuple gains.

    ``policy`` is ``"distinct"`` (class i of C gets C-1-i), ``"binary"``
    (1 for the top half of the classes, 0 below), or an explicit
    non-increasing list of non-negative integers, one per class, whose last
    entry is 0: the last class holds the all-worst tuple, which every
    policy weighs zero.
    """
    return WeightAssignment(order, tuple(_class_weights(policy, order.n_classes)))


def format_order_dump(order: DistanceOrder) -> str:
    """Render an order as one text line per class::

        class 0 dist 0 : hr,c
        class 1 dist 1 : fr,c;hr,pc

    A member's label is its prefix, the labels of all aspects but the last
    (read from one table over that smaller grid), then its last label.  One
    flat list holds prefix, last label and separator per member, and each
    line joins its slice of it, without a string per member.
    """
    *head, last = order.schema.aspects
    prefixes = [""]
    for aspect in head:
        prefixes = [p + label + "," for p in prefixes for label in aspect.labels]
    cells, spans = order._cells()
    prefix, grade = np.divmod(cells, last.n_grades)
    del cells
    # each temporary is dropped once stored: they set the dump's peak memory
    flat = [";"] * (3 * len(prefix))
    flat[0::3] = np.array(prefixes, dtype=object)[prefix].tolist()
    del prefix
    flat[1::3] = np.array(last.labels, dtype=object)[grade].tolist()
    del grade
    lines = [
        f"class {i} dist {k} : " + "".join(flat[3 * a : 3 * b - 1])
        for i, (k, a, b) in enumerate(spans)
    ]
    del flat
    lines.append("")  # the final newline, without a copy of the whole dump
    return "\n".join(lines)
