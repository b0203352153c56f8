"""Distance orders over tuple spaces and order-preserving weight assignments.

Tuples are embedded as integer coordinate vectors (the schema's scaled embed
values) and ranked by distance from the best tuple.  Each aspect gets one
column of steps, the best grade's value minus each grade's value, so a key is
a sum over the tuple's grades (squared steps for Euclidean, plain steps for
Manhattan) or their max (Chebyshev), in exact Python ints.  Ties form
equivalence classes, numbered by hashing: only the distinct keys are sorted.
Class 0 is closest to the best tuple.  Keys are made a slab at a time, whole
rows of the first axis of at most a fixed number of cells, so beside the
grid only one slab's Python ints are held at once.

An order is one key per class and a grid of class indices over the grade
grid.  The check that it extends Pareto dominance takes a suffix maximum of
that grid on reversed views, so it is linear in the grid size; the test
suite keeps the dense pairwise check as its oracle.  A dump lists the
grid's cells once, sorted by class in the smallest integer type that holds
the class count, and streams: each piece of at most a fixed number
of members joins one flat list of four slots per member: a separator (class
headers and line ends at class boundaries), two label prefixes (read from
one table over the first half of the aspects before the last and one over
the rest) and the last label.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MissingBestTuple, PolicyViolation
from .schema import Aspect, AspectSchema, LabelTuple, TupleSpace, on_grid

# Members per piece of an order dump: each piece's working lists and its
# text grow with this, not with the order.
_DUMP_MEMBERS = 8192
# Cells per slab of the object keys build_order makes at once: a slab is
# whole rows of the first axis, one row at least.
_SLAB_CELLS = 8192


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    CHEBYSHEV = "chebyshev"

    @property
    def short(self) -> str:
        return {"euclidean": "EUCL", "manhattan": "MANH", "chebyshev": "CHEB"}[self.value]


@dataclass(frozen=True, eq=False)
class DistanceOrder:
    """Classes by increasing distance from the best tuple: one exact key per
    class, and a read-only int64 ``grid`` of class indices, -1 off the order."""

    metric: Metric
    schema: AspectSchema
    keys: tuple[int, ...]
    grid: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=np.int64)  # a copy the caller cannot change
        self.schema.check_grid(grid.shape)
        # min and max allocate nothing the size of the grid
        if grid.min() < -1 or grid.max() >= self.n_classes:
            raise ValueError(f"class indices must lie in [-1, {self.n_classes}), the keys' range")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    @property
    def n_classes(self) -> int:
        return len(self.keys)

    def _cells(self) -> tuple[np.ndarray, Iterator[tuple[int, int, int]]]:
        """Flat grid indices of the members, class by class, each class in
        descending lexicographic order; and an iterator of (key, start, end)
        per class, so no tuple per class is kept."""
        cells = np.flatnonzero(self.grid >= 0)[::-1]
        # the class column in the smallest type that holds the class count:
        # numpy radix-sorts 8- and 16-bit keys when the sort is stable
        cls = self.grid.ravel()[cells].astype(np.min_scalar_type(self.n_classes))
        ends = np.cumsum(np.bincount(cls, minlength=self.n_classes)).tolist()
        by_class = np.argsort(cls, kind="stable")
        del cls  # freed first: permuting the members sets the peak
        return cells[by_class], zip(self.keys, itertools.chain((0,), ends), ends)

    def class_of(self, t: LabelTuple) -> int:
        """Index of the class containing ``t`` (0 = closest to best)."""
        if on_grid(t, self.grid.shape) and (i := self.grid.item(t)) >= 0:
            return i
        raise KeyError(f"tuple {t!r} is not in this order")


def build_order(space: TupleSpace, schema: AspectSchema, metric: Metric) -> DistanceOrder:
    """Group the space by distance from the best tuple and sort the groups.

    The keys are an outer sum (max for Chebyshev) of per-aspect step
    columns in object arrays, so keys of any size stay exact ints.  They are
    made one slab at a time, whole rows of the first axis of at most
    ``_SLAB_CELLS`` cells (one row at least).  A first pass adds each slab's
    feasible keys to a set, which is sorted, and a dict numbers the classes.
    A second pass, from the last slab back, fills the grid with class
    indices; it reuses the last slab's keys, so a grid of one slab makes its
    keys once.
    """
    mask = space.mask
    schema.check_grid(mask.shape)
    # the best tuple, every grade at its top, is the grid's last cell
    if not mask.item(-1):
        raise MissingBestTuple("tuple space does not contain the best tuple")
    power = 2 if metric is Metric.EUCLIDEAN else 1
    # one column of steps per aspect; each outer sum (max for Chebyshev)
    # adds the next aspect's axis
    first, *rest = [
        np.array([(vals[-1] - v) ** power for v in vals], dtype=object)
        for vals in schema.scaled_values
    ]
    combine = (np.maximum if metric is Metric.CHEBYSHEV else np.add).outer
    rows = _SLAB_CELLS * len(first) // mask.size or 1
    # each slab's first row, steps and feasible cells; one slab is unsliced
    slabs = [(0, first, mask)] if rows >= len(first) else [
        (at, first[at : at + rows], mask[at : at + rows]) for at in range(0, len(first), rows)
    ]

    def feasible_keys(steps: np.ndarray, feasible: np.ndarray) -> list[int]:
        # the slab's key array is dropped as soon as it is masked
        return functools.reduce(combine, rest, steps)[feasible].tolist()

    distinct: set[int] = set()
    for _, steps, feasible in slabs:
        flat = feasible_keys(steps, feasible)
        distinct.update(flat)
    keys = sorted(distinct)
    del distinct
    rank = dict(zip(keys, range(len(keys))))
    grid = np.empty(mask.shape, dtype=np.int64)
    grid.fill(-1)  # np.full's Python wrapper costs more than a small grid's fill
    for at, steps, feasible in reversed(slabs):
        if flat is None:
            flat = feasible_keys(steps, feasible)
        grid[at : at + rows][feasible] = np.fromiter(map(rank.__getitem__, flat), np.int64, len(flat))
        flat = None  # freed before the next slab's keys are made
    del rank
    return DistanceOrder(metric, schema, tuple(keys), grid)


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
    with distance from the best tuple; tuple ``t`` weighs
    ``per_class[order.class_of(t)]``."""

    order: DistanceOrder
    per_class: tuple[int, ...]

    @property
    def is_binary(self) -> bool:
        return set(self.per_class) <= {0, 1}


def _class_weights(policy: str | Sequence[int], n_classes: int) -> list[int]:
    if isinstance(policy, str):
        if policy == "distinct":
            return [n_classes - 1 - i for i in range(n_classes)]
        if policy == "binary":
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


def _boundaries(spans: Iterable[tuple[int, int, int]]) -> Iterator[tuple[int, str]]:
    """(member index, text) per class boundary, in order: the text a dump
    puts before that member, or after the last member at the member count.
    Each class writes its header at its first member and its line end after
    its last one, so the text of an empty class joins its neighbours'."""
    at, text = 0, ""
    for i, (key, _, end) in enumerate(spans):  # contiguous spans from 0
        text += f"class {i} dist {key} : "
        if end != at:
            yield at, text
            at, text = end, ""
        text += "\n"
    yield at, text


def _prefix_table(aspects: Sequence[Aspect]) -> np.ndarray:
    """The label prefix of every cell of the aspects' own grade grid, in C
    order: each label followed by a comma."""
    prefixes = [""]
    for aspect in aspects:
        prefixes = [p + label + "," for p in prefixes for label in aspect.labels]
    return np.array(prefixes, dtype=object)


def format_order_dump(order: DistanceOrder) -> Iterator[str]:
    """Render an order as one text line per class::

        class 0 dist 0 : hr,c
        class 1 dist 1 : fr,c;hr,pc

    and yield it in pieces of at most ``_DUMP_MEMBERS`` members each, so no
    string of the whole dump is made; a larger class spans several pieces.
    A member's label is two prefixes, the labels of the first half of the
    aspects before the last and the labels of the rest (each read from a
    table over those aspects' smaller grid), then its last label.  A piece
    joins one flat list of separator, two prefixes and last label per
    member, where the separator before a class's first member holds its
    header and the line end of the class before.
    """
    cells, spans = order._cells()  # first: its temporaries are gone before the tables are made
    *head, last = order.schema.aspects
    half = len(head) // 2
    highs, lows = _prefix_table(head[:half]), _prefix_table(head[half:])
    labels = np.array(last.labels, dtype=object)
    boundaries = _boundaries(spans)
    at, text = next(boundaries)
    for start in range(0, len(cells), _DUMP_MEMBERS):
        prefix, grade = np.divmod(cells[start : start + _DUMP_MEMBERS], last.n_grades)
        high, low = np.divmod(prefix, len(lows))
        flat = [";"] * (4 * len(prefix))
        flat[1::4] = highs[high].tolist()
        flat[2::4] = lows[low].tolist()
        flat[3::4] = labels[grade].tolist()
        while at < start + len(prefix):
            flat[4 * (at - start)] = text
            at, text = next(boundaries)
        yield "".join(flat)
    yield text  # the last line end, and the headers of any empty classes there
