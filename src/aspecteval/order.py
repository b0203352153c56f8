"""Distance orders over tuple spaces and order-preserving weight assignments.

Tuples are embedded as integer coordinate vectors (the schema's scaled embed
values) and ranked by distance from the best tuple.  Comparisons use exact
integer keys: squared distance for Euclidean, the plain sum for Manhattan,
the max component for Chebyshev.  Ties form equivalence classes; class 0 is
closest to the best tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, MissingBestTuple, PolicyViolation
from .schema import AspectSchema, LabelTuple, TupleSpace


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


def embed(t: LabelTuple, schema: AspectSchema) -> tuple[int, ...]:
    """Integer coordinates of a label tuple under the schema's embedding."""
    schema.check_tuple(t)
    return tuple(vals[g] for vals, g in zip(schema.scaled_values, t))


def distance_key(p: Sequence[int], q: Sequence[int], metric: Metric) -> int:
    """Exact comparison key for the distance between two coordinate vectors.

    For Euclidean this is the *squared* distance, which orders identically
    and stays integral.
    """
    if len(p) != len(q):
        raise DimensionMismatch(f"coordinate lengths differ: {len(p)} vs {len(q)}")
    deltas = [a - b for a, b in zip(p, q)]
    if metric is Metric.EUCLIDEAN:
        return sum(d * d for d in deltas)
    if metric is Metric.MANHATTAN:
        return sum(abs(d) for d in deltas)
    return max((abs(d) for d in deltas), default=0)


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

    def tuples(self) -> tuple[LabelTuple, ...]:
        return tuple(t for cls in self.classes for t in cls.members)


def build_order(space: TupleSpace, schema: AspectSchema, metric: Metric) -> DistanceOrder:
    """Group the space by distance from the best tuple and sort the groups.

    Members within a class are stored in descending lexicographic order of
    their grade indices, which makes dumps and comparisons deterministic.
    """
    best = schema.best_tuple
    if best not in space:
        raise MissingBestTuple("tuple space does not contain the best tuple")
    anchor = embed(best, schema)
    groups: dict[int, list[LabelTuple]] = {}
    for t in space:
        key = distance_key(embed(t, schema), anchor, metric)
        groups.setdefault(key, []).append(t)
    classes = tuple(
        DistanceClass(key, tuple(sorted(groups[key], reverse=True)))
        for key in sorted(groups)
    )
    return DistanceOrder(metric, schema, classes)


def check_extends_partial_order(order: DistanceOrder, schema: AspectSchema) -> bool:
    """True iff the order never ranks a dominated tuple above its dominator.

    Checks every pair (a, b) with b at least as good as a on all aspects and
    verifies class(b) <= class(a).  Vectorized so that property tests over
    thousands of random schemas stay fast.
    """
    tuples = order.tuples()
    coords = np.asarray([embed(t, schema) for t in tuples], dtype=np.int64)
    cls = np.asarray([order.class_of(t) for t in tuples], dtype=np.int64)
    n = len(tuples)
    chunk = max(1, min(n, 4_000_000 // max(1, n * schema.n_aspects)))
    for start in range(0, n, chunk):
        block = coords[start : start + chunk]  # (c, k)
        # dominates[i, j]: tuple j is >= tuple i on every aspect
        dominates = (coords[None, :, :] >= block[:, None, :]).all(axis=2)
        worse_ranked = cls[None, :] > cls[start : start + chunk, None]
        if (dominates & worse_ranked).any():
            return False
    return True


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


def is_order_preserving(w: WeightAssignment, order: DistanceOrder) -> bool:
    """True iff weights are constant on classes and non-increasing across them."""
    previous = None
    for cls in order.classes:
        try:
            values = {w.of(t) for t in cls.members}
        except KeyError:
            return False
        if len(values) != 1:
            return False
        (value,) = values
        if previous is not None and value > previous:
            return False
        previous = value
    return True


def format_order_dump(order: DistanceOrder) -> str:
    """Render an order as one text line per class::

        class 0 dist 0 : hr,c
        class 1 dist 1 : fr,c;hr,pc
    """
    schema = order.schema
    lines = [
        f"class {i} dist {cls.key} : "
        + ";".join(schema.format_tuple(t) for t in cls.members)
        for i, cls in enumerate(order.classes)
    ]
    return "\n".join(lines) + "\n"
