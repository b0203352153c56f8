"""Aspect schemas: named aspects with ordered labels and numeric embeddings.

A schema declares, per aspect, an ordered list of labels (worst first) and a
non-decreasing numeric value for each label.  Documents are judged with one
label per aspect; throughout the package a judgment is a *label tuple* of
grade indices, ``tuple[int, ...]``, one index per aspect in schema order.

Embedding values are decimals with at most six fractional digits.  They are
kept as :class:`fractions.Fraction` and scaled to integers (see
:attr:`AspectSchema.scale`) so that all downstream distance comparisons are
exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import index, lt
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingBestTuple, SchemaError

LabelTuple = tuple[int, ...]

_MAX_FRACTION_DIGITS = 6
_NAME_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")


@dataclass(frozen=True)
class Aspect:
    """One evaluation aspect: ordered labels (worst first) with embed values."""

    name: str
    labels: tuple[str, ...]
    values: tuple[Fraction, ...]

    def index(self, label: str) -> int:
        """Grade index of ``label``, raising SchemaError if undefined."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise SchemaError(f"aspect {self.name!r} has no label {label!r}") from None

    @property
    def n_grades(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CouplingRule:
    """If the trigger aspect carries the trigger label, the forced aspect
    must carry the forced label.  All four fields are indices."""

    trigger_aspect: int
    trigger_label: int
    forced_aspect: int
    forced_label: int


@dataclass(frozen=True)
class AspectSchema:
    aspects: tuple[Aspect, ...]
    rules: tuple[CouplingRule, ...] = ()

    def __post_init__(self):
        validate_schema(self)

    @property
    def n_aspects(self) -> int:
        return len(self.aspects)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.aspects)

    def aspect_index(self, name: str) -> int:
        for i, a in enumerate(self.aspects):
            if a.name == name:
                return i
        raise SchemaError(f"schema has no aspect named {name!r}")

    @cached_property
    def grid_shape(self) -> tuple[int, ...]:
        """The shape of the grade grid: the number of grades of each aspect."""
        return tuple(a.n_grades for a in self.aspects)

    def check_grid(self, shape: tuple[int, ...]) -> None:
        """Raise DimensionMismatch unless ``shape`` is :attr:`grid_shape`."""
        if tuple(shape) != self.grid_shape:
            raise DimensionMismatch(f"grid {tuple(shape)} is not the schema's {self.grid_shape}")

    @property
    def best_tuple(self) -> LabelTuple:
        return tuple(a.n_grades - 1 for a in self.aspects)

    @property
    def worst_tuple(self) -> LabelTuple:
        return (0,) * self.n_aspects

    @cached_property
    def scale(self) -> int:
        """Common denominator turning every embed value into an integer."""
        denoms = [v.denominator for a in self.aspects for v in a.values]
        return math.lcm(*denoms) if denoms else 1

    @cached_property
    def rule_map(self) -> tuple[np.ndarray, np.ndarray]:
        """``(shift, corrections)``: each cell's fixpoint under the coupling
        rules as ``shift[:, c]``, the fixpoint minus cell ``c`` (C order, in
        the smallest signed integer type that holds every grade), and how
        many times rules fired on the way; aspects no rule names have axes
        of length 1.  Built in passes, one masked assignment per rule in
        order, each on the cells that fired in the last; the first cell
        still firing after the pass cap is named in a SchemaError."""
        named = {i for r in self.rules for i in (r.trigger_aspect, r.forced_aspect)}
        axes = tuple(n if a in named else 1 for a, n in enumerate(self.grid_shape))
        cells = np.indices(axes, np.min_scalar_type(-max(axes))).reshape(self.n_aspects, -1)
        fixed = cells.copy()
        corrections = np.zeros(fixed.shape[1], dtype=np.int64)
        live = np.arange(fixed.shape[1])
        for _ in range(len(self.rules) * sum(self.grid_shape) + 1):
            state = np.take(fixed, live, axis=1)
            fired = np.zeros(live.size, dtype=np.int64)
            for ta, tl, fa, fl in map(astuple, self.rules):
                fire = (state[ta] == tl) & (state[fa] != fl)
                state[fa][fire] = fl
                fired += fire
            fixed[:, live] = state
            corrections[live] += fired
            live = live[fired > 0]
            if not live.size:
                return fixed - cells, corrections.reshape(axes)
        unsettled = tuple(cells[:, live[0]].tolist())
        raise SchemaError(f"coupling rules never settle from {self.format_tuple(unsettled)}")

    def settle(self, rows: Sequence[Sequence[int]]) -> tuple[list[LabelTuple], int]:
        """The fixpoint of each on-grid tuple of ``rows``, read from
        :attr:`rule_map`, and the corrections made over all rows."""
        grades = np.array(rows, dtype=np.int64).reshape(len(rows), self.n_aspects).T
        shift, corrections = self.rule_map
        # clipping sends any grade of an aspect no rule names to its one cell
        cells = np.ravel_multi_index(tuple(grades), corrections.shape, mode="clip")
        settled = list(zip(*(grades + shift[:, cells]).tolist()))
        return settled, int(corrections.flat[cells].sum())

    @cached_property
    def scaled_values(self) -> tuple[tuple[int, ...], ...]:
        """Per-aspect embed values multiplied by :attr:`scale` (exact ints)."""
        s = self.scale
        return tuple(tuple(int(v * s) for v in a.values) for a in self.aspects)

    def check_tuple(self, t: LabelTuple) -> None:
        """Raise unless ``t`` is a valid grade-index tuple for this schema."""
        if len(t) != self.n_aspects:
            raise DimensionMismatch(
                f"tuple {t!r} has {len(t)} aspects, schema has {self.n_aspects}"
            )
        for g, a in zip(t, self.aspects):
            if not 0 <= g < a.n_grades:
                raise SchemaError(
                    f"grade index {g} out of range for aspect {a.name!r}"
                )

    def format_tuple(self, t: LabelTuple) -> str:
        """Render a grade-index tuple as comma-joined label names."""
        self.check_tuple(t)
        return ",".join(a.labels[g] for a, g in zip(self.aspects, t))


def _check_value(value: Fraction, aspect: str, label: str) -> None:
    if value < 0:
        raise SchemaError(f"negative embed value for {aspect}/{label}")
    if (value * 10**_MAX_FRACTION_DIGITS).denominator != 1:
        raise SchemaError(
            f"embed value for {aspect}/{label} has more than "
            f"{_MAX_FRACTION_DIGITS} fractional digits"
        )


def validate_schema(schema: AspectSchema) -> None:
    """Check structural invariants, raising SchemaError on the first failure.

    Invariants: at least one aspect; unique aspect names; per aspect at least
    two labels, unique label names, and non-decreasing non-negative embed
    values; coupling rules reference existing aspects/labels, couple two
    distinct aspects, and settle from every tuple (building
    :attr:`AspectSchema.rule_map` names the first tuple they never settle from).
    """
    if not schema.aspects:
        raise SchemaError("schema declares no aspects")
    if len(set(schema.names)) != len(schema.names):
        raise SchemaError("duplicate aspect names")
    for a in schema.aspects:
        if not _NAME_RE.match(a.name):
            raise SchemaError(f"invalid aspect name {a.name!r}")
        if len(a.labels) < 2:
            raise SchemaError(f"aspect {a.name!r} needs at least two labels")
        if len(a.labels) != len(a.values):
            raise SchemaError(f"aspect {a.name!r}: labels and values differ in length")
        if len(set(a.labels)) != len(a.labels):
            raise SchemaError(f"aspect {a.name!r} has duplicate labels")
        for lbl in a.labels:
            if not _NAME_RE.match(lbl):
                raise SchemaError(f"invalid label name {lbl!r} in aspect {a.name!r}")
        for lbl, v in zip(a.labels, a.values):
            _check_value(v, a.name, lbl)
        for lo, hi in itertools.pairwise(a.values):
            if hi < lo:
                raise SchemaError(f"aspect {a.name!r}: embed values must not decrease")
    n = schema.n_aspects
    for r in schema.rules:
        if not (0 <= r.trigger_aspect < n and 0 <= r.forced_aspect < n):
            raise SchemaError("coupling rule references an unknown aspect")
        if r.trigger_aspect == r.forced_aspect:
            raise SchemaError("coupling rule must couple two distinct aspects")
        if not 0 <= r.trigger_label < schema.aspects[r.trigger_aspect].n_grades:
            raise SchemaError("coupling rule references an unknown trigger label")
        if not 0 <= r.forced_label < schema.aspects[r.forced_aspect].n_grades:
            raise SchemaError("coupling rule references an unknown forced label")
    schema.rule_map  # built here, so a schema whose rules never settle is rejected


def parse_schema(text: str) -> AspectSchema:
    """Parse the plain-text schema format.

    Line forms (``#`` starts a comment, blank lines are skipped)::

        aspect <name>
        label <name> <value>
        couple <aspect> <label> <aspect> <label>

    ``label`` lines attach to the most recent ``aspect`` line; ``couple``
    lines may appear anywhere and are resolved after all aspects are read.
    """
    raw_aspects: list[tuple[str, list[tuple[str, Fraction]]]] = []
    raw_rules: list[tuple[int, tuple[str, str, str, str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "aspect":
            if len(parts) != 2:
                raise SchemaError(f"line {lineno}: expected 'aspect <name>'")
            raw_aspects.append((parts[1], []))
        elif kind == "label":
            if len(parts) != 3:
                raise SchemaError(f"line {lineno}: expected 'label <name> <value>'")
            if not raw_aspects:
                raise SchemaError(f"line {lineno}: label before any aspect")
            try:
                value = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"line {lineno}: bad embed value {parts[2]!r}") from None
            raw_aspects[-1][1].append((parts[1], value))
        elif kind == "couple":
            if len(parts) != 5:
                raise SchemaError(
                    f"line {lineno}: expected 'couple <aspect> <label> <aspect> <label>'"
                )
            raw_rules.append((lineno, (parts[1], parts[2], parts[3], parts[4])))
        else:
            raise SchemaError(f"line {lineno}: unknown directive {kind!r}")

    aspects = tuple(
        Aspect(name, tuple(l for l, _ in pairs), tuple(v for _, v in pairs))
        for name, pairs in raw_aspects
    )
    by_name = {a.name: i for i, a in enumerate(aspects)}
    rules = []
    for lineno, (a_name, a_lbl, b_name, b_lbl) in raw_rules:
        if a_name not in by_name or b_name not in by_name:
            raise SchemaError(f"line {lineno}: coupling rule names an unknown aspect")
        ai, bi = by_name[a_name], by_name[b_name]
        rules.append(
            CouplingRule(ai, aspects[ai].index(a_lbl), bi, aspects[bi].index(b_lbl))
        )
    return AspectSchema(aspects, tuple(rules))


def apply_rules(t: LabelTuple, schema: AspectSchema) -> tuple[LabelTuple, int]:
    """Force ``t`` into rule compliance, returning (tuple, corrections made).

    The tuple is the fixpoint the rules reach from ``t`` (forcing one aspect
    may trigger another rule).  A tuple off the grid raises, as in
    :meth:`AspectSchema.check_tuple`.
    """
    schema.check_tuple(t)
    (settled,), corrections = schema.settle([t])
    return settled, corrections


def on_grid(t: LabelTuple, shape: tuple[int, ...]) -> bool:
    """True iff ``t`` names a cell of ``shape``; a grade of -1 does not wrap."""
    return len(t) == len(shape) and min(t) >= 0 and all(map(lt, t, shape))


@dataclass(frozen=True, eq=False)
class TupleSpace:
    """The feasible label tuples of a schema: a read-only boolean ``mask``
    over the grade grid, one axis per aspect."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def tuples(self) -> tuple[LabelTuple, ...]:
        """The feasible tuples in ascending lexicographic order."""
        return tuple(zip(*np.argwhere(self.mask).T.tolist()))

    def __contains__(self, t: LabelTuple) -> bool:
        return on_grid(t, self.mask.shape) and self.mask.item(t)

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def build_tuple_space(schema: AspectSchema) -> TupleSpace:
    """The grade grid minus the cells where a coupling rule fires, those
    the schema's :attr:`~AspectSchema.rule_map` makes corrections from.

    The best and the all-worst tuple must survive the rules; a rule set
    that excludes either one leaves the order without its anchor points and
    is rejected.
    """
    _, corrections = schema.rule_map
    mask = np.broadcast_to(corrections == 0, schema.grid_shape)
    if not mask[schema.best_tuple]:
        raise MissingBestTuple("coupling rules exclude the best tuple")
    if not mask[schema.worst_tuple]:
        raise SchemaError("coupling rules exclude the all-worst tuple")
    return TupleSpace(mask)


@dataclass(frozen=True)
class GroundTruth:
    """Judged label tuples keyed by (topic_id, doc_id).  Every grade is an
    integer, as ``operator.index`` decides: a float or string grade raises
    ``ValueError`` here, where numpy would truncate or parse it."""

    entries: Mapping[tuple[str, str], LabelTuple]
    _by_topic: dict[str, dict[str, LabelTuple]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A read-only view of a private copy: get() and the index below
        # always see the same judgments.
        entries: dict[tuple[str, str], LabelTuple] = {}
        by_topic: dict[str, dict[str, LabelTuple]] = {}
        for (t, d), given in self.entries.items():
            try:
                grades = tuple(map(index, given))
            except TypeError:
                raise ValueError(f"judged ({t}, {d}) has a non-integer grade: {given!r}") from None
            entries[(t, d)] = by_topic.setdefault(t, {})[d] = grades
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "_by_topic", by_topic)

    def get(self, topic_id: str, doc_id: str) -> LabelTuple | None:
        return self.entries.get((topic_id, doc_id))

    def topics(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_topic))

    def judged(self, topic_id: str) -> dict[str, LabelTuple]:
        """doc_id -> label tuple for one topic (insertion order preserved)."""
        return dict(self._by_topic.get(topic_id, {}))

    def __len__(self) -> int:
        return len(self.entries)

