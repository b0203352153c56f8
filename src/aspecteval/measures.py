"""Ranking effectiveness measures over multi-aspect judgments.

Two instantiations are supported on top of a weight assignment (nDCG with
linear gains and binary average precision), together with two per-aspect
aggregation baselines: the weighted arithmetic mean over per-aspect scores
and the weighted harmonic mean.

``score_runs`` scores a whole run set: per topic it builds one gain matrix
(a row per judged doc, a column per weight assignment and per aspect) and
gathers every run's ranking from it at once.  The scalar scorers
(``order_score``, ``cam_score``, ``mm_score`` and the ``ndcg`` and
``average_precision`` they call) score one ranking at a time; they are the
reference that ``score_runs`` equals on every cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DuplicateDoc, WeightError
from .order import Metric, WeightAssignment, assign_weights, build_order
from .schema import Aspect, AspectSchema, GroundTruth, LabelTuple, build_tuple_space

NDCG = "ndcg"
AP = "ap"

CANONICAL = "canonical"
TABLE = "table"

_IMPORTANCE_TOL = 1e-9
_SCORE_SLACK = 1e-9


def check_distinct(topic_id: str, doc_ids: Sequence[str]) -> None:
    """Raise DuplicateDoc if a doc appears twice in one topic's ranking."""
    if len(set(doc_ids)) != len(doc_ids):
        seen = set()
        dup = next(d for d in doc_ids if d in seen or seen.add(d))
        raise DuplicateDoc(f"doc {dup!r} appears twice in ranking for topic {topic_id!r}")


def left_sum(values: Iterable[float]) -> float:
    """Float sum from left to right.  The built-in ``sum`` compensates its
    rounding from Python 3.12 on, which would move printed scores with the
    interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class RankedList:
    """One system ranking for one topic, best first."""

    topic_id: str
    doc_ids: tuple[str, ...]

    def __post_init__(self):
        check_distinct(self.topic_id, self.doc_ids)

    def truncated(self, depth: int | None) -> tuple[str, ...]:
        return self.doc_ids if depth is None else self.doc_ids[:depth]


@dataclass(frozen=True)
class MeasureConfig:
    """How to score a ranking: measure kind, cutoff, and per-aspect maps.

    ``aspect_gains`` maps aspect name -> label name -> gain (used by the
    per-aspect nDCG in the aggregation baselines); ``aspect_relevant`` maps
    aspect name -> labels counting as relevant (per-aspect binary AP).
    Aspects without an entry fall back to grade indices as gains and to
    "any label above the worst" as relevant.
    """

    kind: str
    depth: int | None = None
    aspect_gains: Mapping[str, Mapping[str, float]] | None = None
    aspect_relevant: Mapping[str, Collection[str]] | None = None

    def __post_init__(self):
        if self.kind not in (NDCG, AP):
            raise ConfigError(f"unknown measure kind {self.kind!r}")
        if self.depth is not None and self.depth < 1:
            raise ConfigError("depth must be at least 1")


def _discount(rank: int) -> float:
    """The nDCG discount of ``rank``, log2(rank + 1), rank 1 included (so any
    other base would cancel).  ``math.log2`` differs from it in the last bit
    for some ranks; ``dcg`` and ``_scores`` must both use this one."""
    return math.log(rank + 1) / math.log(2.0)


def dcg(gains: Sequence[float]) -> float:
    """Discounted cumulative gain, the terms added from left to right as in
    ``left_sum``."""
    total = 0.0
    for i, g in enumerate(gains, start=1):
        total += g / _discount(i)
    return total


def ndcg(
    run: RankedList,
    gains_of: Mapping[str, float],
    all_judged_gains: Sequence[float],
    depth: int | None = None,
) -> float:
    """nDCG of ``run`` against the ideal reordering of all judged gains.

    Documents absent from ``gains_of`` (unjudged) gain nothing.  The ideal
    ranking draws from every judged document, so a run cannot score above 1
    by retrieving a favourable subset.  Returns 0 when the ideal is 0.
    """
    run_gains = [gains_of.get(d, 0.0) for d in run.truncated(depth)]
    ideal_gains = sorted(all_judged_gains, reverse=True)
    if depth is not None:
        ideal_gains = ideal_gains[:depth]
    ideal = dcg(ideal_gains)
    if ideal == 0.0:
        return 0.0
    return dcg(run_gains) / ideal


def average_precision(
    run: RankedList,
    relevant: Collection[str],
    total_relevant: int,
    depth: int | None = None,
) -> float:
    """Mean of precision at each relevant rank, normalized by the total
    number of relevant documents in the judged pool (not just retrieved).
    Returns 0 when there are no relevant documents."""
    if total_relevant <= 0:
        return 0.0
    relevant = set(relevant)
    hits = 0
    acc = 0.0
    for rank, doc in enumerate(run.truncated(depth), start=1):
        if doc in relevant:
            hits += 1
            acc += hits / rank
    return acc / total_relevant


def _score(run: RankedList, column: Mapping[str, float], cfg: MeasureConfig) -> float:
    """Score one ranking against one doc -> gain column of the judged pool:
    nDCG over the gains, or AP with every nonzero gain counted relevant."""
    if cfg.kind == NDCG:
        return ndcg(run, column, list(column.values()), cfg.depth)
    relevant = {d for d, g in column.items() if g}
    return average_precision(run, relevant, len(relevant), cfg.depth)


def _weight_column(
    judged: Mapping[str, LabelTuple], weights: WeightAssignment
) -> dict[str, float]:
    try:
        return {d: float(weights.of(t)) for d, t in judged.items()}
    except KeyError as exc:
        raise ConfigError(f"judged tuple without a weight: {exc}") from None


def order_score(
    run: RankedList,
    gt: GroundTruth,
    weights: WeightAssignment,
    cfg: MeasureConfig,
) -> float:
    """Score a run with tuple weights as gains (nDCG) or as the binary
    relevance signal (AP)."""
    column = _weight_column(gt.judged(run.topic_id), weights)
    if cfg.kind == AP and not weights.is_binary:
        raise ConfigError("average precision needs a binary weight assignment")
    return _score(run, column, cfg)


def _aspect_table(aspect: Aspect, cfg: MeasureConfig) -> list[float]:
    """Gain per grade index of one aspect: the configured gains for nDCG,
    1.0 for a relevant grade and 0.0 otherwise for AP."""
    if cfg.kind == AP:
        labels = (cfg.aspect_relevant or {}).get(aspect.name, aspect.labels[1:])
        relevant = {aspect.index(l) for l in labels}
        # Binary gains must still be non-decreasing along the grade order.
        if relevant and relevant != set(range(min(relevant), aspect.n_grades)):
            raise ConfigError(
                f"relevant labels for aspect {aspect.name!r} must form an "
                "upward-closed set of grades"
            )
        return [float(g in relevant) for g in range(aspect.n_grades)]
    table = (cfg.aspect_gains or {}).get(aspect.name)
    if table is None:
        return [float(i) for i in range(aspect.n_grades)]
    try:
        vec = [float(table[label]) for label in aspect.labels]
    except KeyError as exc:
        raise ConfigError(
            f"no gain configured for label {exc} of aspect {aspect.name!r}"
        ) from None
    if not all(map(math.isfinite, vec)):
        raise ConfigError(f"non-finite gain for aspect {aspect.name!r}")
    if any(v < 0 for v in vec):
        raise ConfigError(f"negative gain for aspect {aspect.name!r}")
    if any(b < a for a, b in itertools.pairwise(vec)):
        raise ConfigError(
            f"gains for aspect {aspect.name!r} must not decrease with grade"
        )
    return vec


def _aspect_columns(
    judged: Mapping[str, LabelTuple], tables: Sequence[Sequence[float]]
) -> list[dict[str, float]]:
    return [{d: table[t[i]] for d, t in judged.items()} for i, table in enumerate(tables)]


def aspect_scores(
    run: RankedList,
    gt: GroundTruth,
    schema: AspectSchema,
    cfg: MeasureConfig,
) -> tuple[float, ...]:
    """Per-aspect effectiveness of a run, one score per schema aspect."""
    tables = [_aspect_table(a, cfg) for a in schema.aspects]
    columns = _aspect_columns(gt.judged(run.topic_id), tables)
    return tuple(_score(run, column, cfg) for column in columns)


def _resolve_importance(
    schema: AspectSchema, importance: Mapping[str, float] | None
) -> list[float]:
    if importance is None:
        return [1.0 / schema.n_aspects] * schema.n_aspects
    try:
        p = [float(importance[name]) for name in schema.names]
    except KeyError as exc:
        raise WeightError(f"no importance weight for aspect {exc}") from None
    if any(not 0.0 <= x <= 1.0 for x in p):
        raise WeightError("importance weights must lie in [0, 1]")
    if abs(sum(p) - 1.0) > _IMPORTANCE_TOL:
        raise WeightError(f"importance weights sum to {sum(p)!r}, expected 1")
    return p


def _cam(p: Sequence[float], mu: Sequence[float]) -> float:
    return left_sum(pi * mi for pi, mi in zip(p, mu))


def _mm(p: Sequence[float], mu: Sequence[float], variant: str) -> float:
    if any(m == 0.0 for m in mu):
        return 0.0
    if variant == CANONICAL:
        return left_sum(p) / left_sum(pi / mi for pi, mi in zip(p, mu))
    return 1.0 / left_sum(1.0 / m for m in mu)


def cam_score(
    run: RankedList,
    gt: GroundTruth,
    schema: AspectSchema,
    cfg: MeasureConfig,
    importance: Mapping[str, float] | None = None,
) -> float:
    """Weighted arithmetic mean of the per-aspect scores."""
    p = _resolve_importance(schema, importance)
    return _cam(p, aspect_scores(run, gt, schema, cfg))


def mm_score(
    run: RankedList,
    gt: GroundTruth,
    schema: AspectSchema,
    cfg: MeasureConfig,
    importance: Mapping[str, float] | None = None,
    variant: str = CANONICAL,
) -> float:
    """Harmonic-style mean of the per-aspect scores; 0 if any aspect is 0.

    ``canonical`` is the weighted harmonic mean sum(p) / sum(p/mu); ``table``
    drops the importance weights and computes 1 / sum(1/mu), which for n
    aspects under uniform importance is exactly canonical / n.
    """
    if variant not in (CANONICAL, TABLE):
        raise ConfigError(f"unknown harmonic-mean variant {variant!r}")
    p = _resolve_importance(schema, importance)
    return _mm(p, aspect_scores(run, gt, schema, cfg), variant)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Scores for a full run set over a full topic set under one measure.

    ``values`` is a read-only float64 array, one row per entry of
    ``run_tags`` and one column per entry of ``topic_ids``, both sorted.
    Construction checks that every score lies in [0, 1] up to rounding
    slack and clamps it into that range.
    """

    measure: str
    run_tags: tuple[str, ...]
    topic_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        bad = np.argwhere(~((values >= -_SCORE_SLACK) & (values <= 1.0 + _SCORE_SLACK)))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"score out of range for ({self.run_tags[i]}, {self.topic_ids[j]}): "
                f"{float(values[i, j])!r}"
            )
        # Not np.clip, which keeps -0.0 and so would print "-0.0000".
        values = np.where(values > 0.0, np.minimum(values, 1.0), 0.0)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def build(
        cls, measure: str, scores: Mapping[tuple[str, str], float]
    ) -> "ScoreMatrix":
        run_tags = tuple(sorted({r for r, _ in scores}))
        topic_ids = tuple(sorted({t for _, t in scores}))
        values = np.empty((len(run_tags), len(topic_ids)))
        for i, r in enumerate(run_tags):
            for j, t in enumerate(topic_ids):
                if (r, t) not in scores:
                    raise ValueError(f"matrix {measure!r} is missing cell ({r}, {t})")
                values[i, j] = scores[(r, t)]
        return cls(measure, run_tags, topic_ids, values)

    def score(self, run_tag: str, topic_id: str) -> float:
        return float(
            self.values[self.run_tags.index(run_tag), self.topic_ids.index(topic_id)]
        )

    def mean(self, run_tag: str) -> float:
        # Left to right, not numpy's pairwise sum: the printed means must not
        # move.
        row = self.values[self.run_tags.index(run_tag)].tolist()
        return left_sum(row) / len(row)

    def topic_scores(self, topic_id: str) -> list[float]:
        """Scores of all runs on one topic, in run_tag order."""
        return self.values[:, self.topic_ids.index(topic_id)].tolist()


def _gain_matrix(
    judged: Mapping[str, LabelTuple],
    weights: Sequence[WeightAssignment],
    tables: Sequence[Sequence[float]],
) -> np.ndarray:
    """Gains of one topic's judged docs: a row per doc in ``judged`` order
    plus a final zero row, a column per weight assignment (the weight of the
    doc's class), then a column per aspect table (the gain of its grade).
    A tuple off the grid or off an order fails as in ``_weight_column``."""
    try:
        grades = np.array(list(judged.values()), dtype=np.int64)
        cells = np.ravel_multi_index(grades.T, tuple(map(len, tables)))
    except (ValueError, OverflowError, TypeError):
        for w in weights:
            _weight_column(judged, w)  # raises, naming the first tuple off the grid
        raise ConfigError("judged tuple off the grade grid") from None
    gains = np.zeros((len(judged) + 1, len(weights) + len(tables)))
    for c, w in enumerate(weights):
        classes = w.order.grid.reshape(-1)[cells]
        if (classes < 0).any():
            _weight_column(judged, w)  # raises, naming the first tuple off the order
        gains[:-1, c] = np.array(w.per_class, dtype=np.float64)[classes]
    for c, table in enumerate(tables):
        gains[:-1, len(weights) + c] = np.array(table)[grades[:, c]]
    return gains


def _row_indices(
    judged: Mapping[str, LabelTuple], rankings: Sequence[Sequence[str]], depth: int | None
) -> np.ndarray:
    """Each ranking cut to ``depth`` as rows of the topic's gain matrix, one
    ranking per row: -1, the zero row, for unjudged docs and as padding to a
    common width of at least 1."""
    row_of = {d: r for r, d in enumerate(judged)}
    cut = [docs[:depth] for docs in rankings]
    rows = np.full((len(cut), max([1, *map(len, cut)])), -1, dtype=np.intp)
    for i, docs in enumerate(cut):
        rows[i, : len(docs)] = [row_of.get(d, -1) for d in docs]
    return rows


def _scores(gains: np.ndarray, rows: np.ndarray, cfg: MeasureConfig) -> np.ndarray:
    """``_score`` of every ranking in ``rows`` against every column of
    ``gains``, as a (rankings, columns) array equal to it to the last bit:
    the same discounts and divisions, and ``cumsum`` adds from left to right
    as the scalar loops do.  Padding adds +0.0 to a non-negative sum."""
    gathered = gains[rows]  # rankings x width x columns
    width = rows.shape[1]
    if cfg.kind == NDCG:
        ideal_gains = np.sort(gains[:-1], axis=0)[::-1][: cfg.depth]
        n = max(width, len(ideal_gains))
        discount = np.array([_discount(i) for i in range(1, n + 1)])[:, None]
        ideal = np.cumsum(ideal_gains / discount[: len(ideal_gains)], axis=0)[-1]
        run = np.cumsum(gathered / discount[:width], axis=1)[:, -1]
        return np.divide(run, ideal, out=np.zeros_like(run), where=ideal != 0.0)
    hit = gathered != 0.0
    rank = np.arange(1, width + 1)[:, None]
    acc = np.cumsum(np.where(hit, np.cumsum(hit, axis=1) / rank, 0.0), axis=1)[:, -1]
    relevant = np.count_nonzero(gains[:-1], axis=0)
    return np.divide(acc, relevant, out=np.zeros_like(acc), where=relevant != 0)


def runs_by_tag(runs: Iterable) -> dict[str, object]:
    """The runs keyed by run tag; a tag given twice is an error."""
    by_tag = {}
    for rf in runs:
        if rf.run_tag in by_tag:
            raise ConfigError(f"duplicate run tag {rf.run_tag!r}")
        by_tag[rf.run_tag] = rf
    return by_tag


def score_runs(
    runs: Sequence,
    gt: GroundTruth,
    schema: AspectSchema,
    kinds: Sequence[str] = (NDCG, AP),
    metrics: Sequence[Metric] = tuple(Metric),
    weight_policy: str | Sequence[int] = "distinct",
    importance: Mapping[str, float] | None = None,
    mm_variant: str = CANONICAL,
    depth: int | None = None,
    aspect_gains: Mapping[str, Mapping[str, float]] | None = None,
    aspect_relevant: Mapping[str, Collection[str]] | None = None,
) -> dict[str, ScoreMatrix]:
    """Score every run on every judged topic under every requested measure.

    Returns one matrix per measure, keyed by labels such as ``EUCL-ndcg``,
    ``CAM-ap`` or ``MM-ndcg``.  Distance-order measures use
    ``weight_policy`` for nDCG and always binary weights for AP.  Runs that
    skip a topic score 0 there.
    """
    # The measure options are checked before the first order is built; the
    # weight policy is checked against each order's class count.
    cfgs = [MeasureConfig(kind, depth, aspect_gains, aspect_relevant) for kind in kinds]
    tables = [[_aspect_table(a, cfg) for a in schema.aspects] for cfg in cfgs]
    if mm_variant not in (CANONICAL, TABLE):
        raise ConfigError(f"unknown harmonic-mean variant {mm_variant!r}")
    p = _resolve_importance(schema, importance)
    by_tag = runs_by_tag(runs)
    tags = tuple(sorted(by_tag))
    topics = gt.topics()
    if not topics:
        raise ConfigError("ground truth has no judged topics")

    space = build_tuple_space(schema)
    orders = {m: build_order(space, schema, m) for m in metrics}
    setups = []
    for cfg, cfg_tables in zip(cfgs, tables):
        policy = weight_policy if cfg.kind == NDCG else "binary"
        weights = [assign_weights(orders[m], policy) for m in metrics]
        setups.append((cfg, weights, cfg_tables))
    n = len(metrics)
    # values[k, c, i, j]: kind kinds[k], column c (the metrics, then CAM and
    # MM), run tags[i], topic topics[j]
    values = np.empty((len(kinds), n + 2, len(tags), len(topics)))
    for j, topic in enumerate(topics):
        judged = gt.judged(topic)
        rows = _row_indices(judged, [by_tag[t].topics.get(topic, ()) for t in tags], depth)
        for k, (cfg, weights, tables) in enumerate(setups):
            scores = _scores(_gain_matrix(judged, weights, tables), rows, cfg)
            values[k, :n, :, j] = scores[:, :n].T
            for i, mu in enumerate(scores[:, n:].tolist()):
                values[k, n:, i, j] = _cam(p, mu), _mm(p, mu, mm_variant)
    matrices: dict[str, ScoreMatrix] = {}
    for kind, kind_values in zip(kinds, values):
        labels = [f"{m.short}-{kind}" for m in metrics] + [f"CAM-{kind}", f"MM-{kind}"]
        for label, cells in zip(labels, kind_values):
            matrices[label] = ScoreMatrix(label, tags, topics, cells)
    return matrices
