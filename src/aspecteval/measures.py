"""Ranking effectiveness measures over multi-aspect judgments.

Two instantiations are supported on top of a weight assignment (nDCG with
linear gains and binary average precision), together with two per-aspect
aggregation baselines: the weighted arithmetic mean over per-aspect scores
and the weighted harmonic mean.

``score_runs`` scores a whole run set in blocks of topics: per block it builds
one zero-padded gain tensor (a row per judged doc of each topic, a column per
weight assignment and per aspect) and gathers every run's ranking on every
topic of the block from it at once.  The scalar scorers
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

from .errors import ConfigError, WeightError
from .ingest import check_distinct, runs_by_tag
from .order import DistanceOrder, Metric, WeightAssignment, assign_weights, build_order
from .schema import Aspect, AspectSchema, GroundTruth, LabelTuple, build_tuple_space

NDCG = "ndcg"
AP = "ap"

CANONICAL = "canonical"
TABLE = "table"

_IMPORTANCE_TOL = 1e-9
_SCORE_SLACK = 1e-9
# Gathered gains (topics x runs x ranks x columns) per block of topics that
# ``score_runs`` scores at once.  Larger blocks pay numpy's per-call cost less
# often, but each of a block's temporaries holds this many floats: scoring
# all 100 topics of the benchmark's shallow-many workload in one block
# raised the evaluate process's peak RSS from 39.8 to 42.2 MB.
_BLOCK_ELEMENTS = 8 * 1024


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


def _class_of(order: DistanceOrder, t: LabelTuple) -> int:
    try:
        return order.class_of(t)
    except KeyError as exc:
        raise ConfigError(f"judged tuple without a weight: {exc}") from None


def _weight_column(
    judged: Mapping[str, LabelTuple], weights: WeightAssignment
) -> dict[str, float]:
    return {d: float(weights.per_class[_class_of(weights.order, t)]) for d, t in judged.items()}


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


def _pool_index(
    judged: Sequence[Mapping[str, LabelTuple]],
    orders: Sequence[DistanceOrder],
    grid_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of topics' judged docs, pooled topic by topic in ``judged``
    order: their grades as (doc, aspect), their classes as (order, doc), and
    where they sit in a (topic, row) layout padded with at least one row
    past every topic's pool.  A tuple off the grid or off an order fails as
    in ``_class_of``, naming the first such tuple of the first topic; with no
    order to place it, a tuple off the grid fails here."""
    pooled = list(itertools.chain.from_iterable(j.values() for j in judged))
    try:
        grades = np.array(pooled, dtype=np.int64)
        cells = np.ravel_multi_index(grades.T, grid_shape)
    except (ValueError, OverflowError):  # judged grades are ints
        _check_placed(judged, orders)
        raise ConfigError("judged tuple off the grade grid") from None
    classes = np.array([order.grid.reshape(-1)[cells] for order in orders], dtype=np.intp)
    if (classes < 0).any():
        _check_placed(judged, orders)
    sizes = np.array([len(j) for j in judged])
    return grades, classes, np.arange(sizes.max() + 1) < sizes[:, None]


def _check_placed(
    judged: Sequence[Mapping[str, LabelTuple]], orders: Sequence[DistanceOrder]
) -> None:
    """Raise on the first judged tuple, topic by topic, that an order does
    not place."""
    for j, order in itertools.product(judged, orders):
        for t in j.values():
            _class_of(order, t)


def _gain_tensor(
    placed: np.ndarray,
    grades: np.ndarray,
    classes: np.ndarray,
    class_gains: Sequence[np.ndarray],
    grade_gains: Sequence[np.ndarray],
) -> np.ndarray:
    """Gains of the docs ``_pool_index`` pooled, as (topic, row, column) with
    zero rows as padding: a column per order (the weight of the doc's class
    in ``class_gains``), then a column per aspect (the gain of its grade in
    ``grade_gains``)."""
    columns = [*map(np.take, class_gains, classes), *map(np.take, grade_gains, grades.T)]
    gains = np.zeros((*placed.shape, len(columns)))
    gains[placed] = np.column_stack(columns)
    return gains


def _row_indices(
    judged: Sequence[Mapping[str, LabelTuple]], rankings: Sequence[Sequence[Sequence[str]]]
) -> np.ndarray:
    """Each topic's rankings as rows of that topic's judged docs, as (topic,
    ranking, rank): -1, the zero row past them, for unjudged docs and as
    padding to a common width of at least 1."""
    lengths = np.array([list(map(len, per_topic)) for per_topic in rankings], dtype=np.intp)
    rows = np.full((*lengths.shape, lengths.max(initial=1)), -1, dtype=np.intp)
    row_of = (dict(zip(pool, itertools.count())).get for pool in judged)
    rows[np.arange(rows.shape[2]) < lengths[..., None]] = list(
        itertools.chain.from_iterable(
            map(get, itertools.chain(*per_topic), itertools.repeat(-1))
            for get, per_topic in zip(row_of, rankings)
        )
    )
    return rows


def _scores(
    gains: np.ndarray, rows: np.ndarray, cfg: MeasureConfig, discount: np.ndarray
) -> np.ndarray:
    """``_score`` of every ranking in ``rows`` against every column of
    ``gains``, as a (topic, ranking, column) array equal to it to the last
    bit: the same discounts and divisions, and ``cumsum`` adds from left to
    right as the scalar loops do.  Padding adds +0.0 to a non-negative sum.
    ``discount`` holds ``_discount`` of ranks 1, 2, ... as a column, at
    least as many as a ranking or a topic's pool is long."""
    gathered = gains[np.arange(len(gains))[:, None, None], rows]  # topic x ranking x rank x column
    width = rows.shape[2]
    if cfg.kind == NDCG:
        ideal_gains = np.sort(gains[:, :-1], axis=1)[:, ::-1][:, : cfg.depth]
        ideal = np.cumsum(ideal_gains / discount[: ideal_gains.shape[1]], axis=1)[:, None, -1]
        run = np.cumsum(gathered / discount[:width], axis=2)[:, :, -1]
        return np.divide(run, ideal, out=np.zeros_like(run), where=ideal != 0.0)
    hit = gathered != 0.0
    rank = np.arange(1, width + 1)[:, None]
    acc = np.cumsum(np.where(hit, np.cumsum(hit, axis=2) / rank, 0.0), axis=2)[:, :, -1]
    relevant = np.count_nonzero(gains[:, :-1], axis=1)[:, None]
    return np.divide(acc, relevant, out=np.zeros_like(acc), where=relevant != 0)


def _cam_mm(
    p: Sequence[float], mu: np.ndarray, variant: str
) -> tuple[np.ndarray, np.ndarray]:
    """``_cam`` and ``_mm`` of every row of aspect scores ``mu`` (aspects on
    the last axis), equal to them to the last bit: the terms are added in
    aspect order starting from 0.0, as ``left_sum`` adds them."""
    cam, inverse = np.zeros(mu.shape[:-1]), np.zeros(mu.shape[:-1])
    zero = (mu == 0.0).any(axis=-1)
    safe = np.where(mu == 0.0, 1.0, mu)  # rows with a zero score are 0 below
    for a, pa in enumerate(p):
        cam = cam + pa * mu[..., a]
        inverse = inverse + (pa if variant == CANONICAL else 1.0) / safe[..., a]
    top = left_sum(p) if variant == CANONICAL else 1.0
    return cam, np.where(zero, 0.0, top / inverse)


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
        class_gains = [
            np.array(assign_weights(orders[m], policy).per_class, dtype=np.float64) for m in metrics
        ]
        setups.append((cfg, class_gains, [np.array(t) for t in cfg_tables]))
    n = len(metrics)
    judged = [gt.judged(topic) for topic in topics]
    run_topics = [by_tag[t].topics for t in tags]
    metric_orders = [orders[m] for m in metrics]
    # Topics per block, from the widest ranking and the largest pool
    longest = max([1, *(max(map(len, rt.values()), default=1) for rt in run_topics)])
    width = longest if depth is None else min(depth, longest)
    pool = max(map(len, judged)) + 1
    block = max(1, _BLOCK_ELEMENTS // (max(len(tags) * width, pool) * (n + len(schema.aspects))))
    discount = np.array([_discount(i) for i in range(1, max(width, pool) + 1)])[:, None]
    # values[k, c, i, j]: kind kinds[k], column c (the metrics, then CAM and
    # MM), run tags[i], topic topics[j]
    values = np.empty((len(kinds), n + 2, len(tags), len(topics)))
    for start in range(0, len(topics), block):
        part = slice(start, start + block)
        rankings = [[rt.get(topic, ())[:depth] for rt in run_topics] for topic in topics[part]]
        rows = _row_indices(judged[part], rankings)
        grades, classes, placed = _pool_index(judged[part], metric_orders, schema.grid_shape)
        for k, (cfg, class_gains, grade_gains) in enumerate(setups):
            gains = _gain_tensor(placed, grades, classes, class_gains, grade_gains)
            scores = _scores(gains, rows, cfg, discount)  # topic x run x column
            cam, mm = _cam_mm(p, scores[..., n:], mm_variant)
            values[k, :n, :, part] = scores[..., :n].T
            values[k, n:, :, part] = cam.T, mm.T
    matrices: dict[str, ScoreMatrix] = {}
    for kind, kind_values in zip(kinds, values):
        labels = [f"{m.short}-{kind}" for m in metrics] + [f"CAM-{kind}", f"MM-{kind}"]
        for label, cells in zip(labels, kind_values):
            matrices[label] = ScoreMatrix(label, tags, topics, cells)
    return matrices
