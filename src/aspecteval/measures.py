"""Ranking effectiveness measures over multi-aspect judgments.

Two instantiations are supported on top of a weight assignment (nDCG with
linear gains and binary average precision), together with two per-aspect
aggregation baselines: the weighted arithmetic mean over per-aspect scores
and the weighted harmonic mean.  Ideal-ranking generation and upper-bound
estimation live here as well, since they share the per-aspect gain plumbing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

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
_EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True)
class RankedList:
    """One system ranking for one topic, best first."""

    topic_id: str
    doc_ids: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.doc_ids)) != len(self.doc_ids):
            seen = set()
            dup = next(d for d in self.doc_ids if d in seen or seen.add(d))
            raise DuplicateDoc(
                f"doc {dup!r} appears twice in ranking for topic {self.topic_id!r}"
            )

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
    log_base: float = 2.0
    aspect_gains: Mapping[str, Mapping[str, float]] | None = None
    aspect_relevant: Mapping[str, Collection[str]] | None = None

    def __post_init__(self):
        if self.kind not in (NDCG, AP):
            raise ConfigError(f"unknown measure kind {self.kind!r}")
        if self.depth is not None and self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.log_base <= 1.0:
            raise ConfigError("log base must be greater than 1")


def dcg(gains: Sequence[float], log_base: float = 2.0) -> float:
    """Discounted cumulative gain; every rank is discounted, including rank 1."""
    log_b = math.log(log_base)
    return sum(g / (math.log(i + 1) / log_b) for i, g in enumerate(gains, start=1))


def ndcg(
    run: RankedList,
    gains_of: Mapping[str, float],
    all_judged_gains: Sequence[float],
    depth: int | None = None,
    log_base: float = 2.0,
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
    ideal = dcg(ideal_gains, log_base)
    if ideal == 0.0:
        return 0.0
    return dcg(run_gains, log_base) / ideal


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
        return ndcg(run, column, list(column.values()), cfg.depth, cfg.log_base)
    relevant = {d for d, g in column.items() if g}
    return average_precision(run, relevant, len(relevant), cfg.depth)


def _ideal(column: Mapping[str, float], cfg: MeasureConfig) -> float | set[str]:
    """The part of ``_score`` that depends on the column alone: the ideal DCG
    for nDCG, the relevant docs for AP, by the expressions of ``ndcg`` and
    ``_score``."""
    if cfg.kind == NDCG:
        ideal_gains = sorted(column.values(), reverse=True)
        if cfg.depth is not None:
            ideal_gains = ideal_gains[: cfg.depth]
        return dcg(ideal_gains, cfg.log_base)
    return {d for d, g in column.items() if g}


def _cell(
    docs: Sequence[str], column: Mapping[str, float], ideal: float | set[str], cfg: MeasureConfig
) -> float:
    """``_score`` of a ranking truncated to ``cfg.depth``, given the column's
    ``_ideal``; equal to it to the last bit."""
    if cfg.kind == NDCG:
        if ideal == 0.0:
            return 0.0
        return dcg([column.get(d, 0.0) for d in docs], cfg.log_base) / ideal
    if not ideal:
        return 0.0
    hits = 0
    acc = 0.0
    for rank, doc in enumerate(docs, start=1):
        if doc in ideal:
            hits += 1
            acc += hits / rank
    return acc / len(ideal)


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
    return sum(pi * mi for pi, mi in zip(p, mu))


def _mm(p: Sequence[float], mu: Sequence[float], variant: str) -> float:
    if any(m == 0.0 for m in mu):
        return 0.0
    if variant == CANONICAL:
        return sum(p) / sum(pi / mi for pi, mi in zip(p, mu))
    return 1.0 / sum(1.0 / m for m in mu)


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


def generate_ideal_rankings(
    topic_id: str,
    judged: Mapping[str, LabelTuple],
    schema: AspectSchema,
    gain_vectors: Sequence[Sequence[float]] | None = None,
) -> list[RankedList]:
    """Candidate ideal orderings of the judged documents for one topic.

    One candidate per aspect permutation (sort lexicographically by the
    permuted per-aspect gains, descending), plus three scalarizations:
    by gain sum, by sum of squared gains, and by max gain.  Ties always
    break by ascending doc_id, so the output is deterministic.  For n
    aspects this yields n! + 3 rankings.
    """
    vecs = (
        [list(map(float, v)) for v in gain_vectors]
        if gain_vectors is not None
        else [[float(i) for i in range(a.n_grades)] for a in schema.aspects]
    )
    if len(vecs) != schema.n_aspects:
        raise ConfigError("one gain vector per aspect is required")
    doc_gains = {
        d: tuple(vecs[i][g] for i, g in enumerate(t)) for d, t in judged.items()
    }
    docs = sorted(judged)
    rankings = []
    for perm in itertools.permutations(range(schema.n_aspects)):
        key = lambda d: tuple(-doc_gains[d][a] for a in perm)
        rankings.append(tuple(sorted(docs, key=lambda d: (key(d), d))))
    for scalar in (sum, lambda g: sum(x * x for x in g), max):
        rankings.append(
            tuple(sorted(docs, key=lambda d: (-scalar(doc_gains[d]), d)))
        )
    return [RankedList(topic_id, r) for r in rankings]


def estimate_upper_bound(
    score: Callable[[RankedList], float],
    topic_id: str,
    judged: Mapping[str, LabelTuple],
    schema: AspectSchema,
    gain_vectors: Sequence[Sequence[float]] | None = None,
) -> float:
    """Best achievable score over candidate ideal rankings.

    For topics with at most ``_EXHAUSTIVE_LIMIT`` judged documents every
    permutation is tried, making the bound exact there.
    """
    candidates = generate_ideal_rankings(topic_id, judged, schema, gain_vectors)
    if len(judged) <= _EXHAUSTIVE_LIMIT:
        candidates.extend(
            RankedList(topic_id, perm)
            for perm in itertools.permutations(sorted(judged))
        )
    return max(score(rl) for rl in candidates)


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
        # Python's left-to-right sum, not numpy's pairwise one: the printed
        # means must not move.
        row = self.values[self.run_tags.index(run_tag)].tolist()
        return sum(row) / len(row)

    def topic_scores(self, topic_id: str) -> list[float]:
        """Scores of all runs on one topic, in run_tag order."""
        return self.values[:, self.topic_ids.index(topic_id)].tolist()


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
    log_base: float = 2.0,
    aspect_gains: Mapping[str, Mapping[str, float]] | None = None,
    aspect_relevant: Mapping[str, Collection[str]] | None = None,
) -> dict[str, ScoreMatrix]:
    """Score every run on every judged topic under every requested measure.

    Returns one matrix per measure, keyed by labels such as ``EUCL-ndcg``,
    ``CAM-ap`` or ``MM-ndcg``.  Distance-order measures use
    ``weight_policy`` for nDCG and always binary weights for AP.  Runs that
    skip a topic score 0 there.
    """
    by_tag: dict[str, object] = {}
    for rf in runs:
        if rf.run_tag in by_tag:
            raise ConfigError(f"duplicate run tag {rf.run_tag!r}")
        by_tag[rf.run_tag] = rf
    tags = tuple(sorted(by_tag))
    topics = gt.topics()
    if not topics:
        raise ConfigError("ground truth has no judged topics")

    space = build_tuple_space(schema)
    orders = {m: build_order(space, schema, m) for m in metrics}
    p = _resolve_importance(schema, importance)
    if mm_variant not in (CANONICAL, TABLE):
        raise ConfigError(f"unknown harmonic-mean variant {mm_variant!r}")
    matrices: dict[str, ScoreMatrix] = {}
    for kind in kinds:
        cfg = MeasureConfig(kind, depth, log_base, aspect_gains, aspect_relevant)
        policy = weight_policy if kind == NDCG else "binary"
        weights = [assign_weights(orders[m], policy) for m in metrics]
        tables = [_aspect_table(a, cfg) for a in schema.aspects]
        labels = [f"{m.short}-{kind}" for m in metrics] + [f"CAM-{kind}", f"MM-{kind}"]
        # values[k, i, j]: measure labels[k], run tags[i], topic topics[j]
        values = np.empty((len(labels), len(tags), len(topics)))
        for j, topic in enumerate(topics):
            judged = gt.judged(topic)
            # the metric columns first, then one column per aspect
            columns = [_weight_column(judged, w) for w in weights]
            columns += _aspect_columns(judged, tables)
            ideals = [_ideal(column, cfg) for column in columns]
            for i, tag in enumerate(tags):
                docs = by_tag[tag].ranking(topic).truncated(depth)
                scores = [_cell(docs, c, ideal, cfg) for c, ideal in zip(columns, ideals)]
                mu = scores[len(metrics) :]
                values[:, i, j] = [*scores[: len(metrics)], _cam(p, mu), _mm(p, mu, mm_variant)]
        for label, cells in zip(labels, values):
            matrices[label] = ScoreMatrix(label, tags, topics, cells)
    return matrices
