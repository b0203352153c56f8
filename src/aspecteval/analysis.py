"""Meta-evaluation over score matrices.

Four analyses: per-topic Kendall tau-b between two measures, paired-bootstrap
discriminative power, the zero-aspect@k audit (how often a measure's "best"
runs put worthless documents at the top ranks), and rank-band quality audits.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInput, MatrixMismatch
from .measures import ScoreMatrix
from .schema import AspectSchema, GroundTruth


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-aware Kendall correlation (tau-b) between two score lists.

    An exact O(n^2) pair count: S = concordant - discordant and the untied
    pairs nx, ny are ints, and tau = S / sqrt(nx) / sqrt(ny) in that order,
    as the common sort-based implementations compute it, to the last bit.
    Raises ValueError on NaN, and DegenerateInput when either list is
    constant, where tau is undefined; callers treat such topics as missing
    rather than 0.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two scores per list")
    x, y = np.asarray(x), np.asarray(y)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("tau is undefined for NaN scores")
    # Comparisons, not differences, so that +-inf order (inf - inf is NaN).
    sx = (x[:, None] > x).astype(np.int64) - (x[:, None] < x)
    sy = (y[:, None] > y).astype(np.int64) - (y[:, None] < y)
    nx, ny = int(np.count_nonzero(sx)) // 2, int(np.count_nonzero(sy)) // 2
    if nx == 0 or ny == 0:
        raise DegenerateInput("tau is undefined for a constant score list")
    s = int((sx * sy).sum()) // 2
    return max(-1.0, min(1.0, float(s / np.sqrt(nx) / np.sqrt(ny))))


EQUIVALENCE_THRESHOLD = 0.9


@dataclass(frozen=True)
class CorrelationReport:
    measure_a: str
    measure_b: str
    per_topic: dict[str, float]
    excluded: int
    mean_tau: float | None
    equivalent: bool


def measure_correlation(m1: ScoreMatrix, m2: ScoreMatrix) -> CorrelationReport:
    """Per-topic tau between the system rankings two measures induce.

    Topics where either measure scores all runs identically are excluded
    from the mean (tau undefined there).  The ``equivalent`` flag marks a
    mean above 0.9.
    """
    if m1.run_tags != m2.run_tags or m1.topic_ids != m2.topic_ids:
        raise MatrixMismatch(
            f"matrices {m1.measure!r} and {m2.measure!r} cover different runs or topics"
        )
    per_topic: dict[str, float] = {}
    excluded = 0
    for topic, x, y in zip(m1.topic_ids, m1.values.T, m2.values.T):
        try:
            per_topic[topic] = kendall_tau(x, y)
        except DegenerateInput:
            excluded += 1
    mean_tau = sum(per_topic.values()) / len(per_topic) if per_topic else None
    equivalent = mean_tau is not None and mean_tau > EQUIVALENCE_THRESHOLD
    return CorrelationReport(m1.measure, m2.measure, per_topic, excluded, mean_tau, equivalent)


@dataclass(frozen=True)
class PairTest:
    run_a: str
    run_b: str
    t: float
    asl: float
    significant: bool


@dataclass(frozen=True)
class DPReport:
    measure: str
    b_samples: int
    alpha: float
    seed: int
    pairs: tuple[PairTest, ...]

    @property
    def pairs_total(self) -> int:
        return len(self.pairs)

    @property
    def pairs_significant(self) -> int:
        return sum(1 for p in self.pairs if p.significant)

    @property
    def percentage(self) -> float:
        return 100.0 * self.pairs_significant / self.pairs_total


def _pair_rng(seed: int, run_a: str, run_b: str) -> np.random.Generator:
    """Deterministic per-pair generator, independent of pair iteration order
    and of the process hash seed."""
    def h(name: str) -> int:
        return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")

    lo, hi = sorted((run_a, run_b))
    return np.random.default_rng(np.random.SeedSequence([seed, h(lo), h(hi)]))


# Elements per resample block (128 KiB of float64), so that the index block
# and the gather buffer stay in cache.  The block size does not change the
# draws: the generator's stream continues across calls.
_BLOCK_ELEMENTS = 16 * 1024


def _bootstrap_asl(d: np.ndarray, b_samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Observed studentized mean and its achieved significance level.

    Resamples the centered differences with replacement and counts how often
    the resampled statistic is at least as extreme as the observed one.
    Each resample's mean and standard deviation are computed with the
    operations ``np.mean`` and ``np.std(ddof=1)`` use, in the same order, so
    the statistic is the same to the last bit.
    """
    n = len(d)
    mean = d.mean()
    sd = d.std(ddof=1)
    sqrt_n = math.sqrt(n)
    t_obs = mean / (sd / sqrt_n)
    w = d - mean
    hits = 0
    rows = max(1, _BLOCK_ELEMENTS // n)
    buffer = np.empty((min(rows, b_samples), n))
    for start in range(0, b_samples, rows):
        block = min(rows, b_samples - start)
        samples = buffer[:block]
        # Indices lie in [0, n), so "clip" never clips; unlike "raise" it
        # writes into the buffer without an intermediate copy.
        np.take(w, rng.integers(0, n, size=(block, n)), out=samples, mode="clip")
        sample_mean = samples.sum(axis=1) / n
        samples -= sample_mean[:, None]
        np.square(samples, out=samples)
        sample_sd = np.sqrt(samples.sum(axis=1) / (n - 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = sample_mean / (sample_sd / sqrt_n)
        # A constant resample has sd 0: its statistic is 0 when the mean is
        # also 0 and unboundedly extreme otherwise.
        t_star = np.where(
            sample_sd == 0.0,
            np.where(sample_mean == 0.0, 0.0, np.inf),
            t_star,
        )
        hits += int(np.count_nonzero(np.abs(t_star) >= abs(t_obs)))
    return float(t_obs), hits / b_samples


def discriminative_power(
    m: ScoreMatrix, b_samples: int, alpha: float, seed: int
) -> DPReport:
    """Paired-bootstrap test over every unordered run pair.

    For each pair the per-topic score differences give an observed
    studentized mean; the ASL is the fraction of seeded bootstrap resamples
    (of the centered differences) at least as extreme.  A pair is
    discriminated when ASL < alpha.  Pairs whose differences have zero
    spread skip the bootstrap: they are significant iff the mean difference
    is nonzero.
    """
    if len(m.run_tags) < 2:
        raise ConfigError("discriminative power needs at least two runs")
    if len(m.topic_ids) < 2:
        raise ConfigError("discriminative power needs at least two topics")
    if b_samples < 1:
        raise ConfigError("bootstrap sample count must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie strictly between 0 and 1")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    pairs = []
    for a, b in itertools.combinations(range(len(m.run_tags)), 2):
        run_a, run_b = m.run_tags[a], m.run_tags[b]
        d = m.values[a] - m.values[b]
        if d.std(ddof=1) == 0.0:
            mean = d.mean()
            t_obs = math.copysign(math.inf, mean) if mean != 0.0 else 0.0
            significant = mean != 0.0
            asl = 0.0 if significant else 1.0
        else:
            t_obs, asl = _bootstrap_asl(d, b_samples, _pair_rng(seed, run_a, run_b))
            significant = asl < alpha
        pairs.append(PairTest(run_a, run_b, t_obs, asl, significant))
    return DPReport(m.measure, b_samples, alpha, seed, tuple(pairs))


def select_best_runs(m: ScoreMatrix) -> dict[str, str]:
    """Per topic, the run with the highest score (ties: run_tag ascending)."""
    # argmax takes the first maximum, and run_tags are sorted.
    best = m.values.argmax(axis=0)
    return {topic: m.run_tags[i] for topic, i in zip(m.topic_ids, best)}


@dataclass(frozen=True)
class ZeroAspectRow:
    rank: str
    count: int
    slots: int
    percent: float


@dataclass(frozen=True)
class ZeroAspectReport:
    k: int
    rows: tuple[ZeroAspectRow, ...]
    total: ZeroAspectRow


def _best_rankings(best: Mapping[str, str], runs) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(topic, doc ids of the topic's best run), in sorted topic order."""
    by_tag = {rf.run_tag: rf for rf in runs}
    for topic in sorted(best):
        try:
            rf = by_tag[best[topic]]
        except KeyError:
            raise ConfigError(f"best run {best[topic]!r} not among the loaded runs") from None
        yield topic, rf.ranking(topic).doc_ids


def zero_aspect_at_k(
    best: Mapping[str, str],
    runs,
    gt: GroundTruth,
    schema: AspectSchema,
    k: int = 5,
) -> ZeroAspectReport:
    """Count worthless documents in the top-k of each topic's best run.

    A document counts when its grade indices sum to 0 over all aspects;
    unjudged documents count as all-worst.  Percentages are relative to the
    number of (topic, rank) slots actually filled, since short rankings
    leave slots empty.
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    per_rank_count = [0] * k
    per_rank_slots = [0] * k
    for topic, docs in _best_rankings(best, runs):
        for i, doc in enumerate(docs[:k]):
            per_rank_slots[i] += 1
            t = gt.get(topic, doc)
            if t is None or sum(t) == 0:
                per_rank_count[i] += 1
    def row(label: str, count: int, slots: int) -> ZeroAspectRow:
        percent = 100.0 * count / slots if slots else 0.0
        return ZeroAspectRow(label, count, slots, percent)

    rows = tuple(
        row(str(r + 1), per_rank_count[r], per_rank_slots[r]) for r in range(k)
    )
    total = row(f"1-{k}", sum(per_rank_count), sum(per_rank_slots))
    return ZeroAspectReport(k, rows, total)


@dataclass(frozen=True)
class QualityBandRow:
    band: tuple[int, int]
    n_docs: int
    mean_sum: float | None


@dataclass(frozen=True)
class QualityBandReport:
    rows: tuple[QualityBandRow, ...]


def quality_bands(
    best: Mapping[str, str],
    runs,
    gt: GroundTruth,
    schema: AspectSchema,
    bands: Sequence[tuple[int, int]],
) -> QualityBandReport:
    """Mean grade-index sum of retrieved documents per rank band.

    Bands are inclusive 1-based rank intervals, disjoint and ascending.
    A band no topic's best run reaches is reported with mean None (absent
    in the TSV), not as 0.
    """
    previous_hi = 0
    for lo, hi in bands:
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad rank band {lo}-{hi}")
        if lo <= previous_hi:
            raise ConfigError("rank bands must be disjoint and ascending")
        previous_hi = hi
    sums: dict[tuple[int, int], list[int]] = {band: [] for band in bands}
    for topic, docs in _best_rankings(best, runs):
        for lo, hi in bands:
            for doc in docs[lo - 1 : hi]:
                t = gt.get(topic, doc)
                sums[(lo, hi)].append(sum(t) if t is not None else 0)
    rows = tuple(
        QualityBandRow(
            band,
            len(values),
            (sum(values) / len(values)) if values else None,
        )
        for band, values in ((b, sums[b]) for b in bands)
    )
    return QualityBandReport(rows)
