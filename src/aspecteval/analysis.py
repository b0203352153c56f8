"""Meta-evaluation over score matrices.

Four analyses: per-topic Kendall tau-b between two measures, paired-bootstrap
discriminative power, the zero-aspect@k audit (how often a measure's "best"
runs put worthless documents at the top ranks), and rank-band quality audits.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInput, MatrixMismatch
from .ingest import runs_by_tag
from .measures import ScoreMatrix, left_sum
from .schema import GroundTruth


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


def _check_same_cells(matrices: Sequence[ScoreMatrix]) -> None:
    """Raise ``MatrixMismatch`` unless every table of a non-empty list covers
    the first one's runs and topics."""
    first = matrices[0]
    for other in matrices[1:]:
        if (other.run_tags, other.topic_ids) != (first.run_tags, first.topic_ids):
            raise MatrixMismatch(
                f"matrices {first.measure!r} and {other.measure!r} cover different runs or topics"
            )


def measure_correlation(m1: ScoreMatrix, m2: ScoreMatrix) -> CorrelationReport:
    """Per-topic tau between the system rankings two measures induce.

    Topics where either measure scores all runs identically are excluded
    from the mean (tau undefined there).  The ``equivalent`` flag marks a
    mean above 0.9.
    """
    _check_same_cells((m1, m2))
    if len(m1.run_tags) < 2:
        raise ConfigError("measure correlation needs at least two runs")
    per_topic: dict[str, float] = {}
    excluded = 0
    for topic, x, y in zip(m1.topic_ids, m1.values.T, m2.values.T):
        try:
            per_topic[topic] = kendall_tau(x, y)
        except DegenerateInput:
            excluded += 1
    mean_tau = left_sum(per_topic.values()) / len(per_topic) if per_topic else None
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


# Scores are read at the 4 decimals the score tables print: the test turns
# every score into an integer number of 1e-4 units, once.
_UNITS = 10_000
# Differences lie within +-1e4 units, so the int64 terms n * sum(D^2) and
# sum(D)^2 stay below 2^63 while n^2 * 1e8 does: n < 3e5 topics.
_MAX_TOPICS = 300_000
# Relative gap below which the float64 comparison of the test's two products
# is settled with Python ints.  The products carry a few ulps of rounding at
# most, far below this.
_TIE_GAP = 1e-9
# Indices per resample block, and resample sums per comparison.  The block
# size does not change the draws: the generator's stream continues across
# calls.
_BLOCK_ELEMENTS = 32 * 1024
# Multiply-adds per count-matrix product, at most.  OpenBLAS runs a product
# of m multiply-adds on min(CPUs, m // 2^18) threads, so below 2^19 on the
# calling thread alone.  Above it, with one forked worker per CPU, each
# worker's second thread oversubscribes the CPUs: 10 tables of 200 topics
# took 3-5x as long on 2 CPUs.
_PRODUCT_ELEMENTS = (1 << 19) - 1


def _block_rows(n: int, k: int) -> tuple[int, int]:
    """Resamples per block of draws, and per comparison (a multiple of the
    block), for n topics and k tables."""
    rows = max(1, min(_BLOCK_ELEMENTS // n, _PRODUCT_ELEMENTS // (2 * k * n)))
    return rows, rows * max(1, _BLOCK_ELEMENTS // (2 * k * rows))


def _count_hits(sums: np.ndarray, n: int, total: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Per column, the resamples whose |t*| >= |t_obs|, given the resamples'
    sums as rows [s1 | s2] (2 x columns rows of int64, one column per
    resample); see ``_bootstrap_asls``."""
    k = len(total)
    s1 = sums[:k]
    excess = s1 - total[:, None]
    sample_spread = n * sums[k:] - s1 * s1
    lhs = np.square(excess.astype(np.float64)) * spread.astype(np.float64)[:, None]
    gap = lhs - sample_spread.astype(np.float64) * (total * total).astype(np.float64)[:, None]
    hit = gap >= 0.0
    for c, r in zip(*np.nonzero(np.abs(gap) <= _TIE_GAP * lhs)):
        e, v, s = int(excess[c, r]), int(sample_spread[c, r]), int(total[c])
        hit[c, r] = (e != 0 or s == 0) if v == 0 else e * e * int(spread[c]) >= s * s * v
    return np.count_nonzero(hit, axis=1)


def _bootstrap_asls(
    ds: np.ndarray, b_samples: int, rng: np.random.Generator
) -> list[float]:
    """Achieved significance level of each column of ``ds``, one run pair's
    per-topic differences (n topics x tables, int64 units of 1e-4, none of
    them constant).

    Resamples the centered differences with replacement and counts how often
    the resampled studentized mean is at least as extreme as the observed
    one.  With S = sum(D), Q = sum(D^2), and s1, s2 the same sums over a
    resample, |t*| >= |t_obs| is the integer test

        E^2 * (nQ - S^2) >= S^2 * V,   E = s1 - S,  V = n*s2 - s1^2.

    A constant resample (V = 0) is a hit iff E != 0 or S = 0: its statistic
    is unbounded, or 0 against an observed 0.  Each block of draws becomes a
    count matrix C (resamples x topics), and one float64 product
    C @ [D | D^2] gives s1 and s2 of every column; the terms are integers
    whose partial sums stay below 2^53, so the product is exact in any
    summation order.  E and V are exact in int64.  The two products are
    compared in float64, and near-ties are settled with Python ints.  So
    every column shares the draws, and its ASL depends neither on the other
    columns nor on the BLAS library or its thread count.
    """
    n, k = ds.shape
    total = ds.sum(axis=0)
    spread = n * (ds * ds).sum(axis=0) - total * total
    moments = np.concatenate([ds, ds * ds], axis=1).astype(np.float64)
    rows, chunk = _block_rows(n, k)
    sums = np.empty((min(chunk, b_samples), 2 * k))
    # Row r of a block counts its draws in r*n .. r*n + n - 1 of one bincount.
    offsets = np.arange(0, min(rows, b_samples) * n, n)[:, None]
    hits = np.zeros(k, dtype=np.int64)
    for start in range(0, b_samples, chunk):
        filled = min(chunk, b_samples - start)
        for lo in range(0, filled, rows):
            block = min(rows, filled - lo)
            indices = rng.integers(0, n, size=(block, n))
            indices += offsets[:block]
            counts = np.bincount(indices.ravel(), minlength=block * n)
            np.matmul(counts.reshape(block, n).astype(np.float64), moments,
                      out=sums[lo:lo + block])
        hits += _count_hits(sums[:filled].T.astype(np.int64, order="C"), n, total, spread)
    return (hits / b_samples).tolist()


# Below this many drawn indices (pairs x B x topics) the pairs run
# in-process.  On a 2-vCPU Xeon a fork pool costs 30-50 ms to start and
# stop, and pooled and in-process runs break even near 5-6 M indices with
# three tables and 7.5-9 M with one.
_POOL_MIN_DRAWS = 1 << 23
_CHUNKS_PER_WORKER = 4


def _usable_cpus() -> int:
    """The CPUs this process may run on (Linux only)."""
    return len(os.sched_getaffinity(0))


def _pair_tests(
    pair: tuple[int, int],
    units: np.ndarray,
    run_tags: Sequence[str],
    b_samples: int,
    alpha: float,
    seed: int,
) -> list[PairTest]:
    """One PairTest per table of ``units`` (tables x runs x topics, int64
    units of 1e-4) for the run pair (a, b), given as row indices.  The result
    depends only on the pair, never on the process it runs in."""
    a, b = pair
    run_a, run_b = run_tags[a], run_tags[b]
    ds = units[:, a] - units[:, b]
    varying = np.flatnonzero((ds != ds[:, :1]).any(axis=1)).tolist()
    asls = {}
    if varying:
        rng = _pair_rng(seed, run_a, run_b)
        asls = dict(zip(varying, _bootstrap_asls(ds[varying].T, b_samples, rng)))
    sqrt_n = math.sqrt(ds.shape[1])
    row = []
    for k, d in enumerate(ds):
        if k in asls:
            # The paired t over the scores as printed: units / 1e4 is the
            # float that a 4-decimal table parses to.
            diff = units[k, a] / _UNITS - units[k, b] / _UNITS
            t_obs = float(diff.mean() / (diff.std(ddof=1) / sqrt_n))
            asl = asls[k]
            significant = asl < alpha
        else:
            shift = int(d[0])
            t_obs = math.copysign(math.inf, shift) if shift else 0.0
            significant = shift != 0
            asl = 0.0 if significant else 1.0
        row.append(PairTest(run_a, run_b, t_obs, asl, significant))
    return row


def discriminative_powers(
    matrices: Sequence[ScoreMatrix], b_samples: int, alpha: float, seed: int
) -> tuple[DPReport, ...]:
    """Paired-bootstrap test over every unordered run pair, per score table.

    Every score is first rounded to an integer number of 1e-4 units, the
    precision the score tables print, so a call on ``score_runs`` output
    gives the same reports as ``analyze`` on the printed tables.  For each
    pair the per-topic differences give an observed studentized mean; the
    ASL is the fraction of seeded bootstrap resamples (of the centered
    differences) at least as extreme, decided exactly in integers (see
    ``_bootstrap_asls``).  A pair is discriminated when ASL < alpha.  Pairs
    whose differences are constant skip the bootstrap: they are significant
    iff the difference is nonzero.  The topic count must stay below
    ``_MAX_TOPICS``, where the integer test would leave int64.

    The tables must share their runs and topics.  A pair's resamples depend
    only on the seed, the two run tags and the topic count, so each pair's
    index blocks are drawn once and shared by every table; a table's report
    is the same as when it is tested alone.

    On Linux with more than one usable CPU, a large test (pairs x B x
    topics of at least ``_POOL_MIN_DRAWS``) runs contiguous chunks of pairs
    in forked worker processes, one per CPU, and puts the results back in
    pair order.  The reports do not depend on the worker count or the
    platform.
    """
    if not matrices:
        raise ConfigError("discriminative power needs at least one score table")
    _check_same_cells(matrices)
    m = matrices[0]
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
    if len(m.topic_ids) >= _MAX_TOPICS:
        raise ConfigError(
            f"discriminative power supports fewer than {_MAX_TOPICS} topics, "
            f"got {len(m.topic_ids)}"
        )
    units = np.stack([np.rint(table.values * _UNITS).astype(np.int64) for table in matrices])
    pairs = list(itertools.combinations(range(len(m.run_tags)), 2))
    task = functools.partial(
        _pair_tests,
        units=units,
        run_tags=m.run_tags,
        b_samples=b_samples,
        alpha=alpha,
        seed=seed,
    )
    workers = _usable_cpus() if sys.platform == "linux" else 1
    if (
        workers > 1
        and len(pairs) > 1
        and len(pairs) * b_samples * len(m.topic_ids) >= _POOL_MIN_DRAWS
    ):
        # Imported here: at module level they would add ~30 ms to every
        # command's start-up.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        chunksize = math.ceil(len(pairs) / (workers * _CHUNKS_PER_WORKER))
        with ProcessPoolExecutor(min(workers, len(pairs)), mp_context=context) as pool:
            rows = list(pool.map(task, pairs, chunksize=chunksize))
    else:
        rows = list(map(task, pairs))
    # rows[p][k]: pair p, table k
    return tuple(
        DPReport(table.measure, b_samples, alpha, seed, tuple(p))
        for table, p in zip(matrices, zip(*rows))
    )


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


def _best_sums(best: Mapping[str, str], runs, gt: GroundTruth, depth: int) -> list[list[int]]:
    """Per topic, in sorted order, the grade-index sum of each of the first
    ``depth`` docs of the topic's best run.  An unjudged doc counts as
    all-worst: it sums to 0."""
    by_tag = runs_by_tag(runs)
    sums = []
    for topic in sorted(best):
        try:
            docs = by_tag[best[topic]].topics.get(topic, ())
        except KeyError:
            raise ConfigError(f"best run {best[topic]!r} not among the loaded runs") from None
        sums.append([sum(gt.get(topic, doc) or ()) for doc in docs[:depth]])
    return sums


def zero_aspect_at_k(
    best: Mapping[str, str],
    runs,
    gt: GroundTruth,
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
    sums = _best_sums(best, runs, gt, k)
    by_rank = [[topic[r] for topic in sums if r < len(topic)] for r in range(k)]

    def row(label: str, values: list[int]) -> ZeroAspectRow:
        count, slots = values.count(0), len(values)
        return ZeroAspectRow(label, count, slots, 100.0 * count / slots if slots else 0.0)

    rows = tuple(row(str(r + 1), values) for r, values in enumerate(by_rank))
    return ZeroAspectReport(k, rows, row(f"1-{k}", [s for values in by_rank for s in values]))


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
    sums = _best_sums(best, runs, gt, previous_hi)  # the last band ends deepest
    rows = []
    for lo, hi in bands:
        values = [s for topic in sums for s in topic[lo - 1 : hi]]
        mean = sum(values) / len(values) if values else None
        rows.append(QualityBandRow((lo, hi), len(values), mean))
    return QualityBandReport(tuple(rows))
