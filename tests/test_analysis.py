"""Meta-evaluation tests: tau-b against a pair-counting oracle, the paired
bootstrap against a straight-line reimplementation sharing its RNG draws, and
the two audit reports on a small hand-checked fixture."""

import concurrent.futures
import functools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aspecteval import (
    ConfigError,
    DegenerateInput,
    MatrixMismatch,
    ScoreMatrix,
    discriminative_powers,
    kendall_tau,
    measure_correlation,
    parse_qrels,
    quality_bands,
    select_best_runs,
    zero_aspect_at_k,
)
from aspecteval import analysis
from aspecteval.analysis import _BLOCK_ELEMENTS, _bootstrap_asls, _pair_rng
from conftest import run_of
from reference_impl import ref_bootstrap_asl, ref_discriminative_power, ref_units


def tau_b_oracle(x, y):
    """Direct pair count: (P - Q) / sqrt((P + Q + Tx)(P + Q + Ty))."""
    concordant = discordant = ties_x = ties_y = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / math.sqrt(
        (concordant + discordant + ties_x) * (concordant + discordant + ties_y)
    )


def test_kendall_tau_endpoints():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert kendall_tau([1, 2, 3], [5, 1, 0]) == pytest.approx(-1.0)
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4.0 / 6.0)


def clamped_scipy_tau_b(x, y):
    return max(-1.0, min(1.0, float(stats.kendalltau(x, y, variant="b").statistic)))


def test_kendall_tau_matches_pair_counting_oracle():
    """Pair-counting oracle to 1e-12, and clamped scipy tau-b exactly: the
    correlation TSVs print taus that must not move by a last digit."""
    rng = random.Random(555)
    draws = [
        lambda: rng.randint(0, 4),  # heavily tied grades
        lambda: round(rng.random(), 4),  # score-like, as printed in score tables
        lambda: rng.choice((0.0, 0.25, 1 / 3, 0.5, 0.7917, 1.0)),  # tied scores
    ]
    for i in range(600):
        draw = draws[i % len(draws)]
        n = rng.randint(2, 24)
        while True:
            x = [draw() for _ in range(n)]
            y = [draw() for _ in range(n)]
            if len(set(x)) > 1 and len(set(y)) > 1:
                break
        tau = kendall_tau(x, y)
        assert tau == pytest.approx(tau_b_oracle(x, y), abs=1e-12)
        assert tau == clamped_scipy_tau_b(x, y)


def test_kendall_tau_degenerate_and_invalid():
    with pytest.raises(DegenerateInput):
        kendall_tau([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        kendall_tau([1, 2, 3], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="length"):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="two scores"):
        kendall_tau([1.0], [1.0])
    with pytest.raises(ValueError, match="NaN"):
        kendall_tau([1.0, math.nan, 2.0], [1, 2, 3])
    with pytest.raises(ValueError, match="NaN"):
        kendall_tau([1, 2, 3], [math.nan, math.nan, math.nan])
    # Infinite scores still order: inf - inf would be NaN, comparisons are not.
    assert kendall_tau([-math.inf, 0.0, math.inf], [1, 2, 3]) == 1.0
    assert kendall_tau([math.inf, math.inf, 1.0], [3, 2, 1]) == clamped_scipy_tau_b(
        [math.inf, math.inf, 1.0], [3, 2, 1]
    )


def matrix(measure, cells):
    return ScoreMatrix.build(measure, cells)


def grid(measure, rows):
    """rows: {topic: [scores for runs r1..rn]}"""
    cells = {}
    for topic, scores in rows.items():
        for i, s in enumerate(scores, start=1):
            cells[(f"r{i}", topic)] = s
    return matrix(measure, cells)


def test_correlation_of_a_measure_with_itself_is_one():
    m = grid("A", {"1": [0.1, 0.5, 0.9], "2": [0.3, 0.2, 0.8]})
    report = measure_correlation(m, m)
    assert report.per_topic == {"1": 1.0, "2": 1.0}
    assert report.mean_tau == pytest.approx(1.0)
    assert report.excluded == 0
    assert report.equivalent


def test_correlation_is_rank_based_so_affine_maps_score_one():
    a = grid("A", {"1": [0.10, 0.40, 0.20], "2": [0.90, 0.10, 0.50]})
    b = grid(
        "B",
        {
            "1": [0.10 / 2 + 0.1, 0.40 / 2 + 0.1, 0.20 / 2 + 0.1],
            "2": [0.90 / 2 + 0.1, 0.10 / 2 + 0.1, 0.50 / 2 + 0.1],
        },
    )
    assert measure_correlation(a, b).mean_tau == pytest.approx(1.0)
    flipped = grid("C", {"1": [0.9, 0.6, 0.8], "2": [0.1, 0.9, 0.5]})
    report = measure_correlation(a, flipped)
    assert report.mean_tau == pytest.approx(-1.0)
    assert not report.equivalent


def test_correlation_excludes_constant_topics_from_the_mean():
    a = grid("A", {"1": [0.1, 0.2, 0.3], "2": [0.5, 0.5, 0.5], "3": [0.3, 0.2, 0.1]})
    b = grid("B", {"1": [0.2, 0.4, 0.6], "2": [0.1, 0.2, 0.3], "3": [0.6, 0.4, 0.2]})
    report = measure_correlation(a, b)
    assert report.excluded == 1
    assert sorted(report.per_topic) == ["1", "3"]
    assert report.mean_tau == pytest.approx(1.0)

    all_flat = grid("A", {"1": [0.5, 0.5, 0.5]})
    other = grid("B", {"1": [0.1, 0.2, 0.3]})
    report = measure_correlation(all_flat, other)
    assert report.mean_tau is None
    assert report.excluded == 1
    assert not report.equivalent


def test_equivalence_threshold_is_strict():
    # topic 1: perfect agreement; topic 2: one discordant pair in five -> 0.8
    a = grid("A", {"1": [0.1, 0.2, 0.3, 0.4, 0.5], "2": [0.1, 0.2, 0.3, 0.4, 0.5]})
    b = grid("B", {"1": [0.1, 0.2, 0.3, 0.4, 0.5], "2": [0.2, 0.1, 0.3, 0.4, 0.5]})
    report = measure_correlation(a, b)
    assert report.mean_tau == pytest.approx(0.9)
    assert not report.equivalent


def test_correlation_requires_aligned_matrices():
    a = grid("A", {"1": [0.1, 0.2]})
    b = grid("B", {"2": [0.1, 0.2]})
    with pytest.raises(MatrixMismatch):
        measure_correlation(a, b)
    c = matrix("C", {("other", "1"): 0.1, ("r2", "1"): 0.2})
    with pytest.raises(MatrixMismatch):
        measure_correlation(a, c)


# ---------------------------------------------------------------------------
# discriminative power


def naive_bootstrap(d, b_samples, rng):
    """Loop-and-list reimplementation drawing the same index block, with the
    studentized means in exact rationals over the differences at 4
    decimals."""
    n = len(d)
    x = [Fraction(round(v * 10000), 10000) for v in d]
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / (n - 1)
    t_obs = float(mean) / math.sqrt(float(var) / n)
    w = [v - mean for v in x]
    idx = rng.integers(0, n, size=(b_samples, n))
    hits = 0
    for row in idx:
        sample = [w[i] for i in row]
        m = sum(sample) / n
        s_var = sum((v - m) ** 2 for v in sample) / (n - 1)
        # |t*| >= |t_obs|, squared; a constant resample has t* = 0 when its
        # mean is 0 and an unbounded t* otherwise
        if s_var == 0:
            hits += m != 0 or mean == 0
        else:
            hits += m * m * n / s_var >= mean * mean * n / var
    return t_obs, hits / b_samples


@pytest.fixture(scope="module")
def dp_matrix():
    rng = random.Random(2026)
    topics = [str(t) for t in range(1, 13)]
    cells = {}
    for tag, lift in (("runA", 0.0), ("runB", 0.12), ("runC", 0.02)):
        for t in topics:
            cells[(tag, t)] = round(min(1.0, max(0.0, rng.uniform(0.2, 0.6) + lift)), 4)
    return matrix("X", cells)


def test_dp_matches_naive_bootstrap_with_shared_draws(dp_matrix):
    b, seed = 400, 7
    report = discriminative_powers([dp_matrix], b_samples=b, alpha=0.05, seed=seed)[0]
    assert report.pairs_total == 3
    for pair in report.pairs:
        d = [
            dp_matrix.score(pair.run_a, t) - dp_matrix.score(pair.run_b, t)
            for t in dp_matrix.topic_ids
        ]
        t_ref, asl_ref = naive_bootstrap(d, b, _pair_rng(seed, pair.run_a, pair.run_b))
        assert pair.t == pytest.approx(t_ref, abs=1e-10)
        assert pair.asl == asl_ref
        assert pair.significant == (asl_ref < 0.05)


def test_blocked_bootstrap_equals_the_unblocked_oracle():
    for n in (2, 3, 7, 8, 9, 50, 100, 129, 300):
        rng = np.random.default_rng(n)
        four_decimals = np.round(rng.random(n), 4) - np.round(rng.random(n), 4)
        tied = rng.choice([0.0] * 6 + [0.25, -0.25, 0.5, -0.5, 1.0], size=n)
        tied[:2] = (0.5, 0.0)  # never constant
        half = rng.choice([0.25, 0.5, 1.0], size=n // 2)
        zero_mean = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
        assert zero_mean.mean() == 0.0
        block = _BLOCK_ELEMENTS // n
        for d in (four_decimals, tied, zero_mean):
            units = ref_units(d)
            for b in (1, block - 1, block, block + 1, 3 * block + 7, 10_000):
                got = _bootstrap_asls(
                    np.array(units)[:, None], b, np.random.default_rng([n, b])
                )
                want = ref_bootstrap_asl(units, b, np.random.default_rng([n, b]))
                assert got == [want], (n, b)


def dp_tables(n, count=10, runs=5):
    """``count`` tables over runs r1..r<runs> (at least five) and n topics
    with 4-decimal scores.

    r1 and r4 are equal in every table (zero spread everywhere, no draw);
    r2 sits a constant 0.25 above r1 in table 0 only, and r3 equals r1 in
    table 1 only (zero spread in one table).  Odd tables draw from a few
    tied values.
    """
    rng = np.random.default_rng(n)
    tables = []
    for k in range(count):
        if k % 2:
            values = rng.choice([0.0, 0.25, 0.3333, 0.5, 0.7917, 1.0], size=(runs, n))
        else:
            values = np.round(rng.random((runs, n)), 4)
        if k == 0:
            values[0] = rng.choice([0.0, 0.25, 0.5, 0.75], size=n)
            values[1] = values[0] + 0.25
        if k == 1:
            values[2] = values[0]
        values[3] = values[0]
        cells = {
            (f"r{i + 1}", f"t{j:03d}"): float(values[i, j])
            for i in range(runs)
            for j in range(n)
        }
        tables.append(matrix(f"M{k}", cells))
    return tables


def test_pair_major_dp_equals_the_per_table_oracle(monkeypatch):
    drawn = []

    def recording_rng(seed, run_a, run_b):
        drawn.append((run_a, run_b))
        return _pair_rng(seed, run_a, run_b)

    monkeypatch.setattr("aspecteval.analysis._pair_rng", recording_rng)
    seed, alpha = 5, 0.05
    for n in (2, 3, 100, 129):
        tables = dp_tables(n)
        block = _BLOCK_ELEMENTS // n
        for b in (1, block - 1, block + 1, 1000):
            want = [ref_discriminative_power(m, b, alpha, seed) for m in tables]
            for size in (1, 2, 3, 10):
                drawn.clear()
                reports = discriminative_powers(tables[:size], b, alpha, seed)
                assert [r.measure for r in reports] == [m.measure for m in tables[:size]]
                for report, rows in zip(reports, want):
                    got = [(p.run_a, p.run_b, p.t, p.asl, p.significant) for p in report.pairs]
                    assert got == rows, (n, b, size, report.measure)
                    assert (report.b_samples, report.alpha, report.seed) == (b, alpha, seed)
                assert ("r1", "r4") not in drawn
                assert len(drawn) == len(set(drawn))
    # the hand-built pairs of the last group: a constant shift is significant
    # with t = -inf (r1 below r2), and equal runs are never discriminated
    pairs = {(p.run_a, p.run_b): p for p in reports[0].pairs}
    assert pairs[("r1", "r2")].t == -math.inf and pairs[("r1", "r2")].asl == 0.0
    assert (pairs[("r1", "r4")].t, pairs[("r1", "r4")].asl) == (0.0, 1.0)
    pairs = {(p.run_a, p.run_b): p for p in reports[1].pairs}
    assert (pairs[("r1", "r3")].t, pairs[("r1", "r3")].asl) == (0.0, 1.0)


def test_pair_major_dp_rejects_tables_that_do_not_align(dp_matrix):
    with pytest.raises(ConfigError, match="at least one score table"):
        discriminative_powers([], 10, 0.05, 0)
    other_runs = matrix("Y", {("runA", "1"): 0.1, ("runZ", "1"): 0.2,
                              ("runA", "2"): 0.3, ("runZ", "2"): 0.4})
    with pytest.raises(MatrixMismatch, match="different runs or topics"):
        discriminative_powers([dp_matrix, other_runs], 10, 0.05, 0)
    fewer_topics = matrix("Y", {
        (r, t): dp_matrix.score(r, t) for r in dp_matrix.run_tags for t in dp_matrix.topic_ids[1:]
    })
    with pytest.raises(MatrixMismatch, match="different runs or topics"):
        discriminative_powers([dp_matrix, fewer_topics], 10, 0.05, 0)


# (usable CPUs, pool threshold): two forced-on and two forced-off settings
POOL_MODES = {
    "pool-4": (4, 0),
    "pool-2": (2, 0),
    "one-cpu": (1, 0),
    "below-threshold": (4, 1 << 62),
}


@pytest.fixture(params=sorted(POOL_MODES))
def pool_mode(request, monkeypatch):
    """Force the fork pool on or off; yields (usable CPUs, pooled, the
    (workers, start method) of every pool opened)."""
    cpus, threshold = POOL_MODES[request.param]
    opened = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            opened.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(analysis, "_POOL_MIN_DRAWS", threshold)
    pooled = sys.platform == "linux" and cpus > 1 and threshold == 0
    return cpus, pooled, opened


def assert_equals_the_oracle(reports, tables, b, alpha, seed, want=None):
    """``want``: the oracle rows of ``tables``, when computed beforehand."""
    if want is None:
        want = [ref_discriminative_power(table, b, alpha, seed) for table in tables]
    assert [r.measure for r in reports] == [m.measure for m in tables]
    for report, rows in zip(reports, want):
        got = [(p.run_a, p.run_b, p.t, p.asl, p.significant) for p in report.pairs]
        assert got == rows, report.measure
        assert (report.b_samples, report.alpha, report.seed) == (b, alpha, seed)


@functools.lru_cache(maxsize=None)
def dp_tables_oracle(n, runs, b, alpha, seed):
    """The oracle rows of every table of ``dp_tables(n, runs=runs)``, computed
    once for all pool modes."""
    return [ref_discriminative_power(m, b, alpha, seed) for m in dp_tables(n, runs=runs)]


def test_pooled_dp_equals_the_per_table_oracle(pool_mode):
    cpus, pooled, opened = pool_mode
    seed, alpha = 9, 0.05
    # Five, six and seven runs give 10, 15 and 21 pairs.  With four chunks
    # per worker, 15 pairs on two CPUs and 21 on four end in a short chunk.
    for runs, n in ((5, 3), (6, 3), (5, 129), (7, 129)):
        tables = dp_tables(n, runs=runs)
        for b in (1, _BLOCK_ELEMENTS // n + 1, 1000):
            want = dp_tables_oracle(n, runs, b, alpha, seed)
            for size in (1, 2, 3, 10):
                opened.clear()
                reports = discriminative_powers(tables[:size], b, alpha, seed)
                assert_equals_the_oracle(reports, tables[:size], b, alpha, seed, want[:size])
                # more pairs than CPUs: one worker per CPU
                assert opened == ([(cpus, "fork")] if pooled else [])


def test_pooled_dp_with_fewer_pairs_than_workers(pool_mode, dp_matrix):
    cpus, pooled, opened = pool_mode
    reports = discriminative_powers([dp_matrix], 300, 0.05, 4)
    assert_equals_the_oracle(reports, [dp_matrix], 300, 0.05, 4)
    # three pairs: at most one worker per pair
    assert opened == ([(min(3, cpus), "fork")] if pooled else [])
    opened.clear()
    one_pair = grid("X", {"1": [0.1, 0.2], "2": [0.4, 0.2], "3": [0.3, 0.35]})
    reports = discriminative_powers([one_pair], 300, 0.05, 4)
    assert_equals_the_oracle(reports, [one_pair], 300, 0.05, 4)
    assert opened == []  # a single pair never pools


def test_pooled_dp_keeps_zero_spread_pairs(pool_mode):
    tables = dp_tables(40, count=3)
    reports = discriminative_powers(tables, 200, 0.05, 2)
    assert_equals_the_oracle(reports, tables, 200, 0.05, 2)
    pairs = {(p.run_a, p.run_b): p for p in reports[0].pairs}
    assert pairs[("r1", "r2")].t == -math.inf and pairs[("r1", "r2")].asl == 0.0
    assert (pairs[("r1", "r4")].t, pairs[("r1", "r4")].asl) == (0.0, 1.0)
    pairs = {(p.run_a, p.run_b): p for p in reports[1].pairs}
    assert (pairs[("r1", "r3")].t, pairs[("r1", "r3")].asl) == (0.0, 1.0)


def test_dp_t_statistic_is_the_paired_t(dp_matrix):
    report = discriminative_powers([dp_matrix], b_samples=10, alpha=0.05, seed=0)[0]
    for pair in report.pairs:
        a = [dp_matrix.score(pair.run_a, t) for t in dp_matrix.topic_ids]
        b = [dp_matrix.score(pair.run_b, t) for t in dp_matrix.topic_ids]
        assert pair.t == pytest.approx(stats.ttest_rel(a, b).statistic, abs=1e-10)


def test_dp_is_deterministic_and_order_invariant(dp_matrix):
    r1 = discriminative_powers([dp_matrix], b_samples=300, alpha=0.05, seed=11)[0]
    r2 = discriminative_powers([dp_matrix], b_samples=300, alpha=0.05, seed=11)[0]
    assert r1 == r2
    # rebuilding the matrix from shuffled cells changes nothing
    cells = {
        (r, t): dp_matrix.score(r, t)
        for t in reversed(dp_matrix.topic_ids)
        for r in reversed(dp_matrix.run_tags)
    }
    r3 = discriminative_powers([matrix("X", cells)], b_samples=300, alpha=0.05, seed=11)[0]
    assert r3 == r1


def test_dp_identical_runs_are_never_discriminated():
    cells = {}
    for tag in ("a", "b"):
        for t in ("1", "2", "3"):
            cells[(tag, t)] = {"1": 0.3, "2": 0.7, "3": 0.5}[t]
    report = discriminative_powers([matrix("X", cells)], b_samples=50, alpha=0.5, seed=1)[0]
    (pair,) = report.pairs
    assert pair.t == 0.0
    assert pair.asl == 1.0
    assert not pair.significant
    assert report.percentage == 0.0


def test_dp_constant_shift_is_always_discriminated():
    # dyadic scores keep the pairwise differences exactly constant
    cells = {("a", t): s for t, s in (("1", 0.25), ("2", 0.5), ("3", 0.375))}
    cells.update({("b", t): cells[("a", t)] + 0.25 for t in ("1", "2", "3")})
    report = discriminative_powers([matrix("X", cells)], b_samples=50, alpha=0.001, seed=1)[0]
    (pair,) = report.pairs
    assert math.isinf(pair.t) and pair.t < 0  # run a scores below run b
    assert pair.asl == 0.0
    assert pair.significant
    assert report.percentage == 100.0


def test_dp_constant_non_dyadic_shift_is_always_discriminated():
    # As floats, 0.1 - 0.3 and 0.5 - 0.7 differ in the last bits; at the
    # printed precision every difference is -0.2.
    a = {"1": 0.1, "2": 0.3, "3": 0.5, "4": 0.2}
    b = {"1": 0.3, "2": 0.5, "3": 0.7, "4": 0.4}
    cells = {("a", t): s for t, s in a.items()} | {("b", t): s for t, s in b.items()}
    report = discriminative_powers([matrix("X", cells)], b_samples=1000, alpha=0.001, seed=1)[0]
    (pair,) = report.pairs
    assert (pair.t, pair.asl, pair.significant) == (-math.inf, 0.0, True)


def test_dp_rejects_a_topic_count_past_the_int64_bound(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew resamples")

    monkeypatch.setattr(analysis, "_pair_rng", no_draws)
    n = analysis._MAX_TOPICS
    values = np.zeros((2, n))
    values[1, 0] = 0.5  # a pair with spread, which would be bootstrapped
    m = ScoreMatrix("X", ("a", "b"), tuple(f"t{j:06d}" for j in range(n)), values)
    with pytest.raises(ConfigError, match=f"fewer than {n} topics, got {n}"):
        discriminative_powers([m], 10, 0.05, 0)


@st.composite
def tied_differences(draw, n):
    """One run pair's differences over n topics (units of 1e-4), drawn from a
    few values so that resamples tie.  Some are mirrored about a centre c,
    so that their mean is c: 0 (S = 0), or a drawn value, which a constant
    resample can then equal."""
    palette = draw(st.lists(st.integers(-10_000, 10_000), min_size=2, max_size=4, unique=True))
    units = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    mode = draw(st.sampled_from(["free", "zero-sum", "mean-drawn"]))
    if mode != "free":
        c = 0 if mode == "zero-sum" else draw(st.sampled_from(palette))
        bound = 10_000 - abs(c)
        offsets = [max(-bound, min(bound, u - c)) for u in units[: n // 2]]
        units = [c + o for o in offsets] + [c - o for o in offsets] + [c] * (n % 2)
    if len(set(units)) == 1:  # never constant
        units[0] = -units[0] or 1
    return units


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_bootstrap_equals_the_int_oracle_on_tied_vectors(data):
    n = data.draw(st.integers(2, 40))
    columns = data.draw(st.lists(tied_differences(n), min_size=1, max_size=3))
    rows, chunk = analysis._block_rows(n, len(columns))
    b = data.draw(st.sampled_from(
        [1, 2, rows - 1, rows, rows + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + rows + 3]
    ))
    seed = data.draw(st.integers(0, 2**32 - 1))
    got = _bootstrap_asls(np.array(columns).T, b, np.random.default_rng(seed))
    want = [ref_bootstrap_asl(c, b, np.random.default_rng(seed)) for c in columns]
    assert got == want
    for c, asl in zip(columns, got):
        if sum(c) == 0:  # t_obs = 0: every resample is as extreme
            assert asl == 1.0


@pytest.mark.parametrize(
    "units,expected",
    [
        # Constant resamples hit (E = +-1, V = 0); the mixed ones repeat the
        # sample (E = 0) and miss: 2 of 4.
        ([1, 0], 0.5),
        # S = 0: every resample hits, the constant ones too.
        ([3, -3], 1.0),
        # Two ones of three are as extreme as the sample, |t*| = |t_obs|
        # exactly, and count; only one 1 (E = 0) misses: 15 of 27.
        ([1, 0, 0], 15 / 27),
        # The constant resample at the mean, (1, 1, 1), has t* = 0 against a
        # nonzero t and misses: 8 of 27.
        ([2, 0, 1], 8 / 27),
    ],
    ids=["constant", "zero-sum", "tie", "constant-at-mean"],
)
def test_exact_bootstrap_counts_ties_and_constant_resamples(units, expected):
    b = 4000
    (got,) = _bootstrap_asls(np.array(units)[:, None], b, np.random.default_rng(5))
    assert got == ref_bootstrap_asl(units, b, np.random.default_rng(5))
    assert got == pytest.approx(expected, abs=0.03)


def test_dp_alpha_only_moves_the_threshold(dp_matrix):
    strict = discriminative_powers([dp_matrix], b_samples=500, alpha=0.01, seed=3)[0]
    loose = discriminative_powers([dp_matrix], b_samples=500, alpha=0.20, seed=3)[0]
    for p_strict, p_loose in zip(strict.pairs, loose.pairs):
        assert p_strict.asl == p_loose.asl
        if p_strict.significant:
            assert p_loose.significant


def test_dp_validation(dp_matrix):
    single_run = grid("X", {"1": [0.1], "2": [0.2]})
    with pytest.raises(ConfigError, match="two runs"):
        discriminative_powers([single_run], 10, 0.05, 0)
    single_topic = grid("X", {"1": [0.1, 0.2]})
    with pytest.raises(ConfigError, match="two topics"):
        discriminative_powers([single_topic], 10, 0.05, 0)
    with pytest.raises(ConfigError, match="at least 1"):
        discriminative_powers([dp_matrix], 0, 0.05, 0)
    with pytest.raises(ConfigError, match="alpha"):
        discriminative_powers([dp_matrix], 10, 1.0, 0)
    with pytest.raises(ConfigError, match="seed"):
        discriminative_powers([dp_matrix], 10, 0.05, -1)


# ---------------------------------------------------------------------------
# audits


def test_select_best_runs_breaks_ties_by_tag():
    m = grid("X", {"1": [0.9, 0.9, 0.1], "2": [0.1, 0.5, 0.9], "3": [0.4, 0.4, 0.4]})
    assert select_best_runs(m) == {"1": "r1", "2": "r3", "3": "r1"}


AUDIT_QRELS = """\
# aspects: relevance correctness
1 0 d1 mr c
1 0 d2 hr pc
1 0 d3 hr nc
2 0 e1 nr nc
2 0 e2 fr nc
"""


@pytest.fixture(scope="module")
def audit_fixture(schema):
    gt, _ = parse_qrels(AUDIT_QRELS, schema)
    runs = [
        run_of("sysA", {"1": ["d2", "d1", "zz"], "2": ["e2", "e1"]}),
        run_of("sysB", {"1": ["d3"], "2": ["e1", "e3"]}),
    ]
    best = {"1": "sysA", "2": "sysB"}
    return best, runs, gt


def test_zero_aspect_counts_unjudged_as_worthless(audit_fixture):
    best, runs, gt = audit_fixture
    report = zero_aspect_at_k(best, runs, gt, k=3)
    by_rank = {row.rank: row for row in report.rows}
    # rank 1: sysA/d2 (sum 4) fine, sysB/e1 graded all-worst -> 1 of 2
    assert (by_rank["1"].count, by_rank["1"].slots) == (1, 2)
    assert by_rank["1"].percent == pytest.approx(50.0)
    # rank 2: sysA/d1 fine, sysB/e3 unjudged -> 1 of 2
    assert (by_rank["2"].count, by_rank["2"].slots) == (1, 2)
    # rank 3: only sysA fills it, with the unjudged zz
    assert (by_rank["3"].count, by_rank["3"].slots) == (1, 1)
    assert by_rank["3"].percent == pytest.approx(100.0)
    assert report.total.rank == "1-3"
    assert (report.total.count, report.total.slots) == (3, 5)
    assert report.total.percent == pytest.approx(60.0)


def test_zero_aspect_validation(audit_fixture):
    best, runs, gt = audit_fixture
    with pytest.raises(ConfigError, match="at least 1"):
        zero_aspect_at_k(best, runs, gt, k=0)
    with pytest.raises(ConfigError, match="not among"):
        zero_aspect_at_k({"1": "ghost"}, runs, gt, k=2)


def test_quality_bands_means_and_empty_band(audit_fixture):
    best, runs, gt = audit_fixture
    report = quality_bands(best, runs, gt, [(1, 1), (2, 3), (4, 5)])
    first, middle, tail = report.rows
    # rank 1: d2 sums to 4, e1 to 0
    assert (first.band, first.n_docs, first.mean_sum) == ((1, 1), 2, 2.0)
    # ranks 2-3: d1 sums to 3, zz and e3 count as 0
    assert (middle.band, middle.n_docs, middle.mean_sum) == ((2, 3), 3, 1.0)
    # no ranking reaches rank 4
    assert (tail.band, tail.n_docs, tail.mean_sum) == ((4, 5), 0, None)


def test_quality_bands_validation(audit_fixture):
    best, runs, gt = audit_fixture
    with pytest.raises(ConfigError, match="bad rank band"):
        quality_bands(best, runs, gt, [(0, 5)])
    with pytest.raises(ConfigError, match="bad rank band"):
        quality_bands(best, runs, gt, [(5, 2)])
    with pytest.raises(ConfigError, match="disjoint"):
        quality_bands(best, runs, gt, [(1, 5), (5, 10)])
    with pytest.raises(ConfigError, match="disjoint"):
        quality_bands(best, runs, gt, [(10, 20), (1, 5)])
