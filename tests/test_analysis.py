"""Meta-evaluation tests: tau-b against a pair-counting oracle, the paired
bootstrap against a straight-line reimplementation sharing its RNG draws, and
the two audit reports on a small hand-checked fixture."""

import math
import random

import numpy as np
import pytest
from scipy import stats

from aspecteval import (
    ConfigError,
    DegenerateInput,
    MatrixMismatch,
    ScoreMatrix,
    discriminative_power,
    kendall_tau,
    measure_correlation,
    parse_qrels,
    quality_bands,
    select_best_runs,
    zero_aspect_at_k,
)
from aspecteval.analysis import _BLOCK_ELEMENTS, _bootstrap_asl, _pair_rng
from conftest import run_of
from reference_impl import ref_bootstrap_asl


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
    """Loop-and-list reimplementation drawing the same index block."""
    n = len(d)
    mean = sum(d) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in d) / (n - 1))
    t_obs = mean / (sd / math.sqrt(n))
    w = [v - mean for v in d]
    idx = rng.integers(0, n, size=(b_samples, n))
    hits = 0
    for row in idx:
        sample = [w[i] for i in row]
        m = sum(sample) / n
        var = sum((v - m) ** 2 for v in sample) / (n - 1)
        if var == 0.0:
            t_star = 0.0 if m == 0.0 else math.inf
        else:
            t_star = m / (math.sqrt(var) / math.sqrt(n))
        if abs(t_star) >= abs(t_obs):
            hits += 1
    return t_obs, hits / b_samples


@pytest.fixture(scope="module")
def dp_matrix():
    rng = random.Random(2026)
    topics = [str(t) for t in range(1, 13)]
    cells = {}
    for tag, lift in (("runA", 0.0), ("runB", 0.12), ("runC", 0.02)):
        for t in topics:
            cells[(tag, t)] = min(1.0, max(0.0, rng.uniform(0.2, 0.6) + lift))
    return matrix("X", cells)


def test_dp_matches_naive_bootstrap_with_shared_draws(dp_matrix):
    b, seed = 400, 7
    report = discriminative_power(dp_matrix, b_samples=b, alpha=0.05, seed=seed)
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
            for b in (1, block - 1, block, block + 1, 3 * block + 7, 10_000):
                got = _bootstrap_asl(d, b, np.random.default_rng([n, b]))
                want = ref_bootstrap_asl(d, b, np.random.default_rng([n, b]))
                assert got == want, (n, b)


def test_dp_t_statistic_is_the_paired_t(dp_matrix):
    report = discriminative_power(dp_matrix, b_samples=10, alpha=0.05, seed=0)
    for pair in report.pairs:
        a = [dp_matrix.score(pair.run_a, t) for t in dp_matrix.topic_ids]
        b = [dp_matrix.score(pair.run_b, t) for t in dp_matrix.topic_ids]
        assert pair.t == pytest.approx(stats.ttest_rel(a, b).statistic, abs=1e-10)


def test_dp_is_deterministic_and_order_invariant(dp_matrix):
    r1 = discriminative_power(dp_matrix, b_samples=300, alpha=0.05, seed=11)
    r2 = discriminative_power(dp_matrix, b_samples=300, alpha=0.05, seed=11)
    assert r1 == r2
    # rebuilding the matrix from shuffled cells changes nothing
    cells = {
        (r, t): dp_matrix.score(r, t)
        for t in reversed(dp_matrix.topic_ids)
        for r in reversed(dp_matrix.run_tags)
    }
    r3 = discriminative_power(matrix("X", cells), b_samples=300, alpha=0.05, seed=11)
    assert r3 == r1


def test_dp_identical_runs_are_never_discriminated():
    cells = {}
    for tag in ("a", "b"):
        for t in ("1", "2", "3"):
            cells[(tag, t)] = {"1": 0.3, "2": 0.7, "3": 0.5}[t]
    report = discriminative_power(matrix("X", cells), b_samples=50, alpha=0.5, seed=1)
    (pair,) = report.pairs
    assert pair.t == 0.0
    assert pair.asl == 1.0
    assert not pair.significant
    assert report.percentage == 0.0


def test_dp_constant_shift_is_always_discriminated():
    # dyadic scores keep the pairwise differences exactly constant
    cells = {("a", t): s for t, s in (("1", 0.25), ("2", 0.5), ("3", 0.375))}
    cells.update({("b", t): cells[("a", t)] + 0.25 for t in ("1", "2", "3")})
    report = discriminative_power(matrix("X", cells), b_samples=50, alpha=0.001, seed=1)
    (pair,) = report.pairs
    assert math.isinf(pair.t) and pair.t < 0  # run a scores below run b
    assert pair.asl == 0.0
    assert pair.significant
    assert report.percentage == 100.0


def test_dp_alpha_only_moves_the_threshold(dp_matrix):
    strict = discriminative_power(dp_matrix, b_samples=500, alpha=0.01, seed=3)
    loose = discriminative_power(dp_matrix, b_samples=500, alpha=0.20, seed=3)
    for p_strict, p_loose in zip(strict.pairs, loose.pairs):
        assert p_strict.asl == p_loose.asl
        if p_strict.significant:
            assert p_loose.significant


def test_dp_validation(dp_matrix):
    single_run = grid("X", {"1": [0.1], "2": [0.2]})
    with pytest.raises(ConfigError, match="two runs"):
        discriminative_power(single_run, 10, 0.05, 0)
    single_topic = grid("X", {"1": [0.1, 0.2]})
    with pytest.raises(ConfigError, match="two topics"):
        discriminative_power(single_topic, 10, 0.05, 0)
    with pytest.raises(ConfigError, match="at least 1"):
        discriminative_power(dp_matrix, 0, 0.05, 0)
    with pytest.raises(ConfigError, match="alpha"):
        discriminative_power(dp_matrix, 10, 1.0, 0)
    with pytest.raises(ConfigError, match="seed"):
        discriminative_power(dp_matrix, 10, 0.05, -1)


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


def test_zero_aspect_counts_unjudged_as_worthless(schema, audit_fixture):
    best, runs, gt = audit_fixture
    report = zero_aspect_at_k(best, runs, gt, schema, k=3)
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


def test_zero_aspect_validation(schema, audit_fixture):
    best, runs, gt = audit_fixture
    with pytest.raises(ConfigError, match="at least 1"):
        zero_aspect_at_k(best, runs, gt, schema, k=0)
    with pytest.raises(ConfigError, match="not among"):
        zero_aspect_at_k({"1": "ghost"}, runs, gt, schema, k=2)


def test_quality_bands_means_and_empty_band(schema, audit_fixture):
    best, runs, gt = audit_fixture
    report = quality_bands(best, runs, gt, schema, [(1, 1), (2, 3), (4, 5)])
    first, middle, tail = report.rows
    # rank 1: d2 sums to 4, e1 to 0
    assert (first.band, first.n_docs, first.mean_sum) == ((1, 1), 2, 2.0)
    # ranks 2-3: d1 sums to 3, zz and e3 count as 0
    assert (middle.band, middle.n_docs, middle.mean_sum) == ((2, 3), 3, 1.0)
    # no ranking reaches rank 4
    assert (tail.band, tail.n_docs, tail.mean_sum) == ((4, 5), 0, None)


def test_quality_bands_validation(schema, audit_fixture):
    best, runs, gt = audit_fixture
    with pytest.raises(ConfigError, match="bad rank band"):
        quality_bands(best, runs, gt, schema, [(0, 5)])
    with pytest.raises(ConfigError, match="bad rank band"):
        quality_bands(best, runs, gt, schema, [(5, 2)])
    with pytest.raises(ConfigError, match="disjoint"):
        quality_bands(best, runs, gt, schema, [(1, 5), (5, 10)])
    with pytest.raises(ConfigError, match="disjoint"):
        quality_bands(best, runs, gt, schema, [(10, 20), (1, 5)])
