"""Measure-layer tests: nDCG/AP primitives, distance-order scoring, the
per-aspect baselines, and the 150-cell golden grid for the reference pool.

Two cells of the harmonic-mean/AP column are frozen from the formula
1/(1/mu_rel + 1/mu_cor) rather than from transcription; see the golden
dictionary for the values.
"""

import itertools
import math
import random

import pytest

from aspecteval import (
    ConfigError,
    MeasureConfig,
    Metric,
    RankedList,
    ScoreMatrix,
    GroundTruth,
    WeightError,
    aspect_scores,
    assign_weights,
    average_precision,
    build_order,
    build_tuple_space,
    cam_score,
    dcg,
    mm_score,
    ndcg,
    parse_schema,
    score_runs,
    order_score,
)
from conftest import (
    ALL_RANKINGS,
    BASELINE_GAINS,
    BASELINE_RELEVANT,
    POOL,
    ground_truth_from,
    pool_runs,
    ranking,
    run_of,
    run_tag_for,
)
from reference_impl import estimate_upper_bound, generate_ideal_rankings, ref_sum

# ---------------------------------------------------------------------------
# primitives


def test_dcg_discounts_every_rank():
    assert dcg([3.0]) == pytest.approx(3.0)  # log2(2) = 1
    assert dcg([3.0, 2.0]) == pytest.approx(3.0 + 2.0 / math.log2(3))
    assert dcg([]) == 0.0


def test_dcg_sums_left_to_right():
    # each tail term is below half an ulp of 1.0 but their sum is not, so a
    # compensated sum rounds up where a left-to-right one does not
    gains = [1.0, 1.5e-16, 2e-16]
    terms = [g / (math.log(i + 1) / math.log(2.0)) for i, g in enumerate(gains, start=1)]
    assert math.fsum(terms) != ref_sum(terms)
    assert dcg(gains) == ref_sum(terms)


def test_dcg_log_base_cancels_in_ndcg():
    gains = {"a": 3.0, "b": 1.0, "c": 2.0}
    run = ranking(("a", "b", "c"))
    judged = list(gains.values())
    base2 = ndcg(run, gains, judged, log_base=2.0)
    base10 = ndcg(run, gains, judged, log_base=10.0)
    assert base2 == pytest.approx(base10, abs=1e-12)


def test_ndcg_of_ideal_ordering_is_one():
    gains = {"a": 3.0, "b": 2.0, "c": 0.0}
    assert ndcg(ranking(("a", "b", "c")), gains, list(gains.values())) == pytest.approx(1.0)


def test_ndcg_zero_ideal_scores_zero():
    assert ndcg(ranking(("a", "b")), {"a": 0.0, "b": 0.0}, [0.0, 0.0]) == 0.0


def test_ndcg_unjudged_docs_gain_nothing():
    gains = {"a": 2.0}
    with_unjudged = ndcg(ranking(("x", "a")), gains, [2.0])
    assert with_unjudged == pytest.approx((2.0 / math.log2(3)) / 2.0)


def test_ndcg_ideal_covers_all_judged_not_just_retrieved():
    # retrieving only the second-best doc cannot reach 1
    gains = {"a": 3.0, "b": 1.0}
    ideal = 3.0 + 1.0 / math.log2(3)
    assert ndcg(ranking(("b",)), gains, [3.0, 1.0]) == pytest.approx(1.0 / ideal)


def test_average_precision_basics():
    assert average_precision(ranking(("a", "b", "c")), {"a", "c"}, 2) == pytest.approx(
        (1.0 + 2.0 / 3.0) / 2.0
    )
    assert average_precision(ranking(("a",)), set(), 0) == 0.0
    # R counts the whole judged pool, including docs never retrieved
    assert average_precision(ranking(("a",)), {"a"}, 2) == pytest.approx(0.5)


def test_average_precision_depth_truncates_hits_not_r():
    run = ranking(("x", "a", "b"))
    assert average_precision(run, {"a", "b"}, 2, depth=2) == pytest.approx(0.25)


def test_ap_brute_force_oracle_small():
    rng = random.Random(8128)
    for _ in range(60):
        n = rng.randint(1, 12)
        docs = [f"d{i}" for i in range(n)]
        relevant = {d for d in docs if rng.random() < 0.4}
        order = docs[:]
        rng.shuffle(order)
        total = len(relevant)
        expected = 0.0
        hits = 0
        for pos, doc in enumerate(order, start=1):
            if doc in relevant:
                hits += 1
                expected += hits / pos
        expected = expected / total if total else 0.0
        assert average_precision(ranking(order), relevant, total) == expected


def test_ndcg_adjacent_swap_monotonicity_small():
    rng = random.Random(31415)
    for _ in range(60):
        n = rng.randint(2, 10)
        gains = {f"d{i}": float(rng.randint(0, 5)) for i in range(n)}
        docs = sorted(gains)
        rng.shuffle(docs)
        i = rng.randrange(n - 1)
        if gains[docs[i]] >= gains[docs[i + 1]]:
            docs[i], docs[i + 1] = docs[i + 1], docs[i]
        before = ndcg(ranking(docs), gains, list(gains.values()))
        docs[i], docs[i + 1] = docs[i + 1], docs[i]
        after = ndcg(ranking(docs), gains, list(gains.values()))
        assert after >= before - 1e-12


# ---------------------------------------------------------------------------
# distance-order scoring on the reference pool


@pytest.fixture(scope="module")
def orders(schema):
    space = build_tuple_space(schema)
    return {m: build_order(space, schema, m) for m in Metric}


def test_reference_pool_weights(orders):
    distinct = {m: assign_weights(orders[m], "distinct") for m in Metric}
    assert [distinct[Metric.EUCLIDEAN].of(POOL[d]) for d in ("d1", "d2", "d3")] == [5, 7, 3]
    assert [distinct[Metric.MANHATTAN].of(POOL[d]) for d in ("d1", "d2", "d3")] == [6, 7, 4]
    assert [distinct[Metric.CHEBYSHEV].of(POOL[d]) for d in ("d1", "d2", "d3")] == [1, 2, 0]
    binary = {m: assign_weights(orders[m], "binary") for m in Metric}
    assert [binary[Metric.EUCLIDEAN].of(POOL[d]) for d in ("d1", "d2", "d3")] == [1, 1, 0]
    assert [binary[Metric.MANHATTAN].of(POOL[d]) for d in ("d1", "d2", "d3")] == [1, 1, 0]
    assert [binary[Metric.CHEBYSHEV].of(POOL[d]) for d in ("d1", "d2", "d3")] == [0, 1, 0]


def test_order_score_ndcg_perfect_for_descending_weights(gt, orders):
    cfg = MeasureConfig("ndcg")
    for metric, order in orders.items():
        for policy in ("distinct", "binary"):
            w = assign_weights(order, policy)
            by_weight = sorted(POOL, key=lambda d: -w.of(POOL[d]))
            score = order_score(ranking(by_weight), gt, w, cfg)
            assert score == pytest.approx(1.0, abs=1e-12), (metric, policy)


def test_order_score_ap_needs_binary_weights(gt, orders):
    w = assign_weights(orders[Metric.EUCLIDEAN], "distinct")
    with pytest.raises(ConfigError, match="binary"):
        order_score(ranking(("d1",)), gt, w, MeasureConfig("ap"))


def test_order_score_depth_cuts_both_run_and_ideal(gt, orders):
    w = assign_weights(orders[Metric.EUCLIDEAN], "distinct")
    run = ranking(("d2", "d1", "d3"))
    full = order_score(run, gt, w, MeasureConfig("ndcg"))
    at_one = order_score(run, gt, w, MeasureConfig("ndcg", depth=1))
    assert full == pytest.approx(1.0)
    assert at_one == pytest.approx(1.0)  # best doc first, ideal also cut to 1
    worst_first = order_score(ranking(("d3", "d1", "d2")), gt, w, MeasureConfig("ndcg", depth=1))
    assert worst_first == pytest.approx(3.0 / 7.0)


# ---------------------------------------------------------------------------
# golden grid for the reference pool
#
# Rankings follow conftest.ALL_RANKINGS:
#   (d1) (d2) (d3) | (d1,d2) (d1,d3) (d2,d1) (d2,d3) (d3,d1) (d3,d2)
#   | then the six three-doc permutations in lexicographic order.

GOLDEN = {
    "EUCL-ap": (0.5, 0.5, 0.0,
                1.0, 0.5, 1.0, 0.5, 0.25, 0.25,
                1.0, 0.8333, 1.0, 0.8333, 0.5833, 0.5833),
    "MANH-ap": (0.5, 0.5, 0.0,
                1.0, 0.5, 1.0, 0.5, 0.25, 0.25,
                1.0, 0.8333, 1.0, 0.8333, 0.5833, 0.5833),
    "CHEB-ap": (0.0, 1.0, 0.0,
                0.5, 0.0, 1.0, 1.0, 0.0, 0.5,
                0.5, 0.3333, 1.0, 1.0, 0.3333, 0.5),
    "CAM-ap":  (0.5, 0.25, 0.25,
                0.625, 0.625, 0.5, 0.5, 0.5, 0.5,
                0.7917, 0.7917, 0.6667, 0.6667, 0.6667, 0.6667),
    "MM-ap":   (0.0, 0.0, 0.0,
                0.2, 0.2, 0.25, 0.0, 0.25, 0.0,
                0.3684, 0.3684, 0.3125, 0.25, 0.3125, 0.25),
    "EUCL-ndcg": (0.4290, 0.6006, 0.2574,
                  0.8080, 0.5914, 0.8713, 0.7630, 0.5281, 0.6364,
                  0.9367, 0.8917, 1.0, 0.9775, 0.8284, 0.8509),
    "MANH-ndcg": (0.4693, 0.5475, 0.3129,
                  0.8147, 0.6667, 0.8436, 0.7449, 0.6089, 0.6583,
                  0.9711, 0.9404, 1.0, 0.9795, 0.8827, 0.8929),
    "CHEB-ndcg": (0.3801, 0.7602, 0.0,
                  0.8597, 0.3801, 1.0, 0.7602, 0.2398, 0.4796,
                  0.8597, 0.7602, 1.0, 0.9502, 0.6199, 0.6697),
    "CAM-ndcg": (0.4728, 0.4682, 0.2781,
                 0.7682, 0.6483, 0.7665, 0.6437, 0.5765, 0.5735,
                 0.9073, 0.8824, 0.9056, 0.8801, 0.8106, 0.8100),
    "MM-ndcg": (0.1491, 0.2258, 0.0,
                0.3491, 0.3145, 0.3776, 0.2679, 0.2801, 0.1897,
                0.4489, 0.4386, 0.4516, 0.4319, 0.3930, 0.3827),
}


@pytest.fixture(scope="module")
def golden_matrices(schema, gt):
    return score_runs(
        pool_runs(),
        gt,
        schema,
        mm_variant="table",
        aspect_gains=BASELINE_GAINS,
        aspect_relevant=BASELINE_RELEVANT,
    )


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_grid(golden_matrices, label):
    matrix = golden_matrices[label]
    for perm, expected in zip(ALL_RANKINGS, GOLDEN[label]):
        got = matrix.score(run_tag_for(perm), "1")
        assert got == pytest.approx(expected, abs=5e-4), (label, perm)


def test_canonical_harmonic_mean_is_twice_the_two_aspect_table_form(schema, gt):
    canonical = score_runs(
        pool_runs(), gt, schema, kinds=("ndcg",), metrics=(),
        mm_variant="canonical", aspect_gains=BASELINE_GAINS,
    )["MM-ndcg"]
    table = score_runs(
        pool_runs(), gt, schema, kinds=("ndcg",), metrics=(),
        mm_variant="table", aspect_gains=BASELINE_GAINS,
    )["MM-ndcg"]
    for perm in ALL_RANKINGS:
        tag = run_tag_for(perm)
        assert canonical.score(tag, "1") == pytest.approx(
            2.0 * table.score(tag, "1"), abs=1e-12
        )


# ---------------------------------------------------------------------------
# baselines


def ap_cfg():
    return MeasureConfig("ap", aspect_relevant=BASELINE_RELEVANT)


def ndcg_cfg():
    return MeasureConfig("ndcg", aspect_gains=BASELINE_GAINS)


def test_aspect_scores_match_hand_computation(schema, gt):
    rel, cor = aspect_scores(ranking(("d1", "d2")), gt, schema, ap_cfg())
    assert rel == pytest.approx(0.25)  # d2 at rank 2, R = 2
    assert cor == pytest.approx(1.0)   # d1 at rank 1, R = 1


def test_cam_is_the_importance_weighted_mean(schema, gt):
    run = ranking(("d1", "d2"))
    assert cam_score(run, gt, schema, ap_cfg()) == pytest.approx(0.625)
    skewed = cam_score(
        run, gt, schema, ap_cfg(), importance={"relevance": 0.8, "correctness": 0.2}
    )
    assert skewed == pytest.approx(0.8 * 0.25 + 0.2 * 1.0)


def test_mm_zero_rule(schema, gt):
    # d3 retrieves nothing correct: the correctness AP is 0, so MM is 0
    assert mm_score(ranking(("d3",)), gt, schema, ap_cfg()) == 0.0
    assert mm_score(ranking(("d3",)), gt, schema, ap_cfg(), variant="table") == 0.0


def test_mm_variants(schema, gt):
    run = ranking(("d1", "d2"))
    table = mm_score(run, gt, schema, ap_cfg(), variant="table")
    canonical = mm_score(run, gt, schema, ap_cfg(), variant="canonical")
    assert table == pytest.approx(0.2)
    assert canonical == pytest.approx(0.4)
    with pytest.raises(ConfigError, match="variant"):
        mm_score(run, gt, schema, ap_cfg(), variant="geometric")


def test_importance_weights_validated(schema, gt):
    run = ranking(("d1",))
    with pytest.raises(WeightError, match="sum"):
        cam_score(run, gt, schema, ap_cfg(), importance={"relevance": 0.6, "correctness": 0.6})
    with pytest.raises(WeightError, match="no importance weight"):
        cam_score(run, gt, schema, ap_cfg(), importance={"relevance": 1.0})
    with pytest.raises(WeightError, match="0, 1"):
        cam_score(
            run, gt, schema, ap_cfg(),
            importance={"relevance": 1.5, "correctness": -0.5},
        )


def test_aspect_map_validation(schema, gt):
    run = ranking(("d1",))
    decreasing = MeasureConfig(
        "ndcg", aspect_gains={"relevance": {"nr": 5, "mr": 3, "fr": 2, "hr": 1}}
    )
    with pytest.raises(ConfigError, match="must not decrease"):
        aspect_scores(run, gt, schema, decreasing)
    missing = MeasureConfig("ndcg", aspect_gains={"relevance": {"nr": 0}})
    with pytest.raises(ConfigError, match="no gain configured"):
        aspect_scores(run, gt, schema, missing)
    gapped = MeasureConfig("ap", aspect_relevant={"relevance": ["mr", "hr"]})
    with pytest.raises(ConfigError, match="upward-closed"):
        aspect_scores(run, gt, schema, gapped)


def test_measure_config_validation():
    with pytest.raises(ConfigError):
        MeasureConfig("rr")
    with pytest.raises(ConfigError):
        MeasureConfig("ndcg", depth=0)
    with pytest.raises(ConfigError):
        MeasureConfig("ndcg", log_base=1.0)


# ---------------------------------------------------------------------------
# ideal rankings and upper bounds


def test_ideal_ranking_count_and_determinism(schema):
    ideals = generate_ideal_rankings("1", POOL, schema)
    assert len(ideals) == 5  # 2! permutations + 3 scalarizations
    again = generate_ideal_rankings("1", POOL, schema)
    assert [r.doc_ids for r in ideals] == [r.doc_ids for r in again]


def test_ideal_ranking_strategies(schema):
    gains = [
        [BASELINE_GAINS["relevance"][l] for l in schema.aspects[0].labels],
        [BASELINE_GAINS["correctness"][l] for l in schema.aspects[1].labels],
    ]
    ideals = [r.doc_ids for r in generate_ideal_rankings("1", POOL, schema, gains)]
    assert ideals[0] == ("d2", "d3", "d1")  # relevance first, then correctness
    assert ideals[1] == ("d1", "d2", "d3")  # correctness first
    assert ideals[2] == ("d2", "d1", "d3")  # gain sums 20, 15, 15
    assert ideals[3] == ("d2", "d3", "d1")  # squared sums 250, 225, 125
    assert ideals[4] == ("d2", "d3", "d1")  # max gains 15, 15, 10


def test_upper_bound_gap_between_aggregation_and_order_scoring(schema, gt, orders):
    cam = lambda rl: cam_score(rl, gt, schema, ap_cfg())
    bound = estimate_upper_bound(cam, "1", POOL, schema)
    assert bound == pytest.approx(19.0 / 24.0, abs=1e-12)  # 0.7917 < 1
    assert bound < 1.0
    w = assign_weights(orders[Metric.EUCLIDEAN], "binary")
    per_list = lambda rl: order_score(rl, gt, w, MeasureConfig("ap"))
    assert estimate_upper_bound(per_list, "1", POOL, schema) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# score matrices


def test_score_matrix_build_and_means():
    m = ScoreMatrix.build(
        "X", {("a", "1"): 0.5, ("a", "2"): 1.0, ("b", "1"): 0.0, ("b", "2"): 0.5}
    )
    assert m.run_tags == ("a", "b")
    assert m.topic_ids == ("1", "2")
    assert m.mean("a") == pytest.approx(0.75)
    assert m.topic_scores("1") == [0.5, 0.0]
    with pytest.raises(ValueError, match="missing cell"):
        ScoreMatrix.build("X", {("a", "1"): 0.5, ("b", "2"): 0.5})
    with pytest.raises(ValueError, match="out of range"):
        ScoreMatrix.build("X", {("a", "1"): 1.5})
    with pytest.raises(ValueError, match="read-only"):
        m.values[0, 0] = 0.25
    # clamped like max(0.0, s): a negative zero must not print as -0.0000
    assert math.copysign(1.0, ScoreMatrix.build("X", {("a", "1"): -0.0}).score("a", "1")) == 1.0


def test_score_matrix_mean_sums_left_to_right():
    rng = random.Random(5)
    cells = {(r, f"t{j:03d}"): rng.random() for r in "abcd" for j in range(200)}
    # a row whose compensated sum differs: 1.0, then 199 terms of 1e-16
    cells.update({("e", f"t{j:03d}"): 1e-16 if j else 1.0 for j in range(200)})
    m = ScoreMatrix.build("X", cells)
    for r in m.run_tags:
        row = [cells[(r, t)] for t in m.topic_ids]
        assert m.mean(r) == ref_sum(row) / len(row)
    e = [cells[("e", t)] for t in m.topic_ids]
    assert m.mean("e") == 1.0 / 200 != math.fsum(e) / len(e)


def test_score_runs_rejects_duplicate_tags(schema, gt):
    runs = pool_runs()
    with pytest.raises(ConfigError, match="duplicate run tag"):
        score_runs([runs[0], runs[0]], gt, schema)


def test_missing_topic_scores_zero(schema, gt):
    from conftest import run_of

    present = run_of("sysA", {"1": ["d2", "d1", "d3"]})
    absent = run_of("sysB", {})  # retrieved nothing at all
    matrices = score_runs([present, absent], gt, schema, kinds=("ndcg",))
    assert matrices["EUCL-ndcg"].score("sysA", "1") == pytest.approx(1.0)
    assert matrices["EUCL-ndcg"].score("sysB", "1") == 0.0


@pytest.mark.parametrize("depth", [None, 1, 5])
@pytest.mark.parametrize("log_base", [2, 10])
def test_score_runs_equals_the_scalar_scorers_on_every_cell(depth, log_base):
    rng = random.Random(1202)
    lines = []
    for a, n_grades in enumerate((4, 3, 3)):
        lines.append(f"aspect a{a}")
        milli = rng.randint(0, 1000)
        for g in range(n_grades):
            milli += rng.randint(0, 2000) if g else 0
            lines.append(f"label g{g} {milli / 1000:.3f}")
    # a middle trigger grade keeps the best and the all-worst tuple feasible
    lines.append(f"couple a0 g{rng.randint(1, 2)} a1 g{rng.randint(0, 2)}")
    schema = parse_schema("\n".join(lines))
    space = build_tuple_space(schema)
    assert len(space) < 4 * 3 * 3
    topics = "12345"
    gt = ground_truth_from(
        [(t, f"d{d}", rng.choice(space.tuples)) for t in "123" for d in range(8)]
        # topic 4 is all worst grades, so every ideal is 0; no run retrieves topic 5
        + [("4", f"d{d}", schema.worst_tuple) for d in range(3)]
        + [("5", f"d{d}", rng.choice(space.tuples)) for d in range(4)],
        schema,
    )
    docs = [f"d{d}" for d in range(8)] + [f"u{u}" for u in range(6)]  # u* are unjudged
    runs = [
        run_of(f"s{i}", {t: rng.sample(docs, rng.randint(1, len(docs))) for t in run_topics})
        for i, run_topics in enumerate(["1234", "134", "2", ""])
    ]
    # every doc, so longer than any depth and than the judged pool
    runs.append(run_of("s4", {"1": docs[::-1], "2": docs, "4": docs}))
    importance = {"a0": 0.5, "a1": 0.3, "a2": 0.2}
    gains = {"a0": {"g0": 0, "g1": 1, "g2": 1, "g3": 7}, "a1": {"g0": 0, "g1": 2, "g2": 3}}
    relevant = {"a0": ["g2", "g3"], "a1": ["g2"]}
    settings = dict(depth=depth, log_base=log_base, aspect_gains=gains, aspect_relevant=relevant)
    clamp = lambda s: min(1.0, max(0.0, s))
    for variant in ("canonical", "table"):
        matrices = score_runs(
            runs, gt, schema, importance=importance, mm_variant=variant, **settings
        )
        assert all(m.topic_ids == tuple(topics) for m in matrices.values())
        assert not any(m.values[:, topics.index("4")].any() for m in matrices.values())
        for kind, policy in (("ndcg", "distinct"), ("ap", "binary")):
            cfg = MeasureConfig(kind, **settings)
            weights = {m: assign_weights(build_order(space, schema, m), policy) for m in Metric}
            for rf, topic in itertools.product(runs, topics):
                rl, tag = rf.ranking(topic), rf.run_tag
                for m, w in weights.items():
                    got = matrices[f"{m.short}-{kind}"].score(tag, topic)
                    assert got == clamp(order_score(rl, gt, w, cfg)), (m, kind, tag, topic)
                cam = cam_score(rl, gt, schema, cfg, importance)
                mm = mm_score(rl, gt, schema, cfg, importance, variant)
                assert matrices[f"CAM-{kind}"].score(tag, topic) == clamp(cam)
                assert matrices[f"MM-{kind}"].score(tag, topic) == clamp(mm)


@pytest.mark.parametrize("bad", [(3,), (3, 2, 0), (-1, 0), (4, 0), (2**70, 0), (0, 1)])
def test_score_runs_rejects_a_judged_tuple_off_the_order_as_the_scalar_scorer_does(schema, bad):
    # (0, 1) lies on the grade grid but breaks the coupling rule
    gt = GroundTruth({("1", "d1"): (3, 1), ("1", "d2"): bad, ("1", "d3"): (0, 0)})
    weights = assign_weights(build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN), "distinct")
    with pytest.raises(ConfigError, match="without a weight") as scalar:
        order_score(ranking(["d1"]), gt, weights, MeasureConfig("ndcg"))
    with pytest.raises(ConfigError) as batch:
        score_runs([run_of("s", {"1": ["d1"]})], gt, schema, kinds=("ndcg",))
    assert str(batch.value) == str(scalar.value)
    if bad != (0, 1):  # off the grid: CAM and MM alone must not wrap a grade either
        with pytest.raises(ConfigError, match="off the grade grid"):
            score_runs([run_of("s", {"1": ["d1"]})], gt, schema, kinds=("ndcg",), metrics=())
