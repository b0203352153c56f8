"""Acceptance gate: one test per shipped guarantee, each ending in a single
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).

Golden values are frozen here independently of the module tests so the gate
cannot drift with them.  The straight-line comparison code lives in
``reference_impl.py``.
"""

import hashlib
import math
import random
import time

import numpy as np
import pytest

from aspecteval import (
    MeasureConfig,
    Metric,
    RankedList,
    ScoreMatrix,
    assign_weights,
    average_precision,
    build_order,
    build_tuple_space,
    cam_score,
    check_extends_partial_order,
    discretize_quantile,
    discretize_threshold,
    discriminative_powers,
    kendall_tau,
    mm_score,
    ndcg,
    parse_run,
    parse_schema,
    serialize_run,
    order_score,
)
from aspecteval.cli import main
from aspecteval.reports import render_dp
from conftest import BASELINE_GAINS, BASELINE_RELEVANT, REFERENCE_SCHEMA, ground_truth_from
from reference_impl import (
    estimate_upper_bound,
    read_score_table,
    ref_best_runs,
    ref_correlation,
    ref_dp,
    ref_quality_bands,
    ref_tau_b,
    ref_zero_aspect,
    synth_benchmark,
)


def conclude(label, failures):
    print(f"\n{label}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{label} | first failures: {failures[:5]}"


# ---------------------------------------------------------------------------
# AC1: the reference-pool measure grid through the evaluate command

POOL_QRELS = """\
# aspects: relevance correctness
1 0 d1 mr c
1 0 d2 hr pc
1 0 d3 hr nc
"""

POOL_CONFIG = """\
[mm]
variant = table

[gains.relevance]
nr = 0
mr = 5
fr = 10
hr = 15

[gains.correctness]
nc = 0
pc = 5
c = 10

[relevant.relevance]
labels = fr hr

[relevant.correctness]
labels = c
"""

RANKINGS = (
    ("d1",), ("d2",), ("d3",),
    ("d1", "d2"), ("d1", "d3"), ("d2", "d1"),
    ("d2", "d3"), ("d3", "d1"), ("d3", "d2"),
    ("d1", "d2", "d3"), ("d1", "d3", "d2"), ("d2", "d1", "d3"),
    ("d2", "d3", "d1"), ("d3", "d1", "d2"), ("d3", "d2", "d1"),
)

GRID = {
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

ORDER_LABELS = ("EUCL-ndcg", "MANH-ndcg", "CHEB-ndcg", "EUCL-ap", "MANH-ap", "CHEB-ap")


def write_pool_env(root):
    (root / "schema.txt").write_text(REFERENCE_SCHEMA)
    (root / "qrels.txt").write_text(POOL_QRELS)
    (root / "eval.ini").write_text(POOL_CONFIG)
    runs = root / "runs"
    runs.mkdir()
    for perm in RANKINGS:
        tag = "r-" + "-".join(perm)
        lines = [
            f"1 Q0 {doc} {i + 1} {float(len(perm) - i)} {tag}"
            for i, doc in enumerate(perm)
        ]
        (runs / f"{tag}.run").write_text("\n".join(lines) + "\n")


def test_ac1_measure_grid_through_evaluate(tmp_path):
    failures = []
    write_pool_env(tmp_path)
    code = main(
        [
            "evaluate",
            "--schema", str(tmp_path / "schema.txt"),
            "--qrels", str(tmp_path / "qrels.txt"),
            "--runs", str(tmp_path / "runs"),
            "--config", str(tmp_path / "eval.ini"),
            "--out", str(tmp_path / "out"),
        ]
    )
    if code != 0:
        failures.append(f"evaluate exited {code}")
    tables = {
        label: read_score_table((tmp_path / "out" / f"scores_{label}.tsv").read_text())
        for label in GRID
    }
    # the six distance-order columns are the binding 90-value grid
    for label in ORDER_LABELS:
        cells = tables[label][3]
        for perm, expected in zip(RANKINGS, GRID[label]):
            got = cells[("r-" + "-".join(perm), "1")]
            if abs(got - expected) > 5e-4:
                failures.append(f"{label} {perm}: {got} != {expected}")
    # the aggregation baselines printed alongside them
    for label in set(GRID) - set(ORDER_LABELS):
        cells = tables[label][3]
        for perm, expected in zip(RANKINGS, GRID[label]):
            got = cells[("r-" + "-".join(perm), "1")]
            if abs(got - expected) > 5e-4:
                failures.append(f"{label} {perm}: {got} != {expected}")
    # canonical harmonic mean = exactly 2x the two-aspect table form
    schema = parse_schema(REFERENCE_SCHEMA)
    gt = ground_truth_from(
        [("1", "d1", (1, 2)), ("1", "d2", (3, 1)), ("1", "d3", (3, 0))], schema
    )
    for kind, extra in (("ndcg", {"aspect_gains": BASELINE_GAINS}),
                        ("ap", {"aspect_relevant": BASELINE_RELEVANT})):
        for perm in RANKINGS:
            run = RankedList("1", perm)
            cfg = MeasureConfig(kind, **extra)
            table = mm_score(run, gt, schema, cfg, variant="table")
            canonical = mm_score(run, gt, schema, cfg, variant="canonical")
            if abs(canonical - 2.0 * table) > 1e-12:
                failures.append(f"MM-{kind} {perm}: {canonical} != 2*{table}")
    conclude("AC1 printed measure grid via evaluate (+-5e-4)", failures)


# ---------------------------------------------------------------------------
# AC2: golden distance-order chains through the order command

CHAIN_SCHEMA_TEMPLATE = """\
aspect relevance
label nr 0
label mr 1
label fr 2
label hr 3
aspect correctness
label nc {}
label pc {}
label c {}
couple relevance nr correctness nc
"""

CHAINS_GATE = {
    ("0 1.5 3", "euclidean"): [
        {(3, 2)}, {(2, 2)}, {(3, 1)}, {(2, 1)}, {(1, 2)},
        {(1, 1)}, {(3, 0)}, {(2, 0)}, {(1, 0)}, {(0, 0)},
    ],
    ("0 1.5 3", "manhattan"): [
        {(3, 2)}, {(2, 2)}, {(3, 1)}, {(1, 2)}, {(2, 1)},
        {(3, 0)}, {(1, 1)}, {(2, 0)}, {(1, 0)}, {(0, 0)},
    ],
    ("0 1.5 3", "chebyshev"): [
        {(3, 2)}, {(2, 2)}, {(3, 1), (2, 1)}, {(1, 2), (1, 1)},
        {(3, 0), (2, 0), (1, 0), (0, 0)},
    ],
    ("0 1 2", "euclidean"): [
        {(3, 2)}, {(3, 1), (2, 2)}, {(2, 1)}, {(3, 0), (1, 2)},
        {(2, 0), (1, 1)}, {(1, 0)}, {(0, 0)},
    ],
    ("0 1 2", "manhattan"): [
        {(3, 2)}, {(3, 1), (2, 2)}, {(3, 0), (2, 1), (1, 2)},
        {(2, 0), (1, 1)}, {(1, 0)}, {(0, 0)},
    ],
    ("0 1 2", "chebyshev"): [
        {(3, 2)}, {(3, 1), (2, 1), (2, 2)},
        {(3, 0), (2, 0), (1, 2), (1, 1), (1, 0)}, {(0, 0)},
    ],
    ("0 2 6", "euclidean"): [
        {(3, 2)}, {(2, 2)}, {(1, 2)}, {(3, 1)}, {(2, 1)},
        {(1, 1)}, {(3, 0)}, {(2, 0)}, {(1, 0)}, {(0, 0)},
    ],
    ("0 2 6", "manhattan"): [
        {(3, 2)}, {(2, 2)}, {(1, 2)}, {(3, 1)}, {(2, 1)},
        {(1, 1), (3, 0)}, {(2, 0)}, {(1, 0)}, {(0, 0)},
    ],
    ("0 2 6", "chebyshev"): [
        {(3, 2)}, {(2, 2)}, {(1, 2)}, {(3, 1), (2, 1), (1, 1)},
        {(3, 0), (2, 0), (1, 0), (0, 0)},
    ],
}

REL_INDEX = {"nr": 0, "mr": 1, "fr": 2, "hr": 3}
COR_INDEX = {"nc": 0, "pc": 1, "c": 2}


def parse_dump_classes(text):
    classes = []
    for line in text.splitlines():
        if not line.startswith("class "):
            continue
        members = line.split(" : ", 1)[1]
        cls = set()
        for member in members.split(";"):
            rel, cor = member.split(",")
            cls.add((REL_INDEX[rel], COR_INDEX[cor]))
        classes.append(cls)
    return classes


def test_ac2_order_chain_goldens(tmp_path):
    failures = []
    for (values, metric), expected in sorted(CHAINS_GATE.items()):
        schema_path = tmp_path / f"schema_{values.replace(' ', '_')}.txt"
        schema_path.write_text(CHAIN_SCHEMA_TEMPLATE.format(*values.split()))
        out = tmp_path / f"dump_{values.replace(' ', '_')}_{metric}.txt"
        code = main(
            ["order", "--schema", str(schema_path), "--metric", metric, "--out", str(out)]
        )
        if code != 0:
            failures.append(f"order exited {code} for {values}/{metric}")
            continue
        got = parse_dump_classes(out.read_text())
        if got != expected:
            failures.append(f"{values}/{metric}: {got} != {expected}")
    conclude("AC2 golden order chains via order command (exact)", failures)


# ---------------------------------------------------------------------------
# AC3: orders extend Pareto dominance on random schemas


def random_schema(rng):
    lines = []
    for a in range(rng.randint(2, 5)):
        lines.append(f"aspect a{a}")
        milli = rng.randint(0, 1000)
        for g in range(rng.randint(2, 5)):
            if g:
                milli += rng.randint(0, 2000)
            lines.append(f"label g{g} {milli / 1000:.3f}")
    return parse_schema("\n".join(lines))


def test_ac3_orders_extend_dominance():
    failures = []
    rng = random.Random(271828)
    started = time.monotonic()
    for i in range(1000):
        schema = random_schema(rng)
        space = build_tuple_space(schema)
        for metric in Metric:
            order = build_order(space, schema, metric)
            if not check_extends_partial_order(order, schema):
                failures.append(f"schema {i} violates dominance under {metric.value}")
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    conclude("AC3 dominance extension on 1000 random schemas (<30 s)", failures)


# ---------------------------------------------------------------------------
# AC4: descending-weight rankings score 1; aggregation upper-bound gap


def random_explicit_weights(rng, n_classes):
    weights = []
    current = rng.randint(1, 9)
    for _ in range(n_classes):
        weights.append(current)
        current = max(0, current - rng.randint(0, 2))
    # the last class holds the all-worst tuple, which must weigh 0
    weights[-1] = 0
    return weights


def test_ac4_perfect_scores_and_upper_bounds():
    failures = []
    rng = random.Random(909090)
    cfg = MeasureConfig("ndcg")
    topics = 0
    while topics < 200:
        schema = random_schema(rng)
        space = build_tuple_space(schema)
        orders = {m: build_order(space, schema, m) for m in Metric}
        n_docs = rng.randint(1, 10)
        docs = {
            f"d{i:02d}": space.tuples[rng.randrange(len(space.tuples))]
            for i in range(n_docs)
        }
        policies = ["distinct", "binary"]
        explicit = {
            m: random_explicit_weights(rng, orders[m].n_classes) for m in Metric
        }
        assignments = []
        for metric in Metric:
            for policy in policies:
                assignments.append((metric, policy, assign_weights(orders[metric], policy)))
            assignments.append(
                (metric, "explicit", assign_weights(orders[metric], explicit[metric]))
            )
        # the claim presumes a topic where something carries positive weight
        if any(all(w.of(t) == 0 for t in docs.values()) for _, _, w in assignments):
            continue
        topics += 1
        gt = ground_truth_from([("q", d, t) for d, t in docs.items()], schema)
        for metric, policy, w in assignments:
            by_weight = sorted(docs, key=lambda d: (-w.of(docs[d]), d))
            score = order_score(RankedList("q", tuple(by_weight)), gt, w, cfg)
            if abs(score - 1.0) > 1e-12:
                failures.append(f"topic {topics} {metric.value}/{policy}: {score}")

    schema = parse_schema(REFERENCE_SCHEMA)
    pool = {"d1": (1, 2), "d2": (3, 1), "d3": (3, 0)}
    gt = ground_truth_from([("1", d, t) for d, t in pool.items()], schema)
    ap_cfg = MeasureConfig("ap", aspect_relevant=BASELINE_RELEVANT)
    cam_bound = estimate_upper_bound(
        lambda rl: cam_score(rl, gt, schema, ap_cfg), "1", pool, schema
    )
    if abs(cam_bound - 19.0 / 24.0) > 1e-12 or not cam_bound < 1.0:
        failures.append(f"aggregated-AP upper bound {cam_bound} != 19/24")
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    w = assign_weights(order, "binary")
    order_bound = estimate_upper_bound(
        lambda rl: order_score(rl, gt, w, MeasureConfig("ap")), "1", pool, schema
    )
    if abs(order_bound - 1.0) > 1e-12:
        failures.append(f"order-based AP upper bound {order_bound} != 1")
    conclude("AC4 perfect descending-weight scores; upper-bound gap", failures)


# ---------------------------------------------------------------------------
# AC5: primitive measure oracles


def test_ac5_ap_oracle_and_ndcg_monotonicity():
    failures = []
    rng = random.Random(161803)
    for case in range(500):
        n = rng.randint(1, 25)
        docs = [f"d{i}" for i in range(n)]
        relevant = {d for d in docs if rng.random() < 0.35}
        order = docs[:]
        rng.shuffle(order)
        hits = 0
        expected = 0.0
        for position, doc in enumerate(order, start=1):
            if doc in relevant:
                hits += 1
                expected += hits / position
        expected = expected / len(relevant) if relevant else 0.0
        got = average_precision(RankedList("q", tuple(order)), relevant, len(relevant))
        if got != expected:
            failures.append(f"AP case {case}: {got} != {expected}")
    for case in range(500):
        n = rng.randint(2, 15)
        gains = {f"d{i}": float(rng.randint(0, 6)) for i in range(n)}
        docs = sorted(gains)
        rng.shuffle(docs)
        i = rng.randrange(n - 1)
        if gains[docs[i]] >= gains[docs[i + 1]]:
            docs[i], docs[i + 1] = docs[i + 1], docs[i]
        judged = list(gains.values())
        before = ndcg(RankedList("q", tuple(docs)), gains, judged)
        docs[i], docs[i + 1] = docs[i + 1], docs[i]
        after = ndcg(RankedList("q", tuple(docs)), gains, judged)
        if after < before - 1e-12:
            failures.append(f"swap case {case}: {after} < {before}")
    conclude("AC5 AP oracle (500 exact) and swap monotonicity (500)", failures)


# ---------------------------------------------------------------------------
# AC6: tau-b pair-counting oracle


def test_ac6_rank_correlation_oracle():
    failures = []
    rng = random.Random(314159)
    for case in range(1000):
        n = rng.randint(2, 40)
        while True:
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 6) for _ in range(n)]
            if len(set(x)) > 1 and len(set(y)) > 1:
                break
        expected = ref_tau_b(x, y)
        got = kendall_tau(x, y)
        if abs(got - expected) >= 1e-12:
            failures.append(f"case {case}: {got} != {expected}")
    identical = [0.1, 0.7, 0.3, 0.9]
    if kendall_tau(identical, identical) != 1.0:
        failures.append("identical lists do not score 1")
    if kendall_tau(identical, [-v for v in identical]) != -1.0:
        failures.append("reversed lists do not score -1")
    conclude("AC6 tau-b matches pair counting on 1000 tied lists (<1e-12)", failures)


# ---------------------------------------------------------------------------
# AC7: bootstrap calibration under the null


def test_ac7_bootstrap_null_calibration():
    failures = []
    rng = np.random.default_rng(58008)
    topics = [f"t{i:02d}" for i in range(50)]
    started = time.monotonic()
    pairs = significant = 0
    for trial in range(1000):
        scores = rng.random((2, len(topics)))
        cells = {
            (run, topic): float(score)
            for run, row in zip(("a", "b"), scores)
            for topic, score in zip(topics, row)
        }
        m = ScoreMatrix.build("NULL", cells)
        report = discriminative_powers([m], b_samples=10_000, alpha=0.01, seed=trial)[0]
        pairs += report.pairs_total
        significant += report.pairs_significant
    elapsed = time.monotonic() - started
    if pairs < 1000:
        failures.append(f"only {pairs} pairs")
    rate = significant / pairs
    if not 0.0 <= rate <= 0.02:
        failures.append(f"null rejection rate {rate:.4f} outside 0.01 +- 0.01")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    small_rng = np.random.default_rng(4242)
    small = ScoreMatrix.build(
        "S",
        {
            (f"s{r}", f"t{t:02d}"): float(small_rng.random())
            for r in range(6)
            for t in range(12)
        },
    )
    one = discriminative_powers([small], b_samples=2000, alpha=0.01, seed=99)[0]
    two = discriminative_powers([small], b_samples=2000, alpha=0.01, seed=99)[0]
    if render_dp(one, {"seed": 99}).encode() != render_dp(two, {"seed": 99}).encode():
        failures.append("identical seeds produced different DP reports")
    conclude("AC7 null calibration 0.01+-0.01 over >=1000 pairs (<2 min)", failures)


# ---------------------------------------------------------------------------
# AC8: ingestion round-trip and discretizer fixtures


def test_ac8_ingestion_fidelity():
    failures = []
    original = (
        "7 Q0 docC 1 3.5 sys\n"
        "7 Q0 docA 2 3.5 sys\n"
        "7 Q0 docB 3 1.25 sys\n"
        "9 Q0 docZ 1 0.5 sys\n"
    )
    run = parse_run(original)
    text = serialize_run(run)
    again = parse_run(text)
    for topic in run.topic_ids():
        if RankedList(topic, again.topics.get(topic, ())) != RankedList(
            topic, run.topics.get(topic, ())
        ):
            failures.append(f"round trip changed topic {topic}")
    if serialize_run(again) != text:
        failures.append("serialization is not idempotent")

    table = {f"doc{i:03d}": float(1000 - i) for i in range(100)}
    grades = discretize_quantile(table, [0.05, 0.10, 0.85])
    sizes = {g: sum(1 for v in grades.values() if v == g) for g in (2, 1, 0)}
    if sizes != {2: 5, 1: 10, 0: 85}:
        failures.append(f"quantile split {sizes} != 5/10/85")

    cuts = discretize_threshold({"a": 79.0, "b": 85.0, "c": 90.0}, [80.0, 90.0])
    if cuts != {"a": 0, "b": 1, "c": 2}:
        failures.append(f"threshold grades {cuts}")
    conclude("AC8 run round-trip and discretizer fixtures", failures)


# ---------------------------------------------------------------------------
# AC9: synthetic benchmark vs straight-line reference


def approx_equal(a, b, tol=1e-9):
    return abs(a - b) <= tol


def data_rows(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


def header_value(path, key):
    prefix = f"# {key}: "
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def run_ac9_commands(bench, tmp_path):
    """Write the benchmark's inputs under ``tmp_path``, then run ``evaluate``
    into ``scores/`` and ``analyze`` into ``reports/``: two tables, B = 1,000
    and the audits.  Returns the two exit codes."""
    (tmp_path / "schema.txt").write_text(bench["schema_text"])
    (tmp_path / "qrels.txt").write_text(bench["qrels_text"])
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    for tag, text in bench["run_texts"].items():
        (runs_dir / f"{tag}.run").write_text(text)
    inputs = ["--schema", str(tmp_path / "schema.txt"), "--qrels", str(tmp_path / "qrels.txt"),
              "--runs", str(runs_dir)]
    evaluate_code = main(["evaluate", *inputs, "--out", str(tmp_path / "scores")])
    analyze_code = main(
        [
            "analyze",
            "--scores",
            str(tmp_path / "scores" / "scores_EUCL-ndcg.tsv"),
            str(tmp_path / "scores" / "scores_CHEB-ndcg.tsv"),
            "--seed", "11",
            "--bootstrap", "1000",
            "--alpha", "0.05",
            *inputs,
            "--out", str(tmp_path / "reports"),
        ]
    )
    return evaluate_code, analyze_code


def test_ac9_benchmark_matches_reference(tmp_path):
    failures = []
    bench = synth_benchmark()
    evaluate_code, analyze_code = run_ac9_commands(bench, tmp_path)
    if evaluate_code != 0:
        failures.append(f"evaluate exited {evaluate_code}")
    if analyze_code != 0:
        failures.append(f"analyze exited {analyze_code}")
    score_a = tmp_path / "scores" / "scores_EUCL-ndcg.tsv"
    score_b = tmp_path / "scores" / "scores_CHEB-ndcg.tsv"
    reports = tmp_path / "reports"

    table_a = read_score_table(score_a.read_text())
    table_b = read_score_table(score_b.read_text())

    # correlation report
    per_topic, excluded, mean, equivalent = ref_correlation(table_a, table_b)
    corr_path = reports / "correlation_EUCL-ndcg_vs_CHEB-ndcg.tsv"
    rows = data_rows(corr_path)
    got_topics = {}
    got_mean = None
    for row in rows:
        key, value = row.split("\t")
        if key == "mean":
            got_mean = value
        else:
            got_topics[key] = float(value)
    if set(got_topics) != set(per_topic):
        failures.append("correlation topic sets differ")
    else:
        for topic, tau in per_topic.items():
            if not approx_equal(got_topics[topic], tau, 5.1e-5):
                failures.append(f"tau[{topic}] {got_topics[topic]} != {tau:.6f}")
    if mean is None:
        if got_mean != "na":
            failures.append(f"mean {got_mean} != na")
    elif not approx_equal(float(got_mean), mean, 5.1e-5):
        failures.append(f"mean {got_mean} != {mean:.6f}")
    if header_value(corr_path, "excluded_topics") != str(excluded):
        failures.append("excluded-topic counts differ")
    if header_value(corr_path, "equivalent") != ("yes" if equivalent else "no"):
        failures.append("equivalence flags differ")

    # discriminative-power reports
    for table, path in ((table_a, reports / "dp_EUCL-ndcg.tsv"),
                        (table_b, reports / "dp_CHEB-ndcg.tsv")):
        ref_rows, ref_percentage = ref_dp(table, 1000, 0.05, 11)
        rows = data_rows(path)
        percentage_row = rows.pop()
        if len(rows) != len(ref_rows):
            failures.append(f"{path.name}: {len(rows)} pairs != {len(ref_rows)}")
            continue
        for row, (run_a, run_b, t, asl, significant) in zip(rows, ref_rows):
            got = row.split("\t")
            if got[0] != run_a or got[1] != run_b:
                failures.append(f"{path.name}: pair order {got[:2]}")
            if not approx_equal(float(got[2]), t, 5.1e-5):
                failures.append(f"{path.name} {run_a}/{run_b}: t {got[2]} != {t:.6f}")
            if float(got[3]) != round(asl, 4):
                failures.append(f"{path.name} {run_a}/{run_b}: asl {got[3]} != {asl}")
            if got[4] != ("1" if significant else "0"):
                failures.append(f"{path.name} {run_a}/{run_b}: flag {got[4]}")
        if percentage_row != f"percentage\t{ref_percentage:.2f}":
            failures.append(f"{path.name}: {percentage_row} != {ref_percentage:.2f}")

    # ranking audits, selected by the first score table
    best = ref_best_runs(table_a)
    zero_rows = ref_zero_aspect(best, bench["run_docs"], bench["judged"], k=5)
    got_zero = [row.split("\t") for row in data_rows(reports / "zero_aspect.tsv")]
    expected_zero = [
        [rank, str(count), f"{percent:.2f}"] for rank, count, _slots, percent in zero_rows
    ]
    if got_zero != expected_zero:
        failures.append(f"zero-aspect rows {got_zero} != {expected_zero}")

    band_rows = ref_quality_bands(
        best, bench["run_docs"], bench["judged"],
        [(1, 25), (26, 50), (51, 75), (76, 100)],
    )
    expected_bands = [
        [f"{lo}-{hi}", f"{mean_sum:.4f}"]
        for (lo, hi), _n, mean_sum in band_rows
        if mean_sum is not None
    ]
    got_bands = [row.split("\t") for row in data_rows(reports / "quality_bands.tsv")]
    if got_bands != expected_bands:
        failures.append(f"quality bands {got_bands} != {expected_bands}")
    conclude("AC9 benchmark analysis matches straight-line reference", failures)


# ---------------------------------------------------------------------------
# Output digests: AC9's outputs, byte for byte, on every supported numpy.
# The DP reports depend bit for bit on numpy's Generator.integers and its
# pairwise sum, which the tests above only compare against the same numpy.

AC9_DIGESTS = {
    "scores/scores_CAM-ap.tsv": "fcc025c1745137592a6c77ddb11d034246380f008d3ab00b6ac4d802f5ef8694",
    "scores/scores_CAM-ndcg.tsv": "e3181afe4f2a0dfa0eb628e34d689f7ee037bcb7045744ee4bff549406cae964",
    "scores/scores_CHEB-ap.tsv": "7fdbe88fe0844bff582d5fc31f6ba27e3a56cc2e07c70269f278ec8fc5d148ad",
    "scores/scores_CHEB-ndcg.tsv": "f1f456fb885a4fb6b860912cef9334d3bb19ddf2cc93149e1d8b0f09fccb3c65",
    "scores/scores_EUCL-ap.tsv": "dbc9faadbba4979523b2d4d1b8af18943e63c5be65dfc83cdafc538f6804b880",
    "scores/scores_EUCL-ndcg.tsv": "4e2f5584bb9f688c1d0a25099d251436bce2844c648bee681cc6d34b3f21e059",
    "scores/scores_MANH-ap.tsv": "79b4d9394a9fed146d32030a3766112d1a80fe2358cecf4b8bb9c6564f9d20f2",
    "scores/scores_MANH-ndcg.tsv": "ef64a97d3caa098e0683f797ac054f1aed7cd1a9b3c7771a80979eff069e539d",
    "scores/scores_MM-ap.tsv": "d173ab388c7011dd12e2530e8cc8ca1ca589644851257b9a7e86d5ebe898058a",
    "scores/scores_MM-ndcg.tsv": "df2eaf0845a5be2ec6f6e3e1810c640adac496bd21634b95f8b2e8edc5ac9427",
    "reports/correlation_EUCL-ndcg_vs_CHEB-ndcg.tsv": "8a6ca66c97c7a2ee7b274373ae1baab934c88fe5e0c21355d394508e682c5fb7",
    "reports/dp_CHEB-ndcg.tsv": "997f7106583efef3f6b73b7ed8d327b8c72e144a1611a9a0585b51d67dc72c65",
    "reports/dp_EUCL-ndcg.tsv": "5175c77f7cbcae84abb72389d3d5745e3afcbddae81195f5053a2062c36de6dc",
    "reports/quality_bands.tsv": "fdb87f459d53fc1c5b199000a3b89535327149ec9c426db5f6db0b3c9678fb2d",
    "reports/zero_aspect.tsv": "de15ff3af7312ba97bff3f98fb5a38fb26d1fd43b9db166167a709df5f72eff6",
}


def test_output_digests_are_pinned(tmp_path):
    failures = []
    codes = run_ac9_commands(synth_benchmark(), tmp_path)
    if codes != (0, 0):
        failures.append(f"evaluate and analyze exited {codes}")
    got = {
        f"{out}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for out in ("scores", "reports")
        for p in sorted((tmp_path / out).iterdir())
    }
    if sorted(got) != sorted(AC9_DIGESTS):
        failures.append(f"outputs {sorted(got)} != {sorted(AC9_DIGESTS)}")
    failures += [f"{name} changed: sha256 {got[name]}" for name in sorted(got)
                 if name in AC9_DIGESTS and got[name] != AC9_DIGESTS[name]]
    conclude("output digests match the pinned ones", failures)
