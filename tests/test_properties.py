"""Property tests on random schemas with coupling rules, and on the scores
of runs judged against them.

Hypothesis runs derandomized, so every run of the suite draws the same
examples.
"""

import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from aspecteval import (
    Aspect,
    AspectSchema,
    CouplingRule,
    GroundTruth,
    Metric,
    MissingBestTuple,
    SchemaError,
    apply_rules,
    assign_weights,
    build_order,
    build_tuple_space,
    check_extends_partial_order,
    join_aspect_qrels,
    parse_qrels,
    parse_schema,
    score_runs,
)
from conftest import run_of
from reference_impl import ref_apply_rules, ref_tuple_space, ref_unsettled_tuple


@st.composite
def coupled_schemas(draw):
    """2-5 aspects of 2-5 grades, with non-decreasing embed values in
    halves (ties included) and 0-3 coupling rules, as (aspects, rules)
    with each rule an index tuple."""
    shape = draw(st.lists(st.integers(2, 5), min_size=2, max_size=5))
    aspects = []
    for i, n in enumerate(shape):
        halves = sorted(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
        labels = tuple(f"g{g}" for g in range(n))
        aspects.append(Aspect(f"a{i}", labels, tuple(Fraction(h, 2) for h in halves)))
    rules = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.lists(st.integers(0, len(shape) - 1), min_size=2, max_size=2, unique=True))
        trigger, forced = draw(st.integers(0, shape[a] - 1)), draw(st.integers(0, shape[b] - 1))
        rules.append((a, trigger, b, forced))
    return tuple(aspects), rules


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(coupled_schemas())
def test_coupling_rules_agree_with_the_tuple_space(drawn):
    aspects, rules = drawn
    couplings = tuple(CouplingRule(*r) for r in rules)
    unsettled = ref_unsettled_tuple([a.n_grades for a in aspects], rules)
    if unsettled is not None:  # construction raises exactly when the rules never settle
        labels = ",".join(f"g{g}" for g in unsettled)
        with pytest.raises(SchemaError, match=f"never settle from {labels}$"):
            AspectSchema(aspects, couplings)
        return
    schema = AspectSchema(aspects, couplings)
    try:
        space = build_tuple_space(schema)
    except (MissingBestTuple, SchemaError):  # the rules exclude the best or worst tuple
        reject()
    for t in itertools.product(*(range(n) for n in schema.grid_shape)):
        fixed, corrections = apply_rules(t, schema)
        assert (fixed, corrections) == ref_apply_rules(t, rules), t
        assert (t in space) == (corrections == 0), t
        assert fixed in space, (t, fixed)
    assert space.tuples == ref_tuple_space(schema)
    for metric in Metric:
        assert check_extends_partial_order(build_order(space, schema, metric), schema), metric


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), drawn=coupled_schemas())
def test_a_rendered_schema_parses_back_to_itself(data, drawn):
    aspects, rules = drawn
    if ref_unsettled_tuple([a.n_grades for a in aspects], rules) is not None:
        reject()
    schema = AspectSchema(aspects, tuple(CouplingRule(*r) for r in rules))
    body = []
    for a in schema.aspects:
        body.append(f"aspect {a.name}")
        # a decimal, as the format documents; exact for at most 6 fractional digits
        body += [
            f"label {label} {Decimal(v.numerator) / v.denominator}"
            for label, v in zip(a.labels, a.values)
        ]
    names, labels = schema.names, [a.labels for a in schema.aspects]
    couples = [
        f"couple {names[r.trigger_aspect]} {labels[r.trigger_aspect][r.trigger_label]} "
        f"{names[r.forced_aspect]} {labels[r.forced_aspect][r.forced_label]}"
        for r in schema.rules
    ]
    # couple lines may come before the aspects they name
    lines = couples + body if data.draw(st.booleans()) else body + couples
    assert parse_schema("\n".join(lines) + "\n") == schema


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), drawn=coupled_schemas())
def test_qrels_parsers_settle_rows_as_the_reference_does(data, drawn):
    aspects, rules = drawn
    if ref_unsettled_tuple([a.n_grades for a in aspects], rules) is not None:
        reject()
    schema = AspectSchema(aspects, tuple(CouplingRule(*r) for r in rules))
    keys = data.draw(st.lists(
        st.tuples(st.sampled_from(["1", "2"]), st.sampled_from([f"d{i}" for i in range(8)])),
        min_size=4, unique=True,
    ))
    cells = st.tuples(*(st.integers(0, a.n_grades - 1) for a in aspects))
    rows = [(key, data.draw(cells)) for key in keys]
    grade = st.sampled_from(["g{}", "{}"])  # a label name or a grade index
    multi = ["# aspects: " + " ".join(schema.names)]
    per_aspect = {name: [] for name in schema.names}
    for (topic, doc), t in rows:
        judged = max([i + 1 for i, g in enumerate(t) if g] + [1])
        width = data.draw(st.integers(judged, len(t)))  # trailing worst grades may be left out
        multi.append(f"{topic} 0 {doc} " + " ".join(data.draw(grade).format(g) for g in t[:width]))
        for i, (name, g) in enumerate(zip(schema.names, t)):
            if g or not i or data.draw(st.booleans()):  # an unjudged aspect is the worst grade
                per_aspect[name].append(f"{topic} 0 {doc} {data.draw(grade).format(g)}")
    expected = [(key, ref_apply_rules(t, rules)) for key, t in rows]
    entries = [(key, fixed) for key, (fixed, _) in expected]
    corrections = sum(n for _, (_, n) in expected)
    multi_gt, multi_n = parse_qrels("\n".join(multi) + "\n", schema)
    assert (list(multi_gt.entries.items()), multi_n) == (entries, corrections)
    texts = {name: "".join(f"{line}\n" for line in lines) for name, lines in per_aspect.items()}
    joined_gt, joined_n = join_aspect_qrels(texts, schema)
    assert (list(joined_gt.entries.items()), joined_n) == (sorted(entries), corrections)
    for gt in (multi_gt, joined_gt):
        assert all(type(g) is int for t in gt.entries.values() for g in t)


TOPICS = ["1", "2", "3"]
DOCS = [f"d{i}" for i in range(6)]


def judged_schema(data, drawn) -> tuple[AspectSchema, GroundTruth]:
    """The schema of ``drawn`` and a ground truth drawn from its tuple space
    over ``TOPICS`` and ``DOCS``; rejects schemas the tuple space refuses."""
    aspects, rules = drawn
    if ref_unsettled_tuple([a.n_grades for a in aspects], rules) is not None:
        reject()
    schema = AspectSchema(aspects, tuple(CouplingRule(*r) for r in rules))
    try:
        space = build_tuple_space(schema)
    except (MissingBestTuple, SchemaError):
        reject()
    tuples = st.sampled_from(space.tuples)
    gt = GroundTruth({
        (t, d): data.draw(tuples)
        for t in TOPICS
        for d in data.draw(st.lists(st.sampled_from(DOCS), min_size=1, unique=True))
    })
    return schema, gt


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), drawn=coupled_schemas())
def test_appending_unjudged_docs_changes_no_score(data, drawn):
    schema, gt = judged_schema(data, drawn)
    rankings = [
        {t: data.draw(st.lists(st.sampled_from(DOCS), unique=True)) for t in TOPICS[: 2 + r % 2]}
        for r in range(3)
    ]
    # docs of other topics' pools and docs no topic judged, after each ranking
    extended = [
        {t: ranked + [d for d in [*DOCS, "u0", "u1"] if d not in ranked and gt.get(t, d) is None]
         for t, ranked in per_topic.items()}
        for per_topic in rankings
    ]
    extended[0]["3"] = ["u0"]  # a topic the run skipped
    depth = data.draw(st.sampled_from([None, 1, 3, 8]))
    before = score_runs([run_of(f"s{i}", r) for i, r in enumerate(rankings)], gt, schema, depth=depth)
    after = score_runs([run_of(f"s{i}", r) for i, r in enumerate(extended)], gt, schema, depth=depth)
    assert before.keys() == after.keys()
    for label, matrix in before.items():
        assert np.array_equal(matrix.values, after[label].values), label


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), drawn=coupled_schemas())
def test_every_score_lies_in_the_unit_interval(data, drawn):
    schema, gt = judged_schema(data, drawn)
    pool = st.sampled_from([*DOCS, "u0", "u1"])  # judged in some topic, or in none
    runs = [
        run_of(f"s{r}", {t: data.draw(st.lists(pool, unique=True)) for t in TOPICS[: 1 + r]})
        for r in range(3)
    ]
    matrices = score_runs(
        runs,
        gt,
        schema,
        weight_policy=data.draw(st.sampled_from(["distinct", "binary"])),
        mm_variant=data.draw(st.sampled_from(["canonical", "table"])),
        depth=data.draw(st.sampled_from([None, 1, 3, 8])),
    )
    for label, matrix in matrices.items():
        assert ((matrix.values >= 0.0) & (matrix.values <= 1.0)).all(), label


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), drawn=coupled_schemas())
def test_ranking_by_weight_scores_1_on_the_distance_order_ndcg(data, drawn):
    """Each topic's judged docs by descending weight form an ideal ranking,
    wherever some judged doc weighs more than 0."""
    schema, gt = judged_schema(data, drawn)
    space = build_tuple_space(schema)
    for metric in Metric:
        weights = assign_weights(build_order(space, schema, metric), "distinct")
        weight = {key: weights.of(t) for key, t in gt.entries.items()}
        ideal = {t: sorted(gt.judged(t), key=lambda d: -weight[t, d]) for t in TOPICS}
        matrix = score_runs(
            [run_of("ideal", ideal)], gt, schema, kinds=("ndcg",), metrics=(metric,)
        )[f"{metric.short}-ndcg"]
        for topic in TOPICS:
            expected = 1.0 if any(weight[topic, d] for d in ideal[topic]) else 0.0
            assert matrix.score("ideal", topic) == expected, (metric, topic)


@st.composite
def one_aspect_schemas(draw):
    """One aspect of 2-5 grades with strictly increasing embed values in
    halves, as (aspects, rules); tied values would merge classes."""
    n = draw(st.integers(2, 5))
    halves = sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n, unique=True)))
    labels = tuple(f"g{g}" for g in range(n))
    return (Aspect("a0", labels, tuple(Fraction(h, 2) for h in halves)),), []


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), drawn=one_aspect_schemas())
def test_one_aspect_reduces_to_graded_ndcg(data, drawn):
    """With one aspect, every distance order ranks the grades themselves, so
    the distance-order measures equal the single-aspect ones."""
    schema, gt = judged_schema(data, drawn)
    pool = st.sampled_from([*DOCS, "u0"])
    runs = [
        run_of(f"s{r}", {t: data.draw(st.lists(pool, unique=True)) for t in TOPICS[: 1 + r]})
        for r in range(3)
    ]
    for depth in (None, 3):
        m = score_runs(runs, gt, schema, depth=depth)
        cam = m["CAM-ndcg"].values
        for metric in Metric:
            assert np.array_equal(m[f"{metric.short}-ndcg"].values, cam), (metric, depth)
        assert np.allclose(m["MM-ndcg"].values, cam, rtol=0.0, atol=1e-15), depth
        if schema.aspects[0].n_grades == 2:
            assert np.array_equal(m["EUCL-ap"].values, m["CAM-ap"].values), depth


def draw_policy(data, n_classes):
    """A weight policy ``assign_weights`` accepts for ``n_classes`` classes:
    a named one, or an explicit non-increasing list whose last entry is 0."""
    weights = data.draw(st.lists(st.integers(0, 9), min_size=n_classes - 1, max_size=n_classes - 1))
    return data.draw(st.sampled_from(["distinct", "binary", sorted(weights, reverse=True) + [0]]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), drawn=coupled_schemas())
def test_moving_a_closer_doc_up_lowers_no_distance_order_score(data, drawn):
    """Swap two adjacent docs so that the one in the class nearer the best
    tuple comes first (an unjudged doc lies past every class): under any
    policy the nDCG and AP cells of that order do not fall."""
    schema, gt = judged_schema(data, drawn)
    space = build_tuple_space(schema)
    pool = st.sampled_from([*DOCS, "u0", "u1"])
    depth = data.draw(st.sampled_from([None, 1, 3, 8]))
    for metric in Metric:
        order = build_order(space, schema, metric)
        rank = {key: order.class_of(t) for key, t in gt.entries.items()}
        before, after = {}, {}
        for topic in TOPICS:
            ranked = data.draw(st.lists(pool, min_size=2, unique=True))
            i = data.draw(st.integers(0, len(ranked) - 2))
            pair = sorted(ranked[i : i + 2], key=lambda d: rank.get((topic, d), order.n_classes))
            before[topic] = [*ranked[:i], *pair[::-1], *ranked[i + 2 :]]
            after[topic] = [*ranked[:i], *pair, *ranked[i + 2 :]]
        policy = draw_policy(data, order.n_classes)
        old, new = (
            score_runs([run_of("s", r)], gt, schema, metrics=(metric,), weight_policy=policy,
                       depth=depth)
            for r in (before, after)
        )
        for kind in ("ndcg", "ap"):
            label = f"{metric.short}-{kind}"
            assert (new[label].values >= old[label].values).all(), (label, policy)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), drawn=coupled_schemas())
def test_a_ranking_of_all_worst_docs_scores_0_on_every_distance_order(data, drawn):
    schema, gt = judged_schema(data, drawn)
    worst = {(t, d): schema.worst_tuple for t in TOPICS for d in ("w0", "w1")}
    gt = GroundTruth({**gt.entries, **worst})
    pool = st.sampled_from(["w0", "w1", "u0"])  # all-worst, or unjudged
    runs = [
        run_of(f"s{r}", {t: data.draw(st.lists(pool, min_size=1, unique=True)) for t in TOPICS})
        for r in range(2)
    ]
    space = build_tuple_space(schema)
    for metric in Metric:
        policy = draw_policy(data, build_order(space, schema, metric).n_classes)
        matrices = score_runs(runs, gt, schema, metrics=(metric,), weight_policy=policy)
        for kind in ("ndcg", "ap"):
            label = f"{metric.short}-{kind}"
            assert not matrices[label].values.any(), (label, policy)
