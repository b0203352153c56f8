"""Distance-order construction, including the nine golden class chains of
the reference embeddings (three correctness embeddings x three metrics)."""

import random

import pytest

from aspecteval import (
    Metric,
    MissingBestTuple,
    PolicyViolation,
    TupleSpace,
    assign_weights,
    build_order,
    build_tuple_space,
    check_extends_partial_order,
    distance_key,
    embed,
    format_order_dump,
    is_order_preserving,
    parse_schema,
)

SCHEMA_TEMPLATE = """\
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


def make_schema(values):
    return parse_schema(SCHEMA_TEMPLATE.format(*values))


# The expected chains, one list of equivalence classes per metric, members
# given as (relevance index, correctness index).  Member order inside a
# class is not part of the contract, so classes compare as sets.
CHAINS = {
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


@pytest.mark.parametrize("values,metric", sorted(CHAINS))
def test_golden_class_chains(values, metric):
    schema = make_schema(values.split())
    order = build_order(build_tuple_space(schema), schema, Metric.parse(metric))
    got = [set(cls.members) for cls in order.classes]
    assert got == CHAINS[(values, metric)]


def test_distance_keys_are_exact_integers(schema):
    best = embed((3, 2), schema)
    assert best == (6, 6)
    assert distance_key(embed((2, 1), schema), best, Metric.EUCLIDEAN) == 13
    assert distance_key(embed((2, 1), schema), best, Metric.MANHATTAN) == 5
    assert distance_key(embed((2, 1), schema), best, Metric.CHEBYSHEV) == 3


def test_class_zero_is_the_best_tuple(schema):
    for metric in Metric:
        order = build_order(build_tuple_space(schema), schema, metric)
        assert order.classes[0].key == 0
        assert order.classes[0].members == ((3, 2),)


def test_translation_leaves_the_partition_unchanged():
    # shifting one aspect's embedding by a constant must not reorder anything
    base = make_schema(["0", "1.5", "3"])
    shifted = make_schema(["2", "3.5", "5"])
    for metric in Metric:
        a = build_order(build_tuple_space(base), base, metric)
        b = build_order(build_tuple_space(shifted), shifted, metric)
        assert [c.members for c in a.classes] == [c.members for c in b.classes]


def test_missing_best_tuple_is_an_error(schema):
    space = TupleSpace(((0, 0), (1, 1)))
    with pytest.raises(MissingBestTuple):
        build_order(space, schema, Metric.EUCLIDEAN)


def test_order_extends_pareto_on_random_schemas():
    rng = random.Random(271828)
    for _ in range(40):
        n_aspects = rng.randint(2, 4)
        parts = []
        for i in range(n_aspects):
            n_grades = rng.randint(2, 5)
            steps = [rng.randint(0, 9) for _ in range(n_grades - 1)]
            values, acc = [0], 0
            for s in steps:
                acc += s
                values.append(acc)
            parts.append(
                f"aspect a{i}\n"
                + "".join(f"label g{j} {v}\n" for j, v in enumerate(values))
            )
        schema = parse_schema("".join(parts))
        space = build_tuple_space(schema)
        for metric in Metric:
            order = build_order(space, schema, metric)
            assert check_extends_partial_order(order, schema)


def test_check_detects_a_violating_order(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    # swap the first two classes to break monotonicity
    broken = type(order)(
        order.metric, schema, (order.classes[1], order.classes[0], *order.classes[2:])
    )
    assert not check_extends_partial_order(broken, schema)


def test_distinct_weights_count_down_from_top(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    w = assign_weights(order, "distinct")
    assert w.of((3, 2)) == 9
    assert w.of((0, 0)) == 0
    assert sorted(set(w.per_class)) == list(range(10))
    assert is_order_preserving(w, order)


def test_binary_weights_cover_the_top_half(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    w = assign_weights(order, "binary")
    # 5 classes -> ceil(5/2) = 3 top classes weigh 1
    per_class = [w.of(cls.members[0]) for cls in order.classes]
    assert per_class == [1, 1, 1, 0, 0]
    assert w.is_binary
    assert is_order_preserving(w, order)


def test_single_class_order_weighs_everything_zero():
    s = parse_schema("aspect a\nlabel x 0\nlabel y 0\n")
    order = build_order(build_tuple_space(s), s, Metric.EUCLIDEAN)
    assert order.n_classes == 1
    assert set(assign_weights(order, "distinct").per_class) == {0}
    # the all-worst tuple must weigh 0 under every built-in policy
    assert set(assign_weights(order, "binary").per_class) == {0}


def test_explicit_weights_validated(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    w = assign_weights(order, [9, 7, 7, 1, 0])
    assert w.of((3, 1)) == 7
    assert is_order_preserving(w, order)
    with pytest.raises(PolicyViolation, match="expected 5 values"):
        assign_weights(order, [3, 2, 1])
    with pytest.raises(PolicyViolation, match="must not increase"):
        assign_weights(order, [1, 2, 3, 4, 5])
    with pytest.raises(PolicyViolation, match="non-negative integers"):
        assign_weights(order, [3, 2, 1, 0, -1])
    with pytest.raises(PolicyViolation, match="non-negative integers"):
        assign_weights(order, [3.0, 2, 1, 0, 0])
    with pytest.raises(PolicyViolation, match="unknown weight policy"):
        assign_weights(order, "steepest")


def test_order_dump_format(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    dump = format_order_dump(order)
    lines = dump.strip().splitlines()
    assert lines[0] == "class 0 dist 0 : hr,c"
    assert lines[2] == "class 2 dist 3 : hr,pc;fr,pc"
    assert lines[-1] == "class 4 dist 6 : hr,nc;fr,nc;mr,nc;nr,nc"
    assert len(lines) == 5
