"""Distance-order construction, including the nine golden class chains of
the reference embeddings (three correctness embeddings x three metrics)."""

import itertools
import random

import numpy as np
import pytest

from aspecteval import (
    ConfigError,
    DimensionMismatch,
    DistanceOrder,
    GroundTruth,
    MeasureConfig,
    Metric,
    MissingBestTuple,
    PolicyViolation,
    RankedList,
    SchemaError,
    TupleSpace,
    apply_rules,
    assign_weights,
    build_order,
    build_tuple_space,
    check_extends_partial_order,
    format_order_dump,
    order_score,
    parse_schema,
)
from conftest import ground_truth_from
from reference_impl import ref_build_order, ref_extends_dominance, ref_tuple_space

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
    # scaled embeds: best (3, 2) -> (6, 6), (2, 1) -> (4, 3)
    space = build_tuple_space(schema)
    for metric, key in ((Metric.EUCLIDEAN, 13), (Metric.MANHATTAN, 5), (Metric.CHEBYSHEV, 3)):
        order = build_order(space, schema, metric)
        assert order.classes[order.class_of((2, 1))].key == key


BIG_SCHEMA = "aspect a\nlabel x 0\nlabel y 1e30\naspect b\nlabel p 0\nlabel q 1\nlabel r 2\n"


def test_embed_values_beyond_int64_stay_exact():
    s = parse_schema(BIG_SCHEMA)
    big = 10**30
    expected = {
        Metric.EUCLIDEAN: [0, 1, 4, big**2, big**2 + 1, big**2 + 4],
        Metric.MANHATTAN: [0, 1, 2, big, big + 1, big + 2],
        Metric.CHEBYSHEV: [0, 1, 2, big],
    }
    for metric, keys in expected.items():
        order = build_order(build_tuple_space(s), s, metric)
        assert [cls.key for cls in order.classes] == keys
        assert all(type(cls.key) is int for cls in order.classes)
        assert check_extends_partial_order(order, s)
        assert ref_extends_dominance(order, s)


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
    mask = np.zeros(schema.grid_shape, dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    space = TupleSpace(mask)
    with pytest.raises(MissingBestTuple):
        build_order(space, schema, Metric.EUCLIDEAN)


def random_grid_schema(rng, with_rules):
    """2-4 aspects of 2-5 grades with embed steps 0-9, so equal embed values
    across grades are common; optionally 1-3 coupling rules that keep the
    best and the all-worst tuple feasible."""
    n_aspects = rng.randint(2, 4)
    grades = [rng.randint(2, 5) for _ in range(n_aspects)]
    lines = []
    for i, n_grades in enumerate(grades):
        lines.append(f"aspect a{i}")
        value = 0
        for j in range(n_grades):
            value += rng.randint(0, 9) if j else 0
            lines.append(f"label g{j} {value}")
    for _ in range(rng.randint(1, 3) if with_rules else 0):
        ta, fa = rng.sample(range(n_aspects), 2)
        tl = rng.randrange(grades[ta])
        if tl == 0:
            fl = 0
        elif tl == grades[ta] - 1:
            fl = grades[fa] - 1
        else:
            fl = rng.randrange(grades[fa])
        lines.append(f"couple a{ta} g{tl} a{fa} g{fl}")
    return parse_schema("\n".join(lines) + "\n")


def with_classes_swapped(order, i):
    keys = list(order.keys)
    keys[i], keys[i + 1] = keys[i + 1], keys[i]
    grid = order.grid.copy()
    grid[order.grid == i] = i + 1
    grid[order.grid == i + 1] = i
    return DistanceOrder(order.metric, order.schema, tuple(keys), grid)


def with_tuple_moved(order, t, to):
    grid = order.grid.copy()
    grid[t] = to
    return DistanceOrder(order.metric, order.schema, order.keys, grid)


def test_order_extends_pareto_on_random_schemas():
    rng = random.Random(271828)
    outcomes = set()
    for n in range(80):
        schema = random_grid_schema(rng, with_rules=n % 2 == 1)
        space = build_tuple_space(schema)
        for metric in Metric:
            order = build_order(space, schema, metric)
            assert check_extends_partial_order(order, schema)
            assert ref_extends_dominance(order, schema)
            # perturbed orders, which may or may not still extend dominance
            perturbed = [with_tuple_moved(
                order, rng.choice(space.tuples), rng.randrange(order.n_classes)
            )]
            if order.n_classes > 1:
                perturbed.append(with_classes_swapped(order, rng.randrange(order.n_classes - 1)))
            for p in perturbed:
                got = check_extends_partial_order(p, schema)
                assert got == ref_extends_dominance(p, schema)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_check_detects_a_violating_order(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    # classes: (3,2) (2,2) (3,1) (2,1) (1,2) (1,1) (3,0) (2,0) (1,0) (0,0)
    cases = [
        (with_classes_swapped(order, 0), False),  # best tuple ranked second
        (with_classes_swapped(order, 1), True),  # (2,2) and (3,1) are incomparable
        (with_classes_swapped(order, 4), False),  # (1,2) dominates (1,1)
        (with_tuple_moved(order, (1, 2), 3), True),  # tied with incomparable (2,1)
        (with_tuple_moved(order, (1, 2), 9), False),  # below (1,1), which it dominates
        (with_tuple_moved(order, (0, 0), 0), False),  # worst tuple tied with the best
    ]
    for perturbed, extends in cases:
        assert check_extends_partial_order(perturbed, schema) is extends
        assert ref_extends_dominance(perturbed, schema) is extends


@pytest.mark.parametrize(
    "bad,error",
    [((3,), DimensionMismatch), ((3, 2, 0), DimensionMismatch),
     ((-1, 0), SchemaError), ((4, 0), SchemaError), ((0, 3), SchemaError)],
)
def test_invalid_tuples_are_rejected(schema, bad, error):
    # (-1, 0) would wrap to the feasible (3, 0) without the range checks
    space = build_tuple_space(schema)
    order = build_order(space, schema, Metric.EUCLIDEAN)
    assert bad not in space
    with pytest.raises(KeyError):
        order.class_of(bad)
    with pytest.raises(error):
        ground_truth_from([("1", "d1", bad)], schema)
    gt = GroundTruth({("1", "d1"): bad})
    with pytest.raises(ConfigError, match="without a weight"):
        order_score(
            RankedList("1", ("d1",)), gt, assign_weights(order, "distinct"), MeasureConfig("ndcg")
        )


def test_grids_of_another_shape_are_rejected(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    other = parse_schema(BIG_SCHEMA)  # 2 x 3 grades against 4 x 3
    with pytest.raises(DimensionMismatch):
        build_order(TupleSpace(np.ones((4, 3, 2), dtype=bool)), schema, Metric.EUCLIDEAN)
    with pytest.raises(DimensionMismatch):
        build_order(build_tuple_space(other), schema, Metric.EUCLIDEAN)
    with pytest.raises(DimensionMismatch):
        DistanceOrder(order.metric, schema, order.keys, order.grid[:3])
    with pytest.raises(DimensionMismatch):
        check_extends_partial_order(order, other)


def test_class_indices_outside_the_keys_are_rejected(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    t = schema.best_tuple
    for bad in (order.n_classes, -2):
        with pytest.raises(ValueError, match="class indices"):
            with_tuple_moved(order, t, bad)
    assert with_tuple_moved(order, t, order.n_classes - 1).class_of(t) == order.n_classes - 1


def oracle_schemas():
    """80 seeded random grid schemas (the odd ones with coupling rules), the
    reference schema and the 1e30 schema."""
    rng = random.Random(271828)
    schemas = [random_grid_schema(rng, with_rules=n % 2 == 1) for n in range(80)]
    return schemas + [make_schema(["0", "1.5", "3"]), parse_schema(BIG_SCHEMA)]


def test_grid_orders_equal_the_tuple_list_oracle():
    for schema in oracle_schemas():
        space = build_tuple_space(schema)
        feasible = ref_tuple_space(schema)
        assert space.tuples == feasible
        assert len(space) == len(feasible)
        for metric in Metric:
            order = build_order(space, schema, metric)
            expected = ref_build_order(feasible, schema, metric)
            assert [(c.key, c.members) for c in order.classes] == expected
            assert all(type(key) is int for key in order.keys)
            assert format_order_dump(order) == "".join(
                f"class {i} dist {key} : "
                + ";".join(schema.format_tuple(t) for t in members) + "\n"
                for i, (key, members) in enumerate(expected)
            )


def test_apply_rules_lands_in_the_space():
    for schema in oracle_schemas()[1:80:2]:  # the schemas with rules
        space = build_tuple_space(schema)
        for t in itertools.product(*(range(n) for n in schema.grid_shape)):
            try:
                fixed, corrections = apply_rules(t, schema)
            except SchemaError:
                continue
            assert fixed in space
            assert (corrections == 0) == (t in space)


def test_distinct_weights_count_down_from_top(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    w = assign_weights(order, "distinct")
    assert w.of((3, 2)) == 9
    assert w.of((0, 0)) == 0
    assert sorted(set(w.per_class)) == list(range(10))
    assert list(w.per_class) == sorted(w.per_class, reverse=True)


def test_binary_weights_cover_the_top_half(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    w = assign_weights(order, "binary")
    # 5 classes -> ceil(5/2) = 3 top classes weigh 1
    per_class = [w.of(cls.members[0]) for cls in order.classes]
    assert per_class == [1, 1, 1, 0, 0]
    assert w.is_binary
    assert list(w.per_class) == sorted(w.per_class, reverse=True)


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
    assert list(w.per_class) == sorted(w.per_class, reverse=True)
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
