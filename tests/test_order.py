"""Distance-order construction, including the nine golden class chains of
the reference embeddings (three correctness embeddings x three metrics)."""

import itertools
import random
import tracemalloc

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
    score_runs,
)
from conftest import ground_truth_from, run_of
from reference_impl import (
    SYNTH_SCHEMA,
    ref_build_order,
    ref_extends_dominance,
    ref_tuple_space,
    ref_unsettled_tuple,
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
    best and the all-worst tuple feasible.  Returns None where two rules
    never settle: then ``parse_schema`` must reject the schema, naming the
    tuple the reference finds."""
    n_aspects = rng.randint(2, 4)
    grades = [rng.randint(2, 5) for _ in range(n_aspects)]
    lines = []
    for i, n_grades in enumerate(grades):
        lines.append(f"aspect a{i}")
        value = 0
        for j in range(n_grades):
            value += rng.randint(0, 9) if j else 0
            lines.append(f"label g{j} {value}")
    rules = []
    for _ in range(rng.randint(1, 3) if with_rules else 0):
        ta, fa = rng.sample(range(n_aspects), 2)
        tl = rng.randrange(grades[ta])
        if tl == 0:
            fl = 0
        elif tl == grades[ta] - 1:
            fl = grades[fa] - 1
        else:
            fl = rng.randrange(grades[fa])
        rules.append((ta, tl, fa, fl))
        lines.append(f"couple a{ta} g{tl} a{fa} g{fl}")
    text = "\n".join(lines) + "\n"
    unsettled = ref_unsettled_tuple(grades, rules)
    if unsettled is None:
        return parse_schema(text)
    labels = ",".join(f"g{g}" for g in unsettled)
    with pytest.raises(SchemaError, match=f"never settle from {labels}$"):
        parse_schema(text)
    return None


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
        if schema is None:
            continue
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


def tied_schema(tied, tie_axis):
    """Three aspects; the tie_axis one has four grades where grades tied and
    tied + 1 share a value, the others have two grades of values 0 and 1."""
    values = [[0, 1]] * 3
    values[tie_axis] = [g if g <= tied else g - 1 for g in range(4)]
    return parse_schema("".join(
        f"aspect a{i}\n" + "".join(f"label g{g} {v}\n" for g, v in enumerate(vals))
        for i, vals in enumerate(values)
    ))


@pytest.mark.parametrize("tie_axis", [0, 2], ids=["first-axis", "last-axis"])
@pytest.mark.parametrize("tied", [0, 1, 2], ids=["bottom", "middle", "top"])
def test_equal_embed_values_tie_and_dominate_each_other(tied, tie_axis):
    # grades tied and tied + 1 share a value, so tuples that differ only
    # there are one point: the same class, each dominating the other
    s = tied_schema(tied, tie_axis)

    def cell(rest, grade):  # the tuple with ``grade`` on the tie axis
        return (*rest[:tie_axis], grade, *rest[tie_axis:])

    for metric in Metric:
        order = build_order(build_tuple_space(s), s, metric)
        for rest in itertools.product(range(2), repeat=2):
            assert order.class_of(cell(rest, tied)) == order.class_of(cell(rest, tied + 1))
        assert check_extends_partial_order(order, s) is True
        assert ref_extends_dominance(order, s) is True
        # splitting a tie so that the lower grade ranks below the higher
        # one breaks dominance only through the tie
        low, high = cell((1, 1), tied), cell((1, 1), tied + 1)
        c = order.class_of(low)
        split = with_tuple_moved(order, high, c - 1) if c else with_tuple_moved(order, low, 1)
        assert check_extends_partial_order(split, s) is False
        assert ref_extends_dominance(split, s) is False


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
    """The 78 of 80 seeded random grid schemas (the odd ones with coupling
    rules) whose rules settle, the reference schema and the 1e30 schema."""
    rng = random.Random(271828)
    drawn = [random_grid_schema(rng, with_rules=n % 2 == 1) for n in range(80)]
    schemas = [s for s in drawn if s is not None]
    assert len(schemas) == 78
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


def wide_schema():
    """Seven aspects of 6,6,6,5,5,5,5 grades with steps 1,2,2,1,2,3,4 and two
    rules on the worst grades: 97,650 feasible tuples."""
    lines = []
    for i, (n, step) in enumerate(zip((6, 6, 6, 5, 5, 5, 5), (1, 2, 2, 1, 2, 3, 4))):
        lines.append(f"aspect w{i}")
        lines.extend(f"label g{g} {g * step}" for g in range(n))
    lines += ["couple w0 g0 w1 g0", "couple w3 g0 w4 g0"]
    return parse_schema("\n".join(lines) + "\n")


def test_orders_at_workload_size_equal_the_oracle():
    schema = wide_schema()
    space = build_tuple_space(schema)
    feasible = ref_tuple_space(schema)
    assert len(feasible) == len(space) == 97650
    label = {t: schema.format_tuple(t) for t in feasible}
    for metric in Metric:
        order = build_order(space, schema, metric)
        expected = ref_build_order(feasible, schema, metric)
        assert order.keys == tuple(key for key, _ in expected)
        assert [(c.key, c.members) for c in order.classes] == expected
        assert format_order_dump(order) == "".join(
            f"class {i} dist {key} : " + ";".join(map(label.get, members)) + "\n"
            for i, (key, members) in enumerate(expected)
        )


def random_three_aspect_schema():
    """Three aspects of 45 grades with seeded random 3-decimal steps: 91,125
    tuples, nearly every one its own Euclidean class."""
    rng = random.Random(45)
    lines = []
    for a in range(3):
        lines.append(f"aspect a{a}")
        milli = 0
        for g in range(45):
            lines.append(f"label g{g} {milli / 1000:.3f}")
            milli += rng.randint(1, 2000)
    return parse_schema("\n".join(lines) + "\n")


# _cells sorts the class indices in the smallest type that holds the class
# count, so each schema here takes one of the three types it can pick.
@pytest.mark.parametrize(
    "make, key_type",
    [
        (lambda: parse_schema(SYNTH_SCHEMA), np.uint8),
        (wide_schema, np.uint16),
        (random_three_aspect_schema, np.uint32),
    ],
    ids=["ac9", "wide", "three-by-45"],
)
def test_members_come_by_class_then_descending_cell_for_every_key_type(make, key_type):
    schema = make()
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    assert np.min_scalar_type(order.n_classes) == key_type
    cells = np.flatnonzero(order.grid >= 0)
    classes = order.grid.ravel()[cells]
    by_class = cells[np.lexsort((-cells, classes))]
    members = list(zip(*np.array(np.unravel_index(by_class, order.grid.shape)).tolist()))
    ends = np.cumsum(np.bincount(classes, minlength=order.n_classes)).tolist()
    expected = [members[a:b] for a, b in zip([0, *ends], ends)]
    assert [list(c.members) for c in order.classes] == expected
    labels = [a.labels for a in schema.aspects]
    assert format_order_dump(order) == "".join(
        f"class {i} dist {key} : "
        + ";".join(",".join(ls[g] for ls, g in zip(labels, t)) for t in group) + "\n"
        for i, (key, group) in enumerate(zip(order.keys, expected))
    )


@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.CHEBYSHEV])
def test_order_dump_peaks_below_five_times_its_size(metric):
    schema = wide_schema()
    order = build_order(build_tuple_space(schema), schema, metric)
    tracemalloc.start()
    try:
        dump = format_order_dump(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * len(dump)


def test_keys_beyond_64_bits_that_tie_share_one_class():
    big = 2**65
    s = parse_schema(f"aspect a\nlabel x 0\nlabel y {big}\naspect b\nlabel p 0\nlabel q {big}\n")
    # (0, 1) and (1, 0) tie; under Chebyshev (0, 0) ties with them too
    expected = {
        Metric.EUCLIDEAN: ((0, big**2, 2 * big**2), ((1, 0), (0, 1))),
        Metric.MANHATTAN: ((0, big, 2 * big), ((1, 0), (0, 1))),
        Metric.CHEBYSHEV: ((0, big), ((1, 0), (0, 1), (0, 0))),
    }
    for metric, (keys, tied) in expected.items():
        order = build_order(build_tuple_space(s), s, metric)
        assert order.keys == keys
        assert all(type(key) is int for key in order.keys)
        assert order.classes[order.class_of((0, 1))].members == tied


def test_keys_come_only_from_feasible_tuples():
    # best (1, 2); the rule removes (0, 1) and (0, 2), the only tuples with
    # Manhattan keys 10 and 11 and Euclidean keys 100 and 101
    s = parse_schema(
        "aspect a\nlabel x 0\nlabel y 10\naspect b\nlabel p 0\nlabel q 1\nlabel r 2\n"
        "couple a x b p\n"
    )
    space = build_tuple_space(s)
    expected = {
        Metric.EUCLIDEAN: (0, 1, 4, 104),
        Metric.MANHATTAN: (0, 1, 2, 12),
        Metric.CHEBYSHEV: (0, 1, 2, 10),
    }
    for metric, keys in expected.items():
        order = build_order(space, s, metric)
        assert order.keys == keys
        assert order.n_classes == len(ref_build_order(ref_tuple_space(s), s, metric))


def test_apply_rules_lands_in_the_space():
    for schema in oracle_schemas():
        space = build_tuple_space(schema)
        for t in itertools.product(*(range(n) for n in schema.grid_shape)):
            fixed, corrections = apply_rules(t, schema)
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
    with pytest.raises(PolicyViolation, match="all-worst tuple, 0"):
        assign_weights(order, [9, 7, 7, 1, 1])


def test_all_worst_docs_cannot_score_the_maximum():
    # the anomaly: a ranking of all-worst documents scoring nDCG 1.0, which
    # an explicit list with a nonzero last weight would allow
    s = parse_schema("aspect a\nlabel x 0\nlabel y 1\naspect b\nlabel p 0\nlabel q 1\n")
    gt = ground_truth_from([("1", "d1", (0, 0)), ("1", "d2", (0, 0))], s)
    run = run_of("r", {"1": ["d1", "d2"]})
    with pytest.raises(PolicyViolation, match="all-worst tuple, 0"):
        score_runs([run], gt, s, metrics=(Metric.EUCLIDEAN,), weight_policy=[3, 2, 1])
    scores = score_runs([run], gt, s, metrics=(Metric.EUCLIDEAN,), weight_policy=[3, 2, 0])
    assert scores["EUCL-ndcg"].score("r", "1") == 0.0


def test_order_dump_format(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    dump = format_order_dump(order)
    lines = dump.strip().splitlines()
    assert lines[0] == "class 0 dist 0 : hr,c"
    assert lines[2] == "class 2 dist 3 : hr,pc;fr,pc"
    assert lines[-1] == "class 4 dist 6 : hr,nc;fr,nc;mr,nc;nr,nc"
    assert len(lines) == 5
