"""Distance-order construction, including the nine golden class chains of
the reference embeddings (three correctness embeddings x three metrics)."""

import hashlib
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
    assign_weights,
    build_order,
    build_tuple_space,
    check_extends_partial_order,
    format_order_dump,
    order_score,
    parse_schema,
    score_runs,
)
import aspecteval.order as order_module
from conftest import ground_truth_from, run_of
from reference_impl import (
    SYNTH_SCHEMA,
    ref_build_order,
    ref_classes,
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
    order = build_order(build_tuple_space(schema), schema, Metric(metric))
    got = [set(members) for _, members in ref_classes(order)]
    assert got == CHAINS[(values, metric)]


def test_distance_keys_are_exact_integers(schema):
    # scaled embeds: best (3, 2) -> (6, 6), (2, 1) -> (4, 3)
    space = build_tuple_space(schema)
    for metric, key in ((Metric.EUCLIDEAN, 13), (Metric.MANHATTAN, 5), (Metric.CHEBYSHEV, 3)):
        order = build_order(space, schema, metric)
        assert order.keys[order.class_of((2, 1))] == key


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
        assert list(order.keys) == keys
        assert all(type(key) is int for key in order.keys)
        assert check_extends_partial_order(order, s)
        assert ref_extends_dominance(order, s)


def test_class_zero_is_the_best_tuple(schema):
    for metric in Metric:
        order = build_order(build_tuple_space(schema), schema, metric)
        assert ref_classes(order)[0] == (0, ((3, 2),))


def test_translation_leaves_the_partition_unchanged():
    # shifting one aspect's embedding by a constant must not reorder anything
    base = make_schema(["0", "1.5", "3"])
    shifted = make_schema(["2", "3.5", "5"])
    for metric in Metric:
        a = build_order(build_tuple_space(base), base, metric)
        b = build_order(build_tuple_space(shifted), shifted, metric)
        assert [m for _, m in ref_classes(a)] == [m for _, m in ref_classes(b)]


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
    int64 = np.iinfo(np.int64)
    message = rf"^class indices must lie in \[-1, {order.n_classes}\), the keys' range$"
    for bad in (order.n_classes, -2, int64.max, int64.min):
        with pytest.raises(ValueError, match=message):
            with_tuple_moved(order, t, bad)
    assert with_tuple_moved(order, t, order.n_classes - 1).class_of(t) == order.n_classes - 1
    with pytest.raises(KeyError):
        with_tuple_moved(order, t, -1).class_of(t)


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
            assert ref_classes(order) == expected
            assert all(type(key) is int for key in order.keys)
            assert "".join(format_order_dump(order)) == "".join(
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
        assert ref_classes(order) == expected
        assert "".join(format_order_dump(order)) == "".join(
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
    got, spans = order._cells()
    assert got.tolist() == by_class.tolist()
    assert list(spans) == list(zip(order.keys, [0, *ends], ends))
    labels = [a.labels for a in schema.aspects]
    assert "".join(format_order_dump(order)) == "".join(
        f"class {i} dist {key} : "
        + ";".join(",".join(ls[g] for ls, g in zip(labels, t)) for t in group) + "\n"
        for i, (key, group) in enumerate(zip(order.keys, expected))
    )


# sha256 prefixes of each order's dump as it was written whole, before the
# dump streamed in pieces: joining the pieces must not move a byte.
DUMP_DIGESTS = {
    "ac9": {
        "euclidean": "556ba8a3c3d8ce20", "manhattan": "49ac711748a4921f",
        "chebyshev": "047bf7c621a1ee10",
    },
    "wide": {
        "euclidean": "3a0956ad67e2a8b4", "manhattan": "47258b90386fafff",
        "chebyshev": "6fa5ce1cd98f3947",
    },
    "three-by-45": {
        "euclidean": "7edf291aa9250d88", "manhattan": "ea282aef0c200c2f",
        "chebyshev": "e5abe6ce38d3feac",
    },
}
DUMP_SCHEMAS = {
    "ac9": lambda: parse_schema(SYNTH_SCHEMA),
    "wide": wide_schema,
    "three-by-45": random_three_aspect_schema,
}


def dump_digest(order):
    digest = hashlib.sha256()
    for piece in format_order_dump(order):
        digest.update(piece.encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", DUMP_DIGESTS)
def test_streamed_dumps_keep_their_bytes(name):
    schema = DUMP_SCHEMAS[name]()
    space = build_tuple_space(schema)
    got = {m.value: dump_digest(build_order(space, schema, m)) for m in Metric}
    assert got == DUMP_DIGESTS[name]


def test_the_wide_chebyshev_order_has_a_class_beyond_one_piece():
    # so the digest above covers a class that spans pieces at the real bound
    schema = wide_schema()
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    assert max(len(m) for _, m in ref_classes(order)) > order_module._DUMP_MEMBERS


def test_a_class_larger_than_a_piece_spans_several(monkeypatch):
    schema = parse_schema(SYNTH_SCHEMA)
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    whole = "".join(format_order_dump(order))
    largest = max(len(m) for _, m in ref_classes(order))
    assert largest >= 3
    for size in (1, 2, largest - 1):
        monkeypatch.setattr(order_module, "_DUMP_MEMBERS", size)
        pieces = list(format_order_dump(order))
        assert "".join(pieces) == whole
        # every member label has one comma per aspect after the first
        members = [piece.count(",") // (schema.n_aspects - 1) for piece in pieces]
        assert max(members) == size and sum(members) == len(build_tuple_space(schema))


@pytest.mark.parametrize("size", [1, 3, 8192])
def test_empty_classes_of_a_hand_built_order_dump_as_empty_lines(monkeypatch, size):
    monkeypatch.setattr(order_module, "_DUMP_MEMBERS", size)
    schema = parse_schema(SYNTH_SCHEMA)
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    # members in the odd classes only: the first, every even and the last
    # class are empty
    keys = tuple(range(2 * order.n_classes + 1))
    sparse = DistanceOrder(order.metric, schema, keys, np.where(order.grid >= 0, 2 * order.grid + 1, -1))
    expected = "".join(
        f"class {i} dist {key} : " + ";".join(map(schema.format_tuple, members)) + "\n"
        for i, (key, members) in enumerate(ref_classes(sparse))
    )
    assert expected.startswith("class 0 dist 0 : \nclass 1 dist 1 : hr,c,b\nclass 2 dist 2 : \n")
    assert "".join(format_order_dump(sparse)) == expected
    nobody = np.full(schema.grid_shape, -1)
    assert "".join(format_order_dump(DistanceOrder(order.metric, schema, (), nobody))) == ""
    alone = DistanceOrder(order.metric, schema, (4, 5), nobody)
    assert "".join(format_order_dump(alone)) == "class 0 dist 4 : \nclass 1 dist 5 : \n"


def two_aspects_of(big):
    """Two aspects of two grades, embedded at 0 and ``big``."""
    return parse_schema(f"aspect a\nlabel x 0\nlabel y {big}\naspect b\nlabel p 0\nlabel q {big}\n")


def traced_peak(call):
    """``call()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_bytes(schema):
    """The bytes of one int64 class grid over the schema's grade grid."""
    return np.zeros(schema.grid_shape, dtype=np.int64).nbytes


@pytest.mark.parametrize(
    "make, metric, bound",
    [(wide_schema, Metric.EUCLIDEAN, 1.3), (wide_schema, Metric.CHEBYSHEV, 1.3),
     (random_three_aspect_schema, Metric.EUCLIDEAN, 2)],
    ids=["wide-eucl", "wide-cheb", "three-by-45"],
)
def test_streamed_dump_peaks_below_twice_its_size(make, metric, bound):
    """Written whole, the dump peaked at 3.7x its size on the wide schema
    and 6x on 91,123 one-member classes; with one table of label prefixes
    over all aspects but the last (27,000 strings), the wide dump peaked at
    1.7x."""
    schema = make()
    order = build_order(build_tuple_space(schema), schema, metric)

    def consume():
        size = largest = 0
        for piece in format_order_dump(order):
            size += len(piece)
            largest = max(largest, len(piece))
        return size, largest

    (size, largest), peak = traced_peak(consume)
    assert peak <= bound * size
    assert largest <= size / 5


@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
def test_building_a_wide_order_holds_one_slab_of_keys_beside_the_grid(metric):
    """The grid and the copy the order keeps peak at 2 grids; one object key
    per grid cell peaked at 4.4 grids (Euclidean) and 3 (the others)."""
    schema = wide_schema()
    space = build_tuple_space(schema)
    order, peak = traced_peak(lambda: build_order(space, schema, metric))
    assert order.n_classes > 1
    assert peak <= 2.2 * grid_bytes(schema)


def test_an_order_allocates_one_copy_of_its_grid():
    """Checking the range over ``grid + 1`` made a second grid."""
    schema = wide_schema()
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    grid = np.array(order.grid)
    assert grid.size == 135000
    copy, peak = traced_peak(lambda: DistanceOrder(order.metric, schema, order.keys, grid))
    assert np.array_equal(copy.grid, grid) and not np.shares_memory(copy.grid, grid)
    assert peak <= 1.1 * grid_bytes(schema)


@pytest.mark.parametrize(
    "make",
    [lambda: parse_schema(SYNTH_SCHEMA), wide_schema, random_three_aspect_schema,
     lambda: two_aspects_of(2**65)],
    ids=["ac9", "wide", "three-by-45", "beyond-64-bits"],
)
def test_slabs_of_one_row_or_the_whole_grid_build_the_same_order(monkeypatch, make):
    """Keys made a row of the first axis at a time, or all at once, number
    the same classes."""
    schema = make()
    space = build_tuple_space(schema)
    for metric in Metric:
        default = build_order(space, schema, metric)
        for cells in (1, space.mask.size + 1):  # one row per slab, and one slab
            monkeypatch.setattr(order_module, "_SLAB_CELLS", cells)
            order = build_order(space, schema, metric)
            assert order.keys == default.keys
            assert np.array_equal(order.grid, default.grid)
        monkeypatch.undo()


def test_score_runs_holds_one_order_at_a_time():
    """Each order of the wide schema is a 135,000-cell int64 grid.  Scoring
    builds the three orders one after the other and keeps of each only its
    class weights and the judged docs' classes; holding all three grids
    while building the last peaked at 5.9 grids, and one object key per
    cell at 4.5."""
    schema = wide_schema()
    space = build_tuple_space(schema)
    rng = random.Random(7)
    cells = (tuple(rng.randrange(n) for n in schema.grid_shape) for _ in range(200))
    judged = [t for t in cells if t in space][:40]
    gt = ground_truth_from([("1", f"d{i}", t) for i, t in enumerate(judged)], schema)
    run = run_of("r", {"1": [f"d{i}" for i in range(0, 40, 3)]})
    scores, peak = traced_peak(lambda: score_runs([run], gt, schema))
    assert len(scores) == 10
    assert peak < 2.5 * grid_bytes(schema)


def test_keys_beyond_64_bits_that_tie_share_one_class():
    big = 2**65
    s = two_aspects_of(big)
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
        assert ref_classes(order)[order.class_of((0, 1))][1] == tied


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


def test_settled_tuples_land_in_the_space():
    for schema in oracle_schemas():
        space = build_tuple_space(schema)
        for t in itertools.product(*(range(n) for n in schema.grid_shape)):
            (fixed,), corrections = schema.settle([t])
            assert fixed in space
            assert (corrections == 0) == (t in space)


def test_distinct_weights_count_down_from_top(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    w = assign_weights(order, "distinct")
    assert w.per_class[order.class_of((3, 2))] == 9
    assert w.per_class[order.class_of((0, 0))] == 0
    assert sorted(set(w.per_class)) == list(range(10))
    assert list(w.per_class) == sorted(w.per_class, reverse=True)


def test_binary_weights_cover_the_top_half(schema):
    order = build_order(build_tuple_space(schema), schema, Metric.CHEBYSHEV)
    w = assign_weights(order, "binary")
    # 5 classes -> ceil(5/2) = 3 top classes weigh 1
    assert list(w.per_class) == [1, 1, 1, 0, 0]
    assert w.is_binary


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
    assert w.per_class[order.class_of((3, 1))] == 7
    assert list(w.per_class) == sorted(w.per_class, reverse=True)
    with pytest.raises(PolicyViolation, match="expected 5 values"):
        assign_weights(order, [3, 2, 1])
    with pytest.raises(PolicyViolation, match="must not increase"):
        assign_weights(order, [1, 2, 3, 4, 5])
    with pytest.raises(PolicyViolation, match="non-negative integers"):
        assign_weights(order, [3, 2, 1, 0, -1])
    with pytest.raises(PolicyViolation, match="non-negative integers"):
        assign_weights(order, [3.0, 2, 1, 0, 0])
    with pytest.raises(PolicyViolation, match="all-worst tuple, 0"):
        assign_weights(order, [9, 7, 7, 1, 1])


def test_metric_and_policy_names_are_exact(schema):
    assert Metric("euclidean") is Metric.EUCLIDEAN
    with pytest.raises(ValueError):
        Metric("Euclidean")
    order = build_order(build_tuple_space(schema), schema, Metric.EUCLIDEAN)
    for name in ("DISTINCT", "Binary", "steepest"):
        with pytest.raises(PolicyViolation, match=f"^unknown weight policy '{name}'$"):
            assign_weights(order, name)


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
    dump = "".join(format_order_dump(order))
    lines = dump.strip().splitlines()
    assert lines[0] == "class 0 dist 0 : hr,c"
    assert lines[2] == "class 2 dist 3 : hr,pc;fr,pc"
    assert lines[-1] == "class 4 dist 6 : hr,nc;fr,nc;mr,nc;nr,nc"
    assert len(lines) == 5
