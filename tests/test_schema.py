import itertools
import random
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from aspecteval import (
    Aspect,
    AspectSchema,
    CouplingRule,
    DimensionMismatch,
    GroundTruth,
    MissingBestTuple,
    SchemaError,
    build_tuple_space,
    parse_schema,
)
from conftest import REFERENCE_SCHEMA, ground_truth_from
from reference_impl import ref_apply_rules


def test_parse_reference_schema(schema):
    assert schema.names == ("relevance", "correctness")
    assert schema.aspects[0].labels == ("nr", "mr", "fr", "hr")
    assert schema.aspects[1].values == (Fraction(0), Fraction(3, 2), Fraction(3))
    assert schema.best_tuple == (3, 2)
    assert schema.worst_tuple == (0, 0)
    assert schema.rules == (CouplingRule(0, 0, 1, 0),)


def test_scaled_values_are_exact_integers(schema):
    # a 1.5 step forces a common scale of 2
    assert schema.scale == 2
    assert schema.scaled_values == ((0, 2, 4, 6), (0, 3, 6))


def test_parse_rejects_malformed_lines():
    with pytest.raises(SchemaError, match="label before any aspect"):
        parse_schema("label nr 0\n")
    with pytest.raises(SchemaError, match="unknown directive"):
        parse_schema("aspect a\nlabel x 0\nlabel y 1\nfrobnicate\n")
    with pytest.raises(SchemaError, match="bad embed value"):
        parse_schema("aspect a\nlabel x zero\nlabel y 1\n")


def test_validation_rejects_structural_problems():
    with pytest.raises(SchemaError, match="no aspects"):
        AspectSchema(())
    with pytest.raises(SchemaError, match="at least two labels"):
        parse_schema("aspect a\nlabel only 0\n")
    with pytest.raises(SchemaError, match="must not decrease"):
        parse_schema("aspect a\nlabel x 2\nlabel y 1\n")
    with pytest.raises(SchemaError, match="negative"):
        parse_schema("aspect a\nlabel x -1\nlabel y 0\n")
    with pytest.raises(SchemaError, match="duplicate aspect names"):
        parse_schema("aspect a\nlabel x 0\nlabel y 1\naspect a\nlabel x 0\nlabel y 1\n")
    with pytest.raises(SchemaError, match="fractional digits"):
        parse_schema("aspect a\nlabel x 0\nlabel y 0.1234567\n")


def test_validation_rejects_bad_coupling_rules():
    with pytest.raises(SchemaError, match="unknown aspect"):
        parse_schema(
            "aspect a\nlabel x 0\nlabel y 1\ncouple a x missing y\n"
        )
    with pytest.raises(SchemaError, match="distinct aspects"):
        AspectSchema(
            (Aspect("a", ("x", "y"), (Fraction(0), Fraction(1))),),
            (CouplingRule(0, 0, 0, 1),),
        )


def test_six_fractional_digits_are_accepted():
    s = parse_schema("aspect a\nlabel x 0\nlabel y 0.000001\n")
    assert s.scale == 1_000_000


def test_tuple_space_respects_coupling(schema):
    space = build_tuple_space(schema)
    # 4 * 3 = 12 combinations minus (nr, pc) and (nr, c)
    assert len(space) == 10
    assert (0, 1) not in space
    assert (0, 2) not in space
    assert schema.best_tuple in space
    assert schema.worst_tuple in space
    assert list(space)[:3] == [(0, 0), (1, 0), (1, 1)]  # lexicographic


def test_rules_excluding_anchors_are_rejected():
    # forcing a non-worst label from the worst trigger drops the all-worst tuple
    bad_worst = parse_schema(
        "aspect a\nlabel a0 0\nlabel a1 1\n"
        "aspect b\nlabel b0 0\nlabel b1 1\n"
        "couple a a0 b b1\n"
    )
    with pytest.raises(SchemaError, match="all-worst"):
        build_tuple_space(bad_worst)
    bad_best = parse_schema(
        "aspect a\nlabel a0 0\nlabel a1 1\n"
        "aspect b\nlabel b0 0\nlabel b1 1\n"
        "couple a a1 b b0\n"
    )
    with pytest.raises(MissingBestTuple):
        build_tuple_space(bad_best)


def test_settle_reaches_the_fixpoint(schema):
    assert schema.settle([(0, 2)]) == ([(0, 0)], 1)
    assert schema.settle([(0, 0)]) == ([(0, 0)], 0)
    assert schema.settle([(3, 1)]) == ([(3, 1)], 0)
    assert schema.settle([(0, 2), (0, 0), (3, 1)]) == ([(0, 0), (0, 0), (3, 1)], 1)
    space = build_tuple_space(schema)
    assert (0, 0) in space
    assert (0, 2) not in space


def test_check_tuple_rejects_tuples_off_the_grid(schema):
    schema.check_tuple((3, 2))
    with pytest.raises(SchemaError, match="grade index 7 out of range"):
        schema.check_tuple((0, 7))
    with pytest.raises(SchemaError, match="grade index -1 out of range"):
        schema.check_tuple((-1, 2))
    with pytest.raises(DimensionMismatch):
        schema.check_tuple((0,))


def test_settle_chains_until_stable():
    s = parse_schema(
        "aspect a\nlabel a0 0\nlabel a1 1\n"
        "aspect b\nlabel b0 0\nlabel b1 1\n"
        "aspect c\nlabel c0 0\nlabel c1 1\n"
        "couple a a0 b b0\n"
        "couple b b0 c c0\n"
    )
    assert s.settle([(0, 1, 1)]) == ([(0, 0, 0)], 2)


def test_settle_rejects_tuples_off_the_grid(schema):
    # clipped into the rule map, these read as (0, 5) and (-1, 0)
    with pytest.raises(SchemaError, match="^grade index 7 out of range for aspect 'correctness'$"):
        schema.settle([(0, 7)])
    with pytest.raises(SchemaError, match="^grade index -1 out of range for aspect 'relevance'$"):
        schema.settle([(-1, 2)])
    # the first bad row is the one named
    with pytest.raises(SchemaError, match="^grade index 4 out of range for aspect 'relevance'$"):
        schema.settle([(0, 2), (4, 0), (0, 9)])
    with pytest.raises(DimensionMismatch, match=r"^tuple \(0,\) has 1 aspects, schema has 2$"):
        schema.settle([(0,)])
    with pytest.raises(DimensionMismatch, match=r"^tuple \(0, 1, 2\) has 3 aspects"):
        schema.settle([(0, 2), (0, 1, 2)])
    with pytest.raises(SchemaError, match="^grade index 9 out of range"):
        schema.settle([(0, 9), (0, 1, 2)])
    assert schema.settle([]) == ([], 0)


def test_settle_rejects_off_grid_grades_of_aspects_no_rule_names():
    # the rules name four of the seven aspects; w6 has five grades
    wide = parse_schema(WIDE_CONFLICT)
    assert wide.settle([(0, 0, 0, 0, 0, 0, 4)]) == ([(0, 0, 0, 0, 0, 0, 4)], 0)
    with pytest.raises(SchemaError, match="^grade index 9 out of range for aspect 'w6'$"):
        wide.settle([(0, 0, 0, 0, 0, 0, 9)])
    with pytest.raises(SchemaError, match="^grade index -1 out of range for aspect 'w0'$"):
        wide.settle([(-1, 0, 0, 0, 0, 0, 0)])


NEVER_SETTLES = """\
aspect a0
label g0 0
label g1 1
aspect a1
label g0 0
label g1 1
aspect a2
label g0 0
label g1 1
couple a1 g0 a0 g0
couple a2 g1 a0 g1
"""

# seven aspects of 6, 6, 6, 5, 5, 5, 5 grades and five rules, two of which
# force w0 to different labels
WIDE_CONFLICT = "".join(
    f"aspect w{i}\n" + "".join(f"label g{g} {g * step}\n" for g in range(n))
    for i, (n, step) in enumerate(zip((6, 6, 6, 5, 5, 5, 5), (1, 2, 2, 1, 2, 3, 4)))
) + (
    "couple w1 g0 w0 g0\ncouple w1 g5 w0 g5\ncouple w2 g0 w3 g0\n"
    "couple w4 g0 w5 g0\ncouple w6 g0 w5 g0\n"
)


def test_rules_that_never_settle_are_rejected():
    # from (g0, g0, g1) the two rules flip a0 back and forth forever
    with pytest.raises(SchemaError, match="never settle from g0,g0,g1$"):
        parse_schema(NEVER_SETTLES)
    # one forced label per aspect always settles, even across a chain
    chained = NEVER_SETTLES.replace("couple a2 g1 a0 g1", "couple a0 g0 a2 g0")
    assert parse_schema(chained).rules
    # two labels forced on w0 by triggers that cannot hold together settle,
    # and the rules name all seven aspects of the wide schema
    wide = parse_schema(WIDE_CONFLICT)
    _, corrections = wide.rule_map
    assert corrections.shape == wide.grid_shape
    rules = [astuple(r) for r in wide.rules]
    cells = list(itertools.product(*(range(n) for n in wide.grid_shape)))
    for t in random.Random(35).sample(cells, 2000):
        (fixed,), corrections = wide.settle([t])
        assert (fixed, corrections) == ref_apply_rules(t, rules), t


def test_ground_truth_accessors(schema):
    gt = ground_truth_from(
        [("2", "d9", (2, 0)), ("1", "d1", (1, 2)), ("2", "d1", (3, 1)), ("1", "d2", (0, 0))],
        schema,
    )
    assert gt.topics() == ("1", "2")
    assert gt.get("1", "d1") == (1, 2)
    assert gt.get("1", "missing") is None
    assert gt.judged("1") == {"d1": (1, 2), "d2": (0, 0)}
    assert list(gt.judged("2").items()) == [("d9", (2, 0)), ("d1", (3, 1))]
    assert gt.judged("unjudged") == {}
    gt.judged("1").clear()
    assert gt.judged("1") == {"d1": (1, 2), "d2": (0, 0)}
    assert len(gt) == 4


def test_ground_truth_cannot_change_after_construction():
    entries = {("1", "d1"): (1, 2)}
    gt = GroundTruth(entries)
    with pytest.raises(TypeError):
        gt.entries[("2", "d9")] = (0, 1)
    with pytest.raises(AttributeError):
        gt.entries = {}
    # the ground truth holds its own copy of the mapping it was built from,
    # so get() and the per-topic index always agree
    entries[("2", "d9")] = (0, 1)
    entries[("1", "d1")] = (0, 0)
    assert gt.get("2", "d9") is None and gt.get("1", "d1") == (1, 2)
    assert gt.topics() == ("1",) and gt.judged("1") == {"d1": (1, 2)}
    assert len(gt) == 1


@pytest.mark.parametrize("bad", [(1.5, 0), ("1", 0), (1, None), 1])
def test_ground_truth_takes_integer_grades_only(bad):
    # numpy would truncate 1.5 and parse "1", and score either as grade 1
    with pytest.raises(ValueError, match=r"^judged \(7, d3\) has a non-integer grade"):
        GroundTruth({("1", "d1"): (1, 0), ("7", "d3"): bad})
    gt = GroundTruth({("1", "d1"): [np.int64(1), 0]})
    assert gt.get("1", "d1") == (1, 0) and type(gt.get("1", "d1")[0]) is int


def test_ground_truth_rejects_rule_violations(schema):
    with pytest.raises(SchemaError, match="coupling rule"):
        ground_truth_from([("1", "d1", (0, 2))], schema)


def test_comment_handling_matches_reference_text(schema):
    assert parse_schema(REFERENCE_SCHEMA) == schema
    with_inline = REFERENCE_SCHEMA.replace("label hr 3", "label hr 3  # top grade")
    assert parse_schema(with_inline) == schema
