import pytest
from fractions import Fraction

from aspecteval import (
    Aspect,
    AspectSchema,
    CouplingRule,
    DimensionMismatch,
    GroundTruth,
    MissingBestTuple,
    SchemaError,
    apply_rules,
    build_tuple_space,
    pareto_dominates,
    parse_schema,
    satisfies_rules,
)
from conftest import REFERENCE_SCHEMA, ground_truth_from


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


def test_pareto_dominates(schema):
    assert pareto_dominates((1, 2), (3, 2), schema)
    assert pareto_dominates((1, 1), (1, 1), schema)
    assert not pareto_dominates((3, 2), (1, 2), schema)
    # incomparable pair: neither dominates
    assert not pareto_dominates((1, 2), (3, 1), schema)
    assert not pareto_dominates((3, 1), (1, 2), schema)
    with pytest.raises(DimensionMismatch):
        pareto_dominates((1,), (3, 2), schema)


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


def test_apply_rules_fixpoint(schema):
    assert apply_rules((0, 2), schema) == ((0, 0), 1)
    assert apply_rules((0, 0), schema) == ((0, 0), 0)
    assert apply_rules((3, 1), schema) == ((3, 1), 0)
    assert satisfies_rules((0, 0), schema)
    assert not satisfies_rules((0, 2), schema)


def test_apply_rules_chains_until_stable():
    s = parse_schema(
        "aspect a\nlabel a0 0\nlabel a1 1\n"
        "aspect b\nlabel b0 0\nlabel b1 1\n"
        "aspect c\nlabel c0 0\nlabel c1 1\n"
        "couple a a0 b b0\n"
        "couple b b0 c c0\n"
    )
    fixed, corrections = apply_rules((0, 1, 1), s)
    assert fixed == (0, 0, 0)
    assert corrections == 2


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


def test_ground_truth_rejects_rule_violations(schema):
    with pytest.raises(SchemaError, match="coupling rule"):
        ground_truth_from([("1", "d1", (0, 2))], schema)


def test_comment_handling_matches_reference_text(schema):
    assert parse_schema(REFERENCE_SCHEMA) == schema
    with_inline = REFERENCE_SCHEMA.replace("label hr 3", "label hr 3  # top grade")
    assert parse_schema(with_inline) == schema
