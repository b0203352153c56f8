"""Shared fixtures: the two-aspect reference schema and its three-document
judgment pool, used across the order, measure, and CLI tests."""

import itertools
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from aspecteval import (
    GroundTruth,
    RankedList,
    RunFile,
    SchemaError,
    ScoreMatrix,
    build_tuple_space,
    parse_schema,
)


def pytest_configure(config):
    """Hypothesis caches the constants it finds in the source under its home
    directory, example database or not, as soon as the tests are collected:
    keep them out of the checkout, in a directory removed when pytest ends."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


REFERENCE_SCHEMA = """\
# relevance embedded on 0..3, correctness on 0..3 with uneven steps
aspect relevance
label nr 0
label mr 1
label fr 2
label hr 3
aspect correctness
label nc 0
label pc 1.5
label c 3
couple relevance nr correctness nc
"""

# doc -> grade indices: d1 = (mr, c), d2 = (hr, pc), d3 = (hr, nc)
POOL = {"d1": (1, 2), "d2": (3, 1), "d3": (3, 0)}

# nDCG gain maps and binary relevance maps for the per-aspect baselines
BASELINE_GAINS = {
    "relevance": {"nr": 0, "mr": 5, "fr": 10, "hr": 15},
    "correctness": {"nc": 0, "pc": 5, "c": 10},
}
BASELINE_RELEVANT = {"relevance": ["fr", "hr"], "correctness": ["c"]}

# every nonempty permutation of the pool: 3 + 6 + 6 = 15 rankings
ALL_RANKINGS = [
    perm
    for size in (1, 2, 3)
    for perm in itertools.permutations(sorted(POOL), size)
]


def ground_truth_from(rows, schema):
    """Build a GroundTruth from (topic, doc, tuple) rows, validating each tuple
    against the schema and its coupling rules."""
    entries = {}
    space = build_tuple_space(schema)
    for topic, doc, lt in rows:
        schema.check_tuple(lt)
        if lt not in space:
            raise SchemaError(
                f"judgment {schema.format_tuple(lt)} for {topic}/{doc} "
                "violates a coupling rule"
            )
        entries[(topic, doc)] = lt
    return GroundTruth(entries)


@pytest.fixture(scope="session")
def schema():
    return parse_schema(REFERENCE_SCHEMA)


@pytest.fixture(scope="session")
def gt(schema):
    return ground_truth_from([("1", doc, t) for doc, t in POOL.items()], schema)


def ranking(docs, topic="1"):
    return RankedList(topic, tuple(docs))


def run_of(tag, per_topic):
    """RunFile with the given doc order per topic (scores descending)."""
    topics = {topic: tuple(docs) for topic, docs in per_topic.items()}
    scores = {
        topic: tuple(float(len(docs) - i) for i in range(len(docs)))
        for topic, docs in per_topic.items()
    }
    return RunFile(tag, topics, scores)


def score_matrix(measure, cells):
    """ScoreMatrix over the sorted run tags and topic ids of ``cells``, a
    (run, topic) -> score mapping with every cell of that grid."""
    runs = sorted({r for r, _ in cells})
    topics = sorted({t for _, t in cells})
    values = [[cells[r, t] for t in topics] for r in runs]
    return ScoreMatrix(measure, tuple(runs), tuple(topics), values)


def run_tag_for(perm):
    return "r-" + "-".join(perm)


def pool_runs():
    """The 15 pool orderings as one-topic runs."""
    return [run_of(run_tag_for(perm), {"1": list(perm)}) for perm in ALL_RANKINGS]
