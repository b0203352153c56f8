"""Ingestion tests: run files, multi-aspect and per-aspect qrels, signal
tables, and the two discretizers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspecteval import (
    AspectCountMismatch,
    ConfigError,
    DuplicateDoc,
    MixedRunTag,
    ParseError,
    RankedList,
    RunFile,
    SchemaError,
    UnknownLabel,
    discretize_quantile,
    discretize_threshold,
    join_aspect_qrels,
    parse_qrels,
    parse_run,
    parse_signals,
    score_runs,
    serialize_run,
    zero_aspect_at_k,
)
from reference_impl import ref_parse_run

RUN_TEXT = """\
# system alpha
2 Q0 docB 1 7.5 alpha
2 Q0 docA 2 7.5 alpha
1 Q0 docC 1 9.0 alpha
1 Q0 docA 2 3.25 alpha

1 Q0 docB 3 5.0 alpha
"""


def test_parse_run_orders_by_score_then_doc():
    run = parse_run(RUN_TEXT)
    assert run.run_tag == "alpha"
    assert run.topic_ids() == ("1", "2")
    assert RankedList("1", run.topics.get("1", ())).doc_ids == ("docC", "docB", "docA")
    # score tie at 7.5 resolved by doc id
    assert RankedList("2", run.topics.get("2", ())).doc_ids == ("docA", "docB")
    assert RankedList("99", run.topics.get("99", ())).doc_ids == ()


def test_parse_run_is_line_order_invariant():
    lines = [l for l in RUN_TEXT.splitlines() if l and not l.startswith("#")]
    rng = random.Random(97)
    for _ in range(10):
        rng.shuffle(lines)
        assert parse_run("\n".join(lines)) == parse_run(RUN_TEXT)


def test_parse_run_honor_rank_uses_the_rank_column():
    text = "1 Q0 docA 2 9.0 sys\n1 Q0 docB 1 1.0 sys\n"
    assert RankedList("1", parse_run(text).topics.get("1", ())).doc_ids == ("docA", "docB")
    assert RankedList("1", parse_run(text, honor_rank=True).topics.get("1", ())).doc_ids == (
        "docB", "docA"
    )


def test_parse_run_rejects_duplicates_with_line_number():
    text = "1 Q0 docA 1 2.0 sys\n1 Q0 docA 2 1.0 sys\n"
    with pytest.raises(DuplicateDoc, match="line 2"):
        parse_run(text)
    # same doc under another topic is fine
    parse_run("1 Q0 docA 1 2.0 sys\n2 Q0 docA 1 1.0 sys\n")


def test_parse_run_rejects_mixed_run_tags():
    text = "1 Q0 docA 1 2.0 sysA\n1 Q0 docB 2 1.0 sysB\n"
    with pytest.raises(MixedRunTag, match="'sysA' to 'sysB'"):
        parse_run(text)


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("1 Q0 docA 1 2.0\n", "6 fields"),
        ("1 Q0 docA one 2.0 sys\n", "non-integer rank"),
        ("1 Q0 docA 1 high sys\n", "non-numeric score"),
        ("1 Q0 docA 1 inf sys\n", "non-finite"),
        ("# only a comment\n", "no entries"),
        ("", "no entries"),
    ],
)
def test_parse_run_malformed(bad, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_run(bad)


def run_with(bad_line, tail="3 Q0 d9 1 0.5 alpha"):
    """A run file with blank and comment lines whose line 7, past the first
    topic, is ``bad_line``."""
    return (
        "# system alpha\n"
        "1 Q0 d1 1 3.0 alpha\n"
        "\n"
        "1 Q0 d2 2 2.0 alpha\n"
        "   # an indented comment\n"
        "2 Q0 d1 1 1.5 alpha\n"
        f"{bad_line}\n"
        f"{tail}\n"
    )


@pytest.mark.parametrize("tail", ["3 Q0 d9 1 0.5 alpha", "3 Q0 d9 1 0.5"])
@pytest.mark.parametrize(
    "bad_line, exc, message",
    [
        ("2 Q0 d2 2 1.0", ParseError, "expected 6 fields, got 5"),
        ("2 Q0 d2 2 1.0 alpha extra", ParseError, "expected 6 fields, got 7"),
        ("2 Q0 d2 two 1.0 alpha", ParseError, "non-integer rank 'two'"),
        ("2 Q0 d2 2 high alpha", ParseError, "non-numeric score 'high'"),
        ("2 Q0 d2 2 nan alpha", ParseError, "non-finite score 'nan'"),
        ("2 Q0 d2 2 -inf alpha", ParseError, "non-finite score '-inf'"),
        ("2 Q0 d2 2 1.0 beta", MixedRunTag, "run tag changes from 'alpha' to 'beta'"),
        ("2 Q0 d1 2 1.0 alpha", DuplicateDoc, "doc 'd1' repeated for topic '2'"),
        # a line that fails several checks fails the one a line parser makes first
        ("2 Q0 d1 two high beta", ParseError, "non-integer rank 'two'"),
        ("2 Q0 d1 2 inf beta", ParseError, "non-finite score 'inf'"),
        ("2 Q0 d1 2 1.0 beta", MixedRunTag, "run tag changes from 'alpha' to 'beta'"),
    ],
)
def test_parse_run_names_the_first_bad_line(bad_line, exc, message, tail):
    # the tail, when broken, fails a column check that runs before the one
    # line 7 fails; line 7 is still the one reported
    with pytest.raises(ParseError) as caught:
        parse_run(run_with(bad_line, tail))
    assert type(caught.value) is exc
    assert str(caught.value) == f"line 7: {message}"
    assert caught.value.line == 7
    with pytest.raises(exc, match=f"^line 7: {message}$"):
        ref_parse_run(run_with(bad_line, tail))


def test_parse_run_with_only_blank_and_comment_lines_has_no_entries():
    for text in ("# a\n\n   \n\t# b\n", "\r\n \x0b\n"):
        with pytest.raises(ParseError) as caught:
            parse_run(text)
        assert type(caught.value) is ParseError
        assert str(caught.value) == "run file contains no entries"
        assert caught.value.line is None


@pytest.mark.parametrize(
    "text, topics",
    [
        # '#' only opens a comment at the start of a stripped line
        ("1 Q0 doc#1 1 2.0 sys\n1 Q0 #d 2 1.0 sys\n #1 Q0 d3 3 0.5 sys\n", {"1": ("doc#1", "#d")}),
        ("1 Q0 d1 1 2.0 sys\r\n\r\n1 Q0 d2 2 1.0 sys\r\n", {"1": ("d1", "d2")}),
        ("1\tQ0\td2\t1\t2.0\tsys\n 1  Q0 d1\t2 \t3.0   sys \n", {"1": ("d1", "d2")}),
        # str.splitlines breaks lines at \x0b, \x0c, \x1c and \x85 as well
        ("1 Q0 d1 1 2.0 sys\x0b2 Q0 d1 1 1.0 sys\x0c2 Q0 d2 2 0.5 sys", {"1": ("d1",), "2": ("d1", "d2")}),
        ("1 Q0 d1 1 2.0 sys\x1c1 Q0 d2 2 1.0 sys\x852 Q0 d3 1 0.5 sys", {"1": ("d1", "d2"), "2": ("d3",)}),
        # and str.split separates fields at any other whitespace
        ("1\xa0Q0\u3000d1\x1f1 2.0\u2003sys\n", {"1": ("d1",)}),
    ],
)
def test_parse_run_splits_lines_and_fields_as_str_does(text, topics):
    run = parse_run(text)
    assert run == ref_parse_run(text)
    assert dict(run.topics) == topics


def test_parse_run_counts_lines_as_str_splitlines_does():
    text = "1 Q0 d1 1 2.0 sys\r\n\x0b1 Q0 d2 2 1.0 sys\x851 Q0 d3 x 0.5 sys\n"
    with pytest.raises(ParseError, match="^line 4: non-integer rank 'x'$"):
        parse_run(text)


TOPIC_IDS = ["1", "2", "10", "q1", "Q1"]
DOC_IDS = ["d1", "d2", "d10", "D", "d#", "é", "d\x00", "d\x00\x00", "d\U0001f600"]
SCORE_TOKENS = ["0", "-0.0", "0.5", "1", "1.0", "1e0", "+1", "2.25", "-3.5", "1_0", "1e-320"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0"]


@st.composite
def run_texts(draw, max_entries=25):
    """A run file's text: distinct (topic, doc) entries in a shuffled order
    with tied scores and ranks, fields split by mixed whitespace, blank and
    comment lines between them, mixed line ends."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(TOPIC_IDS), st.sampled_from(DOC_IDS)),
        min_size=1, max_size=max_entries, unique=True,
    ))
    lines = []
    for topic, doc in keys:
        rank = draw(st.integers(-2, 6))
        score = draw(st.sampled_from(SCORE_TOKENS))
        fields = [topic, "Q0", doc, str(rank), score, "sys"]
        seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=5, max_size=5))
        body = topic + "".join(sep + field for sep, field in zip(seps, fields[1:]))
        pad = st.sampled_from(["", " ", "\t"])
        lines.append(draw(pad) + body + draw(pad))
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "# comment", "  #1 Q0 d1 1 1.0 sys", "#"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


BREAKS = {
    "drop a field": lambda fields: fields[:-1],
    "add a field": lambda fields: fields + ["x"],
    "bad rank": lambda fields: fields[:3] + ["1.5"] + fields[4:],
    "bad score": lambda fields: fields[:4] + ["1,5"] + fields[5:],
    "nan score": lambda fields: fields[:4] + ["NaN"] + fields[5:],
    "inf score": lambda fields: fields[:4] + ["-Infinity"] + fields[5:],
    "other tag": lambda fields: fields[:5] + ["other"],
}


def outcome(parse, text, honor_rank):
    try:
        return parse(text, honor_rank=honor_rank)
    except ParseError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(text=run_texts(), honor_rank=st.booleans())
def test_parse_run_equals_the_line_parser(text, honor_rank):
    assert parse_run(text, honor_rank=honor_rank) == ref_parse_run(text, honor_rank=honor_rank)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), text=run_texts(), honor_rank=st.booleans())
def test_parse_run_fails_as_the_line_parser(data, text, honor_rank):
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):  # repeat an entry further down
            lines.insert(data.draw(st.integers(i, len(lines))), lines[i])
        for name in data.draw(st.lists(st.sampled_from(sorted(BREAKS)), max_size=3)):
            lines[i] = " ".join(BREAKS[name](lines[i].split()))
    broken = "\n".join(lines)
    assert outcome(parse_run, broken, honor_rank) == outcome(ref_parse_run, broken, honor_rank)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(text=run_texts(), honor_rank=st.booleans())
def test_serialize_run_round_trips(text, honor_rank):
    run = parse_run(text, honor_rank=honor_rank)
    canonical = serialize_run(run)
    assert parse_run(canonical, honor_rank=honor_rank) == run


def test_serialize_run_round_trips_and_renumbers():
    run = parse_run(RUN_TEXT)
    text = serialize_run(run)
    reparsed = parse_run(text)
    assert reparsed.run_tag == run.run_tag
    for topic in run.topic_ids():
        assert RankedList(topic, reparsed.topics.get(topic, ())) == RankedList(
            topic, run.topics.get(topic, ())
        )
    first = text.splitlines()[0]
    assert first == "1 Q0 docC 1 9.0 alpha"
    # rank column is position in canonical order, not the input rank
    assert "2 Q0 docA 1 7.5 alpha" in text.splitlines()
    assert serialize_run(parse_run(text)) == text


def test_run_file_rejects_a_repeated_doc(schema, gt):
    topics, scores = {"1": ("d1", "d2", "d1")}, {"1": (3.0, 2.0, 1.0)}
    with pytest.raises(DuplicateDoc, match="'d1' appears twice in ranking for topic '1'"):
        RunFile("sys", topics, scores)
    # nothing downstream can score or audit such a run
    with pytest.raises(DuplicateDoc):
        score_runs([RunFile("sys", topics, scores)], gt, schema)
    with pytest.raises(DuplicateDoc):
        zero_aspect_at_k({"1": "sys"}, [RunFile("sys", topics, scores)], gt)


@pytest.mark.parametrize(
    "scores",
    [
        {},
        {"1": (2.0, 1.0)},
        {"1": (2.0, 1.0), "2": (), "3": ()},
        {"1": (2.0, 1.0), "2": (1.0,)},
        {"1": (2.0,), "2": ()},
    ],
)
def test_run_file_scores_align_with_the_doc_ids(scores):
    with pytest.raises(ValueError, match="run 'sys'"):
        RunFile("sys", {"1": ("d1", "d2"), "2": ()}, scores)
    RunFile("sys", {"1": ("d1", "d2"), "2": ()}, {"1": (2.0, 1.0), "2": ()})


def test_run_file_cannot_change_after_its_checks():
    run = parse_run(RUN_TEXT)
    with pytest.raises(TypeError):
        run.topics["1"] = ("docC", "docC")
    with pytest.raises(TypeError):
        run.scores["1"] = (1.0,)
    assert run.topics["1"] == ("docC", "docB", "docA")
    # the run holds its own copies of the mappings it was built from
    topics, scores = {"1": ("d1", "d2")}, {"1": (2.0, 1.0)}
    built = RunFile("sys", topics, scores)
    topics["1"], scores["1"] = ("d1", "d1"), (1.0,)
    topics["2"] = scores["2"] = ()
    assert dict(built.topics) == {"1": ("d1", "d2")}
    assert dict(built.scores) == {"1": (2.0, 1.0)}


# ---------------------------------------------------------------------------
# qrels

QRELS_TEXT = """\
# aspects: relevance correctness
1 0 d1 mr c
1 0 d2 hr pc
1 0 d3 3 0
2 0 d1 fr
"""


def test_parse_qrels_names_indices_and_worst_fill(schema):
    gt, corrections = parse_qrels(QRELS_TEXT, schema)
    assert corrections == 0
    assert gt.get("1", "d1") == (1, 2)
    assert gt.get("1", "d2") == (3, 1)
    assert gt.get("1", "d3") == (3, 0)  # numeric grade indices
    assert gt.get("2", "d1") == (2, 0)  # missing column filled with worst
    assert gt.get("2", "zzz") is None
    assert gt.topics() == ("1", "2")


def test_parse_qrels_requires_matching_header(schema):
    with pytest.raises(ParseError, match="aspects:"):
        parse_qrels("1 0 d1 mr c\n", schema)
    flipped = "# aspects: correctness relevance\n1 0 d1 c mr\n"
    with pytest.raises(ParseError, match="do not match schema"):
        parse_qrels(flipped, schema)


def test_parse_qrels_applies_coupling_corrections(schema):
    # relevance nr forces correctness nc; two rows violate, one already complies
    text = (
        "# aspects: relevance correctness\n"
        "1 0 d1 nr c\n"
        "1 0 d2 nr pc\n"
        "1 0 d3 nr nc\n"
    )
    gt, corrections = parse_qrels(text, schema)
    assert corrections == 2
    assert gt.get("1", "d1") == (0, 0)
    assert gt.get("1", "d2") == (0, 0)
    assert gt.get("1", "d3") == (0, 0)


def test_parse_qrels_merge_map(schema):
    text = "# aspects: relevance correctness\n1 0 d1 relevant correct\n"
    merge = {
        "relevance": {"relevant": "hr"},
        "correctness": {"correct": "c"},
    }
    gt, _ = parse_qrels(text, schema, merge=merge)
    assert gt.get("1", "d1") == (3, 2)
    with pytest.raises(UnknownLabel, match="'relevant'"):
        parse_qrels(text, schema)


@pytest.mark.parametrize(
    "row, exc, fragment",
    [
        ("1 0 d1 mr c extra", AspectCountMismatch, "3 grade columns"),
        ("1 0 d1 glowing", UnknownLabel, "'glowing'"),
        ("1 0 d1 7", UnknownLabel, "out of range"),
        ("1 0 d1 --1", UnknownLabel, "^line 2: label '--1' is not defined"),
        ("1 0 d1 \u00b2", UnknownLabel, "^line 2: label '\u00b2' is not defined"),
        ("1 0", ParseError, "at least 4 fields"),
    ],
)
def test_parse_qrels_bad_rows(schema, row, exc, fragment):
    with pytest.raises(exc, match=fragment):
        parse_qrels(f"# aspects: relevance correctness\n{row}\n", schema)


def test_parse_qrels_duplicate_judgment(schema):
    text = "# aspects: relevance correctness\n1 0 d1 mr c\n1 0 d1 hr c\n"
    with pytest.raises(DuplicateDoc):
        parse_qrels(text, schema)


def test_qrels_tokens_resolve_per_aspect_and_fail_at_their_own_line(schema):
    merge = {"relevance": {"x": "hr"}, "correctness": {"x": "pc"}}
    text = "# aspects: relevance correctness\n1 0 d1 x x\n1 0 d2 3 x\n1 0 d3 x 2\n"
    gt, _ = parse_qrels(text, schema, merge=merge)
    assert [gt.get("1", d) for d in ("d1", "d2", "d3")] == [(3, 1), (3, 1), (3, 2)]
    bad = "# aspects: relevance correctness\n1 0 d1 3 2\n\n1 0 d2 3 3\n1 0 d3 2 3\n"
    with pytest.raises(UnknownLabel, match="^line 4: grade index 3 out of range for aspect 'correctness'$"):
        parse_qrels(bad, schema)
    gt, _ = join_aspect_qrels({"relevance": "1 0 d1 x\n", "correctness": "1 0 d1 x\n"}, schema, merge)
    assert gt.get("1", "d1") == (3, 1)
    with pytest.raises(UnknownLabel, match="^line 3: label 'glow' is not defined for aspect 'relevance'$"):
        join_aspect_qrels({"relevance": "1 0 d1 hr\n# c\n1 0 d2 glow\n1 0 d3 glow\n"}, schema)


def test_join_aspect_qrels_outer_join(schema):
    rel = "1 0 d1 mr\n1 0 d2 hr\n2 0 d9 fr\n"
    cor = "1 0 d1 c\n1 0 d3 pc\n"
    gt, corrections = join_aspect_qrels(
        {"relevance": rel, "correctness": cor}, schema
    )
    assert corrections == 1  # d3 has relevance nr, coupling forces pc -> nc
    assert gt.get("1", "d1") == (1, 2)
    assert gt.get("1", "d2") == (3, 0)  # judged only for relevance
    assert gt.get("1", "d3") == (0, 0)
    assert gt.get("2", "d9") == (2, 0)
    assert len(gt) == 4


def test_join_aspect_qrels_validates(schema):
    with pytest.raises(SchemaError, match="no aspect named"):
        join_aspect_qrels({"novelty": "1 0 d1 0\n"}, schema)
    with pytest.raises(ParseError, match="4 fields"):
        join_aspect_qrels({"relevance": "1 0 d1 mr extra\n"}, schema)
    with pytest.raises(DuplicateDoc, match="'relevance'"):
        join_aspect_qrels({"relevance": "1 0 d1 mr\n1 0 d1 hr\n"}, schema)
    # only an optional '-' and ASCII digits make an index; '--1' and '²' are labels
    for token in ("--1", "\u00b2"):
        with pytest.raises(UnknownLabel, match=f"^line 2: label '{token}' is not defined"):
            join_aspect_qrels({"relevance": f"1 0 d1 mr\n1 0 d2 {token}\n"}, schema)


# ---------------------------------------------------------------------------
# signals and discretizers


def test_parse_signals():
    text = "# scores\ndocA 0.25\ndocB -1.5e2\n"
    assert parse_signals(text) == {"docA": 0.25, "docB": -150.0}
    with pytest.raises(ParseError, match="2 fields"):
        parse_signals("docA 1 2\n")
    with pytest.raises(DuplicateDoc):
        parse_signals("docA 1\ndocA 2\n")
    with pytest.raises(ParseError, match="non-numeric"):
        parse_signals("docA best\n")


def counts_by_grade(grades):
    out = {}
    for g in grades.values():
        out[g] = out.get(g, 0) + 1
    return out


def test_quantile_splits_100_docs_5_10_85():
    signals = {f"d{i:03d}": 1000.0 - i for i in range(100)}
    grades = discretize_quantile(signals, [0.05, 0.10, 0.85])
    assert counts_by_grade(grades) == {2: 5, 1: 10, 0: 85}
    assert grades["d000"] == 2 and grades["d004"] == 2
    assert grades["d005"] == 1 and grades["d014"] == 1
    assert grades["d015"] == 0 and grades["d099"] == 0


def test_quantile_small_tables():
    one = discretize_quantile({"solo": 3.0}, [0.05, 0.10, 0.85])
    assert one == {"solo": 2}  # top block keeps at least one doc
    twenty = {f"d{i:02d}": float(-i) for i in range(20)}
    grades = discretize_quantile(twenty, [0.05, 0.10, 0.85])
    assert counts_by_grade(grades) == {2: 1, 1: 2, 0: 17}


def test_quantile_is_monotone_and_exhaustive():
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(1, 60)
        signals = {f"d{i}": rng.uniform(-5, 5) for i in range(n)}
        k = rng.randint(2, 4)
        cuts = sorted(rng.uniform(0.05, 0.95) for _ in range(k - 1))
        fractions = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
        grades = discretize_quantile(signals, fractions)
        assert sorted(grades) == sorted(signals)
        for a in signals:
            for b in signals:
                if signals[a] > signals[b]:
                    assert grades[a] >= grades[b]


def test_quantile_breaks_score_ties_by_doc_id():
    signals = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
    grades = discretize_quantile(signals, [0.25, 0.75])
    assert grades == {"a": 1, "b": 0, "c": 0, "d": 0}


def test_quantile_validation_and_empty_table():
    assert discretize_quantile({}, [0.5, 0.5]) == {}
    with pytest.raises(ConfigError, match="positive"):
        discretize_quantile({"a": 1.0}, [0.5, -0.5, 1.0])
    with pytest.raises(ConfigError, match="sum"):
        discretize_quantile({"a": 1.0}, [0.5, 0.4])


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_signals_reject_non_finite_scores_at_their_line(token):
    # a NaN would get a grade that depends on the order of the lines
    text = f"a 0.9\n# comment\n\nb {token}\n"
    with pytest.raises(ParseError, match=f"line 4: non-finite score '{token}'"):
        parse_signals(text)


def test_discretizers_reject_non_finite_settings():
    for fractions in ([0.5, math.nan, 0.5], [math.inf]):
        with pytest.raises(ConfigError, match="finite"):
            discretize_quantile({"a": 1.0}, fractions)
    for cuts in ([math.nan], [80.0, math.inf]):
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            discretize_threshold({"a": 1.0}, cuts)


def test_threshold_counts_cuts_at_or_below_score():
    signals = {"low": 79.0, "mid": 85.0, "edge": 90.0, "high": 95.0}
    grades = discretize_threshold(signals, [80.0, 90.0])
    assert grades == {"low": 0, "mid": 1, "edge": 2, "high": 2}
    assert discretize_threshold({}, [80.0]) == {}


def test_threshold_requires_ascending_cuts():
    with pytest.raises(ConfigError, match="ascending"):
        discretize_threshold({"a": 1.0}, [90.0, 80.0])
    with pytest.raises(ConfigError, match="ascending"):
        discretize_threshold({"a": 1.0}, [80.0, 80.0])
