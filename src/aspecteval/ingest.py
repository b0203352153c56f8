"""Parsers for run files, multi-aspect qrels, and signal tables, plus the
discretizers that turn continuous signals into graded aspect columns.

The rules every run set keeps live here, beside ``RunFile``: each doc once
per topic (``check_distinct``) and each run tag once (``runs_by_tag``)."""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    AspectCountMismatch,
    ConfigError,
    DuplicateDoc,
    MixedRunTag,
    ParseError,
    UnknownLabel,
)
from .schema import AspectSchema, GroundTruth

MergeMaps = Mapping[str, Mapping[str, str]]


def check_distinct(topic_id: str, doc_ids: Sequence[str]) -> None:
    """Raise DuplicateDoc if a doc appears twice in one topic's ranking."""
    if len(set(doc_ids)) != len(doc_ids):
        seen = set()
        dup = next(d for d in doc_ids if d in seen or seen.add(d))
        raise DuplicateDoc(f"doc {dup!r} appears twice in ranking for topic {topic_id!r}")


@dataclass(frozen=True)
class RunFile:
    """One system's retrieved lists: per topic, the doc ids in ranked order
    and, aligned with them, their scores."""

    run_tag: str
    topics: Mapping[str, tuple[str, ...]]
    scores: Mapping[str, tuple[float, ...]]

    def __post_init__(self):
        topics, scores = dict(self.topics), dict(self.scores)
        if scores.keys() != topics.keys():
            raise ValueError(f"run {self.run_tag!r}: scores and doc ids cover different topics")
        for topic, docs in topics.items():
            check_distinct(topic, docs)
            if len(scores[topic]) != len(docs):
                raise ValueError(
                    f"run {self.run_tag!r}: {len(scores[topic])} scores for "
                    f"{len(docs)} docs in topic {topic!r}"
                )
        # Read-only views of private copies: a checked run cannot change.
        object.__setattr__(self, "topics", MappingProxyType(topics))
        object.__setattr__(self, "scores", MappingProxyType(scores))

    def topic_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.topics))


def runs_by_tag(runs: Iterable[RunFile]) -> dict[str, RunFile]:
    """The runs keyed by run tag; a tag given twice is an error."""
    by_tag = {}
    for rf in runs:
        if rf.run_tag in by_tag:
            raise ConfigError(f"duplicate run tag {rf.run_tag!r}")
        by_tag[rf.run_tag] = rf
    return by_tag


def _iter_lines(text: str) -> Iterable[tuple[int, str]]:
    """(line number, stripped line) of every line that is neither blank nor
    a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def _parse_score(token: str, lineno: int) -> float:
    """The finite score a run or signal line gives as ``token``."""
    try:
        score = float(token)
    except ValueError:
        raise ParseError(f"non-numeric score {token!r}", lineno) from None
    if not math.isfinite(score):
        raise ParseError(f"non-finite score {token!r}", lineno)
    return score


def _first_run_error(text: str) -> ParseError:
    """The error of the first bad line of a run file that failed a column
    check.  The lines are checked in file order, each check in the order a
    line-by-line parse makes them, so the message and line number name the
    line that such a parse would stop at."""
    seen: set[tuple[str, str]] = set()
    run_tag: str | None = None
    for lineno, line in _iter_lines(text):
        parts = line.split()
        if len(parts) != 6:
            return ParseError(f"expected 6 fields, got {len(parts)}", lineno)
        topic, _q0, doc, rank_s, score_s, tag = parts
        try:
            int(rank_s)
        except ValueError:
            return ParseError(f"non-integer rank {rank_s!r}", lineno)
        try:
            _parse_score(score_s, lineno)
        except ParseError as exc:
            return exc
        if run_tag is None:
            run_tag = tag
        elif tag != run_tag:
            return MixedRunTag(f"run tag changes from {run_tag!r} to {tag!r}", lineno)
        if (topic, doc) in seen:
            return DuplicateDoc(f"doc {doc!r} repeated for topic {topic!r}", lineno)
        seen.add((topic, doc))
    raise AssertionError("a column check failed on a run file whose every line passes")


def parse_run(text: str, honor_rank: bool = False) -> RunFile:
    """Parse the standard six-column run format ``topic Q0 docid rank score tag``.

    Entries are ordered by score descending with doc_id breaking ties, so a
    shuffled file parses to the same run.  Pass ``honor_rank=True`` to order
    by the rank column instead.

    The file is read as columns: each check runs over a whole column, and
    only a file that fails one is walked line by line, to report its first
    bad line.
    """
    lines = [line for _, line in _iter_lines(text)]
    if not lines:
        raise ParseError("run file contains no entries")
    if set(map(len, map(str.split, lines))) != {6}:
        raise _first_run_error(text)
    tokens = " ".join(lines).split()
    topics, docs, tags = tokens[0::6], tokens[2::6], tokens[5::6]
    try:
        ranks = list(map(int, tokens[3::6]))
        scores = list(map(float, tokens[4::6]))
    except ValueError:
        raise _first_run_error(text) from None
    if not all(map(math.isfinite, scores)) or tags.count(tags[0]) != len(tags):
        raise _first_run_error(text)
    keys = ranks if honor_rank else map(operator.neg, scores)
    # One sort by (topic, key, doc); a score decides only between entries
    # that repeat a doc, which fail below.
    topics, _, docs, scores = zip(*sorted(zip(topics, keys, docs, scores)))
    by_topic, by_score, start = {}, {}, 0
    for topic, count in Counter(topics).items():  # topics ascending, as sorted
        end = start + count
        by_topic[topic], by_score[topic] = docs[start:end], scores[start:end]
        start = end
    try:
        return RunFile(tags[0], by_topic, by_score)
    except DuplicateDoc:  # RunFile checks each topic's doc ids
        raise _first_run_error(text) from None


def serialize_run(run: RunFile) -> str:
    """Canonical text form: topics ascending, ranks renumbered from 1."""
    lines = []
    for topic in run.topic_ids():
        for position, (doc, score) in enumerate(zip(run.topics[topic], run.scores[topic]), 1):
            lines.append(f"{topic} Q0 {doc} {position} {score!r} {run.run_tag}")
    return "\n".join(lines) + "\n"


def _resolve_grade(
    token: str,
    aspect_idx: int,
    schema: AspectSchema,
    merge: MergeMaps | None,
    lineno: int,
) -> int:
    aspect = schema.aspects[aspect_idx]
    if token.isascii() and token.removeprefix("-").isdigit():
        idx = int(token)
        if not 0 <= idx < aspect.n_grades:
            raise UnknownLabel(
                f"grade index {idx} out of range for aspect {aspect.name!r}", lineno
            )
        name = aspect.labels[idx]
    else:
        name = token
    if merge and name in merge.get(aspect.name, {}):
        name = merge[aspect.name][name]
    if name not in aspect.labels:
        raise UnknownLabel(
            f"label {name!r} is not defined for aspect {aspect.name!r}", lineno
        )
    return aspect.index(name)


def parse_qrels(
    text: str, schema: AspectSchema, merge: MergeMaps | None = None
) -> tuple[GroundTruth, int]:
    """Parse multi-aspect qrels, returning the ground truth and the number of
    coupling-rule corrections applied.

    Format: a ``# aspects: <name> ...`` header naming the columns in schema
    order, then rows ``topic 0 docid grade [grade ...]``.  Grades are label
    names or integer indices; a configured merge map rewrites label names
    first; missing trailing columns are filled with the worst label; tuples
    that still violate a coupling rule are forced to the rule's label.
    """
    first = (text.lstrip().splitlines() or [""])[0]  # the first non-blank line
    body = first.lstrip("#").strip()
    if not first.startswith("#") or not body.startswith("aspects:"):
        raise ParseError("missing '# aspects:' header", 1)
    header = body[len("aspects:") :].split()
    if tuple(header) != schema.names:
        raise ParseError(
            f"header aspects {header} do not match schema {list(schema.names)}", 1
        )

    rows: dict[tuple[str, str], list[int]] = {}
    grade_of: dict[tuple[int, str], int] = {}  # (aspect, token) -> grade, resolved once
    for lineno, line in _iter_lines(text):
        parts = line.split()
        if len(parts) < 4:
            raise ParseError(f"expected at least 4 fields, got {len(parts)}", lineno)
        topic, _iteration, doc = parts[0], parts[1], parts[2]
        grades = parts[3:]
        if len(grades) > schema.n_aspects:
            raise AspectCountMismatch(
                f"{len(grades)} grade columns for {schema.n_aspects} aspects", lineno
            )
        if (topic, doc) in rows:
            raise DuplicateDoc(f"doc {doc!r} judged twice for topic {topic!r}", lineno)
        indices = []
        for key in enumerate(grades):
            if key not in grade_of:
                grade_of[key] = _resolve_grade(key[1], key[0], schema, merge, lineno)
            indices.append(grade_of[key])
        indices.extend(0 for _ in range(schema.n_aspects - len(indices)))
        rows[(topic, doc)] = indices
    return _settle(rows, schema)


def join_aspect_qrels(
    per_aspect: Mapping[str, str],
    schema: AspectSchema,
    merge: MergeMaps | None = None,
) -> tuple[GroundTruth, int]:
    """Join single-aspect qrels files (``topic 0 docid grade`` rows) into one
    ground truth.

    The join is outer: a (topic, doc) pair judged in any file appears in the
    result, with unjudged aspects filled with the worst label.  Returns the
    ground truth and the coupling-correction count.
    """
    for name in per_aspect:
        schema.aspect_index(name)
    partial: dict[tuple[str, str], list[int]] = {}
    for name, text in sorted(per_aspect.items()):
        idx = schema.aspect_index(name)
        seen: set[tuple[str, str]] = set()
        grade_of: dict[str, int] = {}  # token -> grade, resolved once
        for lineno, line in _iter_lines(text):
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(
                    f"expected 4 fields in {name!r} qrels, got {len(parts)}", lineno
                )
            topic, _iteration, doc, token = parts
            if (topic, doc) in seen:
                raise DuplicateDoc(
                    f"doc {doc!r} judged twice for topic {topic!r} in {name!r}", lineno
                )
            seen.add((topic, doc))
            if token not in grade_of:
                grade_of[token] = _resolve_grade(token, idx, schema, merge, lineno)
            partial.setdefault((topic, doc), [0] * schema.n_aspects)[idx] = grade_of[token]
    return _settle(dict(sorted(partial.items())), schema)


def _settle(rows: Mapping, schema: AspectSchema) -> tuple[GroundTruth, int]:
    """The ground truth of ``rows`` (judged pair -> grade indices, in entry
    order) forced into rule compliance, and the number of corrections."""
    settled, corrections = schema.settle(list(rows.values()))
    return GroundTruth(dict(zip(rows, settled))), corrections


def parse_signals(text: str) -> dict[str, float]:
    """Parse a ``docid score`` table into a doc -> raw score map."""
    signals: dict[str, float] = {}
    for lineno, line in _iter_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", lineno)
        doc, score_s = parts
        score = _parse_score(score_s, lineno)
        if doc in signals:
            raise DuplicateDoc(f"doc {doc!r} appears twice", lineno)
        signals[doc] = score
    return signals


def discretize_quantile(
    signals: Mapping[str, float], fractions: list[float]
) -> dict[str, int]:
    """Assign grades by rank quantiles, highest grade first.

    ``fractions`` gives the share of docs per grade from the best grade down
    (so ``(0.05, 0.10, 0.85)`` sends the top 5% to grade 2).  Block
    boundaries are cumulative counts rounded to the nearest integer; the top
    block always keeps at least one document, so tiny tables collapse into
    the best grade rather than the worst.  An empty table yields an empty map.
    """
    if not fractions or not all(0 < f < math.inf for f in fractions):
        raise ConfigError("quantile fractions must be positive and finite")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"quantile fractions sum to {sum(fractions)!r}, expected 1")
    if not signals:
        return {}
    n = len(signals)
    docs = sorted(signals, key=lambda d: (-signals[d], d))
    n_grades = len(fractions)
    boundaries = []
    acc = 0.0
    for f in fractions:
        acc += f
        boundaries.append(math.floor(acc * n + 0.5))
    boundaries[0] = max(boundaries[0], 1)
    for i in range(1, n_grades):
        boundaries[i] = max(boundaries[i], boundaries[i - 1])
    boundaries[-1] = n
    grades: dict[str, int] = {}
    start = 0
    for block, bound in enumerate(boundaries):
        for doc in docs[start:bound]:
            grades[doc] = n_grades - 1 - block
        start = bound
    return grades


def discretize_threshold(
    signals: Mapping[str, float], thresholds: list[float]
) -> dict[str, int]:
    """Grade each doc by how many thresholds its raw score reaches."""
    if not all(map(math.isfinite, thresholds)):
        raise ConfigError("thresholds must be finite")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ConfigError("thresholds must be strictly ascending")
    return {
        doc: sum(1 for cut in thresholds if cut <= score)
        for doc, score in signals.items()
    }
