"""TSV report writers and the score-table reader.

Every writer takes a ``meta`` mapping rendered as leading ``# key: value``
comment lines (tool version, config hash, seed).  Nothing time-dependent is
ever written, so rerunning a command on the same inputs reproduces each file
byte for byte.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from . import __version__
from .analysis import CorrelationReport, DPReport, QualityBandReport, ZeroAspectReport
from .errors import ParseError
from .ingest import _iter_lines
from .measures import _SCORE_SLACK, ALL_TOPIC, SCORE_DECIMALS, ScoreMatrix

# An ``all`` row and the topic scores it averages are each printed at
# SCORE_DECIMALS decimals, so the mean of the parsed scores may sit up to half
# a printed unit from each, a whole unit in all; the 1e-9 absorbs the float
# error of that difference.
_MEAN_SLACK = 1 / 10**SCORE_DECIMALS + 1e-9


def _tsv(meta: Mapping[str, object] | None, rows: Iterable[str]) -> str:
    """The ``# key: value`` header lines, then ``rows``, one per line."""
    headers = [f"# tool: aspecteval {__version__}"]
    headers += (f"# {key}: {value}" for key, value in (meta or {}).items())
    return "\n".join([*headers, *rows]) + "\n"


def render_scores(matrix: ScoreMatrix, meta: Mapping[str, object] | None = None) -> str:
    """Rows ``run_tag topic measure score`` (``SCORE_DECIMALS`` decimals),
    grouped by run with an ``all`` pseudo-topic row carrying the mean over
    topics."""
    rows = []
    for run, row in zip(matrix.run_tags, matrix.values.tolist()):
        for topic, score in zip(matrix.topic_ids, row):
            rows.append(f"{run}\t{topic}\t{matrix.measure}\t{score:.{SCORE_DECIMALS}f}")
        rows.append(f"{run}\t{ALL_TOPIC}\t{matrix.measure}\t{matrix.mean(run):.{SCORE_DECIMALS}f}")
    return _tsv(meta, rows)


def parse_scores(text: str) -> ScoreMatrix:
    """Read a score TSV back into a matrix, ignoring comments.  Every row,
    the ``all`` summary rows included, carries the one measure label and a
    numeric score, a topic row's in [0, 1] up to ``ScoreMatrix``'s slack;
    each (run, topic) pair comes once, and a run with an ``all`` row has
    topic rows too.  An ``all`` row must be finite and
    within ``_MEAN_SLACK`` of its run's mean over the parsed topic scores;
    the ``all`` rows are then dropped."""
    cells: dict[tuple[str, str], float] = {}
    all_lines: dict[str, int] = {}
    measure: str | None = None
    for lineno, line in _iter_lines(text):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", lineno)
        run, topic, label, score_s = parts
        if (run, topic) in cells:
            raise ParseError(f"duplicate cell ({run}, {topic})", lineno)
        if measure is None:
            measure = label
        elif label != measure:
            raise ParseError(f"mixed measure labels {measure!r} and {label!r}", lineno)
        try:
            score = cells[(run, topic)] = float(score_s)
        except ValueError:
            raise ParseError(f"non-numeric score {score_s!r}", lineno) from None
        if topic == ALL_TOPIC:
            all_lines[run] = lineno
        elif not -_SCORE_SLACK <= score <= 1.0 + _SCORE_SLACK:  # as ScoreMatrix checks
            raise ParseError(f"score out of range for ({run}, {topic}): {score!r}", lineno)
    scores = {cell: score for cell, score in cells.items() if cell[1] != ALL_TOPIC}
    if not scores:
        raise ParseError("score table has no data rows")
    summary_only = sorted({run for run, _ in cells} - {run for run, _ in scores})
    if summary_only:
        raise ParseError(f"run {summary_only[0]!r} has only an {ALL_TOPIC!r} row")
    run_tags = sorted({run for run, _ in scores})
    topic_ids = sorted({topic for _, topic in scores})
    try:
        values = [[scores[run, topic] for topic in topic_ids] for run in run_tags]
    except KeyError as exc:  # the first missing cell, run by run
        run, topic = exc.args[0]
        raise ParseError(f"matrix {measure!r} is missing cell ({run}, {topic})") from None
    matrix = ScoreMatrix(measure, tuple(run_tags), tuple(topic_ids), values)
    for run, lineno in all_lines.items():  # in line order
        score, mean = cells[(run, ALL_TOPIC)], matrix.mean(run)
        if not math.isfinite(score) or abs(score - mean) > _MEAN_SLACK:
            raise ParseError(
                f"{ALL_TOPIC!r} score {score!r} of run {run!r} is not its mean {mean:.4f}", lineno
            )
    return matrix


def render_correlation(
    report: CorrelationReport, meta: Mapping[str, object] | None = None
) -> str:
    """Rows ``topic tau`` plus a ``mean`` summary row; excluded-topic count
    and the equivalence flag ride in the header."""
    meta = dict(meta or {})
    meta["measures"] = f"{report.measure_a} vs {report.measure_b}"
    meta["excluded_topics"] = report.excluded
    meta["equivalent"] = "yes" if report.equivalent else "no"
    mean = "na" if report.mean_tau is None else f"{report.mean_tau:.4f}"
    rows = [f"{topic}\t{report.per_topic[topic]:.4f}" for topic in sorted(report.per_topic)]
    return _tsv(meta, [*rows, f"mean\t{mean}"])


def render_dp(report: DPReport, meta: Mapping[str, object] | None = None) -> str:
    """Rows ``run_a run_b t asl significant`` plus a ``percentage`` row."""
    meta = dict(meta or {})
    meta["measure"] = report.measure
    meta["bootstrap_samples"] = report.b_samples
    meta["alpha"] = report.alpha
    meta["seed"] = report.seed
    rows = [
        f"{p.run_a}\t{p.run_b}\t{p.t:.4f}\t{p.asl:.4f}\t{1 if p.significant else 0}"
        for p in report.pairs
    ]
    return _tsv(meta, [*rows, f"percentage\t{report.percentage:.2f}"])


def render_zero_aspect(
    report: ZeroAspectReport, meta: Mapping[str, object] | None = None
) -> str:
    """Rows ``rank count percent`` for ranks 1..k plus the 1..k total."""
    rows = (*report.rows, report.total)
    return _tsv(meta, (f"{r.rank}\t{r.count}\t{r.percent:.2f}" for r in rows))


def render_quality_bands(
    report: QualityBandReport, meta: Mapping[str, object] | None = None
) -> str:
    """Rows ``band mean_sum``; bands nobody retrieved into are omitted."""
    rows = (r for r in report.rows if r.mean_sum is not None)
    return _tsv(meta, (f"{r.band[0]}-{r.band[1]}\t{r.mean_sum:.4f}" for r in rows))


def render_grades(grades: Mapping[str, int], meta: Mapping[str, object] | None = None) -> str:
    """One ``docid grade`` row per document, sorted by doc id."""
    return _tsv(meta, (f"{doc}\t{grades[doc]}" for doc in sorted(grades)))
