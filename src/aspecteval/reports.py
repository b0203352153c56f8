"""TSV report writers and the score-table reader.

Every writer takes a ``meta`` mapping rendered as leading ``# key: value``
comment lines (tool version, config hash, seed).  Nothing time-dependent is
ever written, so rerunning a command on the same inputs reproduces each file
byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import __version__
from .analysis import CorrelationReport, DPReport, QualityBandReport, ZeroAspectReport
from .errors import ParseError
from .ingest import _iter_lines
from .measures import ScoreMatrix

ALL_TOPIC = "all"


def _headers(meta: Mapping[str, object] | None) -> list[str]:
    lines = [f"# tool: aspecteval {__version__}"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def render_scores(matrix: ScoreMatrix, meta: Mapping[str, object] | None = None) -> str:
    """Rows ``run_tag topic measure score`` (4 decimals), grouped by run with
    an ``all`` pseudo-topic row carrying the mean over topics."""
    lines = _headers(meta)
    for run, row in zip(matrix.run_tags, matrix.values.tolist()):
        for topic, score in zip(matrix.topic_ids, row):
            lines.append(f"{run}\t{topic}\t{matrix.measure}\t{score:.4f}")
        lines.append(f"{run}\t{ALL_TOPIC}\t{matrix.measure}\t{matrix.mean(run):.4f}")
    return "\n".join(lines) + "\n"


def parse_scores(text: str) -> ScoreMatrix:
    """Read a score TSV back into a matrix, ignoring comments and the
    ``all`` summary rows; each (run, topic) pair, ``all`` included, comes once."""
    cells: dict[tuple[str, str], float] = {}
    seen: set[tuple[str, str]] = set()
    measure: str | None = None
    for lineno, line in _iter_lines(text):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", lineno)
        run, topic, label, score_s = parts
        if (run, topic) in seen:
            raise ParseError(f"duplicate cell ({run}, {topic})", lineno)
        seen.add((run, topic))
        if topic == ALL_TOPIC:
            continue
        if measure is None:
            measure = label
        elif label != measure:
            raise ParseError(
                f"mixed measure labels {measure!r} and {label!r}", lineno
            )
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"non-numeric score {score_s!r}", lineno) from None
        cells[(run, topic)] = score
    if not cells or measure is None:
        raise ParseError("score table has no data rows")
    try:
        return ScoreMatrix.build(measure, cells)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def render_correlation(
    report: CorrelationReport, meta: Mapping[str, object] | None = None
) -> str:
    """Rows ``topic tau`` plus a ``mean`` summary row; excluded-topic count
    and the equivalence flag ride in the header."""
    meta = dict(meta or {})
    meta["measures"] = f"{report.measure_a} vs {report.measure_b}"
    meta["excluded_topics"] = report.excluded
    meta["equivalent"] = "yes" if report.equivalent else "no"
    lines = _headers(meta)
    for topic in sorted(report.per_topic):
        lines.append(f"{topic}\t{report.per_topic[topic]:.4f}")
    mean = "na" if report.mean_tau is None else f"{report.mean_tau:.4f}"
    lines.append(f"mean\t{mean}")
    return "\n".join(lines) + "\n"


def render_dp(report: DPReport, meta: Mapping[str, object] | None = None) -> str:
    """Rows ``run_a run_b t asl significant`` plus a ``percentage`` row."""
    meta = dict(meta or {})
    meta["measure"] = report.measure
    meta["bootstrap_samples"] = report.b_samples
    meta["alpha"] = report.alpha
    meta["seed"] = report.seed
    lines = _headers(meta)
    for p in report.pairs:
        lines.append(
            f"{p.run_a}\t{p.run_b}\t{p.t:.4f}\t{p.asl:.4f}\t"
            f"{1 if p.significant else 0}"
        )
    lines.append(f"percentage\t{report.percentage:.2f}")
    return "\n".join(lines) + "\n"


def render_zero_aspect(
    report: ZeroAspectReport, meta: Mapping[str, object] | None = None
) -> str:
    """Rows ``rank count percent`` for ranks 1..k plus the 1..k total."""
    lines = _headers(meta)
    for row in (*report.rows, report.total):
        lines.append(f"{row.rank}\t{row.count}\t{row.percent:.2f}")
    return "\n".join(lines) + "\n"


def render_quality_bands(
    report: QualityBandReport, meta: Mapping[str, object] | None = None
) -> str:
    """Rows ``band mean_sum``; bands nobody retrieved into are omitted."""
    lines = _headers(meta)
    for row in report.rows:
        if row.mean_sum is None:
            continue
        lines.append(f"{row.band[0]}-{row.band[1]}\t{row.mean_sum:.4f}")
    return "\n".join(lines) + "\n"


def render_grades(grades: Mapping[str, int], meta: Mapping[str, object] | None = None) -> str:
    """One ``docid grade`` row per document, sorted by doc id."""
    lines = _headers(meta)
    lines.extend(f"{doc}\t{grades[doc]}" for doc in sorted(grades))
    return "\n".join(lines) + "\n"


def render_order_dump(dump_body: str, meta: Mapping[str, object] | None = None) -> str:
    return "\n".join(_headers(meta)) + "\n" + dump_body
