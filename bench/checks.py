"""Output checks for one pass of a workload.

Every check returns a list of failure messages; an empty list means the
outputs are correct.  Score cells are recomputed with the scalar scoring
functions (``order_score``, ``cam_score``, ``mm_score``) from the
generator's own judgments and rankings, never from the files under test.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

import numpy as np

ORDER_FAMILIES = ("EUCL", "MANH", "CHEB")
KINDS = ("ndcg", "ap")
SCORE_LABELS = tuple(f"{f}-{k}" for k in KINDS for f in (*ORDER_FAMILIES, "CAM", "MM"))
CELL_SAMPLE = 240


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_digests(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Files of a repetition whose bytes differ from the first one's."""
    return [
        f"{name} differs between repetitions"
        for name in sorted(again)
        if first.get(name) != again[name]
    ]


def read_scores(path: Path) -> dict[tuple[str, str], str]:
    """(run, topic) -> printed score of a score TSV, the ``all`` rows included."""
    cells = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            run, topic, _label, score = line.split("\t")
            cells[(run, topic)] = score
    return cells


def check_scores(scores_dir: Path, workload) -> list[str]:
    """All ten tables exist, cover every run and topic, and lie in [0, 1]."""
    failures = []
    topics = sorted({t for t, _ in workload.judged})
    expected = {(r, t) for r in workload.rankings for t in [*topics, "all"]}
    for label in SCORE_LABELS:
        path = scores_dir / f"scores_{label}.tsv"
        if not path.is_file():
            failures.append(f"missing {path.name}")
            continue
        cells = read_scores(path)
        if set(cells) != expected:
            failures.append(f"{path.name}: {len(cells)} cells, expected {len(expected)}")
        bad = [k for k, v in cells.items() if not 0.0 <= float(v) <= 1.0]
        if bad:
            failures.append(f"{path.name}: {len(bad)} scores outside [0, 1], e.g. {bad[0]}")
    return failures


def _weights(schema, metrics):
    from aspecteval import assign_weights, build_order, build_tuple_space

    space = build_tuple_space(schema)
    weights = {}
    for m in metrics:
        order = build_order(space, schema, m)
        weights[(m.short, "ndcg")] = assign_weights(order, "distinct")
        weights[(m.short, "ap")] = assign_weights(order, "binary")
    return weights


def check_cells(scores_dir: Path, workload, sample: int = CELL_SAMPLE) -> list[str]:
    """Recompute a seeded sample of cells and compare to 4 printed decimals."""
    from aspecteval import (
        GroundTruth, MeasureConfig, Metric, RankedList, cam_score, mm_score,
        order_score, parse_schema,
    )

    schema = parse_schema(workload.schema_text)
    gt = GroundTruth(dict(workload.judged))
    weights = _weights(schema, tuple(Metric))
    configs = {
        kind: MeasureConfig(kind, depth=workload.depth, aspect_relevant=workload.relevant)
        for kind in KINDS
    }
    topics = sorted({t for t, _ in workload.judged})
    cells = list(itertools.product(sorted(workload.rankings), topics, SCORE_LABELS))
    rng = random.Random(f"cells:{workload.seed}")
    tables: dict[str, dict] = {}
    failures = []
    for run, topic, label in sorted(rng.sample(cells, min(sample, len(cells)))):
        family, kind = label.split("-")
        cfg = configs[kind]
        ranked = RankedList(topic, tuple(workload.rankings[run].get(topic, ())))
        if family == "CAM":
            score = cam_score(ranked, gt, schema, cfg, workload.importance)
        elif family == "MM":
            score = mm_score(ranked, gt, schema, cfg, workload.importance, workload.mm_variant)
        else:
            score = order_score(ranked, gt, weights[(family, kind)], cfg)
        expected = f"{min(1.0, max(0.0, score)):.4f}"
        if label not in tables:
            path = scores_dir / f"scores_{label}.tsv"
            tables[label] = read_scores(path) if path.is_file() else {}
        got = tables[label].get((run, topic))
        if got != expected:
            failures.append(f"{label} {run}/{topic}: file {got}, recomputed {expected}")
    return failures


def feasible_count(grades, rules) -> int:
    """Tuples of the grade product that break none of the (trigger aspect,
    trigger grade, forced aspect, forced grade) rules, counted directly."""
    grid = np.indices(grades).reshape(len(grades), -1)
    ok = np.ones(grid.shape[1], dtype=bool)
    for ta, tl, fa, fl in rules:
        ok &= (grid[ta] != tl) | (grid[fa] == fl)
    return int(ok.sum())


def check_order_dump(path: Path, workload) -> list[str]:
    """The class sizes of the dump sum to the independently counted space."""
    if not path.is_file():
        return [f"missing {path.name}"]
    members = 0
    for line in path.read_text().splitlines():
        if line.startswith("class "):
            members += len(line.split(" : ", 1)[1].split(";"))
    expected = feasible_count(workload.grades, workload.rules)
    if members != expected:
        return [f"{path.name}: classes hold {members} tuples, expected {expected}"]
    return []


def analyze_outputs(labels: list[str]) -> list[str]:
    names = [f"correlation_{a}_vs_{b}.tsv" for a, b in itertools.combinations(labels, 2)]
    names += [f"dp_{label}.tsv" for label in labels]
    return names + ["zero_aspect.tsv", "quality_bands.tsv"]


def check_reports(reports_dir: Path, labels: list[str]) -> list[str]:
    failures = []
    for name in analyze_outputs(labels):
        path = reports_dir / name
        rows = [
            l for l in (path.read_text().splitlines() if path.is_file() else [])
            if l and not l.startswith("#")
        ]
        if not rows:
            failures.append(f"missing or empty {name}")
    return failures
