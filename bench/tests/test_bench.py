"""Tests for the benchmark itself (not part of the package's tier-1 suite).

    python -m pytest -q bench/tests
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from aspecteval import cli  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _normalized(root: Path) -> dict[str, bytes]:
    """File bytes with the generation directory replaced, since config
    files and the commands name absolute paths."""
    return {k: v.replace(str(root).encode(), b"ROOT") for k, v in _files(root).items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = workloads.generate(name, 7, tmp_path / "a", smoke=True)
    b = workloads.generate(name, 7, tmp_path / "b", smoke=True)
    c = workloads.generate(name, 8, tmp_path / "c", smoke=True)
    assert _normalized(tmp_path / "a") == _normalized(tmp_path / "b")
    assert _normalized(tmp_path / "a") != _normalized(tmp_path / "c")
    assert a.judged == b.judged and a.rankings == b.rankings
    assert a.judged != c.judged


def test_full_size_shapes_match_the_workload_definitions(tmp_path):
    w = workloads.generate("deep-pools", 3, tmp_path / "dp")
    lines = sum(len(docs) for per_topic in w.rankings.values() for docs in per_topic.values())
    assert lines == 16 * 60 * 100
    assert len(w.judged) == 60 * 150
    shapes = workloads.ac3_shapes(250)
    assert all(2 <= len(s) <= 5 and all(2 <= g <= 5 for g in s) for s in shapes)


def test_metric_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME_RE.fullmatch(n) for n in declared)
    assert all(NAME_RE.fullmatch(n) for n in [*run.END_TO_END, *run.PER_LAYER])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_feasible_count_counts_rule_survivors():
    assert checks.feasible_count((4, 3, 2), ()) == 24
    # rule: aspect 0 at grade 0 forces aspect 1 to grade 0 -> drops 1 * 2 * 2
    assert checks.feasible_count((4, 3, 2), ((0, 0, 1, 0),)) == 20


def _run_in_process(w, out: Path) -> None:
    for cmd in w.commands:
        assert cli.main(run.cli_argv(cmd, out)) == 0


@pytest.mark.parametrize("name", ["deep-pools", "shallow-many"])
def test_smoke_pipeline_passes_checks_and_catches_a_corrupted_cell(tmp_path, name):
    w = workloads.generate(name, 5, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    _run_in_process(w, out)
    ledger = run.Ledger()
    run.check_pass(w, out, ledger, 0)
    assert ledger.messages == []

    path = out / "scores" / "scores_EUCL-ap.tsv"
    lines = path.read_text().splitlines()
    i = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    run_tag, topic, label, score = lines[i].split("\t")
    lines[i] = "\t".join([run_tag, topic, label, "0.1234" if score != "0.1234" else "0.4321"])
    path.write_text("\n".join(lines) + "\n")
    failures = checks.check_cells(out / "scores", w, sample=10**6)
    assert any(f"{run_tag}/{topic}" in f for f in failures)

    lines[i] = "\t".join([run_tag, topic, label, "1.5000"])
    path.write_text("\n".join(lines) + "\n")
    assert any("outside [0, 1]" in f for f in checks.check_scores(out / "scores", w))


def test_order_dump_check_catches_a_missing_tuple(tmp_path):
    w = workloads.generate("deep-pools", 5, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    order = next(c for c in w.commands if c.name == "order")
    assert cli.main(run.cli_argv(order, out)) == 0
    dump = out / "order.txt"
    assert checks.check_order_dump(dump, w) == []
    dump.write_text(dump.read_text().replace(";", " ", 1))
    assert checks.check_order_dump(dump, w) != []


def test_determinism_check_flags_changed_bytes(tmp_path):
    (tmp_path / "a.tsv").write_text("x\n")
    first = checks.digests(tmp_path)
    (tmp_path / "a.tsv").write_text("y\n")
    assert checks.compare_digests(first, checks.digests(tmp_path)) == ["a.tsv differs between repetitions"]


def test_traced_smoke_run_reports_every_module_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS", tmp_path / "spans")
    w = workloads.generate("shallow-many", 2, tmp_path / "in", smoke=True)
    ledger = run.Ledger()
    m, per_name, shares, wall, setup_s, claims = run.traced_run(
        w, tmp_path, time.perf_counter() + 120, ledger
    )
    assert ledger.messages == []
    assert set(run.PER_LAYER) <= set(m)
    assert m["measures.cells"] == 5 * 10 * 10
    assert m["order.schemas_checked"] == 1
    assert m["trace.overhead_s"] > 0
    assert {"cli.evaluate", "cli.analyze", "cli.order", "verify"} <= set(per_name)
    assert "evaluate_s" in shares and claims
    spans = json.loads((tmp_path / "spans" / "shallow-many-seed2.json").read_text())
    assert {"name", "start", "end", "parent", "workload"} <= set(spans[0])


def test_timed_smoke_run_uses_child_processes(tmp_path):
    w = workloads.generate("deep-pools", 4, tmp_path / "in", smoke=True)
    ledger = run.Ledger()
    metrics, samples, hashes = run.timed_run(w, tmp_path, 0.0, time.perf_counter() + 150, ledger)
    assert ledger.messages == []
    assert set(metrics) == set(run.END_TO_END)
    assert len(samples["evaluate_s"]) == run.MIN_PASSES
    assert "scores/scores_MM-ndcg.tsv" in hashes


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "deep-pools", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
