"""End-to-end command-line tests: every subcommand against real files in a
temp directory, exit codes, config-file precedence, and byte-identical
reruns."""

import argparse
import codecs
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aspecteval
from aspecteval import ScoreMatrix
from aspecteval.cli import KNOWN_KEYS, build_parser, main
from aspecteval.reports import parse_scores, render_dp, render_scores
from conftest import REFERENCE_SCHEMA, score_matrix

QRELS = """\
# aspects: relevance correctness
1 0 d1 mr c
1 0 d2 hr pc
1 0 d3 hr nc
1 0 dz nr nc
2 0 d1 mr c
2 0 d2 hr pc
2 0 d3 hr nc
"""

CONFIG = """\
[order]
metric = chebyshev

[mm]
variant = table

[gains.relevance]
nr = 0
mr = 5
fr = 10
hr = 15

[gains.correctness]
nc = 0
pc = 5
c = 10

[relevant.relevance]
labels = fr hr

[relevant.correctness]
labels = c
"""


def run_text(tag, per_topic):
    lines = []
    for topic, docs in per_topic.items():
        for i, doc in enumerate(docs):
            lines.append(f"{topic} Q0 {doc} {i + 1} {float(len(docs) - i)} {tag}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def env(tmp_path):
    (tmp_path / "schema.txt").write_text(REFERENCE_SCHEMA)
    (tmp_path / "qrels.txt").write_text(QRELS)
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "runA.run").write_text(
        run_text("runA", {"1": ["d2", "d1", "d3"], "2": ["d3", "d2", "d1"]})
    )
    (runs / "runB.run").write_text(
        run_text("runB", {"1": ["d1", "d2", "d3"], "2": ["d1", "d3", "d2"]})
    )
    return tmp_path


def evaluate(env, *extra):
    return main(
        [
            "evaluate",
            "--schema", str(env / "schema.txt"),
            "--qrels", str(env / "qrels.txt"),
            "--runs", str(env / "runs"),
            "--out", str(env / "out"),
            *extra,
        ]
    )


# ---------------------------------------------------------------------------
# order


def test_cli_import_does_not_load_scipy():
    """numpy is the only runtime dependency; scipy serves the test oracles."""
    env = dict(os.environ, PYTHONPATH=str(Path(aspecteval.__file__).resolve().parents[1]))
    code = "import aspecteval.cli, sys; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_the_process_pool():
    """The fork pool's modules load only when a bootstrap is large enough
    to use it, and difflib only for an unknown config name's hint, so they
    cost no command its start-up time."""
    env = dict(os.environ, PYTHONPATH=str(Path(aspecteval.__file__).resolve().parents[1]))
    code = (
        "import aspecteval.cli, sys; "
        "print(sorted({'multiprocessing', 'concurrent.futures', 'difflib'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Every subcommand's flags, each with its choices and argument count, and
# every config key.  A new option is a new knob: it changes these on purpose.
METRICS = ("euclidean", "manhattan", "chebyshev")
CLI_SURFACE = {
    "order": {
        "--config": (None, None),
        "--schema": (None, None),
        "--out": (None, None),
        "--metric": (METRICS, None),
    },
    "evaluate": {
        "--config": (None, None),
        "--schema": (None, None),
        "--out": (None, None),
        "--qrels": (None, "+"),
        "--runs": (None, "+"),
        "--metric": (METRICS + ("all",), None),
        "--weights": (("distinct", "binary"), None),
        "--measure": (("ndcg", "ap", "both"), None),
        "--depth": (None, None),
        "--mm-variant": (("canonical", "table"), None),
        "--honor-rank": (None, 0),
    },
    "analyze": {
        "--config": (None, None),
        "--schema": (None, None),
        "--out": (None, None),
        "--scores": (None, "+"),
        "--qrels": (None, "+"),
        "--runs": (None, "+"),
        "--seed": (None, None),
        "--bootstrap": (None, None),
        "--alpha": (None, None),
        "--k": (None, None),
        "--bands": (None, None),
        "--best-by": (None, None),
        "--honor-rank": (None, 0),
    },
    "discretize": {
        "--config": (None, None),
        "--out": (None, None),
        "--signals": (None, None),
        "--mode": (("quantile", "threshold"), None),
        "--fractions": (None, None),
        "--cuts": (None, None),
    },
}
CONFIG_KEYS = {
    ("files", "schema"), ("files", "qrels"), ("files", "runs"), ("files", "scores"),
    ("files", "signals"),
    ("order", "metric"), ("order", "weights"),
    ("measure", "kind"), ("measure", "depth"),
    ("mm", "variant"),
    ("analysis", "seed"), ("analysis", "bootstrap"), ("analysis", "alpha"), ("analysis", "k"),
    ("analysis", "bands"), ("analysis", "best_by"),
    ("output", "dir"),
    ("discretize", "mode"), ("discretize", "fractions"), ("discretize", "cuts"),
}


def test_cli_surface_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {
            flag: (tuple(a.choices) if a.choices else None, a.nargs)
            for a in parser._actions
            for flag in a.option_strings
            if flag != "--help" and flag.startswith("--")
        }
        for name, parser in sub.choices.items()
    }
    assert surface == CLI_SURFACE
    assert {tuple(key.split(".")) for key in KNOWN_KEYS} == CONFIG_KEYS


def test_order_dump_to_stdout(env, capsys):
    assert main(["order", "--schema", str(env / "schema.txt"), "--metric", "chebyshev"]) == 0
    out = capsys.readouterr().out
    assert "# metric: chebyshev" in out
    assert "# classes: 5" in out
    for line in (
        "class 0 dist 0 : hr,c",
        "class 1 dist 2 : fr,c",
        "class 2 dist 3 : hr,pc;fr,pc",
        "class 3 dist 4 : mr,c;mr,pc",
        "class 4 dist 6 : hr,nc;fr,nc;mr,nc;nr,nc",
    ):
        assert line in out


def test_order_defaults_to_euclidean_and_writes_files(env):
    target = env / "order.txt"
    assert main(["order", "--schema", str(env / "schema.txt"), "--out", str(target)]) == 0
    text = target.read_text()
    assert "# metric: euclidean" in text
    assert "# classes: 10" in text


def test_order_rejects_unknown_metric(env, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--schema", str(env / "schema.txt"), "--metric", "cosine"])
    assert exc.value.code == 2


def test_order_missing_schema_file_is_an_input_error(tmp_path, capsys):
    assert main(["order", "--schema", str(tmp_path / "nope.txt")]) == 2
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_writes_one_table_per_measure(env, capsys):
    assert evaluate(env) == 0
    names = sorted(p.name for p in (env / "out").iterdir())
    assert names == sorted(
        f"scores_{fam}-{kind}.tsv"
        for fam in ("EUCL", "MANH", "CHEB", "CAM", "MM")
        for kind in ("ndcg", "ap")
    )
    euclidean = (env / "out" / "scores_EUCL-ndcg.tsv").read_text()
    for line in (
        "runA\t1\tEUCL-ndcg\t1.0000",
        "runA\t2\tEUCL-ndcg\t0.8509",
        "runB\t1\tEUCL-ndcg\t0.9367",
        "runB\t2\tEUCL-ndcg\t0.8917",
    ):
        assert line in euclidean
    chebyshev_ap = (env / "out" / "scores_CHEB-ap.tsv").read_text()
    assert "runA\t1\tCHEB-ap\t1.0000" in chebyshev_ap
    assert "runB\t2\tCHEB-ap\t0.3333" in chebyshev_ap


def test_evaluate_config_file_drives_gains_and_metric(env):
    (env / "eval.ini").write_text(CONFIG)
    assert evaluate(env, "--config", str(env / "eval.ini")) == 0
    names = {p.name for p in (env / "out").iterdir()}
    assert names == {
        "scores_CHEB-ndcg.tsv", "scores_CHEB-ap.tsv",
        "scores_CAM-ndcg.tsv", "scores_CAM-ap.tsv",
        "scores_MM-ndcg.tsv", "scores_MM-ap.tsv",
    }
    assert "runB\t1\tCAM-ndcg\t0.9073" in (env / "out" / "scores_CAM-ndcg.tsv").read_text()
    assert "runB\t1\tCAM-ap\t0.7917" in (env / "out" / "scores_CAM-ap.tsv").read_text()
    assert "runA\t1\tMM-ap\t0.3125" in (env / "out" / "scores_MM-ap.tsv").read_text()
    assert "runB\t1\tMM-ndcg\t0.4489" in (env / "out" / "scores_MM-ndcg.tsv").read_text()


def test_evaluate_flag_overrides_config_metric(env):
    (env / "eval.ini").write_text(CONFIG)
    assert evaluate(env, "--config", str(env / "eval.ini"), "--metric", "euclidean") == 0
    names = {p.name for p in (env / "out").iterdir()}
    assert "scores_EUCL-ndcg.tsv" in names
    assert "scores_CHEB-ndcg.tsv" not in names


@pytest.mark.parametrize(
    "command,ini,message",
    [
        ("evaluate", "[order]\nweights = BINARY\n",
         "unknown nDCG weights 'BINARY' in config key 'order.weights'; did you mean 'binary'?"),
        ("evaluate", "[order]\nmetric = All\n",
         "unknown distance metric or all 'All' in config key 'order.metric'; did you mean 'all'?"),
        ("evaluate", "[measure]\nkind = NDCG\n",
         "unknown measure kind 'NDCG' in config key 'measure.kind'; did you mean 'ndcg'?"),
        ("evaluate", "[mm]\nvariant = tabel\n",
         "unknown harmonic-mean variant 'tabel' in config key 'mm.variant'; did you mean 'table'?"),
        ("order", "[order]\nmetric = Euclidean\n",
         "unknown distance metric 'Euclidean' in config key 'order.metric'; did you mean 'euclidean'?"),
        ("discretize", "[discretize]\nmode = Quantile\nfractions = 0.5 0.5\n",
         "unknown grading mode 'Quantile' in config key 'discretize.mode'; did you mean 'quantile'?"),
    ],
    ids=["weights", "metric-all", "kind", "mm-variant", "order-metric", "mode"],
)
def test_config_values_must_be_among_the_choices_as_flag_values_are(
    env, capsys, command, ini, message
):
    # a value matches a choice exactly, case and all: otherwise one setting
    # would write the same rows under two config hashes
    (env / "eval.ini").write_text(ini)
    (env / "signals.txt").write_text("d1 1\nd2 2\n")
    inputs = {
        "evaluate": ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
                     "--runs", str(env / "runs")],
        "order": ["--schema", str(env / "schema.txt")],
        "discretize": ["--signals", str(env / "signals.txt")],
    }[command]
    out = env / "out"
    assert main([command, "--config", str(env / "eval.ini"), *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_config_can_supply_all_paths(env):
    ini = env / "all.ini"
    ini.write_text(
        "[files]\n"
        f"schema = {env / 'schema.txt'}\n"
        f"qrels = {env / 'qrels.txt'}\n"
        f"runs = {env / 'runs'}\n"
        "[output]\n"
        f"dir = {env / 'out'}\n"
    )
    assert main(["evaluate", "--config", str(ini)]) == 0
    assert (env / "out" / "scores_EUCL-ndcg.tsv").is_file()


def test_evaluate_warns_on_empty_run_file(env, capsys):
    (env / "runs" / "drifter.run").write_text("# no entries here\n")
    assert evaluate(env) == 0
    assert "drifter" in capsys.readouterr().err
    scored = (env / "out" / "scores_EUCL-ndcg.tsv").read_text()
    assert "drifter\t1\tEUCL-ndcg\t0.0000" in scored


def test_evaluate_skips_dot_files_in_a_run_directory(env, capsys):
    assert evaluate(env, "--out", str(env / "plain")) == 0
    plain_err = capsys.readouterr().err
    (env / "runs" / ".gitkeep").write_text("")
    (env / "runs" / ".hidden.run").write_text(run_text("hidden", {"1": ["d1"]}))
    assert evaluate(env, "--out", str(env / "dotted")) == 0
    assert capsys.readouterr().err == plain_err == ""
    assert output_files(env / "dotted") == output_files(env / "plain")
    # a dot-file named on its own still loads
    assert main(["evaluate", "--schema", str(env / "schema.txt"),
                 "--qrels", str(env / "qrels.txt"), "--runs", str(env / "runs" / ".hidden.run"),
                 "--out", str(env / "named")]) == 0
    assert "hidden\t1\tEUCL-ndcg\t" in (env / "named" / "scores_EUCL-ndcg.tsv").read_text()


def test_evaluate_warns_on_coupling_corrections(env, capsys):
    (env / "qrels.txt").write_text(QRELS + "2 0 dz nr c\n")
    assert evaluate(env) == 0
    assert "coupling-rule violations" in capsys.readouterr().err


def test_evaluate_depth_flag(env):
    assert evaluate(env, "--metric", "euclidean", "--measure", "ndcg", "--depth", "1") == 0
    names = {p.name for p in (env / "out").iterdir()}
    assert names == {"scores_EUCL-ndcg.tsv", "scores_CAM-ndcg.tsv", "scores_MM-ndcg.tsv"}
    text = (env / "out" / "scores_EUCL-ndcg.tsv").read_text()
    assert "runA\t1\tEUCL-ndcg\t1.0000" in text
    assert "runB\t1\tEUCL-ndcg\t0.7143" in text  # weight 5 of an ideal 7 at rank 1


def test_evaluate_reads_depth_full_exactly(env, capsys):
    def rows(out):
        text = (out / "scores_EUCL-ndcg.tsv").read_text()
        return [line for line in text.splitlines() if not line.startswith("#")]

    assert evaluate(env, "--out", str(env / "default")) == 0
    assert evaluate(env, "--depth", "full", "--out", str(env / "full")) == 0
    assert rows(env / "full") == rows(env / "default")
    assert evaluate(env, "--depth", "FULL") == 2
    assert capsys.readouterr().err == "error: depth must be an integer, got 'FULL'\n"
    assert not (env / "out").exists()


def test_evaluate_rejects_bad_depth(env, capsys):
    assert evaluate(env, "--depth", "0") == 2
    assert "depth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ini,message",
    [
        ("[measure]\nkind = bogus\n", "unknown measure kind 'bogus'"),
        ("[mm]\nvariant = bogus\n", "unknown harmonic-mean variant 'bogus'"),
        ("[measure]\ndepth = 0\n", "depth must be at least 1"),
        ("[importance]\nrelevance = 2\ncorrectness = -1\n", "must lie in [0, 1]"),
        ("[gains.relevance]\nnr = 0\n", "no gain configured for label 'mr'"),
    ],
    ids=["kind", "mm-variant", "depth", "importance", "gains"],
)
def test_evaluate_rejects_bad_config_options_before_building_an_order(
    env, capsys, monkeypatch, ini, message
):
    def no_order(*args):
        raise AssertionError("an order was built before the options were checked")

    monkeypatch.setattr("aspecteval.measures.build_order", no_order)
    (env / "eval.ini").write_text(ini)
    assert evaluate(env, "--config", str(env / "eval.ini")) == 2
    assert message in capsys.readouterr().err
    assert not (env / "out").exists()


def test_evaluate_honor_rank_changes_tie_handling(env):
    # equal scores: doc order falls back to doc id unless the rank column rules
    (env / "runs" / "runA.run").write_text(
        "1 Q0 d1 1 1.0 runA\n1 Q0 d2 2 1.0 runA\n2 Q0 d1 1 1.0 runA\n"
    )
    (env / "runs" / "runB.run").write_text("1 Q0 d2 1 2.0 runB\n2 Q0 d1 1 1.0 runB\n")

    def rows():
        text = (env / "out" / "scores_EUCL-ndcg.tsv").read_text()
        return [line for line in text.splitlines() if not line.startswith("#")]

    assert evaluate(env, "--metric", "euclidean", "--measure", "ndcg") == 0
    by_score = rows()
    assert evaluate(env, "--metric", "euclidean", "--measure", "ndcg", "--honor-rank") == 0
    by_rank = rows()
    assert by_score == by_rank  # rank column happens to agree with doc-id order here
    (env / "runs" / "runA.run").write_text(
        "1 Q0 d1 2 1.0 runA\n1 Q0 d2 1 1.0 runA\n2 Q0 d1 1 1.0 runA\n"
    )
    assert evaluate(env, "--metric", "euclidean", "--measure", "ndcg", "--honor-rank") == 0
    assert rows() != by_rank


def test_evaluate_ignores_the_line_order_of_run_files(env, tmp_path_factory):
    # Ties between docs of different grades: the parse orders them by doc id
    # ascending; trec_eval-style files list them doc-id-descending.
    runs = {
        "runA": {"1": {"d3": 3, "d1": 2, "d2": 2, "dz": 1, "dx": 1, "dy": 0},
                 "2": {"d2": 2, "d3": 1, "d1": 1}},
        "runB": {"1": {"d2": 2, "d3": 2, "d1": 1, "dx": 0},
                 "2": {"d1": 1, "d3": 1, "d2": 1}},
    }
    copy = tmp_path_factory.mktemp("shuffled") / "inputs"
    shutil.copytree(env, copy)
    rng = random.Random(25)
    for tag, topics in runs.items():
        ties = {}  # (topic, score) -> lines, doc id ascending
        for topic, scores in topics.items():
            ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
            for rank, (doc, score) in enumerate(ranked, 1):
                line = f"{topic} Q0 {doc} {rank} {float(score)} {tag}"
                ties.setdefault((topic, score), []).append(line)
        groups = list(ties.values())
        (env / "runs" / f"{tag}.run").write_text("\n".join(line for group in groups for line in group) + "\n")
        rng.shuffle(groups)
        shuffled = [line for group in groups for line in reversed(group)]
        (copy / "runs" / f"{tag}.run").write_text("\n".join(shuffled) + "\n")
    assert evaluate(env) == 0
    assert evaluate(copy) == 0
    assert output_files(env / "out") == output_files(copy / "out")


# ---------------------------------------------------------------------------
# analyze


def analyze(env, out, *extra):
    return main(
        [
            "analyze",
            "--scores",
            str(env / "out" / "scores_EUCL-ndcg.tsv"),
            str(env / "out" / "scores_CHEB-ndcg.tsv"),
            "--seed", "42",
            "--bootstrap", "200",
            "--out", str(out),
            *extra,
        ]
    )


def full_analyze(env, out):
    return analyze(
        env,
        out,
        "--schema", str(env / "schema.txt"),
        "--qrels", str(env / "qrels.txt"),
        "--runs", str(env / "runs"),
        "--k", "3",
        "--bands", "1-2,3-5",
    )


def test_dp_on_score_runs_output_equals_analyze_on_the_printed_tables(env):
    runs = env / "runs"
    (runs / "runC.run").write_text(run_text("runC", {"1": ["d3", "d1", "d2"], "2": ["d2", "d1"]}))
    (runs / "runD.run").write_text(run_text("runD", {"1": ["dz", "d2"], "2": ["d1", "d2", "d3"]}))
    assert evaluate(env) == 0
    assert analyze(env, env / "reports") == 0
    schema = aspecteval.parse_schema(REFERENCE_SCHEMA)
    gt, _ = aspecteval.parse_qrels(QRELS, schema)
    run_files = [aspecteval.parse_run(p.read_text()) for p in sorted(runs.iterdir())]
    matrices = aspecteval.score_runs(run_files, gt, schema)
    def data_rows(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    names = ("EUCL-ndcg", "CHEB-ndcg")
    tables = [matrices[name] for name in names]
    texts = [(env / "out" / f"scores_{name}.tsv").read_text() for name in names]
    for table, text in zip(tables, texts):
        assert data_rows(render_scores(table)) == data_rows(text)
    printed = [parse_scores(text) for text in texts]
    assert any((t.values != p.values).any() for t, p in zip(tables, printed))
    reports = aspecteval.discriminative_powers(tables, 200, 0.01, 42)
    assert reports == aspecteval.discriminative_powers(printed, 200, 0.01, 42)
    for report in reports:
        written = (env / "reports" / f"dp_{report.measure}.tsv").read_text()
        assert data_rows(render_dp(report)) == data_rows(written)


def test_analyze_end_to_end(env):
    assert evaluate(env) == 0
    out = env / "reports"
    assert full_analyze(env, out) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "correlation_EUCL-ndcg_vs_CHEB-ndcg.tsv",
        "dp_CHEB-ndcg.tsv",
        "dp_EUCL-ndcg.tsv",
        "quality_bands.tsv",
        "zero_aspect.tsv",
    ]
    corr = (out / "correlation_EUCL-ndcg_vs_CHEB-ndcg.tsv").read_text()
    assert "# measures: EUCL-ndcg vs CHEB-ndcg" in corr
    assert "# equivalent: yes" in corr
    assert "mean\t1.0000" in corr
    dp = (out / "dp_EUCL-ndcg.tsv").read_text()
    assert "# seed: 42" in dp
    assert "# bootstrap_samples: 200" in dp
    assert dp.rstrip().splitlines()[-1].startswith("percentage\t")
    zero = (out / "zero_aspect.tsv").read_text()
    assert "# selected_by: EUCL-ndcg" in zero
    assert "1-3\t0\t0.00" in zero
    bands = (out / "quality_bands.tsv").read_text()
    assert "1-2\t3.2500" in bands
    assert "3-5\t3.5000" in bands


def test_analyze_is_byte_deterministic(env):
    assert evaluate(env) == 0
    first, second = env / "r1", env / "r2"
    assert full_analyze(env, first) == 0
    assert full_analyze(env, second) == 0
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes(), path.name


def test_analyze_requires_a_seed(env, capsys):
    assert evaluate(env) == 0
    code = main(
        [
            "analyze",
            "--scores", str(env / "out" / "scores_EUCL-ndcg.tsv"),
            str(env / "out" / "scores_CHEB-ndcg.tsv"),
            "--out", str(env / "reports"),
        ]
    )
    assert code == 2
    assert "seed is required" in capsys.readouterr().err


def test_analyze_rejects_misaligned_score_tables(env, capsys):
    assert evaluate(env) == 0
    stray = env / "other.tsv"
    stray.write_text(
        "x\t1\tOTHER\t0.5000\nx\t2\tOTHER\t0.6000\n"
        "y\t1\tOTHER\t0.1000\ny\t2\tOTHER\t0.2000\n"
    )
    code = main(
        [
            "analyze",
            "--scores", str(env / "out" / "scores_EUCL-ndcg.tsv"), str(stray),
            "--seed", "1",
            "--out", str(env / "reports"),
        ]
    )
    assert code == 2
    assert "different runs or topics" in capsys.readouterr().err


def test_analyze_checks_the_tables_before_the_audits_load_runs(env, capsys):
    assert evaluate(env) == 0
    stray = env / "other.tsv"
    stray.write_text("x\t1\tOTHER\t0.5000\ny\t1\tOTHER\t0.1000\n")
    code = main(
        [
            "analyze",
            "--scores", str(env / "out" / "scores_EUCL-ndcg.tsv"), str(stray),
            "--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
            "--runs", str(env / "no-such-runs"),
            "--seed", "1",
            "--out", str(env / "reports"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "matrices 'EUCL-ndcg' and 'OTHER' cover different runs or topics" in err
    assert "run path not found" not in err
    assert not (env / "reports").exists()


def test_analyze_tables_do_not_leak_into_each_other(tmp_path):
    """Three 16-run x 100-topic tables analyzed together write the same
    dp_<label>.tsv as three one-table calls: the tables share each pair's
    resamples, never the values gathered from them."""
    rng = random.Random(8)
    runs = [f"run{i:02d}" for i in range(16)]
    topics = [str(t) for t in range(1, 101)]
    paths = []
    for label in ("EUCL-ndcg", "CAM-ap", "MM-ndcg"):
        cells = {}
        for run in runs:
            for topic in topics:
                # run00 is an empty run; run01 skips every tenth topic
                empty = run == "run00" or (run == "run01" and int(topic) % 10 == 0)
                cells[(run, topic)] = 0.0 if empty else round(rng.random(), 4)
        if label == "CAM-ap":  # zero spread in this table only
            cells.update({("run03", t): cells[("run02", t)] for t in topics})
        path = tmp_path / f"scores_{label}.tsv"
        path.write_text(render_scores(score_matrix(label, cells), {"config": "x"}))
        paths.append(str(path))

    def dp_files(out, scores):
        args = ["analyze", "--scores", *scores, "--seed", "1", "--bootstrap", "300"]
        assert main([*args, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.glob("dp_*.tsv")}

    together = dp_files(tmp_path / "together", paths)
    alone = {}
    for i, path in enumerate(paths):
        alone.update(dp_files(tmp_path / f"alone{i}", [path]))
    assert len(together) == 3
    assert together == alone


def test_analyze_checks_every_option_before_the_bootstrap(env, capsys, monkeypatch):
    assert evaluate(env) == 0

    def no_bootstrap(*args):
        raise AssertionError("the bootstrap ran before the options were checked")

    monkeypatch.setattr("aspecteval.cli.discriminative_powers", no_bootstrap)
    audit = ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
             "--runs", str(env / "runs")]
    bad = [
        (["--best-by", "NOPE"], "best-by measure 'NOPE'"),
        (["--bands", "1-2,x"], "bad band"),
        (["--bands", "3-5,1-2"], "disjoint and ascending"),
        (["--k", "0"], "k must be at least 1"),
        (["--k", "x"], "k must be an integer"),
    ]
    for i, (extra, message) in enumerate(bad):
        out = env / f"reports{i}"
        assert analyze(env, out, *audit, *extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # not even the directory


def dp_score_tables(tmp_path, runs=6, topics=30):
    """Paths of two score tables over ``runs`` runs; run r1 equals r0 in the
    first table (a zero-spread pair)."""
    rng = random.Random(31)
    tags = [f"r{i}" for i in range(runs)]
    paths = []
    for label in ("EUCL-ndcg", "MM-ap"):
        cells = {(r, str(t)): round(rng.random(), 4) for r in tags for t in range(topics)}
        if label == "EUCL-ndcg":
            cells.update({("r1", str(t)): cells[("r0", str(t))] for t in range(topics)})
        path = tmp_path / f"scores_{label}.tsv"
        path.write_text(render_scores(score_matrix(label, cells), {"config": "x"}))
        paths.append(str(path))
    return paths


def test_analyze_dp_files_do_not_depend_on_the_process_pool(tmp_path, monkeypatch):
    import aspecteval.analysis as analysis

    scores = dp_score_tables(tmp_path)
    args = ["analyze", "--scores", *scores, "--seed", "3", "--bootstrap", "500"]
    outputs = {}
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: 3)
    for name, threshold in (("pooled", 0), ("in-process", 1 << 62)):
        monkeypatch.setattr(analysis, "_POOL_MIN_DRAWS", threshold)
        assert main([*args, "--out", str(tmp_path / name)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).glob("dp_*.tsv")}
    assert sorted(outputs["pooled"]) == ["dp_EUCL-ndcg.tsv", "dp_MM-ap.tsv"]
    assert outputs["pooled"] == outputs["in-process"]


def test_analyze_audit_headers_hash_the_audit_settings(env):
    assert evaluate(env) == 0
    audit = ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
             "--runs", str(env / "runs")]
    texts = {}
    for k in ("3", "4"):
        assert analyze(env, env / f"k{k}", *audit, "--k", k) == 0
        texts[k] = {p.name: p.read_text() for p in (env / f"k{k}").iterdir()}

    def config(text):
        return next(line for line in text.splitlines() if line.startswith("# config:"))

    for name in ("zero_aspect.tsv", "quality_bands.tsv"):
        assert config(texts["3"][name]) != config(texts["4"][name]), name
    others = sorted(n for n in texts["3"] if n.startswith(("dp_", "correlation_")))
    assert others == [
        "correlation_EUCL-ndcg_vs_CHEB-ndcg.tsv", "dp_CHEB-ndcg.tsv", "dp_EUCL-ndcg.tsv"
    ]
    for name in others:
        assert texts["3"][name] == texts["4"][name], name


def test_honor_rank_reaches_the_config_hash(env):
    def configs(out):
        return {
            p.name: next(l for l in p.read_text().splitlines() if l.startswith("# config:"))
            for p in sorted(out.iterdir())
        }

    assert evaluate(env) == 0
    by_score = configs(env / "out")
    assert evaluate(env, "--honor-rank") == 0
    by_rank = configs(env / "out")
    assert sorted(by_score) == sorted(by_rank) and by_score
    for name in by_score:
        assert by_score[name] != by_rank[name], name
    audit = ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
             "--runs", str(env / "runs")]
    assert analyze(env, env / "by_score", *audit) == 0
    assert analyze(env, env / "by_rank", *audit, "--honor-rank") == 0
    by_score, by_rank = configs(env / "by_score"), configs(env / "by_rank")
    assert {"zero_aspect.tsv", "quality_bands.tsv"} < set(by_score) == set(by_rank)
    # only the audits read runs
    for name in by_score:
        audits = name in ("zero_aspect.tsv", "quality_bands.tsv")
        assert (by_score[name] != by_rank[name]) == audits, name


def test_analyze_honor_rank_changes_what_the_audits_see(env, capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    assert "--honor-rank" in capsys.readouterr().out
    # Every run lists dz (worthless) first by rank but last by score.
    for tag in ("runA", "runB"):
        (env / "runs" / f"{tag}.run").write_text(
            f"1 Q0 dz 1 1.0 {tag}\n1 Q0 d2 2 2.0 {tag}\n1 Q0 d1 3 3.0 {tag}\n"
            f"2 Q0 d3 1 1.0 {tag}\n2 Q0 d1 2 2.0 {tag}\n"
        )
    assert evaluate(env) == 0
    audit = ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
             "--runs", str(env / "runs"), "--k", "1"]
    assert analyze(env, env / "by_score", *audit) == 0
    assert analyze(env, env / "by_rank", *audit, "--honor-rank") == 0

    def rows(out):
        text = (env / out / "zero_aspect.tsv").read_text()
        return [line for line in text.splitlines() if not line.startswith("#")]

    assert rows("by_score") == ["1\t0\t0.00", "1-1\t0\t0.00"]
    assert rows("by_rank") == ["1\t1\t50.00", "1-1\t1\t50.00"]


def test_analyze_audits_reject_duplicate_run_tags(env, capsys):
    assert evaluate(env) == 0
    (env / "runs" / "runA-again.run").write_text(run_text("runA", {"1": ["d1"]}))
    out = env / "reports"
    audit = ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
             "--runs", str(env / "runs")]
    message = (
        f"error: duplicate run tag 'runA' in {env / 'runs' / 'runA-again.run'}"
        f" and {env / 'runs' / 'runA.run'}\n"
    )
    assert analyze(env, out, *audit) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    # evaluate rejects the same run set with the same message
    assert evaluate(env) == 2
    assert capsys.readouterr().err == message


def test_analyze_warns_like_evaluate(env, capsys):
    (env / "runs" / "drifter.run").write_text("# no entries here\n")
    (env / "qrels.txt").write_text(QRELS + "2 0 dz nr c\n")
    assert evaluate(env) == 0
    evaluate_err = capsys.readouterr().err
    audit = ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
             "--runs", str(env / "runs")]
    assert analyze(env, env / "reports", *audit) == 0
    analyze_err = capsys.readouterr().err
    assert "corrected 1 coupling-rule violations" in analyze_err
    assert "scoring run 'drifter' as 0" in analyze_err
    assert analyze_err == evaluate_err


def test_analyze_audit_inputs_come_as_a_trio(env, capsys):
    assert evaluate(env) == 0
    assert analyze(env, env / "reports", "--runs", str(env / "runs")) == 2
    assert "together" in capsys.readouterr().err
    # paths from the config count too: runs and qrels without a schema
    ini = env / "audit.ini"
    ini.write_text(f"[files]\nqrels = {env / 'qrels.txt'}\nruns = {env / 'runs'}\n")
    assert analyze(env, env / "reports", "--config", str(ini)) == 2
    assert "together" in capsys.readouterr().err
    ini.write_text(ini.read_text() + f"schema = {env / 'schema.txt'}\n")
    assert analyze(env, env / "reports", "--config", str(ini)) == 0
    assert (env / "reports" / "zero_aspect.tsv").is_file()


# ---------------------------------------------------------------------------
# config files: known keys only, case kept, paths outside the hash


@pytest.mark.parametrize(
    "ini,message",
    [
        ("[mesure]\nkind = ap\n", "unknown config section 'mesure'; did you mean 'measure'?"),
        ("[measure]\nknd = ap\n", "config key 'measure.knd'; did you mean 'measure.kind'?"),
        ("[measure]\nlog_base = 2\n", "unknown config key 'measure.log_base'"),
        ("[order]\nMetric = all\n", "key 'order.Metric'; did you mean 'order.metric'?"),
        ("[gain.relevance]\nnr = 0\n", "section 'gain.relevance'; did you mean 'gains.relevance'?"),
        ("[gains.relevence]\n", "'relevence' in [gains.relevence]; did you mean 'relevance'?"),
        (
            "[gains.relevance]\nnr = 0\nmr = 5\nfr = 10\nhrr = 15\n",
            "unknown label 'hrr' in [gains.relevance]; did you mean 'hr'?",
        ),
        (
            "[relevant.relevance]\nlables = fr\n",
            "key 'relevant.relevance.lables'; did you mean 'relevant.relevance.labels'?",
        ),
        ("[importance]\nrelevence = 1\n", "aspect 'relevence' in [importance]; did you"),
        ("[merge.correctness]\nbad = cc\n", "label 'cc' in [merge.correctness]; did you mean"),
        (
            "[relevant.relevance]\nlabels = fr hrr\n",
            "unknown label 'hrr' in [relevant.relevance]; did you mean 'hr'?",
        ),
        ("[DEFAULT]\nkind = ap\n[measure]\n", "unknown config section 'DEFAULT'"),
    ],
    ids=[
        "section", "key", "log-base", "key-case", "prefix", "aspect", "label", "labels-key", "importance",
        "merge", "relevant-label", "default",
    ],
)
def test_unknown_config_names_exit_2_with_a_hint(env, capsys, ini, message):
    (env / "eval.ini").write_text(ini)
    assert evaluate(env, "--config", str(env / "eval.ini")) == 2
    assert message in capsys.readouterr().err
    assert not (env / "out").exists()


@pytest.mark.parametrize("section", ["labels =\n", "labels = # none\n", ""], ids=["empty", "comment", "no-key"])
def test_relevant_labels_must_name_a_label(env, capsys, section):
    # with no relevant grade, every CAM-ap and MM-ap score would be 0
    ini = CONFIG.replace("[relevant.correctness]\nlabels = c\n", f"[relevant.correctness]\n{section}")
    assert ini != CONFIG
    (env / "eval.ini").write_text(ini)
    assert evaluate(env, "--config", str(env / "eval.ini")) == 2
    assert "[relevant.correctness] labels names no label of 'correctness'" in capsys.readouterr().err
    assert not (env / "out").exists()


@pytest.mark.parametrize(
    "ini,message",
    [
        ("metric = euclidean\n", "File contains no section headers."),
        ("[order]\nmetric = a\nmetric = b\n", "option 'metric' in section 'order' already exists"),
        # read as written, the value fails as a depth, not as an interpolation
        ("[measure]\ndepth = 5%\n", "depth must be an integer, got '5%'"),
    ],
    ids=["no-section", "duplicate-key", "bare-percent"],
)
def test_malformed_config_files_exit_2(env, capsys, ini, message):
    (env / "eval.ini").write_text(ini)
    assert evaluate(env, "--config", str(env / "eval.ini")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (env / "out").exists()


@pytest.mark.parametrize("gain", ["inf", "nan"])
def test_evaluate_rejects_a_non_finite_gain(env, capsys, gain):
    (env / "eval.ini").write_text(CONFIG.replace("hr = 15", f"hr = {gain}"))
    assert evaluate(env, "--config", str(env / "eval.ini")) == 2
    assert "non-finite gain for aspect 'relevance'" in capsys.readouterr().err
    assert not (env / "out").exists()


def test_evaluate_rejects_a_repeated_aspect_qrels_file(env, capsys):
    for name, text in (("rel_a", "1 0 d1 mr\n"), ("rel_b", "1 0 d1 hr\n"), ("cor", "1 0 d1 c\n")):
        (env / f"{name}.txt").write_text(text)
    pairs = [f"relevance={env / 'rel_a.txt'}", f"relevance={env / 'rel_b.txt'}",
             f"correctness={env / 'cor.txt'}"]
    code = main(["evaluate", "--schema", str(env / "schema.txt"), "--qrels", *pairs,
                 "--runs", str(env / "runs"), "--out", str(env / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: aspect 'relevance' is given more than one qrels file\n"
    assert captured.out == ""
    assert not (env / "out").exists()


NEVER_SETTLES = """\
aspect relevance
label nr 0
label hr 1
aspect correctness
label nc 0
label c 1
aspect credibility
label nb 0
label b 1
couple correctness nc relevance nr
couple credibility b relevance hr
"""


def test_rules_that_never_settle_fail_every_command_at_the_schema(env, capsys):
    # the qrels row nr,nc,b flips relevance back and forth; no command may
    # get as far as reading it
    (env / "loop.txt").write_text(NEVER_SETTLES)
    (env / "loop_qrels.txt").write_text(
        "# aspects: relevance correctness credibility\n1 0 d1 nr nc b\n"
    )
    assert evaluate(env) == 0
    inputs = ["--schema", str(env / "loop.txt"), "--qrels", str(env / "loop_qrels.txt"),
              "--runs", str(env / "runs")]
    commands = [
        ["order", "--schema", str(env / "loop.txt"), "--out", str(env / "order.txt")],
        ["evaluate", *inputs, "--out", str(env / "loop_out")],
    ]
    message = f"error: {env / 'loop.txt'}: coupling rules never settle from nr,nc,b\n"
    for argv in commands:
        assert main(argv) == 2
        assert capsys.readouterr().err == message
    assert analyze(env, env / "reports", *inputs) == 2
    assert capsys.readouterr().err == message
    assert not any((env / name).exists() for name in ("order.txt", "loop_out", "reports"))


def test_analyze_checks_the_config_against_the_audit_schema(env, capsys):
    assert evaluate(env) == 0
    (env / "audit.ini").write_text("[merge.relevence]\nbad = nr\n")
    audit = ["--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
             "--runs", str(env / "runs"), "--config", str(env / "audit.ini")]
    assert analyze(env, env / "reports", *audit) == 2
    assert "unknown aspect 'relevence' in [merge.relevence]" in capsys.readouterr().err
    assert not (env / "reports").exists()


def test_one_config_file_serves_every_command(env):
    (env / "all.ini").write_text(CONFIG + "[analysis]\nseed = 3\nbootstrap = 50\n"
                                 "[discretize]\nmode = threshold\ncuts = 1\n")
    assert evaluate(env, "--config", str(env / "all.ini")) == 0
    scores = [str(env / "out" / "scores_CHEB-ndcg.tsv"), str(env / "out" / "scores_CAM-ap.tsv")]
    args = ["--config", str(env / "all.ini"), "--out", str(env / "reports")]
    assert main(["analyze", "--scores", *scores, *args]) == 0


UPPER_SCHEMA = """\
aspect Rel
label NR 0
label MR 1
label HR 2
aspect Cor
label NC 0
label C 1
"""


def test_config_keys_keep_their_case(tmp_path):
    """Aspect and label names with capitals configure gains, importance,
    relevant labels and merge aliases."""
    (tmp_path / "schema.txt").write_text(UPPER_SCHEMA)
    (tmp_path / "qrels.txt").write_text("# aspects: Rel Cor\n1 0 d1 HR C\n1 0 d2 BAD C\n")
    (tmp_path / "run.txt").write_text("1 Q0 d2 1 2.0 r\n1 Q0 d1 2 1.0 r\n")
    (tmp_path / "eval.ini").write_text(
        "[gains.Rel]\nNR = 0\nMR = 1\nHR = 3\n"
        "[importance]\nRel = 0.25\nCor = 0.75\n"
        "[relevant.Rel]\nlabels = HR\n"
        "[merge.Rel]\nBAD = MR\n"
    )
    out = tmp_path / "out"
    assert main(["evaluate", "--schema", str(tmp_path / "schema.txt"),
                 "--qrels", str(tmp_path / "qrels.txt"), "--runs", str(tmp_path / "run.txt"),
                 "--config", str(tmp_path / "eval.ini"), "--out", str(out)]) == 0

    def score(label):
        rows = (out / f"scores_{label}.tsv").read_text().splitlines()
        return next(float(r.split("\t")[3]) for r in rows if r.startswith("r\t1\t"))

    # Rel: d2 is MR (gain 1) above d1 at HR (gain 3); Cor is ideal.
    rel_ndcg = (1 + 3 / math.log2(3)) / (3 + 1 / math.log2(3))
    assert score("CAM-ndcg") == pytest.approx(0.25 * rel_ndcg + 0.75, abs=5e-5)
    # AP with HR alone relevant for Rel: the one relevant doc sits at rank 2.
    assert score("CAM-ap") == pytest.approx(0.25 * 0.5 + 0.75, abs=5e-5)


def test_analyze_one_run_tables_exit_2(tmp_path, capsys):
    paths = []
    for label in ("EUCL-ndcg", "CHEB-ndcg"):
        cells = {("only", "1"): 0.5, ("only", "2"): 0.25}
        path = tmp_path / f"scores_{label}.tsv"
        path.write_text(render_scores(score_matrix(label, cells), {"config": "x"}))
        paths.append(str(path))
    out = tmp_path / "reports"
    assert main(["analyze", "--scores", *paths, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least two runs" in err
    assert not out.exists()


def output_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_paths_from_flags_and_config_hash_alike(env):
    assert evaluate(env, "--out", str(env / "by_flag")) == 0
    # a config value is read as written: "%" is no interpolation escape
    shutil.copytree(env / "runs", env / "runs%1")
    (env / "paths.ini").write_text(f"[files]\nruns = {env / 'runs%1'}\n")
    assert main(["evaluate", "--config", str(env / "paths.ini"),
                 "--schema", str(env / "schema.txt"), "--qrels", str(env / "qrels.txt"),
                 "--out", str(env / "by_config")]) == 0
    assert output_files(env / "by_flag") == output_files(env / "by_config")

    scores = [str(env / "by_flag" / "scores_EUCL-ndcg.tsv"),
              str(env / "by_flag" / "scores_CHEB-ndcg.tsv")]
    common = ["--seed", "4", "--bootstrap", "100"]
    assert main(["analyze", "--scores", *scores, *common, "--out", str(env / "r1")]) == 0
    (env / "scores.ini").write_text(f"[files]\nscores = {' '.join(scores)}\n")
    assert main(["analyze", "--config", str(env / "scores.ini"), *common,
                 "--out", str(env / "r2")]) == 0
    assert output_files(env / "r1") == output_files(env / "r2")


def test_outputs_do_not_depend_on_the_input_directory(env, tmp_path_factory):
    copy = tmp_path_factory.mktemp("elsewhere") / "inputs"
    shutil.copytree(env, copy)
    for root in (env, copy):
        assert evaluate(root) == 0
        assert full_analyze(root, root / "reports") == 0
        assert main(["order", "--schema", str(root / "schema.txt"),
                     "--out", str(root / "order.txt")]) == 0
    for sub in ("out", "reports"):
        assert output_files(env / sub) == output_files(copy / sub)
    assert (env / "order.txt").read_bytes() == (copy / "order.txt").read_bytes()


# ---------------------------------------------------------------------------
# discretize


def test_discretize_quantile_stdout(env, capsys):
    signals = env / "signals.txt"
    signals.write_text("".join(f"d{i:02d} {100 - i}\n" for i in range(20)))
    code = main(
        [
            "discretize",
            "--signals", str(signals),
            "--fractions", "0.05,0.10,0.85",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# mode: quantile" in out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    grades = dict(r.split("\t") for r in rows)
    assert grades["d00"] == "2"
    assert grades["d01"] == grades["d02"] == "1"
    assert all(grades[f"d{i:02d}"] == "0" for i in range(3, 20))


def test_discretize_takes_no_schema(env, capsys):
    signals = env / "signals.txt"
    signals.write_text("d1 1\nd2 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["discretize", "--signals", str(signals), "--fractions", "0.5,0.5",
              "--schema", str(env / "missing.txt")])
    assert exc.value.code == 2
    assert "--schema" in capsys.readouterr().err


def test_discretize_threshold_mode(env, capsys):
    signals = env / "signals.txt"
    signals.write_text("low 79\nmid 85\nedge 90\nhigh 95\n")
    code = main(
        [
            "discretize",
            "--signals", str(signals),
            "--mode", "threshold",
            "--cuts", "80,90",
            "--out", str(env / "grades.tsv"),
        ]
    )
    assert code == 0
    text = (env / "grades.tsv").read_text()
    assert "# mode: threshold" in text
    assert text.endswith("edge\t2\nhigh\t2\nlow\t0\nmid\t1\n")


@pytest.mark.parametrize(
    "signals,args,message",
    [
        ("a 0.9\nb nan\n", ["--fractions", "0.5,0.5"], "{signals}: line 2: non-finite score 'nan'"),
        ("a 0.9\n", ["--fractions", "nan"], "quantile fractions must be positive and finite"),
        ("a 0.9\n", ["--mode", "threshold", "--cuts", "nan"], "thresholds must be finite"),
    ],
    ids=["signal", "fractions", "cuts"],
)
def test_discretize_rejects_non_finite_numbers(env, capsys, signals, args, message):
    (env / "signals.txt").write_text(signals)
    assert main(["discretize", "--signals", str(env / "signals.txt"), *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(signals=env / 'signals.txt')}\n"
    assert captured.out == ""


def test_discretize_empty_signal_table_succeeds(env, capsys):
    signals = env / "signals.txt"
    signals.write_text("# header only\n")
    code = main(
        ["discretize", "--signals", str(signals), "--fractions", "0.5 0.5"]
    )
    assert code == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert rows == []


def test_discretize_rejects_bad_fractions(env, capsys):
    signals = env / "signals.txt"
    signals.write_text("a 1\n")
    code = main(
        ["discretize", "--signals", str(signals), "--fractions", "0.5,0.4"]
    )
    assert code == 2
    assert "sum" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# text inputs and outputs


@pytest.fixture
def text_inputs(env):
    """Per input kind: a file of that kind and, given an output directory,
    the command line of a subcommand that reads it."""
    assert evaluate(env) == 0
    rows = [line.split() for line in QRELS.splitlines()[1:]]
    for i, aspect in enumerate(("relevance", "correctness")):
        lines = (f"{topic} 0 {doc} {grades[i]}\n" for topic, _, doc, *grades in rows)
        (env / f"{aspect}.txt").write_text("".join(lines))
    (env / "signals.txt").write_text("d1 0.9\nd2 0.5\nd3 0.1\n")
    (env / "eval.ini").write_text(CONFIG)
    schema, runs = str(env / "schema.txt"), env / "runs"
    tables = [str(env / "out" / f"scores_{label}.tsv") for label in ("EUCL-ndcg", "CHEB-ndcg")]

    def scored(*args):
        return lambda out: [
            "evaluate", "--schema", schema, "--qrels", str(env / "qrels.txt"),
            "--runs", str(runs), *args, "--out", str(out),
        ]

    return {
        "schema": (env / "schema.txt",
                   lambda out: ["order", "--schema", schema, "--out", str(out / "order.txt")]),
        "qrels": (env / "qrels.txt", scored()),
        "aspect-qrels": (env / "relevance.txt", scored(
            "--qrels", f"relevance={env / 'relevance.txt'}", f"correctness={env / 'correctness.txt'}"
        )),
        "run-file": (runs / "runA.run",
                     scored("--runs", str(runs / "runA.run"), str(runs / "runB.run"))),
        "run-dir": (runs / "runB.run", scored()),
        "scores": (Path(tables[0]), lambda out: [
            "analyze", "--scores", *tables, "--seed", "1", "--bootstrap", "100", "--out", str(out)
        ]),
        "signals": (env / "signals.txt", lambda out: [
            "discretize", "--signals", str(env / "signals.txt"), "--fractions", "0.5,0.5",
            "--out", str(out / "grades.txt"),
        ]),
        "config": (env / "eval.ini", scored("--config", str(env / "eval.ini"))),
    }


@pytest.mark.parametrize(
    "kind",
    ["schema", "qrels", "aspect-qrels", "run-file", "run-dir", "scores", "signals", "config"],
)
def test_every_input_is_utf8_with_an_optional_bom(text_inputs, env, capsys, kind):
    path, command = text_inputs[kind]
    data = path.read_bytes()
    assert main(command(env / "plain")) == 0
    path.write_bytes(codecs.BOM_UTF8 + data)
    assert main(command(env / "bom")) == 0
    assert output_files(env / "bom") == output_files(env / "plain")

    path.write_bytes(data + b"# caf\xe9\n")  # Latin-1, not UTF-8
    capsys.readouterr()
    assert main(command(env / "bad")) == 2
    what = "config file" if kind == "config" else "input file"
    where = f"invalid continuation byte at byte {len(data) + 5}"
    assert capsys.readouterr().err == f"error: {what} {path} is not UTF-8 ({where})\n"
    assert not (env / "bad").exists()


def test_commands_never_fall_back_on_the_locale_encoding(text_inputs, env):
    """Every subcommand reads and writes its files with an explicit
    encoding, so none warns under ``-X warn_default_encoding``."""
    kinds = ("schema", "config", "scores", "signals")
    commands = [text_inputs[kind][1](env / "quiet" / kind) for kind in kinds]
    assert [argv[0] for argv in commands] == ["order", "evaluate", "analyze", "discretize"]
    code = f"import sys; from aspecteval.cli import main; sys.exit(any(map(main, {commands})))"
    src = str(Path(aspecteval.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, encoding="utf-8",
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert sorted(p.name for p in (env / "quiet").iterdir()) == sorted(kinds)


@pytest.mark.parametrize(
    "kind, line, message",
    [
        ("schema", "lable x 4", "line {n}: unknown directive 'lable'"),
        ("qrels", "2 0 d9 zz c", "line {n}: label 'zz' is not defined for aspect 'relevance'"),
        ("aspect-qrels", "2 0 d9 hr c", "line {n}: expected 4 fields in 'relevance' qrels, got 5"),
        ("run-dir", "2 Q0 d9 4 x runB", "line {n}: non-numeric score 'x'"),
        ("scores", "runZ\t1\tEUCL-ndcg\tzz", "line {n}: non-numeric score 'zz'"),
        ("signals", "d9 0.2 0.3", "line {n}: expected 2 fields, got 3"),
        ("config", "[mesure]", "unknown config section 'mesure'; did you mean 'measure'?"),
    ],
)
def test_every_input_error_names_its_file(text_inputs, env, capsys, kind, line, message):
    """At many runs and tables a bare line number does not find the file."""
    path, command = text_inputs[kind]
    n = path.read_text().count("\n") + 1
    with path.open("a") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert main(command(env / "bad")) == 2
    assert capsys.readouterr().err == f"error: {path}: {message.format(n=n)}\n"
    assert not (env / "bad").exists()


@pytest.mark.parametrize("token", ["--1", "\u00b2"])
def test_a_grade_that_is_neither_index_nor_label_exits_2(env, capsys, token):
    (env / "qrels.txt").write_text(QRELS.replace("1 0 d2 hr pc", f"1 0 d2 {token} pc"))
    assert evaluate(env) == 2
    err = capsys.readouterr().err
    message = f"line 3: label {token!r} is not defined for aspect 'relevance'"
    assert err == f"error: {env / 'qrels.txt'}: {message}\n"
    assert not (env / "out").exists()


def test_evaluate_rejects_a_judged_topic_named_all(env, capsys):
    """Score tables give each run's mean in a row for topic ``all``."""
    (env / "qrels.txt").write_text(QRELS.replace("2 0 d1 mr c", "all 0 d1 mr c"))
    assert evaluate(env) == 2
    assert "topic id 'all' is reserved" in capsys.readouterr().err
    assert not (env / "out").exists()


# ---------------------------------------------------------------------------
# score-table round trip


def test_score_table_round_trip():
    matrix = ScoreMatrix("X-ndcg", ("a", "b"), ("1", "2"), [[0.12345, 1.0], [0.0, 0.5]])
    text = render_scores(matrix, {"config": "abc"})
    back = parse_scores(text)
    assert back.measure == "X-ndcg"
    assert back.run_tags == matrix.run_tags
    assert back.topic_ids == matrix.topic_ids
    for run in matrix.run_tags:
        for topic in matrix.topic_ids:
            assert back.score(run, topic) == pytest.approx(
                matrix.score(run, topic), abs=5e-5
            )


def test_parse_scores_rejects_malformed_tables():
    from aspecteval import ParseError

    with pytest.raises(ParseError, match="no data rows"):
        parse_scores("# only comments\n")
    with pytest.raises(ParseError, match="mixed measure labels"):
        parse_scores("a\t1\tX\t0.5\na\t2\tY\t0.5\n")
    with pytest.raises(ParseError, match="duplicate cell"):
        parse_scores("a\t1\tX\t0.5\na\t1\tX\t0.6\n")
    with pytest.raises(ParseError, match=r"^matrix 'X' is missing cell \(a, 2\)$"):
        parse_scores("a\t1\tX\t0.5\nb\t2\tX\t0.6\n")
    with pytest.raises(ParseError, match=r"^matrix 'X' is missing cell \(b, 1\)$"):
        parse_scores("a\t1\tX\t0.5\na\t2\tX\t0.5\nb\t2\tX\t0.6\nb\tall\tX\t0.6\n")
    # a judged topic named 'all' next to the mean row
    with pytest.raises(ParseError, match=r"^line 4: duplicate cell \(a, all\)$"):
        parse_scores("a\t1\tX\t0.5\na\tall\tX\t1.0\nb\t1\tX\t0.5\na\tall\tX\t0.75\n")


def test_parse_scores_checks_the_all_rows_like_every_row():
    from aspecteval import ParseError

    rows = "a\t1\tX\t0.5\na\tall\tX\t0.5\nb\t1\tX\t0.2\n"
    assert parse_scores(rows + "b\tall\tX\t0.2\n").run_tags == ("a", "b")
    with pytest.raises(ParseError, match=r"^line 4: mixed measure labels 'X' and 'Y'$"):
        parse_scores(rows + "b\tall\tY\t0.2\n")
    with pytest.raises(ParseError, match=r"^line 4: mixed measure labels 'X' and 'Y'$"):
        parse_scores(rows + "b\tall\tY\tbanana\n")
    with pytest.raises(ParseError, match=r"^line 4: non-numeric score 'banana'$"):
        parse_scores(rows + "b\tall\tX\tbanana\n")
    # a run whose one row is its mean has no topic scores; it is not dropped
    with pytest.raises(ParseError, match=r"^run 'c' has only an 'all' row$"):
        parse_scores(rows + "c\tall\tX\t0.9\n")


@pytest.mark.parametrize("score", ["nan", "1.5", "-0.0001"])
def test_parse_scores_names_the_line_of_a_topic_score_out_of_range(score):
    from aspecteval import ParseError

    text = f"a\t1\tX\t0.5\na\t2\tX\t{score}\nb\t1\tX\t0.5\nb\t2\tX\t0.5\n"
    with pytest.raises(ParseError, match=rf"^line 2: score out of range for \(a, 2\): {re.escape(score)}$"):
        parse_scores(text)
    # within ScoreMatrix's slack a score still parses, clamped into [0, 1]
    for edge, clamped in (("1.0000000005", 1.0), ("-0.0000000005", 0.0)):
        assert parse_scores(text.replace(score, edge)).score("a", "2") == clamped


@pytest.mark.parametrize("score", ["0.9", "nan", "7", "inf", "0.2002"])
def test_parse_scores_rejects_an_all_row_that_is_not_the_mean(score):
    from aspecteval import ParseError

    # the 'all' row of run a is the table's second line, after run b's rows
    text = f"b\t1\tX\t0.5\na\tall\tX\t{score}\nb\tall\tX\t0.5\na\t1\tX\t0.2\n"
    with pytest.raises(ParseError, match=r"^line 2: 'all' score .* of run 'a' is not its mean 0\.2000$"):
        parse_scores(text)
    assert parse_scores(text.replace(score, "0.2001")).score("a", "1") == 0.2


def test_parse_scores_reads_back_tables_rendered_from_unrounded_scores():
    rng = random.Random(4)
    cells = {(f"r{r}", f"{t}"): rng.random() for r in range(40) for t in range(37)}
    # topic scores that round away from their mean in both directions
    cells.update({("near", "0"): 0.12344999, ("near", "1"): 0.12345001})
    cells.update({("near", f"{t}"): 0.5 for t in range(2, 37)})
    matrix = score_matrix("X", cells)
    back = parse_scores(render_scores(matrix))
    assert back.run_tags == matrix.run_tags and back.topic_ids == matrix.topic_ids


def test_analyze_exits_2_on_an_all_row_that_is_not_the_mean(env, capsys):
    assert evaluate(env) == 0
    table = env / "out" / "scores_EUCL-ndcg.tsv"
    lines = table.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.split("\t")[1:2] == ["all"])
    run, topic, label, _ = lines[at].split("\t")
    lines[at] = f"{run}\t{topic}\t{label}\tnan\n"
    edited = env / "edited.tsv"
    edited.write_text("".join(lines))
    out = env / "reports"
    code = main(["analyze", "--scores", str(edited), "--seed", "1", "--out", str(out)])
    assert code == 2
    assert f"line {at + 1}: 'all' score nan of run '{run}' is not its mean" in capsys.readouterr().err
    assert not out.exists()
