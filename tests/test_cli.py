"""End-to-end command-line tests: every subcommand against real files in a
temp directory, exit codes, config-file precedence, and byte-identical
reruns."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import aspecteval
from aspecteval import ScoreMatrix
from aspecteval.cli import main
from aspecteval.reports import parse_scores, render_scores
from conftest import REFERENCE_SCHEMA

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
    to use it, so they cost no command its start-up time."""
    env = dict(os.environ, PYTHONPATH=str(Path(aspecteval.__file__).resolve().parents[1]))
    code = (
        "import aspecteval.cli, sys; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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


def test_evaluate_rejects_bad_depth(env, capsys):
    assert evaluate(env, "--depth", "0") == 2
    assert "depth" in capsys.readouterr().err


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
        path.write_text(render_scores(ScoreMatrix.build(label, cells), {"config": "x"}))
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
        path.write_text(render_scores(ScoreMatrix.build(label, cells), {"config": "x"}))
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
# score-table round trip


def test_score_table_round_trip():
    matrix = ScoreMatrix.build(
        "X-ndcg",
        {("a", "1"): 0.12345, ("a", "2"): 1.0, ("b", "1"): 0.0, ("b", "2"): 0.5},
    )
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
    with pytest.raises(ParseError, match="missing cell"):
        parse_scores("a\t1\tX\t0.5\nb\t2\tX\t0.6\n")
