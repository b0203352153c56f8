"""Command-line front end.

Subcommands: ``order`` (dump a distance order), ``evaluate`` (score runs
against multi-aspect qrels), ``analyze`` (meta-evaluation reports over score
tables), ``discretize`` (turn a raw signal table into a grade column).

Options come from flags, which override keys in an INI-style config file
(``--config``), which override built-in defaults.  All outputs are
deterministic: rerunning a command with the same inputs, config, and seed
writes byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from pathlib import Path

from .analysis import (
    discriminative_powers,
    measure_correlation,
    quality_bands,
    select_best_runs,
    zero_aspect_at_k,
)
from .errors import ConfigError, EvalError
from .ingest import (
    RunFile,
    discretize_quantile,
    discretize_threshold,
    join_aspect_qrels,
    parse_qrels,
    parse_run,
    parse_signals,
)
from .measures import AP, CANONICAL, NDCG, TABLE, score_runs
from .order import Metric, build_order, format_order_dump
from .reports import (
    parse_scores,
    render_correlation,
    render_dp,
    render_grades,
    render_order_dump,
    render_quality_bands,
    render_scores,
    render_zero_aspect,
)
from .schema import build_tuple_space, parse_schema

DEFAULT_BANDS = "1-25,26-50,51-75,76-100"


class Settings:
    """Option resolution (flag, then config file, then default) with a hash
    of everything actually used, recorded in output headers."""

    def __init__(self, config_path: str | None):
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        self.used: dict[str, str] = {}
        if config_path:
            if not Path(config_path).is_file():
                raise ConfigError(f"config file not found: {config_path}")
            self.parser.read(config_path)

    def get(self, section: str, key: str, override=None, default=None, record=True):
        if override is not None:
            value = override
        elif self.parser.has_option(section, key):
            value = self.parser.get(section, key)
        else:
            value = default
        if record and value is not None:
            self.used[f"{section}.{key}"] = str(value)
        return value

    def section(self, name: str) -> dict[str, str]:
        if not self.parser.has_section(name):
            return {}
        items = dict(self.parser.items(name))
        for k, v in items.items():
            self.used[f"{name}.{k}"] = v
        return items

    def flag(self, name: str, given: bool) -> bool:
        """A switch with no config key, recorded only when given, so outputs
        made without it keep their hash."""
        if given:
            self.used[name] = "true"
        return given

    def hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.used.items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"{what} is required (flag or config key)")
    return value


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"input file not found: {path}")
    return p.read_text()


def _parse_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _parse_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _parse_depth(value) -> int | None:
    if value is None or str(value).lower() == "full":
        return None
    depth = _parse_int(value, "depth")
    if depth < 1:
        raise ConfigError("depth must be at least 1")
    return depth


def _parse_number_list(value: str, what: str) -> list[float]:
    try:
        return [float(x) for x in str(value).replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{what} must be a comma-separated number list") from None


def _parse_bands(value: str) -> list[tuple[int, int]]:
    bands = []
    for part in str(value).replace(",", " ").split():
        lo, sep, hi = part.partition("-")
        if not sep:
            raise ConfigError(f"bad band {part!r}, expected lo-hi")
        bands.append((_parse_int(lo, "band start"), _parse_int(hi, "band end")))
    if not bands:
        raise ConfigError("no rank bands given")
    return bands


def _aspect_sections(st: Settings, schema, prefix: str) -> dict[str, dict[str, str]]:
    """The non-empty ``[<prefix>.<aspect>]`` sections, by aspect in schema order."""
    sections = {}
    for aspect in schema.names:
        table = st.section(f"{prefix}.{aspect}")
        if table:
            sections[aspect] = table
    return sections


def _aspect_gains(st: Settings, schema):
    gains = {
        aspect: {
            label: _parse_float(v, f"gain for {aspect}/{label}")
            for label, v in table.items()
        }
        for aspect, table in _aspect_sections(st, schema, "gains").items()
    }
    return gains or None


def _aspect_relevant(st: Settings, schema):
    relevant = {
        aspect: table["labels"].split()
        for aspect, table in _aspect_sections(st, schema, "relevant").items()
        if "labels" in table
    }
    return relevant or None


def _importance(st: Settings, schema):
    table = st.section("importance")
    if not table:
        return None
    return {
        name: _parse_float(v, f"importance of {name}") for name, v in table.items()
    }


def _load_ground_truth(st: Settings, qrels_args, schema):
    qrels = qrels_args or str(
        _require(st.get("files", "qrels"), "qrels path")
    ).split()
    merge = _aspect_sections(st, schema, "merge") or None
    if any("=" in q for q in qrels):
        per_aspect = {}
        for q in qrels:
            aspect, sep, path = q.partition("=")
            if not sep:
                raise ConfigError(
                    "mixing plain and aspect=path qrels arguments is not supported"
                )
            per_aspect[aspect] = _read(path)
        return join_aspect_qrels(per_aspect, schema, merge)
    if len(qrels) != 1:
        raise ConfigError("expected one multi-aspect qrels file or aspect=path pairs")
    return parse_qrels(_read(qrels[0]), schema, merge)


def _load_runs(paths: list[str], honor_rank: bool) -> tuple[list[RunFile], list[str]]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(f for f in p.iterdir() if f.is_file()))
        elif p.is_file():
            files.append(p)
        else:
            raise ConfigError(f"run path not found: {raw}")
    runs, warnings = [], []
    for f in files:
        text = f.read_text()
        if any(l.strip() and not l.lstrip().startswith("#") for l in text.splitlines()):
            runs.append(parse_run(text, honor_rank=honor_rank))
        else:
            warnings.append(f"run file {f} is empty; scoring run {f.stem!r} as 0")
            runs.append(RunFile(f.stem, {}, {}))
    if not runs:
        raise ConfigError("no run files given")
    return runs, warnings


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def cmd_order(args) -> int:
    st = Settings(args.config)
    schema = parse_schema(_read(_require(st.get("files", "schema", args.schema), "schema path")))
    metric = Metric.parse(st.get("order", "metric", args.metric, "euclidean"))
    order = build_order(build_tuple_space(schema), schema, metric)
    meta = {"config": st.hash(), "metric": metric.value, "classes": order.n_classes}
    _write_out(render_order_dump(format_order_dump(order), meta), args.out)
    return 0


def cmd_evaluate(args) -> int:
    st = Settings(args.config)
    schema = parse_schema(_read(_require(st.get("files", "schema", args.schema), "schema path")))
    gt, corrections = _load_ground_truth(st, args.qrels, schema)
    if corrections:
        print(
            f"warning: corrected {corrections} coupling-rule violations in the qrels",
            file=sys.stderr,
        )
    run_paths = args.runs or str(_require(st.get("files", "runs"), "runs path")).split()
    runs, warnings = _load_runs(run_paths, st.flag("--honor-rank", args.honor_rank))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    metric_name = st.get("order", "metric", args.metric, "all")
    metrics = tuple(Metric) if metric_name == "all" else (Metric.parse(metric_name),)
    kind = st.get("measure", "kind", args.measure, "both")
    if kind not in (NDCG, AP, "both"):
        raise ConfigError(f"unknown measure kind {kind!r}")
    kinds = (NDCG, AP) if kind == "both" else (kind,)
    weight_policy = st.get("order", "weights", args.weights, "distinct")
    depth = _parse_depth(st.get("measure", "depth", args.depth))
    log_base = _parse_float(st.get("measure", "log_base", None, "2"), "log base")
    mm_variant = st.get("mm", "variant", args.mm_variant, CANONICAL)
    if mm_variant not in (CANONICAL, TABLE):
        raise ConfigError(f"unknown harmonic-mean variant {mm_variant!r}")

    matrices = score_runs(
        runs,
        gt,
        schema,
        kinds=kinds,
        metrics=metrics,
        weight_policy=weight_policy,
        importance=_importance(st, schema),
        mm_variant=mm_variant,
        depth=depth,
        log_base=log_base,
        aspect_gains=_aspect_gains(st, schema),
        aspect_relevant=_aspect_relevant(st, schema),
    )
    out_dir = Path(st.get("output", "dir", args.out, ".", record=False))
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"config": st.hash()}
    for label in sorted(matrices):
        (out_dir / f"scores_{label}.tsv").write_text(render_scores(matrices[label], meta))
    return 0


def cmd_analyze(args) -> int:
    st = Settings(args.config)
    score_paths = args.scores or str(
        _require(st.get("files", "scores"), "scores path")
    ).split()
    matrices = [parse_scores(_read(p)) for p in score_paths]
    labels = [m.measure for m in matrices]
    if len(set(labels)) != len(labels):
        raise ConfigError("score tables must carry distinct measure labels")

    # The audit inputs are not recorded: the config hash never covered them.
    audit_inputs = (
        st.get("files", "schema", args.schema, record=False),
        args.qrels or str(st.get("files", "qrels", record=False) or "").split(),
        args.runs or str(st.get("files", "runs", record=False) or "").split(),
    )
    if any(audit_inputs) and not all(audit_inputs):
        raise ConfigError("ranking audits need --runs, --qrels, and --schema together")

    seed = _parse_int(_require(st.get("analysis", "seed", args.seed), "seed"), "seed")
    b_samples = _parse_int(st.get("analysis", "bootstrap", args.bootstrap, "10000"), "bootstrap count")
    alpha = _parse_float(st.get("analysis", "alpha", args.alpha, "0.01"), "alpha")
    meta = {"config": st.hash()}

    # Every input is parsed and every audit run before the bootstrap, and
    # nothing is written until all reports are in: a bad option fails fast
    # and leaves no partial outputs.
    audits = {}
    if all(audit_inputs):
        schema_path, qrels, run_paths = audit_inputs
        schema = parse_schema(_read(schema_path))
        gt, _ = _load_ground_truth(st, qrels, schema)
        runs, _warn = _load_runs(run_paths, st.flag("--honor-rank", args.honor_rank))
        best_by = st.get("analysis", "best_by", args.best_by, labels[0])
        try:
            chosen = matrices[labels.index(best_by)]
        except ValueError:
            raise ConfigError(
                f"best-by measure {best_by!r} is not among the loaded tables {labels}"
            ) from None
        best = select_best_runs(chosen)
        k = _parse_int(st.get("analysis", "k", args.k, "5"), "k")
        bands = _parse_bands(st.get("analysis", "bands", args.bands, DEFAULT_BANDS))
        # Hashed after the audit settings and [merge.*] are read: unlike the
        # correlation and DP reports, the audits depend on them.
        audit_meta = {"config": st.hash(), "selected_by": best_by}
        za = zero_aspect_at_k(best, runs, gt, k)
        audits["zero_aspect.tsv"] = render_zero_aspect(za, audit_meta)
        qb = quality_bands(best, runs, gt, bands)
        audits["quality_bands.tsv"] = render_quality_bands(qb, audit_meta)

    outputs = {}
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            report = measure_correlation(matrices[i], matrices[j])
            name = f"correlation_{labels[i]}_vs_{labels[j]}.tsv"
            outputs[name] = render_correlation(report, meta)
    for report in discriminative_powers(matrices, b_samples, alpha, seed):
        outputs[f"dp_{report.measure}.tsv"] = render_dp(report, meta)
    outputs.update(audits)

    out_dir = Path(st.get("output", "dir", args.out, ".", record=False))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (out_dir / name).write_text(text)
    return 0


def cmd_discretize(args) -> int:
    st = Settings(args.config)
    signals = parse_signals(_read(_require(st.get("files", "signals", args.signals), "signals path")))
    mode = st.get("discretize", "mode", args.mode, "quantile")
    if mode == "quantile":
        fractions = _parse_number_list(
            _require(st.get("discretize", "fractions", args.fractions), "fractions"),
            "fractions",
        )
        grades = discretize_quantile(signals, fractions)
    elif mode == "threshold":
        cuts = _parse_number_list(
            _require(st.get("discretize", "cuts", args.cuts), "cuts"), "cuts"
        )
        grades = discretize_threshold(signals, cuts)
    else:
        raise ConfigError(f"unknown discretize mode {mode!r}")
    _write_out(render_grades(grades, {"config": st.hash(), "mode": mode}), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspecteval",
        description="Multi-aspect evaluation of ranked retrieval results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; flags override its keys")
        p.add_argument("--schema", help="aspect schema file")
        p.add_argument("--out", help="output file or directory")

    p_order = sub.add_parser("order", help="dump the distance order of a schema")
    common(p_order)
    p_order.add_argument(
        "--metric", choices=[m.value for m in Metric], help="distance metric"
    )
    p_order.set_defaults(func=cmd_order)

    p_eval = sub.add_parser("evaluate", help="score runs against multi-aspect qrels")
    common(p_eval)
    p_eval.add_argument("--qrels", nargs="+", help="qrels file, or aspect=path pairs")
    p_eval.add_argument("--runs", nargs="+", help="run files or directories")
    p_eval.add_argument(
        "--metric",
        choices=[m.value for m in Metric] + ["all"],
        help="distance metric for the order-based measures (default all)",
    )
    p_eval.add_argument(
        "--weights", choices=["distinct", "binary"], help="weight policy for nDCG"
    )
    p_eval.add_argument(
        "--measure", choices=[NDCG, AP, "both"], help="measure kind (default both)"
    )
    p_eval.add_argument("--depth", help="evaluation depth (integer or 'full')")
    p_eval.add_argument(
        "--mm-variant",
        dest="mm_variant",
        choices=[CANONICAL, TABLE],
        help="harmonic-mean variant",
    )
    p_eval.add_argument(
        "--honor-rank",
        action="store_true",
        help="order run entries by their rank column instead of by score",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_an = sub.add_parser("analyze", help="meta-evaluation reports over score tables")
    common(p_an)
    p_an.add_argument("--scores", nargs="+", help="score TSVs from 'evaluate'")
    p_an.add_argument("--qrels", nargs="+", help="qrels (for the ranking audits)")
    p_an.add_argument("--runs", nargs="+", help="run files (for the ranking audits)")
    p_an.add_argument("--seed", help="RNG seed for the bootstrap (required)")
    p_an.add_argument("--bootstrap", help="bootstrap sample count (default 10000)")
    p_an.add_argument("--alpha", help="significance level (default 0.01)")
    p_an.add_argument("--k", help="retrieval cutoff for the zero-aspect audit")
    p_an.add_argument("--bands", help="rank bands, e.g. 1-25,26-50")
    p_an.add_argument(
        "--best-by", dest="best_by", help="measure label that selects each topic's best run"
    )
    p_an.add_argument(
        "--honor-rank", action="store_true", help="audit runs in their rank-column order"
    )
    p_an.set_defaults(func=cmd_analyze)

    p_disc = sub.add_parser("discretize", help="grade a raw signal table")
    common(p_disc)
    p_disc.add_argument("--signals", help="docid/score table")
    p_disc.add_argument("--mode", choices=["quantile", "threshold"])
    p_disc.add_argument("--fractions", help="per-grade shares, best grade first")
    p_disc.add_argument("--cuts", help="ascending thresholds")
    p_disc.set_defaults(func=cmd_discretize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
