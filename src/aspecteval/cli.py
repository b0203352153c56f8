"""Command-line front end.

Subcommands: ``order`` (dump a distance order), ``evaluate`` (score runs
against multi-aspect qrels), ``analyze`` (meta-evaluation reports over score
tables), ``discretize`` (turn a raw signal table into a grade column).

Every option is one :class:`Option` row below.  A flag overrides the key in
the INI-style config file, which overrides the row's default.
All outputs are deterministic: rerunning a command with the same inputs,
config, and seed writes byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import sys
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

from .analysis import (
    _check_same_cells,
    discriminative_powers,
    measure_correlation,
    quality_bands,
    select_best_runs,
    zero_aspect_at_k,
)
from .errors import ConfigError, EvalError, ParseError
from .ingest import (
    RunFile,
    _iter_lines,
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
    _tsv,
    parse_scores,
    render_correlation,
    render_dp,
    render_grades,
    render_quality_bands,
    render_scores,
    render_zero_aspect,
)
from .schema import AspectSchema, GroundTruth, build_tuple_space, parse_schema


class Option(NamedTuple):
    """One option: a flag and, unless ``key`` is ``None``, a ``section.key``
    config key.  A ``many`` option takes one or more values (a config value
    splits on whitespace); a ``switch`` takes none and reads ``"true"``
    when given."""

    flag: str
    key: str | None
    help: str = ""
    default: str | None = None
    choices: tuple[str, ...] | None = None
    many: bool = False
    switch: bool = False

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.switch:
            parser.add_argument(self.flag, action="store_const", const="true", help=self.help)
        else:
            text = self.help if self.default is None else f"{self.help} (default {self.default})"
            nargs = "+" if self.many else None
            parser.add_argument(self.flag, nargs=nargs, choices=self.choices, help=text)


METRICS = tuple(m.value for m in Metric)

CONFIG = Option("--config", None, "INI config file; flags override its keys")
SCHEMA = Option("--schema", "files.schema", "aspect schema file")
QRELS = Option("--qrels", "files.qrels", "qrels file, or aspect=path pairs", many=True)
RUNS = Option("--runs", "files.runs", "run files or directories", many=True)
SCORES = Option("--scores", "files.scores", "score TSVs from 'evaluate'", many=True)
SIGNALS = Option("--signals", "files.signals", "docid/score table")
OUT_FILE = Option("--out", None, "output file (default stdout)")
OUT_DIR = Option("--out", "output.dir", "output directory", ".")
ORDER_METRIC = Option("--metric", "order.metric", "distance metric", "euclidean", METRICS)
EVAL_METRIC = Option("--metric", "order.metric", "distance metric or all", "all", (*METRICS, "all"))
WEIGHTS = Option("--weights", "order.weights", "nDCG weights", "distinct", ("distinct", "binary"))
KIND = Option("--measure", "measure.kind", "measure kind", "both", (NDCG, AP, "both"))
DEPTH = Option("--depth", "measure.depth", "evaluation depth (integer or 'full')")
MM_VARIANT = Option("--mm-variant", "mm.variant", "harmonic-mean variant", CANONICAL, (CANONICAL, TABLE))
HONOR_RANK = Option("--honor-rank", None, "order runs by their rank column, not score", switch=True)
SEED = Option("--seed", "analysis.seed", "RNG seed for the bootstrap (required)")
BOOTSTRAP = Option("--bootstrap", "analysis.bootstrap", "bootstrap sample count", "10000")
ALPHA = Option("--alpha", "analysis.alpha", "significance level", "0.01")
K = Option("--k", "analysis.k", "retrieval cutoff for the zero-aspect audit", "5")
BANDS = Option("--bands", "analysis.bands", "rank bands", "1-25,26-50,51-75,76-100")
BEST_BY = Option("--best-by", "analysis.best_by", "table label picking each topic's best run")
MODE = Option("--mode", "discretize.mode", "grading mode", "quantile", ("quantile", "threshold"))
FRACTIONS = Option("--fractions", "discretize.fractions", "per-grade shares, best grade first")
CUTS = Option("--cuts", "discretize.cuts", "ascending thresholds")

# Sections named ``<prefix>.<aspect>``: their keys and values are schema
# names, checked once a command loads its schema.
ASPECT_SECTIONS = ("gains", "relevant", "merge")
# The keys of paths: no path enters the config hash (see Settings.get).
PATH_KEYS = ("files.", "output.")


def _unknown(what: str, name: str, known, where: str = "") -> ConfigError:
    """The error for an unknown name, with the closest known one as a hint."""
    import difflib  # only on this error path

    known = sorted(known)
    close = [k for k in known if k.lower() == name.lower()] or difflib.get_close_matches(name, known, 1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ConfigError(f"unknown {what} {name!r}{where}{hint}")


class Settings:
    """Option resolution (flag, then config file, then default) with a hash
    of every option used, recorded in output headers."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        # interpolation=None: a value is read as written, a "%" included
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        self.parser.optionxform = str  # aspect and label names keep their case
        self.used: dict[str, str] = {}
        if args.config:
            _load(args.config, self._read_config, "config file")

    def _read_config(self, text: str) -> None:
        self.parser.read_string(text, source=self.args.config)
        self._check_keys()

    def _check_keys(self) -> None:
        """Reject every section and key that no option declares."""
        sections = {key.partition(".")[0] for key in KNOWN_KEYS} | {"importance"}
        if self.parser.defaults():  # its keys would reach every section
            raise _unknown("config section", self.parser.default_section, sections)
        for section in self.parser.sections():
            prefix, _, aspect = section.partition(".")
            if section == "importance" or prefix in ("gains", "merge") and aspect:
                continue  # the keys are schema names: see load_schema
            if prefix == "relevant" and aspect:
                known = {f"{section}.labels"}
            elif section in sections:
                known = KNOWN_KEYS
            else:
                shapes = {f"{p}.{aspect or '<aspect>'}" for p in ASPECT_SECTIONS}
                raise _unknown("config section", section, sections | shapes)
            for key in self.parser[section]:
                if f"{section}.{key}" not in known:
                    raise _unknown("config key", f"{section}.{key}", known)

    def load_schema(self, path: str) -> AspectSchema:
        """The schema at ``path``.  The config may name only its aspects (in
        ``[importance]`` and ``[<prefix>.<aspect>]``) and their labels (the
        keys of ``[gains.<aspect>]``, the ``labels`` of ``[relevant.<aspect>]``
        and the values of ``[merge.<aspect>]``).  A ``[relevant.<aspect>]``
        section must name at least one label."""
        schema = _load(path, parse_schema)
        labels = {a.name: a.labels for a in schema.aspects}
        for section in self.parser.sections():
            prefix, _, aspect = section.partition(".")
            where = f" in [{section}]"
            if section == "importance":
                for name in self.parser[section]:
                    if name not in labels:
                        raise _unknown("aspect", name, labels, where)
            elif prefix in ASPECT_SECTIONS:
                if aspect not in labels:
                    raise _unknown("aspect", aspect, labels, where)
                table = self.parser[section]
                names = {
                    "gains": table.keys(),
                    "relevant": table.get("labels", "").split(),
                    "merge": table.values(),
                }[prefix]
                if prefix == "relevant" and not names:
                    raise ConfigError(f"[{section}] labels names no label of {aspect!r}")
                for name in names:
                    if name not in labels[aspect]:
                        raise _unknown("label", name, labels[aspect], where)
        return schema

    def get(self, opt: Option, default: str | None = None):
        """The value of ``opt`` from its flag, else its config key, else
        ``default``, else the option's own default."""
        value = getattr(self.args, opt.flag.lstrip("-").replace("-", "_"), None)
        if value is None and opt.key:
            value = self.parser.get(*opt.key.split("."), fallback=None)
            if opt.many and value is not None:
                value = value.split()
        if value is None:
            value = opt.default if default is None else default
        if opt.choices and value not in opt.choices:  # a flag's value is checked by argparse
            raise _unknown(opt.help, value, opt.choices, f" in config key {opt.key!r}")
        if value is not None and (opt.switch or opt.key and not opt.key.startswith(PATH_KEYS)):
            self.used[opt.key or opt.flag] = str(value)
        return value

    def section(self, name: str) -> dict[str, str]:
        items = dict(self.parser.items(name)) if self.parser.has_section(name) else {}
        self.used.update((f"{name}.{k}", v) for k, v in items.items())
        return items

    def hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.used.items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"{what} is required (flag or config key)")
    return value


def _read(path: str | Path, what: str = "input file") -> str:
    """The text of the file at ``path``: UTF-8, an optional byte-order mark dropped."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return p.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte {exc.start}"
        raise ConfigError(f"{what} {path} is not UTF-8 ({where})") from None


T = TypeVar("T")


def _in_file(exc: EvalError, path: str | Path) -> EvalError:
    """``exc`` with ``path`` put before its message."""
    exc.args = (f"{path}: {exc}",)
    return exc


def _load(path: str | Path, parse: Callable[[str], T], what: str = "input file") -> T:
    """``parse`` of the text of the file at ``path`` (see ``_read``); an
    ``EvalError`` it raises names the file first (``runs/b.run: line 30: …``)."""
    text = _read(path, what)
    try:
        return parse(text)
    except EvalError as exc:
        raise _in_file(exc, path) from None


def _write(out_dir: str | Path, texts: Mapping[str, str]) -> None:
    """Write each named text into ``out_dir`` as UTF-8 with LF line ends."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8", newline="\n")


def _parse_number(value, what: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from None


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
        bands.append((_parse_number(lo, "band start", int), _parse_number(hi, "band end", int)))
    if not bands:
        raise ConfigError("no rank bands given")
    return bands


def _aspect_sections(st: Settings, schema, prefix: str) -> dict[str, dict[str, str]]:
    """The non-empty ``[<prefix>.<aspect>]`` sections, by aspect in schema order."""
    tables = {aspect: st.section(f"{prefix}.{aspect}") for aspect in schema.names}
    return {aspect: table for aspect, table in tables.items() if table}


def _floats(table: dict[str, str], what: str) -> dict[str, float]:
    return {name: _parse_number(v, f"{what}{name}") for name, v in table.items()}


def _load_ground_truth(st: Settings, qrels: list[str], schema) -> GroundTruth:
    """The qrels, with a warning on stderr if coupling rules corrected any."""
    merge = _aspect_sections(st, schema, "merge") or None
    if any("=" in q for q in qrels):
        paths = {}
        for q in qrels:
            aspect, sep, path = q.partition("=")
            if not sep:
                raise ConfigError(
                    "mixing plain and aspect=path qrels arguments is not supported"
                )
            if aspect in paths:
                raise ConfigError(f"aspect {aspect!r} is given more than one qrels file")
            paths[aspect] = path
        texts = {aspect: _read(path) for aspect, path in paths.items()}
        try:
            gt, corrections = join_aspect_qrels(texts, schema, merge)
        except ParseError as exc:  # a line of one aspect's file
            raise _in_file(exc, paths[exc.aspect]) from None
    elif len(qrels) != 1:
        raise ConfigError("expected one multi-aspect qrels file or aspect=path pairs")
    else:
        gt, corrections = _load(qrels[0], lambda text: parse_qrels(text, schema, merge))
    if corrections:
        print(
            f"warning: corrected {corrections} coupling-rule violations in the qrels",
            file=sys.stderr,
        )
    return gt


def _load_runs(paths: list[str], honor_rank: bool) -> list[RunFile]:
    """The run files under ``paths``, skipping a directory's dot-files; an
    empty one warns on stderr and scores 0."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.iterdir() if f.is_file() and not f.name.startswith(".")
            ))
        elif p.is_file():
            files.append(p)
        else:
            raise ConfigError(f"run path not found: {raw}")
    runs, file_of = [], {}
    for f in files:
        # None for a file without a content line, as parse_run counts them
        run = _load(f, lambda text: parse_run(text, honor_rank) if any(_iter_lines(text)) else None)
        if run is None:
            print(
                f"warning: run file {f} is empty; scoring run {f.stem!r} as 0",
                file=sys.stderr,
            )
            run = RunFile(f.stem, {}, {})
        if run.run_tag in file_of:
            raise ConfigError(f"duplicate run tag {run.run_tag!r} in {file_of[run.run_tag]} and {f}")
        file_of[run.run_tag] = f
        runs.append(run)
    if not runs:
        raise ConfigError("no run files given")
    return runs


def _write_out(pieces: Iterable[str], out: str | None) -> None:
    """Write ``pieces`` in turn to stdout, or to the file ``out`` as UTF-8
    with LF line ends."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)


def cmd_order(st: Settings) -> int:
    """dump the distance order of a schema"""
    schema = st.load_schema(_require(st.get(SCHEMA), "schema path"))
    metric = Metric(st.get(ORDER_METRIC))
    order = build_order(build_tuple_space(schema), schema, metric)
    meta = {"config": st.hash(), "metric": metric.value, "classes": order.n_classes}
    # the dump streams: no string of the whole of it is ever made
    _write_out(itertools.chain((_tsv(meta, ()),), format_order_dump(order)), st.get(OUT_FILE))
    return 0


def cmd_evaluate(st: Settings) -> int:
    """score runs against multi-aspect qrels"""
    schema = st.load_schema(_require(st.get(SCHEMA), "schema path"))
    gt = _load_ground_truth(st, _require(st.get(QRELS), "qrels path"), schema)
    runs = _load_runs(_require(st.get(RUNS), "runs path"), bool(st.get(HONOR_RANK)))

    metric_name = st.get(EVAL_METRIC)
    metrics = tuple(Metric) if metric_name == "all" else (Metric(metric_name),)
    kind = st.get(KIND)
    kinds = (NDCG, AP) if kind == "both" else (kind,)
    depth = st.get(DEPTH)
    depth = None if depth in (None, "full") else _parse_number(depth, "depth", int)
    gains = _aspect_sections(st, schema, "gains")
    relevant = _aspect_sections(st, schema, "relevant")  # each holds just `labels`

    matrices = score_runs(
        runs,
        gt,
        schema,
        kinds=kinds,
        metrics=metrics,
        weight_policy=st.get(WEIGHTS),
        importance=_floats(st.section("importance"), "importance of ") or None,
        mm_variant=st.get(MM_VARIANT),
        depth=depth,
        aspect_gains={a: _floats(t, f"gain for {a}/") for a, t in gains.items()} or None,
        aspect_relevant={a: t["labels"].split() for a, t in relevant.items()} or None,
    )
    meta = {"config": st.hash()}
    tables = {f"scores_{k}.tsv": render_scores(m, meta) for k, m in sorted(matrices.items())}
    _write(st.get(OUT_DIR), tables)
    return 0


def cmd_analyze(st: Settings) -> int:
    """meta-evaluation reports over score tables"""
    matrices = [_load(p, parse_scores) for p in _require(st.get(SCORES), "scores path")]
    labels = [m.measure for m in matrices]
    if len(set(labels)) != len(labels):
        raise ConfigError("score tables must carry distinct measure labels")
    _check_same_cells(matrices)

    audit_inputs = (st.get(SCHEMA), st.get(QRELS), st.get(RUNS))
    if any(audit_inputs) and not all(audit_inputs):
        flags = f"{RUNS.flag}, {QRELS.flag}, and {SCHEMA.flag}"
        raise ConfigError(f"ranking audits need {flags} together")

    seed = _parse_number(_require(st.get(SEED), "seed"), "seed", int)
    b_samples = _parse_number(st.get(BOOTSTRAP), "bootstrap count", int)
    alpha = _parse_number(st.get(ALPHA), "alpha")
    meta = {"config": st.hash()}

    # Every input is parsed and every audit run before the bootstrap, and
    # nothing is written until all reports are in: a bad option fails fast
    # and leaves no partial outputs.
    audits = {}
    if all(audit_inputs):
        schema_path, qrels, run_paths = audit_inputs
        schema = st.load_schema(schema_path)
        gt = _load_ground_truth(st, qrels, schema)
        runs = _load_runs(run_paths, bool(st.get(HONOR_RANK)))
        best_by = st.get(BEST_BY, labels[0])
        if best_by not in labels:
            raise ConfigError(
                f"best-by measure {best_by!r} is not among the loaded tables {labels}"
            )
        best = select_best_runs(matrices[labels.index(best_by)])
        k = _parse_number(st.get(K), "k", int)
        bands = _parse_bands(st.get(BANDS))
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

    _write(st.get(OUT_DIR), outputs)
    return 0


def cmd_discretize(st: Settings) -> int:
    """grade a raw signal table"""
    signals = _load(_require(st.get(SIGNALS), "signals path"), parse_signals)
    mode = st.get(MODE)
    if mode == "quantile":
        fractions = _parse_number_list(_require(st.get(FRACTIONS), "fractions"), "fractions")
        grades = discretize_quantile(signals, fractions)
    else:
        cuts = _parse_number_list(_require(st.get(CUTS), "cuts"), "cuts")
        grades = discretize_threshold(signals, cuts)
    _write_out((render_grades(grades, {"config": st.hash(), "mode": mode}),), st.get(OUT_FILE))
    return 0


# Each subcommand's function and the options it takes; the function's
# name after ``cmd_`` names the subcommand, its docstring is the help.
COMMANDS = {
    cmd_order: (CONFIG, SCHEMA, OUT_FILE, ORDER_METRIC),
    cmd_evaluate: (
        CONFIG, SCHEMA, OUT_DIR, QRELS, RUNS, EVAL_METRIC, WEIGHTS, KIND, DEPTH, MM_VARIANT,
        HONOR_RANK,
    ),
    cmd_analyze: (
        CONFIG, SCHEMA, OUT_DIR, SCORES, QRELS, RUNS, SEED, BOOTSTRAP, ALPHA, K, BANDS, BEST_BY,
        HONOR_RANK,
    ),
    cmd_discretize: (CONFIG, OUT_FILE, SIGNALS, MODE, FRACTIONS, CUTS),
}
# Every config key any command reads; one config file may serve them all.
KNOWN_KEYS = frozenset(o.key for options in COMMANDS.values() for o in options if o.key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspecteval",
        description="Multi-aspect evaluation of ranked retrieval results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for func, options in COMMANDS.items():
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=func.__doc__)
        for opt in options:
            opt.add_to(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(Settings(args))
    except (EvalError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
