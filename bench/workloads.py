"""Seeded input generators for the three benchmark workloads.

Each generator writes schema, qrels, run and config files into a directory
and returns a :class:`Workload` that names the CLI calls to time and keeps
the generator's own view of the data (judged tuples, rankings) so the
output checks never rely on the parsers under test.

The same ``(name, seed, size)`` always writes the same bytes.  Sizes are
fixed per workload; :data:`SMOKE` shrinks them for the benchmark's own tests
only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# The AC9 shape: 4 x 3 x 2 grades.
AC9_ASPECTS = (
    ("relevance", (("nr", "0"), ("mr", "1"), ("fr", "2"), ("hr", "3"))),
    ("correctness", (("nc", "0"), ("pc", "1.5"), ("c", "3"))),
    ("credibility", (("nb", "0"), ("b", "1"))),
)

# Seven aspects, 6,6,6,5,5,5,5 grades; the steps give ~670 Euclidean classes.
WIDE_GRADES = (6, 6, 6, 5, 5, 5, 5)
WIDE_STEPS = (1, 2, 2, 1, 2, 3, 4)
# Both rules fire on the worst grade, so the best and worst tuples survive.
WIDE_RULES = ((0, 0, 1, 0), (3, 0, 4, 0))

# shallow-many spells some grades with aliases that the merge map rewrites.
MERGE_ALIASES = {"relevance": {"hr": "perfect"}, "correctness": {"pc": "partly"}}
IMPORTANCE = {"relevance": "0.5", "correctness": "0.3", "credibility": "0.2"}
RELEVANT = {"relevance": "fr hr", "correctness": "c", "credibility": "b"}

# schema-scale (b): the AC3 shape distribution, drawn once from a constant
# seed so every workload seed verifies the same amount of work; the seed
# shuffles the shapes and draws values and rules.
AC3_SHAPE_SEED = 271828
RULE_SHARE = 0.3


@dataclass(frozen=True)
class Size:
    runs: int
    topics: int
    judged: int
    distractors: int
    retrieved: int
    random_schemas: int = 0


SIZES = {
    "deep-pools": Size(runs=16, topics=60, judged=150, distractors=30, retrieved=100),
    "shallow-many": Size(runs=16, topics=100, judged=20, distractors=10, retrieved=20),
    "schema-scale": Size(
        runs=6, topics=20, judged=40, distractors=10, retrieved=40, random_schemas=250
    ),
}

SMOKE = {
    "deep-pools": Size(runs=4, topics=5, judged=12, distractors=3, retrieved=10),
    "shallow-many": Size(runs=5, topics=10, judged=8, distractors=4, retrieved=8),
    "schema-scale": Size(
        runs=3, topics=4, judged=10, distractors=2, retrieved=8, random_schemas=6
    ),
}

WORKLOADS = tuple(SIZES)


@dataclass
class Command:
    """One timed CLI call.  ``argv`` follows ``python -m aspecteval.cli``;
    ``--out`` is appended per pass as ``out`` under the pass directory, and
    ``{scores}`` stands for that pass's ``evaluate`` output."""

    name: str
    argv: list[str]
    out: str


@dataclass
class Workload:
    name: str
    seed: int
    size: Size
    schema_text: str
    judged: dict[tuple[str, str], tuple[int, ...]]
    rankings: dict[str, dict[str, list[str]]]
    commands: list[Command]
    verify_schemas: list[Path]
    # settings the output checks need to recompute cells
    depth: int | None = None
    importance: dict[str, float] | None = None
    relevant: dict[str, list[str]] | None = None
    mm_variant: str = "canonical"
    bootstrap: int = 10000
    rules: tuple[tuple[int, int, int, int], ...] = ()
    grades: tuple[int, ...] = field(default_factory=tuple)
    check_cells: bool = True
    # ROADMAP baselines this workload can restate (see run.check_claims)
    claims: tuple[str, ...] = ("judged", "bootstrap")


def render_schema(aspects, rules=()) -> str:
    """Render ``[(name, [(label, value), ...]), ...]`` plus index rules."""
    lines = []
    for name, labels in aspects:
        lines.append(f"aspect {name}")
        lines.extend(f"label {label} {value}" for label, value in labels)
    for ta, tl, fa, fl in rules:
        lines.append(
            f"couple {aspects[ta][0]} {aspects[ta][1][tl][0]} "
            f"{aspects[fa][0]} {aspects[fa][1][fl][0]}"
        )
    return "\n".join(lines) + "\n"


def _pool(rng, size: Size, grades, topic: str):
    """Judged docs with grades that follow a latent quality, plus distractors.

    Returns (judged tuples, latent quality per doc)."""
    judged, quality = {}, {}
    for j in range(size.judged):
        doc = f"{topic}-d{j:03d}"
        u = rng.random()
        quality[doc] = u
        judged[doc] = tuple(
            int(min(0.999, max(0.0, u + rng.gauss(0.0, 0.18))) * g) for g in grades
        )
    for j in range(size.distractors):
        quality[f"{topic}-x{j:03d}"] = rng.random() * 0.5
    return judged, quality


def _rank(rng, quality, sigma: float, depth: int) -> list[str]:
    """Systems rank the pool by latent quality blurred with their own noise."""
    keyed = sorted(quality, key=lambda d: (-(quality[d] + rng.gauss(0.0, sigma)), d))
    return keyed[:depth]


def _run_text(tag: str, per_topic: dict[str, list[str]]) -> str:
    lines = []
    for topic in sorted(per_topic):
        docs = per_topic[topic]
        for rank, doc in enumerate(docs, start=1):
            lines.append(f"{topic} Q0 {doc} {rank} {len(docs) - rank + 1}.0 {tag}")
    return "\n".join(lines) + "\n" if lines else "# this system returned nothing\n"


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _runs(rng, size, pools, root: Path, skip_run=None, empty_run=None):
    """Write one run file per system; returns tag -> topic -> ranked docs."""
    rankings = {}
    for r in range(size.runs):
        tag = f"s{r:02d}"
        sigma = 0.05 + 0.6 * r / max(1, size.runs - 1)
        per_topic = {}
        for topic, quality in pools.items():
            ranked = _rank(rng, quality, sigma, size.retrieved)
            if r == empty_run:
                continue
            if r == skip_run and rng.random() < 0.1:
                continue
            per_topic[topic] = ranked
        rankings[tag] = per_topic
        _write(root / "runs" / f"{tag}.run", _run_text(tag, per_topic))
    return rankings


def _topics(size: Size) -> list[str]:
    return [f"q{i:03d}" for i in range(size.topics)]


def deep_pools(seed: int, root: Path, size: Size) -> Workload:
    rng = random.Random(f"deep-pools:{seed}")
    grades = tuple(len(labels) for _, labels in AC9_ASPECTS)
    schema = _write(root / "schema.txt", render_schema(AC9_ASPECTS))
    judged, pools = {}, {}
    lines = ["# aspects: " + " ".join(name for name, _ in AC9_ASPECTS)]
    for topic in _topics(size):
        tuples, pools[topic] = _pool(rng, size, grades, topic)
        for doc, t in tuples.items():
            judged[(topic, doc)] = t
            lines.append(f"{topic} 0 {doc} " + " ".join(map(str, t)))
    qrels = _write(root / "qrels.txt", "\n".join(lines) + "\n")
    rankings = _runs(rng, size, pools, root)
    files = ["--schema", str(schema), "--qrels", str(qrels), "--runs", str(root / "runs")]
    return Workload(
        "deep-pools", seed, size, schema.read_text(), judged, rankings,
        commands=[
            Command("evaluate", ["evaluate", *files], "scores"),
            Command("analyze", [
                "analyze", "--scores", "{scores}/scores_EUCL-ndcg.tsv",
                "{scores}/scores_CHEB-ndcg.tsv", "--seed", str(seed),
                "--bootstrap", "1000", *files,
            ], "reports"),
            Command("order", ["order", "--schema", str(schema), "--metric", "euclidean"],
                    "order.txt"),
        ],
        verify_schemas=[schema],
        bootstrap=1000,
        grades=grades,
    )


def shallow_many(seed: int, root: Path, size: Size) -> Workload:
    rng = random.Random(f"shallow-many:{seed}")
    grades = tuple(len(labels) for _, labels in AC9_ASPECTS)
    schema = _write(root / "schema.txt", render_schema(AC9_ASPECTS))
    names = [name for name, _ in AC9_ASPECTS]
    judged, pools = {}, {}
    per_aspect = {name: [] for name in names}
    for topic in _topics(size):
        tuples, pools[topic] = _pool(rng, size, grades, topic)
        for doc, t in tuples.items():
            filled = []
            for i, (name, labels) in enumerate(AC9_ASPECTS):
                # A few (doc, aspect) judgments are missing; the outer join
                # fills them with the worst label.
                if i and rng.random() < 0.05:
                    filled.append(0)
                    continue
                label = labels[t[i]][0]
                token = MERGE_ALIASES.get(name, {}).get(label, label)
                if rng.random() < 0.2:
                    token = str(t[i])
                per_aspect[name].append(f"{topic} 0 {doc} {token}")
                filled.append(t[i])
            judged[(topic, doc)] = tuple(filled)
    qrels = []
    for name, rows in per_aspect.items():
        path = _write(root / f"qrels_{name}.txt", "\n".join(rows) + "\n")
        qrels.append(f"{name}={path}")
    rankings = _runs(rng, size, pools, root, skip_run=1, empty_run=size.runs - 1)
    config = ["[files]", f"schema = {schema}", f"qrels = {' '.join(qrels)}",
              f"runs = {root / 'runs'}", "", "[measure]", "depth = 10", "",
              "[mm]", "variant = table", "", "[importance]"]
    config += [f"{k} = {v}" for k, v in IMPORTANCE.items()]
    for name, labels in RELEVANT.items():
        config += ["", f"[relevant.{name}]", f"labels = {labels}"]
    for name, aliases in MERGE_ALIASES.items():
        config += ["", f"[merge.{name}]"]
        config += [f"{alias} = {label}" for label, alias in aliases.items()]
    cfg = _write(root / "config.ini", "\n".join(config) + "\n")
    return Workload(
        "shallow-many", seed, size, schema.read_text(), judged, rankings,
        commands=[
            Command("evaluate", ["evaluate", "--config", str(cfg)], "scores"),
            Command("analyze", [
                "analyze", "--config", str(cfg), "--scores",
                "{scores}/scores_EUCL-ndcg.tsv", "{scores}/scores_CAM-ap.tsv",
                "{scores}/scores_MM-ndcg.tsv", "--seed", str(seed),
            ], "reports"),
            Command("order", ["order", "--schema", str(schema), "--metric", "euclidean"],
                    "order.txt"),
        ],
        verify_schemas=[schema],
        depth=10,
        importance={k: float(v) for k, v in IMPORTANCE.items()},
        relevant={k: v.split() for k, v in RELEVANT.items()},
        mm_variant="table",
        grades=grades,
    )


def ac3_shapes(n: int) -> list[list[int]]:
    """Grade counts of ``n`` AC3-shaped schemas: 2-5 aspects of 2-5 grades."""
    rng = random.Random(AC3_SHAPE_SEED)
    return [[rng.randint(2, 5) for _ in range(rng.randint(2, 5))] for _ in range(n)]


def _random_rule(rng, grades):
    """A coupling rule that keeps the best and the all-worst tuple feasible."""
    ta, fa = rng.sample(range(len(grades)), 2)
    tl = rng.randrange(grades[ta])
    if tl == 0:
        fl = 0
    elif tl == grades[ta] - 1:
        fl = grades[fa] - 1
    else:
        fl = rng.randrange(grades[fa])
    return (ta, tl, fa, fl)


def random_schema_text(rng, grades, with_rule: bool) -> str:
    aspects = []
    for a, n in enumerate(grades):
        milli = rng.randint(0, 1000)
        labels = []
        for g in range(n):
            if g:
                milli += rng.randint(0, 2000)
            labels.append((f"g{g}", f"{milli / 1000:.3f}"))
        aspects.append((f"a{a}", labels))
    rules = (_random_rule(rng, grades),) if with_rule else ()
    return render_schema(aspects, rules)


def schema_scale(seed: int, root: Path, size: Size) -> Workload:
    rng = random.Random(f"schema-scale:{seed}")
    # (a) the wide schema and qrels that break its rules
    aspects = [
        (f"w{i}", [(f"g{g}", str(g * step)) for g in range(n)])
        for i, (n, step) in enumerate(zip(WIDE_GRADES, WIDE_STEPS))
    ]
    schema = _write(root / "schema.txt", render_schema(aspects, WIDE_RULES))
    judged, pools = {}, {}
    lines = ["# aspects: " + " ".join(name for name, _ in aspects)]
    for topic in _topics(size):
        tuples, pools[topic] = _pool(rng, size, WIDE_GRADES, topic)
        for doc, t in tuples.items():
            judged[(topic, doc)] = t
            lines.append(f"{topic} 0 {doc} " + " ".join(map(str, t)))
    qrels = _write(root / "qrels.txt", "\n".join(lines) + "\n")
    rankings = _runs(rng, size, pools, root)
    files = ["--schema", str(schema), "--qrels", str(qrels), "--runs", str(root / "runs")]
    # (b) AC3-shaped random schemas, a fixed share of them with a rule
    shapes = ac3_shapes(size.random_schemas)
    rng.shuffle(shapes)
    ruled = set(rng.sample(range(len(shapes)), round(RULE_SHARE * len(shapes))))
    verify = [
        _write(root / "schemas" / f"{i:03d}.txt", random_schema_text(rng, g, i in ruled))
        for i, g in enumerate(shapes)
    ]
    return Workload(
        "schema-scale", seed, size, schema.read_text(), judged, rankings,
        commands=[
            Command("evaluate", ["evaluate", *files], "scores"),
            Command("analyze", [
                "analyze", "--scores", "{scores}/scores_EUCL-ndcg.tsv",
                "{scores}/scores_MANH-ap.tsv", "--seed", str(seed),
                "--bootstrap", "1000", *files,
            ], "reports"),
            Command("order", ["order", "--schema", str(schema), "--metric", "euclidean"],
                    "order.txt"),
        ],
        verify_schemas=verify,
        bootstrap=1000,
        rules=WIDE_RULES,
        grades=WIDE_GRADES,
        check_cells=False,
        claims=("ac3",),
    )


GENERATORS = {
    "deep-pools": deep_pools,
    "shallow-many": shallow_many,
    "schema-scale": schema_scale,
}


def generate(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``root``."""
    sizes = SMOKE if smoke else SIZES
    return GENERATORS[name](seed, root, sizes[name])
