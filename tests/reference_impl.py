"""Straight-line reference implementations for the acceptance gate.

Everything here is written for obviousness, not speed: plain loops, no code
shared with the package under test.  The one deliberate overlap is the
bootstrap RNG recipe (per-pair SeedSequence over the seed and the sha256 of
each run tag, one uniform index block of shape (B, n)), which is part of the
tool's output contract and is rebuilt here from that description.  The
ideal-ranking enumerator behind AC4's upper bound lives here too; it hands
the package's ``RankedList`` to the scorers it maximizes over.  The
line-by-line run parser returns the package's ``RunFile`` and raises its
error types, so that a test can compare the two parsers with ``==``.
"""

import hashlib
import itertools
import math
import random

import numpy as np

from aspecteval import ConfigError, DuplicateDoc, MixedRunTag, ParseError, RankedList, RunFile


# ---------------------------------------------------------------------------
# score-table reader (mirrors the TSV layout, not the implementation)


def read_score_table(text):
    """Return (measure, sorted run tags, sorted topic ids, {(run, topic): score})."""
    cells = {}
    measure = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        run, topic, label, score = line.split("\t")
        if topic == "all":
            continue
        measure = label
        cells[(run, topic)] = float(score)
    runs = sorted({r for r, _ in cells})
    topics = sorted({t for _, t in cells})
    return measure, runs, topics, cells


# ---------------------------------------------------------------------------
# run files (the line-by-line parser the column parser replaced)


def ref_parse_run(text, honor_rank=False):
    """Parse a six-column run file one line at a time: blank and ``#``
    lines skipped, every line checked in file order, entries sorted per
    topic by (rank or -score, doc)."""
    rows = {}
    seen = set()
    run_tag = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", lineno)
        topic, _q0, doc, rank_s, score_s, tag = parts
        try:
            rank = int(rank_s)
        except ValueError:
            raise ParseError(f"non-integer rank {rank_s!r}", lineno) from None
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"non-numeric score {score_s!r}", lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_s!r}", lineno)
        if run_tag is None:
            run_tag = tag
        elif tag != run_tag:
            raise MixedRunTag(f"run tag changes from {run_tag!r} to {tag!r}", lineno)
        if (topic, doc) in seen:
            raise DuplicateDoc(f"doc {doc!r} repeated for topic {topic!r}", lineno)
        seen.add((topic, doc))
        rows.setdefault(topic, []).append((rank if honor_rank else -score, doc, score))
    if run_tag is None:
        raise ParseError("run file contains no entries")
    topics, scores = {}, {}
    for topic, entries in sorted(rows.items()):
        entries.sort()
        topics[topic] = tuple(doc for _, doc, _ in entries)
        scores[topic] = tuple(score for _, _, score in entries)
    return RunFile(run_tag, topics, scores)


# ---------------------------------------------------------------------------
# float sums


def ref_sum(values):
    """Float sum from left to right, as the built-in ``sum`` adds up to
    Python 3.11; from 3.12 on it compensates its rounding."""
    total = 0.0
    for v in values:
        total += v
    return total


# ---------------------------------------------------------------------------
# rank correlation


def ref_tau_b(x, y):
    """Pair-counting tau-b; None when either list is constant."""
    if len(set(x)) == 1 or len(set(y)) == 1:
        return None
    concordant = discordant = ties_x_only = ties_y_only = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x_only += 1
            elif dy == 0:
                ties_y_only += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt(
        (concordant + discordant + ties_x_only)
        * (concordant + discordant + ties_y_only)
    )
    return (concordant - discordant) / denom


def ref_correlation(table_a, table_b):
    """Per-topic tau between two score tables over the same runs/topics."""
    _, runs, topics, cells_a = table_a
    _, _, _, cells_b = table_b
    per_topic = {}
    excluded = 0
    for topic in topics:
        tau = ref_tau_b(
            [cells_a[(r, topic)] for r in runs], [cells_b[(r, topic)] for r in runs]
        )
        if tau is None:
            excluded += 1
        else:
            per_topic[topic] = tau
    mean = ref_sum(per_topic.values()) / len(per_topic) if per_topic else None
    equivalent = mean is not None and mean > 0.9
    return per_topic, excluded, mean, equivalent


# ---------------------------------------------------------------------------
# tuple spaces and distance orders as tuple lists


def ref_tuple_space(schema):
    """Cartesian product of grade indices, minus tuples breaking a coupling
    rule, in ascending lexicographic order."""
    ranges = [range(a.n_grades) for a in schema.aspects]
    return tuple(
        t for t in itertools.product(*ranges)
        if all(
            t[r.trigger_aspect] != r.trigger_label or t[r.forced_aspect] == r.forced_label
            for r in schema.rules
        )
    )


def ref_apply_rules(t, rules):
    """(fixpoint, corrections) of tuple ``t`` under the coupling rules
    (trigger aspect, trigger label, forced aspect, forced label), applied
    one at a time in order, pass after pass, until a pass fires none; None
    if a pass starts from a state an earlier pass started from, so the
    rules cycle without settling."""
    state, seen, corrections = list(t), set(), 0
    while tuple(state) not in seen:
        seen.add(tuple(state))
        fired = 0
        for ta, tl, fa, fl in rules:
            if state[ta] == tl and state[fa] != fl:
                state[fa] = fl
                fired += 1
        if not fired:
            return tuple(state), corrections
        corrections += fired
    return None


def ref_unsettled_tuple(shape, rules):
    """The first grid tuple, in lexicographic order, from which the coupling
    rules never settle (see ``ref_apply_rules``); None if they settle from
    every tuple."""
    return next(
        (t for t in itertools.product(*(range(n) for n in shape))
         if ref_apply_rules(t, rules) is None),
        None,
    )


def ref_build_order(tuples, schema, metric):
    """[(key, members)] per class by increasing distance from the best
    tuple: one grade -> step table per aspect (squared for Euclidean), keys
    summed (maxed for Chebyshev) in Python ints, members in descending
    lexicographic order."""
    power = 2 if metric.value == "euclidean" else 1
    steps = [
        {g: (vals[-1] - v) ** power for g, v in enumerate(vals)}
        for vals in schema.scaled_values
    ]
    combine = max if metric.value == "chebyshev" else sum
    groups = {}
    for t in tuples:
        key = combine(step[g] for step, g in zip(steps, t))
        groups.setdefault(key, []).append(t)
    return [(key, tuple(sorted(groups[key], reverse=True))) for key in sorted(groups)]


# ---------------------------------------------------------------------------
# Pareto dominance


def ref_extends_dominance(order, schema):
    """Dense pairwise check: no tuple whose embed values are at least another
    tuple's on every aspect sits in a later class.  O(n^2 * aspects) memory,
    so keep it to small schemas; embed values too large for int64 make numpy
    fall back to exact Python-int object arrays."""
    members = [(t, i) for i, cls in enumerate(order.classes) for t in cls.members]
    coords = np.asarray(
        [[vals[g] for vals, g in zip(schema.scaled_values, t)] for t, _ in members]
    )
    cls = np.asarray([i for _, i in members])
    # dominates[a, b]: tuple b is at least tuple a on every aspect
    dominates = (coords[None, :, :] >= coords[:, None, :]).all(axis=2)
    ranked_worse = cls[None, :] > cls[:, None]
    return not (dominates & ranked_worse).any()


# ---------------------------------------------------------------------------
# paired bootstrap


def ref_pair_rng(seed, run_a, run_b):
    def digest(name):
        return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")

    lo, hi = sorted((run_a, run_b))
    return np.random.default_rng(np.random.SeedSequence([seed, digest(lo), digest(hi)]))


def ref_units(scores):
    """Scores as integers in units of 1e-4, the printed precision."""
    return [round(v * 10000) for v in scores]


def ref_bootstrap_asl(units, b_samples, rng):
    """ASL of one vector of integer differences (units of 1e-4), resample by
    resample in Python ints, from one (B, n) index block.

    For values x with sum S and sum of squares Q, t = mean / sqrt(var / n)
    and var = (nQ - S^2) / (n (n - 1)) give t^2 = (n - 1) S^2 / (nQ - S^2).
    A resample of the centered differences has sum s1 - S and, shifts
    leaving the spread alone, t*^2 = (n - 1) (s1 - S)^2 / (n s2 - s1^2),
    where s1 and s2 are the sums of the drawn raw differences and of their
    squares.  Clearing the positive denominators, |t*| >= |t| exactly when
    (s1 - S)^2 (nQ - S^2) >= S^2 (n s2 - s1^2).  A constant resample has
    t* = 0 when its mean is 0 (s1 = S) and an unbounded t* otherwise.  The
    int64 resample sums are exact: every term is an integer far below 2^63.
    """
    n = len(units)
    d = np.asarray(units, dtype=np.int64)
    total, squares = int(d.sum()), int((d * d).sum())
    spread = n * squares - total * total
    idx = rng.integers(0, n, size=(b_samples, n))
    hits = 0
    for s1, s2 in zip(d[idx].sum(axis=1).tolist(), (d * d)[idx].sum(axis=1).tolist()):
        mean_shift = s1 - total
        sample_spread = n * s2 - s1 * s1
        if sample_spread == 0:
            hit = mean_shift != 0 or total == 0
        else:
            hit = mean_shift * mean_shift * spread >= total * total * sample_spread
        hits += hit
    return hits / b_samples


def ref_dp(table, b_samples, alpha, seed):
    """Per-pair (t, asl, significant) rows plus the significant percentage."""
    _, runs, topics, cells = table
    n = len(topics)
    rows = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            run_a, run_b = runs[i], runs[j]
            units_a = ref_units(cells[(run_a, t)] for t in topics)
            units_b = ref_units(cells[(run_b, t)] for t in topics)
            units = [x - y for x, y in zip(units_a, units_b)]
            if len(set(units)) == 1:
                t_obs = math.copysign(math.inf, units[0]) if units[0] else 0.0
                asl = 0.0 if units[0] else 1.0
                significant = units[0] != 0
            else:
                d = [cells[(run_a, t)] - cells[(run_b, t)] for t in topics]
                mean = sum(d) / n
                var = sum((v - mean) ** 2 for v in d) / (n - 1)
                t_obs = mean / math.sqrt(var / n)
                asl = ref_bootstrap_asl(units, b_samples, ref_pair_rng(seed, run_a, run_b))
                significant = asl < alpha
            rows.append((run_a, run_b, t_obs, asl, significant))
    percentage = 100.0 * sum(1 for r in rows if r[4]) / len(rows)
    return rows, percentage


def ref_discriminative_power(m, b_samples, alpha, seed):
    """The per-table loop over a matrix's ``values`` rows and ``run_tags``,
    read at 4 decimals: one (run_a, run_b, t, asl, significant) row per
    pair, each bootstrapped pair drawing its own index stream.  The t of a
    tested pair is ``np.mean`` over ``np.std(ddof=1)`` of the rounded scores'
    differences."""
    rows = []
    for a, b in itertools.combinations(range(len(m.run_tags)), 2):
        run_a, run_b = m.run_tags[a], m.run_tags[b]
        units_a, units_b = ref_units(m.values[a]), ref_units(m.values[b])
        units = [x - y for x, y in zip(units_a, units_b)]
        if len(set(units)) == 1:
            t_obs = math.copysign(math.inf, units[0]) if units[0] else 0.0
            significant = units[0] != 0
            asl = 0.0 if significant else 1.0
        else:
            d = np.array(units_a) / 10000 - np.array(units_b) / 10000
            t_obs = float(d.mean() / (d.std(ddof=1) / math.sqrt(len(d))))
            asl = ref_bootstrap_asl(units, b_samples, ref_pair_rng(seed, run_a, run_b))
            significant = asl < alpha
        rows.append((run_a, run_b, t_obs, asl, significant))
    return rows


# ---------------------------------------------------------------------------
# ranking audits


def ref_best_runs(table):
    _, runs, topics, cells = table
    best = {}
    for topic in topics:
        top = max(cells[(r, topic)] for r in runs)
        best[topic] = sorted(r for r in runs if cells[(r, topic)] == top)[0]
    return best


def ref_zero_aspect(best, run_docs, judged, k):
    """Rows (rank label, count, slots, percent) for ranks 1..k plus a total.

    ``run_docs`` maps run tag -> topic -> ranked doc ids; ``judged`` maps
    (topic, doc) -> grade-index tuple.  Unjudged docs count as all-worst.
    """
    counts = [0] * k
    slots = [0] * k
    for topic in sorted(best):
        docs = run_docs[best[topic]].get(topic, [])[:k]
        for position, doc in enumerate(docs):
            slots[position] += 1
            grades = judged.get((topic, doc))
            if grades is None or sum(grades) == 0:
                counts[position] += 1
    rows = []
    for position in range(k):
        percent = 100.0 * counts[position] / slots[position] if slots[position] else 0.0
        rows.append((str(position + 1), counts[position], slots[position], percent))
    total_count, total_slots = sum(counts), sum(slots)
    total_percent = 100.0 * total_count / total_slots if total_slots else 0.0
    rows.append((f"1-{k}", total_count, total_slots, total_percent))
    return rows


def ref_quality_bands(best, run_docs, judged, bands):
    """Rows (band, n_docs, mean grade-index sum or None) per rank band."""
    rows = []
    for lo, hi in bands:
        values = []
        for topic in sorted(best):
            docs = run_docs[best[topic]].get(topic, [])
            for doc in docs[lo - 1 : hi]:
                grades = judged.get((topic, doc))
                values.append(sum(grades) if grades is not None else 0)
        rows.append(((lo, hi), len(values), sum(values) / len(values) if values else None))
    return rows


# ---------------------------------------------------------------------------
# ideal rankings and the upper bound behind AC4's aggregation gap

EXHAUSTIVE_LIMIT = 8


def generate_ideal_rankings(topic_id, judged, schema, gain_vectors=None):
    """Candidate ideal orderings of the judged documents for one topic.

    One candidate per aspect permutation (sort lexicographically by the
    permuted per-aspect gains, descending), plus three scalarizations:
    by gain sum, by sum of squared gains, and by max gain.  Ties always
    break by ascending doc_id, so the output is deterministic.  For n
    aspects this yields n! + 3 rankings.
    """
    vecs = (
        [list(map(float, v)) for v in gain_vectors]
        if gain_vectors is not None
        else [[float(i) for i in range(a.n_grades)] for a in schema.aspects]
    )
    if len(vecs) != schema.n_aspects:
        raise ConfigError("one gain vector per aspect is required")
    doc_gains = {
        d: tuple(vecs[i][g] for i, g in enumerate(t)) for d, t in judged.items()
    }
    docs = sorted(judged)
    rankings = []
    for perm in itertools.permutations(range(schema.n_aspects)):
        key = lambda d: tuple(-doc_gains[d][a] for a in perm)
        rankings.append(tuple(sorted(docs, key=lambda d: (key(d), d))))
    for scalar in (sum, lambda g: sum(x * x for x in g), max):
        rankings.append(
            tuple(sorted(docs, key=lambda d: (-scalar(doc_gains[d]), d)))
        )
    return [RankedList(topic_id, r) for r in rankings]


def estimate_upper_bound(score, topic_id, judged, schema, gain_vectors=None):
    """Best achievable ``score`` over candidate ideal rankings.

    For topics with at most ``EXHAUSTIVE_LIMIT`` judged documents every
    permutation is tried, making the bound exact there.
    """
    candidates = generate_ideal_rankings(topic_id, judged, schema, gain_vectors)
    if len(judged) <= EXHAUSTIVE_LIMIT:
        candidates.extend(
            RankedList(topic_id, perm)
            for perm in itertools.permutations(sorted(judged))
        )
    return max(score(rl) for rl in candidates)


# ---------------------------------------------------------------------------
# synthetic benchmark: 10 runs x 50 topics x 3 aspects, planted gradients


SYNTH_SCHEMA = """\
aspect relevance
label nr 0
label mr 1
label fr 2
label hr 3
aspect correctness
label nc 0
label pc 1.5
label c 3
aspect credibility
label nb 0
label b 1
"""

SYNTH_GRADES = (4, 3, 2)


def synth_benchmark(seed=1202):
    """Deterministic benchmark corpus.

    Each topic gets 18 judged documents whose grades follow a latent quality
    value, plus 4 never-judged distractors.  Ten systems rank the pool by
    latent quality blurred with increasing noise, so earlier systems are
    genuinely better.  Returns the schema/qrels/run texts alongside plain
    dict views (judged grades, per-run rankings) for the reference side.
    """
    rng = random.Random(seed)
    topics = [f"t{i:02d}" for i in range(50)]
    run_tags = [f"s{i}" for i in range(10)]
    judged = {}
    quality = {}
    pools = {}
    qrels_lines = ["# aspects: relevance correctness credibility"]
    for topic in topics:
        docs = [f"{topic}-d{j:02d}" for j in range(18)]
        distractors = [f"{topic}-x{j}" for j in range(4)]
        pools[topic] = docs + distractors
        for doc in docs:
            u = rng.random()
            quality[(topic, doc)] = u
            grades = []
            for n_grades in SYNTH_GRADES:
                blurred = min(0.999, max(0.0, u + rng.gauss(0.0, 0.18)))
                grades.append(int(blurred * n_grades))
            judged[(topic, doc)] = tuple(grades)
            qrels_lines.append(f"{topic} 0 {doc} {grades[0]} {grades[1]} {grades[2]}")
        for doc in distractors:
            quality[(topic, doc)] = rng.random() * 0.5
    run_docs = {}
    run_texts = {}
    for position, tag in enumerate(run_tags):
        sigma = 0.05 + 0.12 * position
        per_topic = {}
        lines = []
        for topic in topics:
            keyed = sorted(
                pools[topic],
                key=lambda d: (-(quality[(topic, d)] + rng.gauss(0.0, sigma)), d),
            )
            retrieved = keyed[:15]
            per_topic[topic] = retrieved
            for rank, doc in enumerate(retrieved, start=1):
                lines.append(f"{topic} Q0 {doc} {rank} {float(100 - rank)} {tag}")
        run_docs[tag] = per_topic
        run_texts[tag] = "\n".join(lines) + "\n"
    return {
        "schema_text": SYNTH_SCHEMA,
        "qrels_text": "\n".join(qrels_lines) + "\n",
        "run_texts": run_texts,
        "run_docs": run_docs,
        "judged": judged,
    }
