#!/usr/bin/env python3
"""aspecteval benchmark: seeded batch workloads, timed end to end.

    python3 bench/run.py --workload shallow-many --seed 1 --seconds 56 --trace 0

Run from the root of a checkout.  The inputs are generated in-process from
``--seed`` under ``.bench_work/`` and removed afterwards.  With ``--trace 0``
every CLI call runs as a child process (``python -m aspecteval.cli`` from
``src/``), one at a time, and the end-to-end metrics are medians over the
samples that fit in ``--seconds`` (the CLI calls run at least twice, so
outputs can be compared across repetitions).  With ``--trace 1`` the same
calls run once in-process with a span around every call into a module, and
the per-module metrics are reported.  Outputs are checked either way; a
failed check exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Workload, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_spans"

MIN_PASSES = 2
HARD_LIMIT_S = 170.0
# Kept back: use it only to check a gain claim, never while writing one.
HELD_BACK_SEED = 90210
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s", "evaluate_s": "s", "analyze_s": "s", "order_s": "s",
    "verify_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "schema.judged_us": "us", "measures.ndcg_s": "s", "measures.ap_s": "s",
    "measures.cells": "count", "measures.cell_us": "us",
    "ingest.qrels_s": "s", "ingest.runs_s": "s", "ingest.run_lines": "count",
    "ingest.corrections": "count",
    "schema.parse_s": "s", "schema.tuple_space_s": "s", "schema.tuples": "count",
    "order.build_s": "s", "order.weights_s": "s", "order.classes": "count",
    "order.check_s": "s", "order.schemas_checked": "count", "order.dump_s": "s",
    "analysis.dp_s": "s", "analysis.dp_pairs": "count", "analysis.dp_pair_ms": "ms",
    "analysis.dp_zero_spread": "count",
    "analysis.tau_s": "s", "analysis.tau_topics": "count",
    "analysis.tau_excluded": "count", "analysis.audit_s": "s",
    "reports.render_s": "s", "reports.parse_s": "s", "reports.bytes_out": "bytes",
    "cli.self_s": "s", "trace.overhead_s": "s",
}
# ROADMAP baselines the traced run checks: value and tolerance
CLAIM_JUDGED_SHARE = (0.87, 0.10)
CLAIM_DP_PAIR_MS = (39.5, 0.25)  # at 200 topics, B = 10000
CLAIM_AC3_S = (21.0, 0.25)  # 1000 AC3 schemas
CLAIM_AC3_CHECK_S = (17.0, 0.25)


def child_env() -> dict[str, str]:
    """The environment of every child: the sources on the path and every
    numpy/BLAS thread pool sized to the CPUs this process may use."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS})
    return env


class Ledger:
    """Operations attempted and the ids of those that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.messages: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, op, messages) -> None:
        if messages:
            self.failed.add(op)
            self.messages.extend(f"{op}: {m}" for m in messages)


def run_child(argv, log: Path, deadline: float) -> tuple[float, int, float]:
    """Run one child; returns (wall s, exit code, peak RSS MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(cmd, out: Path, scores: Path | None = None) -> list[str]:
    """``cmd``'s arguments writing under ``out``; ``{scores}`` is ``scores``,
    by default the ``evaluate`` output in ``out``."""
    scores = scores or out / "scores"
    argv = [a.replace("{scores}", str(scores)) for a in cmd.argv]
    return argv + ["--out", str(out / cmd.out)]


def analyze_labels(cmd) -> list[str]:
    return [Path(a).name[len("scores_"):-len(".tsv")] for a in cmd.argv if "{scores}" in a]


def check_pass(w: Workload, out: Path, ledger: Ledger, tag) -> None:
    """Full output checks on one pass's outputs."""
    # checks, tracing and aspecteval import numpy, which sizes its thread
    # pools on first import: they are imported only after main() sizes them.
    import checks

    def guarded(op, fn, *args):
        try:
            ledger.fail(op, fn(*args))
        except Exception as exc:  # a malformed output is a failed check
            ledger.fail(op, [f"{type(exc).__name__}: {exc}"])

    guarded((tag, "evaluate"), checks.check_scores, out / "scores", w)
    if w.check_cells:
        guarded((tag, "evaluate"), checks.check_cells, out / "scores", w)
    for cmd in w.commands:
        if cmd.name == "analyze":
            guarded((tag, "analyze"), checks.check_reports, out / "reports",
                    analyze_labels(cmd))
    guarded((tag, "order"), checks.check_order_dump, out / "order.txt", w)


def timed_run(w: Workload, work: Path, seconds: float, hard_deadline: float, ledger: Ledger):
    """Time every call, each in a child writing into a fresh directory.

    The first pass runs every call, and the CLI calls run in MIN_PASSES
    passes so their outputs can be compared.  The rest of ``seconds`` goes
    to more samples, one call at a time, among the calls whose last duration
    says they end in time: the one whose children have taken the least time
    so far.  So the short calls, whose timings vary most, get the most
    samples, spread over the run.
    """
    import checks

    started = time.perf_counter()
    samples = {name: [] for name in END_TO_END if name != "peak_rss_mb"}
    rss, outs = [], []
    commands = {cmd.name: cmd for cmd in w.commands}
    calls = ["setup", *commands, "verify"]
    argvs = {
        "setup": [sys.executable, "-c", "import aspecteval.cli"],
        "verify": [sys.executable, str(BENCH / "verify.py"), *map(str, w.verify_schemas)],
    }
    last: dict[str, float] = {}
    spent = dict.fromkeys(calls, 0.0)
    scores = None

    def run_call(call: str, out: Path) -> None:
        nonlocal scores
        if out not in outs:
            out.mkdir(parents=True)
            outs.append(out)
        log = out / f"{call}.log"
        if call in commands:
            argv = [sys.executable, "-m", "aspecteval.cli",
                    *cli_argv(commands[call], out, scores)]
            ledger.attempt()
        else:
            argv = argvs[call]
            ledger.attempt(len(w.verify_schemas) if call == "verify" else 1)
        last[call], code, mb = run_child(argv, log, hard_deadline)
        spent[call] += last[call]
        rss.append(mb)
        if call == "verify":
            try:
                report = json.loads(log.read_text().splitlines()[-1])
                samples["verify_s"].extend(report["times"])
                for name in report["failed"]:
                    ledger.fail((out.name, name), ["check_extends_partial_order is not True"])
            except (ValueError, IndexError, KeyError):
                for path in w.verify_schemas:
                    ledger.fail((out.name, str(path)), [f"verify child exit {code}, no report"])
            return
        samples[f"{call}_s"].append(last[call])
        if code != 0:
            ledger.fail((out.name, call), [f"exit {code}, see {log.name}"])
        if call == "evaluate":
            scores = out / "scores"

    required = [(0, call) for call in calls]
    required += [(n, call) for n in range(1, MIN_PASSES) for call in commands]
    for n, call in required:
        if time.perf_counter() + last.get(call, 0.0) <= hard_deadline:
            run_call(call, work / f"pass{n}")
    end = min(started + seconds, hard_deadline)
    while True:
        now = time.perf_counter()
        fits = [c for c in last if now + last[c] <= end]
        if not fits:
            break
        call = min(fits, key=spent.get)
        run_call(call, work / f"extra{len(outs)}")

    def outputs(out: Path) -> dict[str, str]:
        return {k: v for k, v in checks.digests(out).items() if not k.endswith(".log")}

    first = outputs(outs[0])
    for out in outs[1:]:
        ledger.fail((out.name, "determinism"), checks.compare_digests(first, outputs(out)))
    check_pass(w, outs[0], ledger, 0)
    for name, v in samples.items():
        if not v:  # every call of it failed
            ledger.fail(("metric", name), ["no samples"])
            v.append(0.0)
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    # One verification of a small schema takes under a millisecond, so
    # verify_s is the fastest repetition, as timeit reports, not the median.
    metrics["verify_s"] = min(samples["verify_s"])
    metrics["peak_rss_mb"] = max(rss)
    return metrics, samples, first


def traced_run(w: Workload, work: Path, hard_deadline: float, ledger: Ledger):
    import aspecteval.cli as cli
    import aspecteval.measures as measures
    from aspecteval.schema import GroundTruth

    import checks
    import tracing
    import verify

    setup_s, _, _ = run_child([sys.executable, "-c", "import aspecteval.cli"],
                              work / "setup.log", hard_deadline)
    out = work / "trace"
    out.mkdir(parents=True)
    tracer = tracing.Tracer(w.name)
    captured = {}

    def keep_score_runs(args, kwargs, result):
        captured.setdefault("call", (args, kwargs))
        return tracing.COUNTS["measures.score_runs"](args, kwargs, result)

    targets = tracing.targets(cli, [measures, verify])
    targets = [(m, a, n, keep_score_runs if a == "score_runs" else c) for m, a, n, c in targets]
    targets.append((GroundTruth, "judged", "schema.judged", None))
    with tracing.instrument(tracer, targets):
        for cmd in w.commands:
            ledger.attempt()
            with tracer.span(f"cli.{cmd.name}"):
                try:
                    code = cli.main(cli_argv(cmd, out))
                except Exception as exc:  # a crash is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                ledger.fail(("trace", cmd.name), [f"cli.main returned {code}"])
        ledger.attempt(len(w.verify_schemas))
        with tracer.span("verify"):
            failed = verify.verify_set(verify.load(w.verify_schemas))
        for name in failed:
            ledger.fail(("trace", "verify", name), ["check_extends_partial_order is not True"])
        # score_runs once per kind, as the CLI called it otherwise
        if "call" in captured:
            args, kwargs = captured["call"]
            for kind in kwargs.get("kinds", ()):
                with tracer.span(f"measures.{kind}"):
                    measures.score_runs(*args, **dict(kwargs, kinds=(kind,)))
    check_pass(w, out, ledger, "trace")
    judged_us = probe_judged(captured["call"][0][1]) if "call" in captured else 0.0
    result = summarize(w, tracer, setup_s, judged_us, tracing.span_cost())
    # counts are fixed by the workload: a change must keep them, not lower them
    cells = w.size.runs * w.size.topics * len(checks.SCORE_LABELS)
    if result[0]["measures.cells"] != cells:
        ledger.fail(("trace", "measures.cells"),
                    [f"{result[0]['measures.cells']} cells scored, the workload has {cells}"])
    SPANS.mkdir(exist_ok=True)
    path = SPANS / f"{w.name}-seed{w.seed}.json"
    path.write_text(json.dumps(tracer.records()))
    print(f"{len(tracer.spans)} spans written to {path}")
    return result


def probe_judged(gt, min_seconds: float = 0.2) -> float:
    """Mean microseconds per ``GroundTruth.judged`` call over all topics."""
    topics = gt.topics()
    calls = 0
    t0 = time.perf_counter()
    while calls == 0 or time.perf_counter() - t0 < min_seconds:
        for topic in topics:
            gt.judged(topic)
        calls += len(topics)
    return (time.perf_counter() - t0) / calls * 1e6


COMMAND_METRIC = {"cli.evaluate": "evaluate_s", "cli.analyze": "analyze_s",
                  "cli.order": "order_s", "verify": "verify_s"}


# spans whose self time inside the traced commands is reported as <name>_s
MODULE_SPANS = (
    "ingest.qrels", "ingest.runs", "schema.parse", "schema.tuple_space", "order.build",
    "order.weights", "order.check", "order.dump", "analysis.dp", "analysis.tau",
    "analysis.audit", "reports.render", "reports.parse",
)


def summarize(w: Workload, tracer, setup_s: float, judged_us: float, span_cost: float):
    import tracing

    spans = tracer.spans
    own = tracing.self_times(spans)
    root = tracing.roots(spans)
    commands = {i for i, sp in enumerate(spans) if sp[3] < 0 and sp[0] in COMMAND_METRIC}
    per_name: dict[str, list[float]] = {}
    own_in_commands: dict[str, float] = {}
    counts: dict[str, int] = {}
    shares: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, c) in enumerate(spans):
        cell = per_name.setdefault(name, [0, 0.0, 0.0])
        cell[0] += 1
        cell[1] += end - start
        cell[2] += own[i]
        if root[i] not in commands:
            continue
        own_in_commands[name] = own_in_commands.get(name, 0.0) + own[i]
        for key, value in (c or {}).items():
            counts[key] = counts.get(key, 0) + value
        module = name.split(".")[0] if "." in name else "bench"
        by_module = shares.setdefault(COMMAND_METRIC[spans[root[i]][0]], {})
        by_module[module] = by_module.get(module, 0.0) + own[i]

    def probe(name):
        return sum(sp[2] - sp[1] for sp in spans if sp[0] == name and sp[3] < 0)

    ndcg_s, ap_s = probe("measures.ndcg"), probe("measures.ap")
    judged_in_probes = sum(
        sp[2] - sp[1] for i, sp in enumerate(spans)
        if sp[0] == "schema.judged" and spans[root[i]][0] in ("measures.ndcg", "measures.ap")
    )
    m = {f"{name}_s": own_in_commands.get(name, 0.0) for name in MODULE_SPANS}
    m.update(counts)
    cells, pairs = counts.get("measures.cells", 0), counts.get("analysis.dp_pairs", 0)
    m.update({
        "schema.judged_us": judged_us,
        "measures.ndcg_s": ndcg_s,
        "measures.ap_s": ap_s,
        "measures.cell_us": (ndcg_s + ap_s) / cells * 1e6 if cells else 0.0,
        "order.schemas_checked": len(w.verify_schemas),
        "analysis.dp_pair_ms": m["analysis.dp_s"] / pairs * 1e3 if pairs else 0.0,
        "cli.self_s": sum(own[i] for i in commands if spans[i][0].startswith("cli.")),
        "trace.overhead_s": len(spans) * span_cost + per_name.get("trace.count", [0, 0.0])[1],
    })
    for name in PER_LAYER:
        m.setdefault(name, 0)
    wall = {COMMAND_METRIC[spans[i][0]]: spans[i][2] - spans[i][1] for i in commands}
    claims = check_claims(w, m, judged_in_probes, wall)
    return m, per_name, shares, wall, setup_s, claims


def _verdict(measured: float, claim: tuple[float, float], relative: bool = True) -> str:
    value, tol = claim
    off = abs(measured - value) / value if relative else abs(measured - value)
    return "holds" if off <= tol else "does not hold"


def check_claims(w: Workload, m, judged_in_probes: float, wall) -> list[str]:
    """The ROADMAP's three baselines, restated at this workload's size."""
    lines = []
    scoring = m["measures.ndcg_s"] + m["measures.ap_s"]
    if "judged" in w.claims and scoring:
        share = judged_in_probes / scoring
        lines.append(
            f"judged share of score_runs: {share:.1%} at {w.size.runs} runs x "
            f"{w.size.topics} topics x {w.size.judged} judged "
            f"(claim 87% at 40x200x200): {_verdict(share, CLAIM_JUDGED_SHARE, False)}"
        )
    boot = m["analysis.dp_pairs"] - m["analysis.dp_zero_spread"]
    if "bootstrap" in w.claims and boot:
        # the bootstrap draws B x topics indices per pair
        per_pair = m["analysis.dp_s"] / boot * 1e3 * (200 / w.size.topics) * (10000 / w.bootstrap)
        lines.append(
            f"bootstrap per pair scaled to 200 topics, B=10000: {per_pair:.1f} ms "
            f"(measured {w.size.topics} topics, B={w.bootstrap}; claim 39.5 ms): "
            f"{_verdict(per_pair, CLAIM_DP_PAIR_MS)}"
        )
    if "ac3" in w.claims:
        scale = 1000 / w.size.random_schemas
        total, check = wall["verify_s"] * scale, m["order.check_s"] * scale
        lines.append(
            f"AC3 scaled from {w.size.random_schemas} schemas: {total:.1f} s, dominance "
            f"check {check:.1f} s (claim 21 s, 17 s): "
            f"{_verdict(total, CLAIM_AC3_S)}, {_verdict(check, CLAIM_AC3_CHECK_S)}"
        )
    return lines


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:  # no git installed
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def identity(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "held_back_seed": HELD_BACK_SEED,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_timed(metrics, samples, ledger) -> None:
    for name, unit in END_TO_END.items():
        extra = ("  max over children" if name == "peak_rss_mb" else
                 f"  best of {len(samples[name])}" if name == "verify_s" else
                 f"  median of {len(samples[name])}")
        print(f"{name:<14} {metrics[name]:>12.4f} {unit:<6}{extra}")
    ratio = len(ledger.failed) / ledger.attempted
    print(f"{'failed_ratio':<14} {ratio:>12.4f} {'ratio':<6}  "
          f"{len(ledger.failed)}/{ledger.attempted} operations")


def print_traced(result) -> None:
    m, per_name, shares, wall, setup_s, claims = result
    print("span                        calls      total_s       self_s")
    for name in sorted(per_name):
        calls, total, own = per_name[name]
        print(f"{name:<26} {calls:>7} {total:>12.4f} {own:>12.4f}")
    print(f"\nmodule share of each command (in-process time plus start-up {setup_s:.3f} s)")
    for metric, modules in shares.items():
        # verify_s is timed after import, the CLI calls include start-up
        startup = 0.0 if metric == "verify_s" else setup_s
        whole = wall[metric] + startup
        parts = [f"startup {startup / whole:.1%}"]
        parts += [f"{mod} {t / whole:.1%}" for mod, t in sorted(modules.items(), key=lambda kv: -kv[1])]
        print(f"  {metric:<10} {whole:8.3f} s: " + ", ".join(parts))
    print(f"\ntracing overhead: {m['trace.overhead_s']:.4f} s")
    for line in claims:
        print("claim: " + line)
    print()
    for name, unit in PER_LAYER.items():
        print(f"{name:<24} {m[name]:>14.4f} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aspecteval" / "cli.py").is_file():
        print(f"error: no aspecteval sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so children are stopped and files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update(child_env())
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    hard_deadline = started + HARD_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    ledger = Ledger()
    try:
        w = generate(args.workload, args.seed, work / "inputs")
        if args.trace:
            result = traced_run(w, work, hard_deadline, ledger)
            metrics, units = result[0], PER_LAYER
        else:
            metrics, samples, hashes = timed_run(
                w, work, args.seconds, hard_deadline, ledger)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    record = {"identity": identity(args.workload, args.seed), "failures": ledger.messages}
    if args.trace:
        print_traced(result)
        record["spans"] = result[1]
    else:
        print_timed(metrics, samples, ledger)
        record["samples"] = samples
        record["sha256"] = hashes
    for message in ledger.messages:
        print("FAILED " + message)
    print("record " + json.dumps(record, sort_keys=True))
    correct = not ledger.failed
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
