"""Schema verification: tuple space, order and dominance check per metric.

Run as a child process to time ``verify_s`` after import::

    python bench/verify.py SCHEMA_FILE...

It parses every schema, then verifies the whole set, repeating it until
MIN_SECONDS have passed (at least once), and prints one JSON object:
the time of each repetition, the number of schemas, and the files whose
check did not return True.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from aspecteval.order import Metric, build_order, check_extends_partial_order
from aspecteval.schema import build_tuple_space, parse_schema

# a small schema verifies in under a millisecond: repeat the set this long
MIN_SECONDS = 0.5


def verify_one(schema) -> bool:
    space = build_tuple_space(schema)
    return all(
        check_extends_partial_order(build_order(space, schema, metric), schema)
        for metric in Metric
    )


def load(paths) -> dict[str, object]:
    return {str(p): parse_schema(Path(p).read_text()) for p in paths}


def verify_set(schemas: dict[str, object]) -> list[str]:
    """Names of the schemas whose orders do not extend dominance (or raise)."""
    failed = []
    for name, schema in schemas.items():
        try:
            ok = verify_one(schema)
        except Exception as exc:  # reported as a failed operation, not a crash
            print(f"verify {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            failed.append(name)
    return failed


def main(paths) -> int:
    schemas = load(paths)
    times, failed = [], set()
    started = time.perf_counter()
    while not times or time.perf_counter() - started < MIN_SECONDS:
        t0 = time.perf_counter()
        failed.update(verify_set(schemas))
        times.append(time.perf_counter() - t0)
    print(json.dumps({"times": times, "schemas": len(schemas), "failed": sorted(failed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
