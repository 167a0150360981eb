"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py --seconds 8

For each workload, runs the traced benchmark twice with one seed and
once with another.  The two same-seed runs must report identical
counts (every ``count``, ``bytes`` and count-derived ``ratio`` metric),
the other seed must draw a different query list, and the dataset must
not change with the seed (the seed reaches only the query and mutation
generator).  Exits non-zero on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold-search", "fleet-hot", "live-writes")
#: Ratios of two times, not of two counts.
TIMED_RATIOS = {"live.overlay_ratio"}
#: Each WAL record (one commit of five mutations) carries its
#: wall-clock commit time, printed with as many digits as the float
#: needs, so a record's size may differ by a byte or two between runs.
WAL_STAMP_BYTES_PER_MUTATION = 2 / 5


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({completed.returncode}):\n{completed.stderr}")
    info = next(json.loads(line.split(" info ", 1)[1]) for line in lines if line.startswith("perfbench: info "))
    return info, json.loads(lines[-1])


def _counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "bytes") or (metric["unit"] == "ratio" and name not in TIMED_RATIOS)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    problems = []
    for workload in args.workload or WORKLOADS:
        first_info, first = _run(workload, args.seed, args.seconds)
        second_info, second = _run(workload, args.seed, args.seconds)
        other_info, _ = _run(workload, args.seed + 1, args.seconds)
        a, b = _counts(first), _counts(second)
        for name in sorted(a):
            allowed = WAL_STAMP_BYTES_PER_MUTATION if name == "wal.bytes_per_mutation" else 0.0
            if abs(a[name] - b[name]) > allowed:
                problems.append(f"{workload}: {name} = {a[name]} then {b[name]} with one seed")
        lists = {key for key in ("query_list", "pool") if key in first_info}
        for key in lists:
            if first_info[key] != second_info[key]:
                problems.append(f"{workload}: {key} differs with one seed")
            if first_info[key] == other_info[key]:
                problems.append(f"{workload}: {key} is the same for seeds {args.seed} and {args.seed + 1}")
        for key in ("nodes", "edges", "dataset"):
            if first_info[key] != other_info[key]:
                problems.append(f"{workload}: the dataset's {key} changed with the seed")
        print(f"{workload}: {len(a)} counts compared, query list {'/'.join(sorted(lists))} checked")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
