"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload cold-search --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with the benchmark's tracing off; ``--trace 1`` records spans
around the calls into each layer, prints the per-layer metrics and
writes the spans to ``.perfbench_out/``.  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every check passed; 1 when an answer or a
durability check failed (the result line then says ``"correct":
false``); 2 when the run could not be set up or was invalid, with no
result line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, WORK_DIR, BenchError, import_program, pin_environment  # noqa: E402

WORKLOADS = ("cold-search", "fleet-hot", "live-writes")


def _load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _workload_module(name: str):
    if name == "cold-search":
        import cold_search as module
    elif name == "fleet-hot":
        import fleet_hot as module
    else:
        import live_writes as module
    return module


def _metrics(spec: dict, values: dict, trace: bool) -> dict:
    """Every metric of the run's kind, in ``BENCHMARK.json`` order.

    An end-to-end metric must have been measured.  A per-layer metric
    a workload does not exercise (the HTTP layer on ``cold-search``,
    say) reads 0: that layer did no such work on this workload.
    """
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in values and not trace:
            raise BenchError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    trace = bool(args.trace)

    cleared = pin_environment()
    try:
        spec = _load_spec()
        import_program()
        module = _workload_module(args.workload)
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        WORK_DIR.mkdir()
        try:
            result = module.run(args.seed, args.seconds, trace, cleared)
        finally:
            shutil.rmtree(WORK_DIR, ignore_errors=True)
        metrics = _metrics(spec, result["per_layer" if trace else "end_to_end"], trace)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    failures = result["failures"]
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if trace:
        path = result["log"].write(args.seed)
        print(f"perfbench: spans written to {path.relative_to(ROOT)}")
    print("perfbench: info " + json.dumps(result["info"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"perfbench: {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
