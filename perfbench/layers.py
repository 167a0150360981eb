"""Per-layer metrics derived from the benchmark's own spans and from
public result fields.

Counts are sums over the workload and repeat exactly for a fixed seed;
times are medians unless the name says otherwise.  Which end-to-end
metric each one should move is tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

from harness import ALGORITHMS, SpanLog, duration, median, order_inversions, percentile, ratio

#: ``SearchStats`` counters summed per algorithm.
CORE_COUNTERS = (
    "nodes_explored",
    "nodes_touched",
    "edges_explored",
    "heap_ops",
    "candidates_generated",
    "cascade_touches",
    "emit_attempts",
)


def _computed(responses):
    """``(request, algorithm, result)`` of the responses whose search
    ran the engine (not served from the cache)."""
    return [
        (request, algorithm, response.result)
        for request, algorithm, response in responses
        if response.ok and not response.cached and response.result is not None
    ]


def core_metrics(log: SpanLog, responses, engine_seconds=None) -> dict:
    """``core.<algorithm>.*`` plus ``index.posting_hits``.

    ``engine_seconds`` maps request id to the seconds its
    ``KeywordSearchEngine.search`` call took; by default it is read off
    the ``repro.core`` spans.
    """
    if engine_seconds is None:
        engine_seconds = {
            span["request"]: duration(span) for span in log.by_layer("repro.core")
        }
    computed = _computed(responses)
    out = {"index.posting_hits": sum(result.stats.resolve_hits for _, _, result in computed)}
    for algorithm in ALGORITHMS:
        runs = [(request, result) for request, name, result in computed if name == algorithm]
        stats = [result.stats for _, result in runs]
        prefix = f"core.{algorithm}."
        for counter in CORE_COUNTERS:
            out[prefix + counter] = sum(getattr(s, counter) for s in stats)
        out[prefix + "candidate_yield"] = ratio(
            sum(s.candidates_surviving for s in stats),
            sum(s.candidates_generated for s in stats),
        )
        out[prefix + "emit_yield"] = ratio(
            sum(s.answers_output for s in stats), sum(s.emit_attempts for s in stats)
        )
        out[prefix + "search_p50_ms"] = 1e3 * median(
            engine_seconds[request] for request, _ in runs if request in engine_seconds
        )
        out[prefix + "first_output_ms"] = 1e3 * median(
            result.answers[0].output_at for _, result in runs if result.answers
        )
        out[prefix + "order_inversions"] = sum(
            order_inversions(result.scores()) for _, result in runs
        )
        if algorithm == "bidirectional":
            pops_out = sum(s.pops_out for s in stats)
            out[prefix + "pops_out_share"] = ratio(
                pops_out, pops_out + sum(s.pops_in for s in stats)
            )
    return out


def service_metrics(log: SpanLog, responses) -> dict:
    """``service.*`` from the ``QueryService.search`` spans: self time
    (minus the engine call inside it) on computed requests, the whole
    call on cache hits."""
    children = log.children()
    cached = {request for request, _, response in responses if response.cached}
    self_times, hit_times = [], []
    for span in log.by_layer("repro.service", "QueryService.search"):
        if span["request"] in cached:
            hit_times.append(duration(span))
            continue
        engine = [c for c in children.get(span["id"], ()) if c["layer"] == "repro.core"]
        if engine:
            self_times.append(duration(span) - sum(duration(c) for c in engine))
    return {
        "service.self_p50_ms": 1e3 * median(self_times),
        "service.hit_p50_us": 1e6 * median(hit_times),
        "service.cache_hit_rate": ratio(len(cached), len(responses)),
        "service.errors": sum(1 for _, _, response in responses if not response.ok),
    }


def index_metrics(log: SpanLog) -> dict:
    return {
        "index.lookup_p50_us": 1e6
        * median(duration(span) for span in log.by_layer("repro.index"))
    }


def p99(values) -> float:
    return percentile(values, 0.99)
