"""``cold-search``: one in-process caller, closed loop, every query new.

Each sampled query is issued once under each of the three algorithms,
in a seeded shuffled order, through ``QueryService.search`` with k=10.
The result cache never hits, so ``repro.core`` does almost all the
work; the service, cluster and HTTP layers do almost none.
"""

from __future__ import annotations

import random
import time

from harness import (
    ALGORITHMS,
    DATASET_NAME,
    TOP_K,
    AnswerChecker,
    SetupTimer,
    SpanLog,
    build_database,
    build_engine,
    digest,
    overhead_pct,
    environment_info,
    percentile,
    rss_peak_mb,
    sample_queries,
)
from layers import core_metrics, index_metrics, service_metrics

#: Sampled queries per second of ``--seconds`` (each is run under all
#: three algorithms).  ``qps`` is a mean, set by MI-Backward's heavy
#: tail on three- and four-keyword queries, so it takes this many
#: queries for it to repeat across seeds; a run then lasts one and a
#: half to two times ``--seconds`` on a shared 2-core host.
QUERIES_PER_SECOND = 3.375
SETUP_REPEATS = 31


def _setup():
    from repro import QueryService

    engine = build_engine()
    service = QueryService()
    service.register_engine(DATASET_NAME, engine)
    return engine, service


def _requests(seed: int, seconds: int) -> list[tuple[tuple[str, ...], str]]:
    db = build_database()
    engine = build_engine(db)
    rng = random.Random(seed)
    count = max(len(ALGORITHMS) * 2, round(seconds * QUERIES_PER_SECOND))
    queries = sample_queries(db, engine, rng, count)
    requests = [(query, algorithm) for query in queries for algorithm in ALGORITHMS]
    rng.shuffle(requests)
    return requests


def _pass(requests, log: SpanLog, checker: AnswerChecker, reference) -> dict:
    """Set up, then serve every request once; returns the observations."""
    from repro import QueryRequest

    timer = SetupTimer(_setup, lambda made: made[1].close(), SETUP_REPEATS, len(requests))
    engine, service = timer.setup()
    log.instrument(engine, "search", "repro.core", "KeywordSearchEngine.search")
    log.instrument(engine.index, "lookup", "repro.index", "InvertedIndex.lookup")
    observations = []
    try:
        for number, (keywords, algorithm) in enumerate(requests):
            timer.between(number)
            request_id = f"c{number}"
            request = QueryRequest(DATASET_NAME, keywords, algorithm=algorithm, k=TOP_K)
            sent = time.perf_counter()
            with log.span("repro.service", "QueryService.search", request=request_id):
                response = service.search(request)
            latency = time.perf_counter() - sent
            observations.append(
                {
                    "request": request_id,
                    "algorithm": algorithm,
                    "latency": latency,
                    "response": response,
                }
            )
            what = f"{request_id} {algorithm} {' '.join(keywords)!r}"
            if not response.ok:
                checker.fail(what, f"{response.error_type}: {response.error}")
                continue
            _, keyword_sets = reference.resolve(keywords)
            checker.check(what, response.result, keyword_sets, reference.graph)
        timer.finish()
    finally:
        service.close()
    # The caller's busy time per request: checking answers between
    # requests is the benchmark's work, not the program's.
    busy = [obs["latency"] for obs in observations]
    return {"setup_s": timer.seconds, "busy": busy, "observations": observations}


def run(seed: int, seconds: int, trace: bool, cleared: dict) -> dict:
    requests = _requests(seed, seconds)
    reference = build_engine()
    checker = AnswerChecker()
    log = SpanLog("cold-search", enabled=trace)
    untraced = None
    if trace:
        # The first quarter of the same requests, tracing off, fresh
        # state: the base of trace.overhead_pct.
        quarter = requests[: len(requests) // 4]
        untraced = _pass(quarter, SpanLog("cold-search", enabled=False), AnswerChecker(), reference)
    measured = _pass(requests, log, checker, reference)
    observations = measured["observations"]
    latencies = [obs["latency"] for obs in observations]
    result = {
        "attempted": len(observations),
        "failures": checker.failures,
        "end_to_end": {
            "setup_s": measured["setup_s"],
            "qps": len(observations) / sum(measured["busy"]),
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "rss_peak_mb": rss_peak_mb(),
        },
        "info": dict(
            environment_info(reference.graph, cleared),
            requests=len(requests),
            query_list=digest(requests),
        ),
        "log": log,
    }
    if trace:
        responses = [(obs["request"], obs["algorithm"], obs["response"]) for obs in observations]
        layer = {}
        layer.update(index_metrics(log))
        layer.update(core_metrics(log, responses))
        layer.update(service_metrics(log, responses))
        layer["trace.overhead_pct"] = overhead_pct(measured["busy"], untraced["busy"])
        result["per_layer"] = layer
    return result
