"""``live-writes``: reads and durable commits on one live dataset.

One in-process caller, closed loop, ``QueryService`` over a
``MutableDataset`` with the default compaction policy and a WAL with
the default ``"batched"`` sync.  Reads are drawn from the seeded
query generator; after every :data:`READS_PER_COMMIT` reads a batch adds a paper
with a unique title term plus its ``writes`` node and edges, and a
probe query for that term follows the commit at once.  Each commit
bumps the dataset version, which shreds the result cache, so reads
re-run on the overlay graph, and every commit pays for durability.

A run is several rounds, each on a freshly set-up dataset and long
enough for the default policy to compact once, so the base does not
grow without bound over a run.  After the run each round's WAL is
replayed into a fresh dataset, which must land on the round's version
with every acknowledged paper still there.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

from harness import (
    DATASET_NAME,
    TOP_K,
    WORK_DIR,
    AnswerChecker,
    SetupTimer,
    SpanLog,
    build_database,
    build_engine,
    digest,
    overhead_pct,
    duration,
    environment_info,
    median,
    percentile,
    sample_queries,
    rss_peak_mb,
)
from layers import core_metrics, index_metrics, service_metrics

#: Reads are two-keyword queries of both origin classes in equal
#: shares, each drawn afresh from the generator (a query recurs as often
#: as the generator draws it), so a run's latencies hinge on no
#: seed-drawn handful of queries.  Every commit shreds the cache, so a
#: recurring query is computed again.
READ_CLASSES = ((2, "small"), (2, "large"))
READS_PER_COMMIT = 1
#: Commits per round: the default policy compacts once the overlay
#: holds a quarter of the base's 964 edges, at the 49th five-mutation
#: commit, so every round compacts once.
COMMITS_PER_ROUND = 50
#: A run has ``--seconds`` over this many rounds (five at 28 s); a
#: round lasts about six seconds on a shared 2-core host.
SECONDS_PER_ROUND = 5.6
SETUP_REPEATS = 31
#: Frequent title words the inserted papers reuse besides their unique
#: term, so inserts also grow existing posting lists.
TITLE_WORDS = 40


def _setup(wal_path: Path):
    from repro import MutableDataset, QueryService

    dataset = MutableDataset.from_engine(build_engine())
    service = QueryService()
    service.register_mutable(DATASET_NAME, dataset, wal_path=wal_path)
    return dataset, service, wal_path


def _plan(seed: int, seconds: int):
    """The seeded rounds: each a list of ``("read", keywords)`` and
    ``("write", mutations, term)`` items."""
    from repro import AddEdge, AddNode

    db = build_database()
    engine = build_engine(db)
    rng = random.Random(seed)
    count = max(1, round(seconds / SECONDS_PER_ROUND))
    reads = count * COMMITS_PER_ROUND * READS_PER_COMMIT
    queries = iter(sample_queries(db, engine, rng, reads, READ_CLASSES, distinct=False))
    graph = engine.graph
    authors = [node for node in graph.nodes() if graph.table(node) == "author"]
    conferences = [node for node in graph.nodes() if graph.table(node) == "conference"]
    words = [term for term, _ in engine.index.terms_by_frequency()[:TITLE_WORDS]]
    rounds = []
    for number in range(count):
        plan = []
        for commit in range(COMMITS_PER_ROUND):
            for _ in range(READS_PER_COMMIT):
                plan.append(("read", next(queries)))
            cycle = number * COMMITS_PER_ROUND + commit
            term = f"livepaper{cycle}"
            title = " ".join([term] + rng.sample(words, 3))
            plan.append(
                (
                    "write",
                    [
                        AddNode(label=title, table="paper", text=title),
                        AddEdge(u=-1, v=rng.choice(conferences)),
                        AddNode(label=f"writes:{cycle}", table="writes"),
                        AddEdge(u=-2, v=-1),
                        AddEdge(u=-2, v=rng.choice(authors)),
                    ],
                    term,
                )
            )
        rounds.append(plan)
    return rounds


def _instrument(log: SpanLog, dataset) -> None:
    log.instrument(dataset.engine, "search", "repro.core", "KeywordSearchEngine.search")
    log.instrument(dataset.index, "lookup", "repro.index", "InvertedIndex.lookup")


def _pass(rounds, log: SpanLog, checker: AnswerChecker, wal_dir: Path, flat_engine=None) -> dict:
    """Serve every round on a fresh set-up; returns the observations."""
    wal_dir.mkdir()
    wal_paths = (wal_dir / f"wal-{n}" for n in itertools.count())
    requests = sum(len(plan) for plan in rounds)
    # Every round's set-up is timed; the spare ones make up the rest of
    # SETUP_REPEATS.
    timer = SetupTimer(
        lambda: _setup(next(wal_paths)), lambda made: made[1].close(),
        SETUP_REPEATS - len(rounds) + 1, requests,
    )
    observed = {"reads": [], "commits": [], "busy": [], "flat_ratios": [], "rounds": []}
    number = 0
    for plan in rounds:
        served = _round(plan, number, timer, log, checker, observed, flat_engine)
        observed["rounds"].append(served)
        number += len(plan)
    timer.finish()
    observed["setup_s"] = timer.seconds
    return observed


def _round(plan, number: int, timer: SetupTimer, log: SpanLog, checker: AnswerChecker,
           observed: dict, flat_engine) -> dict:
    """Set up, then run one round's plan; appends to ``observed`` and
    returns what the WAL replay checks."""
    from repro import MutableDataset

    dataset, service, wal_path = timer.setup()
    # Answers are checked against a twin dataset that gets the same
    # commits but serves no traffic, so checking warms no cache of the
    # dataset under test.
    twin = MutableDataset.from_engine(build_engine())
    # The caller's busy time per plan item: checks, the twin's commits
    # and the flat-base comparison searches are the benchmark's work.
    busy, commits = observed["busy"], []
    try:
        _instrument(log, dataset)
        for offset, item in enumerate(plan):
            timer.between(number + offset)
            request_id = f"l{number + offset}"
            if item[0] == "read":
                keywords = item[1]
                read = _read(service, log, request_id, keywords, "read")
                observed["reads"].append(read)
                busy.append(read["latency"])
                if flat_engine is not None and not read["response"].cached:
                    observed["flat_ratios"].append(_flat_ratio(log, flat_engine, keywords, request_id))
                _check_read(checker, twin, read, keywords)
                continue
            _, mutations, term = item
            sent = time.perf_counter()
            with log.span("repro.live", "QueryService.apply", request=request_id):
                outcome = service.apply(DATASET_NAME, mutations)
            applied = time.perf_counter()
            twin.mutate(mutations)
            _instrument(log, dataset)
            probe = _read(service, log, f"{request_id}p", (term,), "probe")
            probe["visible"] = probe["end"] - applied
            busy.append(applied - sent + probe["latency"])
            commits.append({"apply": applied - sent, "outcome": outcome, "term": term, "probe": probe})
            _check_read(checker, twin, probe, (term,))
            answer_nodes = {
                node
                for answer in (probe["response"].result.answers if probe["response"].ok else ())
                for node in answer.tree.nodes()
            }
            if outcome.new_nodes[0] not in answer_nodes:
                checker.fail(request_id, f"inserted paper {term!r} not found by the probe right after commit")
        version = service.dataset_version(DATASET_NAME)
    finally:
        service.close()
    observed["commits"].extend(commits)
    return {"commits": commits, "version": version, "wal_path": wal_path}


def _read(service, log: SpanLog, request_id: str, keywords, kind: str) -> dict:
    from repro import QueryRequest

    request = QueryRequest(DATASET_NAME, keywords, k=TOP_K)
    sent = time.perf_counter()
    with log.span("repro.service", "QueryService.search", request=request_id):
        response = service.search(request)
    end = time.perf_counter()
    return {"request": request_id, "kind": kind, "latency": end - sent, "end": end, "response": response}


def _flat_ratio(log: SpanLog, flat_engine, keywords, request_id: str) -> float:
    """Overlay search time over the same search on the flat base."""
    overlay = next(
        duration(span)
        for span in reversed(log.spans)
        if span["layer"] == "repro.core" and span["request"] == request_id
    )
    start = time.perf_counter()
    flat_engine.search(keywords, k=TOP_K)
    return overlay / (time.perf_counter() - start)


def _check_read(checker: AnswerChecker, twin, read: dict, keywords) -> None:
    response = read["response"]
    what = f"{read['request']} {' '.join(keywords)!r}"
    if not response.ok:
        checker.fail(what, f"{response.error_type}: {response.error}")
        return
    _, keyword_sets = twin.engine.resolve(keywords)
    checker.check(what, response.result, keyword_sets, twin.graph)


def _replay(served: dict, checker: AnswerChecker) -> float:
    """Replay a round's WAL into a fresh dataset; check it lands on the
    served version with every acknowledged paper; return its seconds."""
    from repro import MutableDataset

    base = build_engine()
    start = time.perf_counter()
    replayed = MutableDataset.replay(served["wal_path"], graph=base.graph, index=base.index)
    seconds = time.perf_counter() - start
    if replayed.version != served["version"]:
        checker.fail("wal replay", f"version {replayed.version}, served {served['version']}")
    for commit in served["commits"]:
        paper = commit["outcome"].new_nodes[0]
        if paper not in replayed.index.lookup(commit["term"]):
            checker.fail("wal replay", f"acknowledged paper {commit['term']!r} is missing")
    return seconds


def run(seed: int, seconds: int, trace: bool, cleared: dict) -> dict:
    rounds = _plan(seed, seconds)
    checker = AnswerChecker()
    log = SpanLog("live-writes", enabled=trace)
    untraced = None
    if trace:
        # The first third of the same rounds (at least one), tracing off,
        # fresh state: the base of trace.overhead_pct.
        untraced = _pass(
            rounds[: max(1, len(rounds) // 3)], SpanLog("live-writes", enabled=False),
            AnswerChecker(), WORK_DIR / "untraced",
        )
    measured = _pass(
        rounds, log, checker, WORK_DIR / "measured", flat_engine=build_engine() if trace else None
    )
    replay_s = [_replay(served, checker) for served in measured["rounds"]]
    # Operations: reads, commits and the probes that follow commits.
    operations = len(measured["reads"]) + 2 * len(measured["commits"])
    result = {
        "attempted": operations,
        "failures": checker.failures,
        "end_to_end": {
            "setup_s": measured["setup_s"],
            "qps": operations / sum(measured["busy"]),
            "latency_p50_ms": 1e3 * percentile((read["latency"] for read in measured["reads"]), 0.5),
            "rss_peak_mb": rss_peak_mb(),
        },
        "info": dict(
            environment_info(build_engine().graph, cleared),
            query_list=digest([item[1] for plan in rounds for item in plan if item[0] == "read"]),
            operations=operations,
            rounds=len(rounds),
            commits=len(measured["commits"]),
        ),
        "log": log,
    }
    if trace:
        result["per_layer"] = _layer_metrics(log, measured, median(replay_s))
        result["per_layer"]["trace.overhead_pct"] = overhead_pct(measured["busy"], untraced["busy"])
    return result


def _layer_metrics(log: SpanLog, measured: dict, replay_s: float) -> dict:
    responses = [(read["request"], "bidirectional", read["response"]) for read in measured["reads"]]
    responses += [
        (commit["probe"]["request"], "bidirectional", commit["probe"]["response"])
        for commit in measured["commits"]
    ]
    commits = measured["commits"]
    mutations = sum(commit["outcome"].applied for commit in commits)
    wal_bytes = sum(
        path.stat().st_size
        for served in measured["rounds"]
        for path in served["wal_path"].rglob("*")
        if path.is_file()
    )
    out = index_metrics(log)
    out.update(core_metrics(log, responses))
    out.update(service_metrics(log, responses))
    out.update(
        {
            "live.apply_p50_ms": 1e3 * median(commit["apply"] for commit in commits),
            "live.read_after_write_p50_ms": 1e3 * median(commit["probe"]["visible"] for commit in commits),
            "live.overlay_ratio": median(measured["flat_ratios"]),
            "live.compactions": sum(1 for commit in commits if commit["outcome"].compacted),
            "wal.bytes_per_mutation": wal_bytes / mutations,
            "wal.replay_s": replay_s,
        }
    )
    return out
