"""Shared machinery of the repository benchmark.

Everything here observes the program from the outside: it builds the
synthetic DBLP dataset, samples the paper's planted-tree queries from a
seed, times calls into each layer's public functions, reads public
result fields (``SearchStats`` counters, ``OutputAnswer.output_at``,
``QueryResponse.elapsed``/``cached``, ``MutationResult``) and checks
that every answer is a valid one.  It never reads the program's own
span tree, so a change to the program's telemetry cannot change what
the benchmark attributes to a layer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Scratch files (snapshots, WALs) live here while a run is going; the
#: directory is removed when the run ends.
WORK_DIR = ROOT / ".perfbench_work"
#: Traced runs write their span log here.
OUT_DIR = ROOT / ".perfbench_out"

#: Inherited variables that would change what is measured: the
#: expansion backend, the snapshot storage tier, the dataset scale of
#: the older benches and their JSON side channel.  They are cleared
#: before the program is imported, and the cleared values are recorded.
PINNED_ENV = (
    "REPRO_EXPANSION_BACKEND",
    "REPRO_SNAPSHOT_MODE",
    "REPRO_SCALE",
    "BENCH_JSON_OUT",
)

#: One dataset for every workload: DBLP ``scaled(DATASET_SCALE)`` with
#: the generator's fixed data seed.  The benchmark seed never reaches
#: the dataset, only the query and mutation generator.
DATASET_SCALE = 0.1
DATASET_NAME = "dblp"
#: Top-k of every request (the paper's setting).
TOP_K = 10
ALGORITHMS = ("bidirectional", "si-backward", "mi-backward")
#: Planted join-network size the query keywords are drawn from (§5.4).
PLANTED_SIZE = 4


class BenchError(Exception):
    """The benchmark could not set up or run; no result is printed."""


def pin_environment() -> dict:
    """Clear :data:`PINNED_ENV` from this process (and so from every
    process it starts); return what was inherited."""
    cleared = {}
    for name in PINNED_ENV:
        value = os.environ.pop(name, None)
        if value is not None:
            cleared[name] = value
    return cleared


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro  # noqa: F401


# ----------------------------------------------------------------------
# dataset and query generation
# ----------------------------------------------------------------------
def build_database():
    from repro.datasets.dblp import DblpConfig, make_dblp

    return make_dblp(DblpConfig().scaled(DATASET_SCALE))


def build_engine(db=None):
    from repro import KeywordSearchEngine

    return KeywordSearchEngine.from_database(db if db is not None else build_database())


#: The query classes every query list cycles through: keyword count
#: (2-4) crossed with the paper's §5.4 origin class.  These decide which
#: algorithm wins, so each run holds them in equal shares.
QUERY_CLASSES = tuple(
    (n_keywords, origin)
    for origin in ("small", "large")
    for n_keywords in (2, 3, 4)
)


def sample_queries(
    db, engine, rng: random.Random, count: int, classes=QUERY_CLASSES, distinct: bool = True
) -> list[tuple[str, ...]]:
    """``count`` keyword tuples from the paper's planted-tree generator,
    cycling through ``classes`` (keyword count, origin class); distinct
    ones unless ``distinct`` is false, when a query recurs as often as
    the generator draws it.

    The list depends on ``rng`` alone and is never filtered by how long
    a query takes to run.
    """
    from repro.workload.generator import WorkloadGenerator

    generator = WorkloadGenerator(db, engine.graph, engine.index)
    queries: list[tuple[str, ...]] = []
    seen: set[frozenset] = set()
    misses = 0
    while len(queries) < count:
        n_keywords, origin = classes[len(queries) % len(classes)]
        query = generator.sample_query(
            rng,
            n_keywords=n_keywords,
            result_size=PLANTED_SIZE,
            origin_class=origin,
        )
        key = frozenset(query.keywords) if query is not None else None
        if query is None or (distinct and key in seen):
            misses += 1
            if misses > 50 * count:
                raise BenchError("the query generator cannot fill the query list")
            continue
        seen.add(key)
        queries.append(tuple(query.keywords))
    return queries


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def digest(obj) -> str:
    """Short stable digest of a JSON-able object (query lists, counts)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
class AnswerChecker:
    """Checks that a search result is made of valid answers.

    Every answer tree must hold, per keyword, a root-to-node path that
    ends in that keyword's node set, use only edges of the graph it was
    searched on and be a minimal rooting (paper §3); a result holds at
    most :data:`TOP_K` answers.

    Score order is counted, not failed: the §4.5 output bound is a
    heuristic under activation-ordered frontiers (the paper says so and
    ``repro.core.driver`` documents it), so an answer may follow one it
    outscores.  :func:`order_inversions` counts those, and the per-layer
    metrics report them per algorithm.
    """

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, what: str, result, keyword_sets, graph) -> bool:
        problem = self._problem(result, keyword_sets, graph)
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            return False
        return True

    def fail(self, what: str, problem: str) -> None:
        self.failures.append(f"{what}: {problem}")

    @staticmethod
    def _problem(result, keyword_sets, graph) -> Optional[str]:
        answers = result.answers
        if not answers:
            return "no answers"
        if len(answers) > TOP_K:
            return f"{len(answers)} answers for top-{TOP_K}"
        for rank, answer in enumerate(answers):
            tree = answer.tree
            if len(tree.paths) != len(keyword_sets):
                return f"answer {rank} has {len(tree.paths)} paths"
            for path, nodes in zip(tree.paths, keyword_sets):
                if not path or path[0] != tree.root:
                    return f"answer {rank} has a path not starting at its root"
                if path[-1] not in nodes:
                    return f"answer {rank} misses a keyword's node set"
                for u, v in zip(path, path[1:]):
                    if not any(target == v for target, _, _ in graph.out_edges(u)):
                        return f"answer {rank} uses edge {u}->{v}, not in the graph"
            if not tree.is_minimal():
                return f"answer {rank} is not a minimal rooting"
        return None


def order_inversions(scores: Sequence[float]) -> int:
    """Answers that score above the answer output just before them."""
    return sum(1 for before, after in zip(scores, scores[1:]) if after > before)


def signatures_from_wire(answers: Sequence[dict]) -> list:
    """Rotation-invariant answer identities from wire answer dicts: the
    node set plus the undirected edge set of each tree."""
    out = []
    for answer in answers:
        paths = answer["tree"]["paths"]
        nodes = frozenset(node for path in paths for node in path)
        edges = frozenset(
            frozenset(edge) for path in paths for edge in zip(path, path[1:])
        )
        out.append((nodes, edges))
    return out


# ----------------------------------------------------------------------
# tracing: spans recorded by the benchmark around calls into each layer
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans, one per call into a layer's public function.

    A span is ``{"id", "parent", "workload", "request", "layer", "name",
    "start", "end"}`` with ``perf_counter`` seconds (a clock shared by
    every process on the machine).  Disabled, it records nothing and
    :meth:`instrument` leaves objects untouched, which is how untraced
    runs measure the end-to-end metrics with tracing off.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str, request: Optional[str] = None, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        record = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "workload": self.workload,
            "request": request if request is not None else (parent or {}).get("request"),
            "layer": layer,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def instrument(self, obj, method: str, layer: str, name: str) -> None:
        """Time every call of ``obj.<method>`` as a span (instance-level
        wrapper; nested calls into the same layer record only the
        outermost one)."""
        if not self.enabled or getattr(getattr(obj, method), "_perfbench", False):
            return
        original = getattr(obj, method)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["layer"] == layer:
                return original(*args, **kwargs)
            with self.span(layer, name):
                return original(*args, **kwargs)

        timed._perfbench = True
        setattr(obj, method, timed)

    def add(self, record: dict) -> None:
        """Adopt a span recorded elsewhere (another process) under a new
        id."""
        with self._lock:
            self.spans.append(dict(record, id=next(self._ids), workload=self.workload))

    def by_layer(self, layer: str, name: Optional[str] = None) -> list[dict]:
        return [
            span
            for span in self.spans
            if span["layer"] == layer and (name is None or span["name"] == name)
        ]

    def children(self) -> dict:
        out: dict = {}
        for span in self.spans:
            if span["parent"] is not None:
                out.setdefault(span["parent"], []).append(span)
        return out

    def write(self, seed: int) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{self.workload}-seed{seed}.json"
        with open(path, "w") as handle:
            json.dump({"workload": self.workload, "seed": seed, "spans": self.spans}, handle)
        return path


def duration(span: dict) -> float:
    return span["end"] - span["start"]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); 0.0 for no values."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Per cent more busy time the traced pass took over the requests
    the untraced pass also served (a prefix of the traced ones)."""
    return (sum(traced[: len(untraced)]) / sum(untraced) - 1.0) * 100.0


class SetupTimer:
    """Times a workload's set-up ``repeats`` times; :attr:`seconds` is
    the median.

    One set-up takes about ten milliseconds, and a shared host has fast
    and slow spells a second or two long, so set-ups timed back to back
    all land in one spell and the median follows the spell.  The first
    set-up serves the run; each spare one is made between two requests,
    spread evenly over the run, and closed at once, so the median
    samples the same spells as the rest of the run.
    """

    def __init__(self, make: Callable[[], object], close: Callable[[object], None], repeats: int, requests: int):
        self.make = make
        self.close = close
        self.every = max(1, requests // repeats)
        self.spares = repeats - 1
        self.times: list[float] = []

    def setup(self):
        start = time.perf_counter()
        value = self.make()
        self.times.append(time.perf_counter() - start)
        return value

    def between(self, number: int) -> None:
        """Call before request ``number``: makes, times and closes a
        spare set-up when one is due."""
        if self.spares and number and number % self.every == 0:
            self.spares -= 1
            self.close(self.setup())

    def finish(self) -> None:
        """Makes the spare set-ups a short run left over."""
        while self.spares:
            self.spares -= 1
            self.close(self.setup())

    @property
    def seconds(self) -> float:
        return median(self.times)


def rss_peak_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child) in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment_info(graph, cleared: dict) -> dict:
    import importlib.util

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "dataset": f"{DATASET_NAME} scaled({DATASET_SCALE})",
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "cleared_env": cleared,
    }
