"""The serving side of ``fleet-hot``: a 2-worker ``ShardedQueryService``
behind the HTTP front door, in a process of its own.

Started by ``fleet_hot.py`` (the load generator), never by hand.  It
talks JSON lines: on standard output it reports ``ready`` (port, the
set-up times, the snapshot's load time and size) and, after ``stop``,
``done`` (peak RSS and, when tracing, one record per
``ShardedQueryService.search`` call); on standard input it takes
``{"op": "trace", "on": bool}`` and ``{"op": "stop"}``.  It receives no
seed: every request it serves comes over HTTP.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    DATASET_NAME,
    WORK_DIR,
    build_engine,
    import_program,
    median,
    rss_peak_mb,
)

WORKERS = 2
LOAD_REPEATS = 5


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _start(engine, directory: Path):
    """Write the snapshot, spawn the fleet, warm it and open the front
    door: everything between start and ready-to-serve."""
    from repro import ShardedQueryService
    from repro.cluster.http import make_server
    from repro.service.snapshot import save_engine

    directory.mkdir(parents=True)
    snapshot = save_engine(directory / f"{DATASET_NAME}.snap", engine)
    service = ShardedQueryService(
        {DATASET_NAME: snapshot}, num_workers=WORKERS, default_replicas=WORKERS
    )
    try:
        service.warmup()
        server = make_server(service)
    except BaseException:
        service.close()
        raise
    thread = threading.Thread(target=server.serve_forever, name="perfbench-http")
    thread.start()
    return snapshot, service, server, thread


def _stop(service, server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
    service.close()


class CallRecorder:
    """Times ``ShardedQueryService.search`` from outside by shadowing it
    on the instance while tracing is on."""

    def __init__(self, service) -> None:
        self.service = service
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def on(self) -> None:
        original = type(self.service).search.__get__(self.service)

        def search(*args, **kwargs):
            start = time.perf_counter()
            response = original(*args, **kwargs)
            end = time.perf_counter()
            with self._lock:
                self.records.append(
                    {
                        "request": response.request_id,
                        "start": start,
                        "end": end,
                        "worker_elapsed": response.elapsed,
                        "cached": response.cached,
                        "ok": response.ok,
                    }
                )
            return response

        self.service.search = search

    def off(self) -> None:
        self.service.__dict__.pop("search", None)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setups", type=int, required=True)
    args = parser.parse_args()
    import_program()
    from repro.service.snapshot import load_snapshot

    engine = build_engine()
    setup_s = []
    running = None
    for attempt in range(args.setups):
        if running is not None:
            _stop(*running[1:])
        start = time.perf_counter()
        running = _start(engine, WORK_DIR / f"fleet{attempt}")
        setup_s.append(time.perf_counter() - start)
    snapshot, service, server, thread = running
    recorder = CallRecorder(service)
    try:
        load_times = []
        for _ in range(LOAD_REPEATS):
            start = time.perf_counter()
            load_snapshot(snapshot)
            load_times.append(time.perf_counter() - start)
        _emit(
            {
                "event": "ready",
                "port": server.server_address[1],
                "setup_s": setup_s,
                "storage_load_ms": 1e3 * median(load_times),
                "snapshot_bytes": snapshot.stat().st_size,
            }
        )
        for line in sys.stdin:
            command = json.loads(line)
            if command["op"] == "stop":
                break
            if command["op"] == "trace":
                recorder.on() if command["on"] else recorder.off()
                _emit({"event": "ack"})
    finally:
        recorder.off()
        _stop(service, server, thread)
    _emit(
        {
            "event": "done",
            "rss_peak_mb": max(rss_peak_mb(), rss_peak_mb(children=True)),
            "calls": recorder.records,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
