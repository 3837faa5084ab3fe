"""The ``service-mix`` workload: one closed-loop client against a daemon.

A ``memtree serve --socket`` daemon process holds ``synthetic:small``
resident.  One client connection sends a seeded stream of ``schedule``
requests (random tree, heuristic, p and f) and, every 50th request, a warm
400-row ``sweep`` whose rows a first, unmeasured sweep put in the row
cache.  One operation is one request; a run is whole rounds of 50.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from checks import Checker, compare_rows
from spans import Recorder, install, layer_metrics, window
from sweeps import p90

DATASET = "synthetic:small"
ROUND = 50
SCHEDULERS = ("Activation", "MemBooking", "MemBookingRedTree")
PROCESSORS = (2, 4, 8, 16, 32)
FACTORS = (1.2, 1.5, 2.0, 3.0, 5.0, 10.0)
#: The warm sweep: 2 x 4 x 5 = 40 rows per tree, 400 over the 10 trees.
SWEEP = dict(
    schedulers=("Activation", "MemBooking"),
    processors=(2, 4, 8, 16),
    memory_factors=(1.5, 2.0, 3.0, 5.0, 10.0),
)
#: One schedule request in this many is re-simulated locally and checked.
RESIMULATE_EVERY = 25
DAEMON_START_TIMEOUT = 60.0


class Daemon:
    """A ``memtree serve`` process started through ``daemon.py``."""

    def __init__(self, root: Path, tmp: Path, seed: int, spans_out: Path | None) -> None:
        self.socket = tmp / "memtree.sock"
        self.cache_dir = tmp / "rows"
        command = [sys.executable, str(Path(__file__).with_name("daemon.py"))]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        command += [
            "serve", "--socket", str(self.socket), "--load", f"{DATASET}:{seed}",
            "--cache-dir", str(self.cache_dir), "--workload-cache-dir", str(tmp / "workloads"),
            "--native",
        ]
        self.log_path = tmp / "daemon.log"
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, cwd=root, stdout=log, stderr=subprocess.STDOUT)

    def wait_ready(self) -> Any:
        from repro.service import ServiceClient

        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                log = self.log_path.read_text(encoding="utf-8", errors="replace")
                raise RuntimeError(
                    f"daemon exited with code {self.process.returncode}: {log[-2000:]}"
                )
            if self.socket.exists():
                client = ServiceClient(self.socket, timeout=60.0)
                try:
                    client.ping()
                    return client
                except OSError:
                    client.close()
            time.sleep(0.01)
        raise RuntimeError("daemon did not answer ping in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the daemon")

    def request_stop(self, client: Any) -> None:
        """Ask a running daemon to shut down: over its own protocol when a
        client is connected, else with SIGTERM (its clean-exit signal)."""
        if self.process.poll() is not None:
            return
        if client is None:
            self.process.send_signal(signal.SIGTERM)
            return
        try:
            client.shutdown_server()
        except OSError:
            self.process.send_signal(signal.SIGTERM)

    def reap(self) -> None:
        """Wait for the daemon to exit; kill it if it does not."""
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class _Tally:
    """The requests one daemon answered, with their round trips."""

    def __init__(self) -> None:
        self.schedule_times: list[float] = []
        self.sweep_times: list[float] = []
        self.sweep_rows = 0
        self.attempted = 0
        self.failed = 0


def _round(client: Any, checker: Checker, primed: list, stream: random.Random,
           tally: _Tally, errors: list[str]) -> None:
    """``ROUND - 1`` seeded ``schedule`` requests, then one warm ``sweep``."""
    for _ in range(ROUND - 1):
        request = dict(
            dataset=DATASET,
            tree_index=stream.randrange(len(checker.trees)),
            scheduler=stream.choice(SCHEDULERS),
            processors=stream.choice(PROCESSORS),
            memory_factor=stream.choice(FACTORS),
        )
        resimulate = stream.randrange(RESIMULATE_EVERY) == 0
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            record = client.schedule(**request)
        except (OSError, RuntimeError) as exc:
            tally.failed += 1
            errors.append(f"schedule {request}: {type(exc).__name__}: {exc}")
            continue
        tally.schedule_times.append(time.perf_counter() - t0)
        errors += checker.rows([record])
        if resimulate:
            errors += checker.resimulate(record)
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        rows, _ = client.sweep(DATASET, **SWEEP)
    except (OSError, RuntimeError) as exc:
        tally.failed += 1
        errors.append(f"sweep: {type(exc).__name__}: {exc}")
        return
    tally.sweep_times.append(time.perf_counter() - t0)
    tally.sweep_rows += len(rows)
    errors += compare_rows(primed, rows, "warm sweep vs primed sweep")


def run(seed: int, seconds: float, traced: bool, tmp: Path, clock_zero: float,
        root: Path) -> dict[str, Any]:
    """Set up, run whole rounds for ``seconds`` and summarise them.

    The traced mode starts a second, traced daemon beside the untraced one
    and alternates rounds between them, so the two are measured over the
    same stretch of time; their median ``schedule`` round trips give the
    tracing overhead.
    """
    from repro.workloads.datasets import synthetic_dataset

    homes = [tmp / "plain"] + ([tmp / "traced"] if traced else [])
    daemons: list[Daemon] = []
    clients: list[Any] = []
    errors: list[str] = []
    recorder = Recorder()
    try:
        for home in homes:
            home.mkdir()
            spans_out = home / "daemon-spans.json" if home.name == "traced" else None
            daemons.append(Daemon(root, home, seed, spans_out))
        for daemon in daemons:
            clients.append(daemon.wait_ready())
        setup_s = time.perf_counter() - clock_zero
        # Neither the checks nor the cold priming sweep count as set-up.
        checker = Checker(synthetic_dataset("small", seed=seed)[0], native=True)
        primed = []
        for client in clients:
            rows, _ = client.sweep(DATASET, **SWEEP)
            errors += checker.rows(rows)
            primed.append(rows)
        store = [daemons[0].cache_dir / "rows.records", daemons[0].cache_dir / "rows.index.json"]
        bytes_per_row = sum(path.stat().st_size for path in store) / len(primed[0])

        stream = random.Random(seed)
        tallies = [_Tally() for _ in daemons]
        loop_start = time.perf_counter()
        rounds = 0
        while rounds < len(daemons) or time.perf_counter() - loop_start < seconds:
            which = rounds % len(daemons)
            undo = install(recorder, program=False, client=True) if which == 1 else None
            try:
                _round(clients[which], checker, primed[which], stream, tallies[which], errors)
            finally:
                if undo is not None:
                    undo()
            rounds += 1
        loop_end = time.perf_counter()
        peak_rss = daemons[0].peak_rss_mb()
    finally:
        for daemon, client in zip(daemons, clients + [None] * len(daemons)):
            daemon.request_stop(client)
        for daemon in daemons:
            daemon.reap()
    outcome = {
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "errors": errors,
        "samples": len(tallies[-1].schedule_times),
        "metrics": {},
        "layers": {},
    }
    if not traced:
        outcome["metrics"] = _end_to_end(tallies[0], setup_s, peak_rss, bytes_per_row)
        return outcome
    daemon_spans = _load_spans(homes[1] / "daemon-spans.json")
    stats = window(recorder.spans, loop_start, loop_end)
    stats.update(window(daemon_spans, loop_start, loop_end))
    tally = tallies[1]
    roundtrips = sum(tally.schedule_times) + sum(tally.sweep_times)
    requests = tally.attempted - tally.failed
    totals = layer_metrics(stats, roundtrips)
    layers = {name: value / requests for name, value in totals.items()}
    layers["batch.collapse_ratio"] = totals["batch.collapse_ratio"]
    layers["service.roundtrip_s"] = roundtrips / requests
    daemon_load = window(daemon_spans, 0.0, loop_start).get("workloads.load")
    layers["workloads.load_s"] = daemon_load["seconds"] if daemon_load else 0.0
    layers["trace.overhead"] = statistics.median(tally.schedule_times) / statistics.median(
        tallies[0].schedule_times
    )
    outcome["layers"] = layers
    return outcome


def _load_spans(path: Path) -> list:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _end_to_end(tally: _Tally, setup_s: float, peak_rss_mb: float,
                bytes_per_row: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "instances_per_s": 1.0 / p90(tally.schedule_times),
        "cached_rows_per_s": tally.sweep_rows / len(tally.sweep_times) / p90(tally.sweep_times),
        "peak_rss_mb": peak_rss_mb,
        "cache_bytes_per_row": bytes_per_row,
    }
