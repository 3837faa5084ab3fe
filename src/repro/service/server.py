"""The resident scheduler service: warm state, request handlers, daemon loop.

Two classes split the subsystem:

* :class:`SchedulerService` — the state and the request handlers, socket
  free (tests drive it directly).  It keeps datasets resident (generated or
  mmap-loaded once through the
  :class:`~repro.workloads.datasets.WorkloadCache`, then served from
  memory), keeps the per-tree :class:`~repro.experiments.runner.InstanceContext`
  memo warm (orders, minimum memory, :class:`~repro.schedulers.engine.SimWorkspace`
  — the expensive O(n) derivations a cold ``memtree schedule`` pays on
  every invocation), and owns one :class:`~repro.experiments.records.ResultCache`
  handle shared by every ``sweep`` request.
* :class:`SchedulerDaemon` — the socket loop: binds an ``AF_UNIX`` path or
  a localhost TCP port, serves each connection on its own thread, and
  tears everything down cleanly on ``stop()`` (SIGTERM in the CLI).

Failure semantics follow the PR 9 ladder: a request that raises is
**quarantined per request** — the client gets ``{"ok": false, "error":
{...}}`` and the daemon keeps serving; only protocol-level corruption
(unparsable frame, EOF mid-frame) closes the offending *connection*.  The
daemon process itself never dies on a request.

Concurrency model: connections are concurrent (thread per connection) but
**execution is serialised** through one lock.  Simulation is CPU-bound pure
Python, so concurrent threads would only interleave under the GIL without
finishing sooner — while serialising makes the shared caches and per-tree
memos trivially race free and guarantees two clients sweeping overlapping
plans never double-compute a row: the second sweep enters the lock after
the first published its rows and reads them back as cache hits.
Cross-*process* safety of the row store is separate and unconditional: the
:class:`~repro.resilience.locks.FileLock` inside
:meth:`~repro.experiments.records.ResultCache.put_rows`.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core.task_tree import TaskTree
from ..core.tree_io import from_dict
from ..experiments.config import SweepConfig
from ..experiments.plan import SweepPlan, execute_plan_cached, tree_content_sha
from ..experiments.records import InMemoryRowCache, RecordTable, ResultCache
from ..experiments.runner import prepare_instance, run_single
from ..experiments.specs import load_dataset as load_named_dataset
from ..resilience.health import current_health
from ..workloads.datasets import WorkloadCache
from .metrics import ServiceMetrics
from .protocol import (
    FRAME_JSON,
    FRAME_ROWS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_payload,
    encode_payload,
    recv_frame,
    send_frame,
)

__all__ = ["SchedulerService", "SchedulerDaemon", "ServiceError", "DEFAULT_DATASET_SEEDS"]

#: Default seed per dataset kind — the generators' own defaults, so
#: ``load synthetic:tiny`` resolves to the exact datasets the figures use.
DEFAULT_DATASET_SEEDS = {"synthetic": 7011, "assembly": 2017, "heavyleaf": 4099, "height": 99}

#: Rows per streamed ``R`` frame of a sweep response (overridable per
#: request with ``"batch_rows"``): small enough that a client renders
#: progress while a long plan still runs, large enough that frame overhead
#: is noise.
STREAM_BATCH_ROWS = 256


class ServiceError(RuntimeError):
    """A malformed or unsatisfiable request (reported to the client, never fatal)."""


@dataclass
class _ResidentDataset:
    """One dataset held in memory: the trees plus their load descriptor."""

    name: str
    trees: list[TaskTree]
    descriptor: dict[str, Any]
    loaded_at: float = field(default_factory=time.monotonic)

    def summary(self) -> dict[str, Any]:
        return {
            "trees": len(self.trees),
            "total_nodes": int(sum(tree.n for tree in self.trees)),
            **self.descriptor,
        }


class SchedulerService:
    """Request handlers over resident datasets, warm contexts and caches."""

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        workload_cache_dir: str | Path | None = None,
        native: bool | None = None,
    ) -> None:
        self.cache: ResultCache | InMemoryRowCache = (
            ResultCache(cache_dir) if cache_dir is not None else InMemoryRowCache()
        )
        self.workload_cache = (
            WorkloadCache(workload_cache_dir) if workload_cache_dir is not None else None
        )
        self.native = native
        self.metrics = ServiceMetrics()
        self.datasets: dict[str, _ResidentDataset] = {}
        self.started_at = time.monotonic()
        #: Warm per-instance contexts keyed by (tree sha, index, AO, EO);
        #: bounded FIFO so inline one-shot trees cannot grow it unboundedly.
        self._contexts: dict[tuple[str, int, str, str], Any] = {}
        self._context_cap = 1024
        self._dataset_memo: dict[tuple[str, str, int], list[TaskTree]] = {}
        #: Serialises every simulating/state-mutating request (see the
        #: module docstring for why this is the right concurrency model).
        self._exec_lock = threading.Lock()
        self._handlers = {
            "ping": self._handle_ping,
            "status": self._handle_status,
            "load": self._handle_load,
            "evict": self._handle_evict,
            "schedule": self._handle_schedule,
            "sweep": self._handle_sweep,
        }

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def handle(self, request: Mapping[str, Any]) -> Iterator[tuple[bytes, bytes]]:
        """Yield the response frames of one request.

        Every response is zero or more ``R`` row-batch frames followed by
        exactly one terminal ``J`` frame.  Any exception a handler raises
        is quarantined into an ``{"ok": false, "error": ...}`` terminal
        frame — the service survives every request.
        """
        kind = str(request.get("kind", ""))
        start = time.perf_counter()
        error = False
        try:
            handler = self._handlers.get(kind)
            if handler is None:
                raise ServiceError(
                    f"unknown request kind {kind!r}; expected one of "
                    f"{sorted(self._handlers)}"
                )
            yield from handler(request)
        except Exception as exc:
            error = True
            yield (
                FRAME_JSON,
                encode_payload(
                    {
                        "ok": False,
                        "error": {
                            "request": kind,
                            "type": type(exc).__name__,
                            "message": str(exc),
                        },
                    }
                ),
            )
        finally:
            self.metrics.observe(kind or "<missing>", time.perf_counter() - start, error=error)

    # ------------------------------------------------------------------ #
    # lifecycle requests
    # ------------------------------------------------------------------ #
    def _handle_ping(self, request: Mapping[str, Any]) -> Iterator[tuple[bytes, bytes]]:
        yield FRAME_JSON, encode_payload({"ok": True, "protocol": PROTOCOL_VERSION})

    def _handle_status(self, request: Mapping[str, Any]) -> Iterator[tuple[bytes, bytes]]:
        cache = self.cache
        payload: dict[str, Any] = {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self.started_at,
            "datasets": {name: ds.summary() for name, ds in sorted(self.datasets.items())},
            "cache": {
                "kind": type(cache).__name__,
                "directory": str(cache.directory) if isinstance(cache, ResultCache) else None,
                "hits": cache.hits,
                "misses": cache.misses,
                "rows_cached": cache.rows_cached,
                "rows_fresh": cache.rows_fresh,
            },
            "warm_contexts": len(self._contexts),
            "metrics": self.metrics.snapshot(),
            "health": current_health().as_dict(),
            "native": self.native,
        }
        if self.workload_cache is not None:
            payload["workload_cache"] = {
                "directory": str(self.workload_cache.directory),
                "hits": self.workload_cache.hits,
                "misses": self.workload_cache.misses,
            }
        yield FRAME_JSON, encode_payload(payload)

    def load_dataset(
        self, kind: str, scale: str, seed: int | None = None, name: str | None = None
    ) -> tuple[str, bool]:
        """Make a dataset resident; returns ``(name, was_already_loaded)``."""
        if seed is None:
            seed = DEFAULT_DATASET_SEEDS.get(kind)
            if seed is None:
                raise ServiceError(f"unknown dataset kind {kind!r} needs an explicit seed")
        name = name or f"{kind}:{scale}"
        with self._exec_lock:
            existing = self.datasets.get(name)
            descriptor = {"dataset_kind": kind, "scale": scale, "seed": int(seed)}
            if existing is not None and existing.descriptor == descriptor:
                return name, True
            trees = load_named_dataset(
                kind, scale, int(seed), self.workload_cache, self._dataset_memo
            )
            self.datasets[name] = _ResidentDataset(name, list(trees), descriptor)
        return name, False

    def _handle_load(self, request: Mapping[str, Any]) -> Iterator[tuple[bytes, bytes]]:
        kind = str(request.get("dataset_kind", ""))
        scale = str(request.get("scale", "tiny"))
        seed = request.get("seed")
        name, already = self.load_dataset(
            kind, scale, None if seed is None else int(seed), request.get("name")
        )
        dataset = self.datasets[name]
        yield (
            FRAME_JSON,
            encode_payload(
                {"ok": True, "name": name, "already_loaded": already, **dataset.summary()}
            ),
        )

    def _handle_evict(self, request: Mapping[str, Any]) -> Iterator[tuple[bytes, bytes]]:
        name = str(request.get("name", ""))
        with self._exec_lock:
            dataset = self.datasets.pop(name, None)
            if dataset is None:
                raise ServiceError(f"no resident dataset named {name!r}")
            shas = {tree_content_sha(tree) for tree in dataset.trees}
            self._contexts = {
                key: ctx for key, ctx in self._contexts.items() if key[0] not in shas
            }
            self._dataset_memo = {
                key: trees
                for key, trees in self._dataset_memo.items()
                if trees is not dataset.trees
            }
        yield FRAME_JSON, encode_payload({"ok": True, "evicted": name})

    # ------------------------------------------------------------------ #
    # schedule
    # ------------------------------------------------------------------ #
    def _resolve_tree(self, request: Mapping[str, Any]) -> tuple[TaskTree, int]:
        if "tree" in request:
            tree = from_dict(request["tree"])
            return tree, int(request.get("tree_index", 0))
        name = request.get("dataset")
        if name is None:
            raise ServiceError('schedule needs either "tree" or "dataset" + "tree_index"')
        dataset = self.datasets.get(str(name))
        if dataset is None:
            raise ServiceError(
                f"no resident dataset named {name!r}; load it first "
                f"(resident: {sorted(self.datasets)})"
            )
        index = int(request.get("tree_index", 0))
        if not 0 <= index < len(dataset.trees):
            raise ServiceError(
                f"tree_index {index} out of range [0, {len(dataset.trees)}) of {name!r}"
            )
        return dataset.trees[index], index

    def _warm_context(self, tree: TaskTree, index: int, config: SweepConfig) -> Any:
        key = (
            tree_content_sha(tree),
            index,
            config.activation_order,
            config.execution_order,
        )
        context = self._contexts.get(key)
        if context is None:
            context = prepare_instance(tree, index, config)
            if len(self._contexts) >= self._context_cap:
                self._contexts.pop(next(iter(self._contexts)))
            self._contexts[key] = context
        return context

    def schedule_record(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Run one ``schedule`` request and return its full sweep record.

        The record is exactly what :func:`repro.experiments.runner.run_single`
        produces for the instance — the same 21 fields ``memtree schedule
        --json`` prints locally, built by the same code.
        """
        scheduler = str(request.get("scheduler", "MemBooking"))
        processors = int(request.get("processors", 8))
        config = SweepConfig(
            schedulers=(scheduler,),
            # Carrier value only: run_single takes the factor positionally,
            # so absolute --memory below the minimum stays expressible.
            memory_factors=(1.0,),
            processors=(processors,),
            activation_order=str(request.get("ao", "memPO")),
            execution_order=str(request.get("eo", "memPO")),
            validate=bool(request.get("validate", True)),
            native=self.native if request.get("native") is None else bool(request["native"]),
        )
        with self._exec_lock:
            tree, index = self._resolve_tree(request)
            context = self._warm_context(tree, index, config)
            memory = request.get("memory")
            if memory is not None:
                factor = float(memory) / context.minimum_memory
            else:
                factor = float(request.get("memory_factor", 2.0))
            return run_single(context, scheduler, processors, factor, config)

    def _handle_schedule(self, request: Mapping[str, Any]) -> Iterator[tuple[bytes, bytes]]:
        record = self.schedule_record(request)
        yield FRAME_JSON, encode_payload({"ok": True, "record": record})

    # ------------------------------------------------------------------ #
    # sweep
    # ------------------------------------------------------------------ #
    def _sweep_plan(self, request: Mapping[str, Any]) -> tuple[list[TaskTree], SweepPlan]:
        name = request.get("dataset")
        if name is None:
            raise ServiceError('sweep needs a resident "dataset" name')
        dataset = self.datasets.get(str(name))
        if dataset is None:
            raise ServiceError(
                f"no resident dataset named {name!r}; load it first "
                f"(resident: {sorted(self.datasets)})"
            )
        config = SweepConfig(
            schedulers=tuple(request.get("schedulers", ("MemBooking",))),
            memory_factors=tuple(float(f) for f in request.get("memory_factors", (2.0,))),
            processors=tuple(int(p) for p in request.get("processors", (8,))),
            activation_order=str(request.get("ao", "memPO")),
            execution_order=str(request.get("eo", "memPO")),
            validate=bool(request.get("validate", True)),
            native=self.native if request.get("native") is None else bool(request["native"]),
        )
        plan = SweepPlan.from_config(config, len(dataset.trees))
        rows = request.get("rows")
        if rows is not None:
            plan = plan.subset([int(row) for row in rows])
        return dataset.trees, plan

    def _handle_sweep(self, request: Mapping[str, Any]) -> Iterator[tuple[bytes, bytes]]:
        trees, plan = self._sweep_plan(request)
        backend = request.get("backend")
        batch_rows = int(request.get("batch_rows", STREAM_BATCH_ROWS))
        if batch_rows < 1:
            raise ServiceError("batch_rows must be >= 1")
        start = time.perf_counter()
        total_rows = 0
        groups = 0
        with self._exec_lock:
            fresh_before = self.cache.rows_fresh
            cached_before = self.cache.rows_cached
            # Stream group by group: each tree's rows are simulated (or
            # served from the row store) and shipped before the next tree
            # starts, so a client watches a long plan land incrementally
            # and the daemon never holds the full result set per request.
            for _, positions in plan.tree_groups():
                table = execute_plan_cached(
                    trees, plan.subset(positions), cache=self.cache, backend=backend
                )
                groups += 1
                for offset in range(0, len(table), batch_rows):
                    stop = min(offset + batch_rows, len(table))
                    batch = RecordTable.from_dicts(
                        table.row(row) for row in range(offset, stop)
                    )
                    total_rows += len(batch)
                    yield FRAME_ROWS, batch.to_bytes()
            fresh = self.cache.rows_fresh - fresh_before
            cached = self.cache.rows_cached - cached_before
        yield (
            FRAME_JSON,
            encode_payload(
                {
                    "ok": True,
                    "rows": total_rows,
                    "fresh_rows": fresh,
                    "cached_rows": cached,
                    "tree_groups": groups,
                    "seconds": time.perf_counter() - start,
                    "plan": plan.describe(),
                }
            ),
        )


class SchedulerDaemon:
    """The socket loop around a :class:`SchedulerService`.

    Exactly one of ``socket_path`` (``AF_UNIX``) or ``port`` (TCP bound to
    ``host``, loopback by default; ``port=0`` picks an ephemeral port) must
    be given.  ``request_timeout`` bounds how long a connection may sit
    silent mid-frame or between frames before it is dropped — a dead or
    wedged client releases its thread instead of leaking it.
    """

    def __init__(
        self,
        service: SchedulerService,
        *,
        socket_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        request_timeout: float | None = 300.0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path or port is required")
        self.service = service
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self._listener: socket.socket | None = None
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._threads: set[threading.Thread] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """The client-facing address string (socket path or ``host:port``)."""
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        """Bind, listen and start accepting (returns once the address is live)."""
        if self._listener is not None:
            raise RuntimeError("daemon already started")
        self._stop.clear()
        if self.socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                if self.socket_path.exists():
                    # A live daemon would hold the path bound; probe before
                    # stealing it so two daemons cannot silently fight.
                    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    try:
                        probe.connect(str(self.socket_path))
                    except OSError:
                        self.socket_path.unlink()  # stale leftover
                    else:
                        raise RuntimeError(
                            f"another daemon is already serving {self.socket_path}"
                        )
                    finally:
                        probe.close()
                self.socket_path.parent.mkdir(parents=True, exist_ok=True)
                listener.bind(str(self.socket_path))
            except BaseException:
                listener.close()
                raise
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self.host, int(self.port or 0)))
                self.port = listener.getsockname()[1]
            except BaseException:
                listener.close()
                raise
        listener.listen(16)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="memtree-serve-accept", daemon=True
        )
        self._accept_thread.start()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return (async-signal safe)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop` or a signal."""
        if self._listener is None:
            self.start()
        try:
            # Short-timeout wait loop so SIGTERM/SIGINT handlers installed
            # by the CLI run promptly in the main thread.
            while not self._stop.wait(0.2):
                pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut down: stop accepting, drop connections, join threads, unlink."""
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # On Linux close() alone does not wake the accept() blocked in
            # _accept_loop; shutdown() does, so the join below is prompt.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        with self._conn_lock:
            connections = list(self._connections)
            threads = list(self._threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        for thread in threads:
            thread.join(timeout=5.0)
        if self.socket_path is not None and self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:  # listener closed by stop()
                return
            conn.settimeout(self.request_timeout)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._conn_lock:
                self._connections.add(conn)
                self._threads.add(thread)
                self._threads = {t for t in self._threads if t.is_alive() or t is thread}
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    frame = recv_frame(conn)
                except (ProtocolError, OSError):
                    # Torn stream / dead client / idle timeout: drop the
                    # connection, never the daemon.
                    return
                if frame is None:  # clean EOF
                    return
                kind, payload = frame
                if kind != FRAME_JSON:
                    return  # requests must be J frames; anything else is corruption
                try:
                    request = decode_payload(payload)
                except ProtocolError:
                    return
                if request.get("kind") == "shutdown":
                    # Handled at the daemon layer: acknowledge, then stop.
                    started = time.perf_counter()
                    try:
                        send_frame(
                            conn,
                            FRAME_JSON,
                            encode_payload({"ok": True, "shutting_down": True}),
                        )
                    except OSError:
                        pass
                    self.service.metrics.observe(
                        "shutdown", time.perf_counter() - started
                    )
                    self._stop.set()
                    return
                try:
                    for out_kind, out_payload in self.service.handle(request):
                        send_frame(conn, out_kind, out_payload)
                except OSError:
                    return  # client went away mid-response
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.close()
