"""Span tracing for the benchmark's traced mode.

Layers are timed from outside: :func:`install` replaces public functions
of ``repro`` with wrappers that open one span per call (name, start, end,
parent span, optional count) in an in-memory :class:`Recorder`, and
returns an ``undo`` callable that puts the originals back.  Names that
modules bind at import (``memory_profile``, ``validate_schedule``,
``prepare_instance``, ...) are patched where they are called, or the calls
would go uncounted.  Nothing under ``src/`` changes.

:func:`layer_metrics` turns the spans of a time window into the
benchmark's per-layer numbers: a layer's self time is its spans' duration
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

#: Span fields: name, start, end, parent span index (-1 at top), count.
NAME, START, END, PARENT, COUNT = range(5)


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
        stack.append(index)
        return index

    def close(self, index: int, count: Any = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[COUNT] = count
        self._stack().pop()

    def wrap(self, name: str, fn: Callable,
             counter: Callable[[tuple, Any], Any] | None = None):
        """``fn`` timed as one ``name`` span per call; ``counter(args, result)``
        of a call that returns is kept as the span's count."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            count = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, result)
                return result
            finally:
                self.close(index, count)

        return wrapper

    def wrap_generator(self, name: str, fn: Callable):
        """A generator function timed one span per ``next``, so the
        consumer's work between items stays outside the spans."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            generator = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                yield item

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _attr(module: str, name: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    for part in name.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, name.rsplit(".", 1)[-1]


def _lane_counts(args: tuple, outcomes: Sequence[tuple[Any, bool]]) -> tuple[int, int]:
    collapsed = sum(1 for _, is_clone in outcomes if is_clone)
    return len(outcomes) - collapsed, collapsed


def _counting_put_rows(put_rows: Callable) -> Callable:
    """``put_rows`` that returns how many rows it was given (it returns
    ``None``, and its callers pass a generator that it consumes)."""

    @functools.wraps(put_rows)
    def put(cache: Any, pairs: Iterable[Any]) -> int:
        rows = list(pairs)
        put_rows(cache, rows)
        return len(rows)

    return put


def _frame_bytes(args: tuple, result: Any) -> int:
    """Wire size of the frame whose payload is the first argument."""
    return len(args[0]) + 5


def _program_patches(recorder: Recorder) -> list[tuple[str, str, Callable]]:
    wrap = recorder.wrap
    patches: list[tuple[str, str, Callable[[Callable], Callable]]] = [
        ("repro.experiments.specs", "load_dataset", lambda f: wrap("workloads.load", f)),
        ("repro.experiments.runner", "prepare_instance", lambda f: wrap("orders.prepare", f)),
        ("repro.schedulers.base", "Scheduler.schedule",
         lambda f: wrap("schedulers.schedule", f, lambda _, r: r.num_events)),
        ("repro.native", "simulate", lambda f: wrap("native.simulate", f)),
        ("repro.experiments.runner", "validate_schedule", lambda f: wrap("validation.validate", f)),
        ("repro.experiments.runner", "complete_record", lambda f: wrap("experiments.record", f)),
        ("repro.experiments.plan", "SweepPlan.instance_keys",
         lambda f: wrap("experiments.plan_keys", f)),
        ("repro.batch.backend", "simulate_lanes",
         lambda f: wrap("batch.simulate_lanes", f, _lane_counts)),
    ]
    for module in ("repro.schedulers.validation", "repro.schedulers.engine",
                   "repro.schedulers.membooking_redtree", "repro.batch.lanes"):
        patches.append((module, "memory_profile", lambda f: wrap("validation.memory_profile", f)))
    patches.append(("repro.experiments.records", "ResultCache.get_rows",
                    lambda f: wrap("experiments.cache_get", f, lambda _, rows: len(rows))))
    patches.append(("repro.experiments.records", "ResultCache.put_rows",
                    lambda f: wrap("experiments.cache_put", _counting_put_rows(f),
                                   lambda _, written: written)))
    return patches


def install(
    recorder: Recorder, *, program: bool = True, service: bool = False, client: bool = False
) -> Callable[[], None]:
    """Patch the layer entry points; returns ``undo``.

    ``program`` wraps the sweep layers (orders to cache), ``service`` the
    daemon side (request handling, payload and row-batch encoding) and
    ``client`` the client side (frame decoding).
    """
    wrap = recorder.wrap
    patches: list[tuple[str, str, Callable[[Callable], Callable]]] = []
    if program:
        patches += _program_patches(recorder)
    if service:
        patches += [
            ("repro.service.server", "load_named_dataset", lambda f: wrap("workloads.load", f)),
            ("repro.service.server", "prepare_instance", lambda f: wrap("orders.prepare", f)),
            ("repro.service.server", "SchedulerService.handle",
             lambda f: recorder.wrap_generator("service.handle", f)),
            ("repro.service.server", "encode_payload", lambda f: wrap("service.encode", f)),
            ("repro.service.server", "RecordTable",
             lambda table: _encoding_table(recorder, table)),
        ]
    if client:
        patches += [
            ("repro.service.client", "decode_payload",
             lambda f: wrap("service.decode", f, _frame_bytes)),
            ("repro.service.client", "RecordTable",
             lambda f: wrap("service.decode", f, _frame_bytes)),
            ("repro.experiments.records", "RecordTable.to_dicts",
             lambda f: wrap("service.decode", f)),
        ]
    undo: list[tuple[Any, str, Any]] = []
    for module, name, make in patches:
        owner, attr = _attr(module, name)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))
    if program:
        from repro.orders import ORDER_FACTORIES

        for key, factory in list(ORDER_FACTORIES.items()):
            ORDER_FACTORIES[key] = wrap("orders.factory", factory)
            undo.append((ORDER_FACTORIES, key, factory))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return restore


def _encoding_table(recorder: Recorder, table: type) -> type:
    """``RecordTable`` as ``service.server`` sees it: the row batches it
    builds time their ``to_bytes`` as response encoding.  The row store's
    own ``to_bytes`` stays unwrapped, inside ``experiments.cache_put``."""
    return type(table.__name__, (table,), {
        "to_bytes": recorder.wrap("service.encode", table.to_bytes),
    })


def window(spans: Sequence[Sequence[Any]], t0: float, t1: float) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``seconds`` (total), ``self`` and ``count``
    over the closed spans that lie inside ``[t0, t1]``."""
    chosen = [
        i for i, span in enumerate(spans)
        if span[END] is not None and span[START] >= t0 and span[END] <= t1
    ]
    inside = set(chosen)
    self_time = {i: spans[i][END] - spans[i][START] for i in chosen}
    for i in chosen:
        parent = spans[i][PARENT]
        if parent in inside:
            self_time[parent] -= spans[i][END] - spans[i][START]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self": 0.0, "count": 0}
    )
    for i in chosen:
        entry = out[spans[i][NAME]]
        entry["calls"] += 1
        entry["seconds"] += spans[i][END] - spans[i][START]
        entry["self"] += self_time[i]
        count = spans[i][COUNT]
        if isinstance(count, (list, tuple)):
            entry.setdefault("counts", [0] * len(count))
            entry["counts"] = [a + b for a, b in zip(entry["counts"], count)]
        elif count is not None:
            entry["count"] += count
    return out


def layer_metrics(stats: dict[str, dict[str, float]], wall: float) -> dict[str, float]:
    """The per-layer metrics of one window whose outer timer read ``wall``."""

    def get(name: str, key: str = "self") -> float:
        entry = stats.get(name)
        return float(entry[key]) if entry else 0.0

    simulated, collapsed = stats.get("batch.simulate_lanes", {}).get("counts", [0, 0])
    lanes = simulated + collapsed
    attributed = sum(entry["self"] for entry in stats.values())
    return {
        "orders.s": get("orders.factory") + get("orders.prepare"),
        "orders.calls": get("orders.factory", "calls"),
        "schedulers.s": get("schedulers.schedule"),
        "schedulers.calls": get("schedulers.schedule", "calls"),
        "schedulers.events": get("schedulers.schedule", "count"),
        "native.s": get("native.simulate"),
        "native.calls": get("native.simulate", "calls"),
        "validation.s": get("validation.validate") + get("validation.memory_profile"),
        "validation.memory_profile_s": get("validation.memory_profile"),
        "validation.memory_profile_calls": get("validation.memory_profile", "calls"),
        "experiments.record_s": get("experiments.record"),
        "experiments.plan_keys_s": get("experiments.plan_keys"),
        "experiments.cache_get_s": get("experiments.cache_get"),
        "experiments.cache_rows_read": get("experiments.cache_get", "count"),
        "experiments.cache_put_s": get("experiments.cache_put"),
        "experiments.cache_rows_written": get("experiments.cache_put", "count"),
        "experiments.analyze_s": get("experiments.analyze"),
        "batch.s": get("batch.simulate_lanes"),
        "batch.lanes_simulated": float(simulated),
        "batch.lanes_collapsed": float(collapsed),
        "batch.collapse_ratio": collapsed / lanes if lanes else 0.0,
        "service.handle_s": get("service.handle", "seconds"),
        "service.encode_s": get("service.encode"),
        "service.decode_s": get("service.decode"),
        "service.wire_bytes": get("service.decode", "count"),
        "unattributed_s": wall - attributed,
    }
