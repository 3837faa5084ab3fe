"""Pool recovery machinery: watchdog drains, retry rounds, quarantine.

:func:`drain_pool` is the dispatch loop of the worker pool
(:class:`~repro.experiments.backends.SharedMemoryBackend`): it collects
unordered results under a per-result **watchdog** — a window that resets
on every arrival, so a healthy-but-slow pool never trips it, while a
crashed worker's lost task or an injected hang shows up as a window with
no progress.  A tripped watchdog terminates the round's pool, bumps the
attempt counter of everything still pending and re-dispatches it in a
fresh pool after a bounded backoff; items still pending after
``max_attempts`` rounds come back to the caller for quarantine into the
record failure plane.

Because record values are pure functions of (tree, config), a re-dispatch
reproduces exactly the bytes the lost attempt would have produced
(wall-clock timing fields aside) — recovery cannot change results, which
is what the fault-parity suite asserts.

A first round that ends with **zero** results is not a stuck instance but
a broken transport (dead initializer, vanished arena, unpicklable
payloads): :class:`TransportFailure` is raised instead of retrying, and
the backend takes its degradation-ladder edge (shared-memory -> serial).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TypeVar

from .faults import (
    BACKOFF_CAP,
    DEFAULT_BACKOFF,
    DEFAULT_MAX_ATTEMPTS,
    FaultPlan,
    _default_watchdog,
)
from .health import current_health

__all__ = ["RetrySettings", "TransportFailure", "drain_pool", "retry_sleep"]

T = TypeVar("T")


class TransportFailure(RuntimeError):
    """The pool transport itself is broken (not one stuck instance)."""


@dataclass(frozen=True)
class RetrySettings:
    """The recovery tunables of one dispatch (plan overrides, else defaults)."""

    watchdog: float
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff: float = DEFAULT_BACKOFF

    @classmethod
    def from_plan(cls, plan: FaultPlan | None) -> "RetrySettings":
        if plan is None:
            return cls(watchdog=_default_watchdog())
        return cls(
            watchdog=plan.watchdog,
            max_attempts=plan.max_attempts,
            backoff=plan.backoff,
        )


def retry_sleep(backoff: float, attempt: int) -> None:
    """Bounded exponential backoff before retry round ``attempt`` (>= 1)."""
    if backoff > 0:
        time.sleep(min(backoff * (2 ** (attempt - 1)), BACKOFF_CAP))


def drain_pool(
    make_pool: Callable[[], Any],
    worker: Callable[..., Any],
    payload_for: Callable[[T, int], Any],
    items: Iterable[T],
    settings: RetrySettings,
    handle: Callable[[Any], T],
) -> list[T]:
    """Dispatch ``items`` over fresh pools until done or out of retries.

    ``make_pool()`` builds a configured :class:`multiprocessing.pool.Pool`
    (a fresh one per round — a tripped round's pool is terminated, killing
    hung workers with it); ``payload_for(item, attempt)`` builds the task
    payload, carrying the attempt counter so workers make the same
    deterministic fault decisions the parent previews; ``handle(outcome)``
    consumes one worker result and returns the item it completed.

    Returns the items that never completed (the caller quarantines them).
    Worker exceptions propagate — only the *transport* failure modes
    (lost results, watchdog trips) are retried here; a worker that raises
    is a bug surfacing, not an instance to re-dispatch.
    """
    health = current_health()
    pending: dict[T, int] = dict.fromkeys(items, 0)
    total_received = 0
    for round_no in range(settings.max_attempts):
        if not pending:
            break
        if round_no:
            health.retries += len(pending)
            retry_sleep(settings.backoff, round_no)
        stuck = False
        with make_pool() as pool:
            payloads = [payload_for(item, attempt) for item, attempt in pending.items()]
            results = pool.imap_unordered(worker, payloads, chunksize=1)
            remaining = len(payloads)
            while remaining:
                try:
                    outcome = results.next(timeout=settings.watchdog)
                except multiprocessing.TimeoutError:
                    stuck = True
                    break
                except StopIteration:  # pragma: no cover - defensive
                    break
                remaining -= 1
                total_received += 1
                pending.pop(handle(outcome), None)
        # Exiting the ``with`` terminates the pool: lost results cannot
        # arrive late and hung workers do not outlive their round.
        if stuck:
            health.timeouts += 1
            if round_no == 0 and total_received == 0:
                raise TransportFailure(
                    "no worker produced a result within the "
                    f"{settings.watchdog:g}s watchdog window"
                )
        for item in pending:
            pending[item] += 1
    return list(pending)
