"""Deterministic fault injection: the seeded :class:`FaultPlan`.

A fault plan is a compact spec string — set through ``REPRO_FAULTS`` or
``SweepConfig.fault_plan`` — describing which fault kinds fire, how often,
and the recovery tunables of the run:

    seed=7;worker-crash:40;hang:97;os-transient:60:2;cache-corrupt:1;watchdog=5;backoff=0.05

Grammar (``;``-separated parts, order-free):

* ``seed=N`` — the deterministic seed (default 0).
* ``<kind>:<period>[:<max_attempt>]`` — arm fault ``kind``: it fires at a
  hook whose key hashes to ``0 mod period`` (``period=1`` = every key),
  but only while the hook's attempt counter is below ``max_attempt``
  (default 1 — the first attempt fails, every retry succeeds, so a
  default plan is always recoverable).  Kinds: ``worker-crash``,
  ``hang``, ``os-transient``, ``cache-corrupt``, ``native-build``,
  ``shm-lost``, ``lane-engine``.
* ``watchdog=S`` / ``backoff=S`` / ``hang=S`` / ``retries=N`` — recovery
  tunables: the per-result watchdog window of the worker pool, the
  base retry backoff, how long an injected hang sleeps, and the retry
  budget after which an instance is quarantined.

The firing decision (:meth:`FaultPlan.should_fire`) is a **pure function**
of ``(seed, kind, key, attempt)`` — no RNG state, no monkeypatching — so
the same plan injects the same faults in every process that evaluates the
same hook: workers decide locally from the attempt counter carried in
their dispatch payload, and the parent *previews* the same decision to
keep the :class:`~repro.resilience.health.RunHealth` ledger accurate.
Parent-only hooks with no natural attempt counter (cache writes, native
builds, arena publishes) use a per-plan fired-count instead
(:meth:`FaultPlan.fire`), which is equally deterministic within a process.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Iterable

from .health import current_health

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "instance_fault_key",
    "parse_fault_plan",
    "reset_fault_state",
    "resolve_fault_plan",
]

#: Every fault kind a plan may arm.
FAULT_KINDS: frozenset[str] = frozenset(
    {
        "worker-crash",  # worker process exits hard mid-task (os._exit)
        "hang",  # worker sleeps past the watchdog window
        "os-transient",  # run_single raises a transient OSError
        "cache-corrupt",  # a just-written cache row store is truncated
        "native-build",  # build_library fails (no shared object produced)
        "shm-lost",  # the published shared-memory arena vanishes
        "lane-engine",  # simulate_lanes raises (batched backend)
    }
)

#: Watchdog default when neither the plan nor ``REPRO_WATCHDOG`` says
#: otherwise: long enough that no real sweep instance ever trips it, short
#: enough that a genuinely wedged pool recovers within the run.
DEFAULT_WATCHDOG = 600.0
DEFAULT_BACKOFF = 0.1
DEFAULT_HANG_SECONDS = 3600.0
DEFAULT_MAX_ATTEMPTS = 4
#: Retry backoff is capped so an exhausted budget cannot stall for minutes.
BACKOFF_CAP = 2.0

#: ``failure_reason`` prefix of records produced by the quarantine path;
#: the plan layer refuses to cache such rows (see
#: :func:`~repro.experiments.plan.execute_plan_cached`).
QUARANTINE_PREFIX = "quarantined"


@dataclass(frozen=True)
class FaultRule:
    """One armed fault kind: fire keys hashing to ``0 mod period`` while
    the hook's attempt counter is below ``max_attempt``."""

    period: int
    max_attempt: int = 1


def _default_watchdog() -> float:
    raw = os.environ.get("REPRO_WATCHDOG")
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return DEFAULT_WATCHDOG


@dataclass
class FaultPlan:
    """A parsed fault-injection plan (see the module docstring grammar).

    Instances are cached per spec string (:func:`resolve_fault_plan`), so
    the parent-side fired counters of :meth:`fire` persist for the life of
    the process — a ``cache-corrupt:1`` rule corrupts the first cache
    write of the process, not every one.
    """

    spec: str
    seed: int = 0
    rules: dict[str, FaultRule] = field(default_factory=dict)
    watchdog: float = field(default_factory=_default_watchdog)
    backoff: float = DEFAULT_BACKOFF
    hang_seconds: float = DEFAULT_HANG_SECONDS
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    #: Parent-site fired counts: ``(kind, key) -> times fired``.
    _fired: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # the firing decision
    # ------------------------------------------------------------------ #
    def should_fire(self, kind: str, key: str, attempt: int) -> bool:
        """Pure firing decision — identical in every process.

        True iff ``kind`` is armed, ``attempt`` is still below the rule's
        ``max_attempt`` and the (seed, kind, key) digest lands on the
        rule's period.
        """
        rule = self.rules.get(kind)
        if rule is None or attempt >= rule.max_attempt:
            return False
        digest = hashlib.sha256(f"{self.seed}|{kind}|{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % rule.period == 0

    def fire(self, kind: str, key: str) -> bool:
        """Parent-site decision for hooks with no external attempt counter.

        The attempt is the number of times this (kind, key) has already
        fired in this process, so the default ``max_attempt=1`` makes a
        parent-site fault a fire-once event.  Records the injection on the
        health ledger when it fires.
        """
        attempt = self._fired.get((kind, key), 0)
        if not self.should_fire(kind, key, attempt):
            return False
        self._fired[(kind, key)] = attempt + 1
        current_health().record_injected(kind)
        return True

    def maybe_raise(
        self,
        kind: str,
        key: str,
        *,
        attempt: int | None = None,
        exc: type[Exception] = OSError,
    ) -> None:
        """Raise ``exc`` when the fault fires (recording the injection).

        With an explicit ``attempt`` the decision is the pure
        :meth:`should_fire`; without one it is the parent-site
        :meth:`fire` counter.
        """
        if attempt is None:
            if not self.fire(kind, key):
                return
        else:
            if not self.should_fire(kind, key, attempt):
                return
            current_health().record_injected(kind)
        raise exc(f"injected {kind} fault at {key!r} (seed {self.seed})")

    def worker_entry(self, key: str, attempt: int) -> None:
        """Worker-side crash/hang hook, called on task entry.

        No health recording here — a crashed worker could not report it
        anyway; the parent previews the same pure decision at dispatch
        time (:meth:`preview`) so the ledger still counts these.
        """
        if self.should_fire("worker-crash", key, attempt):
            os._exit(70)
        if self.should_fire("hang", key, attempt):
            time.sleep(self.hang_seconds)

    def preview(self, kinds: Iterable[str], key: str, attempt: int) -> None:
        """Parent-side ledger entry for faults a worker is about to take."""
        health = current_health()
        for kind in kinds:
            if self.should_fire(kind, key, attempt):
                health.record_injected(kind)


def instance_fault_key(
    tree_index: int, scheduler: str, num_processors: int, memory_factor: float
) -> str:
    """The canonical hook key of one sweep instance.

    Shared by every backend (serial, batched, shared-memory), so one plan
    injects the same instance-level faults whichever backend runs it.
    """
    return f"inst:{tree_index}:{scheduler}:{num_processors}:{memory_factor!r}"


# --------------------------------------------------------------------------- #
# spec parsing and resolution
# --------------------------------------------------------------------------- #
def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a plan spec string; raises :class:`ValueError` on bad grammar."""
    seed = 0
    rules: dict[str, FaultRule] = {}
    tunables: dict[str, float] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            name, sep, value = part.partition("=")
            name, value = name.strip(), value.strip()
            if not sep:
                raise ValueError(f"bad fault-plan part {part!r} (expected name=value or kind:period)")
            try:
                if name == "seed":
                    seed = int(value)
                elif name == "retries":
                    tunables["retries"] = float(int(value))
                elif name in ("watchdog", "backoff", "hang"):
                    tunables[name] = float(value)
                else:
                    raise ValueError(f"unknown fault-plan tunable {name!r}")
            except ValueError as exc:
                raise ValueError(f"bad fault-plan part {part!r}: {exc}") from None
        else:
            fields = [f.strip() for f in part.split(":")]
            kind = fields[0]
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; available: {sorted(FAULT_KINDS)}"
                )
            if len(fields) not in (2, 3):
                raise ValueError(f"bad fault rule {part!r} (expected kind:period[:max_attempt])")
            try:
                period = int(fields[1])
                max_attempt = int(fields[2]) if len(fields) == 3 else 1
            except ValueError:
                raise ValueError(f"bad fault rule {part!r}: period/max_attempt must be integers") from None
            if period < 1 or max_attempt < 1:
                raise ValueError(f"bad fault rule {part!r}: period and max_attempt must be >= 1")
            rules[kind] = FaultRule(period, max_attempt)
    plan = FaultPlan(spec=spec, seed=seed, rules=rules)
    if "watchdog" in tunables:
        plan.watchdog = tunables["watchdog"]
    if "backoff" in tunables:
        plan.backoff = tunables["backoff"]
    if "hang" in tunables:
        plan.hang_seconds = tunables["hang"]
    if "retries" in tunables:
        plan.max_attempts = max(1, int(tunables["retries"]))
    if plan.watchdog <= 0 or plan.backoff < 0 or plan.hang_seconds < 0:
        raise ValueError("fault-plan watchdog must be > 0 and backoff/hang >= 0")
    return plan


#: Plan instances by spec string: parent-site fired counters must persist
#: across hook evaluations within one process.
_PLANS: dict[str, FaultPlan] = {}


def resolve_fault_plan(spec: str | None) -> FaultPlan | None:
    """The active plan for a config spec (falling back to ``REPRO_FAULTS``).

    ``None`` when no plan is armed — the hot paths then skip every hook.
    Plans are cached per spec string so repeated resolution is a dict hit
    and parent-site counters persist.
    """
    effective = spec if spec is not None else os.environ.get("REPRO_FAULTS")
    if not effective:
        return None
    plan = _PLANS.get(effective)
    if plan is None:
        plan = _PLANS[effective] = parse_fault_plan(effective)
    return plan


def reset_fault_state() -> None:
    """Forget every cached plan (and its fired counters) — test helper."""
    _PLANS.clear()
