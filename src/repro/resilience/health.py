"""Per-run fault-tolerance accounting: the :class:`RunHealth` report.

One process-wide :class:`RunHealth` instance accumulates everything the
resilience layer does during a run — faults injected by the active
:class:`~repro.resilience.faults.FaultPlan`, dispatch retries, watchdog
timeouts, graceful degradations (which rung of the ladder was taken, and
how often), quarantined instances and quarantined cache entries.  The
suite resets it at the start of a run (:func:`reset_run_health`), surfaces
the summary line in ``summary.md``/stdout and writes the full dict to a
``run-health.json`` artifact.

Counters are *parent-process* accounting: pool workers keep their own
(invisible) instance, so the backends record worker-side events on the
parent's ledger — worker crash/hang injections are previewed at dispatch
time (the fault decision is a pure function of (seed, kind, key, attempt),
so the parent knows exactly what each worker will do), and worker-side
quarantine records are counted when their failure reasons come back
through the merge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["RunHealth", "current_health", "reset_run_health"]


@dataclass
class RunHealth:
    """Counters of everything the resilience layer did during one run."""

    #: Faults fired by the active plan, by kind (``worker-crash``, ``hang``,
    #: ``os-transient``, ``cache-corrupt``, ``native-build``, ``shm-lost``,
    #: ``lane-engine``).
    injected: dict[str, int] = field(default_factory=dict)
    #: Instances re-dispatched after a lost/failed attempt.
    retries: int = 0
    #: Watchdog windows that expired with results still pending.
    timeouts: int = 0
    #: Degradation-ladder edges taken, e.g. ``"shared-memory->serial"``,
    #: ``"batched->serial"``, ``"native->python"``, ``"cache->uncached"``.
    degradations: dict[str, int] = field(default_factory=dict)
    #: Instances that exhausted their retry budget and were recorded into
    #: the failure plane instead of completing.
    quarantined_instances: int = 0
    #: Corrupt cache files renamed aside (``*.quarantined``) and recomputed.
    cache_quarantines: int = 0
    #: Instances that finished a run neither completed nor quarantined.
    #: The instance-keyed merge raises on any gap, so this stays zero in
    #: every run that returns — it is the invariant the chaos CI asserts.
    lost_instances: int = 0

    def record_injected(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def record_degradation(self, edge: str) -> None:
        self.degradations[edge] = self.degradations.get(edge, 0) + 1

    def any_activity(self) -> bool:
        """True when any counter moved (worth a line in the CLI output)."""
        return bool(
            self.injected
            or self.retries
            or self.timeouts
            or self.degradations
            or self.quarantined_instances
            or self.cache_quarantines
            or self.lost_instances
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "injected": dict(sorted(self.injected.items())),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "degradations": dict(sorted(self.degradations.items())),
            "quarantined_instances": self.quarantined_instances,
            "cache_quarantines": self.cache_quarantines,
            "lost_instances": self.lost_instances,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def summary(self) -> str:
        """One-line report for summary.md / stdout."""
        return (
            f"{sum(self.injected.values())} faults injected, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{sum(self.degradations.values())} degradations, "
            f"{self.quarantined_instances} instances quarantined, "
            f"{self.cache_quarantines} cache quarantines, "
            f"{self.lost_instances} lost"
        )


_HEALTH = RunHealth()


def current_health() -> RunHealth:
    """The process-wide health ledger (parent-process accounting)."""
    return _HEALTH


def reset_run_health() -> RunHealth:
    """Zero every counter (the suite calls this at the start of a run)."""
    global _HEALTH
    _HEALTH = RunHealth()
    return _HEALTH
