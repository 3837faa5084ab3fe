"""Configuration objects for experiment sweeps.

A :class:`SweepConfig` describes the cartesian product explored by
:func:`repro.experiments.runner.run_sweep`: which heuristics, which memory
factors (multiples of the minimum sequential memory of each tree), which
processor counts and which activation/execution orders.  The defaults match
the main setup of Section 7.2 of the paper: three heuristics, eight
processors, memory factors from 1 to 20, and the memory-minimising postorder
used for both AO and EO.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SweepConfig", "DEFAULT_MEMORY_FACTORS", "PAPER_HEURISTICS"]

#: Memory factors used by most figures (normalised memory bound axis).
DEFAULT_MEMORY_FACTORS: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0)

#: The three heuristics compared throughout Section 7.
PAPER_HEURISTICS: tuple[str, ...] = ("Activation", "MemBookingRedTree", "MemBooking")


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one experiment sweep.

    Attributes
    ----------
    schedulers:
        Names resolved through :data:`repro.schedulers.SCHEDULER_FACTORIES`.
    memory_factors:
        Multiples of each tree's minimum sequential memory (the peak of its
        memory-minimising postorder) used as memory bounds.
    processors:
        Processor counts to explore (the paper mainly reports ``p = 8``).
    activation_order / execution_order:
        Ordering names resolved through :data:`repro.orders.ORDER_FACTORIES`.
    min_completion_fraction:
        A (memory factor, scheduler) point is only reported when at least
        this fraction of the trees could be scheduled — the paper uses 95%.
    validate:
        When true, every produced schedule is checked by
        :func:`repro.schedulers.validate_schedule` (slower, used in tests and
        benchmarks; the experiment scripts keep it on by default because the
        trees are laptop-scale).
    jobs:
        Number of worker processes used by
        :func:`repro.experiments.runner.run_sweep`.  ``1`` (the default)
        keeps the sweep in-process; ``0`` means "one worker per available
        CPU".  Records are always merged back in the exact order the serial
        sweep would produce.
    backend:
        Execution backend used by :func:`~repro.experiments.runner.run_sweep`
        (one of :data:`repro.experiments.backends.BACKEND_NAMES`):
        ``"serial"`` (in-process), ``"shared-memory"`` (the worker pool:
        zero-copy arena transfer, instance-granularity scheduling),
        ``"batched"`` (the in-process lane engine of :mod:`repro.batch` —
        all instances of one tree resolved together, provably identical
        ones simulated once) or ``"auto"`` (the default — serial for one
        worker, ``"shared-memory"`` otherwise).
    native:
        Compiled kernel plane selection (:mod:`repro.native`): ``True``
        requires the C kernels (raise if they cannot be built), ``False``
        forces the pure-Python kernels, ``None`` (the default) defers to
        the ``REPRO_NATIVE`` environment switch (AUTO with silent
        fallback when unset).  Execution-only — the native stepper is
        bit-identical by contract, so it never changes the records.
    fault_plan:
        Deterministic fault-injection plan spec
        (:func:`repro.resilience.parse_fault_plan` grammar, e.g.
        ``"seed=7;worker-crash:40;watchdog=5"``); ``None`` (the default)
        defers to the ``REPRO_FAULTS`` environment variable.  Execution-only
        — a recoverable plan produces records byte-identical to a
        fault-free run (instances that exhaust the retry budget are
        quarantined into the failure plane, and such rows are never
        cached).
    timing_repetitions:
        Number of times each instance's simulation is run, keeping the
        *minimum* wall-clock ``scheduling_seconds`` (the
        standard guard against one-off scheduler/GC noise).  The timing
        figures (fig5, fig6, fig13) set this above 1 so their committed
        artifacts are stable across regenerations.  Execution-only: value
        fields come from the first run and the simulations are
        deterministic, so only the wall-clock timing fields — which are
        excluded from every byte-identity check and cache key — are
        affected.  On the batched lane path every simulated lane repeats
        its call; collapsed lanes report their representative's timing.
    """

    schedulers: tuple[str, ...] = PAPER_HEURISTICS
    memory_factors: tuple[float, ...] = DEFAULT_MEMORY_FACTORS
    processors: tuple[int, ...] = (8,)
    activation_order: str = "memPO"
    execution_order: str = "memPO"
    min_completion_fraction: float = 0.95
    validate: bool = True
    jobs: int = 1
    backend: str = "auto"
    native: bool | None = None
    fault_plan: str | None = None
    timing_repetitions: int = 1

    def __post_init__(self) -> None:
        if not self.schedulers:
            raise ValueError("at least one scheduler is required")
        if not self.memory_factors or min(self.memory_factors) < 1.0:
            raise ValueError("memory factors must be >= 1 (relative to the minimum memory)")
        if not self.processors or min(self.processors) < 1:
            raise ValueError("processor counts must be positive")
        if not 0.0 <= self.min_completion_fraction <= 1.0:
            raise ValueError("min_completion_fraction must be in [0, 1]")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means one worker per CPU)")
        if self.timing_repetitions < 1:
            raise ValueError("timing_repetitions must be >= 1")
        # Local import: backends imports this module for type information.
        from .backends import BACKEND_NAMES

        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; available: {sorted(BACKEND_NAMES)}"
            )
        if self.fault_plan is not None:
            # Validate the spec eagerly: a typo'd plan should fail at
            # configuration time, not halfway into a sweep.
            from ..resilience.faults import parse_fault_plan

            parse_fault_plan(self.fault_plan)

    def with_overrides(self, **kwargs) -> "SweepConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)
