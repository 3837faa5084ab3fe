"""The ``batched`` execution backend: lane-batched in-process sweeps.

:class:`BatchedBackend` walks a :class:`~repro.experiments.plan.SweepPlan`
tree group by tree group (the *lane grouping key*): every instance of one
tree shares its :class:`~repro.experiments.runner.InstanceContext` (orders,
minimum memory, :class:`~repro.schedulers.engine.SimWorkspace`), and the
instances of each batched heuristic become the **lanes** of one
:func:`~repro.batch.lanes.simulate_lanes` call, which simulates each lane
it cannot prove to be a replay of another and collapses the rest.  The
grouping itself is a plan transform
(:meth:`~repro.experiments.plan.SweepPlan.lane_groups` evaluated with
:func:`~repro.batch.lanes.batchable_scheduler`), so a subset plan — the
cache misses of a figure — batches exactly like the full grid it was cut
from.

Heuristics the lane engine does not batch (``MemBookingRedTree``, the
reference implementations, anything registered by users) run through the
ordinary :func:`~repro.experiments.runner.run_single` path inside the same
per-tree loop, so any sweep configuration is accepted and every record —
batched or scalar — lands at its canonical row.  The output is
byte-identical to :class:`~repro.experiments.backends.SerialBackend`
(timing fields aside), which the parity suite and the backend benchmarks
assert on the fig8 and fig15 configurations.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.task_tree import TaskTree
from ..experiments.backends import ExecutionBackend
from ..experiments.plan import SweepPlan
from ..experiments.records import RecordTable
from .lanes import LANE_KERNELS, batchable_scheduler, simulate_lanes

__all__ = ["BatchedBackend"]


class BatchedBackend(ExecutionBackend):
    """In-process execution with every tree's instances as collapsible lanes."""

    name = "batched"

    def run_plan(
        self, trees: Sequence[TaskTree], plan: SweepPlan
    ) -> RecordTable:
        from ..experiments.runner import (
            complete_record,
            prepare_instance,
            resilient_run_single,
        )
        from ..resilience.faults import resolve_fault_plan
        from ..resilience.health import current_health

        config = plan.config
        faults = resolve_fault_plan(config.fault_plan)
        table = RecordTable.empty(len(plan))
        for tree_index, rows in plan.tree_groups():
            tree = trees[tree_index]
            context = prepare_instance(tree, tree_index, config)
            lane_rows, _ = plan.lane_groups(rows, batchable_scheduler)
            records: dict[int, dict[str, Any]] = {}
            for scheduler, positions in lane_rows.items():
                kernel_cls = LANE_KERNELS[scheduler]
                lanes = [
                    (plan.combo(row)[1], plan.combo(row)[2] * context.minimum_memory)
                    for row in positions
                ]
                try:
                    if faults is not None:
                        faults.maybe_raise(
                            "lane-engine",
                            f"lane:{tree_index}:{scheduler}",
                            exc=RuntimeError,
                        )
                    outcomes = simulate_lanes(
                        kernel_cls,
                        tree,
                        context.ao,
                        context.eo,
                        context.workspace,
                        lanes,
                        native=config.native,
                        repetitions=config.timing_repetitions,
                    )
                except Exception:
                    # Lane engine down for this call: leave its rows out
                    # of ``records`` so the scalar loop below recomputes
                    # them one by one — same values, no lane collapse.  A
                    # systemic failure (e.g. native REQUIRED but absent)
                    # re-raises from the scalar path instead of looping.
                    current_health().record_degradation("batched->serial")
                    continue
                # A representative's record checks its schedule once and
                # fills its peak; a clone copies that peak unchecked.
                for lane, (row, (result, back)) in enumerate(zip(positions, outcomes)):
                    _, num_processors, memory_factor = plan.combo(row)
                    if back:
                        result.peak_memory = records[positions[lane - back]]["peak_memory"]
                    records[row] = complete_record(
                        context,
                        scheduler,
                        num_processors,
                        memory_factor,
                        config,
                        result,
                        run_validation=not back,
                        peak_deferred=not back,
                    )
            # Rows are written in ascending plan order whatever order the
            # lane calls produced them in: the dictionary-encoded
            # ``failure_reason`` codes must be assigned canonically.
            for row in rows:
                record = records.get(int(row))
                if record is None:
                    scheduler, num_processors, memory_factor = plan.combo(int(row))
                    record = resilient_run_single(
                        context, scheduler, num_processors, memory_factor, config, faults
                    )
                table.set_row(int(row), record)
        return table
