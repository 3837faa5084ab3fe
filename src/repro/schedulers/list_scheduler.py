"""Memory-oblivious list scheduling (reference point, not a paper heuristic).

A classical list scheduler: whenever a processor is idle, start the
highest-priority task (according to ``EO``) whose children have all
completed, ignoring the memory bound entirely.  Its makespan is a natural
reference for "how fast could we go if memory were unlimited", and its peak
resident memory shows how much memory an unconstrained execution would need
— useful background for the memory-pressure experiments and for sanity
checks (no memory-constrained heuristic can beat it).
"""

from __future__ import annotations

import math
from heapq import heapify, heappush
from typing import Any

from ..analysis.registry import hot_kernel
from .engine import EventDrivenScheduler, SimWorkspace

__all__ = ["ListKernel", "ListScheduler"]


class ListKernel:
    """One run's state: children counters and the ready heap.

    Every task counts as activated from the start, so there is nothing to
    activate, no orphan and no memory bound.
    """

    def __init__(self, workspace: SimWorkspace, memory_limit: float) -> None:
        self.workspace = workspace
        rank = workspace.eo_rank_list
        self.ready = [(rank[leaf], leaf) for leaf in workspace.leaves_list]
        heapify(self.ready)
        self.orphans = 0
        self.memory_bound = False
        self.bound_need = math.inf
        self.ch_not_fin = workspace.num_children_list.copy()

    @hot_kernel
    def bind(self):
        """``(activate, on_started, on_finished)``: only completions do work."""

        def activate():
            return

        def on_finished(
            nodes,
            parent=self.workspace.parent_list,
            ch_not_fin=self.ch_not_fin,
            eo_rank=self.workspace.eo_rank_list,
            ready=self.ready,
        ):
            for node in nodes:
                p = parent[node]
                if p >= 0:
                    ch_not_fin[p] -= 1
                    if ch_not_fin[p] == 0:
                        heappush(ready, (eo_rank[p], p))

        return activate, None, on_finished

    def extras(self) -> dict[str, Any]:
        return {"memory_oblivious": True}

    def invariant_state(self) -> dict[str, Any]:
        return {}


class ListScheduler(EventDrivenScheduler):
    """Priority list scheduling without any memory constraint."""

    name = "ListNoMemory"
    kernel = ListKernel
