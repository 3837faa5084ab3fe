"""MemBookingRedTree: the reduction-tree booking baseline (Section 3.2).

The strategy of Eyraud-Dubois et al. [reference 7 of the paper] only applies
to *reduction trees* (no execution data, outputs no larger than inputs); its
key idea is that once memory has been booked for all the leaves of a subtree,
the whole subtree can be processed within that booking, so bookings can be
expressed entirely through (possibly fictitious) leaf descendants.

A general tree is first transformed into a reduction tree by adding
fictitious zero-duration leaves carrying the missing input volume
(:func:`repro.core.tree_transform.to_reduction_tree`); the booking policy is
then applied to the transformed tree.  As the paper points out, on general
trees the transformation inflates the memory footprint so much that the
refined booking loses its advantage: the strategy behaves essentially like
the plain Activation policy applied to the transformed tree — which is
exactly how this baseline is implemented — and under tight memory bounds it
frequently cannot schedule the tree at all (Section 7.4 reports failures on
one third of the synthetic trees below 1.4x the minimum memory).  Both
behaviours are reproduced by this implementation and asserted in the
benchmark suite.

The activation and execution orders supplied for the original tree are
extended to the transformed tree by inserting every fictitious leaf
immediately before the node it feeds, which preserves topological validity
and the relative order of the real tasks.

The transformation, the extended orders and the reduced tree's
:class:`~repro.schedulers.engine.SimWorkspace` are pure functions of
(tree, AO, EO), so they are **memoised per tree**: a sweep that simulates
the same tree under many (processors, memory factor) combinations pays for
the reduction once instead of once per run.  Entries hold strong references
to their orders (so an ``id``-based key can never alias a collected object)
and die with the tree.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Any, Callable, Mapping

import numpy as np

from ..core.task_tree import TaskTree
from ..core.tree_transform import ReductionTreeResult, to_reduction_tree
from ..orders import Ordering
from .activation import ActivationScheduler
from .base import ScheduleResult
from .engine import SimWorkspace
from .validation import memory_profile  # noqa: F401  (tracers patch it by module)
from .validation import resident_peak

__all__ = ["MemBookingRedTreeScheduler", "extend_order_to_reduction"]


def extend_order_to_reduction(
    tree: TaskTree, reduction: ReductionTreeResult, order: Ordering
) -> Ordering:
    """Extend an ordering of the original tree to the reduction tree.

    Every fictitious leaf is placed immediately before its (real) parent, so
    the sequence stays a topological order of the transformed tree whenever
    the input is a topological order of the original tree, and real tasks
    keep their relative priorities.
    """
    n = reduction.original_n
    fictitious = np.asarray(reduction.fictitious_parent, dtype=np.int64)
    # An index scatter: every node is fed by at most one fictitious leaf
    # (``to_reduction_tree`` adds one per node with a deficit).
    leaf_of = np.full(n, -1, dtype=np.int64)
    leaf_of[fictitious] = np.arange(n, n + fictitious.size, dtype=np.int64)
    real = order.sequence
    leaf = leaf_of[real]
    fed = leaf >= 0
    position = np.arange(n, dtype=np.int64) + np.cumsum(fed)
    sequence = np.empty(n + fictitious.size, dtype=np.int64)
    sequence[position] = real
    sequence[position[fed] - 1] = leaf[fed]
    return Ordering(sequence, name=order.name + "+red")


#: Per-tree memo of reduction contexts, keyed by tree identity (evicted by a
#: ``weakref.finalize`` when the tree is collected, before its id can be
#: reused).  The inner mapping is keyed by the identity of the (AO, EO) pair
#: and holds strong references to both orders, so an entry can never outlive
#: — and therefore never alias — the orders it was built from.  Bounded so a
#: long-lived tree scheduled under many ad-hoc order pairs cannot grow it
#: without limit.
_REDUCTION_MEMO: dict[int, dict[tuple[int, int], tuple]] = {}
_REDUCTION_MEMO_PER_TREE = 4


def _reduction_context(
    tree: TaskTree, ao: Ordering, eo: Ordering
) -> tuple[ReductionTreeResult, Ordering, Ordering, SimWorkspace]:
    per_tree = _REDUCTION_MEMO.get(id(tree))
    if per_tree is None:
        per_tree = _REDUCTION_MEMO[id(tree)] = {}
        weakref.finalize(tree, _REDUCTION_MEMO.pop, id(tree), None)
    key = (id(ao), id(eo))
    entry = per_tree.get(key)
    if entry is None:
        reduction = to_reduction_tree(tree)
        reduced_ao = extend_order_to_reduction(tree, reduction, ao)
        reduced_eo = (
            reduced_ao if eo is ao else extend_order_to_reduction(tree, reduction, eo)
        )
        workspace = SimWorkspace(reduction.tree, reduced_ao, reduced_eo)
        if len(per_tree) >= _REDUCTION_MEMO_PER_TREE:
            per_tree.pop(next(iter(per_tree)))
        # ao/eo are stored to pin their ids for the lifetime of the entry.
        entry = per_tree[key] = (ao, eo, reduction, reduced_ao, reduced_eo, workspace)
    return entry[2], entry[3], entry[4], entry[5]


class MemBookingRedTreeScheduler(ActivationScheduler):
    """Reduction-tree booking baseline (``MemBookingRedTree`` in the figures)."""

    name = "MemBookingRedTree"

    def _run(
        self,
        tree: TaskTree,
        num_processors: int,
        memory_limit: float,
        ao: Ordering,
        eo: Ordering,
        *,
        invariant_hook: Callable[[Mapping[str, Any]], None] | None = None,
        workspace: SimWorkspace | None = None,
    ) -> ScheduleResult:
        _ = workspace  # the inner run uses the memoised *reduced* workspace
        reduction, reduced_ao, reduced_eo, reduced_workspace = _reduction_context(
            tree, ao, eo
        )

        # The reduction tree's own peak is never reported: simulate only.
        inner = self._simulate(
            reduction.tree,
            num_processors,
            memory_limit,
            reduced_ao,
            reduced_eo,
            invariant_hook=invariant_hook,
            workspace=reduced_workspace,
        )

        # Translate the schedule back to the original node indices (fictitious
        # leaves are dropped; they have zero duration and no real work).
        n = tree.n
        result = replace(
            inner,
            tree_size=n,
            start_times=inner.start_times[:n].copy(),
            finish_times=inner.finish_times[:n].copy(),
            processor=inner.processor[:n].copy(),
            activation_order=ao.name,
            execution_order=eo.name,
            extras={
                **inner.extras,
                "num_fictitious_nodes": reduction.num_fictitious,
                "fictitious_output_volume": reduction.added_output,
                "transformed_tree_size": reduction.tree.n,
            },
        )
        # Peak memory is reported for the *real* data only, which is what a
        # runtime would observe; the booked overhead of the fictitious inputs
        # shows up as a lower fraction of memory actually used (Figure 4).
        if self.peak_on_run:
            result.peak_memory = resident_peak(tree, result, self.native)
        return result
