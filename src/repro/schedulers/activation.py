"""The simple Activation heuristic of Agullo et al. (Algorithm 1, Section 3.1).

The heuristic books, for every *activated* task ``i``, the memory ``n_i +
f_i`` it will eventually need on top of its inputs.  Tasks are activated in
the activation order ``AO`` as long as the bookings fit in ``M``; a task may
execute once it is activated and all of its children have completed.  When a
task finishes, its execution data and its inputs (the outputs of its
children, booked by the children's own activations) are released.

This strategy is safe — it never books less than what a task needs — but it
is very conservative: along a chain it books the execution data of every
task of the chain simultaneously even though they can never run
concurrently, which starves other branches of memory and therefore of
parallelism.  Quantifying that loss (and recovering it with MemBooking) is
the core of the paper.

Implementation: array-native.  The per-node state lives in flat vectors
(activation flags, children-remaining counters) indexed by node id; the
booking requests along the AO are a precomputed
:class:`~repro.schedulers.engine.SimWorkspace` plane, and the activation
loop is a **vectorised prefix scan**: a chunked exact ``cumsum`` over the
remaining AO suffix finds every activation the current budget admits in one
NumPy kernel instead of one ledger transaction per node.  The scan
reproduces the sequential ledger arithmetic bit for bit (``cumsum`` is the
same left-fold of IEEE additions the one-at-a-time bookings performed), so
schedules are identical to
:class:`repro.schedulers.reference.ReferenceActivationScheduler` — the
parity suite asserts it.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, MutableSequence, Sequence

import numpy as np

from ..analysis.registry import hot_kernel
from .engine import EventDrivenScheduler

__all__ = ["ActivationScheduler", "run_activation_scan"]

#: Activations taken one at a time before switching to the vector scan.
#: Most ``_activate`` calls admit zero or a couple of nodes — a NumPy kernel
#: for those costs more than it saves — while the large bursts (t = 0, big
#: frees) run through the cumsum scan.
_SCALAR_BURST = 16

#: First vector-scan chunk; doubled while a chunk activates fully, so a
#: burst of k activations costs O(k) scanned entries, not O(n).
_SCAN_CHUNK = 64


@hot_kernel(note="UpdateCAND-ACT transition, shared scalar/lane")
def run_activation_scan(
    pos: int,
    total: int,
    booked: float,
    peak: float,
    threshold: float,
    req_list: Sequence[float],
    req_ao: np.ndarray,
    ao_seq: Sequence[int],
    activated: "MutableSequence[int] | np.ndarray",
    ch_not_fin: "Sequence[int] | np.ndarray",
    eo_rank: Sequence[int],
    ready: list[tuple[int, int]],
) -> tuple[int, float, float]:
    """The ``UpdateCAND-ACT`` transition of Algorithm 1, as a pure function.

    Shared by the scalar :class:`ActivationScheduler` and the batched lane
    kernel of :mod:`repro.batch.lanes`, so the two implementations cannot
    drift: the exact ledger fold (scalar burst first, then the chunked
    exact-``cumsum`` prefix scan) lives here once.  Both pass a
    ``bytearray``/``list`` pair as the per-node containers (any mutable
    sequences work) and the arithmetic is pure-Python floats, so schedules
    are identical.

    Returns the advanced ``(next position, booked, peak booked)``; activation
    flags are set and newly available tasks pushed onto ``ready`` in place.
    """
    # One-at-a-time burst first (the typical call admits a handful of
    # nodes): exactly the sequential ledger fold.
    burst_end = min(total, pos + _SCALAR_BURST)
    while pos < burst_end:
        grown = booked + req_list[pos]
        if grown > threshold:
            return pos, booked, peak
        booked = grown
        if booked > peak:
            peak = booked
        node = ao_seq[pos]
        activated[node] = 1
        if ch_not_fin[node] == 0:
            heappush(ready, (eo_rank[node], node))
        pos += 1

    # Long activation burst: switch to the vectorised prefix scan over
    # the remaining AO suffix, in doubling chunks.
    if pos < total:
        chunk = _SCAN_CHUNK
        while pos < total:
            end = min(pos + chunk, total)
            seg = req_ao[pos:end]
            # Exact prefix fold: cum[k] is the booked total after the
            # k-th activation of this chunk, the same chain of additions
            # the sequential ledger performed.
            # kernel-ok: loop-alloc (doubling chunk buffer of the exact scan)
            cum = np.empty(seg.size + 1, dtype=np.float64)
            cum[0] = booked
            cum[1:] = seg
            np.cumsum(cum, out=cum)
            over = np.nonzero(cum[1:] > threshold)[0]
            take = int(over[0]) if over.size else seg.size
            if take:
                high = float(cum[1 : take + 1].max())
                if high > peak:
                    peak = high
                booked = float(cum[take])
                for node in ao_seq[pos : pos + take]:
                    activated[node] = 1
                    if ch_not_fin[node] == 0:
                        heappush(ready, (eo_rank[node], node))
                pos += take
            if take < seg.size:
                break
            chunk <<= 1

    return pos, booked, peak


class ActivationScheduler(EventDrivenScheduler):
    """Algorithm 1 of the paper (the baseline activation policy)."""

    name = "Activation"
    #: Compiled twin (repro.native): the full event loop with this
    #: heuristic's activation scan and release ledger.
    native_kernel = "activation"

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        ws = self.workspace
        assert ws is not None  # the engine installs it before _setup
        limit = self.memory_limit
        # Inlined MemoryLedger: same bound, tolerance and clamp semantics,
        # kept in local floats instead of method calls on the hot path.
        self._limit = limit
        self._tol = 1e-9 * max(1.0, limit)
        self._threshold = limit + self._tol
        self._booked = 0.0
        self._peak_booked = 0.0
        # Position of the next node of AO to try to activate.
        self._next_activation = 0
        self._total = ws.n
        # Flat per-node state vectors (indexed by node id).
        self._activated = bytearray(ws.n)
        self._ch_not_fin = ws.num_children_list.copy()
        # Static planes shared by every run on this (tree, AO, EO).
        self._parent_list = ws.parent_list
        self._release_list = ws.release_list
        self._req_ao = ws.request_ao
        self._req_ao_list = ws.request_ao_list
        self._ao_seq_list = ws.ao_sequence_list
        self._eo_rank_list = ws.eo_rank_list
        # Ready tasks (activated + all children finished), keyed by EO rank:
        # a plain (rank, node) heap the engine pops directly (fast path).
        self.ready_heap = []

    @hot_kernel
    def _activate(self) -> None:
        pos = self._next_activation
        total = self._total
        if pos >= total:
            return
        booked = self._booked
        threshold = self._threshold
        req_list = self._req_ao_list
        # Scalar fast path: the first candidate not fitting is by far the
        # common case mid-run; don't pay a function call to find that out.
        if booked + req_list[pos] > threshold:
            return
        pos, booked, peak = run_activation_scan(
            pos,
            total,
            booked,
            self._peak_booked,
            threshold,
            req_list,
            self._req_ao,
            self._ao_seq_list,
            self._activated,
            self._ch_not_fin,
            self._eo_rank_list,
            self.ready_heap,
        )
        self._next_activation = pos
        self._booked = booked
        self._peak_booked = peak

    @hot_kernel
    def _on_tasks_finished(self, nodes: Sequence[int]) -> None:
        # Free the execution data of each completed node and the inputs it
        # consumed (the outputs of its children, booked when the children
        # were activated).  The node's own output stays booked for the
        # parent.  Releases clamp at zero per node, exactly like the ledger.
        booked = self._booked
        neg_tol = -self._tol
        release = self._release_list
        parent = self._parent_list
        ch_not_fin = self._ch_not_fin
        activated = self._activated
        eo_rank = self._eo_rank_list
        ready = self.ready_heap
        for node in nodes:
            booked -= release[node]
            if booked < 0.0:
                if booked < neg_tol:
                    raise RuntimeError(
                        f"released more memory than was booked (booked={booked:.6g})"
                    )
                booked = 0.0
            p = parent[node]
            if p >= 0:
                ch_not_fin[p] -= 1
                if ch_not_fin[p] == 0 and activated[p]:
                    heappush(ready, (eo_rank[p], p))
        self._booked = booked

    def _on_task_finished(self, node: int) -> None:
        self._on_tasks_finished((node,))

    def _extra_results(self) -> dict[str, Any]:
        return {
            "peak_booked_memory": self._peak_booked,
            "activated": self._next_activation,
        }

    def _invariant_state(self) -> dict[str, Any]:
        return {
            "booked": self._booked,
            "limit": self._limit,
            "activated_prefix": self._next_activation,
        }
