"""Independent output checks for the benchmark.

Every check here recomputes what it needs from the tree arrays
(``parent``, ``ptime``, ``fout``, ``nexec``) with plain Python and NumPy:
nothing comes from ``repro.bounds``, ``repro.orders.peak_memory`` or
``repro.schedulers.validation``, so a fault in those layers cannot hide
itself.  Each check returns a list of error strings; an empty list passes.
:class:`Checker` and :func:`compare_rows` report an exception raised while
checking a row (a malformed record, an order that is not topological) as
a failed check of that row, so a run still ends with its result line.

The memory model is the paper's (Section 2.1): a task allocates its
execution datum and its output when it starts; when it finishes, its
execution datum and its children's outputs are freed, and its own output
stays resident until its parent finishes.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

#: Relative slack for float comparisons against bounds and limits.
RTOL = 1e-9

#: Record fields that carry wall-clock measurements (never compared).
TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})

#: Heuristics Theorem 1 guarantees to finish when the memory limit is at
#: least the sequential peak of their activation order.
THEOREM1_SCHEDULERS = frozenset({"Activation", "MemBooking"})


class TreeFacts:
    """Per-tree reference values computed from the raw node arrays."""

    def __init__(self, parent: np.ndarray, ptime: np.ndarray, fout: np.ndarray,
                 nexec: np.ndarray) -> None:
        self.parent = np.asarray(parent, dtype=np.int64)
        self.ptime = np.asarray(ptime, dtype=np.float64)
        self.fout = np.asarray(fout, dtype=np.float64)
        self.nexec = np.asarray(nexec, dtype=np.float64)
        n = len(self.parent)
        self.n = n
        self.children: list[list[int]] = [[] for _ in range(n)]
        roots = []
        for node, up in enumerate(self.parent.tolist()):
            if up < 0:
                roots.append(node)
            else:
                self.children[up].append(node)
        if len(roots) != 1:
            raise ValueError(f"tree has {len(roots)} roots")
        # Breadth-first from the root; reversed, children precede parents.
        order = [roots[0]]
        for node in order:
            order.extend(self.children[node])
        if len(order) != n:
            raise ValueError("parent array is not a tree")
        path = [0.0] * n
        ptime_list = self.ptime.tolist()
        for node in reversed(order):
            longest = max((path[c] for c in self.children[node]), default=0.0)
            path[node] = ptime_list[node] + longest
        #: Total work W and critical path CP.
        self.work = float(math.fsum(ptime_list))
        self.critical_path = path[roots[0]]

    @classmethod
    def of(cls, tree: Any) -> "TreeFacts":
        return cls(tree.parent, tree.ptime, tree.fout, tree.nexec)

    def sequential_peak(self, sequence: Sequence[int]) -> float:
        """Peak memory of running ``sequence`` one task at a time.

        Raises ``ValueError`` when ``sequence`` is not a topological
        permutation of the nodes.
        """
        seq = [int(v) for v in sequence]
        if len(seq) != self.n or sorted(seq) != list(range(self.n)):
            raise ValueError("order is not a permutation of the nodes")
        done = [False] * self.n
        fout = self.fout.tolist()
        nexec = self.nexec.tolist()
        resident = 0.0
        peak = 0.0
        for node in seq:
            kids = self.children[node]
            if not all(done[c] for c in kids):
                raise ValueError(f"order runs node {node} before one of its children")
            peak = max(peak, resident + nexec[node] + fout[node])
            resident += fout[node] - sum(fout[c] for c in kids)
            done[node] = True
        return peak


def check_row(row: Mapping[str, Any], facts: TreeFacts, ao_peak: float | None) -> list[str]:
    """Bounds, memory and Theorem 1 checks on one sweep record.

    ``ao_peak`` is the sequential peak of the row's activation order
    (``None`` skips the Theorem 1 check).
    """
    errors: list[str] = []
    where = (
        f"tree {row.get('tree_index')} {row.get('scheduler')} p={row.get('num_processors')}"
        f" f={row.get('memory_factor')}"
    )
    p = int(row["num_processors"])
    limit = float(row["memory_limit"])
    if row["completed"]:
        makespan = float(row["makespan"])
        lower = max(facts.work / p, facts.critical_path)
        if not makespan >= lower * (1 - RTOL):
            errors.append(f"{where}: makespan {makespan!r} below max(W/p, CP) = {lower!r}")
        if not makespan <= facts.work * (1 + RTOL):
            errors.append(f"{where}: makespan {makespan!r} above W = {facts.work!r}")
        peak = float(row["peak_memory"])
        if not peak <= limit * (1 + RTOL):
            errors.append(f"{where}: peak memory {peak!r} above the limit {limit!r}")
    elif (
        ao_peak is not None
        and row["scheduler"] in THEOREM1_SCHEDULERS
        and limit >= ao_peak * (1 + RTOL)
    ):
        errors.append(
            f"{where}: not completed although the limit {limit!r} covers the"
            f" activation order's sequential peak {ao_peak!r} (Theorem 1)"
        )
    return errors


def check_schedule(
    facts: TreeFacts,
    start: np.ndarray,
    finish: np.ndarray,
    processor: np.ndarray,
    num_processors: int,
    memory_limit: float,
) -> tuple[list[str], float]:
    """Precedence, processor count and resident memory of a complete schedule.

    Returns ``(errors, peak)`` where ``peak`` is the resident-memory peak
    recomputed from the start/finish arrays.
    """
    errors: list[str] = []
    start = np.asarray(start, dtype=np.float64)
    finish = np.asarray(finish, dtype=np.float64)
    processor = np.asarray(processor, dtype=np.int64)
    if not (np.isfinite(start).all() and np.isfinite(finish).all()):
        return ["a completed schedule leaves tasks unscheduled"], math.nan
    scale = max(1.0, float(finish.max()))
    tol = RTOL * scale
    if np.any(np.abs(finish - start - facts.ptime) > tol):
        errors.append("a task's finish differs from its start plus its processing time")
    has_parent = facts.parent >= 0
    late = finish[has_parent] > start[facts.parent[has_parent]] + tol
    if late.any():
        errors.append(f"{int(late.sum())} tasks finish after their parent starts")
    if processor.min() < 0 or processor.max() >= num_processors:
        errors.append("a task runs on a processor outside [0, p)")
    # Concurrency: at equal times, finishes are applied before starts.
    times = np.concatenate([start, finish])
    deltas = np.concatenate([np.ones(facts.n), -np.ones(facts.n)])
    order = np.lexsort((deltas, times))
    running = np.cumsum(deltas[order])
    if running.max() > num_processors:
        errors.append(f"{int(running.max())} tasks run at once on {num_processors} processors")
    for proc in np.unique(processor):
        mine = np.flatnonzero(processor == proc)
        by_start = mine[np.argsort(start[mine], kind="stable")]
        if np.any(start[by_start[1:]] < finish[by_start[:-1]] - tol):
            errors.append(f"two tasks overlap on processor {int(proc)}")
            break
    # Resident memory: +(nexec + fout) at start; at finish -nexec and
    # -fout of every child.  Events at one instant are netted together.
    child_out = np.zeros(facts.n)
    np.add.at(child_out, facts.parent[has_parent], facts.fout[has_parent])
    mem_times = np.concatenate([start, finish])
    mem_deltas = np.concatenate([facts.nexec + facts.fout, -(facts.nexec + child_out)])
    unique_times, inverse = np.unique(mem_times, return_inverse=True)
    net = np.zeros(len(unique_times))
    np.add.at(net, inverse, mem_deltas)
    peak = float(np.cumsum(net).max())
    if peak > memory_limit * (1 + RTOL):
        errors.append(f"resident memory peaks at {peak!r} above the limit {memory_limit!r}")
    return errors, peak


def same_value(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def compare_rows(
    first: Iterable[Mapping[str, Any]], second: Iterable[Mapping[str, Any]], label: str
) -> list[str]:
    """Field-for-field equality of two row sequences, timing fields aside."""
    first, second = list(first), list(second)
    if len(first) != len(second):
        return [f"{label}: {len(first)} rows against {len(second)}"]
    errors = []
    for position, (a, b) in enumerate(zip(first, second)):
        try:
            fields = (set(a) | set(b)) - TIMING_FIELDS
            bad = sorted(f for f in fields if not same_value(a.get(f), b.get(f)))
        except Exception as exc:
            errors.append(f"{label}: row {position}: {_raised(exc)}")
            continue
        if bad:
            errors.append(f"{label}: row {position} differs in {', '.join(bad)}")
    return errors


def _raised(exc: Exception) -> str:
    return f"the check raised {type(exc).__name__}: {exc}"


class Checker:
    """Runs every check over the rows and schedules of one dataset.

    ``trees`` are the dataset's :class:`repro.core.TaskTree` objects.
    Orders are built once per (tree, order name) through
    ``repro.orders.make_order`` and only their node sequences are used:
    their sequential peaks come from :meth:`TreeFacts.sequential_peak`.
    """

    def __init__(self, trees: Sequence[Any], native: bool) -> None:
        self.trees = list(trees)
        self.native = native
        self.facts = [TreeFacts.of(tree) for tree in self.trees]
        self._orders: dict[tuple[int, str], Any] = {}
        self._peaks: dict[tuple[int, str], float] = {}

    def order(self, index: int, name: str) -> Any:
        key = (index, name)
        order = self._orders.get(key)
        if order is None:
            from repro.orders import make_order

            order = self._orders[key] = make_order(self.trees[index], name)
        return order

    def order_peak(self, index: int, name: str) -> float:
        key = (index, name)
        peak = self._peaks.get(key)
        if peak is None:
            sequence = self.order(index, name).sequence
            peak = self._peaks[key] = self.facts[index].sequential_peak(sequence)
        return peak

    def rows(self, rows: Iterable[Mapping[str, Any]]) -> list[str]:
        """:func:`check_row` on every row, plus the memory normalisation."""
        errors: list[str] = []
        for position, row in enumerate(rows):
            try:
                errors.extend(self._row(row))
            except Exception as exc:
                errors.append(f"row {position}: {_raised(exc)}")
        return errors

    def _row(self, row: Mapping[str, Any]) -> list[str]:
        errors: list[str] = []
        index = int(row["tree_index"])
        ao_name = str(row.get("activation_order") or "memPO")
        errors.extend(check_row(row, self.facts[index], self.order_peak(index, ao_name)))
        minimum = self.order_peak(index, "memPO")
        if not math.isclose(float(row["minimum_memory"]), minimum, rel_tol=RTOL):
            errors.append(
                f"tree {index}: minimum memory {row['minimum_memory']!r} is not the"
                f" memPO sequential peak {minimum!r}"
            )
        expected_limit = float(row["memory_factor"]) * float(row["minimum_memory"])
        if not math.isclose(float(row["memory_limit"]), expected_limit, rel_tol=RTOL):
            errors.append(f"tree {index}: memory limit is not factor x minimum memory")
        return errors

    def resimulate(self, row: Mapping[str, Any]) -> list[str]:
        """Re-run ``row``'s instance through ``Scheduler.schedule`` and check it."""
        try:
            return self._resimulate(row)
        except Exception as exc:
            return [f"re-simulated row of tree {row.get('tree_index')}: {_raised(exc)}"]

    def _resimulate(self, row: Mapping[str, Any]) -> list[str]:
        from repro.schedulers import make_scheduler

        index = int(row["tree_index"])
        ao_name = str(row.get("activation_order") or "memPO")
        eo_name = str(row.get("execution_order") or "memPO")
        scheduler = make_scheduler(str(row["scheduler"]))
        scheduler.native = self.native
        p = int(row["num_processors"])
        limit = float(row["memory_limit"])
        result = scheduler.schedule(
            self.trees[index], p, limit,
            ao=self.order(index, ao_name), eo=self.order(index, eo_name),
        )
        where = f"re-simulated tree {index} {row['scheduler']} p={p} f={row['memory_factor']}"
        if bool(result.completed) != bool(row["completed"]):
            return [f"{where}: completed={result.completed} but the row says {row['completed']}"]
        if not result.completed:
            return []
        problems, peak = check_schedule(
            self.facts[index], result.start_times, result.finish_times, result.processor,
            p, limit,
        )
        if not same_value(float(result.makespan), float(row["makespan"])):
            problems.append(f"makespan {result.makespan!r} != row {row['makespan']!r}")
        if not math.isclose(peak, float(row["peak_memory"]), rel_tol=RTOL):
            problems.append(f"resident peak {peak!r} != row {row['peak_memory']!r}")
        return [f"{where}: {problem}" for problem in problems]
