"""Sweep plans: the instance grid as first-class columnar data.

Every experiment of the paper is the same shape — a cartesian
(tree, processors, memory factor, heuristic) grid simulated instance by
instance — yet until this module the grid only ever existed *implicitly*,
re-derived inside each execution backend from a
:class:`~repro.experiments.config.SweepConfig`.  A :class:`SweepPlan` makes
the enumeration explicit: one row per instance, stored as typed NumPy
columns (tree index, scheduler code, AO/EO codes, processor count, memory
factor), in the exact canonical order of :func:`iter_instances` — the row
position *is* the global merge index of the instance.

Having the grid as data buys three things:

* **backends consume plans** — every
  :class:`~repro.experiments.backends.ExecutionBackend` implements
  ``run_plan(trees, plan)``; the historical ``run(trees, config)`` is now a
  thin wrapper that builds the full plan first.  A *subset* plan (cache
  misses only, see below) runs through the identical machinery, so partial
  execution cannot drift from full execution;
* **plan transforms replace ad-hoc grouping** — the batched backend's lane
  grouping (:meth:`SweepPlan.lane_groups`) and the per-tree loop of the
  in-process backends (:meth:`SweepPlan.tree_groups`) are methods on the data,
  not re-implementations of the enumeration order inside each backend;
* **instances get stable identities** — :meth:`SweepPlan.instance_keys`
  derives a content key per row from the tree's own bytes (structure,
  weights, durations) plus the value-relevant config fields, which is what
  the instance-level :class:`~repro.experiments.records.ResultCache` rows
  are keyed by.  Two figures sweeping overlapping grids over the same trees
  therefore share cached rows even when their dataset descriptors differ.

Record values are pure functions of (tree bytes, tree index, scheduler,
AO, EO, p, factor) — the wall-clock timing fields aside — so a content key
over exactly those inputs is sound: a cached row served for a key is
bit-identical to what a fresh simulation would produce.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.task_tree import TaskTree
from .config import SweepConfig
from .records import CACHE_SCHEMA_VERSION, RecordTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .records import RowCache

__all__ = [
    "SweepPlan",
    "iter_instances",
    "runs_per_tree",
    "tree_content_sha",
    "execute_plan",
    "execute_plan_cached",
]


# --------------------------------------------------------------------------- #
# canonical enumeration (the single owner of the instance order)
# --------------------------------------------------------------------------- #
def runs_per_tree(config: SweepConfig) -> int:
    """Number of simulation instances each tree contributes to a sweep."""
    return len(config.processors) * len(config.memory_factors) * len(config.schedulers)


def iter_instances(
    config: SweepConfig, num_trees: int
) -> Iterator[tuple[int, str, int, float]]:
    """Yield ``(tree_index, scheduler, processors, factor)`` in canonical order.

    The enumeration order *is* the record order of the serial sweep; the
    position of an instance in this iteration is its global merge index.
    :meth:`SweepPlan.from_config` materialises exactly this enumeration.
    """
    for tree_index in range(num_trees):
        for num_processors in config.processors:
            for memory_factor in config.memory_factors:
                for scheduler in config.schedulers:
                    yield tree_index, scheduler, num_processors, memory_factor


# --------------------------------------------------------------------------- #
# tree content identity
# --------------------------------------------------------------------------- #
#: Process-local memo of per-tree content digests keyed by object identity
#: (same id-keyed + ``weakref.finalize`` scheme as the runner's tree memo:
#: ``TaskTree.__hash__`` walks every node array, so a WeakKeyDictionary
#: would make each lookup O(n)).
_TREE_SHA_MEMO: dict[int, str] = {}


def tree_content_sha(tree: TaskTree) -> str:
    """Digest of the value-relevant bytes of a tree (structure + weights).

    Two trees with equal ``parent``/``fout``/``nexec``/``ptime`` arrays get
    equal digests whatever objects carry them — regenerating a dataset from
    the same seed yields the same digests, which is what lets cached
    instance rows survive across processes and sessions.
    """
    key = id(tree)
    sha = _TREE_SHA_MEMO.get(key)
    if sha is None:
        digest = hashlib.sha256()
        digest.update(np.int64(tree.n).tobytes())
        digest.update(np.ascontiguousarray(tree.parent).tobytes())
        digest.update(np.ascontiguousarray(tree.fout).tobytes())
        digest.update(np.ascontiguousarray(tree.nexec).tobytes())
        digest.update(np.ascontiguousarray(tree.ptime).tobytes())
        sha = _TREE_SHA_MEMO[key] = digest.hexdigest()
        weakref.finalize(tree, _TREE_SHA_MEMO.pop, key, None)
    return sha


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #
class SweepPlan:
    """A fully-enumerated instance grid as columnar planes.

    One row per (tree, scheduler, processors, memory factor) instance, in
    canonical order.  ``global_index`` maps each row back to its position in
    the *full* enumeration of ``config`` — for a full plan it is simply
    ``0..n-1``; for a subset plan (:meth:`subset`) it records where each
    surviving row belongs.

    Construct with :meth:`from_config`; build subsets with :meth:`subset`.
    """

    __slots__ = (
        "config",
        "num_trees",
        "schedulers",
        "tree_index",
        "scheduler_code",
        "ao_code",
        "eo_code",
        "processors",
        "memory_factor",
        "global_index",
        "order_names",
    )

    def __init__(
        self,
        config: SweepConfig,
        num_trees: int,
        *,
        tree_index: np.ndarray,
        scheduler_code: np.ndarray,
        ao_code: np.ndarray,
        eo_code: np.ndarray,
        processors: np.ndarray,
        memory_factor: np.ndarray,
        global_index: np.ndarray,
    ) -> None:
        #: The sweep configuration the plan enumerates (value-relevant fields
        #: plus the execution knobs backends read: jobs/backend/native
        #: travel with the plan unchanged).
        self.config = config
        self.num_trees = int(num_trees)
        #: Code table for ``scheduler_code`` (codes index this tuple).
        self.schedulers: tuple[str, ...] = tuple(config.schedulers)
        #: Code table for ``ao_code`` / ``eo_code``.
        self.order_names: tuple[str, ...] = tuple(
            dict.fromkeys((config.activation_order, config.execution_order))
        )
        self.tree_index = tree_index
        self.scheduler_code = scheduler_code
        self.ao_code = ao_code
        self.eo_code = eo_code
        self.processors = processors
        self.memory_factor = memory_factor
        self.global_index = global_index
        for column in (
            tree_index, scheduler_code, ao_code, eo_code,
            processors, memory_factor, global_index,
        ):
            column.flags.writeable = False

    @classmethod
    def from_config(cls, config: SweepConfig, num_trees: int) -> "SweepPlan":
        """Materialise the full canonical grid of ``config`` over ``num_trees``."""
        per_tree = runs_per_tree(config)
        total = num_trees * per_tree
        sched_code = {name: code for code, name in enumerate(config.schedulers)}
        combo_rows = [
            (sched_code[scheduler], num_processors, factor)
            for num_processors in config.processors
            for factor in config.memory_factors
            for scheduler in config.schedulers
        ]
        combo_sched = np.asarray([row[0] for row in combo_rows], dtype=np.int64)
        combo_procs = np.asarray([row[1] for row in combo_rows], dtype=np.int64)
        combo_factor = np.asarray([row[2] for row in combo_rows], dtype=np.float64)
        order_names = tuple(dict.fromkeys((config.activation_order, config.execution_order)))
        tree_index = np.repeat(np.arange(num_trees, dtype=np.int64), per_tree)
        scheduler_code = np.tile(combo_sched, num_trees)
        processors = np.tile(combo_procs, num_trees)
        memory_factor = np.tile(combo_factor, num_trees)
        ao_code = np.zeros(total, dtype=np.int64)
        eo_code = np.full(
            total, order_names.index(config.execution_order), dtype=np.int64
        )
        global_index = np.arange(total, dtype=np.int64)
        return cls(
            config,
            num_trees,
            tree_index=tree_index,
            scheduler_code=scheduler_code,
            ao_code=ao_code,
            eo_code=eo_code,
            processors=processors,
            memory_factor=memory_factor,
            global_index=global_index,
        )

    # ------------------------------------------------------------------ #
    # row access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.tree_index.shape[0])

    @property
    def is_full(self) -> bool:
        """True when the plan covers the whole grid of its config, in order."""
        return len(self) == self.num_trees * runs_per_tree(self.config)

    def combo(self, row: int) -> tuple[str, int, float]:
        """``(scheduler, processors, factor)`` of one plan row."""
        return (
            self.schedulers[int(self.scheduler_code[row])],
            int(self.processors[row]),
            float(self.memory_factor[row]),
        )

    def instances(self) -> Iterator[tuple[int, str, int, float]]:
        """Yield ``(tree_index, scheduler, processors, factor)`` per row.

        For a full plan this is exactly :func:`iter_instances`.
        """
        schedulers = self.schedulers
        for row in range(len(self)):
            yield (
                int(self.tree_index[row]),
                schedulers[int(self.scheduler_code[row])],
                int(self.processors[row]),
                float(self.memory_factor[row]),
            )

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def subset(self, positions: Sequence[int] | np.ndarray) -> "SweepPlan":
        """The plan restricted to ``positions`` (row indices of *this* plan).

        Rows keep canonical order (positions are sorted and deduplicated)
        and their ``global_index`` values, so a subset executed by any
        backend still merges deterministically.
        """
        rows = np.unique(np.asarray(positions, dtype=np.int64))
        if len(rows) and (rows[0] < 0 or rows[-1] >= len(self)):
            raise IndexError(f"plan positions out of range [0, {len(self)})")
        return SweepPlan(
            self.config,
            self.num_trees,
            tree_index=self.tree_index[rows].copy(),
            scheduler_code=self.scheduler_code[rows].copy(),
            ao_code=self.ao_code[rows].copy(),
            eo_code=self.eo_code[rows].copy(),
            processors=self.processors[rows].copy(),
            memory_factor=self.memory_factor[rows].copy(),
            global_index=self.global_index[rows].copy(),
        )

    def tree_groups(self) -> list[tuple[int, np.ndarray]]:
        """Consecutive runs of rows sharing a tree: ``[(tree_index, rows)]``.

        Rows are canonical (tree-major), so each tree's rows are contiguous;
        this is the chunking unit of the per-tree backends and the batched
        lane engine.
        """
        if not len(self):
            return []
        boundaries = np.flatnonzero(np.diff(self.tree_index)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(self)]))
        return [
            (int(self.tree_index[start]), np.arange(start, stop, dtype=np.int64))
            for start, stop in zip(starts, stops)
        ]

    def lane_groups(
        self,
        positions: Sequence[int] | np.ndarray,
        batchable: Callable[[str], bool],
    ) -> tuple[dict[str, list[int]], list[int]]:
        """Split one tree's rows into lane batches and a scalar remainder.

        ``batchable(scheduler)`` decides which heuristics have a lane
        kernel; rows of each batchable heuristic are grouped (first-seen
        order, positions ascending) into the lanes of one
        :func:`~repro.batch.lanes.simulate_lanes` call, everything else runs
        through the scalar path.  This is the batched backend's grouping,
        lifted onto the plan so subset plans batch identically.
        """
        groups: dict[str, list[int]] = {}
        scalar: list[int] = []
        cache: dict[str, bool] = {}
        for position in positions:
            row = int(position)
            scheduler = self.schedulers[int(self.scheduler_code[row])]
            allowed = cache.get(scheduler)
            if allowed is None:
                allowed = cache[scheduler] = bool(batchable(scheduler))
            if allowed:
                groups.setdefault(scheduler, []).append(row)
            else:
                scalar.append(row)
        return groups, scalar

    # ------------------------------------------------------------------ #
    # instance identity
    # ------------------------------------------------------------------ #
    def instance_keys(self, trees: Sequence[TaskTree]) -> list[str]:
        """Stable per-row content keys (the instance-cache identity).

        Each key digests the tree's content sha, its dataset position (the
        record embeds ``tree_index``) and the value-relevant row/config
        fields: scheduler, AO/EO, processors, memory factor and ``validate``
        (a validated row additionally certifies its schedule).  The record
        schema version, the instance-cache schema version and the package
        version participate so upgrades invalidate rather than silently
        serve stale rows.  Execution-only knobs (jobs/backend/native) and
        the aggregation-only ``min_completion_fraction`` are deliberately
        absent — they never change record values.
        """
        from .. import __version__
        from .records import _VERSION as record_schema_version

        config = self.config
        prefix = (
            f"{record_schema_version}:{CACHE_SCHEMA_VERSION}:{__version__}:"
            f"{config.activation_order}:{config.execution_order}:{int(config.validate)}"
        )
        shas: dict[int, str] = {}
        keys: list[str] = []
        schedulers = self.schedulers
        for row in range(len(self)):
            index = int(self.tree_index[row])
            sha = shas.get(index)
            if sha is None:
                sha = shas[index] = tree_content_sha(trees[index])
            text = (
                f"{prefix}|{sha}|{index}|{schedulers[int(self.scheduler_code[row])]}"
                f"|{int(self.processors[row])}|{float(self.memory_factor[row])!r}"
            )
            keys.append(hashlib.sha256(text.encode("utf-8")).hexdigest()[:40])
        return keys

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, Any]:
        """Summary counts for dry-run output and the suite plan report."""
        return {
            "instances": len(self),
            "trees": int(np.unique(self.tree_index).size),
            "schedulers": list(self.schedulers),
            "processors": sorted({int(p) for p in self.processors}),
            "memory_factors": sorted({float(f) for f in self.memory_factor}),
            "orders": f"{self.config.activation_order}/{self.config.execution_order}",
        }

    def lane_group_count(self, batchable: Callable[[str], bool]) -> int:
        """Number of ``simulate_lanes`` calls the batched backend would make."""
        return sum(
            len(self.lane_groups(positions, batchable)[0])
            for _, positions in self.tree_groups()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SweepPlan(instances={len(self)}, trees={self.num_trees}, "
            f"full={self.is_full})"
        )


# --------------------------------------------------------------------------- #
# plan execution (with optional instance-level caching)
# --------------------------------------------------------------------------- #
def execute_plan(
    trees: Sequence[TaskTree],
    plan: SweepPlan,
    *,
    backend: "str | Any | None" = None,
    jobs: int | None = None,
) -> RecordTable:
    """Execute every row of ``plan`` and return the records in plan order."""
    from .backends import resolve_backend

    resolved = resolve_backend(backend, plan.config, plan.num_trees, jobs)
    return resolved.run_plan(list(trees), plan)


def _is_quarantined(record: "Mapping[str, Any]") -> bool:
    """True for rows the quarantine path produced (never cached)."""
    from ..resilience.faults import QUARANTINE_PREFIX

    reason = record.get("failure_reason")
    return reason is not None and str(reason).startswith(QUARANTINE_PREFIX)


def execute_plan_cached(
    trees: Sequence[TaskTree],
    plan: SweepPlan,
    *,
    cache: "RowCache | None",
    backend: "str | Any | None" = None,
    jobs: int | None = None,
) -> RecordTable:
    """Execute only the cache misses of ``plan`` and merge with cached rows.

    ``cache`` follows the row-cache protocol of
    :class:`~repro.experiments.records.ResultCache` (``get_rows`` /
    ``put_rows`` plus the hit/miss counters).  The plan-level counters keep
    the historical sweep-cache semantics: a plan whose rows are *all*
    cached counts one hit, anything else one miss; the row-level
    ``rows_cached`` / ``rows_fresh`` counters record the actual split.

    The merged table is byte-identical (timing fields carry the original
    run's wall-clock values) to executing the full plan: cached rows
    round-trip exact bits through the row store and fresh rows come from
    the very same backends a full run uses.

    Two resilience rules guard the store.  A cache that cannot be read or
    written (I/O error on a dying disk, say) degrades the run to uncached
    execution — recorded as a ``cache->uncached`` edge on the health ledger
    — rather than failing it.  And **quarantined rows** (instances that
    exhausted their retry budget under a fault plan, marked by the
    :data:`~repro.resilience.faults.QUARANTINE_PREFIX` failure reason) are
    never persisted: a poisoned row must be recomputed by the next run, not
    served from the cache after the fault clears.
    """
    if cache is None:
        return execute_plan(trees, plan, backend=backend, jobs=jobs)
    trees = list(trees)
    keys = plan.instance_keys(trees)
    try:
        cached = cache.get_rows(keys)
    except OSError:
        from ..resilience.health import current_health

        current_health().record_degradation("cache->uncached")
        return execute_plan(trees, plan, backend=backend, jobs=jobs)
    miss_positions = [row for row, key in enumerate(keys) if key not in cached]
    if miss_positions:
        cache.misses += 1
    else:
        cache.hits += 1
    cache.rows_cached += len(keys) - len(miss_positions)
    if not miss_positions:
        table = RecordTable.empty(len(plan))
        for row, key in enumerate(keys):
            table.set_row(row, cached[key])
        return table
    fresh = execute_plan(trees, plan.subset(miss_positions), backend=backend, jobs=jobs)
    cache.rows_fresh += len(fresh)
    def _cacheable() -> "Any":
        for offset, position in enumerate(miss_positions):
            record = fresh.row(offset)
            if not _is_quarantined(record):
                yield keys[position], record

    try:
        cache.put_rows(_cacheable())
    except OSError:
        from ..resilience.health import current_health

        current_health().record_degradation("cache->uncached")
    if len(miss_positions) == len(keys):
        return fresh
    fresh_offset: Mapping[int, int] = {
        position: offset for offset, position in enumerate(miss_positions)
    }
    merged = RecordTable.empty(len(plan))
    for row, key in enumerate(keys):
        record = cached.get(key)
        merged.set_row(row, record if record is not None else fresh.row(fresh_offset[row]))
    return merged
