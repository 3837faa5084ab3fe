"""Declarative figure specifications and their generic execution driver.

Seventeen figure functions used to hand-thread the same eight execution
parameters (``scale, seed, jobs, backend, native, cache,
workload_cache``) into near-identical bodies: generate a dataset, build one
or more :class:`~repro.experiments.config.SweepConfig` grids, sweep, reduce
records to series, attach checks.  This module factors that shape into
data:

* :class:`RunContext` — the eight execution knobs as one value, threaded
  through figures, :func:`~repro.experiments.suite.run_suite` and the CLI;
* :class:`GridSpec` — the value-relevant sweep axes of one grid (what used
  to be inlined ``SweepConfig(...)`` calls);
* :class:`DatasetRef` — a declarative dataset reference (one or more
  ``(kind, seed offset)`` parts, concatenated in order);
* :class:`FigureSpec` — one figure: id, labels, dataset, grids, and the
  ``analyze`` callable that turns the swept
  :class:`~repro.experiments.records.RecordTable` list into a
  :class:`FigureResult`;
* :func:`run_spec` — the single driver: loads the dataset, materialises a
  :class:`~repro.experiments.plan.SweepPlan` per grid, executes the cache
  misses through :func:`~repro.experiments.plan.execute_plan_cached` and
  hands the tables to the spec's analyzer.

The concrete specs (and their analyzers) live in
:mod:`repro.experiments.figures`; :func:`assemble_plans` /
:func:`plan_report` assemble the plans of several specs *without* executing
them — the substrate of ``--dry-run`` and the suite's cross-figure dedup
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..core.task_tree import TaskTree
from ..workloads.datasets import (
    WorkloadCache,
    assembly_dataset,
    heavyleaf_dataset,
    height_study_dataset,
    synthetic_dataset,
)
from .config import SweepConfig
from .plan import SweepPlan, execute_plan_cached
from .records import RecordTable
from .reporting import format_series_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .records import RowCache

__all__ = [
    "FigureResult",
    "RunContext",
    "GridSpec",
    "DatasetRef",
    "FigureSpec",
    "run_spec",
    "load_dataset",
    "assemble_plans",
    "plan_report",
    "format_plan_report",
]

Series = dict[str, list[tuple[float, float]]]


@dataclass
class FigureResult:
    """Data reproduced for one figure/table of the paper."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Series
    checks: dict[str, bool] = field(default_factory=dict)
    notes: str = ""
    #: The raw sweep records behind the series: a columnar
    #: :class:`~repro.experiments.records.RecordTable` for single-sweep
    #: figures (iterable as dict records), a plain record list otherwise.
    records: "RecordTable | list[dict[str, Any]]" = field(default_factory=list)

    def as_text(self) -> str:
        """Human-readable rendering (table + check outcomes)."""
        lines = [
            f"== {self.figure_id}: {self.title} ==",
            format_series_table(self.series, x_label=self.x_label),
            f"(y axis: {self.y_label})",
        ]
        if self.notes:
            lines.append(self.notes)
        for name, passed in self.checks.items():
            lines.append(f"check[{name}]: {'PASS' if passed else 'FAIL'}")
        return "\n".join(lines)

    @property
    def all_checks_pass(self) -> bool:
        """True when every qualitative check of the figure holds."""
        return all(self.checks.values())


@dataclass(frozen=True)
class RunContext:
    """The execution knobs of a figure/suite run, as one value.

    Everything here changes *how* figures run, never the record values the
    analyzers see — which is exactly why none of it participates in the
    instance cache keys.
    """

    scale: str = "small"
    jobs: int = 1
    backend: str = "auto"
    native: bool | None = None
    #: Fault-injection plan spec (``None`` defers to ``REPRO_FAULTS``); see
    #: :mod:`repro.resilience.faults`.  Execution-only like everything else
    #: here — recoverable faults never change record values.
    fault_plan: str | None = None
    #: Instance-row cache (:class:`~repro.experiments.records.ResultCache`
    #: or :class:`~repro.experiments.records.InMemoryRowCache`); ``None``
    #: disables caching entirely.
    cache: "RowCache | None" = None
    workload_cache: WorkloadCache | None = None
    #: Per-run memo of loaded datasets keyed by ``(kind, scale, seed)``:
    #: plan assembly (dry-run, suite accounting) and figure execution share
    #: one generation pass.  Intentionally mutable inside the frozen context.
    dataset_memo: dict[tuple[str, str, int], list[TaskTree]] = field(
        default_factory=dict, compare=False
    )


# --------------------------------------------------------------------------- #
# datasets
# --------------------------------------------------------------------------- #
def load_dataset(
    kind: str,
    scale: str,
    seed: int,
    workload_cache: WorkloadCache | None = None,
    memo: "dict[tuple[str, str, int], list[TaskTree]] | None" = None,
) -> list[TaskTree]:
    """Generate (or load from the workload cache) one named dataset.

    With a :class:`~repro.workloads.datasets.WorkloadCache` the trees come
    back as zero-copy views over a saved ``TreeStore`` arena keyed by
    (kind, scale, seed, generator version) — generation runs at most once
    per key, whichever figures ask for the dataset.  The arena also carries
    the workspace plane columns for the canonical (memPO, memPO) order pair
    every sweep figure defaults to, so a warm figure adopts its orders and
    workspaces from the arena instead of re-deriving them.  ``memo`` (the
    :attr:`RunContext.dataset_memo`) short-circuits repeated loads within
    one run.
    """
    memo_key = (kind, scale, seed)
    if memo is not None:
        cached = memo.get(memo_key)
        if cached is not None:
            return cached

    def generate() -> list[TaskTree]:
        if kind == "assembly":
            trees, _ = assembly_dataset(scale, seed=seed)  # type: ignore[arg-type]
            return trees
        if kind == "synthetic":
            trees, _ = synthetic_dataset(scale, seed=seed)  # type: ignore[arg-type]
            return trees
        if kind == "heavyleaf":
            trees, _ = heavyleaf_dataset(scale, seed=seed)  # type: ignore[arg-type]
            return trees
        if kind == "height":
            trees, _ = height_study_dataset(seed=seed)
            return trees
        raise ValueError(f"unknown dataset kind {kind!r}")

    if workload_cache is None:
        trees = generate()
    else:
        # The height-study dataset ignores the scale knob, so keying on it
        # would store identical arenas once per scale.
        cache_key = (kind, seed) if kind == "height" else (kind, scale, seed)
        trees = workload_cache.fetch(cache_key, generate, planes_orders=("memPO", "memPO"))
    if memo is not None:
        memo[memo_key] = trees
    return trees


@dataclass(frozen=True)
class DatasetRef:
    """A declarative dataset reference: concatenated ``(kind, seed offset)`` parts.

    Most figures use a single part; fig7 concatenates the assembly trees
    (offset 0) with the height-study trees (offset 1).  Offsets are applied
    to the figure's effective seed at load time.
    """

    parts: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, kind: str) -> "DatasetRef":
        return cls(parts=((kind, 0),))

    def load(self, ctx: RunContext, seed: int) -> list[TaskTree]:
        trees: list[TaskTree] = []
        for kind, offset in self.parts:
            trees.extend(
                load_dataset(
                    kind, ctx.scale, seed + offset, ctx.workload_cache, ctx.dataset_memo
                )
            )
        return trees

    def describe(self, seed: int) -> str:
        return "+".join(f"{kind}@{seed + offset}" for kind, offset in self.parts)


@dataclass(frozen=True)
class GridSpec:
    """The value-relevant axes of one sweep grid.

    ``None`` fields fall back to the :class:`~repro.experiments.config.SweepConfig`
    defaults (the paper's heuristic trio, p=8, memPO/memPO), so a spec
    states only what the figure varies — compare the figure map in
    :mod:`repro.experiments.figures` against the paper's Section 7 setups.
    """

    memory_factors: tuple[float, ...]
    schedulers: tuple[str, ...] | None = None
    processors: tuple[int, ...] | None = None
    activation_order: str | None = None
    execution_order: str | None = None
    min_completion_fraction: float | None = None
    validate: bool | None = None
    #: Min-of-N wall-clock timing per cell (the timing figures set this so
    #: their committed artifacts are reproducible).  The one
    #: execution-flavoured knob here because it is a property of the
    #: *figure*, not of the run — it never changes record values and is
    #: excluded from instance cache keys like every execution knob.
    timing_repetitions: int | None = None

    def to_config(self, ctx: RunContext) -> SweepConfig:
        """The grid as a full ``SweepConfig``, execution knobs from ``ctx``."""
        overrides: dict[str, Any] = {
            "memory_factors": tuple(self.memory_factors),
            "jobs": ctx.jobs,
            "backend": ctx.backend,
            "native": ctx.native,
            "fault_plan": ctx.fault_plan,
        }
        for name in (
            "schedulers",
            "processors",
            "activation_order",
            "execution_order",
            "min_completion_fraction",
            "validate",
            "timing_repetitions",
        ):
            value = getattr(self, name)
            if value is not None:
                overrides[name] = value
        return SweepConfig(**overrides)

    def value_config(self) -> SweepConfig:
        """The grid's value-relevant fields under default execution knobs.

        What analyzers resolve the defaulted axes (scheduler trio, p=8,
        ``min_completion_fraction``) through without needing a context.
        """
        return self.to_config(RunContext())


@dataclass(frozen=True)
class FigureSpec:
    """One figure of the paper as data: dataset, grids, analyzer, labels."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    seed: int
    dataset: DatasetRef | None = None
    #: One entry per sweep the figure needs (the AO/EO-choice figures run
    #: six); the analyzer receives the swept tables in this order.
    grids: tuple[GridSpec, ...] = ()
    #: ``analyze(spec, tables) -> FigureResult`` — the reduction from raw
    #: records to series + checks.  Unused when ``custom`` is set.
    analyze: "Callable[[FigureSpec, list[RecordTable]], FigureResult] | None" = None
    #: Escape hatch for in-process figures that are not grid sweeps
    #: (lb_stats, the ablations): called with the legacy keyword signature.
    custom: "Callable[..., FigureResult] | None" = None
    #: Free-form analyzer parameters (e.g. the timing figures' x/y keys).
    params: Mapping[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# the generic driver
# --------------------------------------------------------------------------- #
def run_spec(
    spec: FigureSpec, ctx: RunContext | None = None, *, seed: int | None = None
) -> FigureResult:
    """Execute one figure spec under ``ctx`` and return its result.

    Each grid becomes a full :class:`~repro.experiments.plan.SweepPlan`;
    with a cache on the context only the plan's cache misses simulate
    (:func:`~repro.experiments.plan.execute_plan_cached`), so re-runs — and
    figures overlapping an already-executed grid — load rows instead of
    sweeping.
    """
    ctx = ctx or RunContext()
    effective_seed = spec.seed if seed is None else int(seed)
    if spec.custom is not None:
        return spec.custom(
            scale=ctx.scale,
            seed=effective_seed,
            jobs=ctx.jobs,
            backend=ctx.backend,
            native=ctx.native,
            cache=ctx.cache,
            workload_cache=ctx.workload_cache,
        )
    if spec.dataset is None or spec.analyze is None:
        raise ValueError(f"figure spec {spec.figure_id!r} has no dataset/analyzer")
    trees = spec.dataset.load(ctx, effective_seed)
    tables: list[RecordTable] = []
    for grid in spec.grids:
        plan = SweepPlan.from_config(grid.to_config(ctx), len(trees))
        tables.append(execute_plan_cached(trees, plan, cache=ctx.cache))
    return spec.analyze(spec, tables)


# --------------------------------------------------------------------------- #
# plan assembly without execution (dry-run, suite accounting)
# --------------------------------------------------------------------------- #
def assemble_plans(
    specs: Iterable[FigureSpec], ctx: RunContext
) -> "list[tuple[FigureSpec, list[tuple[SweepPlan, list[str]]]]]":
    """The plans (and instance keys) each spec would execute under ``ctx``.

    Datasets are loaded (via the context's memo, so a subsequent execution
    reuses them) because the content-addressed instance keys require the
    tree bytes; nothing is simulated.  Custom (non-grid) figures contribute
    an empty plan list.
    """
    assembled: list[tuple[FigureSpec, list[tuple[SweepPlan, list[str]]]]] = []
    for spec in specs:
        plans: list[tuple[SweepPlan, list[str]]] = []
        if spec.dataset is not None and spec.grids:
            trees = spec.dataset.load(ctx, spec.seed)
            for grid in spec.grids:
                plan = SweepPlan.from_config(grid.to_config(ctx), len(trees))
                plans.append((plan, plan.instance_keys(trees)))
        assembled.append((spec, plans))
    return assembled


def plan_report(specs: Sequence[FigureSpec], ctx: RunContext) -> dict[str, Any]:
    """Aggregate plan statistics for a set of figures under ``ctx``.

    Returns per-figure and total counts of requested instances, *unique*
    instances (cross-figure overlap removed), instances predicted to come
    from the cache, and lane-group counts (how many
    :func:`~repro.batch.lanes.simulate_lanes` calls a batched execution
    would make).  This is what ``--dry-run`` prints and what
    ``summary.md``'s ``instances: N unique / M requested / K cached`` line
    reports.
    """
    from ..batch.lanes import batchable_scheduler

    cache = ctx.cache
    seen: set[str] = set()
    cached_keys: set[str] = set()
    figures: list[dict[str, Any]] = []
    requested_total = 0
    lane_groups_total = 0
    for spec, plans in assemble_plans(specs, ctx):
        requested = 0
        new_keys: set[str] = set()
        overlap = 0
        lane_groups = 0
        for plan, keys in plans:
            requested += len(keys)
            for key in keys:
                if key in seen or key in new_keys:
                    overlap += 1
                else:
                    new_keys.add(key)
            lane_groups += plan.lane_group_count(batchable_scheduler)
        if cache is not None and new_keys:
            count = getattr(cache, "count_cached", None)
            if count is not None:
                hits = [key for key in new_keys if count([key])]
                cached_keys.update(hits)
        seen.update(new_keys)
        requested_total += requested
        lane_groups_total += lane_groups
        figures.append(
            {
                "figure_id": spec.figure_id,
                "requested": requested,
                "new": len(new_keys),
                "overlap": overlap,
                "cached": sum(1 for key in new_keys if key in cached_keys),
                "lane_groups": lane_groups,
            }
        )
    return {
        "figures": figures,
        "requested": requested_total,
        "unique": len(seen),
        "cached": len(cached_keys),
        "lane_groups": lane_groups_total,
    }


def format_plan_report(report: Mapping[str, Any]) -> str:
    """Human-readable dry-run rendering of :func:`plan_report`'s output."""
    lines = [
        "sweep plan (dry run):",
        (
            f"  instances: {report['unique']} unique / {report['requested']} requested"
            f" / {report['cached']} cached"
        ),
        (
            f"  predicted: {report['cached']} cache hits /"
            f" {report['unique'] - report['cached']} fresh simulations"
        ),
        f"  lane groups (batched backend): {report['lane_groups']}",
    ]
    for entry in report["figures"]:
        lines.append(
            f"  {entry['figure_id']}: {entry['requested']} requested"
            f" ({entry['overlap']} shared with earlier figures,"
            f" {entry['cached']} cached, {entry['lane_groups']} lane groups)"
        )
    return "\n".join(lines)
