"""One entry point per figure/table of the paper's evaluation (Section 6-7).

Every figure is a :class:`~repro.experiments.specs.FigureSpec` in
:data:`FIGURE_SPECS` — a declarative (dataset, grids, analyzer) triple the
generic :func:`~repro.experiments.specs.run_spec` driver executes through
the sweep-plan layer.  The module-level functions (``fig2`` ... ``fig15``,
``redtree_failures``) are thin wrappers with the historical keyword
signature; :func:`run_figure` accepts either that signature or a
:class:`~repro.experiments.specs.RunContext`.

Every function returns a :class:`FigureResult` whose ``series`` attribute
contains the same curves as the corresponding figure of the paper (with the
assembly-tree surrogate in place of the UF collection, see DESIGN.md), and
whose ``checks`` record the qualitative properties the paper reports (who
wins, where, by roughly how much).  The benchmark suite executes these
functions, prints the series and asserts the checks.

Figure map
----------
==========  ===========================================================
``fig2``    normalised makespan vs memory bound, assembly trees, p=8
``fig3``    speedup of MemBooking over Activation, assembly trees
``fig4``    fraction of available memory used, assembly trees
``fig5``    scheduling time vs tree size, assembly trees
``fig6``    scheduling time per node vs tree height
``fig7``    speedup vs tree height at memory factor 2
``fig8``    effect of the AO/EO choice (memPO/CP/OptSeq/perfPO)
``fig9``    normalised makespan for p in {2,4,8,16,32}, assembly trees
``fig10``   normalised makespan vs memory bound, synthetic trees
``fig11``   speedup of MemBooking over Activation, synthetic trees
``fig12``   fraction of available memory used, synthetic trees
``fig13``   scheduling time vs tree size, synthetic trees
``fig14``   effect of the AO/EO choice, synthetic trees
``fig15``   normalised makespan for p in {2,4,8,16,32}, synthetic trees
``lb_stats``        Section 6 statistics on the new lower bound
``redtree_failures`` Section 7.4: RedTree failures under tight memory
``ablation_dispatch``      ALAP dispatch to candidates vs strict Algorithm 3
``ablation_lazy_subtree``  optimised vs reference data structures (timing)
==========  ===========================================================
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..bounds import lower_bound_improvement_stats
from ..core.task_tree import TaskTree
from ..orders import minimum_memory_postorder, sequential_peak_memory
from ..schedulers.membooking import MemBookingReferenceScheduler, MemBookingScheduler
from ..workloads.datasets import WorkloadCache
from .config import DEFAULT_MEMORY_FACTORS
from .metrics import decile_band, mean, median, series_over, speedup_records
from .records import RecordTable, ResultCache
from .reporting import quantize_x
from .specs import (
    DatasetRef,
    FigureResult,
    FigureSpec,
    GridSpec,
    RunContext,
    load_dataset,
    run_spec,
)

__all__ = ["FigureResult", "FIGURES", "FIGURE_SPECS", "run_figure"]

Series = dict[str, list[tuple[float, float]]]


# --------------------------------------------------------------------------- #
# dataset helpers
# --------------------------------------------------------------------------- #
def _dataset(
    kind: str, scale: str, seed: int, workload_cache: WorkloadCache | None = None
) -> list[TaskTree]:
    """Generate (or load from the workload cache) one named dataset.

    Thin compatibility wrapper over
    :func:`~repro.experiments.specs.load_dataset` (the historical home of
    the helper; external callers and tests import it from here).
    """
    return load_dataset(kind, scale, seed, workload_cache)


def _series_value(series: Series, name: str, x: float) -> float:
    """The y value of ``series[name]`` at ``x``, NaN when absent.

    X values are matched through :func:`~repro.experiments.reporting.quantize_x`
    (12 significant digits): series x values reconstructed from float
    arithmetic (``0.1 + 0.2``-style noise) still match their nominal grid
    point instead of silently reading as NaN.
    """
    key = quantize_x(x)
    for px, py in series.get(name, []):
        if quantize_x(px) == key:
            return py
    return float("nan")


def _final_value(series: Series, name: str) -> float:
    points = series.get(name, [])
    return points[-1][1] if points else float("nan")


# --------------------------------------------------------------------------- #
# family analyzers (shared by the assembly and synthetic spec variants)
# --------------------------------------------------------------------------- #
def _analyze_makespan(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    records = tables[0]
    config = spec.grids[0].value_config()
    series: Series = {}
    for scheduler in config.schedulers:
        series[scheduler] = series_over(
            records,
            "memory_factor",
            "normalized_makespan",
            where={"scheduler": scheduler},
            min_completion=config.min_completion_fraction,
        )
    checks = _makespan_checks(series, config.memory_factors)
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        series=series,
        checks=checks,
        records=records,
    )


def _makespan_checks(series: Series, memory_factors: Sequence[float]) -> dict[str, bool]:
    """Qualitative properties of Figures 2 and 10."""
    checks: dict[str, bool] = {}
    # MemBooking is never worse (on average) than the two baselines wherever
    # both report a point.
    for baseline in ("Activation", "MemBookingRedTree"):
        comparable = [
            (x, y_mb)
            for x, y_mb in series.get("MemBooking", [])
            for x2, y_base in series.get(baseline, [])
            if quantize_x(x) == quantize_x(x2)
            and np.isfinite(y_mb)
            and np.isfinite(y_base)
            and y_mb > y_base * 1.02
        ]
        checks[f"membooking_not_worse_than_{baseline}"] = not comparable
    # MemBooking reports a point at the smallest factor (it always completes
    # at the minimum memory, Theorem 1).
    mb_xs = {quantize_x(x) for x, _ in series.get("MemBooking", [])}
    checks["membooking_covers_minimum_memory"] = quantize_x(min(memory_factors)) in mb_xs
    # With generous memory all heuristics converge close to the lower bound
    # regime (non-increasing trend for MemBooking).
    mb = series.get("MemBooking", [])
    checks["membooking_monotone_trend"] = all(
        mb[i + 1][1] <= mb[i][1] * 1.05 for i in range(len(mb) - 1)
    )
    checks["membooking_close_to_bound_with_memory"] = (
        _final_value(series, "MemBooking") <= 1.6 if mb else False
    )
    return checks


def _analyze_speedup(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    records = tables[0]
    memory_factors = spec.grids[0].memory_factors
    speedups = speedup_records(records)
    series: Series = {"mean": [], "median": [], "decile_1": [], "decile_9": []}
    for factor in sorted(set(memory_factors)):
        values = [s["speedup"] for s in speedups if s["memory_factor"] == factor]
        if not values:
            continue
        low, high = decile_band(values)
        series["mean"].append((factor, mean(values)))
        series["median"].append((factor, median(values)))
        series["decile_1"].append((factor, low))
        series["decile_9"].append((factor, high))
    checks = {
        # The paper reports average speedups of roughly 1.25-1.45 around 2x
        # the minimum memory on its (much larger) assembly trees; on the
        # laptop-scale surrogate we require a measurable gain (>= 3%) under
        # memory pressure and no slowdown anywhere on average.
        "speedup_at_least_one_everywhere": all(y >= 0.99 for _, y in series["mean"]),
        "noticeable_gain_under_memory_pressure": any(
            y >= 1.03 for x, y in series["mean"] if x <= 3.0
        ),
        "speedup_shrinks_with_abundant_memory": (
            series["mean"][-1][1] <= max(y for _, y in series["mean"]) + 1e-9
            if series["mean"]
            else False
        ),
    }
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        series=series,
        checks=checks,
        records=records,
    )


def _analyze_memory_fraction(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    records = tables[0]
    config = spec.grids[0].value_config()
    series: Series = {}
    for scheduler in config.schedulers:
        series[scheduler] = series_over(
            records,
            "memory_factor",
            "memory_fraction",
            where={"scheduler": scheduler},
            min_completion=config.min_completion_fraction,
        )
    mb_curve = dict(series.get("MemBooking", []))
    act_curve = dict(series.get("Activation", []))
    shared = sorted(set(mb_curve) & set(act_curve))
    tight = [x for x in shared if x <= 3.0]
    checks = {
        # Under memory pressure MemBooking exploits a larger share of the
        # available memory than Activation (Figure 4 discussion).
        "membooking_uses_more_memory_when_tight": all(
            mb_curve[x] >= act_curve[x] - 0.02 for x in tight
        )
        and any(mb_curve[x] > act_curve[x] for x in tight),
        # The fraction of memory used decreases when memory gets abundant.
        "fraction_decreases_with_memory": all(
            mb_curve[a] >= mb_curve[b] - 0.05 for a, b in zip(shared, shared[1:])
        ),
        "fractions_are_valid": all(0.0 <= y <= 1.0 + 1e-9 for y in mb_curve.values()),
    }
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        series=series,
        checks=checks,
        records=records,
    )


def _analyze_timing(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    records = tables[0]
    config = spec.grids[0].value_config()
    x_key = spec.params["x_key"]
    y_key = spec.params["y_key"]
    series: Series = {}
    for scheduler in config.schedulers:
        mask = (records.column("scheduler") == scheduler) & records.column("completed")
        series[scheduler] = sorted(
            zip(
                records.column(x_key)[mask].astype(np.float64).tolist(),
                records.column(y_key)[mask].astype(np.float64).tolist(),
            )
        )
    mb_points = series.get("MemBooking", [])
    checks = {
        "timings_positive": all(y >= 0 for pts in series.values() for _, y in pts),
        "membooking_overhead_reported": len(mb_points) > 0,
        # Per-node overhead stays small (paper: < 1 ms per node even at
        # height 1e5 in C; we allow a generous Python budget of 10 ms/node).
        "per_node_overhead_small": all(
            (y / max(x, 1.0) if y_key == "scheduling_seconds" else y) < 1e-2
            for x, y in mb_points
        ),
    }
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=x_key,
        y_label=y_key,
        series=series,
        checks=checks,
        records=records,
    )


#: The six (activation order, execution order) pairs of Section 7.3.1.
ORDER_COMBOS: tuple[tuple[str, str], ...] = (
    ("memPO", "memPO"),
    ("memPO", "CP"),
    ("OptSeq", "CP"),
    ("OptSeq", "OptSeq"),
    ("perfPO", "CP"),
    ("perfPO", "perfPO"),
)


def _analyze_order_choice(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    series: Series = {}
    all_records: list[dict[str, Any]] = []
    for grid, records in zip(spec.grids, tables):
        config = grid.value_config()
        all_records.extend(records)
        series[f"{config.activation_order}/{config.execution_order}"] = series_over(
            records,
            "memory_factor",
            "normalized_makespan",
            min_completion=config.min_completion_fraction,
        )
    # Spread between order choices at the largest factor must stay small
    # compared to the heuristic-vs-heuristic gaps (Section 7.3.1).
    finals = [points[-1][1] for points in series.values() if points]
    spread = (max(finals) - min(finals)) / min(finals) if finals else float("nan")
    cp_better = []
    for ao_name in ("memPO", "perfPO"):
        same = dict(series.get(f"{ao_name}/{ao_name}", []))
        with_cp = dict(series.get(f"{ao_name}/CP", []))
        shared = set(same) & set(with_cp)
        if shared:
            cp_better.append(
                mean(with_cp[x] for x in shared) <= mean(same[x] for x in shared) * 1.02
            )
    checks = {
        "order_choice_has_small_impact": bool(np.isfinite(spread) and spread < 0.15),
        "cp_execution_order_competitive": all(cp_better) if cp_better else False,
    }
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        series=series,
        checks=checks,
        records=all_records,
    )


def _analyze_processor_sweep(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    records = tables[0]
    config = spec.grids[0].value_config()
    processors = config.processors
    series: Series = {}
    for p in processors:
        for scheduler in config.schedulers:
            series[f"p={p}/{scheduler}"] = series_over(
                records,
                "memory_factor",
                "normalized_makespan",
                where={"scheduler": scheduler, "num_processors": p},
                min_completion=config.min_completion_fraction,
            )
    # The gain of MemBooking over Activation grows with the processor count.
    gains: dict[int, float] = {}
    for p in processors:
        mb = dict(series.get(f"p={p}/MemBooking", []))
        act = dict(series.get(f"p={p}/Activation", []))
        shared = [x for x in mb if x in act and x <= 3.0]
        if shared:
            gains[p] = mean(act[x] / mb[x] for x in shared if mb[x] > 0)
    sorted_p = sorted(gains)
    checks = {
        "gain_present_at_max_processors": gains.get(max(processors), 0.0) >= 1.0,
        "gain_grows_with_processors": (
            gains[sorted_p[-1]] >= gains[sorted_p[0]] - 0.02 if len(sorted_p) >= 2 else False
        ),
    }
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        series=series,
        checks=checks,
        records=records,
    )


def _analyze_height_speedup(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    records = tables[0]
    speedups = speedup_records(records)
    points = sorted((float(s["tree_height"]), float(s["speedup"])) for s in speedups)
    shallow = [y for x, y in points if x <= np.median([x for x, _ in points])]
    deep = [y for x, y in points if x > np.median([x for x, _ in points])]
    checks = {
        "no_slowdown_anywhere": all(y >= 0.99 for _, y in points),
        # Deep thin trees offer little parallelism: the best speedups are on
        # the shallow side (Figure 7 discussion).
        "best_speedups_on_shallow_trees": (max(shallow) >= max(deep) - 1e-9)
        if shallow and deep
        else False,
    }
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        series={"speedup": points},
        checks=checks,
        records=records,
    )


def _analyze_redtree(spec: FigureSpec, tables: list[RecordTable]) -> FigureResult:
    records = tables[0]
    config = spec.grids[0].value_config()
    scheduler_column = records.column("scheduler")
    factor_column = records.column("memory_factor")
    completed_column = records.column("completed")
    series: Series = {}
    for scheduler in config.schedulers:
        points = []
        for factor in config.memory_factors:
            bucket = (scheduler_column == scheduler) & (factor_column == factor)
            count = int(np.count_nonzero(bucket))
            failure_fraction = int(np.count_nonzero(bucket & ~completed_column)) / count
            points.append((factor, failure_fraction))
        series[scheduler] = points
    red = dict(series["MemBookingRedTree"])
    mb = dict(series["MemBooking"])
    checks = {
        # MemBooking never fails (Theorem 1).
        "membooking_never_fails": all(v == 0.0 for v in mb.values()),
        # The reduction-tree baseline fails on a substantial fraction of the
        # trees below 1.4x the minimum memory (the paper reports >= 33%).
        "redtree_fails_under_tight_memory": max(red[1.0], red[1.2]) >= 0.3,
        # Failures disappear once memory is abundant.
        "redtree_recovers_with_memory": red[5.0] <= red[1.0],
    }
    return FigureResult(
        figure_id=spec.figure_id,
        title=spec.title,
        x_label=spec.x_label,
        y_label=spec.y_label,
        series=series,
        checks=checks,
        records=records,
    )


# --------------------------------------------------------------------------- #
# text statistics and ablations (in-process custom figures)
# --------------------------------------------------------------------------- #
def lb_stats(scale: str = "small", seed: int = 2017, jobs: int = 1, backend: str = "auto", native: bool | None = None, fault_plan: str | None = None, cache: ResultCache | None = None, workload_cache: WorkloadCache | None = None) -> FigureResult:
    """Section 6 statistics: how often the memory-aware bound improves the classical one.

    ``jobs`` and ``backend`` are accepted for interface uniformity with the
    sweep-based figures; the bound statistics are cheap and computed in-process.
    """
    _ = (jobs, backend, native, fault_plan, cache)
    series: Series = {}
    checks: dict[str, bool] = {}
    for kind, tree_seed in (("assembly", seed), ("synthetic", seed + 1)):
        trees = _dataset(kind, scale, tree_seed, workload_cache)
        points_fraction = []
        points_gain = []
        for factor in (1.0, 2.0, 5.0):
            limits = []
            for tree in trees:
                order = minimum_memory_postorder(tree)
                limits.append(factor * sequential_peak_memory(tree, order, check=False))
            stats = lower_bound_improvement_stats(trees, 8, limits)
            points_fraction.append((factor, stats["improved_fraction"]))
            points_gain.append((factor, stats["average_improvement"]))
        series[f"{kind}/improved_fraction"] = points_fraction
        series[f"{kind}/average_improvement"] = points_gain
        checks[f"{kind}_bound_improves_under_tight_memory"] = points_fraction[0][1] > 0.0
        checks[f"{kind}_improvement_shrinks_with_memory"] = (
            points_fraction[0][1] >= points_fraction[-1][1]
        )
    return FigureResult(
        figure_id="lb_stats",
        title="Improvement of the memory-aware lower bound (Section 6)",
        x_label="normalized memory bound",
        y_label="fraction improved / average improvement",
        series=series,
        checks=checks,
    )


def ablation_dispatch(scale: str = "small", seed: int = 7011, jobs: int = 1, backend: str = "auto", native: bool | None = None, fault_plan: str | None = None, cache: ResultCache | None = None, workload_cache: WorkloadCache | None = None) -> FigureResult:
    """Ablation: ALAP dispatch to computed candidates vs strict Algorithm 3 dispatch.

    ``jobs`` and ``backend`` are accepted for interface uniformity; the
    ablation drives hand-constructed scheduler variants and stays in-process.
    """
    _ = (jobs, backend, native, fault_plan, cache)
    trees = _dataset("synthetic", scale, seed, workload_cache)
    factors = (1.0, 1.5, 2.0, 5.0)
    series: Series = {"alap_dispatch": [], "strict_dispatch": []}
    records: list[dict[str, Any]] = []
    for factor in factors:
        for label, scheduler in (
            ("alap_dispatch", MemBookingScheduler(dispatch_to_candidates=True)),
            ("strict_dispatch", MemBookingScheduler(dispatch_to_candidates=False)),
        ):
            values = []
            for index, tree in enumerate(trees):
                order = minimum_memory_postorder(tree)
                minimum = sequential_peak_memory(tree, order, check=False)
                result = scheduler.schedule(tree, 8, factor * minimum, ao=order, eo=order)
                values.append(result.makespan if result.completed else np.nan)
                records.append(
                    {
                        "variant": label,
                        "tree_index": index,
                        "memory_factor": factor,
                        "completed": result.completed,
                        "makespan": result.makespan,
                    }
                )
            series[label].append((factor, mean(values)))
    alap = dict(series["alap_dispatch"])
    strict = dict(series["strict_dispatch"])
    checks = {
        "both_variants_complete": all(np.isfinite(v) for v in list(alap.values()) + list(strict.values())),
        # The two dispatch policies only differ marginally: the ALAP extension
        # is a complexity optimisation, not a performance trick.
        "variants_within_five_percent": all(
            abs(alap[f] - strict[f]) <= 0.05 * strict[f] for f in factors
        ),
    }
    return FigureResult(
        figure_id="ablation_dispatch",
        title="Ablation: ALAP dispatch to candidates vs strict ACT/RUN dispatch",
        x_label="normalized memory bound",
        y_label="mean makespan",
        series=series,
        checks=checks,
        records=records,
    )


def ablation_lazy_subtree(scale: str = "small", seed: int = 99, jobs: int = 1, backend: str = "auto", native: bool | None = None, fault_plan: str | None = None, cache: ResultCache | None = None, workload_cache: WorkloadCache | None = None) -> FigureResult:
    """Ablation: optimised data structures vs the reference implementation (timing).

    Both implementations now share the heap-based ``ReadyQueue`` for their
    ready pool, so the remaining difference this ablation measures is the
    lazy ``BookedBySubtree`` initialisation plus the heap ``CAND`` structure
    versus the reference's linear candidate scan (the seed additionally
    differed on an O(n) ready-pool scan, since replaced in both).

    ``jobs`` and ``backend`` are accepted for interface uniformity; this
    ablation measures in-process scheduling time, which parallel workers
    would distort.
    """
    _ = (jobs, backend, native, fault_plan, cache, workload_cache)
    sizes = (200, 500, 1000, 2000) if scale != "tiny" else (100, 200, 400)
    from ..workloads.synthetic import SyntheticTreeConfig, synthetic_tree

    series: Series = {"optimized": [], "reference": []}
    for size in sizes:
        tree = synthetic_tree(SyntheticTreeConfig(num_nodes=size), rng=seed)
        order = minimum_memory_postorder(tree)
        minimum = sequential_peak_memory(tree, order, check=False)
        for label, factory in (
            ("optimized", MemBookingScheduler),
            ("reference", MemBookingReferenceScheduler),
        ):
            # Min-of-5 per cell, like the spec-driven timing figures: the
            # committed artifact (and the not-slower check below) must not
            # ride on one-off scheduler/GC noise.
            seconds = min(
                factory()
                .schedule(tree, 8, 2.0 * minimum, ao=order, eo=order)
                .scheduling_seconds
                for _ in range(5)
            )
            series[label].append((float(size), seconds))
    optimized = dict(series["optimized"])
    reference = dict(series["reference"])
    largest = max(sizes)
    checks = {
        "timings_positive": all(v >= 0 for v in list(optimized.values()) + list(reference.values())),
        # The heap/counter implementation must not be slower than the
        # linear-scan reference on the largest instance.
        "optimized_not_slower_at_scale": optimized[largest] <= reference[largest] * 1.5,
    }
    return FigureResult(
        figure_id="ablation_lazy_subtree",
        title="Ablation: optimised vs reference MemBooking data structures",
        x_label="tree size",
        y_label="scheduling seconds",
        series=series,
        checks=checks,
    )


# --------------------------------------------------------------------------- #
# the figure specs
# --------------------------------------------------------------------------- #
_SYNTH_FACTORS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
_ASSEMBLY = DatasetRef.of("assembly")
_SYNTHETIC = DatasetRef.of("synthetic")
_HEIGHT = DatasetRef.of("height")

#: Declarative registry of every figure; executed by
#: :func:`~repro.experiments.specs.run_spec` (see CONTRIBUTING.md,
#: "Adding a figure").
FIGURE_SPECS: dict[str, FigureSpec] = {
    "fig2": FigureSpec(
        figure_id="fig2",
        title="Normalised makespan vs memory bound (assembly trees, p=8)",
        x_label="normalized memory bound",
        y_label="makespan / lower bound",
        seed=2017,
        dataset=_ASSEMBLY,
        grids=(GridSpec(memory_factors=DEFAULT_MEMORY_FACTORS),),
        analyze=_analyze_makespan,
    ),
    "fig3": FigureSpec(
        figure_id="fig3",
        title="Speedup of MemBooking over Activation (assembly trees, p=8)",
        x_label="normalized memory bound",
        y_label="speedup",
        seed=2017,
        dataset=_ASSEMBLY,
        grids=(
            GridSpec(
                memory_factors=DEFAULT_MEMORY_FACTORS,
                schedulers=("Activation", "MemBooking"),
            ),
        ),
        analyze=_analyze_speedup,
    ),
    "fig4": FigureSpec(
        figure_id="fig4",
        title="Fraction of available memory used (assembly trees, p=8)",
        x_label="normalized memory bound",
        y_label="peak resident memory / memory bound",
        seed=2017,
        dataset=_ASSEMBLY,
        grids=(GridSpec(memory_factors=DEFAULT_MEMORY_FACTORS),),
        analyze=_analyze_memory_fraction,
    ),
    "fig5": FigureSpec(
        figure_id="fig5",
        title="Scheduling time vs tree size (assembly trees)",
        x_label="tree_size",
        y_label="scheduling_seconds",
        seed=2017,
        dataset=_ASSEMBLY,
        grids=(GridSpec(memory_factors=(2.0,), timing_repetitions=5),),
        analyze=_analyze_timing,
        params={"x_key": "tree_size", "y_key": "scheduling_seconds"},
    ),
    "fig6": FigureSpec(
        figure_id="fig6",
        title="Per-node scheduling time vs tree height",
        x_label="tree_height",
        y_label="scheduling_seconds_per_node",
        seed=99,
        dataset=_HEIGHT,
        grids=(GridSpec(memory_factors=(2.0,), timing_repetitions=5),),
        analyze=_analyze_timing,
        params={"x_key": "tree_height", "y_key": "scheduling_seconds_per_node"},
    ),
    "fig7": FigureSpec(
        figure_id="fig7",
        title="Speedup of MemBooking vs tree height at memory factor 2",
        x_label="tree height",
        y_label="speedup over Activation",
        seed=2017,
        dataset=DatasetRef(parts=(("assembly", 0), ("height", 1))),
        grids=(
            GridSpec(memory_factors=(2.0,), schedulers=("Activation", "MemBooking")),
        ),
        analyze=_analyze_height_speedup,
    ),
    "fig8": FigureSpec(
        figure_id="fig8",
        title="Impact of the AO/EO choice on MemBooking (assembly trees, p=8)",
        x_label="normalized memory bound",
        y_label="makespan / lower bound",
        seed=2017,
        dataset=_ASSEMBLY,
        grids=tuple(
            GridSpec(
                memory_factors=(1.5, 2.0, 5.0, 20.0),
                schedulers=("MemBooking",),
                activation_order=ao_name,
                execution_order=eo_name,
            )
            for ao_name, eo_name in ORDER_COMBOS
        ),
        analyze=_analyze_order_choice,
    ),
    "fig9": FigureSpec(
        figure_id="fig9",
        title="Normalised makespan for several processor counts (assembly trees)",
        x_label="normalized memory bound",
        y_label="makespan / lower bound",
        seed=2017,
        dataset=_ASSEMBLY,
        grids=(
            GridSpec(memory_factors=(1.5, 2.0, 5.0, 20.0), processors=(2, 4, 8, 16, 32)),
        ),
        analyze=_analyze_processor_sweep,
    ),
    "fig10": FigureSpec(
        figure_id="fig10",
        title="Normalised makespan vs memory bound (synthetic trees, p=8)",
        x_label="normalized memory bound",
        y_label="makespan / lower bound",
        seed=7011,
        dataset=_SYNTHETIC,
        grids=(GridSpec(memory_factors=_SYNTH_FACTORS),),
        analyze=_analyze_makespan,
    ),
    "fig11": FigureSpec(
        figure_id="fig11",
        title="Speedup of MemBooking over Activation (synthetic trees, p=8)",
        x_label="normalized memory bound",
        y_label="speedup",
        seed=7011,
        dataset=_SYNTHETIC,
        grids=(
            GridSpec(
                memory_factors=_SYNTH_FACTORS, schedulers=("Activation", "MemBooking")
            ),
        ),
        analyze=_analyze_speedup,
    ),
    "fig12": FigureSpec(
        figure_id="fig12",
        title="Fraction of available memory used (synthetic trees, p=8)",
        x_label="normalized memory bound",
        y_label="peak resident memory / memory bound",
        seed=7011,
        dataset=_SYNTHETIC,
        grids=(GridSpec(memory_factors=_SYNTH_FACTORS),),
        analyze=_analyze_memory_fraction,
    ),
    "fig13": FigureSpec(
        figure_id="fig13",
        title="Scheduling time vs tree size (synthetic trees)",
        x_label="tree_size",
        y_label="scheduling_seconds",
        seed=7011,
        dataset=_SYNTHETIC,
        grids=(GridSpec(memory_factors=(2.0,), timing_repetitions=5),),
        analyze=_analyze_timing,
        params={"x_key": "tree_size", "y_key": "scheduling_seconds"},
    ),
    "fig14": FigureSpec(
        figure_id="fig14",
        title="Impact of the AO/EO choice on MemBooking (synthetic trees, p=8)",
        x_label="normalized memory bound",
        y_label="makespan / lower bound",
        seed=7011,
        dataset=_SYNTHETIC,
        grids=tuple(
            GridSpec(
                memory_factors=(1.5, 2.0, 5.0, 10.0),
                schedulers=("MemBooking",),
                activation_order=ao_name,
                execution_order=eo_name,
            )
            for ao_name, eo_name in ORDER_COMBOS
        ),
        analyze=_analyze_order_choice,
    ),
    "fig15": FigureSpec(
        figure_id="fig15",
        title="Normalised makespan for several processor counts (synthetic trees)",
        x_label="normalized memory bound",
        y_label="makespan / lower bound",
        seed=7011,
        dataset=_SYNTHETIC,
        grids=(
            GridSpec(memory_factors=(1.5, 2.0, 5.0, 10.0), processors=(2, 4, 8, 16, 32)),
        ),
        analyze=_analyze_processor_sweep,
    ),
    "redtree_failures": FigureSpec(
        figure_id="redtree_failures",
        title="Fraction of synthetic trees MemBookingRedTree cannot schedule",
        x_label="normalized memory bound",
        y_label="failure fraction",
        seed=7011,
        dataset=_SYNTHETIC,
        grids=(
            GridSpec(
                memory_factors=(1.0, 1.2, 1.4, 2.0, 5.0),
                schedulers=("MemBookingRedTree", "MemBooking"),
                min_completion_fraction=0.0,
                validate=False,
            ),
        ),
        analyze=_analyze_redtree,
    ),
    "lb_stats": FigureSpec(
        figure_id="lb_stats",
        title="Improvement of the memory-aware lower bound (Section 6)",
        x_label="normalized memory bound",
        y_label="fraction improved / average improvement",
        seed=2017,
        custom=lb_stats,
    ),
    "ablation_dispatch": FigureSpec(
        figure_id="ablation_dispatch",
        title="Ablation: ALAP dispatch to candidates vs strict ACT/RUN dispatch",
        x_label="normalized memory bound",
        y_label="mean makespan",
        seed=7011,
        custom=ablation_dispatch,
    ),
    "ablation_lazy_subtree": FigureSpec(
        figure_id="ablation_lazy_subtree",
        title="Ablation: optimised vs reference MemBooking data structures",
        x_label="tree size",
        y_label="scheduling seconds",
        seed=99,
        custom=ablation_lazy_subtree,
    ),
}


# --------------------------------------------------------------------------- #
# legacy keyword entry points (``fig2(scale=..., cache=...)``)
# --------------------------------------------------------------------------- #
def _legacy_entry(figure_id: str, doc: str) -> Callable[..., FigureResult]:
    spec = FIGURE_SPECS[figure_id]

    def figure(
        scale: str = "small",
        seed: int | None = None,
        jobs: int = 1,
        backend: str = "auto",
        native: bool | None = None,
        fault_plan: str | None = None,
        cache: ResultCache | None = None,
        workload_cache: WorkloadCache | None = None,
    ) -> FigureResult:
        ctx = RunContext(
            scale=scale,
            jobs=jobs,
            backend=backend,
            native=native,
            fault_plan=fault_plan,
            cache=cache,
            workload_cache=workload_cache,
        )
        return run_spec(spec, ctx, seed=seed)

    figure.__name__ = figure_id
    figure.__qualname__ = figure_id
    figure.__doc__ = doc
    return figure


fig2 = _legacy_entry("fig2", "Figure 2: normalised makespan of the three heuristics, assembly trees.")
fig3 = _legacy_entry("fig3", "Figure 3: speedup of MemBooking over Activation, assembly trees.")
fig4 = _legacy_entry("fig4", "Figure 4: fraction of the available memory actually used, assembly trees.")
fig5 = _legacy_entry("fig5", "Figure 5: scheduling time as a function of the tree size, assembly trees.")
fig6 = _legacy_entry("fig6", "Figure 6: scheduling time per node as a function of the tree height.")
fig7 = _legacy_entry("fig7", "Figure 7: speedup over Activation as a function of the tree height (factor 2).")
fig8 = _legacy_entry("fig8", "Figure 8: impact of the activation/execution order choice, assembly trees.")
fig9 = _legacy_entry("fig9", "Figure 9: normalised makespan for p in {2, 4, 8, 16, 32}, assembly trees.")
fig10 = _legacy_entry("fig10", "Figure 10: normalised makespan of the three heuristics, synthetic trees.")
fig11 = _legacy_entry("fig11", "Figure 11: speedup of MemBooking over Activation, synthetic trees.")
fig12 = _legacy_entry("fig12", "Figure 12: fraction of the available memory actually used, synthetic trees.")
fig13 = _legacy_entry("fig13", "Figure 13: scheduling time as a function of the tree size, synthetic trees.")
fig14 = _legacy_entry("fig14", "Figure 14: impact of the activation/execution order choice, synthetic trees.")
fig15 = _legacy_entry("fig15", "Figure 15: normalised makespan for p in {2, 4, 8, 16, 32}, synthetic trees.")
redtree_failures = _legacy_entry(
    "redtree_failures",
    "Section 7.4: MemBookingRedTree cannot schedule many trees under tight memory.",
)


#: Registry used by the CLI and the benchmark suite (legacy keyword entry
#: points; prefer ``run_figure(figure_id, ctx)`` for new code).
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "lb_stats": lb_stats,
    "redtree_failures": redtree_failures,
    "ablation_dispatch": ablation_dispatch,
    "ablation_lazy_subtree": ablation_lazy_subtree,
}


def run_figure(
    figure_id: str, ctx: RunContext | None = None, **kwargs: Any
) -> FigureResult:
    """Run one figure by identifier (``"fig2"``, ..., ``"lb_stats"``).

    Either pass a :class:`~repro.experiments.specs.RunContext` (the spec
    driver executes it through the plan layer) or the historical keyword
    arguments (``scale=..., jobs=..., cache=...``), not both.
    """
    if figure_id not in FIGURE_SPECS:
        raise ValueError(f"unknown figure {figure_id!r}; available: {sorted(FIGURE_SPECS)}")
    if ctx is not None:
        if kwargs:
            raise TypeError("pass either a RunContext or legacy keyword arguments, not both")
        return run_spec(FIGURE_SPECS[figure_id], ctx)
    return FIGURES[figure_id](**kwargs)
