"""Run the whole evaluation suite and write a consolidated report.

``python -m repro.experiments.suite --scale tiny --out results/`` (or the
programmatic :func:`run_suite`) executes every figure/table reproduction of
:mod:`repro.experiments.figures`, writes

* one text file per figure (the same series the benchmarks print),
* one CSV per figure (for offline plotting),
* a ``summary.md`` report listing every qualitative check and whether it
  passed, plus the instance-level plan accounting
  (``instances: N unique / M requested / K cached`` and the number of fresh
  simulations the run actually performed), and
* ``plan-stats.json`` with the same accounting in machine-readable form,

which is how the EXPERIMENTS.md numbers were collected.  The benchmark suite
(`pytest benchmarks/ --benchmark-only`) remains the canonical way to *assert*
the checks; this module is the convenience front-end for regenerating all the
data in one go.

Sweep plans and cross-figure dedup
----------------------------------
Every grid-sweep figure declares its instances through a
:class:`~repro.experiments.plan.SweepPlan`; the suite concatenates the plans
of all selected figures and deduplicates them by content-addressed instance
key *before* anything runs.  Figures whose grids overlap (fig10, fig11 and
fig12 sweep the same synthetic grid; fig13's single-factor column is a slice
of it) therefore simulate their shared instances exactly once per run even
with ``--no-cache`` — the dedup then rides on an in-memory row store instead
of the persistent one.  ``--dry-run`` prints this plan (instance counts,
per-figure overlap, predicted cache hits, lane-group counts) and exits
without simulating.

Result cache
------------
By default the suite keeps a **persistent result cache** under
``<out>/.result-cache/``: every simulated instance row is saved keyed by its
content-addressed instance key (tree bytes + value-relevant sweep axes +
schema versions), so re-running the suite at the same scale loads the
recorded rows instead of re-simulating — across runs *and* across figures
(``--no-cache`` disables persistence, ``--cache-dir`` relocates it).
Records are value-identical either way; only the wall-clock
``scheduling_seconds`` fields are those of the original run.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..resilience.health import RunHealth, reset_run_health
from ..workloads.datasets import WorkloadCache
from . import backends as _backends
from .figures import FIGURE_SPECS, FIGURES, FigureResult
from .records import InMemoryRowCache, ResultCache, RowCache
from .reporting import write_series_csv
from .specs import RunContext, format_plan_report, plan_report, run_spec

__all__ = [
    "run_suite",
    "write_suite_report",
    "add_suite_arguments",
    "run_from_args",
    "main",
]


def run_suite(
    figure_ids: Iterable[str] | None = None,
    *,
    scale: str = "small",
    jobs: int = 1,
    backend: str = "auto",
    native: bool | None = None,
    fault_plan: str | None = None,
    cache: RowCache | None = None,
    workload_cache: WorkloadCache | None = None,
    stats: dict[str, Any] | None = None,
) -> dict[str, FigureResult]:
    """Run the selected figures (all of them by default) and return the results.

    ``jobs`` and ``backend`` are forwarded to every figure's sweep: the
    instances of each figure fan out over that many worker processes (``0``
    = one per CPU) using the chosen execution backend (``"shared-memory"``
    ships each dataset once through a shared arena, schedules at instance
    granularity and collects the records through a shared-memory result
    table) while the reported series stay identical to a serial run.
    ``cache`` (a :class:`~repro.experiments.records.ResultCache` or any
    :class:`~repro.experiments.records.RowCache`) makes every figure's plan
    consult/fill the instance-row cache; without one the suite still dedups
    overlapping figures within the run through a transient
    :class:`~repro.experiments.records.InMemoryRowCache`.  ``workload_cache``
    (a :class:`~repro.workloads.datasets.WorkloadCache`) does the same for
    the *generated datasets* — each (kind, scale, seed) is generated at most
    once and mmap-loaded as a zero-copy ``TreeStore`` arena afterwards,
    including across figures of one run that share a dataset.

    ``stats``, when given a dict, is filled with the run's plan accounting
    (the :func:`~repro.experiments.specs.plan_report` totals plus the number
    of ``fresh`` simulations actually performed).
    """
    ids = list(figure_ids) if figure_ids is not None else sorted(FIGURES)
    row_cache: RowCache = cache if cache is not None else InMemoryRowCache()
    ctx = RunContext(
        scale=scale,
        jobs=jobs,
        backend=backend,
        native=native,
        fault_plan=fault_plan,
        cache=row_cache,
        workload_cache=workload_cache,
    )
    specs = [FIGURE_SPECS[figure_id] for figure_id in ids]
    report = plan_report(specs, ctx)
    fresh_before = row_cache.rows_fresh
    results: dict[str, FigureResult] = {}
    for figure_id, spec in zip(ids, specs):
        results[figure_id] = run_spec(spec, ctx)
    if stats is not None:
        stats.update(report)
        stats["fresh"] = row_cache.rows_fresh - fresh_before
    return results


def write_suite_report(
    results: Mapping[str, FigureResult],
    out_dir: str | Path,
    *,
    scale: str = "small",
    elapsed_seconds: float | None = None,
    cache: ResultCache | None = None,
    workload_cache: WorkloadCache | None = None,
    plan_stats: Mapping[str, Any] | None = None,
    health: RunHealth | None = None,
) -> Path:
    """Write per-figure text/CSV files plus a ``summary.md`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "# Evaluation suite report",
        "",
        f"* dataset scale: `{scale}`",
        f"* figures run: {len(results)}",
    ]
    if elapsed_seconds is not None:
        lines.append(f"* total runtime: {elapsed_seconds:.1f} s")
    if plan_stats is not None:
        lines.append(
            f"* instances: {plan_stats['unique']} unique"
            f" / {plan_stats['requested']} requested"
            f" / {plan_stats['cached']} cached"
        )
        lines.append(f"* fresh simulations: {plan_stats['fresh']}")
    if cache is not None:
        lines.append(f"* result cache: {cache.stats()}")
        lines.append(f"* result rows: {cache.row_stats()}")
    if workload_cache is not None:
        lines.append(f"* workload cache: {workload_cache.stats()}")
    if health is not None:
        lines.append(f"* run health: {health.summary()}")
    lines.append("")
    lines.append("| figure | title | checks |")
    lines.append("|---|---|---|")
    for figure_id, result in results.items():
        (out / f"{figure_id}.txt").write_text(result.as_text() + "\n")
        write_series_csv(result.series, out / f"{figure_id}.csv", x_label=result.x_label)
        status = "all pass" if result.all_checks_pass else "FAILURES: " + ", ".join(
            name for name, ok in result.checks.items() if not ok
        )
        lines.append(f"| {figure_id} | {result.title} | {status} |")
    summary = out / "summary.md"
    summary.write_text("\n".join(lines) + "\n")
    return summary


def add_suite_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the suite's command-line options to ``parser``.

    Shared between ``python -m repro.experiments.suite`` and the ``memtree
    suite`` sub-command.
    """
    parser.add_argument("--scale", default="small", help="dataset scale (tiny/small/medium/large)")
    parser.add_argument("--out", type=Path, default=Path("suite-results"))
    parser.add_argument(
        "--figures",
        nargs="*",
        default=None,
        help="subset of figure ids to run (default: every figure)",
    )

    def jobs_count(value: str) -> int:
        jobs = int(value)
        if jobs < 0:
            raise argparse.ArgumentTypeError("must be >= 0 (0 means one worker per CPU)")
        return jobs

    parser.add_argument(
        "--jobs",
        type=jobs_count,
        default=1,
        help="worker processes per sweep (0 = one per CPU, default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(_backends.BACKEND_NAMES),
        default="auto",
        help="sweep execution backend (shared-memory = zero-copy arena transfer, "
        "batched = lane-batched in-process stepper)",
    )
    parser.add_argument(
        "--native",
        action="store_true",
        dest="native",
        default=None,
        help="require the compiled C kernels (repro.native; error if they "
        "cannot be built)",
    )
    parser.add_argument(
        "--no-native",
        action="store_false",
        dest="native",
        help="force the pure-Python kernels (default: the REPRO_NATIVE "
        "environment switch; unset = auto with silent fallback)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan spec, e.g. "
        '"seed=7;worker-crash:40;watchdog=5" (default: the REPRO_FAULTS '
        "environment variable; see repro.resilience)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent result-cache directory (default: <out>/.result-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache (always re-simulate; "
        "overlapping figures still dedup within the run)",
    )
    parser.add_argument(
        "--workload-cache-dir",
        type=Path,
        default=None,
        help="persistent workload (dataset arena) cache directory "
        "(default: <out>/.workload-cache)",
    )
    parser.add_argument(
        "--no-workload-cache",
        action="store_true",
        help="disable the persistent workload cache (always regenerate datasets)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the assembled sweep plan (instance counts, per-figure "
        "overlap, predicted cache hits, lane groups) and exit without "
        "simulating anything",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the suite described by parsed :func:`add_suite_arguments` options."""
    cache: ResultCache | None = None
    if not args.no_cache:
        cache = ResultCache(
            args.cache_dir if args.cache_dir is not None else args.out / ".result-cache"
        )
    workload_cache = None
    if not args.no_workload_cache:
        workload_cache = WorkloadCache(
            args.workload_cache_dir
            if args.workload_cache_dir is not None
            else args.out / ".workload-cache"
        )
    ids = list(args.figures) if args.figures is not None else sorted(FIGURES)
    fault_plan = getattr(args, "faults", None)
    if args.dry_run:
        ctx = RunContext(
            scale=args.scale,
            jobs=args.jobs,
            backend=args.backend,
            native=args.native,
            fault_plan=fault_plan,
            cache=cache if cache is not None else InMemoryRowCache(),
            workload_cache=workload_cache,
        )
        specs = [FIGURE_SPECS[figure_id] for figure_id in ids]
        print(format_plan_report(plan_report(specs, ctx)))
        return 0
    health = reset_run_health()
    start = time.perf_counter()
    plan_stats: dict[str, Any] = {}
    results = run_suite(
        ids,
        scale=args.scale,
        jobs=args.jobs,
        backend=args.backend,
        native=args.native,
        fault_plan=fault_plan,
        cache=cache,
        workload_cache=workload_cache,
        stats=plan_stats,
    )
    elapsed = time.perf_counter() - start
    summary = write_suite_report(
        results,
        args.out,
        scale=args.scale,
        elapsed_seconds=elapsed,
        cache=cache,
        workload_cache=workload_cache,
        plan_stats=plan_stats,
        health=health,
    )
    (args.out / "plan-stats.json").write_text(json.dumps(plan_stats, indent=2) + "\n")
    (args.out / "run-health.json").write_text(health.to_json())
    failures = [fid for fid, result in results.items() if not result.all_checks_pass]
    print(f"wrote {summary} ({len(results)} figures, {elapsed:.1f} s)")
    print(
        f"instances: {plan_stats['unique']} unique / {plan_stats['requested']} requested"
        f" / {plan_stats['cached']} cached; fresh simulations: {plan_stats['fresh']}"
    )
    if cache is not None:
        print(f"result cache: {cache.stats()}")
    if workload_cache is not None:
        print(f"workload cache: {workload_cache.stats()}")
    print(f"run health: {health.summary()}")
    if failures:
        print("figures with failed checks:", ", ".join(failures))
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (``python -m repro.experiments.suite``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_suite_arguments(parser)
    try:
        return run_from_args(parser.parse_args(argv))
    except KeyboardInterrupt:
        # Pool contexts and shm finally-blocks have already torn down on the
        # way up; exit with the conventional SIGINT status, no traceback.
        import sys

        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
