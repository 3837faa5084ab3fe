"""The three sweep workloads: a figure or plan run cold, then re-read warm.

One operation is one pass: a cold run into a fresh on-disk
``ResultCache`` (fresh tree objects from the workload-cache arena, so
nothing is memoised from the previous pass), then six warm runs, each
through a new ``ResultCache`` on the same directory, which re-read every
row.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from checks import Checker, compare_rows
from spans import Recorder, install, layer_metrics, window

#: Instances re-simulated through ``Scheduler.schedule`` per pass.
RESIMULATED_PER_PASS = 6

#: Passes every run makes, however short ``--seconds`` is.
MIN_PASSES = 3

#: Warm re-reads per pass: a warm run lasts only 20-40 ms, and six per
#: pass give its 90th percentile 66-120 samples a run (three gave the
#: heavy-leaf warm rate a 10-seed spread of 0.10-0.15).
WARM_READS = 6


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    dataset: str
    native: bool
    #: The figure run through ``run_spec``; ``None`` runs the heavy-leaf
    #: saturation plan through ``execute_plan_cached`` instead.
    figure: str | None = None


WORKLOADS = {
    "fig15-native": SweepWorkload("synthetic", native=True, figure="fig15"),
    "fig8-orders": SweepWorkload("assembly", native=True, figure="fig8"),
    "heavyleaf-batched-py": SweepWorkload("heavyleaf", native=False),
}

#: The heavy-leaf saturation grid: Activation and MemBooking over a
#: hardware-saturation processor axis and the full memory-factor range.
SATURATION = dict(
    schedulers=("Activation", "MemBooking"),
    processors=(2, 4, 8, 16, 32, 64, 128),
    memory_factors=(1.5, 2.0, 5.0, 10.0, 20.0),
)


def make_runner(workload: SweepWorkload, seed: int, workload_cache: Any) -> Callable:
    """``run(cache, recorder=None)`` -> rows of one cold or warm execution."""
    from repro.experiments import specs
    from repro.experiments.config import SweepConfig
    from repro.experiments.figures import FIGURE_SPECS
    from repro.experiments.plan import SweepPlan, execute_plan_cached

    if workload.figure is not None:
        spec = FIGURE_SPECS[workload.figure]

        def run_figure(cache: Any, recorder: Recorder | None = None) -> list[dict]:
            chosen = spec
            if recorder is not None:
                chosen = dataclasses.replace(
                    spec, analyze=recorder.wrap("experiments.analyze", spec.analyze)
                )
            ctx = specs.RunContext(
                scale="small", backend="serial", native=workload.native,
                cache=cache, workload_cache=workload_cache,
            )
            return specs.run_spec(chosen, ctx, seed=seed).records

        return run_figure

    config = SweepConfig(backend="batched", native=workload.native, **SATURATION)

    def run_plan(cache: Any, recorder: Recorder | None = None) -> Any:
        trees = specs.load_dataset(workload.dataset, "small", seed, workload_cache)
        plan = SweepPlan.from_config(config, len(trees))
        return execute_plan_cached(trees, plan, cache=cache, backend="batched")

    return run_plan


def run(workload: SweepWorkload, seed: int, seconds: float, traced: bool, tmp: Path,
        clock_zero: float) -> dict[str, Any]:
    """Set up, run whole passes for ``seconds`` and summarise them."""
    import resource

    if workload.native:
        from repro import native

        native.native_kernels(True)  # the build into the run's empty cache
    from repro.experiments import specs
    from repro.experiments.records import ResultCache
    from repro.workloads.datasets import WorkloadCache

    workload_cache = WorkloadCache(tmp / "workloads")
    began = time.perf_counter()
    trees = specs.load_dataset(workload.dataset, "small", seed, workload_cache)
    load_seconds = time.perf_counter() - began
    runner = make_runner(workload, seed, workload_cache)
    sampler = random.Random(seed)
    recorder = Recorder()

    loop_start = time.perf_counter()
    setup_s = loop_start - clock_zero
    # The checks are neither set-up nor timed.
    checker = Checker(trees, native=workload.native)
    cold_times: list[float] = []
    warm_times: list[float] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layer_rows: list[dict[str, float]] = []
    errors: list[str] = []
    attempted = failed = 0
    rows_per_pass = 0
    bytes_per_row = 0.0
    last = 0.0
    while attempted < MIN_PASSES or time.perf_counter() - loop_start + last <= seconds:
        pass_start = time.perf_counter()
        tracing = traced and attempted % 2 == 1
        cache_dir = tmp / f"rows-{attempted}"
        attempted += 1
        undo = install(recorder) if tracing else None
        try:
            t0 = time.perf_counter()
            cold = runner(ResultCache(cache_dir), recorder if tracing else None)
            stamps = [time.perf_counter()]
            warms = []
            for _ in range(WARM_READS):
                warms.append(runner(ResultCache(cache_dir), recorder if tracing else None))
                stamps.append(time.perf_counter())
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(f"pass {attempted}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if undo is not None:
                undo()
        t1 = stamps[-1]
        cold_times.append(stamps[0] - t0)
        warm_times += [b - a for a, b in zip(stamps, stamps[1:])]
        if tracing:
            traced_walls.append(t1 - t0)
            layer_rows.append(layer_metrics(window(recorder.spans, t0, t1), t1 - t0))
            recorder.spans.clear()
        else:
            plain_walls.append(t1 - t0)
        cold_rows = list(cold)
        if not bytes_per_row:
            rows_per_pass = len(cold_rows)
            store = [cache_dir / "rows.records", cache_dir / "rows.index.json"]
            bytes_per_row = sum(path.stat().st_size for path in store) / len(cold_rows)
        errors += checker.rows(cold_rows)
        for warm in warms:
            errors += compare_rows(cold_rows, list(warm), f"pass {attempted} warm vs cold")
        for position in sampler.sample(range(len(cold_rows)), RESIMULATED_PER_PASS):
            errors += checker.resimulate(cold_rows[position])
        shutil.rmtree(cache_dir)
        last = time.perf_counter() - pass_start

    metrics = {
        "setup_s": setup_s,
        "instances_per_s": rows_per_pass / p90(cold_times),
        "cached_rows_per_s": rows_per_pass / p90(warm_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_bytes_per_row": bytes_per_row,
    }
    layers: dict[str, float] = {}
    if traced:
        layers = {
            name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]
        }
        layers["workloads.load_s"] = load_seconds
        layers["service.roundtrip_s"] = 0.0
        layers["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "layers": layers,
        "samples": len(cold_times),
    }


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between samples.

    The host this benchmark was built on runs the same code at one of two
    speeds about 1.6x apart, switching every few seconds or holding one
    for minutes.  A run's median lands on whichever speed held for more of
    the run and flips from run to run; its 90th percentile stays on the
    slow speed unless a fast spell covers nearly the whole run.
    """
    return statistics.quantiles(values, n=100, method="inclusive")[89]
