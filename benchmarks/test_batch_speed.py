"""Batched lane engine benchmark: sweep-level instance throughput.

Measures, on the same machine and the same inputs, the instance throughput
(instances simulated per second, records included) of the
:class:`~repro.batch.BatchedBackend` against the
:class:`~repro.experiments.backends.SerialBackend` running the PR 4 scalar
kernels — the single-core baseline the lane engine is built to beat
through lane collapse and shared per-batch setup.

Two configurations are timed, both restricted to the two lane-kernel
heuristics (``Activation`` + ``MemBooking`` — everything else runs the
identical scalar path in both backends and would only dilute the
measurement):

* the **saturation sweep** — the heavy-leaf caterpillar family under a
  hardware-saturation processor axis (``p`` up to 128) across the full
  memory-factor range.  This is the grid shape the batch subsystem
  targets: most of the processor axis collapses onto one simulation per
  factor (saturation rule) and the generous factor tail collapses per
  ``p`` (memory-slack/starvation rules).  The gate here is a count, not a
  time: the lane engine must simulate exactly one lane per *distinct*
  schedule of the grid (180 of 350 instances at ``small``), so no
  provable replay escapes collapse.  The timed speedup over serial is
  recorded but not gated: its ceiling is instances / distinct schedules
  (~1.94x at ``small``), which a host changing CPU speed mid-run can push
  either side of any fixed bar;
* the **fig15 grid** — the paper's synthetic processor sweep, recorded as
  the everyday-workload data point (no gate beyond a sanity floor: wide
  random trees offer less provable collapse);
* the **feasibility boundary** — the same heavy-leaf family swept *below*
  the sequential minimum memory, where instances are blocked by the bound
  (t=0 failures and early deadlocks).  This is the grid the blocked-replay
  collapse rule targets: one simulated lane certifies the whole infeasible
  block, cross-``p`` and cross-factor (``SweepConfig`` refuses sub-1
  factors, so this section drives ``simulate_lanes`` directly against the
  scalar schedulers).

Each batched grid is additionally timed with the compiled kernel plane
(``native``) when a toolchain is available, so the JSON records the
native uplift next to the pure-Python trajectory.  Byte-identical records
are asserted on every timed run, so the speedups can never come from
divergence.  Everything lands in ``benchmarks/results/BENCH_batch.json``
(uploaded as a CI artifact), the machine-readable trajectory future PRs
regress against; per-rule lane-collapse tallies ride along in every
section.  Each section is persisted only *after* its acceptance gate has
passed, so a failing (or noisy) run can never enshrine its numbers as the
committed baseline.
"""

from __future__ import annotations

import gc
import json
import pickle
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro.batch.backend as batch_backend
import repro.batch.lanes as lanes_mod
from repro.batch import LANE_KERNELS, BatchedBackend, simulate_lanes
from repro.experiments import SweepConfig, run_sweep
from repro.experiments.backends import SerialBackend
from repro.experiments.runner import prepare_instance
from repro.native import native_kernels
from repro.schedulers import SCHEDULER_FACTORIES
from repro.workloads.datasets import heavyleaf_dataset, synthetic_dataset

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_batch.json"

TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})

#: The two lane-kernel heuristics (see module docstring).
KERNEL_SCHEDULERS = ("Activation", "MemBooking")

SATURATION_CONFIG = SweepConfig(
    schedulers=KERNEL_SCHEDULERS,
    memory_factors=(1.5, 2.0, 5.0, 10.0, 20.0),
    processors=(2, 4, 8, 16, 32, 64, 128),
    min_completion_fraction=0.0,
)

FIG15_CONFIG = SweepConfig(
    schedulers=KERNEL_SCHEDULERS,
    memory_factors=(1.5, 2.0, 5.0, 10.0),
    processors=(2, 4, 8, 16, 32),
    min_completion_fraction=0.0,
)


def _record_bytes(records):
    return [
        pickle.dumps({k: v for k, v in r.items() if k not in TIMING_FIELDS})
        for r in records
    ]


def _update_bench_json(scale: str, section: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    data: dict = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except ValueError:
            data = {}
    data.setdefault("schema", 1)
    data["scale"] = scale
    data.setdefault("sections", {})[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _timed_sweep(trees, config, backend):
    """One timed run: GC-quiesced, returning (seconds, table)."""
    gc.collect()
    tic = time.perf_counter()
    table = run_sweep(trees, config, backend=backend)
    return time.perf_counter() - tic, table


def _simulated(outcomes) -> int:
    """Simulated lanes of ``simulate_lanes`` outcomes: a representative
    (``back == 0``) was simulated, a clone was collapsed onto one."""
    return sum(1 for _, back in outcomes if not back)


def _counted_batched_sweep(trees, config):
    """One batched sweep: ``(table, lanes simulated, collapse rule tallies)``."""
    simulate = batch_backend.simulate_lanes
    simulated = 0

    def counting(*args, **kwargs):
        nonlocal simulated
        outcomes = simulate(*args, **kwargs)
        simulated += _simulated(outcomes)
        return outcomes

    lanes_mod.collapse_rule_counts.clear()
    batch_backend.simulate_lanes = counting
    try:
        table = run_sweep(trees, config, backend=BatchedBackend())
    finally:
        batch_backend.simulate_lanes = simulate
    return table, simulated, dict(lanes_mod.collapse_rule_counts)


def _measure(trees, config, repetitions: int = 5):
    """Time both backends on one grid; returns the payload + parity check.

    The serial and batched runs alternate, ``repetitions`` of each, and
    each side keeps its fastest run: a slow spell of a shared host then
    lands on both sides instead of deciding the gated ratio, and min-of-N
    drops one-off scheduler/GC noise.
    """
    config = replace(config, native=False)
    serial_runs: list[float] = []
    batched_runs: list[float] = []
    for _ in range(repetitions):
        seconds, serial_table = _timed_sweep(trees, config, SerialBackend())
        serial_runs.append(seconds)
        batched_runs.append(_timed_sweep(trees, config, BatchedBackend())[0])
    serial_seconds = min(serial_runs)
    batched_seconds = min(batched_runs)

    batched_table, simulated, rules = _counted_batched_sweep(trees, config)

    assert _record_bytes(batched_table) == _record_bytes(serial_table), (
        "batched records diverged from serial — a speedup would be meaningless"
    )
    instances = len(serial_table)
    payload = {
        "instances": instances,
        "trees": len(trees),
        "lanes_simulated": simulated,
        "lanes_collapsed": instances - simulated,
        "collapse_rules": rules,
        "serial_seconds": serial_seconds,
        "batched_seconds": batched_seconds,
        "instances_per_second_serial": instances / serial_seconds,
        "instances_per_second_batched": instances / batched_seconds,
        "speedup": serial_seconds / batched_seconds,
    }

    if native_kernels(None) is not None:
        native_config = replace(config, native=True)
        native_seconds = min(
            _timed_sweep(trees, native_config, BatchedBackend())[0]
            for _ in range(repetitions)
        )
        _, native_table = _timed_sweep(trees, native_config, BatchedBackend())
        assert _record_bytes(native_table) == _record_bytes(serial_table), (
            "native batched records diverged from serial"
        )
        payload["batched_native_seconds"] = native_seconds
        payload["instances_per_second_batched_native"] = instances / native_seconds
        payload["speedup_native"] = serial_seconds / native_seconds
    return payload


def _distinct_schedules(trees, config) -> int:
    """Distinct (tree, heuristic, schedule) triples of ``config``'s grid.

    Each instance runs through its scalar scheduler; two instances share a
    schedule when their start/finish/processor arrays and failure reason
    are equal.  A lane engine that collapses every provable replay
    simulates exactly this many lanes.
    """
    schedules = set()
    for index, tree in enumerate(trees):
        context = prepare_instance(tree, index, config)
        for p in config.processors:
            for factor in config.memory_factors:
                for name in config.schedulers:
                    scheduler = SCHEDULER_FACTORIES[name]()
                    scheduler.native = config.native
                    scheduler.peak_on_run = False
                    result = scheduler.schedule(
                        tree,
                        p,
                        factor * context.minimum_memory,
                        ao=context.ao,
                        eo=context.eo,
                        workspace=context.workspace,
                    )
                    schedules.add(
                        (
                            index,
                            name,
                            result.start_times.tobytes(),
                            result.finish_times.tobytes(),
                            result.processor.tobytes(),
                            result.failure_reason,
                        )
                    )
    return len(schedules)


def test_saturation_sweep_instance_throughput(bench_scale):
    trees, _ = heavyleaf_dataset(bench_scale)
    payload = _measure(trees, SATURATION_CONFIG)
    payload["config"] = "heavy-leaf saturation sweep (p up to 128)"
    payload["distinct_schedules"] = _distinct_schedules(
        trees, replace(SATURATION_CONFIG, native=False)
    )
    print(
        f"\nsaturation sweep: {payload['instances']} instances "
        f"({payload['lanes_simulated']} simulated, {payload['lanes_collapsed']} collapsed) | "
        f"serial {payload['serial_seconds']:.2f}s "
        f"({payload['instances_per_second_serial']:.1f}/s) | "
        f"batched {payload['batched_seconds']:.2f}s "
        f"({payload['instances_per_second_batched']:.1f}/s) | "
        f"speedup {payload['speedup']:.2f}x"
    )
    # Gate on work, not wall-clock: one simulated lane per distinct
    # schedule, at every scale (the speedup stays recorded in the JSON).
    assert payload["lanes_simulated"] == payload["distinct_schedules"], (
        f"the lane engine simulated {payload['lanes_simulated']} lanes for "
        f"{payload['distinct_schedules']} distinct schedules"
    )
    _update_bench_json(bench_scale, "saturation_sweep", payload)


def test_fig15_grid_instance_throughput(bench_scale):
    trees, _ = synthetic_dataset(bench_scale, seed=7011)
    payload = _measure(trees, FIG15_CONFIG)
    payload["config"] = "fig15 grid (synthetic processor sweep, lane kernels)"
    print(
        f"\nfig15 grid: {payload['instances']} instances "
        f"({payload['lanes_simulated']} simulated, {payload['lanes_collapsed']} collapsed) | "
        f"serial {payload['serial_seconds']:.2f}s | batched {payload['batched_seconds']:.2f}s | "
        f"speedup {payload['speedup']:.2f}x"
    )
    if bench_scale != "tiny":
        # Regression floor for the everyday grid: the batched backend must
        # never lose to serial at real scales (it measured ~2x when added).
        assert payload["speedup"] >= 1.2, (
            f"batched backend regressed to {payload['speedup']:.2f}x on the fig15 grid"
        )
    _update_bench_json(bench_scale, "fig15_grid", payload)


#: Feasibility-boundary grid: factors below 1 are *blocked* instances (the
#: memory bound refuses them at or near t=0); 1.0 is the sequential
#: minimum itself and 1.5 anchors the feasible side.
BOUNDARY_FACTORS = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0, 1.5)
BOUNDARY_PROCS = (2, 4, 8, 16, 32)


def test_feasibility_boundary_collapse(bench_scale, repetitions: int = 5):
    """Blocked-replay yield on the sub-feasible block, recorded per run.

    Each kernel plane is timed against itself: Python lanes against the
    Python scalar schedulers, C lanes (when a toolchain is available)
    against the C scalar schedulers.  The four runs alternate and each
    keeps its fastest of ``repetitions``, as in :func:`_measure`.
    """
    trees, _ = heavyleaf_dataset(bench_scale)
    base = SweepConfig(min_completion_fraction=0.0, validate=False)
    contexts = [prepare_instance(tree, i, base) for i, tree in enumerate(trees)]
    grids = [
        [
            (p, factor * ctx.minimum_memory)
            for factor in BOUNDARY_FACTORS
            for p in BOUNDARY_PROCS
        ]
        for ctx in contexts
    ]
    def scalar_run(native):
        outcomes = []
        for tree, ctx, grid in zip(trees, contexts, grids):
            for name in KERNEL_SCHEDULERS:
                scheduler = SCHEDULER_FACTORIES[name]()
                scheduler.native = native
                # The lanes leave the peak unfilled too: same work each side.
                scheduler.peak_on_run = False
                for p, limit in grid:
                    result = scheduler.schedule(
                        tree, p, limit, ao=ctx.ao, eo=ctx.eo, workspace=ctx.workspace
                    )
                    outcomes.append((result, 0))
        return outcomes

    def batched_run(native):
        outcomes = []
        for tree, ctx, grid in zip(trees, contexts, grids):
            for name in KERNEL_SCHEDULERS:
                outcomes.extend(
                    simulate_lanes(
                        LANE_KERNELS[name], tree, ctx.ao, ctx.eo, ctx.workspace, grid,
                        native=native,
                    )
                )
        return outcomes

    planes = [False] + ([True] if native_kernels(None) is not None else [])
    runs = [(side, native) for native in planes for side in (scalar_run, batched_run)]
    seconds: dict = {run: [] for run in runs}
    outcomes: dict = {}
    for _ in range(repetitions):
        for side, native in runs:
            gc.collect()
            tic = time.perf_counter()
            outcomes[side, native] = side(native)
            seconds[side, native].append(time.perf_counter() - tic)
    lanes_mod.collapse_rule_counts.clear()
    batched_run(False)
    rules = dict(lanes_mod.collapse_rule_counts)

    expected = outcomes[scalar_run, False]
    for run in runs[1:]:
        assert len(outcomes[run]) == len(expected)
        for (result, _), (scalar, _) in zip(outcomes[run], expected):
            assert result.completed == scalar.completed
            assert result.failure_reason == scalar.failure_reason
            np.testing.assert_array_equal(result.start_times, scalar.start_times)
            np.testing.assert_array_equal(result.finish_times, scalar.finish_times)
            np.testing.assert_array_equal(result.processor, scalar.processor)

    instances = len(expected)
    simulated = _simulated(outcomes[batched_run, False])
    serial_seconds = min(seconds[scalar_run, False])
    batched_seconds = min(seconds[batched_run, False])
    payload = {
        "config": "feasibility boundary (sub-minimum factors, blocked lanes)",
        "instances": instances,
        "trees": len(trees),
        "lanes_simulated": simulated,
        "lanes_collapsed": instances - simulated,
        "collapse_rules": rules,
        "serial_seconds": serial_seconds,
        "batched_seconds": batched_seconds,
        "speedup": serial_seconds / batched_seconds,
    }
    if True in planes:
        payload["serial_native_seconds"] = min(seconds[scalar_run, True])
        payload["batched_native_seconds"] = min(seconds[batched_run, True])
        payload["speedup_native"] = (
            payload["serial_native_seconds"] / payload["batched_native_seconds"]
        )
    print(
        f"\nfeasibility boundary: {payload['instances']} instances "
        f"({payload['lanes_simulated']} simulated, {payload['lanes_collapsed']} collapsed, "
        f"rules {rules}) | serial {serial_seconds:.2f}s | "
        f"batched {batched_seconds:.2f}s | speedup {payload['speedup']:.2f}x"
    )
    # The point of the section: the blocked block must actually resolve
    # through the blocked-replay rule, at every scale.
    assert rules.get("blocked-replay", 0) > 0, (
        "the sub-feasible grid produced no blocked-replay collapses"
    )
    _update_bench_json(bench_scale, "feasibility_boundary", payload)


#: A fault plan that is armed (so every retry/quarantine code path is live)
#: but whose period is so large it never fires: pure machinery overhead.
INERT_PLAN = "seed=1;os-transient:1000000000"


def test_resilience_overhead(bench_scale):
    """Fault-free cost of the retry machinery on the serial hot path.

    Compares the serial backend with no fault plan against the same sweep
    under an armed-but-never-firing plan (every instance pays the firing
    decision and the retry loop, none takes a fault).  Records must stay
    byte-identical; at non-tiny scales the armed run may cost at most 3%.
    """
    from repro.experiments.runner import canonical_combos, resilient_run_single
    from repro.resilience import reset_fault_state, reset_run_health
    from repro.resilience.faults import resolve_fault_plan

    trees, _ = synthetic_dataset(bench_scale, seed=7011)
    config = replace(FIG15_CONFIG, native=False)
    armed = replace(config, fault_plan=INERT_PLAN)
    reset_run_health()
    reset_fault_state()
    base_table = run_sweep(trees, config, backend=SerialBackend())
    armed_table = run_sweep(trees, armed, backend=SerialBackend())
    assert _record_bytes(armed_table) == _record_bytes(base_table), (
        "an armed-but-inert fault plan changed the records"
    )

    # Time the two sides instance by instance, alternating, in one
    # process: a shared host may change CPU speed level several times a
    # second, which moves whole sweeps (and even single-tree sweeps) by
    # more than the 3% being gated, while two ~5 ms runs of one instance
    # back to back share their level.  Each instance keeps its fastest of
    # five runs per side (min-of-N drops one-off scheduler/GC noise), and
    # the side that runs first swaps every repetition.  This is the call
    # the serial backend makes per row, with the plan it resolves.
    sides = [
        ("base", resolve_fault_plan(config.fault_plan)),
        ("armed", resolve_fault_plan(armed.fault_plan)),
    ]
    seconds = {"base": 0.0, "armed": 0.0}
    for index, tree in enumerate(trees):
        context = prepare_instance(tree, index, config)
        gc.collect()
        for combo in canonical_combos(config):
            runs: dict[str, list[float]] = {"base": [], "armed": []}
            for repetition in range(5):
                for name, faults in sides if repetition % 2 == 0 else sides[::-1]:
                    tic = time.perf_counter()
                    resilient_run_single(context, *combo, config, faults)
                    runs[name].append(time.perf_counter() - tic)
            for name, side_runs in runs.items():
                seconds[name] += min(side_runs)
    base_seconds = seconds["base"]
    armed_seconds = seconds["armed"]

    instances = len(base_table)
    overhead = armed_seconds / base_seconds - 1.0
    payload = {
        "config": "fig15 grid, serial backend, armed inert fault plan",
        "instances": instances,
        "base_seconds": base_seconds,
        "armed_seconds": armed_seconds,
        "instances_per_second": instances / base_seconds,
        "instances_per_second_armed": instances / armed_seconds,
        "overhead_fraction": overhead,
    }
    print(
        f"\nresilience overhead: {instances} instances | "
        f"base {base_seconds:.3f}s | armed {armed_seconds:.3f}s | "
        f"overhead {overhead * 100:+.2f}%"
    )
    if bench_scale != "tiny":
        # ISSUE 9 acceptance bar: the fault-free retry machinery may cost
        # at most 3% (tiny runs record without gating — sub-second noise).
        # The JSON write below only happens on a passing run, so the
        # committed baseline can never come from a run that tripped this.
        assert armed_seconds <= base_seconds * 1.03, (
            f"retry machinery costs {overhead * 100:.1f}% fault-free (allowed: 3%)"
        )
    _update_bench_json(bench_scale, "resilience_overhead", payload)
