"""Cross-kernel parity of the batched lane engine.

The contract of :mod:`repro.batch` is *bit-identical* records: for any
sweep, ``BatchedBackend`` must reproduce ``SerialBackend`` exactly (timing
fields aside), across heuristics, AO/EO choices, memory factors — failure
paths included — whether a lane was simulated or collapsed.  The seeded
randomized fuzz below drives random trees through the full grid and
asserts three-way equality: batched == scalar kernels == the frozen
:mod:`repro.schedulers.reference` generation (the serial path with the
reference factories patched in), with exact float comparisons.

Every sweep here pins ``native=False``, so it exercises the Python lanes;
``tests/test_native.py`` covers the C lanes, and
:func:`test_python_lane_matches_native_lane` ties the two together.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

import repro.batch.backend as backend_mod
import repro.batch.lanes as lanes_mod
import repro.native as native_mod
from repro.batch import BatchedBackend, LANE_KERNELS, simulate_lanes
from repro.experiments import SweepConfig, run_sweep
from repro.experiments.backends import SerialBackend
from repro.experiments.runner import prepare_instance
from repro.native.build import _find_compiler
from repro.schedulers import SCHEDULER_FACTORIES
from repro.schedulers.engine import simulate_kernel
from repro.schedulers.reference import REFERENCE_FACTORIES
from repro.schedulers.validation import resident_peak
from repro.workloads.families import heavy_leaf_caterpillar, random_attachment_tree
from repro.workloads.synthetic import SyntheticTreeConfig, synthetic_tree

TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})


def record_bytes(records):
    """Pickled records minus wall-clock fields: literal byte identity."""
    return [
        pickle.dumps({k: v for k, v in r.items() if k not in TIMING_FIELDS})
        for r in records
    ]


def fuzz_trees(seed: int):
    """A small zoo of random trees: bushy, chainy, and heavy-leaf shapes."""
    rng = np.random.default_rng(seed)
    return [
        synthetic_tree(SyntheticTreeConfig(num_nodes=int(rng.integers(60, 220))), rng=rng),
        random_attachment_tree(int(rng.integers(40, 120)), rng=rng),
        heavy_leaf_caterpillar(
            int(rng.integers(15, 50)),
            int(rng.integers(1, 4)),
            leaf_output=40.0,
            nexec=1.5,
            rng=rng,
            leaf_jitter=0.4,
        ),
    ]


#: Sweep shapes covering AO == EO and AO != EO, tight factors (failure
#: paths: MemBookingRedTree fails routinely at 1.0, Activation under
#: pressure) and the saturation/slack regimes the collapse rules target.
FUZZ_CONFIGS = [
    SweepConfig(
        memory_factors=(1.0, 1.3, 2.0, 6.0, 20.0),
        processors=(1, 2, 5, 16),
        min_completion_fraction=0.0,
        validate=False,
        native=False,
    ),
    SweepConfig(
        schedulers=("Activation", "MemBooking", "MemBookingReference"),
        memory_factors=(1.0, 1.5, 4.0),
        processors=(3, 8),
        activation_order="memPO",
        execution_order="CP",
        min_completion_fraction=0.0,
        native=False,
    ),
    SweepConfig(
        schedulers=("MemBooking", "Activation"),
        memory_factors=(1.5, 2.0, 5.0, 20.0),
        processors=(2, 4, 8, 16, 32),
        activation_order="OptSeq",
        execution_order="OptSeq",
        min_completion_fraction=0.0,
        native=False,
    ),
]


@pytest.mark.parametrize("seed", [11, 4242, 90210])
@pytest.mark.parametrize("config_index", range(len(FUZZ_CONFIGS)))
def test_batched_equals_scalar_equals_reference(seed, config_index, monkeypatch):
    """Randomized three-way parity with exact float equality."""
    trees = fuzz_trees(seed)
    config = FUZZ_CONFIGS[config_index]

    serial = record_bytes(run_sweep(trees, config, backend=SerialBackend()))
    batched = record_bytes(run_sweep(trees, config, backend=BatchedBackend()))
    assert batched == serial, "batched records diverged from the scalar kernels"

    # The scalar kernels are themselves pinned to the frozen reference
    # generation: replay the sweep with the reference factories and require
    # the same bytes again, closing the batched -> scalar -> reference chain.
    for name, factory in REFERENCE_FACTORIES.items():
        monkeypatch.setitem(SCHEDULER_FACTORIES, name, factory)
    reference = record_bytes(run_sweep(trees, config, backend=SerialBackend()))
    assert serial == reference, "scalar kernels diverged from the reference engine"


@pytest.mark.parametrize("seed", [7, 365])
def test_failure_paths_covered_and_identical(seed):
    """The fuzz grid genuinely exercises deadlocks, with identical reasons."""
    trees = fuzz_trees(seed)
    config = SweepConfig(
        memory_factors=(1.0, 1.05),
        processors=(2, 8),
        min_completion_fraction=0.0,
        validate=False,
        native=False,
    )
    serial = run_sweep(trees, config, backend=SerialBackend())
    batched = run_sweep(trees, config, backend=BatchedBackend())
    assert record_bytes(batched) == record_bytes(serial)
    failed = int(np.count_nonzero(~serial.column("completed")))
    assert failed > 0, "tight-memory grid produced no failures to compare"
    assert list(batched.column("failure_reason")) == list(serial.column("failure_reason"))


@pytest.mark.parametrize("seed", [11, 4242])
@pytest.mark.parametrize("kernel_name", sorted(LANE_KERNELS))
def test_blocked_replay_collapse_fires_and_stays_identical(kernel_name, seed):
    """The feasibility boundary exercises blocked-replay collapse.

    Below the sequential minimum, lanes are *blocked* by the memory bound
    (t=0 failures and early deadlocks).  The ``bound_need`` certificate
    must collapse that block — cross-p and cross-factor — while every
    lane stays bit-identical to the scalar kernel, failure strings
    included.  (SweepConfig refuses sub-1 factors, so the boundary grid
    drives ``simulate_lanes`` directly.)
    """
    trees = fuzz_trees(seed)
    kernel_cls = LANE_KERNELS[kernel_name]
    config = SweepConfig(min_completion_fraction=0.0, validate=False)
    lanes_mod.collapse_rule_counts.clear()
    for index, tree in enumerate(trees):
        context = prepare_instance(tree, index, config)
        grid = [
            (p, factor * context.minimum_memory)
            for factor in (0.2, 0.4, 0.7, 0.9, 1.0, 1.3)
            for p in (2, 4, 8, 16)
        ]
        outcomes = simulate_lanes(
            kernel_cls, tree, context.ao, context.eo, context.workspace, grid, native=False
        )
        for (p, limit), (result, _) in zip(grid, outcomes):
            scalar = SCHEDULER_FACTORIES[kernel_name]().schedule(
                tree, p, limit, ao=context.ao, eo=context.eo, workspace=context.workspace
            )
            assert result.completed == scalar.completed
            assert result.failure_reason == scalar.failure_reason
            np.testing.assert_array_equal(result.start_times, scalar.start_times)
            np.testing.assert_array_equal(result.finish_times, scalar.finish_times)
            np.testing.assert_array_equal(result.processor, scalar.processor)
    assert lanes_mod.collapse_rule_counts["blocked-replay"] > 0, (
        "the sub-feasible grid should resolve lanes through blocked-replay"
    )


@pytest.mark.parametrize("kernel_name", sorted(LANE_KERNELS))
def test_lane_results_match_scalar_schedules_exactly(kernel_name, rng):
    """simulate_lanes reproduces full ScheduleResults, not just records.

    Start/finish times, processor assignment, event counts, failure strings
    and the booked-memory extras must all be bit-identical to running the
    scalar scheduler once per lane.
    """
    tree = synthetic_tree(SyntheticTreeConfig(num_nodes=150), rng=rng)
    config = SweepConfig()
    context = prepare_instance(tree, 0, config)
    kernel_cls = LANE_KERNELS[kernel_name]
    lanes = [
        (p, factor * context.minimum_memory)
        for p in (1, 2, 7, 32)
        for factor in (1.0, 1.4, 3.0, 25.0)
    ]
    outcomes = simulate_lanes(
        kernel_cls, tree, context.ao, context.eo, context.workspace, lanes, native=False
    )
    assert len(outcomes) == len(lanes)
    assert any(back for _, back in outcomes), "grid chosen to exercise lane collapse"
    for lane, (result, back) in enumerate(outcomes):
        # A clone points back at a representative that shares its schedule.
        assert 0 <= back <= lane
        if back:
            donor, donor_back = outcomes[lane - back]
            assert donor_back == 0
            assert donor.start_times is result.start_times
    for (p, limit), (result, back) in zip(lanes, outcomes):
        scalar = SCHEDULER_FACTORIES[kernel_name]().schedule(
            tree, p, limit, ao=context.ao, eo=context.eo, workspace=context.workspace
        )
        assert result.scheduler == scalar.scheduler
        assert result.completed == scalar.completed
        assert result.failure_reason == scalar.failure_reason
        assert result.num_events == scalar.num_events
        assert result.makespan == scalar.makespan or (
            math.isinf(result.makespan) and math.isinf(scalar.makespan)
        )
        np.testing.assert_array_equal(result.start_times, scalar.start_times)
        np.testing.assert_array_equal(result.finish_times, scalar.finish_times)
        np.testing.assert_array_equal(result.processor, scalar.processor)
        # Lanes leave the peak to the record's schedule check.
        assert math.isnan(result.peak_memory)
        assert resident_peak(tree, result) == scalar.peak_memory
        if not back:
            # Clones share their donor's booked-memory *diagnostics* (a
            # starvation clone's real booking trajectory differs even though
            # its schedule — and therefore every record field — does not).
            assert (
                result.extras["peak_booked_memory"]
                == scalar.extras["peak_booked_memory"]
            )


@pytest.mark.skipif(_find_compiler() is None, reason="no C compiler on this machine")
@pytest.mark.parametrize("seed", [11, 4242])
@pytest.mark.parametrize("kernel_name", sorted(LANE_KERNELS))
def test_python_lane_matches_native_lane(kernel_name, seed):
    """One Python lane and one C lane return the same outcome, field by field.

    The collapse rounds decide on the diagnostics as much as on the
    schedule, so every field is compared — on sub-feasible budgets (t=0
    failures, deadlocks) as well as generous ones.
    """
    kernels = native_mod.native_kernels(True)
    kernel_cls = LANE_KERNELS[kernel_name]
    config = SweepConfig(min_completion_fraction=0.0, validate=False)
    for index, tree in enumerate(fuzz_trees(seed)):
        context = prepare_instance(tree, index, config)
        workspace = context.workspace
        template = kernel_cls.template(workspace)
        starve_init = tree.n + 16 + 1
        for p in (1, 2, 5, 16):
            for factor in (0.4, 0.9, 1.0, 1.3, 3.0, 20.0):
                limit = factor * context.minimum_memory
                python = simulate_kernel(kernel_cls(workspace, limit, template), p, starve_init)
                native = native_mod.simulate(
                    kernels,
                    kernel_cls.native_kernel,
                    workspace.native_planes(),
                    p,
                    limit,
                    starve_init=starve_init,
                )
                for name in ("start", "finish", "processor"):
                    np.testing.assert_array_equal(
                        getattr(python, name), getattr(native, name), err_msg=name
                    )
                    assert getattr(python, name).dtype == getattr(native, name).dtype
                for name in (
                    "clock",
                    "finished",
                    "num_events",
                    "failure",
                    "extras",
                    "peak_running",
                    "blocked",
                    "memory_bound",
                    "starve_min",
                    "bound_need",
                ):
                    assert getattr(python, name) == getattr(native, name), (name, p, factor)


@pytest.mark.parametrize(
    "native",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                _find_compiler() is None, reason="no C compiler on this machine"
            ),
        ),
    ],
)
def test_batched_backend_honours_timing_repetitions(native, monkeypatch):
    """Every simulated lane repeats its one call ``timing_repetitions`` times.

    Each repetition runs on fresh state (a new kernel, or a new C call),
    and the records stay byte-identical to the serial backend's.
    """
    trees = fuzz_trees(7)
    config = SweepConfig(
        schedulers=("Activation", "MemBooking"),
        memory_factors=(1.0, 1.5, 6.0),
        processors=(2, 8, 32),
        min_completion_fraction=0.0,
        validate=False,
        native=native,
        timing_repetitions=3,
    )
    serial = run_sweep(trees, config, backend=SerialBackend())

    calls: list[int] = []
    owner, attr = (native_mod, "simulate") if native else (lanes_mod, "simulate_kernel")
    simulate = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    simulated: list[int] = []
    simulate_lanes_call = backend_mod.simulate_lanes

    def counting_lanes(*args, **kwargs):
        outcomes = simulate_lanes_call(*args, **kwargs)
        # One representative (back == 0) per simulated lane.
        simulated.extend(1 for _, back in outcomes if not back)
        return outcomes

    monkeypatch.setattr(backend_mod, "simulate_lanes", counting_lanes)
    batched = run_sweep(trees, config, backend=BatchedBackend())
    assert record_bytes(batched) == record_bytes(serial)
    assert simulated, "the grid must simulate lanes"
    assert len(calls) == 3 * len(simulated)
