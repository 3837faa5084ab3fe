"""One schedule check per distinct simulated schedule.

A sweep record's ``peak_memory`` comes from the check that validates its
schedule (``complete_record``), so the harness drives its schedulers with
``peak_on_run`` off and every distinct schedule is sorted and checked
exactly once: through the C ``memtree_check_schedule`` with the native
plane on, through ``memory_profile`` with it off.  Sequential keeps its
closed-form peak, so only its completed runs are checked (validated).
The counts are pinned on a small fig15-style sweep through the serial and
batched backends and on a daemon ``schedule`` request, and the records
must stay byte-identical to ``run_sweep`` whichever path and kernel plane
produced them; ``run_sweep``'s peaks in turn are those a direct
``schedule()`` call reports.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.batch.backend as batch_backend
import repro.native as native_mod
import repro.schedulers.validation as validation_mod
from repro.batch import BatchedBackend
from repro.core.tree_io import to_dict
from repro.experiments import SweepConfig, run_sweep
from repro.experiments.backends import SerialBackend
from repro.experiments.metrics import safe_ratio
from repro.experiments.runner import prepare_instance
from repro.native.build import _find_compiler
from repro.schedulers import make_scheduler
from repro.service.protocol import decode_payload
from repro.service.server import SchedulerService
from repro.workloads.synthetic import SyntheticTreeConfig, synthetic_tree

from .test_batch_parity import TIMING_FIELDS, record_bytes

NATIVE = [
    False,
    pytest.param(
        True,
        marks=pytest.mark.skipif(
            _find_compiler() is None, reason="no C compiler on this machine"
        ),
    ),
]

#: A fig15-style grid: the three heuristics plus Sequential, a processor
#: sweep and tight to generous memory factors (1.0 makes some runs fail or
#: deadlock; under perfPO it also fails Sequential).
SCHEDULERS = ("Activation", "MemBooking", "MemBookingRedTree", "Sequential")
PROCESSORS = (2, 4, 8, 16, 32)
FACTORS = (1.0, 1.5, 2.0, 10.0)
ORDERS = ("memPO", "perfPO")


def _trees():
    rng = np.random.default_rng(15)
    return [
        synthetic_tree(SyntheticTreeConfig(num_nodes=int(n)), rng=rng)
        for n in rng.integers(60, 160, size=3)
    ]


def _config(native: bool, order: str, **overrides) -> SweepConfig:
    return SweepConfig(
        schedulers=SCHEDULERS,
        processors=PROCESSORS,
        memory_factors=FACTORS,
        min_completion_fraction=0.0,
        native=native,
        activation_order=order,
        execution_order=order,
        **overrides,
    )


@pytest.fixture
def checks(monkeypatch):
    """Count the C checks and the numpy memory profiles."""
    counts = {"native": 0, "numpy": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        native_mod, "check_schedule", counting("native", native_mod.check_schedule)
    )
    monkeypatch.setattr(
        validation_mod,
        "memory_profile",
        counting("numpy", validation_mod.memory_profile),
    )
    return counts


def _fields(record) -> list[tuple[str, str, str]]:
    """Exact field values (``repr`` round-trips floats) minus timing.

    Pickled bytes would also compare string identity, which differs
    between a fresh record and a table row without any value differing.
    """
    return [
        (key, type(value).__name__, repr(value))
        for key, value in record.items()
        if key not in TIMING_FIELDS
    ]


def _expect(counts, native: bool, schedules: int) -> None:
    if native:
        assert counts == {"native": schedules, "numpy": 0}
    else:
        assert counts == {"native": 0, "numpy": schedules}


def _sequential_unchecked(table, validate: bool = True) -> int:
    """Sequential rows that cost no check: its peak is a closed form, so
    only a validated (completed) run touches the checker."""
    return sum(
        1
        for row in table
        if row["scheduler"] == "Sequential" and not (validate and row["completed"])
    )


@pytest.fixture(scope="module", params=ORDERS)
def order(request):
    return request.param


@pytest.fixture(scope="module")
def reference(order):
    """``run_sweep`` records (serial, Python kernels): the byte contract."""
    table = run_sweep(_trees(), _config(False, order), backend=SerialBackend())
    sequential = [row for row in table if row["scheduler"] == "Sequential"]
    if order == "perfPO":
        assert any(not row["completed"] for row in sequential)
    assert any(row["completed"] for row in sequential)
    return table


def test_reference_peaks_are_those_of_direct_schedule_calls(reference, order):
    """A record's peak and memory fraction are the ``peak_memory`` that a
    direct ``schedule()`` call (``peak_on_run`` on) reports, bit for bit:
    Sequential's closed form (``nan`` on failure) included."""
    trees = _trees()
    config = _config(False, order)
    contexts = [prepare_instance(tree, i, config) for i, tree in enumerate(trees)]
    for row in reference:
        context = contexts[row["tree_index"]]
        direct = make_scheduler(row["scheduler"]).schedule(
            context.tree,
            row["num_processors"],
            row["memory_limit"],
            ao=context.ao,
            eo=context.eo,
        )
        assert repr(row["peak_memory"]) == repr(direct.peak_memory)
        assert repr(row["memory_fraction"]) == repr(
            safe_ratio(direct.peak_memory, row["memory_limit"])
        )


@pytest.mark.parametrize("native", NATIVE)
@pytest.mark.parametrize("repetitions", [1, 3])
def test_serial_sweep_checks_each_schedule_once(
    checks, reference, order, native, repetitions
):
    """One check per record, however often the timing figures re-run it."""
    config = _config(native, order, timing_repetitions=repetitions)
    table = run_sweep(_trees(), config, backend=SerialBackend())
    _expect(checks, native, len(table) - _sequential_unchecked(table))
    assert record_bytes(table) == record_bytes(reference)


@pytest.mark.parametrize("native", NATIVE)
@pytest.mark.parametrize("validate", [True, False])
def test_batched_sweep_checks_each_distinct_schedule_once(
    checks, monkeypatch, reference, order, native, validate
):
    """Lane representatives are checked once; their clones not at all."""
    lanes = {"representatives": 0, "clones": 0}
    simulate_lanes = batch_backend.simulate_lanes

    def counting(*args, **kwargs):
        outcomes = simulate_lanes(*args, **kwargs)
        clones = sum(1 for _, back in outcomes if back)
        lanes["clones"] += clones
        lanes["representatives"] += len(outcomes) - clones
        return outcomes

    monkeypatch.setattr(batch_backend, "simulate_lanes", counting)
    config = _config(native, order, validate=validate)
    table = run_sweep(_trees(), config, backend=BatchedBackend())
    assert lanes["clones"] > 0, "the grid should collapse some lanes"
    # MemBookingRedTree and Sequential have no lane kernel: their rows run
    # one by one.
    scalar_rows = sum(
        1 for row in table if row["scheduler"] in ("MemBookingRedTree", "Sequential")
    )
    unchecked = _sequential_unchecked(table, validate)
    _expect(checks, native, lanes["representatives"] + scalar_rows - unchecked)
    assert record_bytes(table) == record_bytes(reference)


@pytest.mark.parametrize("native", NATIVE)
def test_daemon_schedule_request_checks_once(checks, tmp_path, native):
    """A ``schedule`` request checks its one schedule once, and its record
    is the ``run_sweep`` row of the same instance."""
    tree = _trees()[0]
    service = SchedulerService(cache_dir=tmp_path / "cache", native=native)
    requests = [
        (scheduler, processors, factor)
        for scheduler in SCHEDULERS
        for processors, factor in ((2, 1.0), (8, 2.0))
    ]
    for scheduler, processors, factor in requests:
        frames = list(
            service.handle(
                {
                    "kind": "schedule",
                    "tree": to_dict(tree),
                    "scheduler": scheduler,
                    "processors": processors,
                    "memory_factor": factor,
                }
            )
        )
        assert decode_payload(frames[-1][1])["ok"]
    _expect(checks, native, len(requests))

    for scheduler, processors, factor in requests:
        record = service.schedule_record(
            {
                "tree": to_dict(tree),
                "scheduler": scheduler,
                "processors": processors,
                "memory_factor": factor,
            }
        )
        config = SweepConfig(
            schedulers=(scheduler,),
            processors=(processors,),
            memory_factors=(factor,),
            native=False,
        )
        swept = run_sweep([tree], config, backend=SerialBackend())
        assert _fields(record) == _fields(swept[0])
