"""The native kernel plane: build cache, fallback policy, bit-identity.

Three contracts are pinned here:

- **Fallback policy** — in AUTO mode (``REPRO_NATIVE`` unset) a missing
  compiler degrades silently to the pure-Python kernels and the failure is
  remembered for the process; in REQUIRED mode (``REPRO_NATIVE=1``,
  ``--native``, ``SweepConfig.native=True``) the same failure raises
  :class:`~repro.native.NativeUnavailableError` so CI can forbid silent
  fallbacks.
- **Content-addressed cache** — the shared object is keyed by the SHA-256
  of (ABI version, flags, source text): editing the source transparently
  rebuilds under a new name, warm rebuilds are a no-op, and
  ``REPRO_NATIVE_CACHE`` relocates the cache wholesale.
- **Bit-identity** — the compiled steppers reproduce the Python kernels
  byte-for-byte on the randomized fuzz grid of
  :mod:`tests.test_batch_parity`, closing the four-way chain
  native == python == batched-native == frozen reference.
- **Schedule-check parity** — the C ``memtree_check_schedule`` behind
  ``validate_schedule`` and ``resident_peak`` gives the numpy report and
  the numpy peak bit for bit, on valid, corrupted, partial and failed
  schedules, and never accepts a schedule numpy rejects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.native as native_mod
from repro.batch import BatchedBackend
from repro.experiments import SweepConfig, run_sweep
from repro.experiments.backends import SerialBackend
from repro.native import (
    NativeBuildError,
    NativeUnavailableError,
    check_schedule,
    native_kernels,
)
from repro.native.abi import load_kernels
from repro.native.build import (
    ABI_VERSION,
    SOURCE_PATH,
    _find_compiler,
    build_library,
    source_digest,
)
from repro.core.task_tree import TaskTree
from repro.orders import make_order, minimum_memory_postorder, sequential_peak_memory
from repro.schedulers import SCHEDULER_FACTORIES, ActivationScheduler
from repro.schedulers.activation import ActivationKernel
from repro.schedulers.engine import native_twin
from repro.schedulers.base import ScheduleResult
from repro.schedulers.reference import REFERENCE_FACTORIES
from repro.schedulers.validation import memory_profile, resident_peak, validate_schedule

from .strategies import task_trees
from .test_batch_parity import FUZZ_CONFIGS, fuzz_trees, record_bytes

needs_cc = pytest.mark.skipif(
    _find_compiler() is None, reason="no C compiler on this machine"
)


@pytest.fixture
def fresh_native():
    """Isolate the process-wide load state from the surrounding suite."""
    native_mod.reset_native_cache()
    yield
    native_mod.reset_native_cache()


def _broken_build(monkeypatch, calls):
    def failing_build(*args, **kwargs):
        calls.append(1)
        raise NativeBuildError("no C compiler found (tried $CC, cc, gcc, clang)")

    monkeypatch.setattr(native_mod, "build_library", failing_build)


# ---------------------------------------------------------------------------
# Fallback policy
# ---------------------------------------------------------------------------


def test_auto_mode_falls_back_silently_when_build_fails(
    monkeypatch, fresh_native, small_tree
):
    """No compiler + AUTO mode: pure Python, no error, failure cached."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    calls: list[int] = []
    _broken_build(monkeypatch, calls)

    assert native_kernels(None) is None
    assert native_kernels(None) is None
    assert len(calls) == 1, "AUTO mode must remember the failed attempt"

    # The scalar scheduler still runs end to end on the Python kernels and
    # produces the exact same schedule as an explicit native=False run.
    fallback = ActivationScheduler().schedule(small_tree, 2, 60.0)
    off = ActivationScheduler()
    off.native = False
    explicit = off.schedule(small_tree, 2, 60.0)
    assert fallback.completed and explicit.completed
    assert list(fallback.start_times) == list(explicit.start_times)
    assert list(fallback.finish_times) == list(explicit.finish_times)


def test_required_mode_raises_when_build_fails(monkeypatch, fresh_native, small_tree):
    """REQUIRED mode turns the same failure into NativeUnavailableError."""
    _broken_build(monkeypatch, [])

    with pytest.raises(NativeUnavailableError, match="no C compiler"):
        native_kernels(True)

    monkeypatch.setenv("REPRO_NATIVE", "1")
    with pytest.raises(NativeUnavailableError):
        native_kernels(None)

    # The per-scheduler override propagates the error out of schedule().
    required = ActivationScheduler()
    required.native = True
    with pytest.raises(NativeUnavailableError):
        required.schedule(small_tree, 2, 60.0)


def test_subclass_hook_override_opts_out_of_native(fresh_native, small_tree, monkeypatch):
    """A scheduler whose kernel subclasses a C-mirrored kernel never takes C.

    The compiled stepper cannot call back into Python per event, so a
    kernel with changed transitions (instrumentation, extra bookkeeping,
    deliberate test faults) must run through the Python event loop — even
    when native was explicitly requested.
    """
    calls: list[tuple[int, ...]] = []

    class CountingKernel(ActivationKernel):
        def bind(self):
            activate, on_started, on_finished = super().bind()

            def counting(nodes):
                calls.append(tuple(nodes))
                on_finished(nodes)

            return activate, on_started, counting

    class CountingScheduler(ActivationScheduler):
        kernel = CountingKernel

    def no_native(*args, **kwargs):
        raise AssertionError("a kernel subclass must not reach the C stepper")

    monkeypatch.setattr(native_mod, "simulate", no_native)
    scheduler = CountingScheduler()
    scheduler.native = True
    result = scheduler.schedule(small_tree, 2, 60.0)
    assert result.completed
    assert calls, "the overridden transition must still observe every completion"


def test_native_twin_of_stock_kernels():
    """C eligibility of the stock classes: the kernel class declares its twin."""
    twins = {
        name: native_twin(factory.kernel)
        for name, factory in SCHEDULER_FACTORIES.items()
        if hasattr(factory, "kernel")
    }
    assert twins == {
        "Activation": "activation",
        "MemBooking": "membooking",
        "MemBookingRedTree": "activation",  # inherits Activation's kernel
        "MemBookingReference": None,  # the oracle stays pure Python
        "ListNoMemory": None,
    }


def test_env_zero_disables_native_entirely(monkeypatch, fresh_native):
    """REPRO_NATIVE=0 never builds or loads, even with a working toolchain."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    calls: list[int] = []
    _broken_build(monkeypatch, calls)
    assert native_kernels(None) is None
    assert native_kernels(False) is None
    assert calls == [], "OFF mode must not attempt a build"


# ---------------------------------------------------------------------------
# Content-addressed build cache
# ---------------------------------------------------------------------------


@needs_cc
def test_source_edit_rebuilds_under_new_name(tmp_path):
    """Stale shared objects can never be loaded: the name is the content."""
    source = SOURCE_PATH.read_text(encoding="utf-8")

    first = build_library(source, cache_dir=tmp_path)
    assert first.parent == tmp_path and first.exists()
    stamp = first.stat().st_mtime_ns

    # Warm rebuild: same digest, same file, no recompilation.
    assert build_library(source, cache_dir=tmp_path) == first
    assert first.stat().st_mtime_ns == stamp

    # An edited source (here: one appended comment) gets a new digest and
    # therefore a fresh shared object beside the old one.
    edited = source + "\n/* cache-busting tweak */\n"
    assert source_digest(edited) != source_digest(source)
    second = build_library(edited, cache_dir=tmp_path)
    assert second != first and second.exists() and first.exists()

    # The rebuilt library is genuinely loadable and reports the ABI version.
    kernels = load_kernels(second)
    assert kernels.path == second


@needs_cc
def test_cache_env_override_relocates_cache(tmp_path, monkeypatch, fresh_native):
    """REPRO_NATIVE_CACHE points the whole build cache somewhere else."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    kernels = native_kernels(True)
    assert kernels is not None
    assert kernels.path.parent == tmp_path


def test_broken_source_raises_build_error(tmp_path):
    """A compiler error surfaces as NativeBuildError with the stderr."""
    if _find_compiler() is None:
        pytest.skip("no C compiler on this machine")
    with pytest.raises(NativeBuildError, match="build failed"):
        build_library("int64_t broken(void) { return }", cache_dir=tmp_path)


def test_abi_version_is_part_of_the_cache_key(monkeypatch):
    """Bumping ABI_VERSION orphans every cached shared object."""
    import repro.native.build as build_mod

    source = SOURCE_PATH.read_text(encoding="utf-8")
    baseline = source_digest(source)
    assert source_digest(source) == baseline, "digest must be deterministic"
    assert source_digest(source + " ") != baseline
    monkeypatch.setattr(build_mod, "ABI_VERSION", ABI_VERSION + 1)
    assert source_digest(source) != baseline


# ---------------------------------------------------------------------------
# Bit-identity: native == python == frozen reference
# ---------------------------------------------------------------------------


def _require_native():
    try:
        if native_kernels(True) is None:  # pragma: no cover - defensive
            pytest.skip("native kernels unavailable")
    except NativeUnavailableError as exc:  # pragma: no cover - no compiler
        pytest.skip(f"native kernels unavailable: {exc}")


@needs_cc
@pytest.mark.parametrize("config_index", range(len(FUZZ_CONFIGS)))
def test_native_equals_python_equals_reference(config_index, monkeypatch):
    """Randomized four-way parity with exact float comparisons.

    The same sweep runs through (a) the Python kernels, (b) the compiled
    scalar stepper, (c) the compiled batched lane engine, and (d) the
    Python kernels with the frozen reference factories patched in; all
    four must produce literally identical record bytes (timing aside).
    """
    _require_native()
    trees = fuzz_trees(1337)
    config = FUZZ_CONFIGS[config_index]

    python = record_bytes(
        run_sweep(trees, replace(config, native=False), backend=SerialBackend())
    )
    native_serial = record_bytes(
        run_sweep(trees, replace(config, native=True), backend=SerialBackend())
    )
    assert native_serial == python, "compiled scalar stepper diverged from Python"

    native_batched = record_bytes(
        run_sweep(trees, replace(config, native=True), backend=BatchedBackend())
    )
    assert native_batched == python, "compiled lane engine diverged from Python"

    for name, factory in REFERENCE_FACTORIES.items():
        monkeypatch.setitem(SCHEDULER_FACTORIES, name, factory)
    reference = record_bytes(
        run_sweep(trees, replace(config, native=False), backend=SerialBackend())
    )
    assert python == reference, "Python kernels diverged from the reference engine"


@needs_cc
def test_native_covers_failure_paths(monkeypatch):
    """Deadlocks and t=0 failures reproduce verbatim through the C plane."""
    _require_native()
    trees = fuzz_trees(7)
    config = SweepConfig(
        memory_factors=(1.0, 1.05),
        processors=(2, 8),
        min_completion_fraction=0.0,
        validate=False,
    )
    python = run_sweep(trees, replace(config, native=False), backend=SerialBackend())
    native = run_sweep(trees, replace(config, native=True), backend=SerialBackend())
    assert record_bytes(native) == record_bytes(python)
    completed = list(python.column("completed"))
    assert not all(completed), "tight-memory grid produced no failures to compare"
    assert list(native.column("failure_reason")) == list(python.column("failure_reason"))


# ---------------------------------------------------------------------------
# Schedule check: native validate_schedule / resident_peak == numpy
# ---------------------------------------------------------------------------

#: Corruptions applied to real schedules: one per violation kind of
#: ``validate_schedule`` (duration, precedence, processor count, processor
#: overlap, memory), plus the inputs the C check must defer on or decide
#: with care (NaN holes, negative instants, tasks that never ran, tasks
#: without a processor, equal starts on one processor).
CORRUPTIONS = (
    "none",
    "duration",
    "precedence",
    "processors",
    "overlap",
    "memory",
    "nan-hole",
    "negative",
    "never-ran",
    "no-processor",
    "equal-starts",
    "within-tolerance",
)


def _corrupt(tree, result, kind: str, pick: int):
    """A copy of ``result`` with one ``kind`` violation at a ``pick``-chosen task."""
    start = result.start_times.copy()
    finish = result.finish_times.copy()
    proc = result.processor.copy()
    ran = np.flatnonzero(np.isfinite(start))
    if kind == "none" or ran.size == 0:
        return result
    i = int(ran[pick % ran.size])
    j = int(ran[(pick // 7 + 1) % ran.size])
    changes = {}
    if kind == "duration":
        finish[i] += 0.5 * tree.ptime[i] + 0.25
    elif kind == "precedence":
        q = int(tree.parent[i])
        if q >= 0 and np.isfinite(start[q]):
            start[q] = max(0.0, finish[i] - 0.5)
            finish[q] = start[q] + tree.ptime[q]
    elif kind == "processors":
        fewer = max(1, result.num_processors - 1)
        proc[proc >= 0] %= fewer
        changes["num_processors"] = fewer
    elif kind == "overlap":
        proc[j] = proc[i]
        start[j] = start[i] + 0.5 * tree.ptime[i]
        finish[j] = start[j] + tree.ptime[j]
    elif kind == "memory":
        changes["memory_limit"] = 0.9 * memory_profile(tree, result).peak
    elif kind == "nan-hole":
        finish[i] = np.nan
    elif kind == "negative":
        start[i] -= finish[i] + 1.0
        finish[i] = start[i] + tree.ptime[i]
    elif kind == "never-ran":
        start[i] = finish[i] = np.nan
    elif kind == "no-processor":
        proc[i] = -1
    elif kind == "equal-starts":
        proc[j] = proc[i]
        start[j] = start[i]
        finish[j] = start[j] + tree.ptime[j]
    elif kind == "within-tolerance":
        # The next task on i's processor starts just before i finishes:
        # an overlap too small for the overlap check, not for the count.
        later = np.flatnonzero((proc == proc[i]) & (start >= finish[i]))
        if later.size:
            k = int(later[np.argmin(start[later])])
            start[k] = finish[i] - 1e-9
            finish[k] = start[k] + tree.ptime[k]
    return replace(result, start_times=start, finish_times=finish, processor=proc, **changes)


def _handmade(tree, start, processor, num_processors, memory_limit=100.0):
    start = np.asarray(start, dtype=np.float64)
    return ScheduleResult(
        scheduler="handmade",
        tree_size=tree.n,
        num_processors=num_processors,
        memory_limit=memory_limit,
        completed=True,
        makespan=float((start + tree.ptime).max()),
        start_times=start,
        finish_times=start + tree.ptime,
        processor=np.asarray(processor, dtype=np.int64),
        peak_memory=math.nan,
        scheduling_seconds=0.0,
        num_events=tree.n,
    )


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_check_parity(tree, result) -> None:
    """Native and numpy agree on the report and the peak, bit for bit."""
    with warnings.catch_warnings():
        # memory_profile's numpy body warns on an all-NaN horizon; the
        # native path defers such schedules to that same body.
        warnings.simplefilter("ignore", RuntimeWarning)
        reference = validate_schedule(tree, result, native=False)
        report = validate_schedule(tree, result, native=True)
        numpy_peak = memory_profile(tree, result).peak
        native_peak = resident_peak(tree, result, True)
    assert (report.valid, report.errors) == (reference.valid, reference.errors)
    assert _bits(report.peak_memory) == _bits(reference.peak_memory)
    assert _bits(native_peak) == _bits(numpy_peak)
    mask, _ = check_schedule(native_kernels(True), tree, result)
    assert mask != 0 or reference.valid, "C accepted a schedule numpy rejects"


HEURISTICS = ("Activation", "MemBooking", "MemBookingRedTree", "ListNoMemory")


def _schedules(tree, factors, processors, names=HEURISTICS):
    """Each named heuristic's schedule of ``tree`` over a (p, factor) grid."""
    ao = make_order(tree, "memPO")
    eo = make_order(tree, "CP")
    minimum = max(sequential_peak_memory(tree, minimum_memory_postorder(tree)), 1.0)
    for name in names:
        for p in processors:
            for factor in factors:
                scheduler = SCHEDULER_FACTORIES[name]()
                yield scheduler.schedule(tree, p, factor * minimum, ao=ao, eo=eo)


@needs_cc
@given(
    tree=task_trees(max_nodes=30),
    processors=st.integers(1, 6),
    factor=st.sampled_from([1.0, 1.1, 2.0, 10.0]),
    kind=st.sampled_from(CORRUPTIONS),
    pick=st.integers(0, 10_000),
)
def test_schedule_check_parity_on_random_trees(tree, processors, factor, kind, pick):
    """Integer data: simultaneous instants and zero-duration tasks abound."""
    _require_native()
    for result in _schedules(tree, (factor,), (processors,)):
        _assert_check_parity(tree, _corrupt(tree, result, kind, pick))


@needs_cc
@pytest.mark.parametrize("seed", [7, 1337])
def test_schedule_check_parity_on_fuzz_trees(seed):
    """The batch-parity fuzz trees, including deadlocked and t=0 runs."""
    _require_native()
    outcomes = set()
    for tree in fuzz_trees(seed):
        for number, result in enumerate(_schedules(tree, (1.0, 1.05, 2.0, 6.0), (1, 3, 8))):
            outcomes.add(result.completed)
            for kind in CORRUPTIONS:
                _assert_check_parity(tree, _corrupt(tree, result, kind, seed + number))
    assert outcomes == {True, False}, "the grid must cover failed runs too"


@needs_cc
def test_schedule_check_accepts_real_schedules_natively():
    """The fast path is taken: C decides (mask 0) on the memory-aware
    heuristics' schedules (ListNoMemory ignores the bound by design)."""
    _require_native()
    kernels = native_kernels(True)
    for tree in fuzz_trees(3):
        for result in _schedules(tree, (2.0,), (4,), HEURISTICS[:3]):
            mask, peak = check_schedule(kernels, tree, result)
            assert mask == 0
            assert _bits(peak) == _bits(memory_profile(tree, result).peak)


@needs_cc
def test_schedule_check_sums_releases_in_child_order():
    """Two parents finishing at one instant release interleaved children.

    memory_profile adds an instant's releases by ascending child, not
    parent by parent; with these sizes the two orders round differently.
    """
    _require_native()
    fout = [0.5, 0.8, 0.7, 0.9]
    tree = TaskTree([4, 5, 4, 5, 6, 6, -1], fout=fout + [0.2, 0.8, 10.0], nexec=0.0)
    result = _handmade(tree, [0, 0, 0, 0, 1, 1, 2], [0, 1, 2, 3, 0, 1, 0], 4)
    before = (0.5 + 0.8 + 0.7 + 0.9) + (0.2 + 0.8)  # instants 0 and 1
    by_parent = before + (10.0 - fout[0] - fout[2] - fout[1] - fout[3])
    by_child = before + (10.0 - fout[0] - fout[1] - fout[2] - fout[3])
    assert by_parent != by_child
    assert memory_profile(tree, result).peak == by_child
    _assert_check_parity(tree, result)
    mask, peak = check_schedule(native_kernels(True), tree, result)
    assert mask == 0 and _bits(peak) == _bits(by_child)


@needs_cc
def test_schedule_check_counts_overlaps_within_tolerance():
    """Two tasks on one processor overlapping by less than the tolerance
    pass the overlap check, but at p=1 the count check must still fail."""
    _require_native()
    tree = TaskTree([2, 2, -1], fout=1.0, nexec=0.0, ptime=1.0)
    result = _handmade(tree, [0.0, 1.0 - 1e-9, 2.0], [0, 0, 0], 1)
    report = validate_schedule(tree, result, native=False)
    assert report.errors == ("more than p=1 tasks run simultaneously",)
    _assert_check_parity(tree, result)
