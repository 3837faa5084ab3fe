"""Unit and integration tests for the fault-tolerant execution plane.

Covers the deterministic :class:`~repro.resilience.faults.FaultPlan`
(grammar, pure firing decision, parent-site counters), the
:class:`~repro.resilience.health.RunHealth` ledger, the retry/quarantine
machinery of :func:`~repro.experiments.runner.resilient_run_single`, the
recovery behaviour of every backend under injected crashes/hangs, the
degradation ladder and the cache-corruption quarantine.  The cross-backend
byte-identity fuzz lives in ``test_fault_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.plan import SweepPlan, execute_plan_cached
from repro.experiments.records import ResultCache, records_equal
from repro.experiments.runner import (
    prepare_instance,
    quarantine_record,
    resilient_run_single,
    run_single,
    run_sweep,
)
from repro.resilience import (
    FAULT_KINDS,
    QUARANTINE_PREFIX,
    FaultPlan,
    RetrySettings,
    current_health,
    instance_fault_key,
    parse_fault_plan,
    reset_fault_state,
    reset_run_health,
    resolve_fault_plan,
)
from repro.workloads import SyntheticTreeConfig, synthetic_trees

TIMING_FIELDS = ("scheduling_seconds", "scheduling_seconds_per_node")


@pytest.fixture(autouse=True)
def _fresh_resilience_state():
    """Each test starts with a clean health ledger and plan cache."""
    reset_run_health()
    reset_fault_state()
    yield
    reset_run_health()
    reset_fault_state()


@pytest.fixture
def trees():
    return synthetic_trees(3, SyntheticTreeConfig(num_nodes=40), rng=11)


SMALL = SweepConfig(schedulers=("Activation",), memory_factors=(2.0,), processors=(4,))


# --------------------------------------------------------------------------- #
# plan grammar
# --------------------------------------------------------------------------- #
class TestParseFaultPlan:
    def test_full_grammar(self):
        plan = parse_fault_plan(
            "seed=7;worker-crash:40;hang:97:2;watchdog=5;backoff=0.05;hang=12;retries=6"
        )
        assert plan.seed == 7
        assert plan.rules["worker-crash"].period == 40
        assert plan.rules["worker-crash"].max_attempt == 1
        assert plan.rules["hang"].period == 97
        assert plan.rules["hang"].max_attempt == 2
        assert plan.watchdog == 5.0
        assert plan.backoff == 0.05
        assert plan.hang_seconds == 12.0
        assert plan.max_attempts == 6

    def test_empty_parts_are_skipped(self):
        plan = parse_fault_plan(";;os-transient:3;;")
        assert set(plan.rules) == {"os-transient"}

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus-kind:2",
            "worker-crash:0",
            "worker-crash:2:0",
            "worker-crash:2:3:4",
            "seed=x",
            "watchdog=0",
            "frequency=2",
            "justaword",
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_fault_plan(bad)

    def test_every_kind_accepted(self):
        spec = ";".join(f"{kind}:3" for kind in sorted(FAULT_KINDS))
        assert set(parse_fault_plan(spec).rules) == FAULT_KINDS

    def test_config_validates_plan_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            SweepConfig(fault_plan="not-a-kind:2")
        assert SweepConfig(fault_plan="worker-crash:5").fault_plan == "worker-crash:5"


class TestFiringDecision:
    def test_pure_and_deterministic(self):
        a = parse_fault_plan("seed=1;os-transient:3")
        b = parse_fault_plan("seed=1;os-transient:3")
        keys = [f"inst:{i}" for i in range(50)]
        fires = [a.should_fire("os-transient", k, 0) for k in keys]
        assert fires == [b.should_fire("os-transient", k, 0) for k in keys]
        # Period 3 hits roughly a third of the keys — and at least one.
        assert 0 < sum(fires) < len(keys)

    def test_seed_changes_selection(self):
        a = parse_fault_plan("seed=1;os-transient:2")
        b = parse_fault_plan("seed=2;os-transient:2")
        keys = [f"inst:{i}" for i in range(64)]
        assert [a.should_fire("os-transient", k, 0) for k in keys] != [
            b.should_fire("os-transient", k, 0) for k in keys
        ]

    def test_max_attempt_bounds_refires(self):
        plan = parse_fault_plan("os-transient:1:2")
        assert plan.should_fire("os-transient", "k", 0)
        assert plan.should_fire("os-transient", "k", 1)
        assert not plan.should_fire("os-transient", "k", 2)

    def test_unarmed_kind_never_fires(self):
        plan = parse_fault_plan("hang:1")
        assert not plan.should_fire("worker-crash", "k", 0)

    def test_parent_site_fire_counts_once(self):
        plan = parse_fault_plan("cache-corrupt:1")
        assert plan.fire("cache-corrupt", "rows-store")
        assert not plan.fire("cache-corrupt", "rows-store")
        assert current_health().injected["cache-corrupt"] == 1

    def test_maybe_raise_records_injection(self):
        plan = parse_fault_plan("shm-lost:1")
        with pytest.raises(OSError, match="injected shm-lost"):
            plan.maybe_raise("shm-lost", "arena")
        assert current_health().injected["shm-lost"] == 1
        # Fire-once: the retry does not re-raise.
        plan.maybe_raise("shm-lost", "arena")

    def test_preview_matches_worker_decision(self):
        plan = parse_fault_plan("worker-crash:1")
        plan.preview(("worker-crash", "hang"), "k", 0)
        assert current_health().injected == {"worker-crash": 1}


class TestResolution:
    def test_none_without_spec_or_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_fault_plan(None) is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang:5")
        reset_fault_state()
        plan = resolve_fault_plan(None)
        assert plan is not None and "hang" in plan.rules

    def test_explicit_spec_wins_and_caches(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang:5")
        plan = resolve_fault_plan("os-transient:2")
        assert set(plan.rules) == {"os-transient"}
        assert resolve_fault_plan("os-transient:2") is plan

    def test_retry_settings_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WATCHDOG", raising=False)
        settings = RetrySettings.from_plan(None)
        assert settings.watchdog == 600.0
        monkeypatch.setenv("REPRO_WATCHDOG", "42")
        assert RetrySettings.from_plan(None).watchdog == 42.0
        plan = parse_fault_plan("watchdog=3;retries=2;backoff=0.5")
        settings = RetrySettings.from_plan(plan)
        assert (settings.watchdog, settings.max_attempts, settings.backoff) == (3.0, 2, 0.5)


# --------------------------------------------------------------------------- #
# health ledger
# --------------------------------------------------------------------------- #
class TestRunHealth:
    def test_reset_returns_fresh_singleton(self):
        old = current_health()
        old.retries = 5
        new = reset_run_health()
        assert new is current_health()
        assert new.retries == 0 and old is not new

    def test_summary_and_json_roundtrip(self):
        import json

        health = current_health()
        health.record_injected("hang")
        health.record_degradation("batched->serial")
        health.retries = 2
        payload = json.loads(health.to_json())
        assert payload["injected"] == {"hang": 1}
        assert payload["degradations"] == {"batched->serial": 1}
        assert payload["retries"] == 2
        assert "1 faults injected" in health.summary()
        assert health.any_activity()
        assert not reset_run_health().any_activity()


# --------------------------------------------------------------------------- #
# instance-level retry and quarantine
# --------------------------------------------------------------------------- #
class TestResilientRunSingle:
    def test_no_plan_matches_run_single(self, trees):
        context = prepare_instance(trees[0], 0, SMALL)
        a = run_single(context, "Activation", 4, 2.0, SMALL)
        b = resilient_run_single(context, "Activation", 4, 2.0, SMALL, None)
        assert records_equal([a], [b], ignore=TIMING_FIELDS)

    def test_transient_fault_retries_to_identical_record(self, trees):
        context = prepare_instance(trees[0], 0, SMALL)
        plan = parse_fault_plan("os-transient:1;backoff=0")
        clean = run_single(context, "Activation", 4, 2.0, SMALL)
        recovered = resilient_run_single(context, "Activation", 4, 2.0, SMALL, plan)
        assert records_equal([clean], [recovered], ignore=TIMING_FIELDS)
        health = current_health()
        assert health.injected["os-transient"] == 1
        assert health.retries == 1
        assert health.quarantined_instances == 0

    def test_exhausted_budget_quarantines(self, trees):
        context = prepare_instance(trees[0], 0, SMALL)
        plan = parse_fault_plan("os-transient:1:99;retries=3;backoff=0")
        record = resilient_run_single(context, "Activation", 4, 2.0, SMALL, plan)
        assert record["completed"] is False
        assert record["failure_reason"].startswith(QUARANTINE_PREFIX)
        assert current_health().quarantined_instances == 1
        # The quarantined record still carries the instance identity.
        assert record["scheduler"] == "Activation"
        assert record["num_processors"] == 4

    def test_quarantine_record_schema(self, trees):
        import math

        context = prepare_instance(trees[0], 0, SMALL)
        clean = run_single(context, "Activation", 4, 2.0, SMALL)
        poisoned = quarantine_record(
            context, "Activation", 4, 2.0, SMALL, f"{QUARANTINE_PREFIX}: test"
        )
        assert set(poisoned) == set(clean)
        assert poisoned["completed"] is False
        assert math.isinf(poisoned["makespan"])
        assert poisoned["failure_reason"] == f"{QUARANTINE_PREFIX}: test"

    def test_instance_fault_key_stable(self):
        assert instance_fault_key(3, "Activation", 8, 2.0) == "inst:3:Activation:8:2.0"


# --------------------------------------------------------------------------- #
# backend recovery (crash, hang, ladder)
# --------------------------------------------------------------------------- #
def _sweep(trees, **overrides):
    return run_sweep(trees, SMALL.with_overrides(**overrides)).to_dicts()


class TestBackendRecovery:
    def test_serial_backend_with_faults_identical(self, trees):
        base = _sweep(trees)
        injected = _sweep(trees, fault_plan="seed=2;os-transient:2;backoff=0")
        assert records_equal(base, injected, ignore=TIMING_FIELDS)

    # "auto" with two workers resolves to the shared-memory pool by name, the
    # path the CLI takes when no --backend is given.
    @pytest.mark.parametrize("backend", ["auto", "shared-memory"])
    def test_worker_crash_recovery(self, trees, backend):
        base = _sweep(trees)
        # seed 2 fires on some (not all) instance keys, so one round always
        # makes progress.
        injected = _sweep(
            trees,
            backend=backend,
            jobs=2,
            fault_plan="seed=2;worker-crash:2;watchdog=5;backoff=0.01",
        )
        assert records_equal(base, injected, ignore=TIMING_FIELDS)
        health = current_health()
        assert health.injected.get("worker-crash", 0) >= 1
        assert health.timeouts >= 1
        assert health.retries >= 1
        assert health.lost_instances == 0

    @pytest.mark.parametrize("backend", ["auto", "shared-memory"])
    def test_hang_watchdog_recovery(self, trees, backend):
        base = _sweep(trees)
        injected = _sweep(
            trees,
            backend=backend,
            jobs=2,
            fault_plan="seed=4;hang:2;hang=60;watchdog=3;backoff=0.01",
            # seed 4 fires on some (not all) instance keys.
        )
        assert records_equal(base, injected, ignore=TIMING_FIELDS)
        health = current_health()
        assert health.injected.get("hang", 0) >= 1
        assert health.timeouts >= 1

    def test_shm_lost_degrades_to_serial(self, trees):
        base = _sweep(trees)
        injected = _sweep(
            trees, backend="shared-memory", jobs=2, fault_plan="seed=1;shm-lost:1"
        )
        assert records_equal(base, injected, ignore=TIMING_FIELDS)
        health = current_health()
        assert health.injected.get("shm-lost", 0) == 1
        assert health.degradations == {"shared-memory->serial": 1}

    def test_lane_engine_fault_degrades_batched_to_serial(self, trees):
        config = SMALL.with_overrides(
            schedulers=("Activation", "MemBooking"), backend="batched"
        )
        base = run_sweep(trees, config).to_dicts()
        injected = run_sweep(
            trees, config.with_overrides(fault_plan="seed=1;lane-engine:1")
        ).to_dicts()
        assert records_equal(base, injected, ignore=TIMING_FIELDS)
        health = current_health()
        assert health.injected.get("lane-engine", 0) >= 1
        assert health.degradations.get("batched->serial", 0) >= 1

    def test_unrecoverable_instance_quarantined_not_fatal(self, trees):
        # A transient fault armed past the retry budget poisons the instance:
        # the sweep still completes, the row lands in the failure plane.
        recs = _sweep(
            trees,
            backend="shared-memory",
            jobs=2,
            fault_plan="seed=1;os-transient:1:99;retries=2;watchdog=10;backoff=0",
        )
        assert all(not r["completed"] for r in recs)
        assert all(str(r["failure_reason"]).startswith(QUARANTINE_PREFIX) for r in recs)
        assert current_health().quarantined_instances == len(recs)

    def test_lost_dispatch_quarantined_parent_side(self, trees):
        # seed 2 crashes the workers of trees 0 and 2 on every attempt, while
        # tree 1 completes: after the retry budget the parent quarantines the
        # two lost instances itself.
        base = _sweep(trees)
        recs = _sweep(
            trees,
            backend="shared-memory",
            jobs=2,
            fault_plan="seed=2;worker-crash:2:99;retries=2;watchdog=2;backoff=0",
        )
        reason = f"{QUARANTINE_PREFIX}: dispatch lost after 2 attempts"
        assert [r["failure_reason"] for r in recs] == [reason, None, reason]
        assert [r["completed"] for r in recs] == [False, True, False]
        assert records_equal([recs[1]], [base[1]], ignore=TIMING_FIELDS)
        health = current_health()
        assert health.quarantined_instances == 2
        assert health.lost_instances == 0


# --------------------------------------------------------------------------- #
# cache interaction
# --------------------------------------------------------------------------- #
class TestCacheInteraction:
    def test_key_ignores_fault_plan(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key(("synthetic", "tiny", 0), SMALL)
        armed = cache.key(
            ("synthetic", "tiny", 0), SMALL.with_overrides(fault_plan="hang:5")
        )
        assert base == armed

    def test_quarantined_rows_never_cached(self, trees, tmp_path):
        cache = ResultCache(tmp_path)
        config = SMALL.with_overrides(
            fault_plan="seed=1;os-transient:1:99;retries=2;backoff=0"
        )
        plan = SweepPlan.from_config(config, len(trees))
        poisoned = execute_plan_cached(trees, plan, cache=cache)
        assert all(
            str(r["failure_reason"]).startswith(QUARANTINE_PREFIX)
            for r in poisoned.to_dicts()
        )
        # A later fault-free run must recompute, not serve poisoned rows.
        reset_fault_state()
        clean_plan = SweepPlan.from_config(SMALL, len(trees))
        clean = execute_plan_cached(trees, clean_plan, cache=cache)
        assert all(r["completed"] for r in clean.to_dicts())

    def test_recoverable_faults_fill_cache_normally(self, trees, tmp_path):
        cache = ResultCache(tmp_path)
        config = SMALL.with_overrides(fault_plan="seed=2;os-transient:2;backoff=0")
        plan = SweepPlan.from_config(config, len(trees))
        first = execute_plan_cached(trees, plan, cache=cache)
        assert cache.rows_fresh == len(plan)
        warm_cache = ResultCache(tmp_path)
        warm = execute_plan_cached(
            trees, SweepPlan.from_config(SMALL, len(trees)), cache=warm_cache
        )
        assert warm_cache.rows_cached == len(plan)
        assert records_equal(first.to_dicts(), warm.to_dicts())

    def test_corrupt_row_store_quarantined_aside(self, trees, tmp_path):
        cache = ResultCache(tmp_path)
        plan = SweepPlan.from_config(SMALL, len(trees))
        execute_plan_cached(trees, plan, cache=cache)
        rows = tmp_path / "rows.records"
        rows.write_bytes(rows.read_bytes()[: rows.stat().st_size // 2])
        fresh = ResultCache(tmp_path)
        assert fresh.get_rows(plan.instance_keys(trees)) == {}
        assert (tmp_path / "rows.records.quarantined").exists()
        assert current_health().cache_quarantines >= 1
        # The next write rebuilds a clean store.
        execute_plan_cached(trees, plan, cache=fresh)
        warm = ResultCache(tmp_path)
        assert len(warm.get_rows(plan.instance_keys(trees))) == len(plan)

    def test_cache_corrupt_injection_torn_store_reads_as_miss(
        self, trees, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1;cache-corrupt:1")
        reset_fault_state()
        cache = ResultCache(tmp_path)
        plan = SweepPlan.from_config(SMALL, len(trees))
        execute_plan_cached(trees, plan, cache=cache)
        assert current_health().injected.get("cache-corrupt", 0) == 1
        # The injected truncation makes the warm read a miss, never a crash.
        warm = ResultCache(tmp_path)
        assert warm.get_rows(plan.instance_keys(trees)) == {}

    def test_corrupt_sweep_blob_quarantined(self, tmp_path, trees):
        cache = ResultCache(tmp_path)
        key = cache.key(("synthetic", "tiny", 0), SMALL)
        table = run_sweep(trees, SMALL)
        cache.put(key, table)
        blob = cache.path(key)
        blob.write_bytes(blob.read_bytes()[:16])
        assert cache.get(key) is None
        assert blob.with_name(blob.name + ".quarantined").exists()


# --------------------------------------------------------------------------- #
# native-build fault
# --------------------------------------------------------------------------- #
class TestNativeBuildFault:
    def test_injected_build_failure(self, tmp_path, monkeypatch):
        from repro.native.build import NativeBuildError, build_library

        monkeypatch.setenv("REPRO_FAULTS", "seed=1;native-build:1")
        reset_fault_state()
        with pytest.raises(NativeBuildError, match="injected native-build"):
            build_library(cache_dir=tmp_path)
        assert current_health().injected.get("native-build", 0) == 1
        # Fire-once: the rebuild after the fault clears succeeds (or fails
        # only for the genuine no-compiler reason, never the injection).
        try:
            build_library(cache_dir=tmp_path)
        except NativeBuildError as exc:
            assert "injected" not in str(exc)

    def test_auto_mode_degrades_to_python(self, tmp_path, monkeypatch):
        from repro.native import native_kernels, reset_native_cache

        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_FAULTS", "seed=1;native-build:1")
        reset_fault_state()
        reset_native_cache()
        try:
            assert native_kernels(None) is None
            assert current_health().degradations.get("native->python", 0) == 1
        finally:
            reset_native_cache()
            reset_fault_state()
