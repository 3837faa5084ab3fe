"""Tests of the declarative sweep-plan layer (``repro.experiments.plan``).

Covers the plan-as-data invariants (enumeration order, subsets, tree/lane
grouping, content-addressed instance keys), instance-level caching
(partial hits, cross-figure dedup, stale-directory migration) and the
``--dry-run`` surfaces built on plan assembly.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.figures import _makespan_checks, _series_value
from repro.experiments.plan import (
    SweepPlan,
    execute_plan,
    execute_plan_cached,
    iter_instances,
    tree_content_sha,
)
from repro.experiments.records import InMemoryRowCache, ResultCache
from repro.experiments.runner import run_sweep
from repro.experiments.suite import run_suite
from repro.workloads import synthetic_trees

CONFIG = SweepConfig(
    schedulers=("Activation", "MemBooking"),
    memory_factors=(1.0, 2.0),
    processors=(4, 8),
)


@pytest.fixture(scope="module")
def trees():
    return synthetic_trees(3, rng=5, num_nodes=40)


class TestPlanGrid:
    def test_enumeration_matches_iter_instances(self):
        plan = SweepPlan.from_config(CONFIG, 3)
        assert list(plan.instances()) == list(iter_instances(CONFIG, 3))
        assert len(plan) == 3 * 2 * 2 * 2
        assert plan.is_full

    def test_columns_are_read_only(self):
        plan = SweepPlan.from_config(CONFIG, 2)
        with pytest.raises(ValueError):
            plan.tree_index[0] = 7

    def test_subset_preserves_rows_and_global_index(self):
        plan = SweepPlan.from_config(CONFIG, 3)
        full = list(plan.instances())
        subset = plan.subset([5, 1, 9, 5])  # unordered, duplicated on purpose
        assert list(subset.global_index) == [1, 5, 9]
        assert list(subset.instances()) == [full[1], full[5], full[9]]
        assert not subset.is_full
        with pytest.raises(IndexError):
            plan.subset([len(plan)])

    def test_tree_groups_partition_the_plan(self):
        plan = SweepPlan.from_config(CONFIG, 3)
        groups = list(plan.tree_groups())
        assert [tree_index for tree_index, _ in groups] == [0, 1, 2]
        covered = [int(row) for _, rows in groups for row in rows]
        assert covered == list(range(len(plan)))

    def test_lane_groups_split_batchable_from_scalar(self):
        plan = SweepPlan.from_config(CONFIG, 1)
        rows = next(iter(plan.tree_groups()))[1]
        lanes, scalar = plan.lane_groups(rows, lambda name: name == "MemBooking")
        assert set(lanes) == {"MemBooking"}
        assert len(lanes["MemBooking"]) + len(scalar) == len(rows)
        assert all(plan.combo(int(r))[0] == "Activation" for r in scalar)


class TestInstanceKeys:
    def test_keys_stable_and_unique(self, trees):
        plan = SweepPlan.from_config(CONFIG, len(trees))
        keys = plan.instance_keys(trees)
        again = SweepPlan.from_config(CONFIG, len(trees)).instance_keys(trees)
        assert keys == again
        assert len(set(keys)) == len(keys)

    def test_keys_track_tree_content_and_config_axes(self, trees):
        plan = SweepPlan.from_config(CONFIG, len(trees))
        keys = set(plan.instance_keys(trees))
        other_trees = synthetic_trees(len(trees), rng=6, num_nodes=40)
        assert keys.isdisjoint(plan.instance_keys(other_trees))
        other_config = SweepConfig(
            schedulers=CONFIG.schedulers,
            memory_factors=CONFIG.memory_factors,
            processors=CONFIG.processors,
            execution_order="CP",
        )
        other_plan = SweepPlan.from_config(other_config, len(trees))
        assert keys.isdisjoint(other_plan.instance_keys(trees))

    def test_keys_ignore_execution_knobs(self, trees):
        noisy = SweepConfig(
            schedulers=CONFIG.schedulers,
            memory_factors=CONFIG.memory_factors,
            processors=CONFIG.processors,
            jobs=4,
            backend="shared-memory",
        )
        assert SweepPlan.from_config(noisy, len(trees)).instance_keys(
            trees
        ) == SweepPlan.from_config(CONFIG, len(trees)).instance_keys(trees)

    def test_tree_sha_tracks_content(self, trees):
        assert tree_content_sha(trees[0]) == tree_content_sha(trees[0])
        assert tree_content_sha(trees[0]) != tree_content_sha(trees[1])


class TestExecutePlan:
    def test_full_plan_matches_run_sweep(self, trees):
        plan = SweepPlan.from_config(CONFIG, len(trees))
        table = execute_plan(trees, plan)
        legacy = run_sweep(trees, CONFIG)
        drop = {"scheduling_seconds", "scheduling_seconds_per_node"}
        strip = lambda r: {k: v for k, v in r.items() if k not in drop}  # noqa: E731
        assert [strip(r) for r in table] == [strip(r) for r in legacy]

    def test_subset_matches_full_rows(self, trees):
        plan = SweepPlan.from_config(CONFIG, len(trees))
        full = execute_plan(trees, plan)
        positions = [0, 3, 7, 10, len(plan) - 1]
        subset = execute_plan(trees, plan.subset(positions))
        drop = {"scheduling_seconds", "scheduling_seconds_per_node"}
        strip = lambda r: {k: v for k, v in r.items() if k not in drop}  # noqa: E731
        for offset, position in enumerate(positions):
            assert strip(subset.row(offset)) == strip(full.row(position))


class TestInstanceCache:
    def test_partial_hits_simulate_only_the_new_slice(self, tmp_path, trees):
        cache = ResultCache(tmp_path / "cache")
        plan = SweepPlan.from_config(CONFIG, len(trees))
        first = execute_plan_cached(trees, plan, cache=cache)
        assert cache.rows_fresh == len(plan)
        assert cache.rows_cached == 0

        wider = SweepConfig(
            schedulers=CONFIG.schedulers,
            memory_factors=(1.0, 2.0, 4.0),  # one new factor slice
            processors=CONFIG.processors,
        )
        wide_plan = SweepPlan.from_config(wider, len(trees))
        second = execute_plan_cached(trees, wide_plan, cache=cache)
        new_rows = len(trees) * len(CONFIG.schedulers) * len(CONFIG.processors)
        assert cache.rows_fresh == len(plan) + new_rows
        assert cache.rows_cached == len(plan)
        # The overlapping rows come back identical, wall-clock timing included.
        by_key = dict(zip(wide_plan.instance_keys(trees), list(second)))
        for key, record in zip(plan.instance_keys(trees), list(first)):
            assert by_key[key] == record

    def test_warm_rows_survive_a_fresh_cache_object(self, tmp_path, trees):
        plan = SweepPlan.from_config(CONFIG, len(trees))
        execute_plan_cached(trees, plan, cache=ResultCache(tmp_path / "cache"))
        reopened = ResultCache(tmp_path / "cache")
        execute_plan_cached(trees, plan, cache=reopened)
        assert reopened.rows_fresh == 0
        assert reopened.rows_cached == len(plan)
        assert reopened.hits == 1 and reopened.misses == 0

    def test_in_memory_row_cache_dedups(self, trees):
        cache = InMemoryRowCache()
        plan = SweepPlan.from_config(CONFIG, len(trees))
        execute_plan_cached(trees, plan, cache=cache)
        execute_plan_cached(trees, plan.subset([0, 1, 2]), cache=cache)
        assert cache.rows_fresh == len(plan)
        assert cache.rows_cached == 3

    def test_suite_dedups_across_figures(self, tmp_path):
        stats: dict = {}
        run_suite(["fig10"], scale="tiny", cache=ResultCache(tmp_path / "c"), stats=stats)
        assert stats["fresh"] > 0
        warm_stats: dict = {}
        run_suite(
            ["fig11", "fig12", "fig13"],
            scale="tiny",
            cache=ResultCache(tmp_path / "c"),
            stats=warm_stats,
        )
        # fig11/fig12/fig13 sweep subsets of fig10's synthetic grid: a warm
        # cache leaves nothing to simulate.
        assert warm_stats["fresh"] == 0
        assert warm_stats["cached"] == warm_stats["unique"]


class TestStaleCacheDirectories:
    def test_pre_refactor_blobs_are_ignored_not_crashed_on(self, tmp_path, trees):
        directory = tmp_path / "cache"
        directory.mkdir()
        # Pre-refactor layout: sweep-level <key>.records blobs, no row store.
        (directory / ("ab" * 20 + ".records")).write_bytes(b"not a record table")
        cache = ResultCache(directory)
        plan = SweepPlan.from_config(CONFIG, len(trees))
        assert cache.get_rows(plan.instance_keys(trees)) == {}
        table = execute_plan_cached(trees, plan, cache=cache)
        assert len(table) == len(plan)
        assert cache.misses == 1 and cache.rows_fresh == len(plan)

    def test_corrupt_row_store_degrades_to_empty(self, tmp_path, trees):
        plan = SweepPlan.from_config(CONFIG, len(trees))
        cache = ResultCache(tmp_path / "cache")
        execute_plan_cached(trees, plan, cache=cache)
        (tmp_path / "cache" / "rows.index.json").write_text("{broken")
        reopened = ResultCache(tmp_path / "cache")
        assert reopened.count_cached(plan.instance_keys(trees)) == 0
        table = execute_plan_cached(trees, plan, cache=reopened)
        assert len(table) == len(plan)

    def test_index_pointing_past_table_is_rejected(self, tmp_path, trees):
        plan = SweepPlan.from_config(CONFIG, len(trees))
        cache = ResultCache(tmp_path / "cache")
        execute_plan_cached(trees, plan, cache=cache)
        index_path = tmp_path / "cache" / "rows.index.json"
        index = json.loads(index_path.read_text())
        index[next(iter(index))] = 10_000
        index_path.write_text(json.dumps(index))
        reopened = ResultCache(tmp_path / "cache")
        assert reopened.get_rows(plan.instance_keys(trees)) == {}

    def test_schema_version_participates_in_sweep_keys(self, monkeypatch, trees):
        from repro.experiments import records as records_module

        cache = ResultCache.__new__(ResultCache)
        cache.directory = None  # key() never touches the directory
        current = cache.key(("synthetic", "tiny", 0), CONFIG)
        monkeypatch.setattr(records_module, "CACHE_SCHEMA_VERSION", 2)
        assert cache.key(("synthetic", "tiny", 0), CONFIG) != current


class TestSeriesValueQuantization:
    def test_series_value_matches_float_noise(self):
        noisy_x = 0.1 + 0.1 + 0.1  # 0.30000000000000004
        series = {"s": [(noisy_x, 5.0)]}
        assert _series_value(series, "s", 0.3) == 5.0
        assert _series_value(series, "s", noisy_x) == 5.0
        assert _series_value(series, "s", 0.31) != _series_value(series, "s", 0.3)

    def test_makespan_minimum_coverage_survives_float_noise(self):
        noisy_x = 0.1 + 0.1 + 0.1
        series = {"MemBooking": [(noisy_x, 1.5), (1.0, 1.2)]}
        checks = _makespan_checks(series, (0.3, 1.0))
        assert checks["membooking_covers_minimum_memory"]


class TestDryRunCli:
    def test_figure_dry_run_prints_plan(self, capsys):
        from repro.cli import main

        assert main(["figure", "fig13", "--scale", "tiny", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "sweep plan (dry run):" in out
        assert "instances:" in out and "lane groups" in out

    def test_suite_dry_run_reports_overlap(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "suite",
                "--scale",
                "tiny",
                "--out",
                str(tmp_path / "out"),
                "--figures",
                "fig10",
                "fig12",
                "--dry-run",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep plan (dry run):" in out
        assert "shared with earlier figures" in out
        # Dry run must not simulate or write anything.
        assert not (tmp_path / "out" / "summary.md").exists()

    def test_suite_writes_plan_stats(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "out"
        code = main(
            ["suite", "--scale", "tiny", "--out", str(out_dir), "--figures", "fig5"]
        )
        assert code == 0
        stats = json.loads((out_dir / "plan-stats.json").read_text())
        assert stats["unique"] == stats["requested"] == stats["fresh"]
        summary = (out_dir / "summary.md").read_text()
        assert "* instances:" in summary and "* fresh simulations:" in summary
