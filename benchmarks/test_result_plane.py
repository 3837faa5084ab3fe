"""Columnar result-plane benchmark: value identity and the suite cache.

The columnar pipeline (``run_sweep`` ->
:class:`~repro.experiments.records.RecordTable` -> ``to_dicts``) must
reproduce the plain dict pipeline (a ``run_instance`` loop) exactly, timing
fields aside, on the fig8 (AO/EO-choice, assembly trees) and fig15
(processor sweep, synthetic trees) configurations — across the serial and
shared-memory backends, whose workers write rows straight into a shared
result table.  A second ``run_suite`` at the same scale must be served from
the persistent result cache.
"""

from __future__ import annotations

from repro.experiments import SweepConfig, records_equal, run_sweep
from repro.experiments.backends import SerialBackend, SharedMemoryBackend
from repro.experiments.runner import run_instance
from repro.workloads.datasets import assembly_dataset, synthetic_dataset

TIMING_FIELDS = ("scheduling_seconds", "scheduling_seconds_per_node")

#: fig8's sweep shape: MemBooking under the six AO/EO combinations.
FIG8_COMBOS = (
    ("memPO", "memPO"),
    ("memPO", "CP"),
    ("OptSeq", "CP"),
    ("OptSeq", "OptSeq"),
    ("perfPO", "CP"),
    ("perfPO", "perfPO"),
)
FIG8_FACTORS = (1.5, 2.0, 5.0, 20.0)

#: fig15's sweep shape: three heuristics, five processor counts.
FIG15_SWEEP = SweepConfig(memory_factors=(1.5, 2.0, 5.0, 10.0), processors=(2, 4, 8, 16, 32))

ALL_BACKENDS = (SerialBackend(), SharedMemoryBackend(jobs=2))


def dict_pipeline(trees, config):
    """The list-of-dicts pipeline: run_instance straight to dicts."""
    return [record for index, tree in enumerate(trees) for record in run_instance(tree, index, config)]


def test_fig8_records_value_identical_to_dict_pipeline(bench_scale):
    trees, _ = assembly_dataset(bench_scale, seed=2017)
    for ao_name, eo_name in FIG8_COMBOS:
        config = SweepConfig(
            schedulers=("MemBooking",),
            memory_factors=FIG8_FACTORS,
            activation_order=ao_name,
            execution_order=eo_name,
        )
        reference = dict_pipeline(trees, config)
        for backend in ALL_BACKENDS:
            table = run_sweep(trees, config, backend=backend)
            assert records_equal(table, reference, ignore=TIMING_FIELDS), (
                f"RecordTable records diverged from the dict pipeline on fig8 "
                f"{ao_name}/{eo_name} via {backend.name}"
            )


def test_fig15_records_value_identical_to_dict_pipeline(bench_scale):
    trees, _ = synthetic_dataset(bench_scale, seed=7011)
    reference = dict_pipeline(trees, FIG15_SWEEP)
    for backend in ALL_BACKENDS:
        table = run_sweep(trees, FIG15_SWEEP, backend=backend)
        assert records_equal(table, reference, ignore=TIMING_FIELDS), (
            f"RecordTable records diverged from the dict pipeline on the fig15 "
            f"configuration via {backend.name}"
        )


def test_suite_cache_hit_on_second_run(bench_scale, tmp_path):
    """A second run_suite at the same scale must hit the persistent cache."""
    from repro.experiments.records import ResultCache
    from repro.experiments.suite import run_suite

    cache = ResultCache(tmp_path / "result-cache")
    first = run_suite(["fig12"], scale=bench_scale, cache=cache)
    misses = cache.misses
    assert misses >= 1 and cache.hits == 0
    second = run_suite(["fig12"], scale=bench_scale, cache=cache)
    assert cache.hits == misses and cache.misses == misses
    assert second["fig12"].series == first["fig12"].series
    assert records_equal(second["fig12"].records, first["fig12"].records)
