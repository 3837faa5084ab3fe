"""TreeStore arena format v2: workspace plane columns.

Covers the acceptance surface of the plane-column extension: round-trips
through ``save_store`` / ``load_store`` / ``to_shared_memory``, version-1
back-compatibility (plane-less arenas still *write* version-1 bytes and old
files still load), validation of malformed plane specs, and the consumers —
``prepare_instance(planes=...)`` / ``SimWorkspace.from_planes`` and the
shared-memory backend, whose arena always carries the planes.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest

from repro.batch.planes import WORKSPACE_PLANE_NAMES, workspace_planes
from repro.core.tree_io import load_store, save_store
from repro.core.tree_store import TreeStore
from repro.experiments import SweepConfig, run_sweep
from repro.experiments.backends import SerialBackend, SharedMemoryBackend
from repro.experiments.runner import prepare_instance
from repro.workloads.synthetic import SyntheticTreeConfig, synthetic_trees

TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})


@pytest.fixture
def trees():
    return synthetic_trees(3, SyntheticTreeConfig(num_nodes=70), rng=42)


@pytest.fixture
def config():
    return SweepConfig(memory_factors=(1.5, 3.0), processors=(2, 4))


@pytest.fixture
def planes(trees, config):
    return workspace_planes(trees, config)


def _version_of(path) -> int:
    return struct.unpack_from("<8sQ", path.read_bytes())[1]


class TestArenaFormat:
    def test_file_round_trip(self, trees, planes, tmp_path):
        path = save_store(trees, tmp_path / "v2.trees", planes=planes)
        assert _version_of(path) == 2
        store = load_store(path)
        assert store.plane_names == tuple(planes)
        for index in range(len(trees)):
            for name in WORKSPACE_PLANE_NAMES:
                np.testing.assert_array_equal(
                    store.plane(name, index), planes[name][index]
                )
            per_tree = store.planes_for(index)
            assert set(per_tree) == set(planes)
        # Trees themselves are untouched by the extra sections.
        for index, tree in enumerate(trees):
            np.testing.assert_array_equal(store.tree(index).parent, tree.parent)

    def test_planeless_arena_still_writes_version_1(self, trees, tmp_path):
        path = save_store(trees, tmp_path / "v1.trees")
        assert _version_of(path) == 1
        store = load_store(path)
        assert store.plane_names == ()

    def test_version_1_files_still_load(self, trees, planes, tmp_path):
        """A pre-plane-era file must load in full through the new reader."""
        v1 = save_store(trees, tmp_path / "old.trees")
        store = load_store(v1)
        assert len(store) == len(trees)
        with pytest.raises(KeyError, match="no plane"):
            store.plane("ws:scalars", 0)

    def test_shared_memory_round_trip(self, trees, planes):
        shm = TreeStore.pack_to_shared_memory(trees, planes=planes)
        try:
            attached = TreeStore.attach(shm.name)
            try:
                assert attached.plane_names == tuple(planes)
                np.testing.assert_array_equal(
                    attached.plane("ws:ao_sequence", 1), planes["ws:ao_sequence"][1]
                )
            finally:
                attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_plane_validation(self, trees):
        with pytest.raises(ValueError, match="arrays for"):
            TreeStore.pack(trees, planes={"bad": [np.zeros(3)]})
        with pytest.raises(ValueError, match="int64 or float64"):
            TreeStore.pack(
                trees, planes={"bad": [np.zeros(2, dtype=np.int32) for _ in trees]}
            )
        with pytest.raises(ValueError, match="1-D"):
            TreeStore.pack(
                trees, planes={"bad": [np.zeros((2, 2)) for _ in trees]}
            )

    def test_truncated_plane_section_rejected(self, trees, planes, tmp_path):
        path = save_store(trees, tmp_path / "trunc.trees", planes=planes)
        data = path.read_bytes()
        with pytest.raises(ValueError, match="truncated"):
            TreeStore(data[: len(data) - 16])

    def test_plane_index_bounds(self, trees, planes):
        store = TreeStore.pack(trees, planes=planes)
        with pytest.raises(IndexError):
            store.plane("ws:scalars", len(trees))


class TestPlaneConsumers:
    def test_context_from_planes_matches_computed(self, trees, config, planes):
        """A plane-built InstanceContext is indistinguishable from a fresh one."""
        store = TreeStore.pack(trees, planes=planes)
        for index, tree in enumerate(trees):
            computed = prepare_instance(tree, index, config)
            view = store.tree(index)
            adopted = prepare_instance(view, index, config, store.planes_for(index))
            assert adopted.minimum_memory == computed.minimum_memory
            assert adopted.critical_path == computed.critical_path
            assert adopted.memtime_demand == computed.memtime_demand
            assert adopted.height == computed.height
            np.testing.assert_array_equal(adopted.ao.sequence, computed.ao.sequence)
            np.testing.assert_array_equal(adopted.eo.rank, computed.eo.rank)
            assert adopted.eo is adopted.ao  # default config: one shared order
            ws_a, ws_c = adopted.workspace, computed.workspace
            assert ws_a.child_offsets == ws_c.child_offsets
            assert ws_a.child_nodes == ws_c.child_nodes
            assert ws_a.request_ao_list == ws_c.request_ao_list
            assert ws_a.release_list == ws_c.release_list
            assert ws_a.eo_rank_list == ws_c.eo_rank_list
            assert ws_a.matches(view, adopted.ao, adopted.eo)

    def test_shared_memory_backend_records_identical(self, trees, config):
        serial = run_sweep(trees, config, backend=SerialBackend())
        shared = run_sweep(trees, config, backend=SharedMemoryBackend(jobs=2))
        strip = lambda table: [
            pickle.dumps({k: v for k, v in r.items() if k not in TIMING_FIELDS})
            for r in table
        ]
        assert strip(shared) == strip(serial)

    def test_workspace_planes_cover_canonical_names(self, planes, trees):
        assert set(planes) == set(WORKSPACE_PLANE_NAMES)
        for name, arrays in planes.items():
            assert len(arrays) == len(trees), name
