"""Tests of the top-level package surface (imports, __all__, version)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing attribute {name}"

    def test_subpackages_exposed(self):
        for module in ("core", "orders", "schedulers", "bounds", "workloads", "experiments"):
            assert hasattr(repro, module)

    def test_import_leaves_scipy_unloaded(self):
        """scipy is imported only where assembly trees build sparse matrices."""
        src = Path(repro.__file__).resolve().parents[1]
        probe = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert out.stdout.strip() == "[]"

    def test_docstring_example_runs(self):
        tree = repro.synthetic_tree(num_nodes=200, rng=0)
        order = repro.minimum_memory_postorder(tree)
        memory = 2.0 * repro.sequential_peak_memory(tree, order)
        result = repro.MemBookingScheduler().schedule(tree, num_processors=8, memory_limit=memory)
        assert result.completed

    def test_factories(self):
        tree = repro.synthetic_tree(num_nodes=50, rng=1)
        assert repro.make_order(tree, "CP").n == tree.n
        assert repro.make_scheduler("Activation").name == "Activation"
        with pytest.raises(ValueError):
            repro.make_order(tree, "nope")
        with pytest.raises(ValueError):
            repro.make_scheduler("nope")
