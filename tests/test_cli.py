"""Tests for the ``memtree`` command line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core import load_dataset, save_json
from repro.workloads import synthetic_tree


@pytest.fixture
def tree_file(tmp_path):
    tree = synthetic_tree(num_nodes=80, rng=3)
    path = tmp_path / "tree.json"
    save_json(tree, path)
    return path


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheduler_rejected(self, tree_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", str(tree_file), "--scheduler", "Magic"])


class TestGenerate:
    def test_generate_synthetic(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(
            [
                "generate",
                "synthetic",
                "--out",
                str(out),
                "--scale",
                "tiny",
                "--num-trees",
                "2",
                "--num-nodes",
                "60",
            ]
        )
        assert code == 0
        trees = load_dataset(out)
        assert len(trees) == 2
        assert trees[0].n == 60
        assert "wrote 2 trees" in capsys.readouterr().out

    def test_generate_assembly(self, tmp_path):
        out = tmp_path / "asm"
        code = main(["generate", "assembly", "--out", str(out), "--scale", "tiny"])
        assert code == 0
        assert (out / "index.json").exists()


class TestInfo:
    def test_info_single_file(self, tree_file, capsys):
        assert main(["info", str(tree_file)]) == 0
        out = capsys.readouterr().out
        assert "n=80" in out
        assert "min_memory=" in out

    def test_info_dataset_directory(self, tmp_path, capsys):
        main(["generate", "synthetic", "--out", str(tmp_path / "d"), "--scale", "tiny",
              "--num-trees", "3", "--num-nodes", "40"])
        capsys.readouterr()
        assert main(["info", str(tmp_path / "d")]) == 0
        assert capsys.readouterr().out.count("n=40") == 3


class TestSchedule:
    def test_schedule_success(self, tree_file, capsys):
        code = main(
            [
                "schedule",
                str(tree_file),
                "--scheduler",
                "MemBooking",
                "--processors",
                "4",
                "--memory-factor",
                "2.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "MemBooking" in out

    def test_schedule_failure_exit_code(self, tree_file, capsys):
        # An absurdly small absolute memory bound cannot work.
        code = main(["schedule", str(tree_file), "--memory", "1.0"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_schedule_with_orders(self, tree_file, capsys):
        code = main(
            ["schedule", str(tree_file), "--ao", "memPO", "--eo", "CP", "--scheduler", "Activation"]
        )
        assert code == 0

    def test_memory_oblivious_scheduler_exceeds_the_bound(self, tmp_path, capsys):
        """ListNoMemory ignores the bound by design: report, do not reject."""
        dataset = tmp_path / "trees"
        generate = ["generate", "synthetic", "--num-trees", "2", "--num-nodes", "100"]
        assert main([*generate, "--seed", "9", "--out", str(dataset)]) == 0
        capsys.readouterr()
        args = ["--scheduler", "ListNoMemory", "--memory-factor", "1.5"]
        assert main(["schedule", str(dataset / "tree_00000.json"), *args, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["completed"] is True
        assert record["failure_reason"] is None
        assert record["memory_fraction"] > 1.0
        assert main(["schedule", str(dataset), *args]) == 0
        assert "2 completed, 0 failed" in capsys.readouterr().out


class TestFigure:
    def test_figure_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fig.csv"
        code = main(["figure", "lb_stats", "--scale", "tiny", "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "lb_stats" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])
