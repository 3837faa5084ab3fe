"""Self-test of the benchmark's independent checks.

Runs a real schedule through the checks (it must pass), then corrupts its
row and its schedule one field at a time (each must fail).  Run with
``python3 perfbench/selftest.py`` or ``python3 -m pytest perfbench/selftest.py``
from the repository root; the repository's own test command does not
collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Checker, TreeFacts, check_row, check_schedule, compare_rows  # noqa: E402


def _instance(num_processors: int = 4, factor: float = 2.0):
    """A completed MemBooking schedule on a small synthetic tree, its row and checker."""
    from repro import MemBookingScheduler, minimum_memory_postorder, synthetic_tree
    from repro.experiments.config import SweepConfig
    from repro.experiments.runner import prepare_instance, run_single

    tree = synthetic_tree(num_nodes=120, rng=3)
    config = SweepConfig(schedulers=("MemBooking",), processors=(num_processors,), native=False)
    context = prepare_instance(tree, 0, config)
    row = run_single(context, "MemBooking", num_processors, factor, config)
    order = minimum_memory_postorder(tree)
    result = MemBookingScheduler().schedule(
        tree, num_processors, row["memory_limit"], ao=order, eo=order
    )
    return tree, row, result, Checker([tree], native=False)


def test_a_correct_row_and_schedule_pass():
    tree, row, result, checker = _instance()
    assert row["completed"]
    assert checker.rows([row]) == []
    assert checker.resimulate(row) == []
    errors, peak = check_schedule(
        checker.facts[0], result.start_times, result.finish_times, result.processor,
        4, row["memory_limit"],
    )
    assert errors == []
    assert np.isclose(peak, row["peak_memory"])


def test_makespan_below_work_over_p_fails():
    tree, row, _, checker = _instance()
    facts = checker.facts[0]
    bad = dict(row, makespan=0.99 * facts.work / row["num_processors"])
    assert any("below max(W/p, CP)" in e for e in check_row(bad, facts, None))


def test_makespan_below_critical_path_or_above_work_fails():
    tree, row, _, checker = _instance()
    facts = checker.facts[0]
    short = dict(row, num_processors=10**6, makespan=0.99 * facts.critical_path)
    assert any("below max(W/p, CP)" in e for e in check_row(short, facts, None))
    long = dict(row, makespan=1.01 * facts.work)
    assert any("above W" in e for e in check_row(long, facts, None))


def test_peak_above_the_limit_fails():
    tree, row, _, checker = _instance()
    bad = dict(row, peak_memory=row["memory_limit"] * 1.001)
    assert any("above the limit" in e for e in checker.rows([bad]))


def test_theorem1_violation_fails():
    tree, row, _, checker = _instance()
    bad = dict(row, completed=False, makespan=float("inf"))
    assert any("Theorem 1" in e for e in checker.rows([bad]))
    # Below the activation order's peak an unfinished schedule is allowed.
    facts = checker.facts[0]
    peak = checker.order_peak(0, "memPO")
    tight = dict(bad, memory_limit=0.5 * peak)
    assert check_row(tight, facts, peak) == []


def test_wrong_minimum_memory_fails():
    tree, row, _, checker = _instance()
    bad = dict(row, minimum_memory=row["minimum_memory"] * 1.01)
    assert any("minimum memory" in e for e in checker.rows([bad]))


def test_a_row_the_simulator_does_not_reproduce_fails():
    tree, row, _, checker = _instance()
    bad = dict(row, makespan=row["makespan"] + 1.0)
    assert any("makespan" in e for e in checker.resimulate(bad))


def test_warm_row_differing_from_cold_fails():
    tree, row, _, _ = _instance()
    timing_only = dict(row, scheduling_seconds=row["scheduling_seconds"] + 1.0)
    assert compare_rows([row], [timing_only], "warm") == []
    changed = dict(row, peak_memory=row["peak_memory"] + 1.0)
    assert compare_rows([row], [changed], "warm") == ["warm: row 0 differs in peak_memory"]
    assert compare_rows([row], [], "warm") == ["warm: 1 rows against 0"]


def test_corrupted_schedules_fail():
    tree, row, result, checker = _instance()
    facts = checker.facts[0]
    start, finish = result.start_times.copy(), result.finish_times.copy()
    proc, limit = result.processor.copy(), row["memory_limit"]

    def errors(s=start, f=finish, pr=proc, p=4, m=limit):
        return check_schedule(facts, s, f, pr, p, m)[0]

    root = int(np.flatnonzero(facts.parent < 0)[0])
    early = start.copy(), finish.copy()
    early[0][root] -= 1.0
    early[1][root] -= 1.0
    assert any("after their parent starts" in e for e in errors(s=early[0], f=early[1]))
    assert any("tasks run at once" in e for e in errors(p=1))
    assert any("outside [0, p)" in e for e in errors(pr=np.full_like(proc, 7)))
    assert any("above the limit" in e for e in errors(m=0.5 * row["peak_memory"]))
    stretched = finish.copy()
    stretched[root] += 1.0
    assert any("processing time" in e for e in errors(f=stretched))


def test_order_walk_rejects_non_topological_orders():
    facts = TreeFacts(np.array([-1, 0, 0]), np.ones(3), np.ones(3), np.zeros(3))
    assert facts.sequential_peak([1, 2, 0]) == 3.0
    for bad in ([0, 1, 2], [1, 1, 0]):
        try:
            facts.sequential_peak(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad} accepted")
    assert (facts.work, facts.critical_path) == (3.0, 2.0)


def test_a_row_the_checks_cannot_read_fails_without_raising():
    tree, row, _, checker = _instance()
    missing = {k: v for k, v in row.items() if k != "makespan"}
    assert any("raised KeyError" in e for e in checker.rows([row, missing]))
    assert any("raised KeyError" in e for e in checker.resimulate(missing))
    assert any("raised" in e for e in compare_rows([row], [None], "warm"))


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok {name}")
    print(f"{len(tests)} checks of the checker passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
