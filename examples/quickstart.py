#!/usr/bin/env python3
"""Quickstart: schedule a small task tree under a memory bound.

This example builds a tiny task tree by hand, computes the memory-minimising
postorder, and compares the paper's three heuristics (Activation,
MemBookingRedTree, MemBooking) on 4 processors with a memory bound equal to
1.5x the minimum sequential memory.

Run with::

    python examples/quickstart.py

Hacking on the schedulers themselves?  The hot kernels are held to a
restricted, compilable subset of Python by the static contract analyzer —
run ``memtree lint`` (or ``python -m repro.analysis``) before sending a
change, and see CONTRIBUTING.md for what the subset allows and why.
"""

from __future__ import annotations

from repro import (
    ActivationScheduler,
    MemBookingRedTreeScheduler,
    MemBookingScheduler,
    TaskTree,
    combined_lower_bound,
    minimum_memory_postorder,
    sequential_peak_memory,
    validate_schedule,
)


def build_tree() -> TaskTree:
    """A small elimination-tree-like instance.

    Two branches of heavy leaves feed intermediate reductions which meet at
    the root; every task also needs some temporary (execution) data.
    """
    #          10 (root)
    #         /  \
    #        8    9
    #       / \  / \
    #      0..3  4..7   (leaves)
    parent = [8, 8, 8, 8, 9, 9, 9, 9, 10, 10, -1]
    fout = [6, 6, 6, 6, 5, 5, 5, 5, 4, 4, 2]  # output data (e.g. MB)
    nexec = [2, 2, 2, 2, 2, 2, 2, 2, 8, 8, 10]  # temporary data while running
    ptime = [3, 3, 3, 3, 2, 2, 2, 2, 5, 5, 4]  # processing times (e.g. s)
    return TaskTree(parent, fout=fout, nexec=nexec, ptime=ptime)


def main() -> None:
    tree = build_tree()
    num_processors = 4

    # The activation order: Liu's memory-minimising postorder.  Its peak is
    # the smallest memory in which the tree can be processed sequentially
    # with a postorder traversal — the natural unit for memory bounds.
    order = minimum_memory_postorder(tree)
    minimum_memory = sequential_peak_memory(tree, order)
    memory_limit = 1.5 * minimum_memory
    print(f"tree with {tree.n} tasks, total work {tree.total_work:.0f}")
    print(f"minimum sequential memory (memPO peak): {minimum_memory:.0f}")
    print(f"memory bound used here               : {memory_limit:.0f}")
    print(f"makespan lower bound                 : "
          f"{combined_lower_bound(tree, num_processors, memory_limit):.2f}")
    print()

    schedulers = [ActivationScheduler(), MemBookingRedTreeScheduler(), MemBookingScheduler()]
    print(f"{'heuristic':<20} {'makespan':>9} {'peak mem':>9} {'mem used':>9}")
    for scheduler in schedulers:
        result = scheduler.schedule(tree, num_processors, memory_limit, ao=order, eo=order)
        if not result.completed:
            print(f"{scheduler.name:<20} {'FAILED':>9}  ({result.failure_reason})")
            continue
        # Every produced schedule can be checked against the model.
        validate_schedule(tree, result).raise_if_invalid()
        print(
            f"{scheduler.name:<20} {result.makespan:>9.2f} {result.peak_memory:>9.0f} "
            f"{result.peak_memory / memory_limit:>8.0%}"
        )

    print()
    print("MemBooking reuses the memory freed by finished descendants, so it can")
    print("activate both branches at once where Activation books too much and")
    print("serialises them.")
    print()
    print("To compare the heuristics over a whole dataset, use the sweep engine:")
    print("  from repro.experiments import run_sweep")
    print("  records = run_sweep(trees, jobs=4)   # fan out over 4 processes")
    print("(or `memtree schedule trees/ --jobs 4` / `memtree figure fig2 --jobs 4`).")
    print("Per-tree orders and minimum memory are computed once and shared by every")
    print("run on the tree, and the records are identical for any worker count.")
    print()
    print("Execution backends (records are byte-identical whichever you pick):")
    print("  backend          when to use")
    print("  -------------    ------------------------------------------------")
    print("  auto (default)   serial for --jobs 1, per-tree workers otherwise")
    print("  serial           debugging / the canonical reference order")
    print("  process          many similar trees, a few worker processes")
    print("  shared-memory    few (or huge) trees that must saturate many")
    print("                   workers: the dataset ships once as a zero-copy")
    print("                   TreeStore arena, work items are ~45-byte tuples")
    print("  batched          big per-tree (p x memory-factor) grids on one")
    print("                   core: all instances of a tree run through one")
    print("                   lane engine that detects provably identical")
    print("                   lanes (saturated p-axis, generous factor tail)")
    print("                   and simulates each distinct schedule once")
    print("  records = run_sweep(trees, jobs=4, backend='shared-memory')")
    print("  records = run_sweep(trees, backend='batched')")
    print("(or `memtree figure fig2 --backend batched`).")
    print()
    print("run_sweep returns a columnar RecordTable (one typed NumPy column per")
    print("record field; iterate it for plain dicts, `table.column(name)` for")
    print("vectorised post-processing, `table.save/load` for an mmap-able file).")
    print("Figures and the suite accept a persistent result cache built on it:")
    print("  python -m repro.experiments.suite --scale tiny   # second run: cache hits")
    print("  memtree figure fig2 --cache-dir results-cache/")
    print()
    print("Generated datasets are cached the same way: the suite keeps a workload")
    print("cache of packed TreeStore arenas under <out>/.workload-cache, keyed by")
    print("(dataset, scale, seed, generator version), and mmap-loads them on later")
    print("figures instead of regenerating (--no-workload-cache disables it;")
    print("`memtree figure fig2 --workload-cache-dir trees-cache/` on the CLI).")
    print()
    print("If a C compiler is available, the hot event loops run through compiled")
    print("kernels (built once into ~/.cache/memtree-native, byte-identical")
    print("records): this happens automatically, `memtree figure fig15 --native`")
    print("makes it mandatory (error instead of silent Python fallback) and")
    print("`--no-native` / REPRO_NATIVE=0 force the pure-Python kernels.")


if __name__ == "__main__":
    main()
