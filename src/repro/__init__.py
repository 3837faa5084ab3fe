"""memtree — dynamic memory-aware task-tree scheduling.

A faithful, self-contained reproduction of

    Guillaume Aupy, Clément Brasseur, Loris Marchal,
    "Dynamic memory-aware task-tree scheduling",
    INRIA research report RR-8966 (2016) / IPDPS 2017.

The package provides:

* :mod:`repro.core` — the task-tree model (output / execution data,
  processing times, ``MemNeeded``) and structural tooling;
* :mod:`repro.orders` — the traversals used as activation/execution orders
  (memory-minimising postorder, optimal sequential traversal, critical path,
  ...), plus sequential peak/average memory evaluation;
* :mod:`repro.schedulers` — the paper's heuristics (``Activation``,
  ``MemBookingRedTree`` and the contributed ``MemBooking``) on top of an
  event-driven shared-memory simulator, with schedule validation;
* :mod:`repro.bounds` — classical and memory-aware makespan lower bounds;
* :mod:`repro.workloads` — synthetic trees (Section 7.1) and an
  assembly-tree surrogate built by real symbolic sparse factorization;
* :mod:`repro.experiments` — the sweep runner and one entry point per paper
  figure;
* :mod:`repro.analysis` — the static kernel-contract analyzer
  (``memtree lint``): compilable-subset purity of the registered hot
  kernels, plane dtype contracts, and the one-kernel anti-drift rule.

Quick start
-----------
>>> from repro import (MemBookingScheduler, minimum_memory_postorder,
...                    sequential_peak_memory, synthetic_tree)
>>> tree = synthetic_tree(num_nodes=200, rng=0)
>>> order = minimum_memory_postorder(tree)
>>> memory = 2.0 * sequential_peak_memory(tree, order)
>>> result = MemBookingScheduler().schedule(tree, num_processors=8,
...                                         memory_limit=memory)
>>> result.completed
True
"""

from . import analysis, bounds, core, experiments, orders, schedulers, workloads
from .bounds import (
    classical_lower_bound,
    combined_lower_bound,
    lower_bounds,
    memory_lower_bound,
)
from .core import TaskTree, TreeBuilder, tree_stats
from .orders import (
    Ordering,
    critical_path_order,
    make_order,
    minimum_memory_postorder,
    optimal_sequential_order,
    sequential_peak_memory,
)
from .schedulers import (
    ActivationScheduler,
    ListScheduler,
    MemBookingRedTreeScheduler,
    MemBookingScheduler,
    ScheduleResult,
    Scheduler,
    SequentialScheduler,
    make_scheduler,
    validate_schedule,
)
from .workloads import (
    assembly_dataset,
    assembly_tree_from_matrix,
    synthetic_dataset,
    synthetic_tree,
)

__version__: str = "1.0.0"

__all__: list[str] = [
    "analysis",
    "bounds",
    "core",
    "experiments",
    "orders",
    "schedulers",
    "workloads",
    "classical_lower_bound",
    "combined_lower_bound",
    "lower_bounds",
    "memory_lower_bound",
    "TaskTree",
    "TreeBuilder",
    "tree_stats",
    "Ordering",
    "critical_path_order",
    "make_order",
    "minimum_memory_postorder",
    "optimal_sequential_order",
    "sequential_peak_memory",
    "ActivationScheduler",
    "ListScheduler",
    "MemBookingRedTreeScheduler",
    "MemBookingScheduler",
    "ScheduleResult",
    "Scheduler",
    "SequentialScheduler",
    "make_scheduler",
    "validate_schedule",
    "assembly_dataset",
    "assembly_tree_from_matrix",
    "synthetic_dataset",
    "synthetic_tree",
    "__version__",
]
