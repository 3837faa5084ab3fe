"""Batched lane engine: the instances of one tree, resolved together.

The paper's experiment grids simulate ~60 independent (processors, memory
factor, heuristic) instances of every tree.  This subsystem runs them as
**lanes** of one (tree, AO, EO) over shared static planes: each lane it
cannot prove to replay another is simulated by one call, C or Python, and
the provably identical rest is collapsed onto it
(:mod:`repro.batch.lanes`).  It is exposed as the ``"batched"`` execution
backend (:mod:`repro.batch.backend`) and fed zero-copy static planes
through the :class:`~repro.core.tree_store.TreeStore` arena's workspace
plane columns (:mod:`repro.batch.planes`).
"""

from .backend import BatchedBackend
from .lanes import LANE_KERNELS, simulate_lanes
from .planes import WORKSPACE_PLANE_NAMES, workspace_planes

__all__ = [
    "BatchedBackend",
    "LANE_KERNELS",
    "simulate_lanes",
    "WORKSPACE_PLANE_NAMES",
    "workspace_planes",
]
