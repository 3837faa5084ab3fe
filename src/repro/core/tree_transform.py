"""Structural transformations of task trees.

The most important transformation is :func:`to_reduction_tree`, needed by the
``MemBookingRedTree`` baseline of Section 3.2: the booking strategy of
Eyraud-Dubois et al. only applies to *reduction trees*, i.e. trees where

1. no node has execution data (``n_i = 0``), and
2. every node's output is no larger than the sum of its inputs
   (``f_i <= sum_{j in children(i)} f_j``).

A general tree is turned into a reduction tree by adding *fictitious* leaf
children that carry the missing input volume; fictitious nodes cost zero
processing time, so the transformation does not change the total work nor the
precedence constraints between real tasks — but it does increase the memory
footprint of any traversal, which is exactly the drawback the paper points
out.

The module also provides subtree extraction and relabelling utilities used by
the workload generators and by the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .task_tree import NO_PARENT, TaskTree

__all__ = [
    "ReductionTreeResult",
    "to_reduction_tree",
    "is_reduction_tree",
    "extract_subtree",
    "relabel_by_order",
]


def is_reduction_tree(tree: TaskTree, *, tolerance: float = 1e-9) -> bool:
    """Check the two reduction-tree properties of Section 3.2."""
    if np.any(tree.nexec > tolerance):
        return False
    for node in range(tree.n):
        kids = tree.children(node)
        if not kids:
            continue
        if tree.fout[node] > sum(tree.fout[c] for c in kids) + tolerance:
            return False
    return True


@dataclass(frozen=True)
class ReductionTreeResult:
    """Outcome of :func:`to_reduction_tree`.

    Attributes
    ----------
    tree:
        The transformed reduction tree.  Original nodes keep their indices
        ``0 .. n-1``; fictitious nodes are appended after them.
    original_n:
        Number of nodes of the original tree.
    fictitious_parent:
        For every fictitious node (index ``>= original_n`` in ``tree``), the
        original node it was attached to.
    added_output:
        Total output volume carried by fictitious nodes (the memory overhead
        introduced by the transformation).
    """

    tree: TaskTree
    original_n: int
    fictitious_parent: tuple[int, ...]
    added_output: float

    @property
    def num_fictitious(self) -> int:
        """Number of fictitious leaves added by the transformation."""
        return len(self.fictitious_parent)

    def is_fictitious(self, node: int) -> bool:
        """True when ``node`` (index in the transformed tree) is fictitious."""
        return node >= self.original_n

    def to_original(self, node: int) -> int | None:
        """Map a transformed-tree node back to the original tree (None if fictitious)."""
        return None if node >= self.original_n else node


def to_reduction_tree(tree: TaskTree) -> ReductionTreeResult:
    """Transform a general tree into a reduction tree by adding fictitious leaves.

    For every node ``i`` the transformation guarantees
    ``n'_i = 0`` and ``f_i <= sum of children outputs`` by attaching a single
    fictitious zero-time leaf child whose output size is::

        d_i = max( n_i,  f_i - sum_{j in children(i)} f_j )

    (only when ``d_i > 0``).  The first term folds the execution data into a
    fictitious input so that any schedule of the transformed tree reserves at
    least as much memory as the original task needs while it runs
    (``MemNeeded'_i = sum f_j + d_i + f_i >= MemNeeded_i``); the second term
    is the input volume missing for ``i`` to satisfy the reduction property.
    Nodes that already satisfy both properties are left untouched.

    The fictitious leaves model data that must be loaded before the node can
    execute (in a multifrontal solver: the contribution blocks allocated when
    the front is assembled), which is how reference [7] of the paper applies
    its strategy to general trees.

    The transform is vectorised and bit-identical to a per-node loop:
    :func:`numpy.bincount` adds each node's children outputs in ascending
    child index, the order of the children view, and ``added_output`` is a
    sequential cumulative sum (``ndarray.sum`` sums pairwise and could
    round differently).
    """
    n = tree.n
    parent = tree.parent
    fout = tree.fout
    nonroot = parent != NO_PARENT
    child_output = np.bincount(parent[nonroot], weights=fout[nonroot], minlength=n)
    deficit = np.maximum(tree.nexec, fout - child_output)
    fed = np.flatnonzero(deficit > 0)
    added = deficit[fed]
    k = fed.size

    reduced = TaskTree(
        np.concatenate([parent, fed]),
        fout=np.concatenate([fout, added]),
        nexec=np.zeros(n + k),
        ptime=np.concatenate([tree.ptime, np.zeros(k)]),
        validate=False,
        copy=False,
    )
    return ReductionTreeResult(
        tree=reduced,
        original_n=n,
        fictitious_parent=tuple(fed.tolist()),
        added_output=float(np.cumsum(added)[-1]) if k else 0.0,
    )


def extract_subtree(tree: TaskTree, node: int) -> tuple[TaskTree, np.ndarray]:
    """Return the subtree rooted at ``node`` as a standalone tree.

    Returns ``(subtree, original_indices)`` where ``original_indices[k]`` is
    the index in ``tree`` of node ``k`` of the extracted subtree.
    """
    nodes = tree.subtree(node)
    index = {int(orig): new for new, orig in enumerate(nodes)}
    parent = np.full(nodes.size, NO_PARENT, dtype=np.int64)
    for new, orig in enumerate(nodes):
        p = tree.parent[orig]
        if orig != node and p != NO_PARENT:
            parent[new] = index[int(p)]
    sub = TaskTree(
        parent,
        fout=tree.fout[nodes],
        nexec=tree.nexec[nodes],
        ptime=tree.ptime[nodes],
        validate=False,
    )
    return sub, nodes


def relabel_by_order(tree: TaskTree, order: np.ndarray) -> tuple[TaskTree, np.ndarray]:
    """Relabel the nodes of ``tree`` so that ``order`` becomes ``0, 1, ..., n-1``.

    ``order`` must be a permutation of the node indices.  Returns the
    relabelled tree and the mapping ``new_of_old`` such that node ``i`` of the
    original tree becomes node ``new_of_old[i]``.

    Relabelling by a topological order gives trees where parents always have
    a larger index than their children, a convenient normal form for tests.
    """
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(tree.n)):
        raise ValueError("order must be a permutation of the node indices")
    new_of_old = np.empty(tree.n, dtype=np.int64)
    new_of_old[order] = np.arange(tree.n, dtype=np.int64)

    parent = np.full(tree.n, NO_PARENT, dtype=np.int64)
    fout = np.empty(tree.n)
    nexec = np.empty(tree.n)
    ptime = np.empty(tree.n)
    for old in range(tree.n):
        new = new_of_old[old]
        p = tree.parent[old]
        parent[new] = NO_PARENT if p == NO_PARENT else new_of_old[p]
        fout[new] = tree.fout[old]
        nexec[new] = tree.nexec[old]
        ptime[new] = tree.ptime[old]
    relabelled = TaskTree(parent, fout=fout, nexec=nexec, ptime=ptime, validate=False)
    return relabelled, new_of_old
