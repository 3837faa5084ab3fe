"""Symbolic sparse factorization: elimination trees, supernodes, assembly trees.

This module is the substrate that turns a sparse symmetric matrix into the
kind of task tree the paper schedules — the *assembly tree* of a multifrontal
factorization:

1. :func:`elimination_tree` computes the elimination tree of the matrix
   (Liu's union-find algorithm with path compression);
2. :func:`column_counts` performs the symbolic factorization needed to know
   the size of every column of the Cholesky factor (row-subtree traversal);
3. :func:`fundamental_supernodes` groups consecutive columns with identical
   structure into supernodes, optionally amalgamating small children into
   their parent (relaxed amalgamation, as done by real multifrontal codes to
   reduce tree overhead);
4. :func:`assembly_tree_from_matrix` assembles the final
   :class:`~repro.core.task_tree.TaskTree`: each supernode becomes a task
   whose *output* is its contribution block (``border**2`` entries), whose
   *execution data* is the rest of its frontal matrix (``front**2 -
   border**2`` entries) and whose *processing time* is the flop count of the
   partial dense factorization of the front.  This is exactly the memory
   model of Section 2 applied to multifrontal fronts.

Fill-reducing orderings matter enormously for the tree shape; geometric
nested dissection permutations for the regular grids of
:mod:`repro.workloads.sparse_matrices` are provided
(:func:`nested_dissection_2d`, :func:`nested_dissection_3d`) so the data sets
contain both broad/balanced and deep/thin trees, like the real collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.task_tree import NO_PARENT, TaskTree

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "elimination_tree",
    "column_counts",
    "Supernode",
    "fundamental_supernodes",
    "assembly_tree_from_matrix",
    "nested_dissection_2d",
    "nested_dissection_3d",
    "front_flops",
]


def _lower_structure(matrix: sp.spmatrix) -> sp.csc_matrix:
    """Strictly lower-triangular pattern of ``matrix`` in CSC form."""
    # scipy is imported where matrices are built, so ``import repro`` stays
    # free of it: only assembly-tree generation needs sparse matrices.
    import scipy.sparse as sp

    csc = sp.csc_matrix(matrix)
    if csc.shape[0] != csc.shape[1]:
        raise ValueError("the matrix must be square")
    return sp.tril(csc, k=-1, format="csc")


def elimination_tree(matrix: sp.spmatrix) -> np.ndarray:
    """Elimination tree of a symmetric matrix (parent array, -1 for roots).

    Liu's algorithm: process the columns in order; for every entry ``(i, j)``
    of the strictly lower triangle (``i > j``), walk the virtual forest from
    ``j`` upwards (with path compression through the ``ancestor`` array) and
    attach the encountered root to ``i``.
    """
    lower = _lower_structure(matrix)
    n = lower.shape[0]
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    ancestor = np.full(n, NO_PARENT, dtype=np.int64)
    # Iterate over rows i of the strict lower triangle: entries (i, j), j < i.
    csr = lower.tocsr()
    for i in range(n):
        for j in csr.indices[csr.indptr[i] : csr.indptr[i + 1]]:
            node = int(j)
            while ancestor[node] != NO_PARENT and ancestor[node] != i:
                next_node = int(ancestor[node])
                ancestor[node] = i
                node = next_node
            if ancestor[node] == NO_PARENT:
                ancestor[node] = i
                parent[node] = i
    return parent


def column_counts(matrix: sp.spmatrix, parent: np.ndarray | None = None) -> np.ndarray:
    """Number of nonzeros of every column of the Cholesky factor (diagonal included).

    Uses the row-subtree characterisation: the nonzero columns of row ``i`` of
    ``L`` are the nodes encountered when walking from every ``j`` with
    ``A[i, j] != 0`` (``j < i``) up the elimination tree until reaching ``i``
    or a node already visited for this row.  Complexity is proportional to
    the total size of the row subtrees, which is the number of nonzeros of
    ``L`` — fine for the moderate matrices used by the experiments.
    """
    lower = _lower_structure(matrix)
    n = lower.shape[0]
    if parent is None:
        parent = elimination_tree(matrix)
    counts = np.ones(n, dtype=np.int64)  # the diagonal entry of every column
    mark = np.full(n, -1, dtype=np.int64)
    csr = lower.tocsr()
    for i in range(n):
        mark[i] = i
        for j in csr.indices[csr.indptr[i] : csr.indptr[i + 1]]:
            node = int(j)
            while node != -1 and mark[node] != i:
                counts[node] += 1
                mark[node] = i
                node = int(parent[node])
    return counts


@dataclass(frozen=True)
class Supernode:
    """A supernode: a set of consecutive elimination-tree columns.

    Attributes
    ----------
    columns:
        Matrix columns amalgamated into this supernode.
    front_size:
        Order of the frontal matrix (number of rows of the first column of
        the supernode in ``L``, possibly enlarged by relaxed amalgamation).
    border_size:
        Rows of the front that remain after eliminating the supernode's
        columns; ``border_size**2`` is the contribution block passed to the
        parent.
    """

    columns: tuple[int, ...]
    front_size: int
    border_size: int

    @property
    def num_columns(self) -> int:
        return len(self.columns)


def fundamental_supernodes(
    parent: np.ndarray,
    counts: np.ndarray,
    *,
    relax_columns: int = 0,
) -> tuple[list[Supernode], np.ndarray]:
    """Group columns into supernodes and build the supernodal tree.

    A column ``j`` is merged with its parent ``p`` when ``j`` is the only
    child of ``p`` and ``count[j] == count[p] + 1`` (identical structure
    below the diagonal) — the classical *fundamental* supernodes.  With
    ``relax_columns > 0``, a child supernode with at most that many columns
    is additionally absorbed into its parent (relaxed amalgamation), which
    produces coarser trees at the price of slightly larger fronts, exactly
    like production multifrontal solvers do.

    Returns ``(supernodes, snode_parent)`` where ``snode_parent`` is the
    parent array of the supernodal tree (one entry per supernode, ``-1`` for
    roots).
    """
    n = parent.size
    num_children = np.zeros(n, dtype=np.int64)
    for j in range(n):
        if parent[j] != NO_PARENT:
            num_children[parent[j]] += 1

    # --- fundamental supernodes -------------------------------------------
    # head[j] is True when column j starts a new supernode.
    head = np.ones(n, dtype=bool)
    for j in range(n):
        p = parent[j]
        if p != NO_PARENT and num_children[p] == 1 and counts[j] == counts[p] + 1:
            head[p] = False  # p continues the supernode started at (or before) j

    # ``only_child[p]``: the unique child of ``p`` when it has exactly one.
    only_child = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        p = parent[j]
        if p != NO_PARENT and num_children[p] == 1:
            only_child[p] = j

    snode_of = np.full(n, -1, dtype=np.int64)
    supernode_columns: list[list[int]] = []
    # Columns are processed in increasing order; within a supernode the
    # columns form a chain in the elimination tree and every elimination-tree
    # parent has a larger index than its children, so when a non-head column
    # is reached its unique child is already assigned.
    for j in range(n):
        if head[j]:
            supernode_columns.append([j])
            snode_of[j] = len(supernode_columns) - 1
        else:
            child = int(only_child[j])
            snode_of[j] = snode_of[child]
            supernode_columns[snode_of[j]].append(j)

    # Parent relation between supernodes.
    num_snodes = len(supernode_columns)
    snode_parent = np.full(num_snodes, NO_PARENT, dtype=np.int64)
    for s, columns in enumerate(supernode_columns):
        top = columns[-1]
        p = parent[top]
        if p != NO_PARENT:
            snode_parent[s] = snode_of[p]

    # --- relaxed amalgamation ----------------------------------------------
    if relax_columns > 0:
        absorbed_into = np.arange(num_snodes, dtype=np.int64)

        def find(s: int) -> int:
            while absorbed_into[s] != s:
                absorbed_into[s] = absorbed_into[absorbed_into[s]]
                s = absorbed_into[s]
            return s

        # Process supernodes bottom-up (children have smaller head columns
        # than their parent, so index order works).
        for s in range(num_snodes):
            p = snode_parent[s]
            if p == NO_PARENT:
                continue
            if len(supernode_columns[s]) <= relax_columns:
                target = find(int(p))
                absorbed_into[find(s)] = target
                supernode_columns[target] = supernode_columns[s] + supernode_columns[target]

        # Rebuild the supernode list and parents after absorption.
        survivors = [s for s in range(num_snodes) if find(s) == s]
        new_index = {s: k for k, s in enumerate(survivors)}
        merged_columns = [sorted(supernode_columns[s]) for s in survivors]
        merged_parent = np.full(len(survivors), NO_PARENT, dtype=np.int64)
        for k, s in enumerate(survivors):
            p = snode_parent[s]
            while p != NO_PARENT and find(int(p)) == find(s):
                p = snode_parent[int(p)]
            if p != NO_PARENT:
                merged_parent[k] = new_index[find(int(p))]
        supernode_columns = merged_columns
        snode_parent = merged_parent
        num_snodes = len(supernode_columns)

    # --- front / border sizes ----------------------------------------------
    supernodes: list[Supernode] = []
    for columns in supernode_columns:
        first = columns[0]
        nc = len(columns)
        front = int(max(counts[first], nc))
        border = front - nc
        supernodes.append(
            Supernode(columns=tuple(columns), front_size=front, border_size=max(border, 0))
        )
    return supernodes, snode_parent


def front_flops(num_columns: int, front_size: int) -> float:
    """Flop count of the partial dense factorisation of a front.

    Eliminating ``nc`` pivots from a dense ``d x d`` front costs
    ``sum_{k=0}^{nc-1} (d - k - 1) * (d - k)`` multiply-add pairs for the
    update plus the pivot column scalings — we use the standard closed form
    ``(2/3) nc^3 + nc^2 b + 2 nc b^2 + lower-order`` with ``b = d - nc``,
    computed exactly by summation to stay simple and monotone.
    """
    d = float(front_size)
    flops = 0.0
    for k in range(num_columns):
        remaining = d - k
        flops += remaining * remaining
    return flops


def assembly_tree_from_matrix(
    matrix: sp.spmatrix,
    *,
    permutation: np.ndarray | None = None,
    relax_columns: int = 0,
    data_unit: float = 8.0,
    time_unit: float = 1e-9,
) -> TaskTree:
    """Build the multifrontal assembly tree of a sparse symmetric matrix.

    Parameters
    ----------
    matrix:
        Sparse symmetric matrix (only the pattern matters).
    permutation:
        Optional fill-reducing permutation (``new_order[k]`` = original index
        of the k-th eliminated variable), e.g. from :func:`nested_dissection_2d`
        or :func:`scipy.sparse.csgraph.reverse_cuthill_mckee`.
    relax_columns:
        Relaxed-amalgamation threshold passed to :func:`fundamental_supernodes`.
    data_unit:
        Bytes per matrix entry (8 for double precision) — scales ``f`` and ``n``.
    time_unit:
        Seconds per flop — scales the processing times.

    Returns
    -------
    TaskTree
        One task per supernode.  If the elimination tree is a forest (the
        matrix is reducible), the extra roots are attached to the supernode
        of the last column so the result is a single tree; this only adds
        precedence constraints, never removes any.
    """
    import scipy.sparse as sp

    csc = sp.csc_matrix(matrix)
    if permutation is not None:
        permutation = np.asarray(permutation, dtype=np.int64)
        if sorted(permutation.tolist()) != list(range(csc.shape[0])):
            raise ValueError("permutation must be a permutation of the matrix indices")
        csc = sp.csc_matrix(csc[permutation, :][:, permutation])

    parent = elimination_tree(csc)
    counts = column_counts(csc, parent)
    supernodes, snode_parent = fundamental_supernodes(
        parent, counts, relax_columns=relax_columns
    )

    # Attach secondary roots (reducible matrices) to the supernode holding the
    # last column, keeping a single tree.
    roots = [s for s, p in enumerate(snode_parent) if p == NO_PARENT]
    if len(roots) > 1:
        last_column_snode = max(roots, key=lambda s: supernodes[s].columns[-1])
        for s in roots:
            if s != last_column_snode:
                snode_parent[s] = last_column_snode

    fout = np.empty(len(supernodes))
    nexec = np.empty(len(supernodes))
    ptime = np.empty(len(supernodes))
    for k, snode in enumerate(supernodes):
        front = snode.front_size
        border = snode.border_size
        fout[k] = data_unit * border * border
        nexec[k] = data_unit * (front * front - border * border)
        ptime[k] = time_unit * front_flops(snode.num_columns, front)
    # Zero-duration supernodes are possible for 1x1 fronts with time_unit
    # rounding; clamp to a small positive time so makespans stay meaningful.
    ptime = np.maximum(ptime, time_unit)
    return TaskTree(snode_parent, fout=fout, nexec=nexec, ptime=ptime, validate=False)


# --------------------------------------------------------------------------- #
# geometric nested dissection for the regular grids of ``sparse_matrices``
# --------------------------------------------------------------------------- #
def nested_dissection_2d(nx: int, ny: int, *, leaf_size: int = 4) -> np.ndarray:
    """Nested-dissection elimination order for an ``nx x ny`` grid.

    Vertices are indexed ``x * ny + y`` (matching
    :func:`repro.workloads.sparse_matrices.grid_laplacian_2d`).  The domain is
    recursively bisected along its longer dimension; separator vertices are
    eliminated last, which yields broad and well-balanced elimination trees.
    """
    order: list[int] = []

    def recurse(x0: int, x1: int, y0: int, y1: int) -> None:
        width, height_ = x1 - x0, y1 - y0
        if width <= 0 or height_ <= 0:
            return
        if width * height_ <= leaf_size:
            for x in range(x0, x1):
                for y in range(y0, y1):
                    order.append(x * ny + y)
            return
        if width >= height_:
            mid = (x0 + x1) // 2
            recurse(x0, mid, y0, y1)
            recurse(mid + 1, x1, y0, y1)
            for y in range(y0, y1):
                order.append(mid * ny + y)
        else:
            mid = (y0 + y1) // 2
            recurse(x0, x1, y0, mid)
            recurse(x0, x1, mid + 1, y1)
            for x in range(x0, x1):
                order.append(x * ny + mid)

    recurse(0, nx, 0, ny)
    return np.asarray(order, dtype=np.int64)


def nested_dissection_3d(nx: int, ny: int, nz: int, *, leaf_size: int = 8) -> np.ndarray:
    """Nested-dissection elimination order for an ``nx x ny x nz`` grid."""
    order: list[int] = []

    def index(x: int, y: int, z: int) -> int:
        return (x * ny + y) * nz + z

    def recurse(x0: int, x1: int, y0: int, y1: int, z0: int, z1: int) -> None:
        dims = (x1 - x0, y1 - y0, z1 - z0)
        if min(dims) <= 0:
            return
        if dims[0] * dims[1] * dims[2] <= leaf_size:
            for x in range(x0, x1):
                for y in range(y0, y1):
                    for z in range(z0, z1):
                        order.append(index(x, y, z))
            return
        axis = int(np.argmax(dims))
        if axis == 0:
            mid = (x0 + x1) // 2
            recurse(x0, mid, y0, y1, z0, z1)
            recurse(mid + 1, x1, y0, y1, z0, z1)
            for y in range(y0, y1):
                for z in range(z0, z1):
                    order.append(index(mid, y, z))
        elif axis == 1:
            mid = (y0 + y1) // 2
            recurse(x0, x1, y0, mid, z0, z1)
            recurse(x0, x1, mid + 1, y1, z0, z1)
            for x in range(x0, x1):
                for z in range(z0, z1):
                    order.append(index(x, mid, z))
        else:
            mid = (z0 + z1) // 2
            recurse(x0, x1, y0, y1, z0, mid)
            recurse(x0, x1, y0, y1, mid + 1, z1)
            for x in range(x0, x1):
                for y in range(y0, y1):
                    order.append(index(x, y, mid))

    recurse(0, nx, 0, ny, 0, nz)
    return np.asarray(order, dtype=np.int64)
