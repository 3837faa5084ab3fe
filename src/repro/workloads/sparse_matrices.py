"""Synthetic sparse symmetric matrices for the assembly-tree surrogate.

The paper's first data set consists of assembly (elimination) trees of 608
sparse matrices from the University of Florida collection.  That collection
cannot be downloaded in this offline reproduction, so we generate sparse
symmetric positive-definite-like matrices whose elimination trees exhibit the
same variety of shapes:

* :func:`grid_laplacian_2d` / :func:`grid_laplacian_3d` — finite-difference
  Laplacians on regular meshes, the canonical PDE matrices; combined with a
  nested-dissection permutation they give broad, balanced elimination trees,
  and with the natural (band) ordering they give deep, thin ones;
* :func:`random_symmetric_pattern` — random sparsity, producing very
  irregular trees;
* :func:`banded_matrix` — narrow band matrices whose elimination trees are
  (close to) chains, the deep/thin extreme observed in the real collection.

Grid matrices use the explicit vertex numbering ``index = x * ny + y``
(2-D) and ``index = (x * ny + y) * nz + z`` (3-D) so that the geometric
nested-dissection permutations of :mod:`repro.workloads.elimination` can be
applied consistently.

Only the sparsity *pattern* matters for the symbolic analysis; numerical
values are set to make the matrices diagonally dominant so they are also
usable in numerical examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._utils import as_rng

if TYPE_CHECKING:
    # Imported at run time only by the builders below, so ``import repro``
    # stays free of scipy: only assembly-tree generation needs it.
    import scipy.sparse as sp

__all__ = [
    "grid_laplacian_2d",
    "grid_laplacian_3d",
    "random_symmetric_pattern",
    "banded_matrix",
]


def grid_laplacian_2d(nx: int, ny: int | None = None) -> sp.csc_matrix:
    """5-point Laplacian on an ``nx x ny`` grid, vertex ``(x, y)`` -> ``x*ny + y``."""
    if ny is None:
        ny = nx
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []

    def index(x: int, y: int) -> int:
        return x * ny + y

    for x in range(nx):
        for y in range(ny):
            i = index(x, y)
            rows.append(i)
            cols.append(i)
            data.append(4.0)
            for dx, dy in ((1, 0), (0, 1)):
                xx, yy = x + dx, y + dy
                if xx < nx and yy < ny:
                    j = index(xx, yy)
                    rows.extend((i, j))
                    cols.extend((j, i))
                    data.extend((-1.0, -1.0))
    n = nx * ny
    import scipy.sparse as sp

    return sp.csc_matrix(sp.coo_matrix((data, (rows, cols)), shape=(n, n)))


def grid_laplacian_3d(nx: int, ny: int | None = None, nz: int | None = None) -> sp.csc_matrix:
    """7-point Laplacian on ``nx x ny x nz``, vertex ``(x,y,z)`` -> ``(x*ny + y)*nz + z``."""
    if ny is None:
        ny = nx
    if nz is None:
        nz = nx
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dimensions must be positive")
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []

    def index(x: int, y: int, z: int) -> int:
        return (x * ny + y) * nz + z

    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                i = index(x, y, z)
                rows.append(i)
                cols.append(i)
                data.append(6.0)
                for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    xx, yy, zz = x + dx, y + dy, z + dz
                    if xx < nx and yy < ny and zz < nz:
                        j = index(xx, yy, zz)
                        rows.extend((i, j))
                        cols.extend((j, i))
                        data.extend((-1.0, -1.0))
    n = nx * ny * nz
    import scipy.sparse as sp

    return sp.csc_matrix(sp.coo_matrix((data, (rows, cols)), shape=(n, n)))


def random_symmetric_pattern(
    n: int,
    avg_nnz_per_row: float = 4.0,
    rng: np.random.Generator | int | None = None,
    *,
    connected: bool = True,
) -> sp.csc_matrix:
    """Random symmetric sparsity pattern with a dominant diagonal.

    Roughly ``avg_nnz_per_row`` off-diagonal entries per row are placed
    uniformly at random (symmetrised).  With ``connected=True`` (default) a
    Hamiltonian path ``i — i+1`` is added so the elimination tree is a single
    tree rather than a forest.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if avg_nnz_per_row < 0:
        raise ValueError("avg_nnz_per_row must be non-negative")
    generator = as_rng(rng)
    num_entries = int(round(n * avg_nnz_per_row / 2.0))
    rows = generator.integers(0, n, size=num_entries)
    cols = generator.integers(0, n, size=num_entries)
    mask = rows != cols
    rows, cols = list(rows[mask]), list(cols[mask])
    if connected and n > 1:
        rows.extend(range(n - 1))
        cols.extend(range(1, n))
    data = np.full(len(rows), -1.0)
    import scipy.sparse as sp

    off = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    sym = off + off.T
    diag = np.asarray(np.abs(sym).sum(axis=1)).ravel() + 1.0
    return sp.csc_matrix(sym + sp.diags(diag))


def banded_matrix(n: int, bandwidth: int = 2) -> sp.csc_matrix:
    """Symmetric banded matrix; its elimination tree is (close to) a chain."""
    if n < 1:
        raise ValueError("n must be positive")
    if bandwidth < 1:
        raise ValueError("bandwidth must be at least 1")
    offsets = list(range(-bandwidth, bandwidth + 1))
    diagonals = []
    for offset in offsets:
        size = n - abs(offset)
        if size <= 0:
            continue
        diagonals.append(np.full(size, 2.0 * bandwidth + 1.0 if offset == 0 else -1.0))
    usable_offsets = [o for o in offsets if n - abs(o) > 0]
    import scipy.sparse as sp

    return sp.csc_matrix(sp.diags(diagonals, usable_offsets, shape=(n, n)))
