"""The vectorised reduction transform equals the per-node loop, bit for bit.

``to_reduction_tree`` and ``extend_order_to_reduction`` run once per
(tree, AO, EO) of every ``MemBookingRedTree`` sweep, so they are
vectorised.  The per-node loops they replaced are kept below as the
oracle: the transformed tree's planes, the fictitious parents, the added
output volume and the extended orders must be bitwise equal on hypothesis
trees and on the float-valued fuzz trees, including trees that need no
fictitious leaf and trees whose only deficits come from execution data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task_tree import TaskTree
from repro.core.tree_transform import ReductionTreeResult, to_reduction_tree
from repro.orders import minimum_memory_postorder
from repro.orders.base import Ordering
from repro.schedulers.membooking_redtree import extend_order_to_reduction

from .helpers import random_tree
from .strategies import task_trees, topological_orders
from .test_batch_parity import fuzz_trees


def loop_reduction_tree(tree: TaskTree) -> ReductionTreeResult:
    """The per-node loop ``to_reduction_tree`` was before vectorisation."""
    n = tree.n
    parent = list(tree.parent.tolist())
    fout = list(tree.fout.tolist())
    nexec = [0.0] * n
    ptime = list(tree.ptime.tolist())
    fict_parent: list[int] = []
    added_output = 0.0
    for node in range(n):
        kids = tree.children(node)
        child_output = float(sum(tree.fout[c] for c in kids))
        deficit = max(float(tree.nexec[node]), float(tree.fout[node]) - child_output)
        if deficit > 0:
            parent.append(node)
            fout.append(deficit)
            nexec.append(0.0)
            ptime.append(0.0)
            fict_parent.append(node)
            added_output += deficit
    reduced = TaskTree(
        np.asarray(parent, dtype=np.int64),
        fout=np.asarray(fout),
        nexec=np.asarray(nexec),
        ptime=np.asarray(ptime),
        validate=False,
    )
    return ReductionTreeResult(
        tree=reduced,
        original_n=n,
        fictitious_parent=tuple(fict_parent),
        added_output=added_output,
    )


def loop_extend_order(reduction: ReductionTreeResult, order: Ordering) -> Ordering:
    """The per-node loop ``extend_order_to_reduction`` was before."""
    fictitious_of: dict[int, list[int]] = {}
    for offset, parent in enumerate(reduction.fictitious_parent):
        fictitious_of.setdefault(parent, []).append(reduction.original_n + offset)
    sequence: list[int] = []
    for node in order.sequence:
        node = int(node)
        sequence.extend(fictitious_of.get(node, ()))
        sequence.append(node)
    return Ordering(np.asarray(sequence, dtype=np.int64), name=order.name + "+red")


def _same_plane(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_parity(tree: TaskTree, orders: list[Ordering]) -> ReductionTreeResult:
    got = to_reduction_tree(tree)
    want = loop_reduction_tree(tree)
    for plane in ("parent", "fout", "nexec", "ptime", "mem_needed"):
        assert _same_plane(getattr(got.tree, plane), getattr(want.tree, plane)), plane
    assert got.original_n == want.original_n
    assert got.fictitious_parent == want.fictitious_parent
    assert all(type(node) is int for node in got.fictitious_parent)
    assert type(got.added_output) is float
    assert got.added_output.hex() == want.added_output.hex()
    for order in orders:
        extended = extend_order_to_reduction(tree, got, order)
        expected = loop_extend_order(want, order)
        assert _same_plane(extended.sequence, expected.sequence)
        assert extended.name == expected.name
    return got


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parity_on_hypothesis_trees(data):
    tree = data.draw(task_trees(max_nodes=40))
    order = data.draw(topological_orders(tree))
    assert_parity(tree, [order, minimum_memory_postorder(tree)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parity_without_fictitious_leaves(data):
    """No execution data and no output: every node already qualifies."""
    tree = data.draw(task_trees(max_nodes=30, max_output=0, max_exec=0))
    order = data.draw(topological_orders(tree))
    reduction = assert_parity(tree, [order])
    assert reduction.num_fictitious == 0
    assert reduction.added_output == 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parity_with_execution_deficits_only(data):
    """Zero outputs: every deficit is a node's execution data."""
    tree = data.draw(task_trees(max_nodes=30, max_output=0, max_exec=6))
    order = data.draw(topological_orders(tree))
    reduction = assert_parity(tree, [order])
    assert reduction.fictitious_parent == tuple(np.flatnonzero(tree.nexec > 0).tolist())


@pytest.mark.parametrize("seed", [3, 7, 1337, 2024])
def test_parity_on_float_fuzz_trees(seed):
    """Float data: child sums and the added volume must round identically."""
    rng = np.random.default_rng(seed)
    trees = fuzz_trees(seed) + [
        random_tree(rng, int(rng.integers(20, 300)), integer_data=False)
        for _ in range(4)
    ]
    for tree in trees:
        assert_parity(tree, [minimum_memory_postorder(tree)])

