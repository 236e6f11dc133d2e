"""Weighted Louvain community detection (Blondel et al., "Fast unfolding of
communities in large networks", J. Stat. Mech. 2008).

Local-move phases maximizing weighted modularity alternate with graph
coarsening until no further gain.  The node visit order is shuffled by the
seed, and all orderings (visit, accumulation, tie-breaks) derive from stable
per-node keys, so permuting the input rows while keeping keys attached yields
the same partition.

The graph is held in CSR arrays whose nodes are numbered in key order at
every level: the dense input is read in key order, a block of rows at a
time (`similarity.row_blocks`), and coarsening numbers each community by
its smallest member, so every row lists its neighbours in key order.  The phases stay sequential and greedy; only the
inner loops are numpy calls.  Each weighted sum adds its terms in a fixed
walk order (np.bincount adds in input order), and the sums over Python
floats add left to right, as the earlier dict-based implementation's sum()
did before Python 3.12 compensated its rounding.  So labels and modularity
floats are bitwise those of that implementation, which the tests keep as an
oracle, on every Python version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple, Sequence

import numpy as np

from .similarity import row_blocks


@dataclass(frozen=True)
class ClusterAssignment:
    """A partition of nodes; labels are contiguous from 0 in first-occurrence order."""

    labels: tuple[int, ...]
    modularity_levels: tuple[float, ...]

    @property
    def n_clusters(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    def groups(self) -> list[tuple[int, ...]]:
        members: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for index, label in enumerate(self.labels):
            members[label].append(index)
        return [tuple(group) for group in members]


class _Graph(NamedTuple):
    """Adjacency without the diagonal, as CSR (`indptr`, `indices`, `data`)
    plus the row of each stored edge, and each node's self-loop weight."""

    indptr: np.ndarray
    rows: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    loops: np.ndarray

    @classmethod
    def from_edges(
        cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray, loops: np.ndarray
    ) -> "_Graph":
        """Edges sorted by row, then by column within a row."""
        indptr = np.zeros(len(loops) + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=len(loops)), out=indptr[1:])
        return cls(indptr, rows, cols, data, loops)


def _first_seen(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered 0, 1, ... in order of first occurrence."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    number = np.empty(len(first), dtype=np.intp)
    number[np.argsort(first)] = np.arange(len(first))
    return number[inverse]


def _dense_graph(weights: np.ndarray, position: np.ndarray) -> _Graph:
    """The graph of a square matrix whose node r is input node position[r].

    Read a block of rows at a time: the stored pairs are those nonzero in
    either triangle, which must agree within np.allclose and be
    non-negative (an asymmetry anywhere is reported first), and each edge
    weighs what the input's upper triangle says.
    """
    identity = (position == np.arange(len(position))).all()
    rows, cols, data = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    negative = False
    for block in row_blocks(len(position)):
        if identity:
            forward, backward = weights[block], weights[:, block].T
        else:
            forward = weights[np.ix_(position[block], position)]
            backward = weights[np.ix_(position, position[block])].T
        r, c = np.nonzero((forward != 0) | (backward != 0))
        forward, backward = forward[r, c], backward[r, c]
        if not np.allclose(forward, backward):
            raise ValueError("weights must be symmetric")
        negative = negative or bool((forward < 0).any())
        r += block.start
        upper = np.where(position[r] < position[c], forward, backward)
        edge = (upper != 0) & (r != c)
        rows.append(r[edge])
        cols.append(c[edge])
        data.append(upper[edge])
    if negative:
        raise ValueError("weights must be non-negative")
    # One array at a time, so each list of pieces goes as its array is made.
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    return _Graph.from_edges(rows, cols, data, np.zeros(len(position)))


def _strengths(graph: _Graph) -> list[float]:
    """Self-loop plus row sum (added left to right over Python floats), per node."""
    bounds = graph.indptr.tolist()
    return [
        loop + reduce(add, graph.data[a:b].tolist(), 0.0)
        for loop, a, b in zip(graph.loops.tolist(), bounds, bounds[1:])
    ]


def _local_move(
    graph: _Graph, strengths: list[float], order: list[int], two_m: float
) -> tuple[np.ndarray, bool]:
    """Greedy node moves until a full sweep makes none.

    Each executed move strictly increases modularity, so the loop terminates.
    A node's candidates are its neighbours' communities in row (key) order,
    where argmax keeps the first of equal gains, i.e. the earliest discovered
    community; staying put wins exact ties.
    """
    n = len(strengths)
    node_com = np.arange(n)
    com_of = node_com.tolist()
    com_tot = np.array(strengths)
    bounds = graph.indptr.tolist()
    rows = [(graph.indices[a:b], graph.data[a:b]) for a, b in zip(bounds, bounds[1:])]
    moved_any = False
    while True:
        moved_in_sweep = False
        for i in order:
            k_i = strengths[i]
            old = best = com_of[i]
            com_tot[old] -= k_i
            neighbors, weights = rows[i]
            if neighbors.size:
                coms = node_com.take(neighbors)
                # Gain of joining each community; gains[old] is staying put.
                gains = np.bincount(coms, weights, n) - com_tot * k_i / two_m
                candidates = gains.take(coms)
                top = candidates.argmax()
                if candidates[top] > gains[old]:
                    best = com_of[neighbors[top]]
            com_tot[best] += k_i
            if best != old:
                node_com[i] = com_of[i] = best
                moved_in_sweep = moved_any = True
        if not moved_in_sweep:
            return node_com, moved_any


def _internal_sums(graph: _Graph, node_com: np.ndarray, walk_rank: np.ndarray) -> np.ndarray:
    """Per community: its members' self-loops plus the weights of the edges
    inside it, added up node by node in `walk_rank` order, each node's
    self-loop before its row."""
    n = len(graph.loops)
    inside = node_com.take(graph.rows) == node_com.take(graph.indices)
    owner = np.concatenate([np.arange(n), graph.rows[inside]])
    weight = np.concatenate([graph.loops, graph.data[inside]])
    walk = np.argsort(walk_rank.take(owner), kind="stable")
    return np.bincount(node_com.take(owner[walk]), weight[walk], minlength=n)


def _phase_modularity(
    graph: _Graph,
    strengths: list[float],
    node_com: np.ndarray,
    two_m: float,
    walk_rank: np.ndarray,
) -> float:
    """Modularity of the partition, with nodes walked in `walk_rank` order and
    one term per community, in the `walk_rank` order of its id (the node it
    started from)."""
    internal = _internal_sums(graph, node_com, walk_rank)
    walk = np.argsort(walk_rank)
    total = np.bincount(node_com[walk], np.asarray(strengths)[walk], minlength=len(strengths))
    coms = np.flatnonzero(np.bincount(node_com, minlength=len(strengths)))
    coms = coms[np.argsort(walk_rank[coms])]
    terms = zip(internal[coms].tolist(), total[coms].tolist())
    return reduce(add, [w / two_m - (k / two_m) ** 2 for w, k in terms], 0.0)


def _coarsen(graph: _Graph, node_com: np.ndarray) -> tuple[np.ndarray, _Graph]:
    """Each node's community number, communities numbered by their smallest
    member (so in key order), and the graph of communities."""
    coarse = _first_seen(node_com)
    size = int(coarse.max()) + 1
    loops = _internal_sums(graph, coarse, np.arange(len(coarse)))[:size]
    # Each edge's community pair code ci * size + cj, built in place over ci.
    codes, cj = coarse.take(graph.rows), coarse.take(graph.indices)
    across = codes != cj
    codes *= size
    codes += cj
    del cj
    # Edge weights are positive, so a community pair is joined exactly when
    # its summed weight is nonzero.
    summed = np.bincount(codes[across], graph.data[across], size * size)
    codes = np.flatnonzero(summed)
    return coarse, _Graph.from_edges(codes // size, codes % size, summed[codes], loops)


def louvain(
    weights: np.ndarray,
    seed: int = 0,
    keys: Sequence | None = None,
) -> ClusterAssignment:
    """Partition a weighted undirected graph given as a symmetric matrix.

    The diagonal is ignored and weights must be non-negative.  Isolated nodes
    end up in singleton clusters.  `keys` are stable per-node identities used
    for all internal orderings; they default to node indices.  Symmetry is
    checked as np.allclose(weights, weights.T), and each pair weighs what the
    input's upper triangle says.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"weights must be a square matrix, got shape {weights.shape}")
    n = weights.shape[0]
    if keys is None:
        keys_list: list = list(range(n))
    else:
        keys_list = list(keys)
        if len(keys_list) != n:
            raise ValueError("keys must have one entry per node")
        if len(set(keys_list)) != n:
            raise ValueError("keys must be unique")

    # Node r of the graph is input node position[r], the r-th in key order.
    position = np.array(sorted(range(n), key=keys_list.__getitem__), dtype=np.intp)
    graph = _dense_graph(weights, position)

    # Level 0's modularity walks the nodes in input order; coarser levels are
    # numbered in key order, which is the order they walk.
    walk_rank = position
    membership = np.arange(n)
    levels: list[float] = []
    while True:
        strengths = _strengths(graph)
        two_m = reduce(add, strengths, 0.0)
        if two_m == 0.0:
            levels.append(0.0)
            break

        order = list(range(len(strengths)))
        random.Random(seed).shuffle(order)
        node_com, moved = _local_move(graph, strengths, order, two_m)
        q = _phase_modularity(graph, strengths, node_com, two_m, walk_rank)
        if levels and q < levels[-1] - 1e-9:
            raise RuntimeError(f"modularity decreased across passes: {levels[-1]} -> {q}")
        levels.append(q)
        if not moved:
            break

        coarse, graph = _coarsen(graph, node_com)
        membership = coarse[membership]
        walk_rank = np.arange(len(graph.loops))

    labels = _first_seen(membership[np.argsort(position)])
    return ClusterAssignment(labels=tuple(labels.tolist()), modularity_levels=tuple(levels))
