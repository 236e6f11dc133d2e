"""Weighted Louvain community detection.

Local-move phases maximizing weighted modularity alternate with graph
coarsening until no further gain.  The node visit order is shuffled by the
seed, and all orderings (visit, accumulation, tie-breaks) derive from stable
per-node keys, so permuting the input rows while keeping keys attached yields
the same partition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ClusterAssignment:
    """A partition of nodes; labels are contiguous from 0 in first-occurrence order."""

    labels: tuple[int, ...]
    modularity_levels: tuple[float, ...]
    ids: tuple[str, ...] | None = None

    @property
    def n_clusters(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    def groups(self) -> list[tuple[int, ...]]:
        members: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for index, label in enumerate(self.labels):
            members[label].append(index)
        return [tuple(group) for group in members]

    def as_partition(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(group) for group in self.groups())

    def by_id(self) -> dict[str, int]:
        if self.ids is None:
            raise ValueError("assignment carries no instance ids")
        return dict(zip(self.ids, self.labels))


def _sorted_neighbors(
    adjacency: list[dict[int, float]], keys: Sequence
) -> list[list[tuple[int, float]]]:
    return [
        sorted(adjacency[i].items(), key=lambda item: keys[item[0]])
        for i in range(len(adjacency))
    ]


def _local_move(
    neighbors: list[list[tuple[int, float]]],
    strengths: list[float],
    order: list[int],
    two_m: float,
) -> tuple[list[int], bool]:
    """Greedy node moves until a full sweep makes none.

    Each executed move strictly increases modularity, so the loop terminates.
    Candidate communities are scanned in discovery order (neighbor key order);
    ties keep the earlier candidate, and staying put wins exact ties.
    """
    n = len(neighbors)
    node_com = list(range(n))
    com_tot = list(strengths)
    moved_any = False
    while True:
        moved_in_sweep = False
        for i in order:
            old = node_com[i]
            com_tot[old] -= strengths[i]
            node_com[i] = -1

            weight_to_com: dict[int, float] = {}
            for j, w in neighbors[i]:
                com = node_com[j]
                if com >= 0:
                    weight_to_com[com] = weight_to_com.get(com, 0.0) + w

            best_com = old
            best_gain = weight_to_com.get(old, 0.0) - com_tot[old] * strengths[i] / two_m
            for com, w_ic in weight_to_com.items():
                if com == old:
                    continue
                gain = w_ic - com_tot[com] * strengths[i] / two_m
                if gain > best_gain:
                    best_com, best_gain = com, gain

            node_com[i] = best_com
            com_tot[best_com] += strengths[i]
            if best_com != old:
                moved_in_sweep = True
                moved_any = True
        if not moved_in_sweep:
            break
    return node_com, moved_any


def _phase_modularity(
    neighbors: list[list[tuple[int, float]]],
    loops: list[float],
    strengths: list[float],
    node_com: list[int],
    two_m: float,
) -> float:
    internal: dict[int, float] = {}
    total: dict[int, float] = {}
    for i in range(len(neighbors)):
        com = node_com[i]
        total[com] = total.get(com, 0.0) + strengths[i]
        internal[com] = internal.get(com, 0.0) + loops[i]
        for j, w in neighbors[i]:
            if node_com[j] == com:
                internal[com] += w
    return sum(
        internal[com] / two_m - (total[com] / two_m) ** 2 for com in sorted(internal)
    )


def _coarsen(
    neighbors: list[list[tuple[int, float]]],
    loops: list[float],
    keys: list,
    node_com: list[int],
) -> tuple[list[dict[int, float]], list[float], list, dict[int, int]]:
    rep_key: dict[int, object] = {}
    for i, com in enumerate(node_com):
        if com not in rep_key or keys[i] < rep_key[com]:
            rep_key[com] = keys[i]
    new_index = {
        com: idx for idx, com in enumerate(sorted(rep_key, key=rep_key.__getitem__))
    }
    new_n = len(new_index)
    new_adj: list[dict[int, float]] = [{} for _ in range(new_n)]
    new_loops = [0.0] * new_n
    for i in sorted(range(len(neighbors)), key=keys.__getitem__):
        ci = new_index[node_com[i]]
        new_loops[ci] += loops[i]
        for j, w in neighbors[i]:
            cj = new_index[node_com[j]]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
    new_keys: list = [None] * new_n
    for com, idx in new_index.items():
        new_keys[idx] = rep_key[com]
    return new_adj, new_loops, new_keys, new_index


def louvain(
    weights: np.ndarray,
    seed: int = 0,
    keys: Sequence | None = None,
) -> ClusterAssignment:
    """Partition a weighted undirected graph given as a symmetric matrix.

    The diagonal is ignored and weights must be non-negative.  Isolated nodes
    end up in singleton clusters.  `keys` are stable per-node identities used
    for all internal orderings; they default to node indices.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"weights must be a square matrix, got shape {weights.shape}")
    if not np.allclose(weights, weights.T):
        raise ValueError("weights must be symmetric")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    n = weights.shape[0]
    if keys is None:
        keys_list: list = list(range(n))
    else:
        keys_list = list(keys)
        if len(keys_list) != n:
            raise ValueError("keys must have one entry per node")
        if len(set(keys_list)) != n:
            raise ValueError("keys must be unique")

    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    rows, cols = np.nonzero(np.triu(weights, 1))
    for i, j, w in zip(rows.tolist(), cols.tolist(), weights[rows, cols].tolist()):
        adjacency[i][j] = w
        adjacency[j][i] = w
    loops = [0.0] * n

    membership = list(range(n))
    levels: list[float] = []

    current_adj, current_loops, current_keys = adjacency, loops, keys_list
    while True:
        neighbors = _sorted_neighbors(current_adj, current_keys)
        node_order = sorted(range(len(neighbors)), key=current_keys.__getitem__)
        strengths = [
            current_loops[i] + sum(w for _, w in neighbors[i]) for i in range(len(neighbors))
        ]
        two_m = sum(strengths[i] for i in node_order)
        if two_m == 0.0:
            levels.append(0.0)
            break

        random.Random(seed).shuffle(node_order)
        node_com, moved = _local_move(neighbors, strengths, node_order, two_m)
        q = _phase_modularity(neighbors, current_loops, strengths, node_com, two_m)
        if levels and q < levels[-1] - 1e-9:
            raise RuntimeError(f"modularity decreased across passes: {levels[-1]} -> {q}")
        levels.append(q)
        if not moved:
            break

        current_adj, current_loops, current_keys, new_index = _coarsen(
            neighbors, current_loops, current_keys, node_com
        )
        membership = [new_index[node_com[membership[orig]]] for orig in range(n)]

    relabel: dict[int, int] = {}
    labels = []
    for orig in range(n):
        com = membership[orig]
        if com not in relabel:
            relabel[com] = len(relabel)
        labels.append(relabel[com])
    return ClusterAssignment(labels=tuple(labels), modularity_levels=tuple(levels))
