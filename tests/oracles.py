"""Independent brute-force oracles the implementations are checked against.

These deliberately avoid the library's code paths: naive pair enumeration for
ARI, direct probability tables for NMI, per-element loops for BCubed, a
direct double-sum modularity for partitions, a PageRank power iteration that
records each step's change, per-pair similarity formulas, and a per-pair
schema graph.  `reference_louvain` is the dict-based Louvain that the
array-backed `eventframes.louvain.louvain` must match bitwise: same
labels, same modularity floats.

Float sums add left to right (`ordered_sum`), never with sum(): from Python
3.12 sum() compensates rounding, and the bitwise comparisons must hold on
every interpreter.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import add
from typing import Iterable, Sequence

import numpy as np

from eventframes.aggregate import GraphConfig, prune_edges
from eventframes.louvain import ClusterAssignment
from eventframes.similarity import EMBEDDING, LEXICAL, LEXICON, LexicalBackend


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum: what sum() computes before Python 3.12."""
    return reduce(add, values, 0.0)


def _partition_sets(labels):
    groups = {}
    for index, label in enumerate(labels):
        groups.setdefault(label, set()).add(index)
    return {frozenset(g) for g in groups.values()}


def pair_counting_ari(gold, pred) -> float:
    """ARI from raw pair counts: 2(ad - bc) / ((a+b)(b+d) + (a+c)(c+d))."""
    together_both = together_gold = together_pred = separate_both = 0
    for i, j in combinations(range(len(gold)), 2):
        same_gold = gold[i] == gold[j]
        same_pred = pred[i] == pred[j]
        if same_gold and same_pred:
            together_both += 1
        elif same_gold:
            together_gold += 1
        elif same_pred:
            together_pred += 1
        else:
            separate_both += 1
    a, b, c, d = together_both, together_gold, together_pred, separate_both
    denominator = (a + b) * (b + d) + (a + c) * (c + d)
    if denominator == 0:
        return 1.0 if _partition_sets(gold) == _partition_sets(pred) else 0.0
    return 2.0 * (a * d - b * c) / denominator


def probability_table_nmi(gold, pred) -> float:
    """NMI from element-wise joint/marginal probability tables, natural log."""
    n = len(gold)
    joint = Counter(zip(gold, pred))
    p_gold = Counter(gold)
    p_pred = Counter(pred)
    h_gold = -ordered_sum((c / n) * math.log(c / n) for c in p_gold.values())
    h_pred = -ordered_sum((c / n) * math.log(c / n) for c in p_pred.values())
    if h_gold + h_pred == 0.0:
        return 1.0
    mutual = ordered_sum(
        (c / n) * math.log((c / n) / ((p_gold[g] / n) * (p_pred[p] / n)))
        for (g, p), c in joint.items()
    )
    return 2.0 * mutual / (h_gold + h_pred)


def per_element_bcubed(gold, pred) -> tuple[float, float, float]:
    """BCubed from explicit per-element cluster intersections."""
    n = len(gold)
    precision = recall = 0.0
    for e in range(n):
        pred_cluster = {i for i in range(n) if pred[i] == pred[e]}
        gold_cluster = {i for i in range(n) if gold[i] == gold[e]}
        overlap = len(pred_cluster & gold_cluster)
        precision += overlap / len(pred_cluster)
        recall += overlap / len(gold_cluster)
    precision /= n
    recall /= n
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def direct_modularity(weights: np.ndarray, labels) -> float:
    """Q = (1/2m) * sum_ij (A_ij - k_i k_j / 2m) [c_i == c_j], diagonal ignored."""
    adjacency = np.asarray(weights, dtype=float).copy()
    np.fill_diagonal(adjacency, 0.0)
    strengths = adjacency.sum(axis=1)
    two_m = strengths.sum()
    if two_m == 0:
        return 0.0
    q = 0.0
    n = adjacency.shape[0]
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += adjacency[i, j] - strengths[i] * strengths[j] / two_m
    return q / two_m


def best_bipartition(weights: np.ndarray) -> tuple[float, frozenset[frozenset[int]]]:
    """Exhaustive search over all 2-partitions (node 0 pinned to side 0)."""
    n = np.asarray(weights).shape[0]
    best_q = -math.inf
    best_parts: frozenset[frozenset[int]] = frozenset()
    for mask in range(2 ** (n - 1)):
        labels = [0] + [(mask >> k) & 1 for k in range(n - 1)]
        q = direct_modularity(weights, labels)
        if q > best_q:
            best_q = q
            side0 = frozenset(i for i, c in enumerate(labels) if c == 0)
            side1 = frozenset(i for i, c in enumerate(labels) if c == 1)
            best_parts = frozenset(s for s in (side0, side1) if s)
    return best_q, best_parts


def random_partition_pair(rng, max_elements: int = 12, max_clusters: int = 5):
    n = rng.randint(2, max_elements)
    k_gold = rng.randint(1, max_clusters)
    k_pred = rng.randint(1, max_clusters)
    gold = [rng.randrange(k_gold) for _ in range(n)]
    pred = [rng.randrange(k_pred) for _ in range(n)]
    return gold, pred


def reference_pagerank(adjacency, beta, max_iterations, tolerance):
    """Power iteration that sorts each neighbour list on every step; returns
    the scores and each step's max and L1 change, the trace that
    `eventframes.scoring.pagerank` does not keep."""
    nodes = sorted(adjacency)
    degree = {s: ordered_sum(adjacency[s].values()) for s in nodes}
    scores = {s: 1.0 / len(nodes) for s in nodes}
    max_changes, l1_changes = [], []
    for _ in range(max_iterations):
        updated = {
            s: beta
            * ordered_sum(scores[o] * w / degree[o] for o, w in sorted(adjacency[s].items()))
            + (1.0 - beta) / len(nodes)
            for s in nodes
        }
        deltas = [abs(updated[s] - scores[s]) for s in nodes]
        max_changes.append(max(deltas))
        l1_changes.append(ordered_sum(deltas))
        scores = updated
        if max_changes[-1] < tolerance:
            break
    return scores, tuple(max_changes), tuple(l1_changes)


# -- per-pair similarity ------------------------------------------------------


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _bigrams(token: str) -> list[str]:
    return [token] if len(token) < 2 else [token[i : i + 2] for i in range(len(token) - 1)]


def _dice(a: Counter, b: Counter) -> float:
    total = a.total() + b.total()
    return 0.0 if total == 0 else 2.0 * (a & b).total() / total


def reference_lexical(a: str, b: str) -> float:
    """Dice over token multisets; over character bigrams when both sides are
    single tokens; 0 when either side has no token."""
    tokens_a, tokens_b = _tokens(a), _tokens(b)
    if not tokens_a or not tokens_b:
        return 0.0
    if len(tokens_a) == 1 and len(tokens_b) == 1:
        return _dice(Counter(_bigrams(tokens_a[0])), Counter(_bigrams(tokens_b[0])))
    return _dice(Counter(tokens_a), Counter(tokens_b))


def keyed_lexicon_matrix(backend, xs: Sequence[str], ys: Sequence[str]) -> np.ndarray:
    """A LexiconBackend's matrix with an explicit equal-key test: 1 where the
    stripped, lowercased keys are equal and non-empty or share a synonym set,
    else the lexical score."""
    keys_x = [x.strip().lower() for x in xs]
    keys_y = [y.strip().lower() for y in ys]
    key_ids: dict[str, int] = {"": -1}  # an empty key equals nothing
    ids_x = np.array([key_ids.setdefault(k, len(key_ids)) for k in keys_x], dtype=int)
    ids_y = np.array([key_ids.setdefault(k, len(key_ids)) for k in keys_y], dtype=int)
    same_key = np.equal.outer(ids_x, ids_y) & (ids_x >= 0)[:, None]
    set_ids = backend._set_ids
    shared_set = np.array(
        [[bool(set_ids.get(a, set()) & set_ids.get(b, set())) for b in keys_y] for a in keys_x],
        dtype=bool,
    ).reshape(len(xs), len(ys))
    return np.where(same_key | shared_set, 1.0, LexicalBackend().matrix(xs, ys))


class ReferenceScorer:
    """One backend's similarity of one pair, from the scalar formulas: lexical
    Dice, the lexicon's key and synonym-set lookup, and the embedding cosine
    of np.dot on the backend's pooled vectors.  `fallbacks` counts the pairs
    the embedding scores lexically, as the backend's fallback_count does.
    Other backends (the tests' tables) score with their own `score`."""

    def __init__(self, backend):
        self.backend = backend
        self.fallbacks = 0

    def __call__(self, a: str, b: str) -> float:
        kind = self.backend.kind
        if kind == LEXICAL:
            return reference_lexical(a, b)
        if kind == LEXICON:
            key_a, key_b = a.strip().lower(), b.strip().lower()
            set_ids = self.backend._set_ids
            if key_a and key_a == key_b or set_ids.get(key_a, set()) & set_ids.get(key_b, set()):
                return 1.0
            return reference_lexical(a, b)
        if kind == EMBEDDING:
            vec_a, vec_b = self.backend._pool(a), self.backend._pool(b)
            if vec_a is None or vec_b is None:
                self.fallbacks += 1
                return reference_lexical(a, b)
            return float((1.0 + np.clip(np.dot(vec_a, vec_b), -1.0, 1.0)) / 2.0)
        return self.backend.score(a, b)


class ReferenceEnsemble:
    """An ensemble's similarity of one pair: the weighted backend scores of
    the pair in sorted order, added left to right from 0, then clipped; and
    the best-match average of two slot sets."""

    def __init__(self, ensemble):
        self.weights = list(ensemble.weights)
        self.scorers = [ReferenceScorer(backend) for backend in ensemble.backends]

    def sim(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        value = ordered_sum(w * scorer(*key) for w, scorer in zip(self.weights, self.scorers))
        return min(max(value, 0.0), 1.0)

    def sim_slotsets(self, a, b) -> float:
        set_a, set_b = sorted(set(a)), sorted(set(b))
        if not set_a and not set_b:
            return 1.0
        if not set_a or not set_b:
            return 0.0
        forward = ordered_sum(max(self.sim(x, y) for y in set_b) for x in set_a)
        backward = ordered_sum(max(self.sim(x, y) for x in set_a) for y in set_b)
        return (forward + backward) / (len(set_a) + len(set_b))


def pairwise_schema_graph(instances, ensemble, cfg: GraphConfig = GraphConfig()) -> np.ndarray:
    """Schema-graph weights from one per-pair reference similarity of the
    texts, types and slot sets of each instance pair, mirrored across the
    diagonal, then pruned."""
    reference = ReferenceEnsemble(ensemble)
    n = len(instances)
    slot_sets = [set(inst.slot_names) for inst in instances]
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            weight = (
                cfg.lambda3
                * reference.sim(instances[i].expression.text, instances[j].expression.text)
                + cfg.lambda4 * reference.sim(instances[i].event_type, instances[j].event_type)
                + cfg.lambda5 * reference.sim_slotsets(slot_sets[i], slot_sets[j])
            )
            weights[i, j] = weights[j, i] = weight
    return prune_edges(weights, cfg)


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
    return ordered_sum(
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


def reference_louvain(
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
            current_loops[i] + ordered_sum(w for _, w in neighbors[i])
            for i in range(len(neighbors))
        ]
        two_m = ordered_sum(strengths[i] for i in node_order)
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
