"""Independent brute-force oracles the implementations are checked against.

These deliberately avoid the library's code paths: naive pair enumeration for
ARI, direct probability tables for NMI, per-element loops for BCubed, a
direct double-sum modularity for partitions, and a per-pair schema graph.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np

from eventframes.aggregate import GraphConfig, prune_edges


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
    h_gold = -sum((c / n) * math.log(c / n) for c in p_gold.values())
    h_pred = -sum((c / n) * math.log(c / n) for c in p_pred.values())
    if h_gold + h_pred == 0.0:
        return 1.0
    mutual = sum(
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


def pairwise_schema_graph(instances, ensemble, cfg: GraphConfig = GraphConfig()) -> np.ndarray:
    """Schema-graph weights from one scalar sim / sim_slotsets call per
    instance pair, mirrored across the diagonal, then pruned."""
    n = len(instances)
    slot_sets = [set(inst.slot_names) for inst in instances]
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            weight = (
                cfg.lambda3 * ensemble.sim(instances[i].expression.text, instances[j].expression.text)
                + cfg.lambda4 * ensemble.sim(instances[i].event_type, instances[j].event_type)
                + cfg.lambda5 * ensemble.sim_slotsets(slot_sets[i], slot_sets[j])
            )
            weights[i, j] = weights[j, i] = weight
    return prune_edges(weights, cfg)
