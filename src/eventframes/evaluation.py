"""External clustering quality metrics (ARI, NMI, BCubed) and the
top-k-type mention clustering harness."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fileio import claim_id, read_records, typed


class PartitionInputError(ValueError):
    pass


@dataclass(frozen=True)
class ClusteringMetrics:
    ari: float
    nmi: float
    bcubed_p: float
    bcubed_r: float
    bcubed_f1: float

    def as_dict(self) -> dict:
        return asdict(self)


def _contingency(gold: Sequence, pred: Sequence) -> np.ndarray:
    """The gold × pred count table of two non-empty partitions of equal length."""
    if len(gold) != len(pred):
        raise PartitionInputError(
            f"partitions must have equal length, got {len(gold)} and {len(pred)}"
        )
    if not gold:
        raise PartitionInputError("partitions must be non-empty")
    gold_index = {label: i for i, label in enumerate(dict.fromkeys(gold))}
    pred_index = {label: i for i, label in enumerate(dict.fromkeys(pred))}
    table = np.zeros((len(gold_index), len(pred_index)), dtype=np.int64)
    for g, p in zip(gold, pred):
        table[gold_index[g], pred_index[p]] += 1
    return table


def ari(gold: Sequence, pred: Sequence) -> float:
    """Adjusted Rand index via the contingency-table closed form.

    Where the maximum index equals its expectation, both partitions are one
    cluster or both are all singletons, so they are identical and score 1:
    with pair counts G, P of N pairs, (G + P) / 2 >= sqrt(GP) >= GP / N,
    equal only at G = P in {0, N}.
    """
    table = _contingency(gold, pred)
    sum_cells = sum(math.comb(int(v), 2) for v in table.flat)
    sum_gold = sum(math.comb(int(v), 2) for v in table.sum(axis=1))
    sum_pred = sum(math.comb(int(v), 2) for v in table.sum(axis=0))
    pairs = math.comb(len(gold), 2)
    if (sum_gold + sum_pred) * pairs == 2 * sum_gold * sum_pred:
        return 1.0
    expected = sum_gold * sum_pred / pairs
    maximum = (sum_gold + sum_pred) / 2.0
    return (sum_cells - expected) / (maximum - expected)


def nmi(gold: Sequence, pred: Sequence) -> float:
    """Normalized mutual information, 2 * MI / (H(gold) + H(pred)), natural log.

    Both partitions being single-cluster gives 1.
    """
    joint = _contingency(gold, pred) / len(gold)
    p_gold = joint.sum(axis=1)
    p_pred = joint.sum(axis=0)
    entropy_gold = -float(reduce(add, [p * math.log(p) for p in p_gold if p > 0], 0.0))
    entropy_pred = -float(reduce(add, [p * math.log(p) for p in p_pred if p > 0], 0.0))
    if entropy_gold + entropy_pred == 0.0:
        return 1.0
    mutual = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = joint[i, j]
            if p > 0:
                mutual += p * math.log(p / (p_gold[i] * p_pred[j]))
    return float(2.0 * mutual / (entropy_gold + entropy_pred))


def bcubed(gold: Sequence, pred: Sequence) -> tuple[float, float, float]:
    """Per-element precision and recall averaged over elements, plus their
    harmonic-mean F1."""
    table = _contingency(gold, pred)
    n = len(gold)
    gold_sizes = table.sum(axis=1)
    pred_sizes = table.sum(axis=0)
    precision = 0.0
    recall = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            overlap = int(table[i, j])
            if overlap:
                # every element in this cell shares the same |C(e) n C*(e)|
                precision += overlap * overlap / pred_sizes[j]
                recall += overlap * overlap / gold_sizes[i]
    precision /= n
    recall /= n
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return float(precision), float(recall), float(f1)


def score_partition(gold: Sequence, pred: Sequence) -> ClusteringMetrics:
    p, r, f1 = bcubed(gold, pred)
    return ClusteringMetrics(
        ari=ari(gold, pred), nmi=nmi(gold, pred), bcubed_p=p, bcubed_r=r, bcubed_f1=f1
    )


def top_k_types(gold_mentions: Sequence[tuple[str, str]], k: int) -> list[str]:
    """The k gold types with the most mentions; ties prefer the
    lexicographically smaller name."""
    counts = Counter(gold_type for _, gold_type in gold_mentions)
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return ordered[:k]


def mention_harness(
    gold_mentions: Sequence[tuple[str, str]],
    predicted: Mapping[str, int],
    k: int = 15,
) -> ClusteringMetrics:
    """Restrict to mentions of the k most frequent gold types, then score the
    predicted cluster labels (expression id -> label) against the gold types.

    Mentions align to predictions by expression id, one mention per
    expression.
    """
    retained_types = set(top_k_types(gold_mentions, k))
    gold: list[str] = []
    pred: list[int] = []
    for mention_id, gold_type in gold_mentions:
        if gold_type not in retained_types:
            continue
        if mention_id not in predicted:
            raise PartitionInputError(f"assignment does not cover mention {mention_id!r}")
        gold.append(gold_type)
        pred.append(predicted[mention_id])
    if not gold:
        raise PartitionInputError("no mentions retained; is the gold file empty?")
    return score_partition(gold, pred)


def average_metrics(runs: Sequence[ClusteringMetrics]) -> ClusteringMetrics:
    """Mean of each metric over repeated runs."""
    if not runs:
        raise PartitionInputError("no runs to average")
    columns = zip(*(astuple(m) for m in runs))
    return ClusteringMetrics(*(reduce(add, column, 0.0) / len(runs) for column in columns))


def load_gold_mentions(path: str | Path) -> list[tuple[str, str]]:
    """Read a gold file: one {"id", "type"} object per line, the type a
    string and the id a string or, as the corpus allows, an integer.  An id
    that an earlier line already has raises ValueError naming both lines."""
    mentions: list[tuple[str, str]] = []
    line_of: dict[str, int] = {}
    for lineno, (expr_id, event_type) in read_records(path, "gold record", _gold_mention):
        claim_id(line_of, expr_id, path, lineno)
        mentions.append((expr_id, event_type))
    return mentions


def _gold_mention(record: dict) -> tuple[str, str]:
    return str(typed("id", str | int, record["id"])), typed("type", str, record["type"])


def metrics_table(metrics: ClusteringMetrics) -> str:
    """Aligned plain-text rendering of a metrics report."""
    rows = [
        ("ARI", metrics.ari),
        ("NMI", metrics.nmi),
        ("BCubed-P", metrics.bcubed_p),
        ("BCubed-R", metrics.bcubed_r),
        ("BCubed-F1", metrics.bcubed_f1),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value:.4f}" for name, value in rows)
