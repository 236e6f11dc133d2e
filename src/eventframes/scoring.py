"""Slot confidence scoring and per-instance schema structuring.

Each generated slot is scored by salience (TF-IDF over the conceptualizer
output), reliability (PageRank centrality in the instance's slot
co-occurrence graph), and consistency (similarity of the slot's candidate
types to the source text).  Slots below the confidence threshold are dropped
and the top-1 consistent event type is kept per instance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .conceptualize import ConceptualizedInstance
from .corpus import EventExpression
from .fileio import typed
from .similarity import SimilarityEnsemble

SQUARED_LOG = "squared-log"  # 1 + (log f)^2
LOG_OF_SQUARE = "log-of-square"  # 1 + log(f^2)


@dataclass(frozen=True)
class ScoringConfig:
    lambda1: float = 1.0
    lambda2: float = 1.0
    beta: float = 0.8
    max_iterations: int = 300
    tolerance: float = 1e-6
    threshold: float = 1.0 / 3.0
    weighted_cooccurrence: bool = False
    tf_variant: str = SQUARED_LOG
    log_base: float = math.e

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tf_variant not in (SQUARED_LOG, LOG_OF_SQUARE):
            raise ValueError(f"unknown tf_variant: {self.tf_variant!r}")
        if self.log_base <= 1.0:
            raise ValueError("log_base must be > 1")


@dataclass(frozen=True)
class SlotRecord:
    slot: str
    freq: int
    salience: float
    reliability: float
    consistency: float
    score: float


@dataclass(frozen=True)
class StructuredInstance:
    expression: EventExpression
    event_type: str
    slots: tuple[SlotRecord, ...]
    type_consistency: float

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(record.slot for record in self.slots)


@dataclass(frozen=True)
class SlotSet:
    """The union of one instance's candidate slots with per-candidate membership."""

    freq: Counter
    members: tuple[frozenset[str], ...]  # slots of each candidate, in order

    def __len__(self) -> int:
        return len(self.freq)


def collect_slot_set(instance: ConceptualizedInstance) -> SlotSet:
    """Union the candidates' slots; freq(s) counts candidates containing s."""
    freq: Counter = Counter()
    members: list[frozenset[str]] = []
    for candidate in instance.candidates:
        members.append(frozenset(candidate.slots))
        # Counted in candidate order: a frozenset's order follows the hash seed.
        freq.update(candidate.slots)
    return SlotSet(freq=freq, members=tuple(members))


def global_slot_frequencies(slot_sets: Sequence[SlotSet]) -> tuple[dict[str, int], int]:
    """Total slot frequency across all instances' slot sets, plus the instance count."""
    totals: Counter = Counter()
    for slot_set in slot_sets:
        totals.update(slot_set.freq)
    return dict(totals), len(slot_sets)


def salience(
    instance_freq: int,
    total_freq: int,
    corpus_size: int,
    cfg: ScoringConfig = ScoringConfig(),
) -> float:
    """TF-IDF-style slot weight; may be zero or negative.

    Default reading: (1 + (ln freq)^2) * ln(corpus_size / total_freq).  The
    TF variant and the log base are config-visible since both conventions
    appear in TF-IDF variants.
    """
    if not total_freq >= instance_freq >= 1:
        raise ValueError(f"need total_freq >= instance_freq >= 1, got {total_freq}, {instance_freq}")
    if corpus_size < 1:
        raise ValueError("corpus_size must be >= 1")
    log_f = math.log(instance_freq, cfg.log_base)
    tf = 1.0 + (log_f**2 if cfg.tf_variant == SQUARED_LOG else 2.0 * log_f)
    idf = math.log(corpus_size / total_freq, cfg.log_base)
    return tf * idf


def cooccurrence_graph(slot_set: SlotSet, weighted: bool = False) -> dict[str, dict[str, float]]:
    """Slot adjacency: s ~ s' when they appear together in at least one
    candidate; weighted mode counts shared candidates as the edge weight."""
    adjacency: dict[str, dict[str, float]] = {slot: {} for slot in slot_set.freq}
    for members in slot_set.members:
        ordered = sorted(members)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                weight = adjacency[a].get(b, 0.0) + 1.0 if weighted else 1.0
                adjacency[a][b] = adjacency[b][a] = weight
    return adjacency


def pagerank(
    adjacency: Mapping[str, Mapping[str, float]],
    beta: float,
    max_iterations: int,
    tolerance: float,
) -> dict[str, float]:
    """Degree-normalized power iteration with uniform teleport.

    Scores start at 1/N.  Each step distributes beta * R(s') / d(s') along
    edges, where d(s') is the (weighted) degree; nodes without partners keep
    only the teleport term.  Stops after max_iterations or once the max
    per-slot change drops below tolerance.  Returns each node's score; an
    empty graph gives {}.  Sums add left to right, as Python's sum() did
    before Python 3.12 compensated its rounding.
    """
    nodes = sorted(adjacency)
    n = len(nodes)
    if n == 0:
        return {}
    degree = {s: reduce(add, adjacency[s].values(), 0.0) for s in nodes}
    neighbours = {s: sorted(adjacency[s].items()) for s in nodes}
    teleport = (1.0 - beta) / n
    scores = {s: 1.0 / n for s in nodes}
    for _ in range(max_iterations):
        updated: dict[str, float] = {}
        for s in nodes:
            inflow = reduce(add, [scores[o] * w / degree[o] for o, w in neighbours[s]], 0.0)
            updated[s] = beta * inflow + teleport
        max_change = max(abs(updated[s] - scores[s]) for s in nodes)
        scores = updated
        if max_change < tolerance:
            break
    return scores


def reliability(slot_set: SlotSet, cfg: ScoringConfig = ScoringConfig()) -> dict[str, float]:
    """PageRank centrality of each slot in the instance's co-occurrence graph,
    as `pagerank` returns it."""
    adjacency = cooccurrence_graph(slot_set, weighted=cfg.weighted_cooccurrence)
    return pagerank(adjacency, cfg.beta, cfg.max_iterations, cfg.tolerance)


def type_similarities(
    instances: Sequence[ConceptualizedInstance], ensemble: SimilarityEnsemble
) -> list[dict[str, float]]:
    """Per instance, each distinct candidate type's similarity to the
    instance's text, in first-seen order.

    Each distinct type is scored in one `ensemble.matrix` row over the
    distinct texts that name it, so each (type, text) pair is scored once:
    cheaper than a matrix per instance when types repeat across texts, and
    linear, unlike a types × texts matrix, when types grow with the corpus.
    """
    texts_of: dict[str, dict[str, None]] = {}
    for instance in instances:
        for candidate in instance.candidates:
            texts_of.setdefault(candidate.event_type, {})[instance.expression.text] = None
    rows = {
        t: dict(zip(texts, ensemble.matrix([t], list(texts))[0].tolist()))
        for t, texts in texts_of.items()
    }
    return [
        {c.event_type: rows[c.event_type][instance.expression.text] for c in instance.candidates}
        for instance in instances
    ]


def consistency(
    slot: str, instance: ConceptualizedInstance, type_sims: Mapping[str, float]
) -> float:
    """Faithfulness of a slot to its source text: the max, over candidates
    containing the slot, of sim(candidate type, text) from `type_sims`."""
    sims = [
        type_sims[candidate.event_type]
        for candidate in instance.candidates
        if slot in candidate.slots
    ]
    if not sims:
        raise ValueError(f"slot {slot!r} does not appear in any candidate")
    return max(sims)


def score(
    salience: float, reliability: float, consistency: float, cfg: ScoringConfig = ScoringConfig()
) -> float:
    """Combined confidence: (lambda1 * salience + lambda2 * reliability) * consistency."""
    return (cfg.lambda1 * salience + cfg.lambda2 * reliability) * consistency


def select_event_type(
    instance: ConceptualizedInstance, type_sims: Mapping[str, float]
) -> tuple[str, float]:
    """Top-1 consistent event type among the instance's candidate types,
    read from `type_sims`.

    Ties break toward the type proposed by more candidates, then
    lexicographically.
    """
    type_freq = Counter(candidate.event_type for candidate in instance.candidates)
    best = min(type_freq, key=lambda t: (-type_sims[t], -type_freq[t], t))
    return best, type_sims[best]


def structuralize(
    instances: Sequence[ConceptualizedInstance],
    cfg: ScoringConfig,
    ensemble: SimilarityEnsemble,
) -> list[StructuredInstance]:
    """Score every instance against the corpus-wide slot frequencies.

    Each instance's slot set is collected once, and each distinct (candidate
    type, text) pair is scored once.  Instances are retained even when every
    slot is filtered out (type-only schema).
    """
    slot_sets = [collect_slot_set(instance) for instance in instances]
    totals, corpus_size = global_slot_frequencies(slot_sets)
    structured: list[StructuredInstance] = []
    for instance, slot_set, type_sims in zip(
        instances, slot_sets, type_similarities(instances, ensemble)
    ):
        reliabilities = reliability(slot_set, cfg)
        records: list[SlotRecord] = []
        for slot in sorted(slot_set.freq):
            freq = slot_set.freq[slot]
            factors = (
                salience(freq, totals[slot], corpus_size, cfg),
                reliabilities[slot],
                consistency(slot, instance, type_sims),
            )
            records.append(SlotRecord(slot, freq, *factors, score(*factors, cfg)))
        event_type, type_consistency = select_event_type(instance, type_sims)
        surviving = tuple(r for r in records if r.score >= cfg.threshold)
        structured.append(
            StructuredInstance(
                expression=instance.expression,
                event_type=event_type,
                slots=surviving,
                type_consistency=type_consistency,
            )
        )
    return structured


def structured_to_dict(instance: StructuredInstance) -> dict:
    return {
        **instance.expression.to_dict(),
        "type": instance.event_type,
        "type_consistency": instance.type_consistency,
        "slots": [
            {
                "name": r.slot,
                "freq": r.freq,
                "salience": r.salience,
                "reliability": r.reliability,
                "consistency": r.consistency,
                "score": r.score,
            }
            for r in instance.slots
        ],
    }


def structured_from_dict(record: Mapping) -> StructuredInstance:
    expression = EventExpression.from_dict(record)
    slots = tuple(
        SlotRecord(
            typed("name", str, s["name"]),
            typed("freq", int, s["freq"]),
            *(typed(k, float, s[k]) for k in ("salience", "reliability", "consistency", "score")),
        )
        for s in typed("slots", tuple[dict, ...], record["slots"])
    )
    return StructuredInstance(
        expression=expression,
        event_type=typed("type", str, record["type"]),
        slots=slots,
        type_consistency=typed("type_consistency", float, record["type_consistency"]),
    )
