"""Cluster individual schemas over a similarity graph and merge each cluster
into one normalized schema with a representative type and slot names."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .louvain import ClusterAssignment, louvain
from .scoring import StructuredInstance
from .similarity import SimilarityEnsemble

PRUNE_NONE = "none"
PRUNE_BELOW_MEAN = "below-mean"
PRUNE_ABSOLUTE = "absolute"


@dataclass(frozen=True)
class GraphConfig:
    lambda3: float = 3.0
    lambda4: float = 1.0
    lambda5: float = 1.0
    edge_prune: str = PRUNE_BELOW_MEAN
    prune_tau: float | None = None

    def __post_init__(self) -> None:
        if min(self.lambda3, self.lambda4, self.lambda5) < 0:
            raise ValueError("lambda3, lambda4, lambda5 must be non-negative")
        if self.lambda3 + self.lambda4 + self.lambda5 <= 0:
            raise ValueError("lambda3 + lambda4 + lambda5 must be positive")
        if self.edge_prune not in (PRUNE_NONE, PRUNE_BELOW_MEAN, PRUNE_ABSOLUTE):
            raise ValueError(f"unknown edge_prune mode: {self.edge_prune!r}")
        if self.edge_prune == PRUNE_ABSOLUTE and self.prune_tau is None:
            raise ValueError("absolute pruning requires prune_tau")


@dataclass(frozen=True)
class SlotSimilarity:
    """Ensemble similarity between every two slots of a sorted vocabulary."""

    vocabulary: tuple[str, ...]
    matrix: np.ndarray

    @classmethod
    def of(cls, slots: Iterable[str], ensemble: SimilarityEnsemble) -> "SlotSimilarity":
        vocabulary = sorted(set(slots))
        return cls(tuple(vocabulary), ensemble.matrix(vocabulary, vocabulary))

    @cached_property
    def position(self) -> dict[str, int]:
        return {slot: i for i, slot in enumerate(self.vocabulary)}

    def among(self, names: Sequence[str]) -> np.ndarray:
        """A new array of the similarities between `names`, which must all be
        in the vocabulary; bitwise ensemble.matrix(names, names)."""
        index = [self.position[name] for name in names]
        return self.matrix[np.ix_(index, index)]


@dataclass(frozen=True)
class SchemaGraph:
    """Symmetric pairwise schema similarities with a zero diagonal, and the
    similarities over the instances' slot vocabulary."""

    weights: np.ndarray
    slots: SlotSimilarity

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]


def prune_edges(weights: np.ndarray, cfg: GraphConfig) -> np.ndarray:
    """Zero out weak edges.

    A complete similarity graph drives modularity clustering toward one
    community; below-mean pruning (the default) drops every edge strictly
    below the mean off-diagonal weight.
    """
    if cfg.edge_prune == PRUNE_NONE or weights.shape[0] < 2:
        return weights
    if cfg.edge_prune == PRUNE_ABSOLUTE:
        cutoff = float(cfg.prune_tau)  # type: ignore[arg-type]
    else:
        cutoff = float(np.mean(weights[np.triu_indices_from(weights, k=1)]))
    pruned = weights.copy()
    pruned[pruned < cutoff] = 0.0
    np.fill_diagonal(pruned, 0.0)
    return pruned


def _distinct(values: Sequence) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and each value's index into them."""
    positions: dict = {}
    index = [positions.setdefault(value, len(positions)) for value in values]
    return list(positions), np.array(index, dtype=np.intp)


def _best_match_sums(sim: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """sums[a, b]: over set a's members x in order, the running sum of the best
    sim[x, y] over set b's members y.

    `members` lists each set's vocabulary indices in sorted order, padded with
    an index whose row and column of `sim` are -inf.  Summing one member
    position at a time keeps sim_slotsets' sequential order (a padded
    position adds 0.0, which changes no sum).
    """
    sums = np.zeros((len(sizes), len(sizes)))
    for position in range(members.shape[1]):
        best = sim[members[:, position]][:, members].max(axis=2)
        sums += np.where((position < sizes)[:, None], best, 0.0)
    return sums


def _slotset_matrix(slot_sets: Sequence[frozenset[str]], slots: SlotSimilarity) -> np.ndarray:
    """ensemble.sim_slotsets for every pair of slot sets, bitwise, from the
    similarity matrix over a vocabulary holding every member."""
    sizes = np.array([len(s) for s in slot_sets])
    out = np.zeros((len(slot_sets), len(slot_sets)))
    out[np.ix_(sizes == 0, sizes == 0)] = 1.0
    full = np.flatnonzero(sizes)
    if not full.size:
        return out
    size = len(slots.vocabulary)
    sim = np.full((size + 1, size + 1), -np.inf)
    sim[:-1, :-1] = slots.matrix
    members = np.full((full.size, sizes.max()), size)
    for row, a in enumerate(full):
        members[row, : sizes[a]] = [slots.position[slot] for slot in sorted(slot_sets[a])]
    sizes = sizes[full]
    forward = _best_match_sums(sim, members, sizes)
    backward = _best_match_sums(sim.T, members, sizes).T
    out[np.ix_(full, full)] = (forward + backward) / np.add.outer(sizes, sizes)
    return out


def build_schema_graph(
    instances: Sequence[StructuredInstance],
    ensemble: SimilarityEnsemble,
    cfg: GraphConfig = GraphConfig(),
) -> SchemaGraph:
    """Pairwise weights: lambda3 * text sim + lambda4 * type sim + lambda5 *
    slot-set sim, then pruning per config.

    Similarities are computed once per distinct text, type and slot set
    (bitwise equal to ensemble.sim and sim_slotsets); only filling in the
    n x n weights is quadratic in the instances.
    """
    if not instances:
        raise ValueError("need at least one instance")
    texts, text_index = _distinct([inst.expression.text for inst in instances])
    types, type_index = _distinct([inst.event_type for inst in instances])
    slot_sets, set_index = _distinct([frozenset(inst.slot_names) for inst in instances])
    text_sim = ensemble.matrix(texts, texts)[np.ix_(text_index, text_index)]
    type_sim = ensemble.matrix(types, types)[np.ix_(type_index, type_index)]
    slots = SlotSimilarity.of(set().union(*slot_sets), ensemble)
    slot_sim = _slotset_matrix(slot_sets, slots)[np.ix_(set_index, set_index)]
    weights = cfg.lambda3 * text_sim + cfg.lambda4 * type_sim + cfg.lambda5 * slot_sim
    np.fill_diagonal(weights, 0.0)
    return SchemaGraph(weights=prune_edges(weights, cfg), slots=slots)


def cluster_instances(
    instances: Sequence[StructuredInstance], graph: SchemaGraph, seed: int = 1234
) -> ClusterAssignment:
    """Partition the instances' schema graph; Louvain keys are expression ids."""
    return louvain(graph.weights, seed=seed, keys=[inst.expression.id for inst in instances])


@dataclass(frozen=True)
class SlotGroup:
    representative: str
    members: frozenset[str]


@dataclass(frozen=True)
class AggregatedSchema:
    """Final normalized schema for one cluster, with provenance."""

    type_name: str
    type_candidates: tuple[str, ...]
    slot_groups: tuple[SlotGroup, ...]
    member_ids: tuple[str, ...]

    @property
    def slot_names(self) -> tuple[str, ...]:
        return tuple(group.representative for group in self.slot_groups)


def normalize_type_name(members: Sequence[StructuredInstance]) -> str:
    """Representative type: most frequent, then highest summed type
    consistency, then lexicographically smallest."""
    if not members:
        raise ValueError("cluster has no members")
    freq: Counter = Counter(inst.event_type for inst in members)
    consistency_sum: dict[str, float] = {}
    for inst in members:
        consistency_sum[inst.event_type] = (
            consistency_sum.get(inst.event_type, 0.0) + inst.type_consistency
        )
    return min(freq, key=lambda t: (-freq[t], -consistency_sum[t], t))


def merge_slot_synonyms(
    slots: set[str],
    slot_scores: Mapping[str, float],
    similarity: SlotSimilarity,
    cfg: GraphConfig = GraphConfig(),
    seed: int = 1234,
) -> list[SlotGroup]:
    """Group synonymous slots by clustering the slot-similarity graph, sliced
    from `similarity` (its vocabulary must hold every slot).

    Each community becomes one group whose representative is the member with
    the highest summed confidence score, ties lexicographic.
    """
    names = sorted(slots)
    if not names:
        return []
    weights = similarity.among(names)
    np.fill_diagonal(weights, 0.0)
    assignment = louvain(prune_edges(weights, cfg), seed=seed, keys=names)
    groups: list[SlotGroup] = []
    for group in assignment.groups():
        members = frozenset(names[i] for i in group)
        representative = min(members, key=lambda s: (-slot_scores.get(s, 0.0), s))
        groups.append(SlotGroup(representative=representative, members=members))
    groups.sort(key=lambda g: g.representative)
    return groups


def aggregate(
    instances: Sequence[StructuredInstance],
    assignment: ClusterAssignment,
    graph: SchemaGraph,
    cfg: GraphConfig = GraphConfig(),
    seed: int = 1234,
) -> list[AggregatedSchema]:
    """Merge each cluster's members into one schema.

    Types pool into a multiset, slots into a union, then the representative
    type is chosen and synonymous slots are merged, with slot similarities
    taken from the instances' schema graph.  Output is sorted by descending
    cluster size.
    """
    if len(assignment.labels) != len(instances):
        raise ValueError("assignment does not cover the instances")
    schemas: list[AggregatedSchema] = []
    for group in assignment.groups():
        members = [instances[i] for i in group]
        slot_scores: dict[str, float] = {}
        slot_union: set[str] = set()
        for inst in members:
            for record in inst.slots:
                slot_union.add(record.slot)
                slot_scores[record.slot] = slot_scores.get(record.slot, 0.0) + record.score
        schemas.append(
            AggregatedSchema(
                type_name=normalize_type_name(members),
                type_candidates=tuple(sorted(inst.event_type for inst in members)),
                slot_groups=tuple(
                    merge_slot_synonyms(slot_union, slot_scores, graph.slots, cfg, seed)
                ),
                member_ids=tuple(inst.expression.id for inst in members),
            )
        )
    schemas.sort(key=lambda s: -len(s.member_ids))
    return schemas


def render_aggregated(schema: AggregatedSchema) -> str:
    """Human-readable "Type: t, Slots: s1; s2; ..." rendering."""
    if not schema.slot_groups:
        return f"Type: {schema.type_name}, Slots:"
    return f"Type: {schema.type_name}, Slots: " + "; ".join(schema.slot_names)


def aggregated_to_dict(schema: AggregatedSchema) -> dict:
    return {
        "type": schema.type_name,
        "type_candidates": list(schema.type_candidates),
        "slots": [
            {"name": group.representative, "synonyms": sorted(group.members)}
            for group in schema.slot_groups
        ],
        "members": list(schema.member_ids),
    }


def aggregated_from_dict(record: Mapping) -> AggregatedSchema:
    return AggregatedSchema(
        type_name=record["type"],
        type_candidates=tuple(record["type_candidates"]),
        slot_groups=tuple(
            SlotGroup(representative=s["name"], members=frozenset(s["synonyms"]))
            for s in record["slots"]
        ),
        member_ids=tuple(record["members"]),
    )
