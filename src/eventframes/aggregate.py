"""Cluster individual schemas over a similarity graph, whose slot-set term is
`similarity.slotset_matrix`, and merge each cluster into one normalized
schema with a representative type and slot names."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fileio import typed
from .louvain import ClusterAssignment, louvain
from .schemas import SchemaCandidate, render_schema
from .scoring import StructuredInstance
from .similarity import SimilarityEnsemble, SlotSimilarity, row_blocks, slotset_matrix

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
        if (self.edge_prune == PRUNE_ABSOLUTE) != (self.prune_tau is not None):
            raise ValueError("prune_tau is given with absolute pruning, and only with it")


@dataclass(frozen=True)
class SchemaGraph:
    """Symmetric pairwise schema similarities with a zero diagonal, and the
    similarities over the instances' slot vocabulary."""

    weights: np.ndarray
    slots: SlotSimilarity


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
        # The strict upper triangle in row-major order, as np.triu_indices
        # lists it, through a mask rather than two index arrays.
        cutoff = float(np.mean(weights[~np.tri(*weights.shape, dtype=bool)]))
    pruned = weights.copy()
    pruned[pruned < cutoff] = 0.0
    np.fill_diagonal(pruned, 0.0)
    return pruned


def _distinct(values: Sequence) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and each value's index into them."""
    positions: dict = {}
    index = [positions.setdefault(value, len(positions)) for value in values]
    return list(positions), np.array(index, dtype=np.intp)


def build_schema_graph(
    instances: Sequence[StructuredInstance],
    ensemble: SimilarityEnsemble,
    cfg: GraphConfig = GraphConfig(),
) -> SchemaGraph:
    """Pairwise weights: lambda3 * text sim + lambda4 * type sim + lambda5 *
    slot-set sim, then pruning per config.

    Similarities are computed once per distinct text, type and slot set
    (bitwise equal to ensemble.sim and sim_slotsets); only filling in the
    n x n weights is quadratic in the instances.  Each term is scaled on its
    distinct-value matrix (a gather copies cells, so the bits are the same)
    and the type and slot-set terms are added a block of rows at a time, so
    the weights are the only n x n array until pruning copies them.
    """
    if not instances:
        raise ValueError("need at least one instance")
    texts, text_index = _distinct([inst.expression.text for inst in instances])
    types, type_index = _distinct([inst.event_type for inst in instances])
    slot_sets, set_index = _distinct([frozenset(inst.slot_names) for inst in instances])
    weights = ensemble.matrix(texts, texts)
    weights *= cfg.lambda3
    if len(texts) < len(instances):  # else text_index is the identity
        weights = weights[np.ix_(text_index, text_index)]
    type_term = cfg.lambda4 * ensemble.matrix(types, types)
    slots = SlotSimilarity.of(set().union(*slot_sets), ensemble)
    slot_term = cfg.lambda5 * slotset_matrix(slot_sets, slots)
    for rows in row_blocks(len(instances)):
        weights[rows] += type_term[np.ix_(type_index[rows], type_index)]
        weights[rows] += slot_term[np.ix_(set_index[rows], set_index)]
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
    """The type and representative slots in render_schema's surface form.
    The pipeline writes only canonical names; others, as in a hand-edited
    schemas.jsonl, raise ValueError, as SchemaCandidate refuses them."""
    return render_schema(SchemaCandidate(schema.type_name, schema.slot_names))


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
    names = tuple[str, ...]
    return AggregatedSchema(
        type_name=typed("type", str, record["type"]),
        type_candidates=typed("type_candidates", names, record["type_candidates"]),
        slot_groups=tuple(
            SlotGroup(
                typed("name", str, s["name"]), frozenset(typed("synonyms", names, s["synonyms"]))
            )
            for s in typed("slots", tuple[dict, ...], record["slots"])
        ),
        member_ids=typed("members", names, record["members"]),
    )
