"""Schema graph construction, Louvain clustering, and schema merging.

Run from the repo root:  python3 demos/05_graph_aggregation.py
"""

import numpy as np

from eventframes.aggregate import (
    GraphConfig,
    aggregate,
    build_schema_graph,
    cluster_instances,
    render_aggregated,
)
from eventframes.corpus import EventExpression
from eventframes.louvain import louvain
from eventframes.scoring import SlotRecord, StructuredInstance
from eventframes.similarity import LexiconBackend, SimilarityEnsemble


def member(expr_id, text, event_type, slots, type_consistency=0.8, scores=None):
    records = tuple(
        SlotRecord(s, 1, 0.5, 0.3, 0.8, (scores or {}).get(s, 0.6)) for s in slots
    )
    return StructuredInstance(
        EventExpression.from_text(expr_id, text, "demo"), event_type, records, type_consistency
    )


instances = [
    member("a1", "bombings killed several villagers", "die",
           ["agent", "attacker", "instrument", "victim"],
           type_consistency=0.9, scores={"victim": 0.9}),
    member("a2", "several villagers deceased in bombings", "decease",
           ["agent", "dead", "instrument", "place", "time"], type_consistency=0.7),
    member("b1", "voters elected a new mayor", "elect", ["winner", "ballot"]),
    member("b2", "voters elected a new council", "elect", ["winner", "margin"]),
]

ensemble = SimilarityEnsemble(
    backends=[LexiconBackend([["die", "decease"], ["dead", "victim"]])]
)
# absolute pruning keeps only near-synonym slot edges when merging; the
# default below-mean mode also lets weaker bigram overlaps (time ~ victim)
# pull slots together
cfg = GraphConfig(edge_prune="absolute", prune_tau=0.9)

graph = build_schema_graph(instances, ensemble, cfg)
print("pairwise schema weights (3*text + 1*type + 1*slots, weak edges pruned):")
with np.printoptions(precision=2, suppress=True):
    print(graph.weights)
print()

# the one graph is read twice: Louvain partitions it, and each cluster's slot
# synonyms are merged from the slot similarities it holds
assignment = cluster_instances(instances, graph, seed=1234)
ids = [inst.expression.id for inst in instances]
print("clusters:", dict(zip(ids, assignment.labels)))
print("modularity per pass:", [round(q, 4) for q in assignment.modularity_levels])
print()

schemas = aggregate(instances, assignment, graph, cfg, seed=1234)
for schema in schemas:
    print(render_aggregated(schema))
    print(f"  members: {list(schema.member_ids)}  types seen: {list(schema.type_candidates)}")
    for group in schema.slot_groups:
        if len(group.members) > 1:
            print(f"  merged synonyms: {sorted(group.members)} -> {group.representative!r}")
print()

# the clustering primitive also works on any weighted graph
triangles = np.zeros((6, 6))
for block in (range(3), range(3, 6)):
    for i in block:
        for j in block:
            if i != j:
                triangles[i, j] = 1.0
print("standalone louvain on two disconnected triangles:",
      louvain(triangles, seed=0).labels)
