"""Peak traced memory of the aggregate path at graph-large's size, in units of
one n x n float64 array, and of loading a vector table, in units of the
table's float64 components.

The schema graph build holds the weights and, while pruning copies them, the
pruned graph; Louvain's intake holds its CSR arrays.  Everything else grows
with a block of rows (`similarity.BLOCK_ROWS`), not with n x n.  A vector
table is read into one array, beside which the loader holds its tokens and
numpy's reader its growing buffer.
"""

import random
import tracemalloc

import numpy as np

from eventframes.aggregate import SchemaGraph, build_schema_graph, cluster_instances
from eventframes.similarity import EmbeddingBackend, SlotSimilarity, default_ensemble

from test_aggregate import structured
from test_louvain import planted_graph

TYPES, PER_TYPE = 12, 32


def planted_instances(seed: int) -> list:
    """graph-large's shape: per planted type, distinct texts of an agent, the
    type word, an object and six of 80 shared fillers; one or both of the
    type's two slot names; a tenth of the types wrong."""
    rng = random.Random(seed)
    fillers = [f"filler{k}" for k in range(80)]
    texts: set[str] = set()
    instances = []
    for t in range(TYPES):
        for _ in range(PER_TYPE):
            text = None
            while text is None or text in texts:
                words = [rng.choice([f"agent{t}x", f"agent{t}y"]), f"type{t}",
                         rng.choice([f"object{t}{k}" for k in range(4)])]
                text = " ".join(words + rng.choices(fillers, k=6))
            texts.add(text)
            event_type = f"type{rng.randrange(TYPES) if rng.random() < 0.1 else t}"
            slots = rng.choice([[f"slot{t}a"], [f"slot{t}b"], [f"slot{t}a", f"slot{t}b"]])
            instances.append(structured(f"x{len(instances):05d}", text, event_type, slots))
    return instances


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAggregateMemory:
    n = TYPES * PER_TYPE
    unit = n * n * 8

    def test_build_schema_graph_peak(self):
        instances = planted_instances(1)
        peak = traced_peak(lambda: build_schema_graph(instances, default_ensemble()))
        assert peak / self.unit <= 3.0

    def test_cluster_instances_peak(self):
        instances = planted_instances(1)
        graph = SchemaGraph(
            weights=planted_graph(types=TYPES, per_type=PER_TYPE, seed=1),
            slots=SlotSimilarity((), np.zeros((0, 0))),
        )
        peak = traced_peak(lambda: cluster_instances(instances, graph, 1234))
        assert peak / self.unit <= 3.5


class TestVectorTableMemory:
    tokens, dim = 20_000, 50
    unit = tokens * dim * 8

    def test_from_file_peak(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "vectors.txt"
        path.write_text(
            "".join(f"tok{i} " + " ".join(f"{v:.5f}" for v in row) + "\n"
                    for i, row in enumerate(rng.normal(size=(self.tokens, self.dim)).tolist())),
            encoding="utf-8",
        )
        peak = traced_peak(lambda: EmbeddingBackend.from_file(path))
        assert peak / self.unit <= 2.0
