"""Acceptance gate: every criterion at its stated tolerance.

Each test prints nothing on its own; conftest.py renders one pass/fail line
per criterion in the terminal summary.
"""

import random
import time

import pytest

from eventframes.aggregate import GraphConfig, aggregate, build_schema_graph, cluster_instances
from eventframes.evaluation import ari, bcubed, mention_harness, nmi
from eventframes.louvain import louvain
from eventframes.pipeline import PipelineConfig, read_config, read_stage_file, run_stage
from eventframes.schemas import parse_schema, render_schema
from eventframes.scoring import (
    ScoringConfig,
    SlotRecord,
    StructuredInstance,
    collect_slot_set,
    pagerank,
    reliability,
    salience,
    structuralize,
)
from eventframes.similarity import LexiconBackend, SimilarityEnsemble

from helpers import as_partition, expression, instance
from oracles import (
    best_bipartition,
    direct_modularity,
    pair_counting_ari,
    per_element_bcubed,
    probability_table_nmi,
    random_partition_pair,
    reference_pagerank,
)
from synthetic import build_workspace, planted_mentions
from test_louvain import clique_matrix
from test_schemas import random_candidate
from test_scoring import engineered_corpus, is_connected, union_of_cliques_adjacency


def test_criterion_1_metric_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(424242)
    for _ in range(50):
        gold, pred = random_partition_pair(rng, max_elements=12, max_clusters=5)
        assert ari(gold, pred) == pytest.approx(pair_counting_ari(gold, pred), abs=1e-9)
        assert nmi(gold, pred) == pytest.approx(probability_table_nmi(gold, pred), abs=1e-9)
        for implemented, expected in zip(bcubed(gold, pred), per_element_bcubed(gold, pred)):
            assert implemented == pytest.approx(expected, abs=1e-9)
    assert time.monotonic() - started < 5.0


def test_criterion_2_metric_closed_forms():
    gold = [0, 0, 1, 1, 2]
    relabeled = ["x", "x", "y", "y", "z"]
    assert ari(gold, relabeled) == 1.0
    assert nmi(gold, relabeled) == pytest.approx(1.0)
    assert bcubed(gold, relabeled) == (1.0, 1.0, 1.0)

    assert nmi([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    precision, recall, f1 = bcubed(["a", "a", "b", "b"], [0, 1, 2, 3])
    assert precision == pytest.approx(1.0)
    assert recall == pytest.approx(0.5)
    assert f1 == pytest.approx(2 / 3)


def test_criterion_3_pagerank_reliability():
    single = reliability(collect_slot_set(instance("e", "t", [("t", ["only"])])))
    assert single["only"] == pytest.approx(0.2, abs=1e-12)

    pair = reliability(collect_slot_set(instance("e", "t", [("t", ["a", "b"])])))
    assert pair["a"] == pytest.approx(0.5, abs=1e-6)
    assert pair["b"] == pytest.approx(0.5, abs=1e-6)

    triangle = reliability(collect_slot_set(instance("e", "t", [("t", ["a", "b", "c"])])))
    for value in triangle.values():
        assert value == pytest.approx(1 / 3, abs=1e-6)

    rng = random.Random(31337)
    for _ in range(100):
        adjacency = union_of_cliques_adjacency(rng, max_slots=20)
        scores = pagerank(adjacency, beta=0.8, max_iterations=300, tolerance=1e-6)
        expected, max_changes, _ = reference_pagerank(adjacency, 0.8, 300, 1e-6)
        assert scores == expected
        assert len(max_changes) <= 300
        assert max_changes[-1] < 1e-6
        dangling = [slot for slot in adjacency if not adjacency[slot]]
        if not dangling and is_connected(adjacency):
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)


def test_criterion_4_salience_values():
    assert salience(1, 4, 4) == 0.0
    assert salience(3, 5, 10) == pytest.approx(1.5297, abs=1e-3)
    assert salience(2, 4, 2) < 0.0


def test_criterion_5_louvain_recovery():
    rng = random.Random(555)
    for trial in range(20):
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(2, 5))]
        groups, start = [], 0
        for size in sizes:
            groups.append(list(range(start, start + size)))
            start += size
        result = louvain(clique_matrix(groups, start), seed=trial)
        assert as_partition(result) == {frozenset(g) for g in groups}
        trace = result.modularity_levels
        assert all(later >= earlier - 1e-12 for earlier, later in zip(trace, trace[1:]))

    barbell = clique_matrix([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], 10)
    barbell[4, 5] = barbell[5, 4] = 0.1
    oracle_q, oracle_parts = best_bipartition(barbell)
    result = louvain(barbell, seed=1234)
    assert as_partition(result) == oracle_parts
    assert direct_modularity(barbell, result.labels) == pytest.approx(oracle_q, abs=1e-12)


def test_criterion_6_parser_round_trip():
    rng = random.Random(616161)
    for _ in range(1000):
        candidate = random_candidate(rng)
        assert parse_schema(render_schema(candidate)) == candidate

    parsed = parse_schema("Type: die, Slots: agent; attacker; instrument; victim")
    assert parsed.event_type == "die"
    assert parsed.slots == ("agent", "attacker", "instrument", "victim")


def test_criterion_7_end_to_end_synthetic_run(tmp_path):
    started = time.monotonic()
    paths = build_workspace(tmp_path / "ws")
    cfg = PipelineConfig.from_dict(read_config(paths["config"]))

    first = run_stage("all", cfg, tmp_path / "run1", input_path=paths["corpus"])
    second = run_stage("all", cfg, tmp_path / "run2", input_path=paths["corpus"])

    schemas = read_stage_file(tmp_path / "run1" / "schemas.jsonl", "aggregate")
    assert len(schemas) == 3
    assert first["evaluate"]["metrics"]["ari"] == 1.0
    assert second["evaluate"]["metrics"]["ari"] == 1.0

    predicted = {m: i for i, s in enumerate(schemas) for m in s["members"]}
    assert mention_harness(planted_mentions(), predicted, k=15).ari == 1.0

    first_bytes = (tmp_path / "run1" / "schemas.jsonl").read_bytes()
    second_bytes = (tmp_path / "run2" / "schemas.jsonl").read_bytes()
    assert first_bytes == second_bytes
    assert time.monotonic() - started < 30.0


def test_criterion_8_threshold_semantics():
    instances, ensemble = engineered_corpus()

    structured = structuralize(instances, ScoringConfig(threshold=1 / 3), ensemble)
    kept = {record.slot: record.score for record in structured[0].slots}
    assert set(kept) == {"y"}
    assert kept["y"] == pytest.approx(0.4, abs=1e-12)

    # the dropped slot scored exactly 0.30
    permissive = structuralize(instances, ScoringConfig(threshold=0.0), ensemble)
    scores = {record.slot: record.score for record in permissive[0].slots}
    assert scores["x"] == pytest.approx(0.3, abs=1e-12)

    stricter = structuralize(instances, ScoringConfig(threshold=0.5), ensemble)
    assert stricter[0].slots == ()

    # monotone filtering: each kept set shrinks as the threshold rises
    for lower, higher in [(0.0, 1 / 3), (1 / 3, 0.5)]:
        wide = structuralize(instances, ScoringConfig(threshold=lower), ensemble)
        narrow = structuralize(instances, ScoringConfig(threshold=higher), ensemble)
        for narrow_inst, wide_inst in zip(narrow, wide):
            assert set(narrow_inst.slot_names) <= set(wide_inst.slot_names)


def test_criterion_9_synonym_merged_aggregation():
    def member(expr_id, text, event_type, slots, type_consistency, scores):
        records = tuple(
            SlotRecord(name, 1, 0.0, 0.0, 0.0, scores.get(name, 0.5)) for name in slots
        )
        return StructuredInstance(expression(expr_id, text), event_type, records, type_consistency)

    first = member(
        "s1",
        "bombings killed several villagers",
        "die",
        ["agent", "attacker", "instrument", "victim"],
        type_consistency=0.9,
        scores={"victim": 0.9},
    )
    second = member(
        "s2",
        "several villagers deceased in bombings",
        "decease",
        ["agent", "dead", "instrument", "place", "time"],
        type_consistency=0.7,
        scores={"dead": 0.6},
    )

    ensemble = SimilarityEnsemble(
        backends=[LexiconBackend([["die", "decease"], ["dead", "victim"]])]
    )
    cfg = GraphConfig(edge_prune="absolute", prune_tau=0.9)
    graph = build_schema_graph([first, second], ensemble, cfg)
    assignment = cluster_instances([first, second], graph, seed=1234)
    assert assignment.n_clusters == 1

    schemas = aggregate([first, second], assignment, graph, cfg, seed=1234)
    assert len(schemas) == 1
    schema = schemas[0]
    assert schema.type_name == "die"
    assert set(schema.slot_names) == {"agent", "attacker", "instrument", "place", "time", "victim"}
    merged = next(g for g in schema.slot_groups if g.representative == "victim")
    assert merged.members == frozenset({"dead", "victim"})
