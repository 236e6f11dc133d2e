import math
import random

import pytest

from eventframes.scoring import (
    LOG_OF_SQUARE,
    ScoringConfig,
    collect_slot_set,
    consistency,
    cooccurrence_graph,
    global_slot_frequencies,
    pagerank,
    reliability,
    salience,
    score,
    select_event_type,
    structuralize,
    structured_from_dict,
    structured_to_dict,
    type_similarities,
)
from eventframes.similarity import SimilarityEnsemble, default_ensemble

from helpers import instance, table_ensemble
from oracles import reference_pagerank


class TestCollectSlotSet:
    def test_frequency_counts_candidates(self):
        inst = instance("e", "text", [("die", ["a", "b"]), ("die", ["b", "c"])])
        slot_set = collect_slot_set(inst)
        assert dict(slot_set.freq) == {"a": 1, "b": 2, "c": 1}

    def test_singleton(self):
        inst = instance("e", "text", [("t", ["x"])])
        assert dict(collect_slot_set(inst).freq) == {"x": 1}

    def test_all_empty_candidates(self):
        inst = instance("e", "text", [("t", []), ("t", [])])
        slot_set = collect_slot_set(inst)
        assert len(slot_set) == 0

    def test_membership_retained_per_candidate(self):
        inst = instance("e", "text", [("t", ["a", "b"]), ("t", ["b"])])
        assert collect_slot_set(inst).members == (frozenset({"a", "b"}), frozenset({"b"}))


class TestGlobalSlotFrequencies:
    def test_totals_sum_instance_frequencies(self):
        instances = [
            instance("e1", "t1", [("t", ["victim"]), ("t", ["victim"])]),
            instance("e2", "t2", [("t", ["victim"])]),
        ]
        totals, size = global_slot_frequencies([collect_slot_set(i) for i in instances])
        assert totals == {"victim": 3}
        assert size == 2

    def test_absent_slot_not_in_map(self):
        totals, _ = global_slot_frequencies([collect_slot_set(instance("e", "t", [("t", ["a"])]))])
        assert "b" not in totals

    def test_single_instance_identity(self):
        inst = instance("e", "t", [("t", ["a", "b"]), ("t", ["a"])])
        totals, size = global_slot_frequencies([collect_slot_set(inst)])
        assert totals == dict(collect_slot_set(inst).freq)
        assert size == 1


class TestSalience:
    def test_forced_zero(self):
        # freq 1 in all 4 instances: TF factor 1, IDF factor ln(4/4) = 0
        assert salience(1, 4, 4) == 0.0

    def test_hand_computed_value(self):
        # (1 + (ln 3)^2) * ln(10/5), frozen from hand evaluation
        assert salience(3, 5, 10) == pytest.approx(1.5297, abs=1e-3)

    def test_negative_idf(self):
        # (1 + (ln 2)^2) * ln(2/4), frozen from hand evaluation
        value = salience(2, 4, 2)
        assert value == pytest.approx(-1.0262, abs=1e-3)
        assert value < 0

    def test_log_of_square_variant(self):
        cfg = ScoringConfig(tf_variant=LOG_OF_SQUARE)
        expected = (1 + 2 * math.log(3)) * math.log(2)
        assert salience(3, 5, 10, cfg) == pytest.approx(expected)

    def test_log_base_config(self):
        cfg = ScoringConfig(log_base=2.0)
        expected = (1 + math.log2(3) ** 2) * math.log2(2)
        assert salience(3, 5, 10, cfg) == pytest.approx(expected)

    def test_precondition(self):
        with pytest.raises(ValueError):
            salience(3, 2, 10)
        with pytest.raises(ValueError):
            salience(0, 0, 10)


def union_of_cliques_adjacency(rng, max_slots=20):
    n_slots = rng.randint(1, max_slots)
    slots = [f"s{i}" for i in range(n_slots)]
    groups = [
        rng.sample(slots, rng.randint(1, n_slots)) for _ in range(rng.randint(1, 5))
    ]
    covered = {s for group in groups for s in group}
    groups.append([s for s in slots if s not in covered])
    adjacency = {s: {} for s in slots}
    for group in groups:
        ordered = sorted(group)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                adjacency[a][b] = 1.0
                adjacency[b][a] = 1.0
    return adjacency


def is_connected(adjacency):
    nodes = sorted(adjacency)
    if not nodes:
        return True
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(nodes)


class TestReliability:
    def test_single_slot_teleport_only(self):
        scores = reliability(collect_slot_set(instance("e", "t", [("t", ["only"])])))
        assert scores["only"] == pytest.approx(0.2, abs=1e-12)

    def test_symmetric_pair(self):
        scores = reliability(collect_slot_set(instance("e", "t", [("t", ["a", "b"])])))
        assert scores["a"] == pytest.approx(0.5, abs=1e-6)
        assert scores["b"] == pytest.approx(0.5, abs=1e-6)

    def test_symmetric_triangle(self):
        scores = reliability(collect_slot_set(instance("e", "t", [("t", ["a", "b", "c"])])))
        for value in scores.values():
            assert value == pytest.approx(1 / 3, abs=1e-6)

    def test_empty_slot_set(self):
        assert reliability(collect_slot_set(instance("e", "t", [("t", [])]))) == {}

    def test_dangling_slot_gets_teleport_only(self):
        inst = instance("e", "t", [("t", ["a", "b"]), ("t", ["lone"])])
        scores = reliability(collect_slot_set(inst))
        assert scores["lone"] == pytest.approx(0.2 / 3, abs=1e-12)

    def test_weighted_cooccurrence_flag(self):
        inst = instance("e", "t", [("t", ["a", "b"]), ("t", ["a", "b"]), ("t", ["a", "c"])])
        binary = cooccurrence_graph(collect_slot_set(inst), weighted=False)
        weighted = cooccurrence_graph(collect_slot_set(inst), weighted=True)
        assert binary["a"]["b"] == 1.0
        assert weighted["a"]["b"] == 2.0

    def test_random_slot_sets_converge_and_conserve(self):
        rng = random.Random(99)
        for _ in range(200):
            adjacency = union_of_cliques_adjacency(rng)
            scores = pagerank(adjacency, beta=0.8, max_iterations=300, tolerance=1e-6)
            expected, max_changes, _ = reference_pagerank(adjacency, 0.8, 300, 1e-6)
            assert scores == expected
            assert len(max_changes) <= 300
            assert max_changes[-1] < 1e-6
            assert all(0.0 <= value <= 1.0 for value in scores.values())
            dangling = [s for s in adjacency if not adjacency[s]]
            if not dangling and is_connected(adjacency):
                assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_matches_reference_bitwise(self):
        rng = random.Random(99)
        for weighted in (False, True):
            for _ in range(100):
                adjacency = union_of_cliques_adjacency(rng)
                if weighted:
                    adjacency = {
                        a: {b: float(rng.randint(1, 4)) for b in sorted(row)}
                        for a, row in adjacency.items()
                    }
                scores = pagerank(adjacency, beta=0.8, max_iterations=300, tolerance=1e-6)
                expected, max_changes, _ = reference_pagerank(adjacency, 0.8, 300, 1e-6)
                assert scores == expected
                assert len(max_changes) <= 300
                assert max_changes[-1] < 1e-6

    def test_l1_change_contracts(self):
        rng = random.Random(1234)
        for _ in range(200):
            adjacency = union_of_cliques_adjacency(rng)
            scores = pagerank(adjacency, beta=0.8, max_iterations=300, tolerance=1e-6)
            expected, _, l1_changes = reference_pagerank(adjacency, 0.8, 300, 1e-6)
            assert scores == expected
            for earlier, later in zip(l1_changes, l1_changes[1:]):
                assert later <= earlier + 1e-12


class TestConsistency:
    def test_single_candidate(self):
        inst = instance("e", "the text", [("die", ["agent"])])
        ensemble = table_ensemble({("die", "the text"): 0.42})
        type_sims = type_similarities([inst], ensemble)[0]
        assert consistency("agent", inst, type_sims) == pytest.approx(0.42)

    def test_max_over_containing_candidates(self):
        inst = instance("e", "the text", [("die", ["agent"]), ("perish", ["agent"])])
        ensemble = table_ensemble({("die", "the text"): 0.4, ("perish", "the text"): 0.7})
        type_sims = type_similarities([inst], ensemble)[0]
        assert consistency("agent", inst, type_sims) == pytest.approx(0.7)

    def test_restricted_to_candidates_with_slot(self):
        inst = instance("e", "the text", [("die", ["agent"]), ("perish", ["victim"])])
        ensemble = table_ensemble({("die", "the text"): 0.4, ("perish", "the text"): 0.9})
        type_sims = type_similarities([inst], ensemble)[0]
        assert consistency("agent", inst, type_sims) == pytest.approx(0.4)

    def test_type_equal_to_text_gives_one(self):
        inst = instance("e", "die", [("die", ["agent"])])
        assert consistency("agent", inst, type_similarities([inst], table_ensemble({}))[0]) == 1.0

    def test_absent_slot_rejected(self):
        inst = instance("e", "text", [("die", ["agent"])])
        with pytest.raises(ValueError):
            consistency("ghost", inst, type_similarities([inst], table_ensemble({}))[0])


class TestScore:
    def test_arithmetic(self):
        assert score(salience=1.5, reliability=0.5, consistency=0.5) == pytest.approx(1.0)

    def test_zero_consistency_zeroes_score(self):
        assert score(salience=9.0, reliability=1.0, consistency=0.0) == 0.0

    def test_lambda_weights(self):
        cfg = ScoringConfig(lambda1=0.0, lambda2=2.0)
        assert score(salience=2.0, reliability=0.5, consistency=1.0, cfg=cfg) == pytest.approx(1.0)


class TestSelectEventType:
    def test_single_candidate(self):
        inst = instance("e", "text", [("die", ["a"])])
        assert select_event_type(inst, type_similarities([inst], table_ensemble({}))[0])[0] == "die"

    def test_argmax_of_similarity(self):
        inst = instance("e", "text", [("die", ["a"]), ("go", ["b"])])
        ensemble = table_ensemble({("die", "text"): 0.9, ("go", "text"): 0.3})
        event_type, sim = select_event_type(inst, type_similarities([inst], ensemble)[0])
        assert event_type == "die"
        assert sim == pytest.approx(0.9)

    def test_frequency_tie_break(self):
        inst = instance("e", "text", [("a", []), ("a", []), ("b", [])])
        assert select_event_type(inst, type_similarities([inst], table_ensemble({}))[0])[0] == "a"

    def test_lexicographic_tie_break(self):
        inst = instance("e", "text", [("b", []), ("a", [])])
        assert select_event_type(inst, type_similarities([inst], table_ensemble({}))[0])[0] == "a"

    def test_invariant_under_candidate_order(self):
        rng = random.Random(5)
        candidates = [("t3", ["x"]), ("t1", ["y"]), ("t2", ["z"]), ("t1", ["w"])]
        ensemble = table_ensemble({("t1", "text"): 0.4, ("t2", "text"): 0.4, ("t3", "text"): 0.2})
        inst = instance("e", "text", candidates)
        baseline = select_event_type(inst, type_similarities([inst], ensemble)[0])
        for _ in range(10):
            rng.shuffle(candidates)
            inst = instance("e", "text", candidates)
            assert select_event_type(inst, type_similarities([inst], ensemble)[0]) == baseline


def engineered_corpus():
    """Instance e0 carries slots x and y with exact scores 0.3 and 0.4.

    Totals are tuned so salience is exactly 0 (IDF term ln(4/4)), the x-y
    pair gives reliability exactly 0.5, and the table similarities 0.6 / 0.8
    supply the consistencies.
    """
    target = instance("e0", "text zero", [("t1", ["x", "y"]), ("t2", ["y"])])
    fillers = [
        instance("e1", "one", [("f", ["x"])]),
        instance("e2", "two", [("f", ["x"])]),
        instance("e3", "three", [("f", ["x", "y"]), ("f", ["y"])]),
    ]
    ensemble = table_ensemble({("t1", "text zero"): 0.6, ("t2", "text zero"): 0.8})
    return [target] + fillers, ensemble


class TestStructuralize:
    def test_engineered_scores_and_threshold(self):
        instances, ensemble = engineered_corpus()
        structured = structuralize(instances, ScoringConfig(), ensemble)
        target = structured[0]
        by_name = {r.slot: r for r in target.slots}
        assert "x" not in by_name  # scored exactly 0.3 < 1/3
        assert by_name["y"].score == pytest.approx(0.4, abs=1e-12)
        assert target.event_type == "t2"
        assert target.type_consistency == pytest.approx(0.8)

    def test_raising_threshold_removes_all(self):
        instances, ensemble = engineered_corpus()
        structured = structuralize(instances, ScoringConfig(threshold=0.5), ensemble)
        assert structured[0].slots == ()
        assert structured[0].event_type == "t2"  # type-only schema survives

    def test_threshold_monotonicity(self):
        rng = random.Random(11)
        instances = []
        for i in range(12):
            candidates = [
                (
                    rng.choice(["die", "attack", "vote"]),
                    rng.sample(["agent", "victim", "place", "time", "weapon"], rng.randint(0, 4)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            instances.append(instance(f"e{i}", f"text {i} die attack vote", candidates))
        ensemble = default_ensemble()
        for low, high in [(0.0, 0.2), (0.2, 1 / 3), (1 / 3, 0.6)]:
            kept_low = [
                set(s.slot_names)
                for s in structuralize(instances, ScoringConfig(threshold=low), ensemble)
            ]
            kept_high = [
                set(s.slot_names)
                for s in structuralize(instances, ScoringConfig(threshold=high), ensemble)
            ]
            for narrow, wide in zip(kept_high, kept_low):
                assert narrow <= wide

    def test_one_lookup_per_distinct_candidate_type(self, monkeypatch):
        # One matrix row per distinct candidate type, over the texts that
        # name it: each distinct (type, text) pair is scored exactly once.
        instances, ensemble = engineered_corpus()
        rows, sims = [], []
        matrix, sim = SimilarityEnsemble.matrix, SimilarityEnsemble.sim

        def counted_matrix(self, xs, ys):
            rows.append((list(xs), list(ys)))
            return matrix(self, xs, ys)

        def counted_sim(self, a, b):
            sims.append((a, b))
            return sim(self, a, b)

        monkeypatch.setattr(SimilarityEnsemble, "matrix", counted_matrix)
        monkeypatch.setattr(SimilarityEnsemble, "sim", counted_sim)
        structuralize(instances, ScoringConfig(), ensemble)
        candidates = [(c.event_type, inst.expression.text) for inst in instances
                      for c in inst.candidates]
        assert sorted(xs for xs, _ in rows) == [["f"], ["t1"], ["t2"]]
        scored = sorted((x, y) for xs, ys in rows for x in xs for y in ys)
        assert scored == sorted(set(candidates)) and len(scored) == 5
        assert sims == []

    def test_deterministic(self):
        instances, ensemble = engineered_corpus()
        assert structuralize(instances, ScoringConfig(), ensemble) == structuralize(
            instances, ScoringConfig(), ensemble
        )

    def test_score_recomputable_from_factors(self):
        instances, ensemble = engineered_corpus()
        cfg = ScoringConfig()
        for structured in structuralize(instances, cfg, ensemble):
            for record in structured.slots:
                factors = (record.salience, record.reliability, record.consistency)
                assert record.score == pytest.approx(score(*factors, cfg))

    def test_serialization_roundtrip(self):
        instances, ensemble = engineered_corpus()
        for structured in structuralize(instances, ScoringConfig(), ensemble):
            record = structured_to_dict(structured)
            loaded = structured_from_dict(record)
            assert loaded.event_type == structured.event_type
            assert loaded.slots == structured.slots
            assert loaded.expression.id == structured.expression.id
            assert loaded.expression.text == structured.expression.text


class TestScoringConfig:
    def test_defaults(self):
        cfg = ScoringConfig()
        assert cfg.lambda1 == 1.0
        assert cfg.lambda2 == 1.0
        assert cfg.beta == 0.8
        assert cfg.max_iterations == 300
        assert cfg.tolerance == 1e-6
        assert cfg.threshold == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoringConfig(beta=1.0)
        with pytest.raises(ValueError):
            ScoringConfig(tf_variant="mystery")
