import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eventframes import similarity
from eventframes.aggregate import (
    GraphConfig,
    aggregate,
    aggregated_from_dict,
    aggregated_to_dict,
    build_schema_graph,
    cluster_instances,
    merge_slot_synonyms,
    normalize_type_name,
    prune_edges,
    render_aggregated,
)
from eventframes.louvain import ClusterAssignment
from eventframes.pipeline import PipelineConfig, read_config, read_stage_file, run_stage
from eventframes.scoring import SlotRecord, StructuredInstance, structured_from_dict
from eventframes.similarity import (
    EmbeddingBackend,
    LexicalBackend,
    LexiconBackend,
    SimilarityEnsemble,
    SlotSimilarity,
    default_ensemble,
)

from helpers import expression
from oracles import pairwise_schema_graph
from synthetic import build_workspace


def structured(expr_id, text, event_type, slots, type_consistency=1.0, scores=None):
    records = tuple(
        SlotRecord(
            slot=name,
            freq=1,
            salience=0.0,
            reliability=0.0,
            consistency=0.0,
            score=(scores or {}).get(name, 1.0),
        )
        for name in slots
    )
    return StructuredInstance(expression(expr_id, text), event_type, records, type_consistency)


class TestGraphConfig:
    def test_defaults(self):
        cfg = GraphConfig()
        assert (cfg.lambda3, cfg.lambda4, cfg.lambda5) == (3.0, 1.0, 1.0)
        assert cfg.edge_prune == "below-mean"

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphConfig(lambda3=-1)
        with pytest.raises(ValueError):
            GraphConfig(lambda3=0, lambda4=0, lambda5=0)
        with pytest.raises(ValueError):
            GraphConfig(edge_prune="absolute")
        with pytest.raises(ValueError):
            GraphConfig(edge_prune="best-effort")


class TestBuildSchemaGraph:
    def test_identical_instances_weigh_five(self):
        instances = [
            structured("a", "same text", "die", ["agent"]),
            structured("b", "same text", "die", ["agent"]),
        ]
        graph = build_schema_graph(instances, default_ensemble(), GraphConfig(edge_prune="none"))
        assert graph.weights[0, 1] == pytest.approx(5.0)

    def test_single_instance_has_no_edges(self):
        graph = build_schema_graph(
            [structured("a", "text", "die", [])], default_ensemble(), GraphConfig()
        )
        assert graph.weights.shape[0] == 1
        assert not graph.weights.any()

    def test_matrix_is_symmetric(self):
        instances = [
            structured("a", "rebels attack village", "attack", ["attacker"]),
            structured("b", "voters choose leader", "election", ["winner"]),
            structured("c", "rebels attack convoy", "attack", ["attacker"]),
        ]
        graph = build_schema_graph(instances, default_ensemble(), GraphConfig(edge_prune="none"))
        assert (graph.weights == graph.weights.T).all()
        assert (np.diag(graph.weights) == 0).all()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_schema_graph([], default_ensemble())


class TestPruneEdges:
    def test_below_mean_zeroes_weak_edges(self):
        weights = np.array(
            [[0.0, 4.0, 0.5], [4.0, 0.0, 0.5], [0.5, 0.5, 0.0]]
        )
        pruned = prune_edges(weights, GraphConfig(edge_prune="below-mean"))
        assert pruned[0, 1] == 4.0
        assert pruned[0, 2] == 0.0
        assert pruned[1, 2] == 0.0

    def test_uniform_weights_survive_below_mean(self):
        weights = np.full((3, 3), 2.0)
        np.fill_diagonal(weights, 0.0)
        pruned = prune_edges(weights, GraphConfig(edge_prune="below-mean"))
        assert (pruned == weights).all()

    def test_absolute_threshold(self):
        weights = np.array([[0.0, 0.95, 0.2], [0.95, 0.0, 0.0], [0.2, 0.0, 0.0]])
        pruned = prune_edges(weights, GraphConfig(edge_prune="absolute", prune_tau=0.9))
        assert pruned[0, 1] == 0.95
        assert pruned[0, 2] == 0.0

    def test_none_mode_is_identity(self):
        weights = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert (prune_edges(weights, GraphConfig(edge_prune="none")) == weights).all()


class TestNormalizeTypeName:
    def test_most_frequent_wins(self):
        members = [
            structured("a", "t", "die", []),
            structured("b", "t", "die", []),
            structured("c", "t", "decease", []),
        ]
        assert normalize_type_name(members) == "die"

    def test_single_member(self):
        assert normalize_type_name([structured("a", "t", "resign", [])]) == "resign"

    def test_consistency_tie_break(self):
        members = [
            structured("a", "t", "zebra", [], type_consistency=0.9),
            structured("b", "t", "apple", [], type_consistency=0.2),
        ]
        assert normalize_type_name(members) == "zebra"

    def test_lexicographic_tie_break(self):
        members = [
            structured("a", "t", "b", [], type_consistency=0.5),
            structured("b", "t", "a", [], type_consistency=0.5),
        ]
        assert normalize_type_name(members) == "a"

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            normalize_type_name([])


class TestMergeSlotSynonyms:
    def lexicon_ensemble(self):
        return SimilarityEnsemble(backends=[LexiconBackend([["dead", "victim"]])])

    def test_synonymous_slots_group_with_scored_representative(self):
        groups = merge_slot_synonyms(
            {"dead", "victim"},
            {"victim": 2.0, "dead": 1.0},
            SlotSimilarity.of({"dead", "victim"}, self.lexicon_ensemble()),
        )
        assert len(groups) == 1
        assert groups[0].representative == "victim"
        assert groups[0].members == frozenset({"dead", "victim"})

    def test_dissimilar_slots_stay_apart(self):
        groups = merge_slot_synonyms(
            {"place", "weapon"},
            {},
            SlotSimilarity.of({"place", "weapon"}, default_ensemble()),
            GraphConfig(),
        )
        assert {g.representative for g in groups} == {"place", "weapon"}
        assert all(len(g.members) == 1 for g in groups)

    def test_empty_slot_set(self):
        assert merge_slot_synonyms(set(), {}, SlotSimilarity.of(set(), default_ensemble())) == []

    def test_representative_tie_breaks_lexicographically(self):
        groups = merge_slot_synonyms(
            {"dead", "victim"},
            {"victim": 1.0, "dead": 1.0},
            SlotSimilarity.of({"dead", "victim"}, self.lexicon_ensemble()),
        )
        assert groups[0].representative == "dead"


def two_cluster_instances():
    return [
        structured("a1", "rebels attack village", "attack", ["attacker", "victim"]),
        structured("a2", "rebels attack convoy", "attack", ["attacker", "weapon"]),
        structured("b1", "voters praise election", "election", ["winner"]),
    ]


class TestAggregate:
    def assignment_for(self, instances, labels):
        return ClusterAssignment(labels=tuple(labels), modularity_levels=(0.0,))

    def graph_for(self, instances):
        return build_schema_graph(instances, default_ensemble())

    def test_singleton_cluster_reproduces_member(self):
        instances = [structured("a", "some text", "resign", ["official", "post"])]
        schemas = aggregate(
            instances, self.assignment_for(instances, [0]), self.graph_for(instances)
        )
        assert len(schemas) == 1
        schema = schemas[0]
        assert schema.type_name == "resign"
        assert set(schema.slot_names) <= {"official", "post"}
        assert set().union(*(g.members for g in schema.slot_groups)) == {"official", "post"}
        assert schema.member_ids == ("a",)

    def test_identical_slot_sets_union_idempotent(self):
        instances = [
            structured("a", "one text", "die", ["agent", "victim"]),
            structured("b", "two text", "die", ["agent", "victim"]),
        ]
        schemas = aggregate(
            instances, self.assignment_for(instances, [0, 0]), self.graph_for(instances)
        )
        members = set().union(*(g.members for g in schemas[0].slot_groups))
        assert members == {"agent", "victim"}

    def test_every_slot_lands_in_exactly_one_group(self):
        instances = two_cluster_instances()
        schemas = aggregate(
            instances, self.assignment_for(instances, [0, 0, 1]), self.graph_for(instances)
        )
        for schema in schemas:
            member_instances = [
                i for i in instances if i.expression.id in schema.member_ids
            ]
            slot_union = {r.slot for i in member_instances for r in i.slots}
            seen: list[str] = []
            for group in schema.slot_groups:
                seen.extend(group.members)
            assert sorted(seen) == sorted(slot_union)

    def test_sorted_by_descending_size(self):
        instances = two_cluster_instances()
        schemas = aggregate(
            instances, self.assignment_for(instances, [0, 0, 1]), self.graph_for(instances)
        )
        assert [len(s.member_ids) for s in schemas] == [2, 1]

    def test_type_candidates_keep_multiplicity(self):
        instances = [
            structured("a", "t", "die", []),
            structured("b", "t", "die", []),
            structured("c", "t", "decease", []),
        ]
        schemas = aggregate(
            instances, self.assignment_for(instances, [0, 0, 0]), self.graph_for(instances)
        )
        assert schemas[0].type_candidates == ("decease", "die", "die")

    def test_assignment_must_cover(self):
        instances = two_cluster_instances()
        with pytest.raises(ValueError):
            aggregate(
                instances, self.assignment_for(instances[:2], [0, 0]), self.graph_for(instances)
            )


class TestClusterInstances:
    def test_separated_groups_found(self):
        instances = [
            structured("a1", "rebels attack village", "attack", ["attacker", "victim"]),
            structured("a2", "rebels attack convoy", "attack", ["attacker", "victim"]),
            structured("b1", "citizens praise election", "election", ["winner", "country"]),
            structured("b2", "citizens praise leader", "election", ["winner", "country"]),
        ]
        graph = build_schema_graph(instances, default_ensemble())
        assignment = cluster_instances(instances, graph, seed=1234)
        ids = [inst.expression.id for inst in instances]
        groups = {frozenset(ids[i] for i in g) for g in assignment.groups()}
        assert groups == {frozenset({"a1", "a2"}), frozenset({"b1", "b2"})}

    def test_prebuilt_graph_gives_the_same_assignment(self):
        instances = two_cluster_instances()
        ensemble, cfg = default_ensemble(), GraphConfig()
        graph = build_schema_graph(instances, ensemble, cfg)
        for seed in (0, 7, 1234):
            assert cluster_instances(instances, graph, seed) == (
                cluster_instances(instances, build_schema_graph(instances, ensemble, cfg), seed)
            )


class TestRenderingAndSerialization:
    def test_render_matches_surface_form(self):
        instances = [structured("a", "t", "die", ["agent", "victim"])]
        schemas = aggregate(
            instances,
            ClusterAssignment(labels=(0,), modularity_levels=(0.0,)),
            build_schema_graph(instances, default_ensemble()),
        )
        rendered = render_aggregated(schemas[0])
        assert rendered.startswith("Type: die, Slots: ")
        assert "agent" in rendered and "victim" in rendered

    def test_render_empty_slots(self):
        instances = [structured("a", "t", "die", [])]
        schemas = aggregate(
            instances,
            ClusterAssignment(labels=(0,), modularity_levels=(0.0,)),
            build_schema_graph(instances, default_ensemble()),
        )
        assert render_aggregated(schemas[0]) == "Type: die, Slots:"

    def test_dict_roundtrip(self):
        instances = two_cluster_instances()
        assignment = ClusterAssignment(labels=(0, 0, 1), modularity_levels=(0.0,))
        graph = build_schema_graph(instances, default_ensemble())
        for schema in aggregate(instances, assignment, graph):
            assert aggregated_from_dict(aggregated_to_dict(schema)) == schema


# -- the batched schema graph against the per-pair oracle --------------------

GRAPH_CONFIGS = [
    GraphConfig(edge_prune="none"),
    GraphConfig(),
    GraphConfig(edge_prune="absolute", prune_tau=2.5),
    GraphConfig(lambda3=2, lambda4=0.5, lambda5=1.5, edge_prune="none"),
]
SLOT_VOCAB = [
    "agent", "attacker", "victim", "target", "weapon", "place", "site", "time",
    "winner", "Winner", "loser", "a", "ab",
]


def three_backend_ensemble() -> SimilarityEnsemble:
    lexicon = LexiconBackend([["attacker", "agent"], ["site", "place"], ["winner", "victor"]])
    vectors = {
        "rebels": [1.0, 0.2, 0.0], "attack": [0.9, 0.1, 0.3], "voters": [0.0, 1.0, 0.5],
        "election": [0.1, 0.8, 0.6], "victim": [0.5, -0.5, 0.25], "site": [0.3, 0.3, -1.0],
        "a": [1.0, 0.0, 0.0], "ab": [-1.0, 0.0, 0.0],
    }
    return SimilarityEnsemble(
        backends=[LexicalBackend(), lexicon, EmbeddingBackend(vectors)], weights=[0.5, 0.25, 0.25]
    )


def ensembles():
    return {"lexical": default_ensemble(), "three-backend": three_backend_ensemble()}


def assert_graph_matches_oracle(instances, ensemble_name, cfg):
    batched = build_schema_graph(instances, ensembles()[ensemble_name], cfg).weights
    reference = pairwise_schema_graph(instances, ensembles()[ensemble_name], cfg)
    assert batched.shape == reference.shape
    assert batched.tobytes() == reference.tobytes()


@pytest.fixture(scope="module")
def synthetic_instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic")
    paths = build_workspace(root / "ws")
    cfg = PipelineConfig.from_dict(read_config(paths["config"]))
    for stage in ("ingest", "conceptualize", "structuralize"):
        run_stage(stage, cfg, root / "out", input_path=paths["corpus"])
    records = read_stage_file(root / "out" / "structured.jsonl", "structuralize")
    return [structured_from_dict(r) for r in records]


instance_lists = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["rebels", "attack", "Attack", "voters", "election", "a"]),
                 max_size=4).map(" ".join),
        st.sampled_from(["attack", "assault", "election", "vote", "a", "Attack"]),
        st.lists(st.sampled_from(SLOT_VOCAB), max_size=10, unique=True),
    ),
    min_size=1,
    max_size=8,
).map(lambda rows: [structured(f"e{i}", *row) for i, row in enumerate(rows)])


class TestGraphMatchesPairwiseOracle:
    @pytest.mark.parametrize("ensemble_name", list(ensembles()))
    @pytest.mark.parametrize("cfg", GRAPH_CONFIGS)
    def test_synthetic_fixture(self, synthetic_instances, ensemble_name, cfg):
        assert len(synthetic_instances) == 30
        assert_graph_matches_oracle(synthetic_instances, ensemble_name, cfg)

    @given(instance_lists, st.sampled_from(GRAPH_CONFIGS), st.sampled_from(list(ensembles())))
    @settings(max_examples=200, deadline=None)
    def test_generated_instances(self, instances, cfg, ensemble_name):
        assert_graph_matches_oracle(instances, ensemble_name, cfg)

    def test_large_slot_sets_keep_sequential_sums(self):
        # Eight or more members is where np.sum's pairwise summation reorders
        # the best-match sum; on this pair it changes the last bit.
        instances = [
            structured(
                "x", "rebels attack", "attack",
                ["Winner", "ab", "attacker", "loser", "place", "target", "weapon", "winner"],
            ),
            structured("y", "voters", "election", ["ab", "attacker", "victim", "weapon"]),
        ]
        for cfg in GRAPH_CONFIGS:
            for ensemble_name in ensembles():
                assert_graph_matches_oracle(instances, ensemble_name, cfg)


def with_texts(instances, texts):
    return [
        structured(f"e{i}", text, inst.event_type, inst.slot_names)
        for i, (inst, text) in enumerate(zip(instances, texts))
    ]


def distinct_texts(instances):
    """Each text made unique by a trailing token."""
    return [f"{inst.expression.text} w{i}" for i, inst in enumerate(instances)]


def repeated_texts(instances):
    """The texts of the even instances, each used twice."""
    return [instances[i - i % 2].expression.text for i in range(len(instances))]


class TestGraphInRowBlocks:
    """The type and slot-set terms are added a block of rows at a time; the
    text term is gathered only when texts repeat."""

    @pytest.fixture(params=[1, 2, 3])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(similarity, "BLOCK_ROWS", request.param)
        return request.param

    @given(
        instance_lists,
        st.sampled_from(GRAPH_CONFIGS),
        st.sampled_from(list(ensembles())),
        st.sampled_from([None, distinct_texts, repeated_texts]),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_generated_instances(self, block_rows, instances, cfg, ensemble_name, texts):
        if texts is None:
            texts = [inst.expression.text for inst in instances]
        else:
            texts = texts(instances)
        assert_graph_matches_oracle(with_texts(instances, texts), ensemble_name, cfg)

    @pytest.mark.parametrize("texts", [distinct_texts, repeated_texts], ids=["distinct", "repeated"])
    def test_synthetic_fixture(self, synthetic_instances, block_rows, texts):
        instances = with_texts(synthetic_instances, texts(synthetic_instances))
        distinct = {inst.expression.text for inst in instances}
        assert len(distinct) == (30 if texts is distinct_texts else 15)
        for ensemble_name in ensembles():
            assert_graph_matches_oracle(instances, ensemble_name, GraphConfig())


# -- slot similarities kept on the graph against per-cluster ones -------------


def assert_slot_reuse_matches(instances, ensemble_name, cfg):
    ensemble = ensembles()[ensemble_name]
    graph = build_schema_graph(instances, ensemble, cfg)
    assignment = cluster_instances(instances, graph, 1234)
    for group in assignment.groups():
        names = sorted({slot for i in group for slot in instances[i].slot_names})
        sliced = graph.slots.among(names)
        assert sliced.tobytes() == ensemble.matrix(names, names).tobytes()
    reused = aggregate(instances, assignment, graph, cfg, 1234)
    # Each cluster's slot groups equal a merge given only that cluster's slot
    # similarities, computed afresh.
    per_cluster = {}
    for group in assignment.groups():
        members = [instances[i] for i in group]
        slot_scores: dict[str, float] = {}
        for inst in members:
            for record in inst.slots:
                slot_scores[record.slot] = slot_scores.get(record.slot, 0.0) + record.score
        similarity = SlotSimilarity.of(slot_scores, ensembles()[ensemble_name])
        per_cluster[tuple(inst.expression.id for inst in members)] = tuple(
            merge_slot_synonyms(set(slot_scores), slot_scores, similarity, cfg, 1234)
        )
    assert {schema.member_ids: schema.slot_groups for schema in reused} == per_cluster


class TestSlotSimilarityReuse:
    @pytest.mark.parametrize("ensemble_name", list(ensembles()))
    def test_synthetic_fixture(self, synthetic_instances, ensemble_name):
        assert_slot_reuse_matches(synthetic_instances, ensemble_name, GraphConfig())

    @given(instance_lists, st.sampled_from(GRAPH_CONFIGS), st.sampled_from(list(ensembles())))
    @settings(max_examples=100, deadline=None)
    def test_generated_instances(self, instances, cfg, ensemble_name):
        assert_slot_reuse_matches(instances, ensemble_name, cfg)

    def test_vocabulary_is_every_slot(self):
        instances = two_cluster_instances()
        graph = build_schema_graph(instances, default_ensemble())
        assert graph.slots.vocabulary == tuple(
            sorted({slot for inst in instances for slot in inst.slot_names})
        )
