import json
import random

import pytest

from eventframes.evaluation import (
    ClusteringMetrics,
    PartitionInputError,
    ari,
    average_metrics,
    bcubed,
    load_gold_mentions,
    mention_harness,
    metrics_table,
    nmi,
    score_partition,
    top_k_types,
)

from oracles import (
    pair_counting_ari,
    per_element_bcubed,
    probability_table_nmi,
    random_partition_pair,
)


class TestAri:
    def test_identical_partitions(self):
        assert ari([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0

    def test_pairs_vs_singletons_matches_pair_counting_oracle(self):
        gold = ["a", "a", "b", "b"]
        pred = [0, 1, 2, 3]
        assert ari(gold, pred) == pytest.approx(pair_counting_ari(gold, pred), abs=1e-12)
        assert ari(gold, pred) == pytest.approx(0.0)

    def test_label_permutation_invariance(self):
        rng = random.Random(0)
        gold, pred = [0, 1, 0, 2, 1, 2], [1, 1, 0, 0, 2, 2]
        baseline = ari(gold, pred)
        for _ in range(5):
            mapping = {label: f"renamed-{rng.random()}" for label in set(pred)}
            assert ari(gold, [mapping[p] for p in pred]) == pytest.approx(baseline)

    def test_degenerate_single_cluster_both(self):
        assert ari([0, 0, 0], [7, 7, 7]) == 1.0

    def test_degenerate_not_identical(self):
        # both all-singletons vs ... all-singletons is identical; construct the
        # mixed degenerate case with n=1 handled by identical rule
        assert ari([0], [3]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(PartitionInputError):
            ari([0, 1], [0])


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_single_cluster_pred_vs_multi_gold(self):
        assert nmi([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_symmetry(self):
        rng = random.Random(4)
        for _ in range(20):
            gold, pred = random_partition_pair(rng)
            assert nmi(gold, pred) == pytest.approx(nmi(pred, gold), abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi([0, 0], [1, 1]) == 1.0


class TestBcubed:
    def test_identical_partitions(self):
        assert bcubed([0, 1, 1], [2, 0, 0]) == (1.0, 1.0, 1.0)

    def test_gold_pairs_vs_singletons(self):
        precision, recall, f1 = bcubed(["a", "a", "b", "b"], [0, 1, 2, 3])
        assert precision == pytest.approx(1.0)
        assert recall == pytest.approx(0.5)
        assert f1 == pytest.approx(2 / 3)

    def test_merging_gold_clusters_only_lowers_precision(self):
        gold = [0, 0, 1, 1]
        split = [0, 0, 1, 1]
        merged = [0, 0, 0, 0]
        p_split, r_split, _ = bcubed(gold, split)
        p_merged, r_merged, _ = bcubed(gold, merged)
        assert p_merged < p_split
        assert r_merged == pytest.approx(r_split)

    def test_precision_recall_swap_when_arguments_swap(self):
        rng = random.Random(8)
        for _ in range(20):
            gold, pred = random_partition_pair(rng)
            p, r, _ = bcubed(gold, pred)
            p_swapped, r_swapped, _ = bcubed(pred, gold)
            assert p == pytest.approx(r_swapped, abs=1e-12)
            assert r == pytest.approx(p_swapped, abs=1e-12)


class TestOracleEquivalence:
    def test_fifty_random_pairs_within_1e9(self):
        rng = random.Random(20240501)
        for _ in range(50):
            gold, pred = random_partition_pair(rng, max_elements=12, max_clusters=5)
            assert ari(gold, pred) == pytest.approx(pair_counting_ari(gold, pred), abs=1e-9)
            assert nmi(gold, pred) == pytest.approx(probability_table_nmi(gold, pred), abs=1e-9)
            for impl, oracle in zip(bcubed(gold, pred), per_element_bcubed(gold, pred)):
                assert impl == pytest.approx(oracle, abs=1e-9)

    def test_ari_matches_oracle_on_every_partition_pair_up_to_five(self):
        # Every pair, so both degenerate kinds (both one cluster, both all
        # singletons) at every n.
        def partitions(n):
            # Restricted growth strings: each label at most one above the
            # largest before it, so each set partition appears once.
            if n == 0:
                yield []
                return
            for head in partitions(n - 1):
                for label in range(max(head, default=-1) + 2):
                    yield [*head, label]

        for n in range(1, 6):
            every = list(partitions(n))
            for gold in every:
                for pred in every:
                    expected = pair_counting_ari(gold, pred)
                    assert ari(gold, pred) == pytest.approx(expected, abs=1e-12), (gold, pred)

    def test_all_metrics_invariant_under_relabeling(self):
        rng = random.Random(6060)
        for _ in range(20):
            gold, pred = random_partition_pair(rng)
            gold_map = {g: f"g{rng.random()}" for g in set(gold)}
            pred_map = {p: f"p{rng.random()}" for p in set(pred)}
            renamed_gold = [gold_map[g] for g in gold]
            renamed_pred = [pred_map[p] for p in pred]
            assert ari(renamed_gold, renamed_pred) == pytest.approx(ari(gold, pred), abs=1e-12)
            assert nmi(renamed_gold, renamed_pred) == pytest.approx(nmi(gold, pred), abs=1e-12)
            for renamed, original in zip(
                bcubed(renamed_gold, renamed_pred), bcubed(gold, pred)
            ):
                assert renamed == pytest.approx(original, abs=1e-12)


GOLD_MENTIONS = [
    ("m1", "attack"),
    ("m2", "attack"),
    ("m3", "attack"),
    ("m4", "election"),
    ("m5", "election"),
    ("m6", "marriage"),
]


class TestMentionHarness:
    def predicted(self):
        return {"m1": 0, "m2": 0, "m3": 0, "m4": 1, "m5": 1, "m6": 2}

    def test_perfect_assignment(self):
        metrics = mention_harness(GOLD_MENTIONS, self.predicted(), k=15)
        assert metrics.ari == 1.0
        assert metrics.nmi == pytest.approx(1.0)
        assert metrics.bcubed_f1 == pytest.approx(1.0)

    def test_k_larger_than_type_count_keeps_all(self):
        all_types = mention_harness(GOLD_MENTIONS, self.predicted(), k=50)
        assert all_types == mention_harness(GOLD_MENTIONS, self.predicted(), k=3)

    def test_k_restricts_to_most_frequent(self):
        assert top_k_types(GOLD_MENTIONS, 1) == ["attack"]
        assert top_k_types(GOLD_MENTIONS, 2) == ["attack", "election"]
        # tie between election (2) and marriage (1)? no: counts 3,2,1

    def test_frequency_tie_prefers_lexicographic(self):
        mentions = [("a", "zulu"), ("b", "alpha")]
        assert top_k_types(mentions, 1) == ["alpha"]

    def test_k_one_degenerate_routing(self):
        # all retained mentions share one gold class; identical single-cluster
        # prediction scores 1 under the degenerate ARI rule
        predicted = {"m1": 4, "m2": 4, "m3": 4}
        metrics = mention_harness(GOLD_MENTIONS, predicted, k=1)
        assert metrics.ari == 1.0

    def test_missing_mention_rejected(self):
        with pytest.raises(PartitionInputError, match="m2"):
            mention_harness(GOLD_MENTIONS, {"m1": 0}, k=15)

    def test_empty_retained_rejected(self):
        with pytest.raises(PartitionInputError):
            mention_harness([], {}, k=15)


class TestReporting:
    def test_average_metrics(self):
        runs = [
            ClusteringMetrics(ari=1.0, nmi=1.0, bcubed_p=1.0, bcubed_r=1.0, bcubed_f1=1.0),
            ClusteringMetrics(ari=0.0, nmi=0.5, bcubed_p=0.5, bcubed_r=0.0, bcubed_f1=0.0),
        ]
        mean = average_metrics(runs)
        assert mean.ari == pytest.approx(0.5)
        assert mean.nmi == pytest.approx(0.75)

    def test_average_requires_runs(self):
        with pytest.raises(PartitionInputError):
            average_metrics([])

    def test_load_gold_mentions(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            json.dumps({"id": "m1", "type": "attack"}) + "\n\n"
            + json.dumps({"id": "m2", "type": "election"}) + "\n",
            encoding="utf-8",
        )
        assert load_gold_mentions(path) == [("m1", "attack"), ("m2", "election")]

    def test_load_gold_mentions_takes_integer_ids(self, tmp_path):
        # The corpus loader takes an integer "id" as its decimal string.
        path = tmp_path / "gold.jsonl"
        path.write_text('{"id": 5, "type": "attack"}\n', encoding="utf-8")
        assert load_gold_mentions(path) == [("5", "attack")]

    @pytest.mark.parametrize(
        "line",
        [
            # A null type would be scored as a gold type named "None".
            '{"id": 5, "type": null}',
            '{"id": "m2", "type": 3}',
            '{"id": null, "type": "attack"}',
            '{"id": true, "type": "attack"}',
            '{"id": 1.5, "type": "attack"}',
            '{"id": ["m2"], "type": "attack"}',
        ],
    )
    def test_mistyped_gold_record_raises_with_location(self, tmp_path, line):
        path = tmp_path / "gold.jsonl"
        path.write_text('{"id": "m1", "type": "attack"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="gold.jsonl:2: bad gold record"):
            load_gold_mentions(path)

    def test_metrics_table_alignment(self):
        metrics = score_partition([0, 0, 1], [0, 0, 1])
        table = metrics_table(metrics)
        lines = table.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("ARI")
        assert all("1.0000" in line for line in lines)
