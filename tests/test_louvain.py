import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eventframes import similarity
from eventframes.aggregate import GraphConfig, build_schema_graph, prune_edges
from eventframes.louvain import ClusterAssignment, louvain
from eventframes.similarity import default_ensemble

from oracles import best_bipartition, direct_modularity, reference_louvain
from test_aggregate import synthetic_instances  # noqa: F401 (a fixture)


def clique_matrix(groups: list[list[int]], n: int, weight: float = 1.0) -> np.ndarray:
    weights = np.zeros((n, n))
    for group in groups:
        for a in group:
            for b in group:
                if a != b:
                    weights[a, b] = weight
    return weights


class TestLouvainBasics:
    def test_two_disconnected_triangles(self):
        weights = clique_matrix([[0, 1, 2], [3, 4, 5]], 6)
        result = louvain(weights, seed=1234)
        assert result.as_partition() == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_single_node(self):
        result = louvain(np.zeros((1, 1)), seed=0)
        assert result.labels == (0,)
        assert result.n_clusters == 1

    def test_empty_graph(self):
        result = louvain(np.zeros((0, 0)), seed=0)
        assert result.labels == ()
        assert result.n_clusters == 0

    def test_isolated_nodes_are_singletons(self):
        weights = clique_matrix([[0, 1, 2]], 5)
        result = louvain(weights, seed=3)
        assert result.as_partition() == {frozenset({0, 1, 2}), frozenset({3}), frozenset({4})}

    def test_labels_contiguous_first_occurrence(self):
        weights = clique_matrix([[3, 4], [0, 1]], 5)
        result = louvain(weights, seed=0)
        assert result.labels[0] == 0
        assert set(result.labels) == set(range(result.n_clusters))

    def test_two_identical_nodes_merge(self):
        weights = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert louvain(weights, seed=0).n_clusters == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            louvain(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            louvain(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            louvain(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            louvain(np.zeros((2, 2)), keys=["a"])
        with pytest.raises(ValueError):
            louvain(np.zeros((2, 2)), keys=["a", "a"])


class TestBarbell:
    def barbell(self) -> np.ndarray:
        weights = clique_matrix([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], 10)
        weights[4, 5] = weights[5, 4] = 0.1
        return weights

    def test_matches_exhaustive_bipartition_oracle(self):
        weights = self.barbell()
        oracle_q, oracle_parts = best_bipartition(weights)
        result = louvain(weights, seed=1234)
        assert result.as_partition() == oracle_parts
        assert direct_modularity(weights, result.labels) == pytest.approx(oracle_q, abs=1e-12)

    def test_recovers_cliques(self):
        result = louvain(self.barbell(), seed=1234)
        assert result.as_partition() == {frozenset(range(5)), frozenset(range(5, 10))}


class TestCliqueUnionRecovery:
    def test_randomized_trials(self):
        rng = random.Random(2024)
        for trial in range(20):
            sizes = [rng.randint(2, 6) for _ in range(rng.randint(2, 5))]
            groups, start = [], 0
            for size in sizes:
                groups.append(list(range(start, start + size)))
                start += size
            weights = clique_matrix(groups, start)
            result = louvain(weights, seed=trial)
            assert result.as_partition() == {frozenset(g) for g in groups}, (trial, sizes)

    def test_modularity_non_decreasing_across_passes(self):
        rng = random.Random(7)
        for trial in range(20):
            n = rng.randint(2, 14)
            weights = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        weights[i, j] = weights[j, i] = rng.uniform(0.1, 2.0)
            result = louvain(weights, seed=trial)
            trace = result.modularity_levels
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:])), trace

    def test_final_modularity_matches_direct_formula(self):
        rng = random.Random(31)
        for trial in range(10):
            n = rng.randint(3, 12)
            weights = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        weights[i, j] = weights[j, i] = rng.uniform(0.1, 3.0)
            result = louvain(weights, seed=trial)
            assert result.modularity_levels[-1] == pytest.approx(
                direct_modularity(weights, result.labels), abs=1e-9
            )


class TestPermutationInvariance:
    def planted_graph(self, rng) -> np.ndarray:
        n = 12
        group = [i % 3 for i in range(n)]
        weights = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if group[i] == group[j]:
                    weights[i, j] = weights[j, i] = rng.uniform(0.8, 1.0)
                elif rng.random() < 0.3:
                    weights[i, j] = weights[j, i] = rng.uniform(0.0, 0.1)
        return weights

    def test_same_partition_up_to_relabeling(self):
        rng = random.Random(17)
        for trial in range(10):
            weights = self.planted_graph(rng)
            n = weights.shape[0]
            ids = [f"node-{i}" for i in range(n)]
            baseline = louvain(weights, seed=5, keys=ids)
            base_groups = {
                frozenset(ids[i] for i in g) for g in baseline.groups()
            }

            permutation = list(range(n))
            rng.shuffle(permutation)  # original index -> new position
            permuted = np.zeros_like(weights)
            permuted_ids = [""] * n
            for i in range(n):
                permuted_ids[permutation[i]] = ids[i]
                for j in range(n):
                    permuted[permutation[i], permutation[j]] = weights[i, j]
            shuffled = louvain(permuted, seed=5, keys=permuted_ids)
            shuffled_groups = {
                frozenset(permuted_ids[i] for i in g) for g in shuffled.groups()
            }
            assert shuffled_groups == base_groups, trial


class TestClusterAssignment:
    def test_groups(self):
        assignment = ClusterAssignment(labels=(0, 1, 0), modularity_levels=(0.1,))
        assert assignment.groups() == [(0, 2), (1,)]


def assert_matches_reference(weights, seed=0, keys=None):
    result = louvain(weights, seed=seed, keys=keys)
    expected = reference_louvain(weights, seed=seed, keys=keys)
    assert result.labels == expected.labels
    levels = np.array(result.modularity_levels)
    assert levels.tobytes() == np.array(expected.modularity_levels).tobytes(), (
        result.modularity_levels,
        expected.modularity_levels,
    )


# Repeated dyadic and non-dyadic values make exact gain ties common; arbitrary
# floats make the order of every sum show in the last bit.
edge_weights = st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.5, 1.0, 2.0 / 3.0]) | st.floats(0.0, 3.0)


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(0, 14))
    # Unweighted graphs tie on almost every gain.
    values = draw(st.sampled_from([edge_weights, st.sampled_from([0.0, 1.0])]))
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            weights[i, j] = weights[j, i] = draw(values)
    if draw(st.booleans()):
        np.fill_diagonal(weights, draw(st.lists(edge_weights, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["indices", "ints", "strings"]))
    keys = None
    if kind != "indices":
        order = draw(st.permutations(range(n)))
        keys = list(order) if kind == "ints" else [f"node-{k:02d}" for k in order]
    return weights, keys, draw(st.integers(0, 2**16))


def planted_graph(types: int, per_type: int, seed: int) -> np.ndarray:
    """graph-large's shape: planted types, similarities that are ratios of
    small integers (many ties), weighted 3:1:1 and pruned below the mean."""
    rng = np.random.default_rng(seed)
    n = types * per_type
    planted = np.repeat(np.arange(types), per_type)
    same = planted[:, None] == planted[None, :]

    def dice() -> np.ndarray:
        shared = rng.integers(0, 3, (n, n)) + 2 * same
        return 2.0 * shared / (shared + rng.integers(2, 7, (n, n)))

    weights = 3.0 * dice() + 1.0 * dice() + 1.0 * dice()
    weights = np.triu(weights, 1)
    weights = weights + weights.T
    return prune_edges(weights, GraphConfig())


class TestMatchesReference:
    """Same labels and bitwise-equal modularity_levels as the dict-based
    reference implementation in tests/oracles.py."""

    @given(weighted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_generated_graphs(self, case):
        weights, keys, seed = case
        assert_matches_reference(weights, seed, keys)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_and_empty(self, n):
        assert_matches_reference(np.zeros((n, n)))
        assert_matches_reference(np.ones((n, n)), seed=3)

    def test_isolated_nodes_and_zero_weights(self):
        weights = np.zeros((7, 7))
        weights[0, 1] = weights[1, 0] = 1.0
        weights[2, 3] = weights[3, 2] = 0.0
        weights[4, 5] = weights[5, 4] = 0.25
        for seed in range(5):
            assert_matches_reference(weights, seed, keys=[6, 5, 4, 3, 2, 1, 0])

    def test_nearly_symmetric_input_reads_the_upper_triangle(self):
        # Within np.allclose's tolerance, so accepted; each pair weighs what
        # the input's upper triangle says, whatever the key order.
        rng = np.random.default_rng(5)
        weights = np.triu(rng.random((9, 9)) * (rng.random((9, 9)) < 0.6), 1)
        weights = weights + weights.T
        weights[np.tril_indices(9, -1)] *= 1 + 1e-9
        weights[0, 8], weights[8, 0] = 5e-9, 0.0
        weights[7, 1], weights[1, 7] = 5e-9, 0.0
        for seed in range(5):
            keys = [f"k{k}" for k in rng.permutation(9)]
            assert_matches_reference(weights, seed, keys)

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 10])
    def test_tied_gains_keep_the_earliest_community(self, n):
        # On a uniform ring every node sees two equally good neighbours.
        weights = np.zeros((n, n))
        for i in range(n):
            weights[i, (i + 1) % n] = weights[(i + 1) % n, i] = 1.0
        for seed in range(4):
            assert_matches_reference(weights, seed)

    def test_community_weights_add_up_in_row_order(self):
        # Two 9-cliques B (nodes 0-8) and A (9-17), and node 18 tied to b1 and
        # a1 by 1.0 and to the rest of A by 2**-53.  Added in row order the
        # tiny weights vanish, A and B tie, and node 18 stays with B, met
        # first; a pairwise sum (np.sum) makes A's weight 1 + 4 ulp.
        weights = np.zeros((19, 19))
        for group in (range(0, 9), range(9, 18)):
            for i in group:
                for j in group:
                    weights[i, j] = 1.0 if i != j else 0.0
        weights[18, [0, 9]] = weights[[0, 9], 18] = 1.0
        weights[18, 10:18] = weights[10:18, 18] = 2.0**-53
        for seed in range(4):
            assert_matches_reference(weights, seed)
            assert louvain(weights, seed).labels[18] == 0

    def test_synthetic_fixture(self, synthetic_instances):
        # The fixture's config has the default similarity, graph and seed.
        graph = build_schema_graph(synthetic_instances, default_ensemble(), GraphConfig())
        ids = [inst.expression.id for inst in synthetic_instances]
        assert graph.weights.shape[0] == 30
        assert_matches_reference(graph.weights, 1234, ids)
        assert_matches_reference(graph.weights, 1234, ids[::-1])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_graph_large_shape(self, seed):
        weights = planted_graph(types=12, per_type=32, seed=seed)
        ids = [f"x{i:05d}" for i in range(weights.shape[0])]
        assert_matches_reference(weights, seed, ids)
        shuffled = random.Random(seed).sample(ids, len(ids))
        assert_matches_reference(weights, seed, shuffled)


class TestInputInRowBlocks:
    """The dense input is read a block of rows at a time: partitions,
    modularity floats and errors do not depend on the block size."""

    @pytest.fixture(params=[1, 2, 3])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(similarity, "BLOCK_ROWS", request.param)
        return request.param

    @given(weighted_graphs())
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_generated_graphs(self, block_rows, case):
        weights, keys, seed = case
        assert_matches_reference(weights, seed, keys)

    def test_nearly_symmetric_input_reads_the_upper_triangle(self, block_rows):
        TestMatchesReference().test_nearly_symmetric_input_reads_the_upper_triangle()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sizes_around_a_block_boundary(self, offset):
        n = 2 * similarity.BLOCK_ROWS + offset
        rng = np.random.default_rng(n)
        weights = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), 1)
        weights = weights + weights.T
        keys = [f"k{k}" for k in rng.permutation(n)]
        assert_matches_reference(weights, 7, keys)

    @pytest.mark.parametrize("keys", [None, list(range(7))[::-1]])
    def test_asymmetry_is_reported_before_negativity(self, block_rows, keys):
        # A negative pair in rows 0-1, an asymmetric pair in rows 5-6: in
        # different blocks, whichever comes first in key order.
        weights = np.zeros((7, 7))
        weights[0, 1] = weights[1, 0] = -1.0
        weights[5, 6], weights[6, 5] = 0.5, 1.0
        with pytest.raises(ValueError, match="weights must be symmetric"):
            louvain(weights, keys=keys)
        weights[5, 6] = 1.0
        with pytest.raises(ValueError, match="weights must be non-negative"):
            louvain(weights, keys=keys)
