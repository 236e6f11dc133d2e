"""The bitwise tests again, under Python 3.12's sum().

From Python 3.12, sum() over floats compensates rounding, so a float sum
taken with sum() changes bits between interpreters.  The library and the
oracles add floats left to right without sum(); these tests rerun the
similarity, schema-graph, Louvain and PageRank bitwise tests and the golden
digests with builtins.sum swapped for the 3.12 algorithm (conftest.py), so
any interpreter checks that the bits do not depend on it.

Hypothesis refuses to run one test function from two classes, so each
property test is rerun from a test of its own that calls the original body
(`.hypothesis.inner_test`) with the original strategies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_aggregate
import test_golden
import test_louvain
import test_scoring
import test_similarity
from test_aggregate import synthetic_instances  # noqa: F401 (a fixture)

pytestmark = pytest.mark.usefixtures("python312_sum")


def test_sum_compensates_rounding():
    assert sum([0.1] * 10) == 1.0
    assert sum([1, 2, 3]) == 6


class TestSimilarity:
    @given(test_similarity.string_lists, test_similarity.string_lists)
    @settings(max_examples=150, deadline=None)
    def test_matrices_and_slot_sets_match_references(self, xs, ys):
        original = test_similarity.TestMatrixEqualsPerPair
        for test in (
            original.test_backend_matrix_is_score_bitwise,
            original.test_ensemble_matrix_is_sim_bitwise,
            original.test_shared_lexical_matrix_is_left_alone,
            original.test_slotsets_are_best_match_averages_bitwise,
        ):
            test.hypothesis.inner_test(original(), xs, ys)

    @given(
        st.sampled_from([16, 17, 300]),
        st.integers(0, 2**32 - 1),
        st.lists(test_similarity.matrix_strings, min_size=1, max_size=8),
        st.lists(test_similarity.matrix_strings, min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_embedding_matrix_at_real_dimensions(self, dim, seed, xs, ys):
        original = test_similarity.TestEmbeddingMatrixAtRealDimensions
        original.test_matrix_is_score_bitwise.hypothesis.inner_test(original(), dim, seed, xs, ys)


class TestGraphMatchesPairwiseOracle(test_aggregate.TestGraphMatchesPairwiseOracle):
    @given(
        test_aggregate.instance_lists,
        st.sampled_from(test_aggregate.GRAPH_CONFIGS),
        st.sampled_from(list(test_aggregate.ensembles())),
    )
    @settings(max_examples=200, deadline=None)
    def test_generated_instances(self, instances, cfg, ensemble_name):
        test_aggregate.assert_graph_matches_oracle(instances, ensemble_name, cfg)


class TestLouvainMatchesReference(test_louvain.TestMatchesReference):
    @given(test_louvain.weighted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_generated_graphs(self, case):
        weights, keys, seed = case
        test_louvain.assert_matches_reference(weights, seed, keys)


class TestReliability(test_scoring.TestReliability):
    pass


class TestGoldenDigests(test_golden.TestGoldenDigests):
    pass
