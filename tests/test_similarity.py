import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eventframes import similarity
from eventframes.similarity import (
    EmbeddingBackend,
    EmbeddingServiceBackend,
    EmbeddingServiceError,
    LexicalBackend,
    LexiconBackend,
    SimilarityEnsemble,
)

from helpers import LoopbackServer, TableBackend, count_table_parses, table_ensemble
from oracles import ReferenceEnsemble, ReferenceScorer, keyed_lexicon_matrix, reference_lexical

labels = st.text(
    alphabet=st.sampled_from("abcdefghij xyz"), min_size=1, max_size=12
).filter(lambda s: s.strip())


# Keys that the lexicon strips and lowercases: the synonym-set members of
# the tests below in other case and with surrounding or inner whitespace,
# empty strings, and "İ", whose lowercase is two characters.
LEXICON_WORDS = ["a", "A", "b", "B", "İ", "i\u0307", "İ b", "i\u0307 B", "x y", "X  Y", "x\ty", ""]
_padding = st.sampled_from(["", " ", "\t", "  "])
lexicon_strings = st.one_of(
    st.text(alphabet="aAbBxyİi\u0307 \t", max_size=6),
    st.tuples(_padding, st.sampled_from(LEXICON_WORDS), _padding).map("".join),
)
lexicon_string_lists = st.lists(lexicon_strings, max_size=8)


class TestLexicalBackend:
    def test_identity(self):
        assert LexicalBackend().score("die", "die") == 1.0

    def test_disjoint_single_tokens(self):
        assert LexicalBackend().score("ab", "cd") == 0.0

    def test_bigram_overlap_single_tokens(self):
        # die {di, ie} vs died {di, ie, ed}: 2*2 / (2+3)
        assert LexicalBackend().score("die", "died") == pytest.approx(0.8)

    def test_token_multiset_dice(self):
        score = LexicalBackend().score("terrorist attacks killed", "terrorist attacks continued")
        assert score == pytest.approx(2 * 2 / 6)

    def test_empty_string(self):
        assert LexicalBackend().score("", "anything") == 0.0

    def test_case_insensitive(self):
        assert LexicalBackend().score("Die", "die") == 1.0

    @given(labels, labels)
    def test_symmetric_and_bounded(self, a, b):
        backend = LexicalBackend()
        assert backend.score(a, b) == backend.score(b, a)
        assert 0.0 <= backend.score(a, b) <= 1.0


class TestLexiconBackend:
    def test_synonym_set_scores_one(self):
        backend = LexiconBackend([["die", "decease"], ["dead", "victim"]])
        assert backend.score("die", "decease") == 1.0
        assert backend.score("dead", "victim") == 1.0

    def test_fallthrough_to_lexical(self):
        backend = LexiconBackend([["die", "decease"]])
        assert backend.score("ab", "cd") == 0.0
        assert backend.score("die", "died") == pytest.approx(0.8)

    def test_from_file(self, tmp_path):
        path = tmp_path / "synsets.tsv"
        path.write_text("die\tdecease\ndead\tvictim\tcasualty\n", encoding="utf-8")
        backend = LexiconBackend.from_file(path)
        assert backend.score("victim", "casualty") == 1.0
        assert backend.score("die", "victim") < 1.0

    @pytest.mark.parametrize("text", ["", "\n\n", " \t \n"])
    def test_from_file_rejects_a_table_without_sets(self, tmp_path, text):
        # Loaded, it would score every pair lexically.
        path = tmp_path / "synsets.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="synsets.tsv: no synonym sets"):
            LexiconBackend.from_file(path)

    @given(lexicon_string_lists, lexicon_string_lists)
    @settings(max_examples=300, deadline=None)
    def test_matrix_is_the_keyed_formula_bitwise(self, xs, ys):
        # Equal non-empty keys score 1 through the lexical fallback.
        backend = LexiconBackend([["a", "İ b"], ["B", "x y"], ["İ"]])
        assert_bitwise(backend.matrix(xs, ys), keyed_lexicon_matrix(backend, xs, ys))


class TestEmbeddingBackend:
    def make_backend(self):
        return EmbeddingBackend(
            {"up": np.array([0.0, 1.0]), "down": np.array([0.0, -1.0]), "side": np.array([1.0, 0.0])}
        )

    def test_opposite_vectors_map_to_zero(self):
        assert self.make_backend().score("up", "down") == pytest.approx(0.0)

    def test_orthogonal_vectors_map_to_half(self):
        assert self.make_backend().score("up", "side") == pytest.approx(0.5)

    def test_identity(self):
        assert self.make_backend().score("up", "up") == pytest.approx(1.0)

    def test_mean_pooling(self):
        backend = self.make_backend()
        # ("up side" pools to 45 degrees) vs "up": cos = cos(45deg)
        expected = (1 + np.cos(np.pi / 4)) / 2
        assert backend.score("up side", "up") == pytest.approx(expected)

    def test_miss_falls_back_to_lexical_and_flags(self):
        backend = self.make_backend()
        assert backend.fallback_count == 0
        assert backend.score("die", "died") == pytest.approx(0.8)
        assert backend.fallback_count == 1

    def test_from_file(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("up 0 1\ndown 0 -1\n", encoding="utf-8")
        backend = EmbeddingBackend.from_file(path)
        assert backend.score("up", "down") == pytest.approx(0.0)

    def test_from_file_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("up 0 1\nbad 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt:2"):
            EmbeddingBackend.from_file(path)

    @pytest.mark.parametrize(
        "table, message",
        [
            ("fire 1.0 0.5\nattack nan 0.2\nbomb inf 1.0\n", ":2: vector of 'attack' has a non"),
            ("fire 1.0 0.5\nbomb 1.0 inf\n", ":2: vector of 'bomb' has a non-finite"),
            ("fire -inf 0.5\n", ":1: vector of 'fire' has a non-finite component"),
        ],
    )
    def test_from_file_rejects_non_finite_components(self, tmp_path, table, message):
        # Loaded, one such vector makes every similarity of its token nan.
        path = tmp_path / "vectors.txt"
        path.write_text(table, encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt" + message):
            EmbeddingBackend.from_file(path)

    def test_from_file_rejects_a_table_without_components(self, tmp_path):
        # Loaded, its 0-dimensional vectors would score every pair lexically.
        path = tmp_path / "vectors.txt"
        path.write_text("fire\nattack\n", encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt:1: token 'fire' has no vector comp"):
            EmbeddingBackend.from_file(path)

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"])
    def test_from_file_rejects_a_table_without_vectors(self, tmp_path, text):
        # Loaded, it would score every pair lexically.
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt: no vectors"):
            EmbeddingBackend.from_file(path)

    def test_service_backend_fetches_and_caches(self):
        fetched = []

        def fake_fetch(texts):
            fetched.append(list(texts))
            return [[0.0, 1.0] for _ in texts]

        backend = EmbeddingServiceBackend("http://vectors", fetch=fake_fetch)
        assert backend.score("alpha", "alpha") == pytest.approx(1.0)
        backend.score("alpha", "alpha")
        assert fetched == [["alpha"]]

    def test_service_outage_raises(self):
        def refused(texts):
            raise ConnectionError("connection refused")

        backend = EmbeddingServiceBackend("http://vectors", fetch=refused)
        with pytest.raises(EmbeddingServiceError, match="vectors failed: connection refused"):
            backend.score("alpha", "beta")
        with pytest.raises(EmbeddingServiceError):
            backend.matrix(["alpha"], ["beta"])
        assert backend.fallback_count == 0

    def test_service_short_response_raises(self):
        backend = EmbeddingServiceBackend("http://vectors", fetch=lambda texts: [[1.0, 0.0]])
        with pytest.raises(EmbeddingServiceError, match="failed: 1 vectors for 2 texts"):
            backend.score("alpha beta", "alpha")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_service_non_finite_component_raises(self, value):
        backend = EmbeddingServiceBackend(
            "http://vectors", fetch=lambda texts: [[1.0, 0.0], [value, 1.0]]
        )
        with pytest.raises(EmbeddingServiceError, match="vector of 'beta' has a non-finite"):
            backend.matrix(["alpha beta"], ["alpha"])

    @pytest.mark.parametrize(
        "vectors, message",
        [
            ([[1.0, 0.0], [0.0, 1.0, 0.0]], "vector of 'beta' has 3 components, not 2"),
            ([[1.0, 0.0], 0.5], "vector of 'beta' is not a non-empty list of numbers"),
            ([[1.0, 0.0], []], "vector of 'beta' is not a non-empty list of numbers"),
            ([[1.0, 0.0], [[0.0, 1.0]]], "vector of 'beta' is not a non-empty list of numbers"),
            ([2.0, [0.0, 1.0]], "vector of 'alpha' is not a non-empty list of numbers"),
        ],
    )
    def test_service_vector_of_another_shape_raises(self, vectors, message):
        backend = EmbeddingServiceBackend("http://vectors", fetch=lambda texts: vectors)
        with pytest.raises(EmbeddingServiceError, match=f"vectors failed: {message}"):
            backend.matrix(["alpha beta"], ["alpha"])

    def test_service_vector_unlike_those_fetched_before_raises(self):
        answers = iter([[[1.0, 0.0]], [[1.0, 0.0, 0.0]]])
        backend = EmbeddingServiceBackend("http://vectors", fetch=lambda texts: next(answers))
        backend.score("alpha", "alpha")
        with pytest.raises(EmbeddingServiceError, match="'beta' has 3 components, not 2"):
            backend.score("alpha", "beta")


# Spellings of a component: float() and loadtxt read the first group alike;
# float() alone reads the next (underscores, non-ASCII digits), the next are
# read but not finite, and neither reads the last.
SPELLINGS = [
    "-1.5", "+2.25", "1e5", "1E-3", "-.5", "5.", "-0.0", "5e-324", "2.2250738585072011e-308",
    "1_0", "١", "٣.٥", "１",
    "nan", "-NaN", "inf", "-Infinity", "1e999",
    "1#2", "#1", "0x10", "1..2", "abc", "+",
]
finite = st.floats(allow_nan=False, allow_infinity=False)
components = st.one_of(
    finite.map(repr), finite.map("{:.5f}".format), finite.map("{:.17e}".format),
    st.sampled_from(SPELLINGS),
)
# Case variants, a token that lowercases to two characters, one that reads
# as a number and one holding the comment character.
table_tokens = st.sampled_from(["run", "Run", "RUN", "walk", "İ", "i\u0307", "naïve", "1.5", "#x"])
# str.split() whitespace that is no line end in text mode.
field_separators = st.sampled_from([" ", "  ", "\t", "\u0085", "\u2028", "\u00a0", "\x1c", "\u3000"])
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def vector_tables(draw) -> str:
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            fields = []
        else:
            # Mostly the table's width; sometimes one more, one fewer or none.
            width = draw(st.sampled_from([dim] * 8 + [dim + 1, dim - 1, 0]))
            fields = [draw(table_tokens), *(draw(components) for _ in range(width))]
        line = "".join(draw(field_separators) + field for field in fields)
        lines.append(line + draw(st.sampled_from(["", " ", "\u2028"])) + draw(line_ends))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


class TestVectorTableLoader:
    """`EmbeddingBackend.from_file` reads a table with numpy's loadtxt and
    leaves the tables it cannot vouch for to the per-line parser; the two
    must agree on every table."""

    @staticmethod
    def loaded(path):
        try:
            backend = EmbeddingBackend.from_file(path)
        except ValueError as exc:
            return str(exc)
        return [(token, backend._table[row].tobytes()) for token, row in backend._rows.items()]

    @staticmethod
    def parsed(path):
        try:
            tokens, table = similarity._parse_table(path)
        except ValueError as exc:
            return str(exc)
        vectors = {}
        for token, vector in zip(tokens, table):
            vectors[token.lower()] = vector  # a later line wins
        return [(token, vector.tobytes()) for token, vector in vectors.items()]

    @given(vector_tables())
    @example("")
    @example(" \n\t\r\n\u2028\r\x1c\u00a0\n")
    @example("run 1\n\udcff 2\n")  # not UTF-8
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.filterwarnings("error::UserWarning")
    def test_from_file_is_the_per_line_parser(self, tmp_path, table):
        path = tmp_path / "vectors.txt"
        path.write_bytes(table.encode("utf-8", "surrogateescape"))
        assert self.loaded(path) == self.parsed(path)

    def test_a_later_line_wins_for_a_repeated_token(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("run 1 0\nRun 0 1\nrun -1 0\nwalk 0 1\n", encoding="utf-8")
        backend = EmbeddingBackend.from_file(path)
        assert list(backend._rows) == ["run", "walk"]
        assert backend._table[backend._rows["run"]].tolist() == [-1.0, 0.0]

    def test_a_plain_table_is_not_parsed_line_by_line(self, tmp_path, monkeypatch):
        path = tmp_path / "vectors.txt"
        path.write_text("up 0 1.5e-3\r\ndown\t0 -1\n\nside 1 0", encoding="utf-8")
        monkeypatch.setattr(similarity, "_parse_table", None)
        assert self.loaded(path) == [
            ("up", np.array([0.0, 1.5e-3]).tobytes()),
            ("down", np.array([0.0, -1.0]).tobytes()),
            ("side", np.array([1.0, 0.0]).tobytes()),
        ]


class TestTablesParsedOnce:
    """A process parses a table file once while its bytes are unchanged."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        return count_table_parses(monkeypatch)

    @staticmethod
    def vectors(backend):
        return {token: backend._table[row].tolist() for token, row in backend._rows.items()}

    def test_an_unchanged_table_is_parsed_once(self, tmp_path, parses):
        (tmp_path / "lexicon.tsv").write_text("die\tdecease\n", encoding="utf-8")
        (tmp_path / "vectors.txt").write_text("up 0 1\ndown 0 -1\n", encoding="utf-8")
        for _ in range(3):
            assert LexiconBackend.from_file(tmp_path / "lexicon.tsv").score("die", "decease") == 1
            assert EmbeddingBackend.from_file(tmp_path / "vectors.txt").score("up", "down") == 0
        assert parses == ["lexicon.tsv", "vectors.txt"]

    def test_a_table_rewritten_to_the_same_size_and_time_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "vectors.txt"
        path.write_text("up 0 1\ndown 0 -1\n", encoding="utf-8")
        assert self.vectors(EmbeddingBackend.from_file(path))["up"] == [0.0, 1.0]
        stat = path.stat()
        path.write_text("down 0 1\nup 0 -1\n", encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert self.vectors(EmbeddingBackend.from_file(path))["up"] == [0.0, -1.0]
        assert parses == ["vectors.txt", "vectors.txt"]

    def test_a_file_rewritten_while_it_is_parsed_is_not_kept(self, tmp_path, monkeypatch):
        """Hashed as `first`, parsed as `second`: kept, the table would be
        returned for `first`."""
        path = tmp_path / "vectors.txt"
        first, second = "up 0 1\n", "up 1 0\n"
        path.write_text(first, encoding="utf-8")
        original = similarity._load_table

        def rewritten_first(p):
            path.write_text(second, encoding="utf-8")
            return original(p)

        monkeypatch.setattr(similarity, "_load_table", rewritten_first)
        assert self.vectors(EmbeddingBackend.from_file(path)) == {"up": [1.0, 0.0]}
        monkeypatch.setattr(similarity, "_load_table", original)
        path.write_text(first, encoding="utf-8")
        assert self.vectors(EmbeddingBackend.from_file(path)) == {"up": [0.0, 1.0]}

    @pytest.mark.parametrize(
        "cls, name, bad, message, good",
        [
            (LexiconBackend, "synsets.tsv", "\n", "synsets.tsv: no synonym sets", "a\tb\n"),
            (EmbeddingBackend, "vectors.txt", "up 0 1\nbad 1\n", "vectors.txt:2: expected 2",
             "up 0 1\nbad 1 0\n"),
        ],
    )
    def test_a_table_that_fails_to_parse_fails_again_until_fixed(
        self, tmp_path, parses, cls, name, bad, message, good
    ):
        path = tmp_path / name
        path.write_text(bad, encoding="utf-8")
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError, match=message) as excinfo:
                cls.from_file(path)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        path.write_text(good, encoding="utf-8")
        cls.from_file(path)
        before = len(parses)
        cls.from_file(path)
        assert len(parses) == before

    def test_backends_from_one_file_share_only_the_read_only_table(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("up 0 1\ndown 0 -1\n", encoding="utf-8")
        one, two = EmbeddingBackend.from_file(path), EmbeddingBackend.from_file(path)
        assert one._table is two._table and one._rows is two._rows
        assert not one._table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            one._table[0, 0] = 5.0
        with pytest.raises(TypeError):
            one._rows["up"] = 1
        assert one.score("die", "died") == pytest.approx(0.8)
        assert (one.fallback_count, two.fallback_count) == (1, 0)

        (tmp_path / "synsets.tsv").write_text("die\tdecease\n", encoding="utf-8")
        one, two = (LexiconBackend.from_file(tmp_path / "synsets.tsv") for _ in range(2))
        assert one._set_ids is two._set_ids
        with pytest.raises(TypeError):
            one._set_ids["die"] = set()

    def test_one_file_read_as_both_kinds_of_table(self, tmp_path):
        # Read as a lexicon, each line is a group of a token and its components.
        path = tmp_path / "table.txt"
        path.write_text("up\t0\t1\ndown\t0\t-1\n", encoding="utf-8")
        for _ in range(2):
            assert EmbeddingBackend.from_file(path).score("up", "down") == 0.0
            assert LexiconBackend.from_file(path).score("up", "1") == 1.0


class TestEmbeddingServiceWire:
    VECTORS = {"alpha": [1.0, 0.0], "beta": [0.0, 1.0], "gamma": [1.0, 0.0]}

    def test_served_vectors_are_used(self):
        def serve(received):
            return 200, {"vectors": [self.VECTORS[t] for t in received.body["texts"]]}

        with LoopbackServer(serve) as server:
            backend = EmbeddingServiceBackend(server.url("/embed"))
            scores = backend.matrix(["alpha", "beta"], ["gamma"])
        assert scores.tolist() == [[1.0], [0.5]]
        assert [r.body for r in server.received] == [{"texts": ["alpha"]}, {"texts": ["beta"]},
                                                    {"texts": ["gamma"]}]
        assert server.accepted == 1
        assert backend.fallback_count == 0

    @pytest.mark.parametrize(
        "reply, message",
        [((500, {"error": "down"}), "500"), ((200, {"vectors": [[1.0, 0.0]]}), "1 vectors for 2 texts")],
    )
    def test_failed_fetch_raises(self, reply, message):
        with LoopbackServer(lambda received: reply) as server:
            backend = EmbeddingServiceBackend(server.url("/embed"))
            with pytest.raises(EmbeddingServiceError, match=message):
                backend.score("alpha beta", "alpha")
        assert backend.fallback_count == 0


class TestEnsemble:
    def test_needs_backend(self):
        with pytest.raises(ValueError):
            SimilarityEnsemble(backends=[])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SimilarityEnsemble(backends=[LexicalBackend()], weights=[-1.0])
        with pytest.raises(ValueError):
            SimilarityEnsemble(backends=[LexicalBackend(), LexicalBackend()], weights=[1.0])

    def test_weights_normalize(self):
        ensemble = SimilarityEnsemble(
            backends=[TableBackend({("a", "b"): 1.0}), TableBackend({})], weights=[3.0, 1.0]
        )
        assert ensemble.sim("a", "b") == pytest.approx(0.75)

    def test_convex_combination(self):
        ensemble = SimilarityEnsemble(
            backends=[TableBackend({("a", "b"): 0.4}), TableBackend({("a", "b"): 0.8})]
        )
        assert ensemble.sim("a", "b") == pytest.approx(0.6)

    def test_monotone_in_backend_scores(self):
        low = SimilarityEnsemble(
            backends=[TableBackend({("a", "b"): 0.2}), TableBackend({("a", "b"): 0.5})]
        )
        high = SimilarityEnsemble(
            backends=[TableBackend({("a", "b"): 0.3}), TableBackend({("a", "b"): 0.5})]
        )
        assert high.sim("a", "b") >= low.sim("a", "b")

    def test_exact_symmetry_via_cache(self):
        ensemble = SimilarityEnsemble(backends=[LexicalBackend()])
        assert ensemble.sim("attack force", "force") == ensemble.sim("force", "attack force")

    @given(labels, labels)
    @settings(max_examples=200)
    def test_range(self, a, b):
        ensemble = SimilarityEnsemble(backends=[LexicalBackend()])
        assert 0.0 <= ensemble.sim(a, b) <= 1.0


class TestSlotSetSimilarity:
    def test_equal_sets(self):
        ensemble = table_ensemble({})
        assert ensemble.sim_slotsets({"a", "b"}, {"a", "b"}) == 1.0

    def test_one_empty(self):
        ensemble = table_ensemble({})
        assert ensemble.sim_slotsets({"x"}, set()) == 0.0
        assert ensemble.sim_slotsets(set(), {"x"}) == 0.0

    def test_both_empty(self):
        assert table_ensemble({}).sim_slotsets(set(), set()) == 1.0

    def test_hand_evaluated_best_match_average(self):
        # A={a,b}, B={a}, sim(b,a)=0: (1 + 0 + 1) / 3
        ensemble = table_ensemble({("a", "b"): 0.0})
        assert ensemble.sim_slotsets({"a", "b"}, {"a"}) == pytest.approx(2 / 3)

    def test_soft_match_uses_best_pair(self):
        ensemble = table_ensemble({("x", "y"): 0.5, ("x", "z"): 0.9})
        assert ensemble.sim_slotsets({"x"}, {"y", "z"}) == pytest.approx((0.9 + 0.5 + 0.9) / 3)

    def test_symmetric(self):
        ensemble = table_ensemble({("a", "c"): 0.3, ("b", "c"): 0.7})
        assert ensemble.sim_slotsets({"a", "b"}, {"c"}) == ensemble.sim_slotsets({"c"}, {"a", "b"})


# Strings that reach every branch of the backends: empty and whitespace-only
# strings, 1-char tokens, single- vs multi-token, repeated tokens and bigrams,
# mixed case, and tokens without an embedding vector.
MATRIX_WORDS = ["a", "b", "x", "ab", "ba", "aa", "aaa", "abab", "Ab", "AB", "cab", "zz", "null"]
matrix_strings = st.one_of(
    st.text(alphabet="abAB \t", max_size=8),
    st.lists(st.sampled_from(MATRIX_WORDS), max_size=4).map(" ".join),
    st.lists(st.sampled_from(MATRIX_WORDS), max_size=3).map(lambda ws: "  " + "\t".join(ws) + " "),
)
string_lists = st.lists(matrix_strings, max_size=6)


def matrix_backends():
    vectors = {
        "a": [1.0, 0.0, 0.0],
        "b": [0.3, -1.0, 2.0],
        "ab": [-0.5, 0.25, 0.125],
        "ba": [-1.0, 0.0, 0.0],  # "a ba" pools to the zero vector
        "aaa": [0.1, 0.2, 0.3],
        "null": [0.0, 0.0, 0.0],
        "cab": [2.0, 2.0, -1.0],
    }
    lexicon = LexiconBackend([["a", "b b"], [" ab ", "BA", "x"], ["a", "zz"], ["  "]])
    return [LexicalBackend(), lexicon, EmbeddingBackend(vectors)]


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def per_pair(score, xs, ys) -> np.ndarray:
    return np.array([[score(x, y) for y in ys] for x in xs], dtype=float).reshape(len(xs), len(ys))


class TestMatrixEqualsPerPair:
    """Each matrix against the per-pair scalar formulas of tests/oracles.py
    (`score` and `sim` are cells of `matrix`, so they cannot be the
    reference)."""

    @given(string_lists, string_lists)
    @settings(max_examples=300, deadline=None)
    def test_backend_matrix_is_score_bitwise(self, xs, ys):
        for backend in matrix_backends():
            assert_bitwise(backend.matrix(xs, ys), per_pair(ReferenceScorer(backend), xs, ys))

    @given(string_lists, string_lists)
    @settings(max_examples=150, deadline=None)
    def test_ensemble_matrix_is_sim_bitwise(self, xs, ys):
        for weights in ([0.5, 0.3, 0.2], [1.0, 1.0, 1.0], [0.0, 0.7, 0.1]):
            ensemble = SimilarityEnsemble(backends=matrix_backends(), weights=weights)
            reference = ReferenceEnsemble(ensemble)
            assert_bitwise(ensemble.matrix(xs, ys), per_pair(reference.sim, xs, ys))
            assert_bitwise(per_pair(ensemble.sim, xs, ys), per_pair(reference.sim, xs, ys))

    @given(string_lists, string_lists)
    @settings(max_examples=100, deadline=None)
    def test_shared_lexical_matrix_is_left_alone(self, xs, ys):
        # The embedding backend first: it must not write into the lexical
        # matrix that the backends after it read.
        ensemble = SimilarityEnsemble(backends=matrix_backends()[::-1], weights=[0.2, 0.3, 0.5])
        reference = ReferenceEnsemble(ensemble)
        assert_bitwise(ensemble.matrix(xs, ys), per_pair(reference.sim, xs, ys))

    @given(st.lists(matrix_strings, max_size=9), st.lists(matrix_strings, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_slotsets_are_best_match_averages_bitwise(self, a, b):
        ensemble = SimilarityEnsemble(backends=matrix_backends(), weights=[0.5, 0.3, 0.2])
        expected = ReferenceEnsemble(ensemble).sim_slotsets(a, b)
        assert ensemble.sim_slotsets(a, b).hex() == expected.hex()

    def test_ensemble_builds_the_lexical_matrix_once(self, monkeypatch):
        calls = []
        original = similarity._dice_matrix

        def counted(xs, ys):
            calls.append(1)
            return original(xs, ys)

        monkeypatch.setattr(similarity, "_dice_matrix", counted)
        strings = ["a b", "ab", "cab", "zz"]
        LexicalBackend().matrix(strings, strings)
        alone = len(calls)
        SimilarityEnsemble(backends=matrix_backends()).matrix(strings, strings)
        assert len(calls) == 2 * alone

    @given(string_lists, string_lists)
    @settings(max_examples=100, deadline=None)
    def test_embedding_matrix_counts_each_uncovered_pair(self, xs, ys):
        backend, reference = matrix_backends()[2], ReferenceScorer(matrix_backends()[2])
        backend.matrix(xs, ys)
        per_pair(reference, xs, ys)
        assert backend.fallback_count == reference.fallbacks

    def test_matrix_leaves_the_pair_cache_alone(self):
        ensemble = SimilarityEnsemble(backends=[LexicalBackend()])
        ensemble.matrix(["a b", "c"], ["a b", "d"])
        assert ensemble._cache == {}

    def test_service_backend_pools_each_string_once(self):
        fetched = []

        def fake_fetch(texts):
            fetched.append(list(texts))
            return [[1.0, float(len(t))] for t in texts]

        backend = EmbeddingServiceBackend("http://vectors", fetch=fake_fetch)
        out = backend.matrix(["alpha", "beta alpha"], ["alpha", "beta"])
        assert fetched == [["alpha"], ["beta"]]
        reference = ReferenceScorer(backend)
        assert_bitwise(out, per_pair(reference, ["alpha", "beta alpha"], ["alpha", "beta"]))


@pytest.fixture(params=[1, 2, 3])
def block_rows(request, monkeypatch):
    """A block size small enough that the drawn matrices span several blocks,
    the last one often partial."""
    monkeypatch.setattr(similarity, "BLOCK_ROWS", request.param)
    return request.param


# The block size stays fixed across one test's examples.
blocked = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
long_string_lists = st.lists(matrix_strings, max_size=9)


class TestMatrixInRowBlocks:
    """Matrices filled a block of rows at a time equal the per-pair formulas
    bitwise, whatever the block size."""

    @given(long_string_lists, long_string_lists)
    @blocked
    def test_lexical_matrix(self, block_rows, xs, ys):
        assert_bitwise(LexicalBackend().matrix(xs, ys), per_pair(reference_lexical, xs, ys))

    def test_lexical_matrix_with_empty_texts(self, block_rows):
        # An empty text against an empty text has a zero Dice denominator.
        xs = ["", "a b", "  ", "ab", "", "b a a", "\t", "x"]
        ys = ["", "ab", "a", " ", "a a b"]
        assert_bitwise(LexicalBackend().matrix(xs, ys), per_pair(reference_lexical, xs, ys))
        assert_bitwise(LexicalBackend().matrix(xs, xs), per_pair(reference_lexical, xs, xs))

    @given(long_string_lists, long_string_lists)
    @blocked
    def test_three_backend_ensemble_matrix(self, block_rows, xs, ys):
        ensemble = SimilarityEnsemble(backends=matrix_backends(), weights=[0.5, 0.3, 0.2])
        reference = ReferenceEnsemble(ensemble)
        assert_bitwise(ensemble.matrix(xs, ys), per_pair(reference.sim, xs, ys))


def random_vectors(dim: int, seed: int) -> dict[str, np.ndarray]:
    """Gaussian vectors for the lower-cased MATRIX_WORDS except "b", "x" and
    "zz", which stay uncovered."""
    rng = np.random.default_rng(seed)
    words = sorted({w.lower() for w in MATRIX_WORDS} - {"b", "x", "zz"})
    return {word: rng.standard_normal(dim) for word in words}


class TestEmbeddingMatrixAtRealDimensions:
    """With the 3-dimensional vectors of matrix_backends a gemm (P @ Q.T) or
    an einsum may round every drawn cell like np.dot; at these sizes many
    cells differ in the last bit, so this property catches a matrix that is
    not one dot product per cell."""

    @given(
        st.sampled_from([16, 17, 300]),
        st.integers(0, 2**32 - 1),
        st.lists(matrix_strings, min_size=1, max_size=8),
        st.lists(matrix_strings, min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matrix_is_score_bitwise(self, dim, seed, xs, ys):
        backend = EmbeddingBackend(random_vectors(dim, seed))
        reference = ReferenceScorer(EmbeddingBackend(random_vectors(dim, seed)))
        assert_bitwise(backend.matrix(xs, ys), per_pair(reference, xs, ys))
        assert backend.fallback_count == reference.fallbacks
        ensemble = SimilarityEnsemble(
            backends=[*matrix_backends()[:2], EmbeddingBackend(random_vectors(dim, seed))],
            weights=[0.2, 0.3, 0.5],
        )
        assert_bitwise(ensemble.matrix(xs, ys), per_pair(ReferenceEnsemble(ensemble).sim, xs, ys))
