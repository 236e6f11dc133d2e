import json
import random

import pytest

from eventframes.corpus import (
    CHARACTER,
    SPACE_DELIMITED,
    CorpusFilterConfig,
    EventExpression,
    PLAIN_LINES,
    STRUCTURED_RECORDS,
    filter_expression,
    is_numeric_token,
    load_corpus,
    numeric_ratio,
    tokenize,
)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("Terrorist attacks killed people") == [
            "Terrorist", "attacks", "killed", "people",
        ]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_no_internal_split_on_punctuation(self):
        assert tokenize("35,000 deaths") == ["35,000", "deaths"]

    def test_character_mode(self):
        assert tokenize("ab c", CHARACTER) == ["a", "b", "c"]

    def test_character_mode_keeps_combining_marks(self):
        # e + combining acute stays one token
        assert tokenize("é x", CHARACTER) == ["é", "x"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("x", "syllable")

    def test_join_reproduces_whitespace_normalized_text(self):
        rng = random.Random(0)
        words = ["alpha", "beta,", "35,000", "x", "émigré"]
        for _ in range(200):
            text = "".join(
                rng.choice(words) + rng.choice([" ", "  ", "\t", " \n "])
                for _ in range(rng.randint(0, 8))
            )
            assert " ".join(tokenize(text)) == " ".join(text.split())


class TestNumericTokens:
    @pytest.mark.parametrize(
        "token,expected",
        [("35,000", True), ("1", True), ("b2", True), ("abc1", False), ("deaths", False), ("", False)],
    )
    def test_is_numeric_token(self, token, expected):
        assert is_numeric_token(token) is expected

    def test_ratio_of_empty(self):
        assert numeric_ratio([]) == 0.0


class TestFilterExpression:
    def test_overlong_discarded_with_length_reason(self):
        expr = EventExpression.from_text("x", " ".join(["tok"] * 300))
        decision = filter_expression(expr, CorpusFilterConfig(max_tokens=256))
        assert not decision.keep
        assert decision.reason == "length"

    def test_numeric_ratio_discard(self):
        expr = EventExpression.from_text("x", "1 2 3 4")
        decision = filter_expression(expr, CorpusFilterConfig())
        assert not decision.keep
        assert decision.reason == "numeric"

    def test_short_clean_sentence_kept(self):
        expr = EventExpression.from_text("x", "The president resigned yesterday")
        assert filter_expression(expr, CorpusFilterConfig())

    def test_length_fires_before_numeric(self):
        expr = EventExpression.from_text("x", " ".join(["9"] * 300))
        decision = filter_expression(expr, CorpusFilterConfig(max_tokens=256))
        assert decision.reason == "length"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorpusFilterConfig(max_tokens=0)
        with pytest.raises(ValueError):
            CorpusFilterConfig(max_numeric_ratio=1.5)
        with pytest.raises(ValueError):
            CorpusFilterConfig(language_mode="syllable")
        with pytest.raises(ValueError):
            CorpusFilterConfig(format="xml")


class TestLoadCorpus:
    def test_counts_and_reasons(self, tmp_path):
        lines = ["short sentence here"] * 8 + [" ".join(["tok"] * 300)] * 2
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        expressions, report = load_corpus(path, cfg=CorpusFilterConfig())
        assert len(expressions) == 8
        assert report.kept == 8
        assert report.discarded["length"] == 2
        assert report.discarded["numeric"] == 0
        assert report.total == 10

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        expressions, report = load_corpus(path)
        assert expressions == []
        assert report.as_dict() == {
            "kept": 0,
            "discarded": {"length": 0, "numeric": 0, "empty": 0, "malformed": 0},
            "total": 0,
        }

    def test_id_derived_from_file_name_and_line(self, tmp_path, monkeypatch):
        path = tmp_path / "one.txt"
        path.write_text("a b c d e f g h i j\n", encoding="utf-8")
        expressions, _ = load_corpus(path)
        assert len(expressions) == 1
        assert expressions[0].id == "one.txt:1"
        assert len(tokenize(expressions[0].text)) == 10
        monkeypatch.chdir(tmp_path)
        assert load_corpus("one.txt")[0] == load_corpus(f"../{tmp_path.name}/one.txt")[0]

    def test_structured_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [
            {"text": "first unit", "id": "custom-1"},
            {"text": "second unit"},
            {"no_text": True},
            {"text": 7},
            {"text": "third unit", "id": 3},
            # An id is a string or an integer, as a gold file's is.
            {"text": "fourth unit", "id": True},
            {"text": "fifth unit", "id": 1.5},
            {"text": "sixth unit", "id": ["a"]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\nnot json\n", encoding="utf-8")
        expressions, report = load_corpus(path, CorpusFilterConfig(format=STRUCTURED_RECORDS))
        assert [e.id for e in expressions] == ["custom-1", "records.jsonl:2", "3"]
        assert report.discarded["malformed"] == 6

    @pytest.mark.parametrize(
        "first, second, used_on",
        [
            ("custom-1", {"id": "custom-1", "text": "second unit"}, 1),
            ("custom-1", {"id": "records.jsonl:2", "text": "second unit"}, 2),
            ("custom-1", {"id": "custom-1", "text": " ".join(["tok"] * 300)}, 1),
            (5, {"id": "5", "text": "second unit"}, 1),
        ],
    )
    def test_repeated_id_raises_naming_both_lines(self, tmp_path, first, second, used_on):
        path = tmp_path / "records.jsonl"
        records = [{"id": first, "text": "first unit"}, {"text": "plain unit"}, second]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        message = f"{path}:3: id {second['id']!r} is already used on line {used_on}"
        with pytest.raises(ValueError) as raised:
            load_corpus(path, CorpusFilterConfig(format=STRUCTURED_RECORDS))
        assert str(raised.value) == message

    def test_length_counts_tokens_of_the_language_mode(self, tmp_path):
        path = tmp_path / "one-word.txt"
        path.write_text("abcdefgh\n", encoding="utf-8")
        character = CorpusFilterConfig(max_tokens=5, language_mode=CHARACTER)
        expressions, report = load_corpus(path, character)
        assert expressions == []
        assert report.discarded["length"] == 1
        spaced = CorpusFilterConfig(max_tokens=5, language_mode=SPACE_DELIMITED)
        expressions, report = load_corpus(path, spaced)
        assert [e.text for e in expressions] == ["abcdefgh"]
        assert report.kept == 1

    @pytest.mark.parametrize(
        "fmt, first",
        [(PLAIN_LINES, "real line"), (STRUCTURED_RECORDS, '{"text": "real line"}')],
        ids=[PLAIN_LINES, STRUCTURED_RECORDS],
    )
    def test_blank_lines_counted_empty(self, tmp_path, fmt, first):
        path = tmp_path / "blanks.txt"
        path.write_text(f"{first}\n\n   \n", encoding="utf-8")
        expressions, report = load_corpus(path, CorpusFilterConfig(format=fmt))
        assert len(expressions) == 1
        assert report.discarded["empty"] == 2

    def test_deterministic(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("one two\nthree four\n1 2 3 4\n", encoding="utf-8")
        first = load_corpus(path)
        second = load_corpus(path)
        assert first[0] == second[0]
        assert first[1].as_dict() == second[1].as_dict()

    def test_kept_plus_discarded_equals_total(self, tmp_path):
        rng = random.Random(3)
        lines = []
        for _ in range(60):
            kind = rng.random()
            if kind < 0.3:
                lines.append(" ".join(str(rng.randint(0, 9)) for _ in range(4)))
            elif kind < 0.5:
                lines.append(" ".join(["w"] * rng.randint(257, 300)))
            elif kind < 0.6:
                lines.append("   ")
            else:
                lines.append("plain words only here")
        path = tmp_path / "mixed.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        expressions, report = load_corpus(path)
        assert report.total == 60
        assert report.kept == len(expressions)
        cfg = CorpusFilterConfig()
        for expr in expressions:
            tokens = tokenize(expr.text, cfg.language_mode)
            assert len(tokens) <= cfg.max_tokens
            assert numeric_ratio(tokens) <= cfg.max_numeric_ratio
            assert expr.text

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "missing.txt")
