import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventframes.schemas import (
    Demonstration,
    SchemaCandidate,
    SchemaParseError,
    load_demonstrations,
    normalize_label,
    parse_schema,
    render_schema,
)

from oracles import reference_parse_schema


class TestNormalizeLabel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Victim", "victim"),
            ("  agent  ", "agent"),
            ("time of  day", "time of day"),
            ("victim.", "victim"),
            ("victim!?", "victim"),
            ("self-defense", "self-defense"),
            ("...", ""),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_label(raw) == expected


class TestRenderSchema:
    def test_four_slot_candidate(self):
        candidate = SchemaCandidate("die", ("agent", "attacker", "instrument", "victim"))
        assert render_schema(candidate) == "Type: die, Slots: agent; attacker; instrument; victim"

    def test_empty_slot_list(self):
        assert render_schema(SchemaCandidate("x", ())) == "Type: x, Slots:"


class TestParseSchema:
    def test_canonical_string(self):
        candidate = parse_schema("Type: die, Slots: agent; attacker; instrument; victim")
        assert candidate.event_type == "die"
        assert candidate.slots == ("agent", "attacker", "instrument", "victim")

    def test_duplicate_slots_deduplicated(self):
        candidate = parse_schema("Type: die, Slots: agent; agent; victim")
        assert candidate.slots == ("agent", "victim")

    def test_missing_marker(self):
        with pytest.raises(SchemaParseError) as excinfo:
            parse_schema("no markers here")
        assert excinfo.value.raw == "no markers here"

    def test_empty_type(self):
        with pytest.raises(SchemaParseError):
            parse_schema("Type: , Slots: a")

    def test_case_insensitive_markers(self):
        candidate = parse_schema("TYPE: Attack, SLOTS: Agent; Target")
        assert candidate.event_type == "attack"
        assert candidate.slots == ("agent", "target")

    def test_truncates_at_stop_residue(self):
        candidate = parse_schema("Type: die, Slots: agent\nnext prompt line → garbage")
        assert candidate.event_type == "die"
        assert candidate.slots == ("agent",)

    def test_missing_slots_marker_gives_empty_slots(self):
        candidate = parse_schema("Type: die")
        assert candidate.event_type == "die"
        assert candidate.slots == ()

    def test_trailing_noise_in_slots(self):
        candidate = parse_schema("Type: die, Slots: agent; victim;")
        assert candidate.slots == ("agent", "victim")

    # Markers in any case and spacing, separators, punctuation, Unicode
    # whitespace, and letters whose case mapping changes their length.
    FRAGMENTS = [
        "Type:", "type :", "TYPE\t:", "Slots:", "sLoTs :", "slots", ",", ";", ".", "!?", "…",
        "-", "'", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "a", "Die", "İ",
        "ß", "ǅ", "\u0307",
    ]

    @given(
        st.sampled_from(["", "Type:"]),
        st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=2), max_size=14).map("".join),
    )
    @settings(max_examples=1000, deadline=None)
    def test_agrees_with_the_reference_parser(self, marker, rest):
        """create's type rule, applied once, accepts and refuses what the
        parser's own normalization and empty-type check did."""
        raw = marker + rest

        def outcome(parse):
            try:
                return parse(raw)
            except SchemaParseError as exc:
                assert exc.raw == raw
                return SchemaParseError

        assert outcome(parse_schema) == outcome(reference_parse_schema)


def random_label(rng: random.Random) -> str:
    words = [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 3))
    ]
    return " ".join(words)


def random_candidate(rng: random.Random) -> SchemaCandidate:
    slots = {random_label(rng) for _ in range(rng.randint(0, 6))}
    return SchemaCandidate.create(random_label(rng), sorted(slots))


class TestRoundTrip:
    def test_parse_render_identity(self):
        rng = random.Random(1234)
        for _ in range(300):
            candidate = random_candidate(rng)
            assert parse_schema(render_schema(candidate)) == candidate


class TestDemonstrations:
    def test_load_file(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        path.write_text(
            '{"text": "Bombs went off", "type": "Attack", "slots": ["Attacker", "target"]}\n'
            "\n"
            '{"text": "They married", "type": "marry", "slots": []}\n',
            encoding="utf-8",
        )
        demos = load_demonstrations(path)
        assert len(demos) == 2
        assert demos[0].schema.event_type == "attack"
        assert demos[0].schema.slots == ("attacker", "target")
        assert demos[1].schema.slots == ()

    def test_bad_record_raises_with_location(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        path.write_text('{"text": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="demos.jsonl:1"):
            load_demonstrations(path)

    @pytest.mark.parametrize(
        "record, reason",
        [
            pytest.param(
                {"text": 7, "type": "attack", "slots": []}, "text must be a string, got 7", id="record0"
            ),
            pytest.param(
                {"text": "Bombs went off", "type": ["attack"], "slots": []},
                "type must be a string, got ['attack']",
                id="record1",
            ),
            pytest.param(
                {"text": "Bombs went off", "type": "attack", "slots": ["target", None]},
                "slots must be a list (each item a string), got ['target', None]",
                id="record2",
            ),
            # A string is not a slot list: it would load as one slot per character.
            pytest.param(
                {"text": "Bombs went off", "type": "attack", "slots": "abc"},
                "slots must be a list (each item a string), got 'abc'",
                id="record3",
            ),
        ],
    )
    def test_mistyped_field_raises_with_location(self, tmp_path, record, reason):
        path = tmp_path / "demos.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_demonstrations(path)
        assert str(info.value) == f"{path}:1: bad demonstration record: {reason}"

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Demonstration(text="   ", schema=SchemaCandidate("t", ()))
