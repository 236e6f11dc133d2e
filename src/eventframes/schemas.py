"""Schema surface form: "Type: <t>, Slots: <s1>; <s2>; ..." and its parser."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .fileio import read_records, typed

_WHITESPACE_RUN = re.compile(r"\s+")

_TYPE_MARKER = re.compile(r"type\s*:", re.IGNORECASE)
_SLOTS_MARKER = re.compile(r"slots\s*:", re.IGNORECASE)


class SchemaParseError(ValueError):
    """A completion that does not carry a recognizable schema."""

    def __init__(self, message: str, raw: str):
        super().__init__(f"{message}: {raw!r}")
        self.raw = raw


@lru_cache(maxsize=4096)  # a corpus repeats few names many times; uncached ~1.5 µs each
def normalize_label(label: str) -> str:
    """Canonical form for type and slot names.

    Lowercase, trim, collapse internal whitespace, strip trailing punctuation.
    Frequency counting and co-occurrence need a single canonical key per name.
    """
    label = _WHITESPACE_RUN.sub(" ", label.strip()).lower()
    while label and unicodedata.category(label[-1]).startswith("P"):
        label = label[:-1].rstrip()
    return label


def _canonical(event_type: str, slots: list[str] | tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    """Each name normalized; the slots without empty names or repeats, in first-seen order."""
    slots = tuple(dict.fromkeys(filter(None, map(normalize_label, slots))))
    return normalize_label(event_type), slots


@dataclass(frozen=True)
class SchemaCandidate:
    """One parsed generation output: an event type plus its ordered slot list.
    Only a candidate whose names _canonical gives back unchanged, and whose
    surface form parses back to it, is built."""

    event_type: str
    slots: tuple[str, ...]

    def __post_init__(self) -> None:
        event_type, slots = _canonical(self.event_type, self.slots)
        if not event_type:
            reason = "event type must be non-empty after normalization"
        elif _SLOTS_MARKER.search(event_type):
            reason = f"event type {event_type!r} holds a 'Slots:' marker"
        elif any(";" in slot for slot in slots):
            reason = f"a slot holds ';': {slots!r}"
        elif (event_type, slots) != (self.event_type, self.slots):
            canonical = render_schema(SchemaCandidate(event_type, slots))
            raise ValueError(f"candidate {render_schema(self)!r} is not canonical: {canonical!r}")
        else:
            return
        raise ValueError(f"candidate {render_schema(self)!r}: {reason}")

    @classmethod
    def create(cls, event_type: str, slots: list[str] | tuple[str, ...]) -> "SchemaCandidate":
        """The canonical candidate of raw names."""
        return cls(*_canonical(event_type, slots))


def render_schema(candidate: SchemaCandidate) -> str:
    """Render the exact surface form; an empty slot list renders "Type: <t>, Slots:"."""
    if not candidate.slots:
        return f"Type: {candidate.event_type}, Slots:"
    return f"Type: {candidate.event_type}, Slots: " + "; ".join(candidate.slots)


def parse_schema(raw: str) -> SchemaCandidate:
    """Parse a completion into a SchemaCandidate.

    Matching is case-insensitive on the "Type:" and "Slots:" markers, the text
    is truncated at any stop-token residue (first newline), slots are
    semicolon-split, normalized, and deduplicated preserving first occurrence.
    Raises SchemaParseError when the "Type:" marker is missing or the type
    name is empty.
    """
    line = raw.split("\n", 1)[0]
    type_match = _TYPE_MARKER.search(line)
    if type_match is None:
        raise SchemaParseError("missing 'Type:' marker", raw)
    rest = line[type_match.end():]
    slots_match = _SLOTS_MARKER.search(rest)
    if slots_match is None:
        type_part, slots_part = rest, ""
    else:
        type_part, slots_part = rest[: slots_match.start()], rest[slots_match.end():]

    try:
        return SchemaCandidate.create(type_part, slots_part.split(";"))
    except ValueError as exc:
        raise SchemaParseError(str(exc), raw) from None


@dataclass(frozen=True)
class Demonstration:
    """A <text, schema> exemplar placed in the prompt."""

    text: str
    schema: SchemaCandidate

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("demonstration text must be non-empty")


def load_demonstrations(path: str | Path) -> list[Demonstration]:
    """Read a demonstrations file: one {"text", "type", "slots"} object per line."""
    return [demo for _, demo in read_records(path, "demonstration record", _demonstration)]


def _demonstration(record: dict) -> Demonstration:
    schema = SchemaCandidate.create(
        typed("type", str, record["type"]), typed("slots", tuple[str, ...], record.get("slots", []))
    )
    return Demonstration(text=typed("text", str, record["text"]), schema=schema)
