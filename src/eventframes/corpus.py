"""Corpus loading, segmentation into expression units, and length/numeric filters."""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .fileio import read_text

SPACE_DELIMITED = "space-delimited"
CHARACTER = "character"

PLAIN_LINES = "plain-lines"
STRUCTURED_RECORDS = "structured-records"


@dataclass(frozen=True)
class CorpusFilterConfig:
    """Corpus file format, and bounds for dropping too long or too numeric units."""

    format: str = PLAIN_LINES
    max_tokens: int = 256
    max_numeric_ratio: float = 0.25
    language_mode: str = SPACE_DELIMITED

    def __post_init__(self) -> None:
        if self.format not in (PLAIN_LINES, STRUCTURED_RECORDS):
            raise ValueError(f"unknown corpus format: {self.format!r}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not 0.0 <= self.max_numeric_ratio <= 1.0:
            raise ValueError(
                f"max_numeric_ratio must be in [0, 1], got {self.max_numeric_ratio}"
            )
        if self.language_mode not in (SPACE_DELIMITED, CHARACTER):
            raise ValueError(f"unknown language_mode: {self.language_mode!r}")


@dataclass(frozen=True)
class EventExpression:
    """One filtered input text unit."""

    id: str
    text: str
    source: str

    @classmethod
    def from_text(cls, id: str, text: str, source: str) -> "EventExpression":
        return cls(id=id, text=text.strip(), source=source)


def tokenize(text: str, language_mode: str = SPACE_DELIMITED) -> list[str]:
    """Split text into tokens.

    Space-delimited mode splits on unicode whitespace (runs of whitespace
    collapse, so joining with single spaces reproduces the trimmed text up to
    whitespace normalization).  Character mode emits one token per
    non-whitespace character, keeping combining marks attached to their base.
    """
    if language_mode == SPACE_DELIMITED:
        return text.split()
    if language_mode == CHARACTER:
        tokens: list[str] = []
        for ch in text:
            if ch.isspace():
                continue
            if tokens and unicodedata.category(ch).startswith("M"):
                tokens[-1] += ch
            else:
                tokens.append(ch)
        return tokens
    raise ValueError(f"unknown language_mode: {language_mode!r}")


def is_numeric_token(token: str) -> bool:
    """A token is numeric when at least half its characters are decimal digits."""
    if not token:
        return False
    digits = sum(1 for ch in token if ch.isdigit())
    return digits * 2 >= len(token)


def numeric_ratio(tokens: Iterable[str]) -> float:
    tokens = list(tokens)
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if is_numeric_token(t)) / len(tokens)


KEEP = "keep"
DISCARD_LENGTH = "length"
DISCARD_NUMERIC = "numeric"
DISCARD_EMPTY = "empty"
DISCARD_MALFORMED = "malformed"


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    reason: str

    def __bool__(self) -> bool:
        return self.keep


def filter_expression(expr: EventExpression, cfg: CorpusFilterConfig) -> FilterDecision:
    """Decide whether to keep an expression; the reason names the rule that fired."""
    if not expr.text:
        return FilterDecision(False, DISCARD_EMPTY)
    tokens = tokenize(expr.text, cfg.language_mode)
    if len(tokens) > cfg.max_tokens:
        return FilterDecision(False, DISCARD_LENGTH)
    if numeric_ratio(tokens) > cfg.max_numeric_ratio:
        return FilterDecision(False, DISCARD_NUMERIC)
    return FilterDecision(True, KEEP)


@dataclass
class LoadReport:
    """Counts of kept and per-reason discarded units for one load."""

    kept: int = 0
    discarded: dict[str, int] = field(
        default_factory=lambda: {
            DISCARD_LENGTH: 0,
            DISCARD_NUMERIC: 0,
            DISCARD_EMPTY: 0,
            DISCARD_MALFORMED: 0,
        }
    )

    @property
    def total(self) -> int:
        return self.kept + sum(self.discarded.values())

    def as_dict(self) -> dict:
        return {"kept": self.kept, "discarded": dict(self.discarded), "total": self.total}


def _iter_units(path: Path, format: str) -> Iterator[tuple[int, str | None, str | None]]:
    """Yield (line_number, explicit_id, text) per unit; text None marks a malformed record."""
    with read_text(path) as handle:
        for lineno, line in enumerate(handle, 1):
            if format == PLAIN_LINES:
                yield lineno, None, line
            else:
                stripped = line.strip()
                if not stripped:
                    yield lineno, None, ""
                    continue
                try:
                    record = json.loads(stripped)
                    text = record["text"]
                    if not isinstance(text, str):
                        raise TypeError("text field is not a string")
                except (json.JSONDecodeError, KeyError, TypeError):
                    yield lineno, None, None
                    continue
                explicit = record.get("id")
                yield lineno, str(explicit) if explicit is not None else None, text


def load_corpus(
    path: str | Path, cfg: CorpusFilterConfig = CorpusFilterConfig()
) -> tuple[list[EventExpression], LoadReport]:
    """Load the expression units of a cfg.format file that pass the filters.

    Ids are assigned deterministically in input order as "<path>:<line>" unless
    a structured record carries its own "id".  Malformed records are skipped
    and counted in the report.  An id that an earlier line already has,
    discarded or not, raises ValueError naming both lines.
    """
    path = Path(path)

    expressions: list[EventExpression] = []
    report = LoadReport()
    line_of: dict[str, int] = {}
    for lineno, explicit_id, text in _iter_units(path, cfg.format):
        if text is None:
            report.discarded[DISCARD_MALFORMED] += 1
            continue
        expr_id = explicit_id if explicit_id is not None else f"{path}:{lineno}"
        if expr_id in line_of:
            raise ValueError(
                f"{path}:{lineno}: id {expr_id!r} is already used on line {line_of[expr_id]}"
            )
        line_of[expr_id] = lineno
        expr = EventExpression.from_text(expr_id, text, source=f"{path}:{lineno}")
        decision = filter_expression(expr, cfg)
        if decision.keep:
            expressions.append(expr)
            report.kept += 1
        else:
            report.discarded[decision.reason] += 1
    return expressions, report
