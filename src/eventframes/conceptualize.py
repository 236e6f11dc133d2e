"""Turn expressions into schema candidates via in-context generation.

The prompt is a block of "<text> SEP <schema>" demonstration lines followed by
the target text and a trailing separator the endpoint must complete.
"""

from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import EventExpression
from .endpoint import GenerationClient, GenerationRequest, TransportError, generate_all
from .schemas import Demonstration, SchemaCandidate, SchemaParseError, parse_schema, render_schema

log = logging.getLogger(__name__)

SEPARATOR = "→"  # →


@dataclass(frozen=True)
class ConceptualizedInstance:
    """An expression with its parsed schema candidates, at least one."""

    expression: EventExpression
    candidates: tuple[SchemaCandidate, ...]
    parse_failures: int = 0

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("no candidates")
        if self.parse_failures < 0:
            raise ValueError(f"parse_failures must be >= 0, got {self.parse_failures}")


@dataclass
class ConceptualizeReport:
    instances: int = 0
    dropped: int = 0
    transport_failures: int = 0
    parse_failures: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class ConfigError(ValueError):
    """A config value is out of range, or a setting a stage needs is missing."""


def sample_demonstrations(
    pool: Sequence[Demonstration], m: int, seed: int
) -> list[Demonstration]:
    """Draw m distinct demonstrations uniformly without replacement.

    Deterministic for a fixed (pool order, m, seed).
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if len(pool) < m:
        raise ConfigError(
            f"demonstration pool has {len(pool)} entries but m={m} were requested"
        )
    return random.Random(seed).sample(list(pool), m)


def _clean(text: str) -> str:
    # The separator must appear exactly once per prompt line, so any literal
    # occurrence inside a text is rewritten.
    return text.replace(SEPARATOR, "->").replace("\n", " ").strip()


def build_prompt(demos: Sequence[Demonstration], text: str) -> str:
    """One "<text> SEP <rendered schema>" line per demonstration, then the
    target text followed by the separator and a single space."""
    if not demos:
        raise ValueError("at least one demonstration is required")
    lines = [f"{_clean(d.text)} {SEPARATOR} {render_schema(d.schema)}" for d in demos]
    lines.append(f"{_clean(text)} {SEPARATOR} ")
    return "\n".join(lines)


def conceptualize_corpus(
    client: GenerationClient,
    demos: Sequence[Demonstration],
    corpus: Sequence[EventExpression],
    n: int = 3,
    max_new_tokens: int = 64,
    temperature: float | None = None,
    workers: int = 1,
) -> tuple[list[ConceptualizedInstance], ConceptualizeReport]:
    """Conceptualize every expression, preserving corpus order.

    Each distinct prompt is requested once (`generate_all`), with up to
    `workers` requests in flight; expressions with the same text share its
    completions.  An expression is dropped, and counted in the report, when
    its request fails or every completion fails to parse.
    """
    if temperature is None:
        temperature = 0.7 if n > 1 else 0.0
    requests = [
        GenerationRequest(
            prompt=build_prompt(demos, expression.text),
            n=n,
            max_new_tokens=max_new_tokens,
            temperature=temperature,
        )
        for expression in corpus
    ]
    outcomes = generate_all(client, requests, workers)

    report = ConceptualizeReport()
    instances: list[ConceptualizedInstance] = []
    for expression, request in zip(corpus, requests):
        outcome = outcomes[request]
        if isinstance(outcome, TransportError):
            log.warning("expression %s dropped: %s", expression.id, outcome)
            report.dropped += 1
            report.transport_failures += 1
            continue
        candidates: list[SchemaCandidate] = []
        failures = 0
        for completion in outcome.completions[:n]:
            try:
                candidates.append(parse_schema(completion))
            except SchemaParseError:
                failures += 1
        report.parse_failures += failures
        if not candidates:
            report.dropped += 1
            log.warning("expression %s dropped: all completions malformed", expression.id)
            continue
        instances.append(ConceptualizedInstance(expression, tuple(candidates), failures))
        report.instances += 1
    return instances, report
