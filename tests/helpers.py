"""Shared builders for tests: tiny instances, a table-backed similarity, and
a client that serves canned completions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eventframes.conceptualize import ConceptualizedInstance
from eventframes.corpus import EventExpression
from eventframes.endpoint import GenerationRequest, GenerationResponse, TransportError
from eventframes.schemas import SchemaCandidate
from eventframes.similarity import SimilarityEnsemble


class TableBackend:
    """Similarity backend with engineered pair scores (identity is always 1)."""

    kind = "table"

    def __init__(self, table: dict[tuple[str, str], float], default: float = 0.0):
        self.table = {frozenset(pair): value for pair, value in table.items()}
        self.default = default

    def score(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return self.table.get(frozenset((a, b)), self.default)

    def matrix(self, xs, ys, lexical=None) -> np.ndarray:
        return np.array([[self.score(x, y) for y in ys] for x in xs], dtype=float).reshape(
            len(xs), len(ys)
        )


def table_ensemble(table: dict[tuple[str, str], float], default: float = 0.0) -> SimilarityEnsemble:
    return SimilarityEnsemble(backends=[TableBackend(table, default)])


@dataclass
class StaticClient:
    """Serves canned completions from a prompt -> completions table."""

    table: dict[str, list[str]]
    default: list[str] | None = None

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        completions = self.table.get(request.prompt, self.default)
        if completions is None:
            raise TransportError(f"no canned completions for prompt {request.prompt[:80]!r}")
        return GenerationResponse(completions=tuple(completions[: request.n]))


def expression(expr_id: str, text: str) -> EventExpression:
    return EventExpression.from_text(expr_id, text, source=expr_id)


def instance(expr_id: str, text: str, candidates) -> ConceptualizedInstance:
    return ConceptualizedInstance(
        expression(expr_id, text),
        tuple(SchemaCandidate.create(t, list(slots)) for t, slots in candidates),
    )
