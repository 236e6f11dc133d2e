"""Semantic similarity in [0, 1] as an ensemble of pluggable backends.

Three backend kinds: token/bigram overlap (lexical), synonym-set lookup
(lexicon), and vector cosine (embedding).  Every backend is symmetric, maps
any string pair into [0, 1], and scores identical non-empty strings as 1.

Each backend scores one pair (`score`) or every pair of two string lists at
once (`matrix`); the matrix holds exactly the floats `score` returns.  The
lexicon and embedding backends fall back to the lexical score, so `matrix`
takes the lexical matrix of the same lists when the caller already has it.
The embedding matrix computes all cosines of the covered strings in one
numpy call, with the same dot-product kernel as `score`.  An embedding
service that fails to return vectors raises `EmbeddingServiceError`; it is
never replaced by lexical scores.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

log = logging.getLogger(__name__)

LEXICAL = "lexical"
LEXICON = "lexicon"
EMBEDDING = "embedding"


class SimilarityBackend(Protocol):
    kind: str

    def score(self, a: str, b: str) -> float: ...

    def matrix(
        self, xs: Sequence[str], ys: Sequence[str], lexical: np.ndarray | None = None
    ) -> np.ndarray:
        """[[score(x, y) for y in ys] for x in xs], bitwise.  `lexical`, if
        given, is LexicalBackend().matrix(xs, ys) and is not modified."""
        ...


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _bigrams(token: str) -> list[str]:
    if len(token) < 2:
        return [token]
    return [token[i : i + 2] for i in range(len(token) - 1)]


def _dice(a: Counter, b: Counter) -> float:
    total = sum(a.values()) + sum(b.values())
    if total == 0:
        return 0.0
    shared = sum((a & b).values())
    return 2.0 * shared / total


def _incidence(rows: list[list[int]], width: int) -> np.ndarray:
    """0/1 matrix with a 1 at (r, c) for every column c listed in rows[r]."""
    out = np.zeros((len(rows), width))
    row_of = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    out[row_of, np.array([c for row in rows for c in row], dtype=np.intp)] = 1.0
    return out


def _dice_matrix(xs: list[list[str]], ys: list[list[str]]) -> np.ndarray:
    """`_dice` of the multisets of every pair of item lists.

    The k-th occurrence of an item is a feature of its own, so the multiset
    intersection size is the dot product of 0/1 feature rows.  Numerators and
    denominators are integers (exact in float64), so each cell is exactly
    2.0 * shared / total.
    """
    features: dict[tuple[str, int], int] = {}

    def feature_ids(items: list[str]) -> list[int]:
        seen: dict[str, int] = {}
        ids = []
        for item in items:
            seen[item] = occurrence = seen.get(item, 0) + 1
            ids.append(features.setdefault((item, occurrence), len(features)))
        return ids

    ids_x = [feature_ids(items) for items in xs]
    ids_y = [feature_ids(items) for items in ys]
    shared = _incidence(ids_x, len(features)) @ _incidence(ids_y, len(features)).T
    total = np.add.outer([float(len(i)) for i in xs], [float(len(i)) for i in ys])
    return np.divide(2.0 * shared, total, out=np.zeros_like(shared), where=total > 0)


class LexicalBackend:
    """Dice coefficient over token multisets; character bigrams when both
    sides are single tokens.  The dependency-free floor every deployment has."""

    kind = LEXICAL

    def score(self, a: str, b: str) -> float:
        tokens_a, tokens_b = _tokens(a), _tokens(b)
        if not tokens_a or not tokens_b:
            return 0.0
        if len(tokens_a) == 1 and len(tokens_b) == 1:
            return _dice(Counter(_bigrams(tokens_a[0])), Counter(_bigrams(tokens_b[0])))
        return _dice(Counter(tokens_a), Counter(tokens_b))

    def matrix(
        self, xs: Sequence[str], ys: Sequence[str], lexical: np.ndarray | None = None
    ) -> np.ndarray:
        if lexical is not None:
            return lexical
        # Token Dice everywhere (an empty side shares nothing, so scores 0),
        # then bigram Dice where both sides are single tokens.
        tokens_x, tokens_y = [_tokens(x) for x in xs], [_tokens(y) for y in ys]
        out = _dice_matrix(tokens_x, tokens_y)
        single_x = [i for i, tokens in enumerate(tokens_x) if len(tokens) == 1]
        single_y = [j for j, tokens in enumerate(tokens_y) if len(tokens) == 1]
        if single_x and single_y:
            out[np.ix_(single_x, single_y)] = _dice_matrix(
                [_bigrams(tokens_x[i][0]) for i in single_x],
                [_bigrams(tokens_y[j][0]) for j in single_y],
            )
        return out


class LexiconBackend:
    """Score 1 when the two strings share a synonym set, else fall through to
    the lexical score."""

    kind = LEXICON

    def __init__(self, synonym_sets: Iterable[Iterable[str]]):
        self._set_ids: dict[str, set[int]] = {}
        for set_id, group in enumerate(synonym_sets):
            for member in group:
                key = member.strip().lower()
                if key:
                    self._set_ids.setdefault(key, set()).add(set_id)
        self._fallback = LexicalBackend()

    @classmethod
    def from_file(cls, path: str | Path) -> "LexiconBackend":
        """Load a synonym-set file: one group per line, members tab-separated."""
        groups: list[list[str]] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                members = [m for m in line.rstrip("\n").split("\t") if m.strip()]
                if members:
                    groups.append(members)
        return cls(groups)

    def score(self, a: str, b: str) -> float:
        key_a, key_b = a.strip().lower(), b.strip().lower()
        if key_a and key_a == key_b:
            return 1.0
        if self._set_ids.get(key_a, set()) & self._set_ids.get(key_b, set()):
            return 1.0
        return self._fallback.score(a, b)

    def matrix(
        self, xs: Sequence[str], ys: Sequence[str], lexical: np.ndarray | None = None
    ) -> np.ndarray:
        keys_x = [x.strip().lower() for x in xs]
        keys_y = [y.strip().lower() for y in ys]
        key_ids: dict[str, int] = {"": -1}  # an empty key equals nothing
        ids_x = np.array([key_ids.setdefault(k, len(key_ids)) for k in keys_x], dtype=int)
        ids_y = np.array([key_ids.setdefault(k, len(key_ids)) for k in keys_y], dtype=int)
        same_key = np.equal.outer(ids_x, ids_y) & (ids_x >= 0)[:, None]
        # Synonym-set incidence over the sets these strings belong to.
        columns: dict[int, int] = {}

        def set_columns(key: str) -> list[int]:
            return [columns.setdefault(s, len(columns)) for s in self._set_ids.get(key, ())]

        sets_x = [set_columns(k) for k in keys_x]
        sets_y = [set_columns(k) for k in keys_y]
        shared_set = _incidence(sets_x, len(columns)) @ _incidence(sets_y, len(columns)).T > 0
        return np.where(same_key | shared_set, 1.0, self._fallback.matrix(xs, ys, lexical))


class EmbeddingBackend:
    """Cosine similarity of mean-pooled token vectors, mapped to [0, 1] via
    (1 + cos) / 2.  Pairs with no vector coverage on either side fall back to
    the lexical score and are flagged in diagnostics."""

    kind = EMBEDDING

    def __init__(self, vectors: dict[str, np.ndarray]):
        self._vectors = {k.lower(): np.asarray(v, dtype=float) for k, v in vectors.items()}
        self._fallback = LexicalBackend()
        self.fallback_count = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "EmbeddingBackend":
        """Load a vector table: one "token v1 v2 ... vd" line per token."""
        vectors: dict[str, np.ndarray] = {}
        dim: int | None = None
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                parts = line.split()
                if not parts:
                    continue
                token, values = parts[0], parts[1:]
                if dim is None:
                    dim = len(values)
                try:
                    if len(values) != dim:
                        raise ValueError(f"expected {dim} components, got {len(values)}")
                    vectors[token] = np.array([float(v) for v in values])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return cls(vectors)

    def _pool(self, text: str) -> np.ndarray | None:
        found = [self._vectors[t] for t in _tokens(text) if t in self._vectors]
        if not found:
            return None
        pooled = np.mean(found, axis=0)
        norm = np.linalg.norm(pooled)
        if norm == 0.0:
            return None
        return pooled / norm

    @staticmethod
    def _unit(cosine: np.ndarray) -> np.ndarray:
        """Cosines, clipped to [-1, 1], mapped onto [0, 1]: the one expression
        that score and matrix share, elementwise in float64."""
        return (1.0 + np.clip(cosine, -1.0, 1.0)) / 2.0

    def score(self, a: str, b: str) -> float:
        vec_a, vec_b = self._pool(a), self._pool(b)
        if vec_a is None or vec_b is None:
            self.fallback_count += 1
            log.debug("embedding miss for (%r, %r); lexical fallback", a[:40], b[:40])
            return self._fallback.score(a, b)
        return float(self._unit(np.dot(vec_a, vec_b)))

    def matrix(
        self, xs: Sequence[str], ys: Sequence[str], lexical: np.ndarray | None = None
    ) -> np.ndarray:
        # Every uncovered cell counts as one fallback.
        pooled = {text: self._pool(text) for text in dict.fromkeys([*xs, *ys])}
        covered_x = [i for i, x in enumerate(xs) if pooled[x] is not None]
        covered_y = [j for j, y in enumerate(ys) if pooled[y] is not None]
        misses = len(xs) * len(ys) - len(covered_x) * len(covered_y)
        self.fallback_count += misses
        log.debug("embedding misses: %d of %d pairs scored lexically", misses, len(xs) * len(ys))
        out = self._fallback.matrix(xs, ys) if lexical is None else lexical.copy()
        if covered_x and covered_y:
            # A stack of 1×d @ d×1 products: numpy runs each through the same
            # dot kernel as np.dot on two vectors, so every cell equals score
            # bitwise.  A gemm (vec_x @ vec_y.T) or einsum sums in another
            # order and can differ in the last bit.
            vec_x = np.stack([pooled[xs[i]] for i in covered_x])
            vec_y = np.stack([pooled[ys[j]] for j in covered_y])
            dots = np.matmul(vec_x[:, None, None, :], vec_y[None, :, :, None])[:, :, 0, 0]
            out[np.ix_(covered_x, covered_y)] = self._unit(dots)
        return out


class EmbeddingServiceError(RuntimeError):
    """The embedding service did not return the vectors asked for."""


class EmbeddingServiceBackend(EmbeddingBackend):
    """Embedding backend that fetches vectors from an HTTP service on demand.

    POSTs {"texts": [...]} and expects {"vectors": [[...], ...]}, one vector
    per text.  Fetched vectors are cached for the lifetime of the backend.  A
    failed fetch raises EmbeddingServiceError rather than scoring lexically.
    """

    def __init__(self, url: str, fetch: Callable[[list[str]], list[list[float]]] | None = None):
        super().__init__({})
        self.url = url
        self._fetch = fetch or self._http_fetch

    def _http_fetch(self, texts: list[str]) -> list[list[float]]:
        import requests

        response = requests.post(self.url, json={"texts": texts}, timeout=60)
        response.raise_for_status()
        return response.json()["vectors"]

    def _pool(self, text: str) -> np.ndarray | None:
        missing = [t for t in _tokens(text) if t not in self._vectors]
        if missing:
            try:
                vectors = self._fetch(missing)
                if len(vectors) != len(missing):
                    raise ValueError(f"{len(vectors)} vectors for {len(missing)} texts")
            except Exception as exc:
                raise EmbeddingServiceError(f"embedding service {self.url} failed: {exc}") from exc
            for token, vector in zip(missing, vectors):
                self._vectors[token] = np.asarray(vector, dtype=float)
        return super()._pool(text)


@dataclass
class SimilarityEnsemble:
    """Convex combination of backend scores; the result stays in [0, 1].

    Scores are cached under an order-independent key, which also makes
    sim(a, b) == sim(b, a) bitwise.  `matrix` scores whole lists at once,
    without the cache, and yields the same floats as `sim`.
    """

    backends: Sequence[SimilarityBackend]
    weights: Sequence[float] | None = None
    _cache: dict[tuple[str, str], float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("ensemble needs at least one backend")
        if self.weights is None:
            self.weights = [1.0 / len(self.backends)] * len(self.backends)
        if len(self.weights) != len(self.backends):
            raise ValueError("weights and backends must align")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-9:
            if total == 0:
                raise ValueError("weights must not all be zero")
            self.weights = [w / total for w in self.weights]

    def sim(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = sum(w * backend.score(*key) for w, backend in zip(self.weights, self.backends))
        value = min(max(value, 0.0), 1.0)
        self._cache[key] = value
        return value

    def matrix(self, xs: Sequence[str], ys: Sequence[str]) -> np.ndarray:
        """[[sim(x, y) for y in ys] for x in xs], bitwise: the weighted
        backend matrices are summed from 0 in backend order, then clipped.
        The lexical matrix is built once and shared by every backend."""
        lexical = LexicalBackend().matrix(xs, ys)
        total = sum(
            w * backend.matrix(xs, ys, lexical) for w, backend in zip(self.weights, self.backends)
        )
        return np.clip(total, 0.0, 1.0)

    def sim_slotsets(self, a: Iterable[str], b: Iterable[str]) -> float:
        """Soft best-match average between two slot sets.

        (sum over A of best match in B + sum over B of best match in A)
        divided by |A| + |B|; both sets empty scores 1, exactly one empty 0.
        """
        set_a, set_b = sorted(set(a)), sorted(set(b))
        if not set_a and not set_b:
            return 1.0
        if not set_a or not set_b:
            return 0.0
        forward = sum(max(self.sim(x, y) for y in set_b) for x in set_a)
        backward = sum(max(self.sim(x, y) for x in set_a) for y in set_b)
        return (forward + backward) / (len(set_a) + len(set_b))


def default_ensemble() -> SimilarityEnsemble:
    return SimilarityEnsemble(backends=[LexicalBackend()])
