"""Semantic similarity in [0, 1] as an ensemble of pluggable backends.

Three backend kinds: token/bigram overlap (lexical), synonym-set lookup
(lexicon), and vector cosine (embedding).  Every backend is symmetric, maps
any string pair into [0, 1], and scores identical non-empty strings as 1.

Each backend implements its similarity once, in `matrix`, which scores every
pair of two string lists.  `score` (one backend) and
`SimilarityEnsemble.sim` (the ensemble) are one-cell views of it; each
backend class defines its own `score`, because perfbench's tracer counts the
calls per class.  The lexicon and embedding backends fall back to the
lexical score, so `matrix` takes the lexical matrix of the same lists when
the caller already has it.  The embedding matrix computes all cosines of the
covered strings in one numpy call, one dot product per cell.  A vector table
is read by numpy's loadtxt in one pass; a table that loadtxt rejects or that
holds nan or inf is parsed again line by line, which names the bad line.  An
embedding service that fails to return vectors raises
`EmbeddingServiceError`; it is never replaced by lexical scores.  Slot-set
similarity is stated once, in `slotset_matrix`: the schema graph calls it,
and `SimilarityEnsemble.sim_slotsets` reads one cell of it.  Every float sum
adds its terms left to right without Python's sum(), which compensates
rounding from Python 3.12 on, so the results are the same bits on every
interpreter.  Work on a matrix of every pair runs `BLOCK_ROWS` rows at a
time where it can, so that its temporaries grow with a block of rows, not
with the matrix.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .fileio import read_text

log = logging.getLogger(__name__)

LEXICAL = "lexical"
LEXICON = "lexicon"
EMBEDDING = "embedding"

# Rows per block wherever an array of every pair (similarity matrices, the
# schema graph, Louvain's dense input) is filled or read a block at a time.
BLOCK_ROWS = 64


def row_blocks(n: int) -> Iterator[slice]:
    """Slices of at most BLOCK_ROWS consecutive rows that cover range(n)."""
    return (slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS))


class SimilarityBackend(Protocol):
    """What the ensemble needs of a backend: its similarity of every pair of
    two string lists, symmetric and in [0, 1]."""

    kind: str

    def matrix(
        self, xs: Sequence[str], ys: Sequence[str], lexical: np.ndarray | None = None
    ) -> np.ndarray:
        """The similarity of xs[i] and ys[j] at [i, j].  `lexical`, if given,
        is LexicalBackend().matrix(xs, ys) and is not modified."""
        ...


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _bigrams(token: str) -> list[str]:
    if len(token) < 2:
        return [token]
    return [token[i : i + 2] for i in range(len(token) - 1)]


def _incidence(rows: list[list[int]], width: int) -> np.ndarray:
    """0/1 matrix with a 1 at (r, c) for every column c listed in rows[r]."""
    out = np.zeros((len(rows), width))
    row_of = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    out[row_of, np.array([c for row in rows for c in row], dtype=np.intp)] = 1.0
    return out


def _dice_matrix(xs: list[list[str]], ys: list[list[str]]) -> np.ndarray:
    """Dice (2 * shared / total) of the multisets of every pair of item lists.

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
    shared *= 2.0
    sizes_x = np.array([float(len(i)) for i in xs])
    sizes_y = np.array([float(len(i)) for i in ys])
    for rows in row_blocks(len(xs)):
        # A zero total has nothing shared, so its cell stays 0.0.
        total = np.add.outer(sizes_x[rows], sizes_y)
        np.divide(shared[rows], total, out=shared[rows], where=total > 0)
    return shared


class LexicalBackend:
    """Dice coefficient over token multisets; character bigrams when both
    sides are single tokens.  The dependency-free floor every deployment has."""

    kind = LEXICAL

    def score(self, a: str, b: str) -> float:
        return float(self.matrix([a], [b])[0, 0])

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
        """Load a synonym-set file: one group per line, members tab-separated,
        at least one group."""
        groups: list[list[str]] = []
        with read_text(path) as handle:
            for line in handle:
                members = [m for m in line.rstrip("\n").split("\t") if m.strip()]
                if members:
                    groups.append(members)
        if not groups:
            raise ValueError(f"{path}: no synonym sets")
        return cls(groups)

    def score(self, a: str, b: str) -> float:
        return float(self.matrix([a], [b])[0, 0])

    def matrix(
        self, xs: Sequence[str], ys: Sequence[str], lexical: np.ndarray | None = None
    ) -> np.ndarray:
        # Synonym-set incidence over the sets these strings belong to.  Two
        # equal non-empty keys have equal tokens, so the lexical score
        # already gives them 1.
        columns: dict[int, int] = {}

        def set_columns(key: str) -> list[int]:
            return [columns.setdefault(s, len(columns)) for s in self._set_ids.get(key, ())]

        sets_x = [set_columns(x.strip().lower()) for x in xs]
        sets_y = [set_columns(y.strip().lower()) for y in ys]
        shared_set = _incidence(sets_x, len(columns)) @ _incidence(sets_y, len(columns)).T > 0
        return np.where(shared_set, 1.0, self._fallback.matrix(xs, ys, lexical))


class EmbeddingBackend:
    """Cosine similarity of mean-pooled token vectors, mapped to [0, 1] via
    (1 + cos) / 2.  Pairs with no vector coverage on either side fall back to
    the lexical score and are flagged in diagnostics."""

    kind = EMBEDDING

    def __init__(self, vectors: dict[str, np.ndarray]):
        self._index(list(vectors), np.array(list(vectors.values()), dtype=float))
        self._fallback = LexicalBackend()
        self.fallback_count = 0

    def _index(self, tokens: Sequence[str], table: np.ndarray) -> None:
        # Row r of the table is the vector of tokens[r].  Tokens are looked up
        # lowercased; where two rows lowercase to one token, the later wins.
        # One dict of row numbers, not one array view per token.
        self._rows = {token.lower(): row for row, token in enumerate(tokens)}
        self._table = table

    @classmethod
    def from_file(cls, path: str | Path) -> "EmbeddingBackend":
        """Load a vector table: one "token v1 v2 ... vd" line per token, d >= 1,
        every component finite, at least one token.  A later line replaces an
        earlier one for the same lowercased token."""
        backend = cls({})
        backend._index(*(_load_table(path) or _parse_table(path)))
        return backend

    def _pool(self, text: str) -> np.ndarray | None:
        return _unit_mean(self._table[[self._rows[t] for t in _tokens(text) if t in self._rows]])

    def score(self, a: str, b: str) -> float:
        return float(self.matrix([a], [b])[0, 0])

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
            # dot kernel as np.dot on two vectors, so a cell does not depend
            # on the other strings in the lists.  A gemm (vec_x @ vec_y.T) or
            # einsum sums in another order and can differ in the last bit.
            vec_x = np.stack([pooled[xs[i]] for i in covered_x])
            vec_y = np.stack([pooled[ys[j]] for j in covered_y])
            dots = np.matmul(vec_x[:, None, None, :], vec_y[None, :, :, None])[:, :, 0, 0]
            out[np.ix_(covered_x, covered_y)] = (1.0 + np.clip(dots, -1.0, 1.0)) / 2.0
        return out


def _load_table(path: str | Path) -> tuple[list[str], np.ndarray] | None:
    """The tokens and the token x component array of a vector table, read by
    numpy's C reader in one pass; None where `_parse_table` must decide: a
    table that loadtxt rejects, or with no components or a non-finite one.

    The reader splits fields on the whitespace that str.split() splits on and
    parses a component as float() parses it, but it rejects spellings float()
    accepts (1_0, non-ASCII digits), so those tables parse line by line.
    """
    tokens: list[str] = []

    def token(field: str) -> float:
        tokens.append(field)
        return 0.0

    try:
        # A handle, not the path: numpy would decompress a path ending in .gz,
        # and it reads the handle's lines, split where _parse_table's are.
        with open(path, encoding="utf-8") as handle, warnings.catch_warnings():
            # An empty table is _parse_table's "no vectors" error.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # Column 0 holds a placeholder for each token.  Before numpy 2.0,
            # loadtxt hands converters latin-1 bytes unless an encoding is given.
            table = np.loadtxt(
                handle, comments=None, ndmin=2, encoding="utf-8", converters={0: token}
            )
    except ValueError:  # also a UnicodeDecodeError
        return None
    vectors = table[:, 1:]
    if not vectors.size or not np.isfinite(vectors).all():
        return None
    return tokens, vectors


def _parse_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The tokens and the token x component array of a vector table, parsed
    line by line with float(); a malformed table raises a ValueError that
    names its file and, where there is one, its line."""
    tokens: list[str] = []
    linenos: list[int] = []
    rows: list[np.ndarray] = []
    dim: int | None = None
    with read_text(path) as handle:
        for lineno, line in enumerate(handle, 1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            try:
                if not values:
                    raise ValueError(f"token {token!r} has no vector components")
                if len(values) != dim:
                    raise ValueError(f"expected {dim} components, got {len(values)}")
                rows.append(np.array([float(v) for v in values]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            tokens.append(token)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no vectors")
    # One nan or inf makes every similarity of its token nan.  One check
    # over the whole table costs a fraction of one check per line.
    table = np.array(rows, ndmin=2)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{path}:{linenos[bad]}: {_non_finite(tokens[bad])}")
    return tokens, table


def _unit_mean(vectors: np.ndarray | list[np.ndarray]) -> np.ndarray | None:
    """The mean of the vectors scaled to length 1; None for no vectors or a
    zero mean."""
    if not len(vectors):
        return None
    pooled = np.mean(vectors, axis=0)
    norm = np.linalg.norm(pooled)
    if norm == 0.0:
        return None
    return pooled / norm


def _non_finite(token: str) -> str:
    return f"vector of {token!r} has a non-finite component"


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
        self._vectors: dict[str, np.ndarray] = {}
        self.url = url
        self._fetch = fetch or self._http_fetch
        self._poster = None

    def _http_fetch(self, texts: list[str]) -> list[list[float]]:
        if self._poster is None:
            # Imported here, so a run without the service loads no HTTP code.
            from .httpjson import JsonPoster

            self._poster = JsonPoster(self.url, timeout=60.0)
        return self._poster.post({"texts": texts})["vectors"]

    def _pool(self, text: str) -> np.ndarray | None:
        tokens = _tokens(text)
        missing = [t for t in tokens if t not in self._vectors]
        if missing:
            try:
                vectors = self._fetch(missing)
                if len(vectors) != len(missing):
                    raise ValueError(f"{len(vectors)} vectors for {len(missing)} texts")
                fetched = [np.asarray(vector, dtype=float) for vector in vectors]
                for token, vector in zip(missing, fetched):
                    if not np.isfinite(vector).all():
                        raise ValueError(_non_finite(token))
            except Exception as exc:
                raise EmbeddingServiceError(f"embedding service {self.url} failed: {exc}") from exc
            self._vectors.update(zip(missing, fetched))
        return _unit_mean([self._vectors[t] for t in tokens])


@dataclass
class SimilarityEnsemble:
    """Convex combination of backend scores; the result stays in [0, 1].

    `matrix` is the implementation.  `sim` is one cell of it, cached under an
    order-independent key, and `sim_slotsets` is one cell of `slotset_matrix`.
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
        total = reduce(add, self.weights, 0.0)
        if abs(total - 1.0) > 1e-9:
            if total == 0:
                raise ValueError("weights must not all be zero")
            self.weights = [w / total for w in self.weights]

    def sim(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = float(self.matrix([key[0]], [key[1]])[0, 0])
        self._cache[key] = value
        return value

    def matrix(self, xs: Sequence[str], ys: Sequence[str]) -> np.ndarray:
        """The ensemble similarity of xs[i] and ys[j] at [i, j]: the weighted
        backend matrices added from 0 in backend order, then clipped.  The
        lexical matrix is built once and shared by every backend."""
        lexical = LexicalBackend().matrix(xs, ys)
        out = np.zeros((len(xs), len(ys)))
        for weight, backend in zip(self.weights, self.backends):
            term = backend.matrix(xs, ys, lexical)
            for rows in row_blocks(len(xs)):
                out[rows] += weight * term[rows]
        return np.clip(out, 0.0, 1.0, out=out)

    def sim_slotsets(self, a: Iterable[str], b: Iterable[str]) -> float:
        """Soft best-match average of two slot sets: one cell of `slotset_matrix`."""
        set_a, set_b = frozenset(a), frozenset(b)
        return float(slotset_matrix([set_a, set_b], SlotSimilarity.of(set_a | set_b, self))[0, 1])


@dataclass(frozen=True)
class SlotSimilarity:
    """Ensemble similarity between every two slots of a sorted vocabulary."""

    vocabulary: tuple[str, ...]
    matrix: np.ndarray

    @classmethod
    def of(cls, slots: Iterable[str], ensemble: SimilarityEnsemble) -> "SlotSimilarity":
        vocabulary = sorted(set(slots))
        return cls(tuple(vocabulary), ensemble.matrix(vocabulary, vocabulary))

    @cached_property
    def position(self) -> dict[str, int]:
        return {slot: i for i, slot in enumerate(self.vocabulary)}

    def among(self, names: Sequence[str]) -> np.ndarray:
        """A new array of the similarities between `names`, which must all be
        in the vocabulary; bitwise ensemble.matrix(names, names)."""
        index = [self.position[name] for name in names]
        return self.matrix[np.ix_(index, index)]


def _best_match_sums(sim: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """sums[a, b]: over set a's members x in order, the running sum of the best
    sim[x, y] over set b's members y.

    `members` lists each set's vocabulary indices in sorted order, padded with
    an index whose row and column of `sim` are -inf.  Summing one member
    position at a time adds each set's best matches left to right in sorted
    member order (a padded position adds 0.0, which changes no sum).
    """
    sums = np.zeros((len(sizes), len(sizes)))
    for position in range(members.shape[1]):
        best = sim[members[:, position]][:, members].max(axis=2)
        sums += np.where((position < sizes)[:, None], best, 0.0)
    return sums


def slotset_matrix(slot_sets: Sequence[frozenset[str]], slots: SlotSimilarity) -> np.ndarray:
    """Soft best-match average of every two slot sets, from the similarity
    matrix over a vocabulary holding every member: (sum over A of the best
    match in B + sum over B of the best match in A) / (|A| + |B|), each sum in
    sorted member order; both sets empty scores 1, exactly one empty 0."""
    sizes = np.array([len(s) for s in slot_sets])
    out = np.zeros((len(slot_sets), len(slot_sets)))
    out[np.ix_(sizes == 0, sizes == 0)] = 1.0
    full = np.flatnonzero(sizes)
    if not full.size:
        return out
    size = len(slots.vocabulary)
    sim = np.full((size + 1, size + 1), -np.inf)
    sim[:-1, :-1] = slots.matrix
    members = np.full((full.size, sizes.max()), size)
    for row, a in enumerate(full):
        members[row, : sizes[a]] = [slots.position[slot] for slot in sorted(slot_sets[a])]
    sizes = sizes[full]
    forward = _best_match_sums(sim, members, sizes)
    backward = _best_match_sums(sim.T, members, sizes).T
    out[np.ix_(full, full)] = (forward + backward) / np.add.outer(sizes, sizes)
    return out


def default_ensemble() -> SimilarityEnsemble:
    return SimilarityEnsemble(backends=[LexicalBackend()])
