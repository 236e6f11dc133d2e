"""Deterministic workload generator for the pipeline benchmark.

`generate(workload, seed, root)` writes everything one workload needs to run
offline: a structured-records corpus, a demonstration pool, gold mention
labels, a config, a completion table keyed by prompt hash (saved as a replay
store, or served by the loopback stub for `record-iterate`), and for
`record-iterate` a synonym table and a vector table.  The same (workload, seed)
always writes the same bytes.

What the generator plants, and why:

* Every token is alphabetic (tokens with digits count as numeric and ingest
  drops them) and every text carries its type word, so that the lexical
  consistency score sim(type, text) is non-zero.
* Each planted type has its own type token; shared type-name tokens make
  Louvain cluster by the shared token instead of the planted type.
* Ambiguity keeps the clustering scores strictly inside (0, 1): mixed texts
  that carry a second type's words, completions of the wrong type, and gold
  labels that disagree with the planted type.  All three are fixed shares of
  the corpus, so the scores move little from seed to seed.
* A fixed number of expressions is lost on purpose: numeric lines that ingest
  discards, and expressions whose every completion is malformed, which
  conceptualize drops.  Some kept expressions also get one malformed
  completion, which counts as a parse failure without losing them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from eventframes.conceptualize import build_prompt, sample_demonstrations
from eventframes.endpoint import ReplayStore, prompt_hash
from eventframes.schemas import load_demonstrations

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    types: int
    per_type: int  # kept expressions per planted type, before duplicates
    completions: int
    inventory: int  # slot names per type
    slots_per_completion: int
    numeric_lines: int  # planted ingest discards
    malformed_all: int  # planted conceptualize drops
    fillers_per_text: int = 1  # shared filler words in each text
    duplicates: int = 0  # extra expressions repeating an earlier text
    synonym_share: float = 0.0  # share of slots with a planted synonym
    filler_groups: int = 0  # unrelated synonym groups in the lexicon table
    filler_vectors: int = 0  # unrelated tokens in the vector table
    uncovered_share: float = 0.0  # share of slot names without a vector


MIXED_SHARE = 0.06
WRONG_TYPE_SHARE = 0.10
GOLD_FLIP_SHARE = 0.06
PARTIAL_MALFORMED_SHARE = 0.08
VECTOR_DIM = 16
DEMO_POOL = 10
DEMOS_M = 4

SHAPES = {
    "graph-large": Shape(
        types=12, per_type=32, completions=3, inventory=2, slots_per_completion=2,
        numeric_lines=4, malformed_all=8, fillers_per_text=6,
    ),
    "record-iterate": Shape(
        types=6, per_type=10, completions=3, inventory=6, slots_per_completion=3,
        numeric_lines=1, malformed_all=2, duplicates=14, synonym_share=0.3,
        filler_groups=1500, filler_vectors=3000, uncovered_share=0.15,
    ),
}

TINY_SHAPES = {
    "graph-large": Shape(
        types=4, per_type=5, completions=3, inventory=5, slots_per_completion=3,
        numeric_lines=1, malformed_all=1,
    ),
    "record-iterate": Shape(
        types=3, per_type=4, completions=3, inventory=5, slots_per_completion=3,
        numeric_lines=1, malformed_all=1, duplicates=3, synonym_share=0.3,
        filler_groups=20, filler_vectors=20, uncovered_share=0.15,
    ),
}

class Words:
    """Distinct pronounceable alphabetic words drawn from one random stream."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set[str] = set()

    def take(self, syllables: int = 3) -> str:
        while True:
            word = "".join(
                self._rng.choice(CONSONANTS) + self._rng.choice(VOWELS) for _ in range(syllables)
            )
            if word not in self._used:
                self._used.add(word)
                return word

    def many(self, count: int, syllables: int = 3) -> list[str]:
        return [self.take(syllables) for _ in range(count)]

    def take_apart(self, taken_bigrams: set[str]) -> str:
        """A word sharing no character bigram with earlier such words: bigram
        Dice is the lexical score of single tokens, so type words stay apart."""
        while True:
            word = self.take()
            bigrams = {word[i : i + 2] for i in range(len(word) - 1)}
            if not bigrams & taken_bigrams:
                taken_bigrams |= bigrams
                return word


@dataclass(frozen=True)
class PlantedType:
    word: str
    agents: list[str]
    objects: list[str]
    slots: list[str]
    synonyms: dict[str, str]  # slot -> planted synonym


def _schema(event_type: str, slots: list[str]) -> str:
    return f"Type: {event_type}, Slots: " + "; ".join(slots)


def _malformed(rng: random.Random, words: list[str]) -> str:
    return rng.choice(["no schema for ", "Kind: ", "Slots: "]) + " ".join(rng.sample(words, 2))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def generate(workload: str, seed: int, root: Path, tiny: bool = False) -> dict:
    """Write the inputs of one workload under root; returns the planted facts."""
    shape = (TINY_SHAPES if tiny else SHAPES)[workload]
    rng = random.Random(f"{workload}:{seed}")
    words = Words(rng)
    root.mkdir(parents=True, exist_ok=True)

    fillers = words.many(80, 2)
    type_bigrams: set[str] = set()
    types = []
    for _ in range(shape.types):
        slots = words.many(shape.inventory)
        synonym_count = round(shape.synonym_share * len(slots))
        synonyms = {slot: words.take() for slot in slots[:synonym_count]}
        types.append(
            PlantedType(
                word=words.take_apart(type_bigrams),
                agents=words.many(2),
                objects=words.many(4),
                slots=slots,
                synonyms=synonyms,
            )
        )

    texts: set[str] = set()

    def text_for(t: PlantedType, other: PlantedType | None) -> str:
        # Distinct texts give distinct prompts; duplicates are planted separately.
        while True:
            tokens = [rng.choice(t.agents), t.word, rng.choice(t.objects)]
            tokens += rng.sample(fillers, shape.fillers_per_text)
            if other is not None:
                tokens += [other.word, rng.choice(other.objects)]
            text = " ".join(tokens)
            if text not in texts:
                texts.add(text)
                return text

    def completion_for(t: PlantedType) -> str:
        slots = rng.sample(t.slots, shape.slots_per_completion)
        slots = [t.synonyms[s] if s in t.synonyms and rng.random() < 0.5 else s for s in slots]
        return _schema(t.word, slots)

    # Each kind of ambiguity hits an exact number of expressions, so the
    # clustering scores vary little between seeds.
    total = shape.types * shape.per_type

    def planted_share(share: float) -> set[int]:
        return set(rng.sample(range(total), round(share * total)))

    mixed, wrong_type = planted_share(MIXED_SHARE), planted_share(WRONG_TYPE_SHARE)
    partial_malformed, gold_flip = planted_share(PARTIAL_MALFORMED_SHARE), planted_share(GOLD_FLIP_SHARE)

    def other_than(type_index: int) -> int:
        other = rng.randrange(shape.types - 1)
        return other + (other >= type_index)

    # expressions: (id, text, planted type index, completions)
    expressions: list[tuple[str, str, int, list[str]]] = []
    gold_type = {}
    for index in range(total):
        type_index = index % shape.types
        t = types[type_index]
        other = types[other_than(type_index)]
        completions = [completion_for(t) for _ in range(shape.completions)]
        if index in mixed or index in wrong_type:
            completions[-1] = completion_for(other)
        if index in partial_malformed:
            completions[0] = _malformed(rng, t.slots)
        expr_id = f"e{index:05d}"
        text = text_for(t, other if index in mixed else None)
        expressions.append((expr_id, text, type_index, completions))
        gold_index = other_than(type_index) if index in gold_flip else type_index
        gold_type[expr_id] = types[gold_index].word
    rng.shuffle(expressions)

    for dup in range(shape.duplicates):
        expr_id, text, type_index, completions = expressions[dup]
        dup_id = f"d{dup:05d}"
        expressions.append((dup_id, text, type_index, completions))
        gold_type[dup_id] = gold_type[expr_id]

    lost_malformed = []
    for lost in range(shape.malformed_all):
        t = types[lost % shape.types]
        expr_id = f"x{lost:05d}"
        completions = [_malformed(rng, t.slots) for _ in range(shape.completions)]
        expressions.append((expr_id, text_for(t, None), lost % shape.types, completions))
        lost_malformed.append(expr_id)

    numeric_lines = []
    for lost in range(shape.numeric_lines):
        digits = " ".join(str(rng.randrange(1000, 9999)) for _ in range(4))
        numeric_lines.append((f"n{lost:05d}", f"{digits} {types[lost % shape.types].word}"))

    units = [(i, text) for i, text, _, _ in expressions] + numeric_lines
    rng.shuffle(units)
    corpus = [_dumps({"id": i, "text": text}) for i, text in units]
    _write_lines(root / "corpus.jsonl", corpus)

    _write_lines(
        root / "gold.jsonl",
        [
            _dumps({"id": i, "type": gold_type[i]})
            for i, _, _, _ in expressions
            if i in gold_type
        ],
    )

    demo_records = []
    for _ in range(DEMO_POOL):
        verb, actor, thing = words.many(3)
        demo_records.append(
            _dumps({"text": f"{actor} {verb} {thing}", "type": verb, "slots": words.many(2)})
        )
    _write_lines(root / "demos.jsonl", demo_records)

    config: dict = {
        "seed": seed,
        "corpus": {"format": "structured-records"},
        "demonstrations": {"path": "demos.jsonl", "m": DEMOS_M},
        "generation": {"n": shape.completions},
        "evaluation": {"gold": "gold.jsonl", "top_k": shape.types},
    }

    if workload == "record-iterate":
        config["similarity"] = {
            "backends": [
                {"kind": "lexical"},
                {"kind": "lexicon", "path": "lexicon.tsv"},
                {"kind": "embedding", "path": "vectors.txt"},
            ]
        }
        _write_slot_tables(root, rng, words, types, shape)

    demos = sample_demonstrations(load_demonstrations(root / "demos.jsonl"), DEMOS_M, seed)
    completions_of = {i: completions for i, _, _, completions in expressions}
    table: dict[str, list[str]] = {}  # prompt hash -> completions, in corpus order
    for expr_id, text in units:
        if expr_id in completions_of:
            table.setdefault(prompt_hash(build_prompt(demos, text)), completions_of[expr_id])

    planted = {
        "attempted": len(corpus),
        "lost": sorted(lost_malformed + [i for i, _ in numeric_lines]),
    }
    if workload == "record-iterate":
        # The stub answers the first request for each of the first prompts in
        # corpus order with a 503.  With two workers both retries then sleep
        # at the same time, so the backoff adds one second to every run.
        planted["unavailable_once"] = list(table)[: 1 if tiny else 2]
        config["generation"].update({"record": True, "replay": "out/replay.jsonl", "workers": 2})
        _write_lines(
            root / "table.jsonl",
            [_dumps({"hash": k, "completions": v}) for k, v in sorted(table.items())],
        )
    else:
        config["generation"]["replay"] = "replay.jsonl"
        ReplayStore({k: tuple(v) for k, v in table.items()}).save(root / "replay.jsonl")

    (root / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return planted


def _write_slot_tables(
    root: Path, rng: random.Random, words: Words, types: list[PlantedType], shape: Shape
) -> None:
    """Synonym groups for the planted slot synonyms plus unrelated filler groups,
    and a vector table clustered by type that leaves some slot names uncovered."""
    if len(types) > VECTOR_DIM:
        raise ValueError(f"at most {VECTOR_DIM} types get an axis of their own")
    groups = [[slot, synonym] for t in types for slot, synonym in t.synonyms.items()]
    groups += [words.many(rng.randint(2, 4)) for _ in range(shape.filler_groups)]
    rng.shuffle(groups)
    _write_lines(root / "lexicon.tsv", ["\t".join(group) for group in groups])

    def near(centre: list[float], spread: float) -> list[float]:
        return [c + rng.gauss(0.0, spread) for c in centre]

    # Each type's tokens cluster around their own axis.  Random centres would
    # sometimes land close together, and Louvain would then merge two types.
    vectors: dict[str, list[float]] = {}
    for index, t in enumerate(types):
        centre = [3.0 if axis == index else 0.0 for axis in range(VECTOR_DIM)]
        for token in [t.word, *t.agents, *t.objects]:
            vectors[token] = near(centre, 0.6)
        for slot in t.slots:
            if rng.random() < shape.uncovered_share:
                continue
            vectors[slot] = near(centre, 0.8)
            if slot in t.synonyms:
                vectors[t.synonyms[slot]] = near(vectors[slot], 0.2)
    for token in words.many(shape.filler_vectors):
        vectors[token] = near([0.0] * VECTOR_DIM, 1.0)
    _write_lines(
        root / "vectors.txt",
        [token + " " + " ".join(f"{v:.5f}" for v in vec) for token, vec in vectors.items()],
    )
