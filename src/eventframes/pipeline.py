"""Stage orchestration: configuration, line-oriented intermediates, manifests.

Every stage reads its predecessor's JSONL file and writes its own, so each is
independently re-runnable and diffable.  Within one `run_stage("all")` call a
stage takes the records its predecessor has just written from memory instead
(`RunContext.handoff`), equal to what decoding the file would give.  Stage
files are self-describing via a header line carrying the producing stage, its
stage key, and format version; `fileio` reads and writes them, and reports a
record that a stage cannot decode as "<path>:<line>: bad <stage> record:
<reason>".

A stage's key hashes the config sections it reads (`Stage.sections`) and its
predecessor's key, so a config edit reruns only the stages downstream of the
first stage that reads the edited section; ingest's stands on FORMAT_VERSION.

A stage is up to date when its manifest's `config_hash`, `inputs` and
`outputs` equal what a run would record now: its key and the content hashes
(sha256, not mtimes) of exactly its input and output files, none of them
missing.  Its inputs are its predecessor's file and the files that
`Stage.files` declares, with the files it writes besides its own.  The stages
of one `run_stage("all")` call share a digest table: a stage's files are
hashed before it runs, so its manifest records each input as it was before
the stage read it; its own file's digest is taken from the bytes it writes,
and after it runs only the digests of the other files it wrote are dropped,
so each file is hashed at most once per call.
Manifests name files relative to the output directory, so a copied or moved
workspace stays up to date.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import os
import time
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, get_type_hints

from .aggregate import (
    GraphConfig,
    SchemaGraph,
    aggregate,
    aggregated_from_dict,
    aggregated_to_dict,
    cluster_instances,
)
from .conceptualize import (
    ConceptualizedInstance,
    ConfigError,
    conceptualize_corpus,
    sample_demonstrations,
)
from .corpus import CorpusFilterConfig, EventExpression, load_corpus
from .endpoint import (
    GenerationClient,
    GenerationRequest,
    HttpGenerationClient,
    OpenAICompletionsClient,
    RecordingClient,
    ReplayClient,
)
from .evaluation import PartitionInputError, average_metrics, load_gold_mentions, mention_harness
from .fileio import atomic_write, encode, normalized, read_records, typed, write_records
from .fileio import file_hash as _file_hash
from .schemas import SchemaCandidate, load_demonstrations, render_schema
from .scoring import (
    ScoringConfig,
    StructuredInstance,
    structured_from_dict,
    structured_to_dict,
    structuralize,
)
from .similarity import (
    EmbeddingBackend,
    EmbeddingServiceBackend,
    LexicalBackend,
    LexiconBackend,
    SimilarityEnsemble,
)

log = logging.getLogger(__name__)

# The aggregate module itself: the package re-exports the module's
# `aggregate` function under the module's name.  build_schema_graph is looked
# up on it at call time, so a wrapper installed there (perfbench's tracer)
# sees the pipeline's calls.
_aggregate_module = importlib.import_module(".aggregate", __package__)

FORMAT_VERSION = 2


class StageInputError(RuntimeError):
    pass


def _config_value(name: str, annotation: Any, value: Any) -> Any:
    """typed(), with a value of the wrong JSON type reported as a ConfigError."""
    try:
        return typed(name, annotation, value)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# The field annotations of a config section class, resolved once.
_field_types = cache(get_type_hints)


def _from_mapping(cls, data: Mapping, section: str):
    if not isinstance(data, Mapping):
        raise ConfigError(f"config section {section!r} must be an object")
    hints = _field_types(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    values = {key: _config_value(f"{section}.{key}", hints[key], v) for key, v in data.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config section {section!r}: {exc}") from exc


@dataclass(frozen=True)
class DemonstrationSettings:
    path: str | None = None
    m: int = 8

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class GenerationSettings:
    n: int = 3
    max_new_tokens: int = 64
    temperature: float | None = None
    endpoint: str | None = None
    endpoint_style: str = "native"
    replay: str | None = None
    record: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        # The request checks n, max_new_tokens and temperature.
        GenerationRequest("", self.n, self.max_new_tokens, self.temperature or 0.0)
        if self.endpoint_style not in ("native", "openai"):
            raise ValueError(f"unknown endpoint_style: {self.endpoint_style!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# The keys each similarity backend kind takes besides "kind".
BACKEND_KEYS = {"lexical": set(), "lexicon": {"path"}, "embedding": {"path", "url"}}


@dataclass(frozen=True)
class SimilaritySettings:
    backends: tuple[Mapping, ...] = ({"kind": "lexical"},)
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for index, entry in enumerate(self.backends):
            kind = entry.get("kind")
            if kind not in BACKEND_KEYS:
                raise ConfigError(f"unknown similarity backend kind: {kind!r}")
            unknown = set(entry) - BACKEND_KEYS[kind] - {"kind"}
            if unknown:
                raise ConfigError(f"unknown keys in {kind} backend: {sorted(unknown)}")
            for key in sorted(BACKEND_KEYS[kind] & set(entry)):
                typed(f"similarity.backends[{index}].{key}", str, entry[key])
            if kind == "lexicon" and not entry.get("path"):
                raise ConfigError("lexicon backend requires a 'path'")
            if kind == "embedding" and bool(entry.get("path")) == bool(entry.get("url")):
                message = "an embedding backend takes exactly one of 'path' and 'url'"
                raise ConfigError(f"similarity.backends[{index}]: {message}")
        # The ensemble checks the weights against the backends.
        SimilarityEnsemble([LexicalBackend()] * len(self.backends), self.weights)

    @property
    def tables(self) -> list[Path]:
        """The lexicon and vector table files that the backends read."""
        return [Path(b["path"]) for b in self.backends if b.get("path")]


@dataclass(frozen=True)
class EvaluationSettings:
    gold: str | None = None
    top_k: int = 15
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.top_k < 1 or self.repeats < 1:
            raise ValueError("top_k and repeats must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 1234
    corpus: CorpusFilterConfig = CorpusFilterConfig()
    demonstrations: DemonstrationSettings = DemonstrationSettings()
    generation: GenerationSettings = GenerationSettings()
    scoring: ScoringConfig = ScoringConfig()
    graph: GraphConfig = GraphConfig()
    similarity: SimilaritySettings = SimilaritySettings()
    evaluation: EvaluationSettings = EvaluationSettings()

    def to_dict(self) -> dict:
        """Each section's fields as from_dict reads them (so an integer for a
        float field is that float): a config built in Python has the stage
        keys of the same config read from JSON."""
        data: dict[str, Any] = {"seed": self.seed}
        for name in (f.name for f in fields(self) if f.name != "seed"):
            section = getattr(self, name)
            hints = _field_types(type(section))
            data[name] = {
                f.name: normalized(hints[f.name], getattr(section, f.name)) for f in fields(section)
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        """Each section is built by its own class, whose __post_init__ checks
        its values; an unknown key or a rejected value raises ConfigError."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"the config must be a JSON object, got {type(data).__name__}")
        sections = {f.name: type(f.default) for f in fields(cls) if f.name != "seed"}
        unknown = set(data) - set(sections) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {"seed": _config_value("seed", int, data.get("seed", cls.seed))}
        for name, section_cls in sections.items():
            if name in data:
                kwargs[name] = _from_mapping(section_cls, data[name], name)
        return cls(**kwargs)

    @cached_property
    def stage_keys(self) -> dict[str, str]:
        """Stage name -> hash of the config sections that stage reads and of
        its predecessor's key (ingest's: FORMAT_VERSION, so a new format
        reruns every stage).  Computed once per config, from one to_dict()."""
        data = self.to_dict()
        for name in TRANSPORT_FIELDS:
            del data["generation"][name]
        keys: dict[str, str] = {}
        for stage in STAGE_TABLE.values():
            sections = {section: data[section] for section in stage.sections}
            keys[stage.name] = _digest([keys.get(stage.predecessor, FORMAT_VERSION), sections])
        return keys


def read_config(path: str | Path) -> Any:
    """The JSON value in a config file; a file that is not UTF-8 JSON raises
    ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _digest(value: Any) -> str:
    return hashlib.sha256(encode(value).encode("utf-8")).hexdigest()


def _load(loader: Callable, *args: Any) -> Any:
    """loader(*args), with a malformed input file (the loader's ValueError,
    which names the file) reported as a StageInputError."""
    try:
        return loader(*args)
    except ValueError as exc:
        raise StageInputError(str(exc)) from exc


def build_ensemble(settings: SimilaritySettings) -> SimilarityEnsemble:
    """The ensemble of the backends that SimilaritySettings has checked."""
    backends = []
    for entry in settings.backends:
        if entry["kind"] == "lexical":
            backends.append(LexicalBackend())
        elif entry["kind"] == "lexicon":
            backends.append(_load(LexiconBackend.from_file, entry["path"]))
        elif entry.get("url"):
            backends.append(EmbeddingServiceBackend(entry["url"]))
        else:
            backends.append(_load(EmbeddingBackend.from_file, entry["path"]))
    weights = list(settings.weights) if settings.weights is not None else None
    return SimilarityEnsemble(backends=backends, weights=weights)


def build_client(cfg: PipelineConfig) -> GenerationClient:
    gen = cfg.generation
    if gen.replay and not gen.record:
        return _load(ReplayClient.from_file, gen.replay)
    if not gen.endpoint:
        if gen.record:
            raise ConfigError("record mode needs generation.endpoint (or --endpoint)")
        raise ConfigError("conceptualize needs an endpoint or a replay store")
    client_cls = OpenAICompletionsClient if gen.endpoint_style == "openai" else HttpGenerationClient
    try:
        live: GenerationClient = client_cls(gen.endpoint)
    except ValueError as exc:
        raise ConfigError(f"generation.endpoint: {exc}") from exc
    if gen.record:
        if not gen.replay:
            raise ConfigError("record mode requires a replay store path")
        return _load(RecordingClient.at, live, gen.replay)
    return live


# --------------------------------------------------------------------------
# Stage file IO
# --------------------------------------------------------------------------


def write_stage_file(path: Path, stage: str, config_hash: str, records: Iterable[Mapping]) -> str:
    """Write the header line and the records; return the sha256 of the bytes written."""
    header = {"stage": stage, "config_hash": config_hash, "format_version": FORMAT_VERSION}
    return write_records(path, [header, *records])


def read_stage_file(
    path: Path, expected_stage: str, expected_key: str | None = None, parse: Callable = dict
) -> list:
    """parse(record) for each record after the header line.  With expected_key,
    refuse a file whose header key differs: it was written under other config
    sections than the current config gives that stage or an earlier one."""
    header: list[dict] = []

    def record(value: dict) -> Any:
        if header:
            return parse(value)
        header.append(value)
        if value.get("stage") != expected_stage:
            raise StageInputError(
                f"{path} was written by stage {value.get('stage')!r}, expected {expected_stage!r}"
            )
        if value.get("format_version") != FORMAT_VERSION:
            version = f"format_version {value.get('format_version')}, not {FORMAT_VERSION}"
            raise StageInputError(f"{path} has {version}; rerun the {expected_stage!r} stage")
        if expected_key is not None and value.get("config_hash") != expected_key:
            raise StageInputError(
                f"{path} is stale: the config has changed in a section that the {expected_stage!r} "
                f"stage or an earlier one reads; rerun the {expected_stage!r} stage"
            )

    try:
        records = _load(list, read_records(path, f"{expected_stage} record", record))
    except FileNotFoundError:
        message = f"missing {path.name}; run the {expected_stage!r} stage first"
        raise StageInputError(message) from None
    if not header:
        raise StageInputError(f"{path} is empty; rerun the {expected_stage!r} stage")
    return [r for _, r in records[1:]]


@lru_cache(maxsize=4096)  # relpath costs ~6 µs; uncached, graph-large rerun_s read ~30% worse
def _name(path: str, out_dir: str, cwd: str) -> str:
    """os.path.relpath(path, out_dir), cached per cwd, from which both are read."""
    return os.path.relpath(path, out_dir)


def _record(out_dir: Path, key: str, inputs: list, outputs: list, digests: dict) -> dict:
    """The manifest fields that decide whether a stage is up to date: its key
    and the sha256 of each input and output file (from digests, or hashed
    into it), named relative to out_dir."""
    for path in (*inputs, *outputs):
        if str(path) not in digests:
            digests[str(path)] = _file_hash(path)
    cwd, start = os.getcwd(), str(out_dir)
    name = {p: _name(str(p), start, cwd) for p in (*inputs, *outputs)}
    return {
        "config_hash": key,
        "inputs": {name[p]: digests[str(p)] for p in inputs},
        "outputs": {name[p]: digests[str(p)] for p in outputs},
    }


def _manifest_path(out_dir: Path, stage: str) -> Path:
    return out_dir / f"{stage}.manifest.json"


def _read_manifest(out_dir: Path, stage: str) -> dict:
    """The stage's manifest; {} if it is missing, not UTF-8 JSON or not an
    object."""
    try:
        with open(_manifest_path(out_dir, stage), encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (FileNotFoundError, ValueError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


def _write_manifest(
    out_dir: Path,
    stage: str,
    config_hash: str,
    inputs: Sequence[Path],
    outputs: Sequence[Path],
    counts: Mapping,
    wall_time: float,
    digests: dict[str, str | None],
) -> None:
    manifest = {
        "stage": stage,
        **_record(out_dir, config_hash, inputs, outputs, digests),
        "counts": dict(counts),
        "wall_time_s": round(wall_time, 6),
    }
    with atomic_write(_manifest_path(out_dir, stage)) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------


@dataclass
class RunContext:
    """What the stages of one run_stage call share: the config, the output
    directory, the corpus path (None when not given), and `digests`, path ->
    sha256 (None for a missing file) of each file hashed or written in the
    call.  A stage's write records the digest of the bytes it wrote, and
    keeps its records as the `handoff` to the next read: the next stage of
    the call takes them in place of decoding the file just written.  The
    ensemble and the schema graph are built on first use and kept for the
    later stages.  build_ensemble, build_schema_graph and the stage file
    functions are looked up at call time, so a wrapper installed on their
    modules sees the calls."""

    cfg: PipelineConfig
    out_dir: Path
    input_path: Path | None = None
    digests: dict[str, str | None] = field(default_factory=dict)
    # (stage, sha256 of the file as written, the records written), until read.
    handoff: tuple[str, str, list] | None = None

    def path(self, stage: str) -> Path:
        return self.out_dir / STAGE_TABLE[stage].file

    def read(self, stage: str, parse: Callable) -> list:
        """parse(record) of each record of an earlier stage's file, refused if
        stale: the handoff's records if that stage wrote them and `digests`
        holds the digest they were written with, else decoded from the file.
        Drops the handoff either way."""
        path = self.path(stage)
        handoff, self.handoff = self.handoff, None
        if handoff is not None and handoff[:2] == (stage, self.digests.get(str(path))):
            return handoff[2]
        return read_stage_file(path, stage, self.cfg.stage_keys[stage], parse)

    def write(self, stage: str, records: list, to_dict: Callable[[Any], Mapping]) -> None:
        """Write to_dict(record) of each record as the stage's file; record
        the digest of the bytes written and hand the records to the next
        read.  Each record must equal, field types included, what the
        reader's parse makes of its line (TestHandoff checks each stage)."""
        path = self.path(stage)
        digest = write_stage_file(path, stage, self.cfg.stage_keys[stage], map(to_dict, records))
        self.digests[str(path)] = digest
        self.handoff = (stage, digest, records)

    @cached_property
    def ensemble(self) -> SimilarityEnsemble:
        return build_ensemble(self.cfg.similarity)

    @cached_property
    def graph(self) -> tuple[list[StructuredInstance], SchemaGraph]:
        """The structured instances and their schema graph."""
        structured = self.read("structuralize", structured_from_dict)
        if not structured:
            raise StageInputError("no structured instances to aggregate")
        build = _aggregate_module.build_schema_graph
        return structured, build(structured, self.ensemble, self.cfg.graph)


def _expression(record: dict) -> EventExpression:
    return EventExpression.from_text(*(typed(key, str, record[key]) for key in ("id", "text")))


def _expression_to_dict(expression: EventExpression) -> dict:
    return {"id": expression.id, "text": expression.text}


def _candidate(record: dict) -> SchemaCandidate:
    """A candidate that SchemaCandidate.create gives back unchanged; any other,
    which parse_schema never gives, is refused naming both forms."""
    written = SchemaCandidate(
        typed("type", str, record["type"]), typed("slots", tuple[str, ...], record["slots"])
    )
    try:
        canonical = SchemaCandidate.create(written.event_type, written.slots)
    except ValueError as exc:
        raise ValueError(f"candidate {render_schema(written)!r}: {exc}") from None
    if canonical != written:
        message = f"{render_schema(written)!r} is not canonical: {render_schema(canonical)!r}"
        raise ValueError(f"candidate {message}")
    return canonical


def _conceptualized(record: dict) -> ConceptualizedInstance:
    """A conceptualize record as that stage writes it; any other is refused."""
    candidates = tuple(map(_candidate, typed("candidates", tuple[dict, ...], record["candidates"])))
    parse_failures = typed("parse_failures", int, record["parse_failures"])
    return ConceptualizedInstance(_expression(record), candidates, parse_failures)


def _conceptualized_to_dict(instance: ConceptualizedInstance) -> dict:
    return {
        **_expression_to_dict(instance.expression),
        "candidates": [{"type": c.event_type, "slots": list(c.slots)} for c in instance.candidates],
        "parse_failures": instance.parse_failures,
    }


def _stage_ingest(ctx: RunContext) -> dict:
    if ctx.input_path is None:
        message = "ingest needs an --input corpus file"
        for path in _ingest_files(ctx)[0]:
            message += f"; {path}, which it last read, has changed or is missing"
        raise StageInputError(message)
    expressions, report = _load(load_corpus, ctx.input_path, ctx.cfg.corpus)
    if not expressions:
        raise StageInputError(
            f"no line of {ctx.input_path} survived ingest: {report.total} read, "
            f"discarded by reason {report.discarded}"
        )
    ctx.write("ingest", expressions, _expression_to_dict)
    return report.as_dict()


def _stage_conceptualize(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    if not cfg.demonstrations.path:
        raise ConfigError("conceptualize needs a demonstrations path in the config")
    pool = _load(load_demonstrations, cfg.demonstrations.path)
    demos = sample_demonstrations(pool, cfg.demonstrations.m, cfg.seed)
    expressions = ctx.read("ingest", _expression)
    client = build_client(cfg)
    instances, report = conceptualize_corpus(
        client,
        demos,
        expressions,
        n=cfg.generation.n,
        max_new_tokens=cfg.generation.max_new_tokens,
        temperature=cfg.generation.temperature,
        workers=cfg.generation.workers,
    )
    if isinstance(client, RecordingClient):
        client.save()
    if not instances:
        raise StageInputError(f"no expression survived conceptualize: {report.as_dict()}")
    ctx.write("conceptualize", instances, _conceptualized_to_dict)
    return report.as_dict()


def _stage_structuralize(ctx: RunContext) -> dict:
    instances = ctx.read("conceptualize", _conceptualized)
    structured = structuralize(instances, ctx.cfg.scoring, ctx.ensemble)
    ctx.write("structuralize", structured, structured_to_dict)
    return {
        "instances": len(structured),
        "slots_kept": sum(len(s.slots) for s in structured),
        "type_only_instances": sum(1 for s in structured if not s.slots),
    }


def _stage_aggregate(ctx: RunContext) -> dict:
    structured, graph = ctx.graph
    assignment = cluster_instances(structured, graph, ctx.cfg.seed)
    schemas = aggregate(structured, assignment, graph, ctx.cfg.graph, ctx.cfg.seed)
    ctx.write("aggregate", schemas, aggregated_to_dict)
    return {
        "instances": len(structured),
        "clusters": len(schemas),
        "modularity_levels": list(assignment.modularity_levels),
    }


def _stage_evaluate(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    if not cfg.evaluation.gold:
        raise ConfigError("evaluate needs a gold mentions path in the config")
    gold = _load(load_gold_mentions, cfg.evaluation.gold)
    schemas = ctx.read("aggregate", aggregated_from_dict)
    predicted = {
        member: label for label, schema in enumerate(schemas) for member in schema.member_ids
    }
    try:
        runs = [mention_harness(gold, predicted, cfg.evaluation.top_k)]
    except PartitionInputError as exc:
        raise StageInputError(f"gold file {cfg.evaluation.gold}: {exc}") from exc
    if cfg.evaluation.repeats > 1:
        # Aggregate's partition is the first run; re-cluster with the next
        # seeds and report the averaged result.  This reads the graph,
        # similarity and seed sections, all covered by aggregate's key.
        structured, graph = ctx.graph
        ids = [inst.expression.id for inst in structured]
        for seed in range(cfg.seed + 1, cfg.seed + cfg.evaluation.repeats):
            labels = cluster_instances(structured, graph, seed).labels
            runs.append(mention_harness(gold, dict(zip(ids, labels)), cfg.evaluation.top_k))
    # The mean of one run is that run: 0.0 + x == x for every x but -0.0, which no metric is.
    report = {"repeats": len(runs), "metrics": average_metrics(runs).as_dict()}
    if len(runs) > 1:
        report["runs"] = [m.as_dict() for m in runs]
    header = {"stage": "evaluate", "config_hash": cfg.stage_keys["evaluate"]}
    path = ctx.path("evaluate")
    record = {**report, **header, "format_version": FORMAT_VERSION}
    ctx.digests[str(path)] = write_records(path, [record])
    return report


def _paths(*names: str | None) -> list[Path]:
    return [Path(name) for name in names if name]


def _ingest_files(ctx: RunContext) -> tuple[list[Path], list[Path]]:
    """--input, or else the files ingest's manifest names, relative to the
    output directory and joined to it lexically, as _name names them."""
    if ctx.input_path is not None:
        return [ctx.input_path], []
    recorded = _read_manifest(ctx.out_dir, "ingest").get("inputs")
    names = recorded if isinstance(recorded, dict) else {}
    return [Path(os.path.normpath(ctx.out_dir / name)) for name in names], []


def _conceptualize_files(ctx: RunContext) -> tuple[list[Path], list[Path]]:
    store = _paths(ctx.cfg.generation.replay)
    return _paths(ctx.cfg.demonstrations.path) + store, store if ctx.cfg.generation.record else []


def _evaluate_files(ctx: RunContext) -> tuple[list[Path], list[Path]]:
    """The gold file, and with repeats the schema graph's inputs."""
    reads = _paths(ctx.cfg.evaluation.gold)
    if ctx.cfg.evaluation.repeats > 1:
        reads += [ctx.path("structuralize"), *ctx.cfg.similarity.tables]
    return reads, []


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: the file it writes, the stage whose file it reads,
    the config sections it reads, its runner, and `files(ctx)`: the other
    files it reads, and the files it writes besides its own."""

    name: str
    file: str
    predecessor: str | None
    sections: tuple[str, ...]
    run: Callable[[RunContext], dict]
    files: Callable[[RunContext], tuple[list[Path], list[Path]]]


STAGE_TABLE = {
    stage.name: stage
    for stage in (
        Stage("ingest", "expressions.jsonl", None, ("corpus",), _stage_ingest, _ingest_files),
        Stage(
            "conceptualize",
            "conceptualized.jsonl",
            "ingest",
            ("demonstrations", "generation", "seed"),
            _stage_conceptualize,
            _conceptualize_files,
        ),
        Stage(
            "structuralize",
            "structured.jsonl",
            "conceptualize",
            ("scoring", "similarity"),
            _stage_structuralize,
            lambda ctx: (ctx.cfg.similarity.tables, []),
        ),
        Stage(
            "aggregate",
            "schemas.jsonl",
            "structuralize",
            ("graph", "similarity", "seed"),
            _stage_aggregate,
            lambda ctx: (ctx.cfg.similarity.tables, []),
        ),
        Stage("evaluate", "metrics.json", "aggregate", ("evaluation",), _stage_evaluate,
              _evaluate_files),
    )
}

STAGES = tuple(STAGE_TABLE)

# Generation fields that choose only how completions are fetched, not what is
# asked for; they are left out of the conceptualize key, so they may be given
# to conceptualize alone.  The replay store's content is a manifest input.
TRANSPORT_FIELDS = ("endpoint", "endpoint_style", "replay", "record", "workers")


def run_stage(
    stage: str,
    cfg: PipelineConfig,
    out_dir: str | Path,
    input_path: str | Path | None = None,
    force: bool = False,
    context: RunContext | None = None,
) -> dict:
    """Run one stage (or "all"), skipping a stage that is up to date.

    Returns a report dict; for "all" the reports are keyed by stage name.
    Without `context` the call makes out_dir and its own context; with one,
    the context's config and paths are the ones used.  "all" passes its
    stages one context, so a run builds the ensemble at most once, and only
    when a stage reads it; aggregate and evaluate share one schema graph;
    each file is hashed at most once, a stage's file never, once written: its
    digest is that of the bytes written, which its manifest and the next
    stage's record; and a stage takes the records its predecessor wrote in
    the call from memory, not from the file.
    """
    if context is None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        context = RunContext(cfg, out_dir, Path(input_path) if input_path is not None else None)
    ctx = context

    if stage == "all":
        stages = list(STAGES)
        if not ctx.cfg.evaluation.gold:
            stages.remove("evaluate")
        return {
            s: run_stage(s, ctx.cfg, ctx.out_dir, ctx.input_path, force=force, context=ctx)
            for s in stages
        }

    if stage not in STAGE_TABLE:
        raise ConfigError(f"unknown stage: {stage!r}")
    spec = STAGE_TABLE[stage]

    key = ctx.cfg.stage_keys[stage]
    manifest = _read_manifest(ctx.out_dir, stage)
    reads, writes = spec.files(ctx)
    inputs = [ctx.path(spec.predecessor), *reads] if spec.predecessor else reads
    outputs = [ctx.path(stage)]
    now = _record(ctx.out_dir, key, inputs, outputs, ctx.digests)
    # A missing file never matches, not even a manifest that records null for it.
    found = None not in (*now["inputs"].values(), *now["outputs"].values())
    if not force and found and all(manifest.get(name) == value for name, value in now.items()):
        log.info("stage %s is up-to-date; skipping", stage)
        return {"status": "up-to-date", "stage": stage}

    started = time.monotonic()
    for path in outputs:  # the stage's write records the digest of what it writes
        ctx.digests.pop(str(path), None)
    try:
        report = spec.run(ctx)
    except FileNotFoundError as exc:
        if exc.filename is None or Path(exc.filename) not in reads:
            raise
        raise StageInputError(f"missing input file for stage {stage!r}: {exc.filename}") from exc
    finally:
        for path in writes:
            ctx.digests.pop(str(path), None)
    elapsed = time.monotonic() - started
    _write_manifest(ctx.out_dir, stage, key, inputs, outputs, report, elapsed, ctx.digests)
    return report
