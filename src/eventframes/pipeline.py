"""Stage orchestration: configuration, line-oriented intermediates, manifests.

Every stage reads its predecessor's JSONL file and writes its own, so each is
independently re-runnable and diffable.  Stage files are self-describing via
a header line carrying the producing stage, its stage key, and format version.

A stage's key hashes the config sections it reads (`Stage.sections`) and its
predecessor's key, so a config edit reruns only the stages downstream of the
first stage that reads the edited section.

A stage is up to date when its manifest's `config_hash`, `inputs` and
`outputs` equal what a run would record now: its key and the content hashes
(sha256, not mtimes) of exactly its input and output files, none of them
missing.  Without an input path, ingest's inputs are the corpus files its
manifest records.  The stages of one `run_stage("all")` call share a digest
table, emptied whenever a stage runs, so while stages are skipped each input,
table and stage file is hashed at most once.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Sequence,
    get_args,
    get_origin,
    get_type_hints,
)

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
from .fileio import atomic_write, read_text
from .schemas import SchemaCandidate, load_demonstrations
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

FORMAT_VERSION = 1


class StageInputError(RuntimeError):
    pass


# The JSON values a config field of each annotated type takes: a bool is
# not a number, and an integer is also a float.
_JSON_TYPES: dict[Any, tuple[str, Callable[[Any], bool]]] = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("null", lambda v: v is None),
}


def _accepts(annotation: Any, value: Any) -> bool:
    """Whether a JSON value has the annotated type: a scalar, `X | None`, a
    `tuple[X, ...]` given as a list, or (any other annotation) an object."""
    if annotation in _JSON_TYPES:
        return _JSON_TYPES[annotation][1](value)
    args = get_args(annotation)
    if get_origin(annotation) is tuple:
        return isinstance(value, (list, tuple)) and all(_accepts(args[0], v) for v in value)
    if args:
        return any(_accepts(a, value) for a in args)
    return isinstance(value, Mapping)


def _describe(annotation: Any) -> str:
    if annotation in _JSON_TYPES:
        return _JSON_TYPES[annotation][0]
    args = get_args(annotation)
    if get_origin(annotation) is tuple:
        return f"a list (each item {_describe(args[0])})"
    if args:
        return " or ".join(_describe(a) for a in args)
    return "an object"


def _check_type(name: str, annotation: Any, value: Any) -> None:
    if not _accepts(annotation, value):
        raise ConfigError(f"{name} must be {_describe(annotation)}, got {value!r}")


def _from_mapping(cls, data: Mapping, section: str):
    if not isinstance(data, Mapping):
        raise ConfigError(f"config section {section!r} must be an object")
    hints = get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    for key, value in data.items():
        _check_type(f"{section}.{key}", hints[key], value)
    try:
        return cls(**data)
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
        object.__setattr__(self, "backends", tuple(dict(b) for b in self.backends))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        for index, entry in enumerate(self.backends):
            kind = entry.get("kind")
            if kind not in BACKEND_KEYS:
                raise ConfigError(f"unknown similarity backend kind: {kind!r}")
            unknown = set(entry) - BACKEND_KEYS[kind] - {"kind"}
            if unknown:
                raise ConfigError(f"unknown keys in {kind} backend: {sorted(unknown)}")
            for key in sorted(BACKEND_KEYS[kind] & set(entry)):
                _check_type(f"similarity.backends[{index}].{key}", str, entry[key])
            if kind == "lexicon" and not entry.get("path"):
                raise ConfigError("lexicon backend requires a 'path'")
            if kind == "embedding" and not (entry.get("path") or entry.get("url")):
                raise ConfigError("embedding backend requires a 'path' or 'url'")
        # The ensemble checks the weights against the backends.
        SimilarityEnsemble([LexicalBackend()] * len(self.backends), self.weights)

    @property
    def tables(self) -> list[Path]:
        """The lexicon and vector table files that the backends read."""
        return [Path(b["path"]) for b in self.backends if b.get("path") and not b.get("url")]


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
        data: dict[str, Any] = {"seed": self.seed}
        for name in (f.name for f in fields(self) if f.name != "seed"):
            section = getattr(self, name)
            data[name] = {f.name: getattr(section, f.name) for f in fields(section)}
        data["similarity"]["backends"] = [dict(b) for b in self.similarity.backends]
        if self.similarity.weights is not None:
            data["similarity"]["weights"] = list(self.similarity.weights)
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
        seed = data.get("seed", cls.seed)
        _check_type("seed", int, seed)
        kwargs: dict[str, Any] = {"seed": seed}
        for name, section_cls in sections.items():
            if name in data:
                kwargs[name] = _from_mapping(section_cls, data[name], name)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_config(path))

    @cached_property
    def stage_keys(self) -> dict[str, str]:
        """Stage name -> hash of the config sections that stage reads and of
        its predecessor's key.  Computed once per config, from one to_dict()."""
        data = self.to_dict()
        for name in TRANSPORT_FIELDS:
            del data["generation"][name]
        keys: dict[str, str] = {}
        for stage in STAGE_TABLE.values():
            sections = {section: data[section] for section in stage.sections}
            keys[stage.name] = _digest([keys.get(stage.predecessor), sections])
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
    return hashlib.sha256(_dumps(value).encode("utf-8")).hexdigest()


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
        if not Path(gen.replay).exists():
            raise StageInputError(f"replay store not found: {gen.replay}")
        return _load(ReplayClient.from_file, gen.replay)
    if gen.endpoint:
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
    raise ConfigError("conceptualize needs an endpoint or a replay store")


# --------------------------------------------------------------------------
# Stage file IO
# --------------------------------------------------------------------------


# One encoder for every record: json.dumps with these options builds a new
# encoder on each call.
_dumps = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def write_stage_file(
    path: Path, stage: str, config_hash: str, records: Iterable[Mapping]
) -> None:
    header = {"stage": stage, "config_hash": config_hash, "format_version": FORMAT_VERSION}
    with atomic_write(path) as handle:
        handle.write(_dumps(header) + "\n")
        for record in records:
            handle.write(_dumps(record) + "\n")


def _json_object(path: Path, lineno: int, line: str) -> dict:
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StageInputError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise StageInputError(f"{path}:{lineno}: expected a JSON object")
    return value


def read_stage_file(
    path: Path, expected_stage: str, expected_key: str | None = None
) -> list[dict]:
    """Records of a stage file.  With expected_key, refuse a file whose header
    key differs: it was written under other config sections than the current
    config gives that stage or an earlier one.  A line that is not a JSON
    object is reported as "<path>:<line>: ..."."""
    try:
        with read_text(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        message = f"missing {path.name}; run the {expected_stage!r} stage first"
        raise StageInputError(message) from None
    except ValueError as exc:
        raise StageInputError(str(exc)) from exc
    if not text:
        raise StageInputError(f"{path} is empty; rerun the {expected_stage!r} stage")
    # JSON escapes "\n" but writes U+0085, U+2028 and U+2029 raw, and
    # str.splitlines() would break records at them too.
    lines = text.split("\n")
    header = _json_object(path, 1, lines[0])
    if header.get("stage") != expected_stage:
        raise StageInputError(
            f"{path} was written by stage {header.get('stage')!r}, expected {expected_stage!r}"
        )
    if header.get("format_version") != FORMAT_VERSION:
        raise StageInputError(f"{path} has format_version {header.get('format_version')}")
    if expected_key is not None and header.get("config_hash") != expected_key:
        raise StageInputError(
            f"{path} is stale: the config has changed in a section that the "
            f"{expected_stage!r} stage or an earlier one reads; rerun the {expected_stage!r} stage"
        )
    return [
        _json_object(path, lineno, line)
        for lineno, line in enumerate(lines[1:], 2)
        if line.strip()
    ]


def _file_hash(path: Path) -> str | None:
    """The sha256 of path's content; None if there is no such file."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                digest.update(chunk)
    except (FileNotFoundError, NotADirectoryError):
        return None
    return digest.hexdigest()


def _record(
    config_hash: str, inputs: Sequence[Path], outputs: Sequence[Path], digests: dict
) -> dict:
    """The manifest fields that decide whether a stage is up to date: its key
    and the sha256 of each input and output file, taken from digests or
    hashed into it."""
    for path in (*inputs, *outputs):
        if str(path) not in digests:
            digests[str(path)] = _file_hash(path)
    return {
        "config_hash": config_hash,
        "inputs": {str(p): digests[str(p)] for p in inputs},
        "outputs": {str(p): digests[str(p)] for p in outputs},
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


def _recorded_inputs(manifest: Mapping) -> list[str]:
    recorded = manifest.get("inputs")
    return list(recorded) if isinstance(recorded, dict) else []


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
        **_record(config_hash, inputs, outputs, digests),
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
    sha256 (None for a missing file) of each file hashed since the last stage
    ran.  The ensemble and the schema graph are built on first use and kept
    for the later stages.  build_ensemble, build_schema_graph and the stage
    file functions are looked up at call time, so a wrapper installed on
    their modules sees the calls."""

    cfg: PipelineConfig
    out_dir: Path
    input_path: Path | None = None
    digests: dict[str, str | None] = field(default_factory=dict)

    def path(self, stage: str) -> Path:
        return self.out_dir / STAGE_TABLE[stage].file

    def read(self, stage: str) -> list[dict]:
        """The records of an earlier stage's file, refused if stale for cfg."""
        return read_stage_file(self.path(stage), stage, self.cfg.stage_keys[stage])

    def write(self, stage: str, records: Iterable[Mapping]) -> None:
        write_stage_file(self.path(stage), stage, self.cfg.stage_keys[stage], records)

    @cached_property
    def ensemble(self) -> SimilarityEnsemble:
        return build_ensemble(self.cfg.similarity)

    @cached_property
    def graph(self) -> tuple[list[StructuredInstance], SchemaGraph]:
        """The structured instances and their schema graph."""
        structured = [structured_from_dict(r) for r in self.read("structuralize")]
        if not structured:
            raise StageInputError("no structured instances to aggregate")
        build = _aggregate_module.build_schema_graph
        return structured, build(structured, self.ensemble, self.cfg.graph)


def _expression(record: Mapping) -> EventExpression:
    return EventExpression.from_text(record["id"], record["text"], record["source"])


def _stage_ingest(ctx: RunContext) -> dict:
    if ctx.input_path is None:
        message = "ingest needs an --input corpus file"
        for path in _recorded_inputs(_read_manifest(ctx.out_dir, "ingest")):
            message += f"; {path}, which it last read, has changed or is missing"
        raise StageInputError(message)
    expressions, report = _load(load_corpus, ctx.input_path, ctx.cfg.corpus)
    if not expressions:
        raise StageInputError(
            f"no line of {ctx.input_path} survived ingest: {report.total} read, "
            f"discarded by reason {report.discarded}"
        )
    ctx.write("ingest", ({"id": e.id, "text": e.text, "source": e.source} for e in expressions))
    return report.as_dict()


def _stage_conceptualize(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    if not cfg.demonstrations.path:
        raise ConfigError("conceptualize needs a demonstrations path in the config")
    pool = _load(load_demonstrations, cfg.demonstrations.path)
    demos = sample_demonstrations(pool, cfg.demonstrations.m, cfg.seed)
    expressions = [_expression(r) for r in ctx.read("ingest")]
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
    ctx.write(
        "conceptualize",
        (
            {
                "id": inst.expression.id,
                "text": inst.expression.text,
                "source": inst.expression.source,
                "candidates": [
                    {"type": c.event_type, "slots": list(c.slots)} for c in inst.candidates
                ],
                "parse_failures": inst.parse_failures,
            }
            for inst in instances
        ),
    )
    return report.as_dict()


def _stage_structuralize(ctx: RunContext) -> dict:
    instances = [
        ConceptualizedInstance(
            _expression(r),
            tuple(SchemaCandidate(c["type"], tuple(c["slots"])) for c in r["candidates"]),
            parse_failures=r["parse_failures"],
        )
        for r in ctx.read("conceptualize")
    ]
    structured = structuralize(instances, ctx.cfg.scoring, ctx.ensemble)
    ctx.write("structuralize", (structured_to_dict(s) for s in structured))
    return {
        "instances": len(structured),
        "slots_kept": sum(len(s.slots) for s in structured),
        "type_only_instances": sum(1 for s in structured if not s.slots),
    }


def _stage_aggregate(ctx: RunContext) -> dict:
    structured, graph = ctx.graph
    assignment = cluster_instances(structured, graph, ctx.cfg.seed)
    schemas = aggregate(structured, assignment, graph, ctx.cfg.graph, ctx.cfg.seed)
    ctx.write("aggregate", (aggregated_to_dict(s) for s in schemas))
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
    schemas = [aggregated_from_dict(r) for r in ctx.read("aggregate")]
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
    payload = dict(report)
    payload["stage"] = "evaluate"
    payload["config_hash"] = cfg.stage_keys["evaluate"]
    payload["format_version"] = FORMAT_VERSION
    with atomic_write(ctx.path("evaluate")) as handle:
        handle.write(_dumps(payload) + "\n")
    return report


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: the file it writes, the stage whose file it reads,
    the config sections it reads, and its runner."""

    name: str
    file: str
    predecessor: str | None
    sections: tuple[str, ...]
    run: Callable[[RunContext], dict]


STAGE_TABLE = {
    stage.name: stage
    for stage in (
        Stage("ingest", "expressions.jsonl", None, ("corpus",), _stage_ingest),
        Stage(
            "conceptualize",
            "conceptualized.jsonl",
            "ingest",
            ("demonstrations", "generation", "seed"),
            _stage_conceptualize,
        ),
        Stage(
            "structuralize",
            "structured.jsonl",
            "conceptualize",
            ("scoring", "similarity"),
            _stage_structuralize,
        ),
        Stage(
            "aggregate",
            "schemas.jsonl",
            "structuralize",
            ("graph", "similarity", "seed"),
            _stage_aggregate,
        ),
        Stage("evaluate", "metrics.json", "aggregate", ("evaluation",), _stage_evaluate),
    )
}

STAGES = tuple(STAGE_TABLE)

# Generation fields that choose only how completions are fetched, not what is
# asked for; they are left out of the conceptualize key, so they may be given
# to conceptualize alone.  The replay store's content is a manifest input.
TRANSPORT_FIELDS = ("endpoint", "endpoint_style", "replay", "record", "workers")


def _stage_io(
    stage: Stage, ctx: RunContext, manifest: Mapping
) -> tuple[list[Path], list[Path], list[Path]]:
    """Input and output files of one stage, and the inputs that the config or
    the command line names, which must exist before the stage runs.  The
    other inputs are the stage files it reads, which read_stage_file reports
    missing; without an input path, the corpus files ingest last read; and a
    configured replay store, which record mode creates."""
    cfg = ctx.cfg
    inputs: list[Path] = []
    named: list[Path] = []
    if stage.predecessor is not None:
        inputs.append(ctx.path(stage.predecessor))
    elif ctx.input_path is not None:
        named.append(ctx.input_path)
    else:
        inputs.extend(map(Path, _recorded_inputs(manifest)))
    if stage.name == "conceptualize":
        if cfg.demonstrations.path:
            named.append(Path(cfg.demonstrations.path))
        if cfg.generation.replay:
            inputs.append(Path(cfg.generation.replay))
    if "similarity" in stage.sections:
        named.extend(cfg.similarity.tables)
    if stage.name == "evaluate":
        if cfg.evaluation.gold:
            named.append(Path(cfg.evaluation.gold))
        if cfg.evaluation.repeats > 1:
            inputs.append(ctx.path("structuralize"))
            named.extend(cfg.similarity.tables)
    return [*inputs, *named], [ctx.path(stage.name)], named


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
    and while stages are skipped each file is hashed at most once.
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
    inputs, outputs, named = _stage_io(spec, ctx, manifest)
    if not force:
        now = _record(key, inputs, outputs, ctx.digests)
        # A missing file never matches, not even a manifest that records null for it.
        found = None not in (*now["inputs"].values(), *now["outputs"].values())
        if found and all(manifest.get(name) == value for name, value in now.items()):
            log.info("stage %s is up-to-date; skipping", stage)
            return {"status": "up-to-date", "stage": stage}

    for path in named:
        if not path.exists():
            raise StageInputError(f"missing input file for stage {stage!r}: {path}")
    # The stage writes its output, and in record mode the replay store, so
    # the digests taken so far may be stale.
    ctx.digests.clear()
    started = time.monotonic()
    report = spec.run(ctx)
    elapsed = time.monotonic() - started
    _write_manifest(ctx.out_dir, stage, key, inputs, outputs, report, elapsed, ctx.digests)
    return report
