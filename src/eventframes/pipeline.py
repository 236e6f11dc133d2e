"""Stage orchestration: configuration, line-oriented intermediates, manifests.

Every stage reads its predecessor's JSONL file and writes its own, so each is
independently re-runnable and diffable.  Stage files are self-describing via
a header line carrying the producing stage, its stage key, and format version.

A stage's key hashes the config sections it reads (`Stage.sections`) and its
predecessor's key, so a config edit reruns only the stages downstream of the
first stage that reads the edited section.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import time
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

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
from .evaluation import (
    ClusteringMetrics,
    average_metrics,
    load_gold_mentions,
    mention_harness,
)
from .fileio import atomic_write
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


def _from_mapping(cls, data: Mapping, section: str):
    if not isinstance(data, Mapping):
        raise ConfigError(f"config section {section!r} must be an object")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
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
        for entry in self.backends:
            kind = entry.get("kind")
            if kind not in BACKEND_KEYS:
                raise ConfigError(f"unknown similarity backend kind: {kind!r}")
            unknown = set(entry) - BACKEND_KEYS[kind] - {"kind"}
            if unknown:
                raise ConfigError(f"unknown keys in {kind} backend: {sorted(unknown)}")
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
        data = asdict(self)
        data["similarity"]["backends"] = [dict(b) for b in self.similarity.backends]
        if self.similarity.weights is not None:
            data["similarity"]["weights"] = list(self.similarity.weights)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        """Each section is built by its own class, whose __post_init__ checks
        its values; an unknown key or a rejected value raises ConfigError."""
        sections = {f.name: type(f.default) for f in fields(cls) if f.name != "seed"}
        unknown = set(data) - set(sections) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        seed = data.get("seed", cls.seed)
        if not isinstance(seed, int):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        kwargs: dict[str, Any] = {"seed": seed}
        for name, section_cls in sections.items():
            if name in data:
                kwargs[name] = _from_mapping(section_cls, data[name], name)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

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


def _digest(value: Any) -> str:
    canonical = json.dumps(value, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load(loader: Callable, *args: Any) -> Any:
    """loader(*args), with a malformed input file (the loader's ValueError,
    "<path>:<line>: ...") reported as a StageInputError."""
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
        live: GenerationClient = client_cls(gen.endpoint)
        if gen.record:
            if not gen.replay:
                raise ConfigError("record mode requires a replay store path")
            return _load(RecordingClient.at, live, gen.replay)
        return live
    raise ConfigError("conceptualize needs an endpoint or a replay store")


# --------------------------------------------------------------------------
# Stage file IO
# --------------------------------------------------------------------------


def _dumps(record: Mapping) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def write_stage_file(
    path: Path, stage: str, config_hash: str, records: Iterable[Mapping]
) -> int:
    header = {"stage": stage, "config_hash": config_hash, "format_version": FORMAT_VERSION}
    count = 0
    with atomic_write(path) as handle:
        handle.write(_dumps(header) + "\n")
        for record in records:
            handle.write(_dumps(record) + "\n")
            count += 1
    return count


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
    if not path.exists():
        raise StageInputError(
            f"missing {path.name}; run the {expected_stage!r} stage first"
        )
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise StageInputError(f"{path} is empty; rerun the {expected_stage!r} stage")
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


def _file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_path(out_dir: Path, stage: str) -> Path:
    return out_dir / f"{stage}.manifest.json"


def _write_manifest(
    out_dir: Path,
    stage: str,
    config_hash: str,
    inputs: Sequence[Path],
    outputs: Sequence[Path],
    counts: Mapping,
    wall_time: float,
) -> dict:
    manifest = {
        "stage": stage,
        "config_hash": config_hash,
        "inputs": {str(p): _file_hash(p) for p in inputs},
        "outputs": {str(p): _file_hash(p) for p in outputs},
        "counts": dict(counts),
        "wall_time_s": round(wall_time, 6),
    }
    with atomic_write(_manifest_path(out_dir, stage)) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def _up_to_date(out_dir: Path, stage: str, config_hash: str, inputs: Sequence[Path]) -> bool:
    manifest_path = _manifest_path(out_dir, stage)
    if not manifest_path.exists():
        return False
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError:
        return False
    if manifest.get("config_hash") != config_hash:
        return False
    recorded_inputs = manifest.get("inputs", {})
    if set(recorded_inputs) != {str(p) for p in inputs}:
        return False
    for path_str, digest in recorded_inputs.items():
        path = Path(path_str)
        if not path.exists() or _file_hash(path) != digest:
            return False
    for path_str, digest in manifest.get("outputs", {}).items():
        path = Path(path_str)
        if not path.exists() or _file_hash(path) != digest:
            return False
    return True


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------


def _stage_path(out_dir: Path, stage: str) -> Path:
    return out_dir / STAGE_TABLE[stage].file


def _read_stage(cfg: PipelineConfig, out_dir: Path, stage: str) -> list[dict]:
    """The records of an earlier stage's file, refused if stale for cfg."""
    return read_stage_file(_stage_path(out_dir, stage), stage, cfg.stage_keys[stage])


def _write_stage(cfg: PipelineConfig, out_dir: Path, stage: str, records: Iterable[Mapping]) -> int:
    return write_stage_file(_stage_path(out_dir, stage), stage, cfg.stage_keys[stage], records)


def _load_expressions(out_dir: Path, cfg: PipelineConfig) -> list[EventExpression]:
    records = _read_stage(cfg, out_dir, "ingest")
    return [EventExpression.from_text(r["id"], r["text"], r["source"]) for r in records]


def _load_conceptualized(out_dir: Path, cfg: PipelineConfig) -> list[ConceptualizedInstance]:
    records = _read_stage(cfg, out_dir, "conceptualize")
    instances = []
    for r in records:
        expression = EventExpression.from_text(r["id"], r["text"], r["source"])
        candidates = tuple(
            SchemaCandidate(event_type=c["type"], slots=tuple(c["slots"]))
            for c in r["candidates"]
        )
        instances.append(
            ConceptualizedInstance(expression, candidates, parse_failures=r["parse_failures"])
        )
    return instances


def _stage_ingest(cfg: PipelineConfig, out_dir: Path, input_path: Path | None) -> dict:
    if input_path is None:
        raise StageInputError("ingest needs an --input corpus file")
    if not input_path.exists():
        raise StageInputError(f"corpus file not found: {input_path}")
    expressions, report = load_corpus(input_path, cfg.corpus)
    if not expressions:
        raise StageInputError(
            f"no line of {input_path} survived ingest: {report.total} read, "
            f"discarded by reason {report.discarded}"
        )
    _write_stage(
        cfg,
        out_dir,
        "ingest",
        ({"id": e.id, "text": e.text, "source": e.source} for e in expressions),
    )
    return report.as_dict()


def _stage_conceptualize(cfg: PipelineConfig, out_dir: Path, input_path: Path | None) -> dict:
    if not cfg.demonstrations.path:
        raise ConfigError("conceptualize needs a demonstrations path in the config")
    pool = _load(load_demonstrations, cfg.demonstrations.path)
    demos = sample_demonstrations(pool, cfg.demonstrations.m, cfg.seed)
    expressions = _load_expressions(out_dir, cfg)
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
    _write_stage(
        cfg,
        out_dir,
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


def _stage_structuralize(cfg: PipelineConfig, out_dir: Path, input_path: Path | None) -> dict:
    instances = _load_conceptualized(out_dir, cfg)
    ensemble = build_ensemble(cfg.similarity)
    structured = structuralize(instances, cfg.scoring, ensemble)
    _write_stage(cfg, out_dir, "structuralize", (structured_to_dict(s) for s in structured))
    return {
        "instances": len(structured),
        "slots_kept": sum(len(s.slots) for s in structured),
        "type_only_instances": sum(1 for s in structured if not s.slots),
    }


def _schema_graph(
    cfg: PipelineConfig, out_dir: Path
) -> tuple[list[StructuredInstance], SchemaGraph]:
    """The structured instances and their schema graph."""
    structured = [structured_from_dict(r) for r in _read_stage(cfg, out_dir, "structuralize")]
    if not structured:
        raise StageInputError("no structured instances to aggregate")
    ensemble = build_ensemble(cfg.similarity)
    return structured, _aggregate_module.build_schema_graph(structured, ensemble, cfg.graph)


def _stage_aggregate(cfg: PipelineConfig, out_dir: Path, input_path: Path | None) -> dict:
    structured, graph = _schema_graph(cfg, out_dir)
    assignment = cluster_instances(structured, graph, cfg.seed)
    schemas = aggregate(structured, assignment, graph, cfg.graph, cfg.seed)
    _write_stage(cfg, out_dir, "aggregate", (aggregated_to_dict(s) for s in schemas))
    return {
        "instances": len(structured),
        "clusters": len(schemas),
        "modularity_levels": list(assignment.modularity_levels),
    }


def _evaluate_metrics(cfg: PipelineConfig, out_dir: Path) -> dict:
    if not cfg.evaluation.gold:
        raise ConfigError("evaluate needs a gold mentions path in the config")
    gold = _load(load_gold_mentions, cfg.evaluation.gold)
    schemas = [aggregated_from_dict(r) for r in _read_stage(cfg, out_dir, "aggregate")]
    predicted = {
        member: label for label, schema in enumerate(schemas) for member in schema.member_ids
    }

    if cfg.evaluation.repeats <= 1:
        metrics = mention_harness(gold, predicted, cfg.evaluation.top_k)
        return {"repeats": 1, "metrics": metrics.as_dict()}

    # Re-cluster with varied seeds and report the averaged result.  This reads
    # the graph, similarity and seed sections, all covered by aggregate's key.
    structured, graph = _schema_graph(cfg, out_dir)
    ids = [inst.expression.id for inst in structured]
    runs: list[ClusteringMetrics] = []
    for repeat in range(cfg.evaluation.repeats):
        labels = cluster_instances(structured, graph, cfg.seed + repeat).labels
        runs.append(mention_harness(gold, dict(zip(ids, labels)), cfg.evaluation.top_k))
    return {
        "repeats": cfg.evaluation.repeats,
        "metrics": average_metrics(runs).as_dict(),
        "runs": [m.as_dict() for m in runs],
    }


def _stage_evaluate(cfg: PipelineConfig, out_dir: Path, input_path: Path | None) -> dict:
    report = _evaluate_metrics(cfg, out_dir)
    payload = dict(report)
    payload["stage"] = "evaluate"
    payload["config_hash"] = cfg.stage_keys["evaluate"]
    payload["format_version"] = FORMAT_VERSION
    with atomic_write(_stage_path(out_dir, "evaluate")) as handle:
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
    run: Callable[[PipelineConfig, Path, Path | None], dict]


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
    stage: Stage, cfg: PipelineConfig, input_path: Path | None, out_dir: Path
) -> tuple[list[Path], list[Path]]:
    """Input and output files of one stage, for manifests and staleness checks."""
    inputs: list[Path] = []
    if stage.predecessor is None:
        if input_path is not None:
            inputs.append(input_path)
    else:
        inputs.append(_stage_path(out_dir, stage.predecessor))
    if stage.name == "conceptualize":
        if cfg.demonstrations.path:
            inputs.append(Path(cfg.demonstrations.path))
        if cfg.generation.replay and Path(cfg.generation.replay).exists():
            inputs.append(Path(cfg.generation.replay))
    if "similarity" in stage.sections:
        inputs.extend(cfg.similarity.tables)
    if stage.name == "evaluate":
        if cfg.evaluation.gold:
            inputs.append(Path(cfg.evaluation.gold))
        if cfg.evaluation.repeats > 1:
            inputs.append(_stage_path(out_dir, "structuralize"))
            inputs.extend(cfg.similarity.tables)
    return inputs, [_stage_path(out_dir, stage.name)]


def run_stage(
    stage: str,
    cfg: PipelineConfig,
    out_dir: str | Path,
    input_path: str | Path | None = None,
    force: bool = False,
) -> dict:
    """Run one stage (or "all"), skipping work whose inputs are unchanged.

    Returns a report dict; for "all" the reports are keyed by stage name.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    input_path = Path(input_path) if input_path is not None else None

    if stage == "all":
        stages = list(STAGES)
        if not cfg.evaluation.gold:
            stages.remove("evaluate")
        return {s: run_stage(s, cfg, out_dir, input_path, force=force) for s in stages}

    if stage not in STAGE_TABLE:
        raise ConfigError(f"unknown stage: {stage!r}")
    spec = STAGE_TABLE[stage]

    key = cfg.stage_keys[stage]
    inputs, outputs = _stage_io(spec, cfg, input_path, out_dir)
    for path in inputs:
        if path.exists():
            continue
        for producing in STAGE_TABLE.values():
            if path == out_dir / producing.file:
                raise StageInputError(
                    f"missing {path.name}; run the {producing.name!r} stage first"
                )
        raise StageInputError(f"missing input file for stage {stage!r}: {path}")

    if not force and _up_to_date(out_dir, stage, key, inputs):
        log.info("stage %s is up-to-date; skipping", stage)
        return {"status": "up-to-date", "stage": stage}

    started = time.monotonic()
    report = spec.run(cfg, out_dir, input_path)
    elapsed = time.monotonic() - started
    # record mode may have created the replay store; refresh input list
    inputs, outputs = _stage_io(spec, cfg, input_path, out_dir)
    _write_manifest(out_dir, stage, key, inputs, outputs, report, elapsed)
    return report
