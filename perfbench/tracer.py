"""Spans and counters recorded from outside the program.

The tracer replaces public functions on the module that calls them (a name
imported with `from .x import f` must be patched where it is looked up) and
records one span per call: (id, name, start, end, parent).  Spans stay in
memory and are written once, when the run ends.  Per-call similarity lookups
and backend scores are far too frequent for spans; they are only counted, and
their time stays in the self time of the calling span.  Slot-set matching is
called once per node pair: it is timed without a span, its time summed per
enclosing span and taken out of that span's self time.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Calls made on worker threads have no span of their own
thread to nest under, so their parent is the span open on the main thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

STAGES = ("ingest", "conceptualize", "structuralize", "aggregate", "evaluate")
BACKEND_KINDS = ("lexical", "lexicon", "embedding")

# Layer of a span for self-time shares: the module prefix of its name, except
# that stage-file IO is reported apart from the rest of the pipeline module.
SHARE_LAYERS = (
    "corpus", "schemas", "conceptualize", "endpoint", "scoring", "similarity",
    "aggregate", "louvain", "evaluation", "pipeline", "pipeline_io", "trace",
)
SHARE_SPANS = ("aggregate.build_schema_graph", "similarity.sim_slotsets")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ensembles: list[Any] = []
        self.graph_louvain: dict[str, int] = {}
        self.caller: str | None = None
        self._call_cells: dict[str, list[int]] = {}
        self._timed: dict[str, dict[int | None, float]] = {}
        self._names: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> tuple[list[int], int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        self._names[span_id] = name
        stack.append(span_id)
        return stack, span_id, parent, time.perf_counter()

    def _close(self, opened: tuple[list[int], int, int | None, float], name: str) -> None:
        stack, span_id, parent, start = opened
        end = time.perf_counter()
        stack.pop()
        with self._lock:
            self.spans.append((span_id, name, start, end, parent))

    def parent_name(self) -> str | None:
        stack = self._stack() or self._main_stack
        return self._names[stack[-1]] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
    ) -> None:
        """Record a span around every call of owner.attr.

        `after(result, *args, **kwargs)` runs outside the span, under a
        `trace.analysis` span of its own, with `self.caller` set to the name of
        the span that made the call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            caller = self.parent_name()
            opened = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(opened, span_name)
            if after is not None:
                self.caller = caller
                analysis = self._open("trace.analysis")
                try:
                    after(result, *args, **kwargs)
                finally:
                    self._close(analysis, "trace.analysis")
            return result

        self._patch(owner, attr, traced)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls without a span.  Only for functions called from the main
        thread (the increment takes no lock) with positional arguments (the
        wrapper is on paths of millions of calls and takes no **kwargs)."""
        original = getattr(owner, attr)
        cell = [0]
        self._call_cells[name] = cell

        @functools.wraps(original)
        def counted(*args):
            cell[0] += 1
            return original(*args)

        self._patch(owner, attr, counted)

    def time_calls(self, owner: Any, attr: str, name: str) -> None:
        """Time calls without a span, summed per enclosing main-thread span.
        Only for functions called from the main thread with positional
        arguments."""
        original = getattr(owner, attr)
        totals: dict[int | None, float] = defaultdict(float)
        self._timed[name] = totals
        stack = self._main_stack
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args):
            start = clock()
            try:
                return original(*args)
            finally:
                totals[stack[-1] if stack else None] += clock() - start

        self._patch(owner, attr, timed)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        """Patch every layer of the eventframes package."""
        pipeline = importlib.import_module("eventframes.pipeline")
        aggregate = importlib.import_module("eventframes.aggregate")
        scoring = importlib.import_module("eventframes.scoring")
        endpoint = importlib.import_module("eventframes.endpoint")
        similarity = importlib.import_module("eventframes.similarity")

        def stage_name(stage, *args, **kwargs) -> str:
            return "pipeline.run_all" if stage == "all" else f"pipeline.stage.{stage}"

        def after_stage(result, stage, *args, **kwargs) -> None:
            if stage != "all":
                skipped = result.get("status") == "up-to-date"
                self.count("pipeline.stages_skipped" if skipped else "pipeline.stages_run")

        self.wrap(pipeline, "run_stage", stage_name, after_stage)
        self.wrap(pipeline, "read_stage_file", "pipeline.read_stage_file")
        self.wrap(pipeline, "write_stage_file", "pipeline.write_stage_file")

        def after_load(result, *args, **kwargs) -> None:
            _, report = result
            self.count("corpus.kept", report.kept)
            self.count("corpus.discarded", sum(report.discarded.values()))

        self.wrap(pipeline, "load_corpus", "corpus.load_corpus", after_load)
        self.wrap(pipeline, "load_demonstrations", "schemas.load_demonstrations")

        def after_conceptualize(result, *args, **kwargs) -> None:
            _, report = result
            self.count("conceptualize.dropped", report.dropped)
            self.count("conceptualize.parse_failures", report.parse_failures)

        self.wrap(pipeline, "conceptualize_corpus", "conceptualize.conceptualize_corpus",
                  after_conceptualize)

        self.wrap(pipeline, "build_client", "endpoint.build_client")
        self.wrap(endpoint.ReplayClient, "generate", "endpoint.replay_generate",
                  lambda result, *a, **k: self.count("endpoint.replay_hits"))
        original_record = endpoint.RecordingClient.generate

        def record_generate(client, request):
            hit = request.prompt in client.store
            self.count("endpoint.replay_hits" if hit else "endpoint.replay_misses")
            return original_record(client, request)

        self._patch(endpoint.RecordingClient, "generate", record_generate)
        self.wrap(endpoint.RecordingClient, "generate", "endpoint.record_generate")
        self.wrap(endpoint.HttpGenerationClient, "generate", "endpoint.http_generate")
        self.wrap(endpoint.ReplayStore, "save", "endpoint.store_save")

        self.wrap(pipeline, "build_ensemble", "similarity.build_ensemble",
                  lambda result, *a, **k: self.ensembles.append(result))
        self.count_calls(similarity.SimilarityEnsemble, "sim", "similarity.sim.calls")
        self.time_calls(similarity.SimilarityEnsemble, "sim_slotsets", "similarity.sim_slotsets")
        for cls in (similarity.LexicalBackend, similarity.LexiconBackend,
                    similarity.EmbeddingBackend):
            self.count_calls(cls, "score", f"similarity.score_calls.{cls.kind}")

        def after_structuralize(result, instances, *args, **kwargs) -> None:
            scored = sum(len(scoring.collect_slot_set(inst)) for inst in instances)
            self.count("scoring.slots_scored", scored)
            self.count("scoring.slots_kept", sum(len(s.slots) for s in result))

        self.wrap(pipeline, "structuralize", "scoring.structuralize", after_structuralize)
        self.wrap(scoring, "reliability", "scoring.reliability")

        self.wrap(pipeline, "cluster_instances", "aggregate.cluster_instances")
        self.wrap(pipeline, "aggregate", "aggregate.aggregate")
        self.wrap(aggregate, "build_schema_graph", "aggregate.build_schema_graph")

        def after_prune(result, weights, *args, **kwargs) -> None:
            if self.caller == "aggregate.build_schema_graph":
                self.count("aggregate.edges_before", int(np.count_nonzero(np.triu(weights, 1))))
                self.count("aggregate.edges_kept", int(np.count_nonzero(np.triu(result, 1))))

        self.wrap(aggregate, "prune_edges", "aggregate.prune_edges", after_prune)
        self.wrap(aggregate, "merge_slot_synonyms", "aggregate.merge_slot_synonyms")

        def after_louvain(result, weights, *args, **kwargs) -> None:
            if self.caller == "aggregate.cluster_instances":
                self.graph_louvain = {
                    "levels": len(result.modularity_levels),
                    "communities": result.n_clusters,
                    "disconnected": disconnected_communities(weights, result.groups()),
                }

        self.wrap(aggregate, "louvain", "louvain.louvain", after_louvain)
        self.wrap(pipeline, "mention_harness", "evaluation.mention_harness")
        self.wrap(pipeline, "load_gold_mentions", "evaluation.load_gold_mentions")

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name; timed calls count as spans of
        their own name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        in_timed: dict[int | None, float] = defaultdict(float)
        for per_span in self._timed.values():
            for span_id, seconds in per_span.items():
                in_timed[span_id] += seconds
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            covered_s = covered(children.get(span_id, ()), start, end)
            totals[name] += (end - start) - covered_s - in_timed[span_id]
        for name, per_span in self._timed.items():
            totals[name] += sum(per_span.values())
        return dict(totals)

    def durations(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            totals[name] += end - start
        for name, per_span in self._timed.items():
            totals[name] += sum(per_span.values())
        return dict(totals)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced sample."""
        c = self.counters
        durations = self.durations()
        self_times = self.self_times()
        calls = {name: cell[0] for name, cell in self._call_cells.items()}
        entries = [len(e._cache) for e in self.ensembles]
        fallbacks = sum(
            getattr(b, "fallback_count", 0) for e in self.ensembles for b in e.backends
        )
        sim_calls = calls["similarity.sim.calls"]
        out = {
            "corpus.load_corpus.s": durations.get("corpus.load_corpus", 0.0),
            "corpus.kept": c["corpus.kept"],
            "corpus.discarded": c["corpus.discarded"],
            "conceptualize.conceptualize_corpus.s":
                durations.get("conceptualize.conceptualize_corpus", 0.0),
            "conceptualize.dropped": c["conceptualize.dropped"],
            "conceptualize.parse_failures": c["conceptualize.parse_failures"],
            "endpoint.replay_hits": c["endpoint.replay_hits"],
            "endpoint.replay_misses": c["endpoint.replay_misses"],
            "endpoint.store_save.s": durations.get("endpoint.store_save", 0.0),
            "scoring.structuralize.s": durations.get("scoring.structuralize", 0.0),
            "scoring.reliability.s": durations.get("scoring.reliability", 0.0),
            "scoring.slot_keep_ratio": ratio(c["scoring.slots_kept"], c["scoring.slots_scored"]),
            "similarity.sim.calls": sim_calls,
            "similarity.cache_hit_ratio": ratio(sim_calls - sum(entries), sim_calls),
            "similarity.cache_entries": max(entries, default=0),
            "similarity.sim_slotsets.s": durations.get("similarity.sim_slotsets", 0.0),
            "similarity.embedding_fallbacks": fallbacks,
            "similarity.build_ensemble.s": durations.get("similarity.build_ensemble", 0.0),
            "aggregate.build_schema_graph.s": durations.get("aggregate.build_schema_graph", 0.0),
            "aggregate.prune_edges.s": durations.get("aggregate.prune_edges", 0.0),
            "aggregate.edges_kept_ratio": ratio(c["aggregate.edges_kept"], c["aggregate.edges_before"]),
            "aggregate.merge_slot_synonyms.s": durations.get("aggregate.merge_slot_synonyms", 0.0),
            "louvain.louvain.s": durations.get("louvain.louvain", 0.0),
            "louvain.levels": self.graph_louvain.get("levels", 0),
            "louvain.communities": self.graph_louvain.get("communities", 0),
            "louvain.disconnected_communities": self.graph_louvain.get("disconnected", 0),
            "evaluation.mention_harness.s": durations.get("evaluation.mention_harness", 0.0),
            "pipeline.stages_run": c["pipeline.stages_run"],
            "pipeline.stages_skipped": c["pipeline.stages_skipped"],
            "pipeline.read_stage_file.s": durations.get("pipeline.read_stage_file", 0.0),
            "pipeline.write_stage_file.s": durations.get("pipeline.write_stage_file", 0.0),
        }
        for kind in BACKEND_KINDS:
            out[f"similarity.score_calls.{kind}"] = calls[f"similarity.score_calls.{kind}"]
        for stage in STAGES:
            out[f"pipeline.stage.{stage}.self_s"] = self_times.get(f"pipeline.stage.{stage}", 0.0)
        total_self = sum(self_times.values())
        layer_self: dict[str, float] = defaultdict(float)
        for name, value in self_times.items():
            layer_self[layer_of(name)] += value
        for layer in SHARE_LAYERS:
            out[f"self_share.{layer}"] = ratio(layer_self[layer], total_self)
        for name in SHARE_SPANS:
            out[f"self_share.{name}"] = ratio(self_times.get(name, 0.0), total_self)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)


def layer_of(span_name: str) -> str:
    if span_name in ("pipeline.read_stage_file", "pipeline.write_stage_file"):
        return "pipeline_io"
    return span_name.split(".", 1)[0]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def disconnected_communities(weights: np.ndarray, groups) -> int:
    """Communities whose members are not connected by positive-weight edges."""
    count = 0
    for group in groups:
        members = set(group)
        seen = {group[0]}
        frontier = [group[0]]
        while frontier:
            node = frontier.pop()
            for other in np.nonzero(weights[node] > 0)[0]:
                other = int(other)
                if other in members and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        count += len(seen) != len(members)
    return count
