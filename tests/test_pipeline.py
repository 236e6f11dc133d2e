import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from eventframes import pipeline
from eventframes.pipeline import (
    FORMAT_VERSION,
    STAGE_TABLE,
    STAGES,
    ConfigError,
    PipelineConfig,
    StageInputError,
    _write_manifest,
    build_client,
    build_ensemble,
    read_config,
    read_stage_file,
    run_stage,
    write_stage_file,
)
from eventframes.cli import main as cli_main
from eventframes.conceptualize import build_prompt, sample_demonstrations
from eventframes.endpoint import ReplayStore, prompt_hash
from eventframes.schemas import SchemaCandidate, load_demonstrations, render_schema
from eventframes.similarity import EmbeddingServiceBackend

from helpers import LoopbackServer, count_table_parses
from synthetic import DEMO_POOL, build_workspace, planted_mentions
from test_golden import write_tables


@pytest.fixture()
def workspace(tmp_path):
    paths = build_workspace(tmp_path / "ws")
    cfg = PipelineConfig.from_dict(read_config(paths["config"]))
    return paths, cfg, tmp_path


# (section, key) of every config field that holds a float.
FLOAT_FIELDS = [
    (section.name, name)
    for section in fields(PipelineConfig)
    if section.name != "seed"
    for name, annotation in get_type_hints(type(section.default)).items()
    if float in (annotation, *get_args(annotation))
]


def cover_seed(paths, tmp, seed):
    """Add the prompts of another seed's demonstration sample to the replay store."""
    store = ReplayStore.load(paths["store"])
    other = build_workspace(tmp / f"ws{seed}", seed=seed)
    store.entries.update(ReplayStore.load(other["store"]).entries)
    store.save(paths["store"])


def edited(cfg, section, key, value):
    data = cfg.to_dict()
    if section is None:
        data[key] = value
    else:
        data[section][key] = value
    return PipelineConfig.from_dict(data)


class TestPipelineConfig:
    def test_defaults_reproduce_documented_values(self):
        cfg = PipelineConfig()
        assert cfg.seed == 1234
        assert cfg.corpus.max_tokens == 256
        assert cfg.corpus.max_numeric_ratio == 0.25
        assert cfg.demonstrations.m == 8
        assert cfg.generation.n == 3
        assert cfg.scoring.beta == 0.8
        assert cfg.scoring.max_iterations == 300
        assert cfg.scoring.tolerance == 1e-6
        assert cfg.scoring.lambda1 == 1.0
        assert cfg.scoring.lambda2 == 1.0
        assert cfg.scoring.threshold == pytest.approx(1 / 3)
        assert cfg.graph.lambda3 == 3.0
        assert cfg.graph.lambda4 == 1.0
        assert cfg.graph.lambda5 == 1.0
        assert cfg.evaluation.top_k == 15

    def test_round_trip_lossless(self):
        cfg = PipelineConfig.from_dict(
            {
                "seed": 99,
                "corpus": {"format": "structured-records", "max_tokens": 10},
                "scoring": {"threshold": 0.5, "log_base": 2.0},
                "similarity": {"backends": [{"kind": "lexical"}], "weights": [1.0]},
            }
        )
        through_json = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert through_json == cfg
        assert through_json.to_dict() == cfg.to_dict()
        assert through_json.stage_keys == cfg.stage_keys

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"surprise": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"scoring": {"thresh": 1}})

    def test_bad_value_rejected_before_work(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"scoring": {"beta": 2.0}})

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("corpus", "format", "xml"),
            ("corpus", "language_mode", "bogus"),
            ("corpus", "max_tokens", 0),
            ("demonstrations", "m", 0),
            ("generation", "n", 0),
            ("generation", "max_new_tokens", 0),
            ("generation", "temperature", -0.1),
            ("generation", "endpoint_style", "chat"),
            ("scoring", "lambda1", -1.0),
            ("scoring", "max_iterations", 0),
            ("evaluation", "top_k", 0),
            ("evaluation", "repeats", 0),
        ],
    )
    def test_out_of_range_section_value_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"bad config section '{section}'"):
            PipelineConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize("data", [{"seed": "1234"}, {"seed": 1.5}, {"corpus": 5}])
    def test_bad_seed_or_section_type_rejected(self, data):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("data", [[], None, 5, "config"])
    def test_config_that_is_not_an_object_rejected(self, data):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("section,key", FLOAT_FIELDS)
    def test_a_non_finite_number_is_refused(self, section, key, value):
        # Python's json reads NaN and Infinity, which RFC 8259 JSON does not have.
        data = json.loads(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError, match=f"^{section}.{key} must be a number"):
            PipelineConfig.from_dict(data)

    def test_a_non_finite_weight_is_refused(self):
        data = json.loads('{"similarity": {"weights": [NaN]}}')
        with pytest.raises(ConfigError, match=r"^similarity.weights must be a list .* got \[nan\]"):
            PipelineConfig.from_dict(data)

    def test_hash_changes_with_config(self):
        base = PipelineConfig()
        changed = PipelineConfig.from_dict({"seed": 4321})
        assert base.stage_keys != changed.stage_keys


class TestBuildHelpers:
    def test_client_requires_endpoint_or_replay(self):
        with pytest.raises(ConfigError):
            build_client(PipelineConfig())

    def test_record_requires_store_path(self):
        cfg = PipelineConfig.from_dict(
            {"generation": {"endpoint": "http://e", "record": True}}
        )
        with pytest.raises(ConfigError):
            build_client(cfg)

    def test_client_rejects_a_non_http_endpoint(self):
        cfg = PipelineConfig.from_dict({"generation": {"endpoint": "ftp://e/generate"}})
        with pytest.raises(ConfigError, match="not an http"):
            build_client(cfg)

    def test_ensemble_unknown_backend(self):
        from eventframes.pipeline import SimilaritySettings

        with pytest.raises(ConfigError):
            build_ensemble(SimilaritySettings(backends=({"kind": "psychic"},)))

    def test_ensemble_weights_forwarded(self, tmp_path):
        from eventframes.pipeline import SimilaritySettings

        synsets = tmp_path / "syn.tsv"
        synsets.write_text("die\tdecease\n", encoding="utf-8")
        ensemble = build_ensemble(
            SimilaritySettings(
                backends=({"kind": "lexical"}, {"kind": "lexicon", "path": str(synsets)}),
                weights=(0.5, 0.5),
            )
        )
        # lexical sees no shared bigrams (0.0); lexicon scores the synonym pair 1.0
        assert ensemble.sim("die", "decease") == pytest.approx(0.5 * 0.0 + 0.5 * 1.0)


class TestStageChain:
    def test_all_produces_three_schemas_and_perfect_metrics(self, workspace):
        paths, cfg, tmp = workspace
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert report["ingest"]["kept"] == 30
        assert report["aggregate"]["clusters"] == 3
        assert report["evaluate"]["metrics"]["ari"] == 1.0
        schemas = read_stage_file(tmp / "out" / "schemas.jsonl", "aggregate")
        assert len(schemas) == 3
        members = {frozenset(s["members"]) for s in schemas}
        expected = {
            frozenset(m for m, t in planted_mentions() if t == event_type)
            for event_type in ("attack", "election", "marriage")
        }
        assert members == expected

    def test_without_gold_all_runs_four_stages_and_evaluate_refuses(self, workspace):
        paths, cfg, tmp = workspace
        cfg = edited(cfg, "evaluation", "gold", None)
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert list(report) == list(STAGES[:-1])
        assert not (tmp / "out" / "metrics.json").exists()
        with pytest.raises(ConfigError, match="^evaluate needs a gold mentions path"):
            run_stage("evaluate", cfg, tmp / "out")

    def test_texts_with_unicode_line_separators_round_trip(self, workspace):
        # U+0085, U+2028 and U+2029 are line breaks to str.splitlines() but
        # not to JSON, which writes them raw inside strings.
        paths, cfg, tmp = workspace
        store = ReplayStore.load(paths["store"])
        demos = sample_demonstrations(
            load_demonstrations(paths["demos"]), cfg.demonstrations.m, cfg.seed
        )
        records = [json.loads(line) for line in paths["corpus"].read_text(encoding="utf-8").splitlines()]
        for record, separator in zip(records, ["\x85", "\u2028", "\u2029"]):
            completions = store.entries[prompt_hash(build_prompt(demos, record["text"]))]
            record["text"] += separator + "today"
            store.put(build_prompt(demos, record["text"]), completions)
        store.save(paths["store"])
        paths["corpus"].write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
        )
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert report["aggregate"]["clusters"] == 3
        texts = {r["id"]: r["text"] for r in records}
        for stage in ("ingest", "conceptualize"):
            written = read_stage_file(tmp / "out" / STAGE_TABLE[stage].file, stage)
            assert {r["id"]: r["text"] for r in written} == texts

    def test_byte_identical_across_runs(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out1", input_path=paths["corpus"])
        run_stage("all", cfg, tmp / "out2", input_path=paths["corpus"])
        for name in ("expressions.jsonl", "conceptualized.jsonl", "structured.jsonl", "schemas.jsonl"):
            assert (tmp / "out1" / name).read_bytes() == (tmp / "out2" / name).read_bytes()

    def test_corpus_order_changes_only_record_order(self, workspace):
        paths, cfg, tmp = workspace

        def clusters(corpus: Path) -> dict:
            out = tmp / corpus.stem
            run_stage("all", cfg, out, input_path=corpus)
            return {
                frozenset(s["members"]): (
                    s["type"],
                    sorted(s["type_candidates"]),
                    sorted((slot["name"], tuple(slot["synonyms"])) for slot in s["slots"]),
                )
                for s in read_stage_file(out / "schemas.jsonl", "aggregate")
            }

        expected = clusters(Path(paths["corpus"]))
        lines = Path(paths["corpus"]).read_text(encoding="utf-8").splitlines(keepends=True)
        for seed in range(3):
            random.Random(seed).shuffle(lines)
            shuffled = tmp / f"shuffled{seed}.jsonl"
            shuffled.write_text("".join(lines), encoding="utf-8")
            assert clusters(shuffled) == expected

    def test_missing_predecessor_names_stage(self, workspace):
        _, cfg, tmp = workspace
        with pytest.raises(StageInputError, match="conceptualize"):
            run_stage("structuralize", cfg, tmp / "fresh")

    def test_unknown_stage_rejected(self, workspace):
        _, cfg, tmp = workspace
        with pytest.raises(ConfigError):
            run_stage("transmogrify", cfg, tmp / "out")

    def test_up_to_date_skip_and_force(self, workspace):
        paths, cfg, tmp = workspace
        first = run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"])
        assert first["kept"] == 30
        second = run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"])
        assert second == {"status": "up-to-date", "stage": "ingest"}
        forced = run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"], force=True)
        assert forced["kept"] == 30

    def test_changed_input_invalidates_skip(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"])
        with open(paths["corpus"], "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "m99", "text": "crews repair engines"}) + "\n")
        rerun = run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"])
        assert rerun["kept"] == 31

    def test_stage_files_are_self_describing(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"])
        header = json.loads(
            (tmp / "out" / "expressions.jsonl").read_text(encoding="utf-8").splitlines()[0]
        )
        assert header == {
            "stage": "ingest",
            "config_hash": cfg.stage_keys["ingest"],
            "format_version": 2,
        }

    def test_header_mismatch_detected(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"])
        with pytest.raises(StageInputError, match="ingest"):
            read_stage_file(tmp / "out" / "expressions.jsonl", "conceptualize")

    def test_manifest_contents(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("ingest", cfg, tmp / "out", input_path=paths["corpus"])
        manifest = json.loads((tmp / "out" / "ingest.manifest.json").read_text(encoding="utf-8"))
        assert manifest["stage"] == "ingest"
        assert manifest["config_hash"] == cfg.stage_keys["ingest"]
        assert os.path.relpath(paths["corpus"], tmp / "out") in manifest["inputs"]
        assert any(path.endswith("expressions.jsonl") for path in manifest["outputs"])
        assert manifest["counts"]["kept"] == 30
        assert manifest["wall_time_s"] >= 0

    def test_evaluate_with_repeats(self, workspace):
        paths, _, tmp = workspace
        data = json.loads(Path(paths["config"]).read_text(encoding="utf-8"))
        data["evaluation"]["repeats"] = 3
        cfg = PipelineConfig.from_dict(data)
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        evaluation = report["evaluate"]
        assert evaluation["repeats"] == 3
        assert len(evaluation["runs"]) == 3
        assert evaluation["metrics"]["ari"] == pytest.approx(
            sum(r["ari"] for r in evaluation["runs"]) / 3
        )

    def test_aggregates_partition_is_the_first_run(self, workspace, monkeypatch):
        paths, cfg, tmp = workspace
        seeds = []
        original = pipeline.cluster_instances

        def counted(structured, graph, seed):
            seeds.append(seed)
            return original(structured, graph, seed)

        monkeypatch.setattr(pipeline, "cluster_instances", counted)
        cfg = edited(cfg, "evaluation", "repeats", 3)
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert seeds == [cfg.seed, cfg.seed + 1, cfg.seed + 2]
        single = run_stage("evaluate", edited(cfg, "evaluation", "repeats", 1), tmp / "out")
        assert report["evaluate"]["runs"][0] == single["metrics"]


# Configs and their stage keys: the synthetic workspace's config with relative
# paths, and one that sets every key of every section.
PINNED_KEYS = {
    "synthetic": (
        {
            "seed": 1234,
            "corpus": {"format": "structured-records"},
            "demonstrations": {"path": "demos.jsonl", "m": 8},
            "generation": {"n": 3, "replay": "replay.jsonl"},
            "evaluation": {"gold": "gold.jsonl", "top_k": 15},
        },
        {
            "ingest": "880fb4c1f28a7be22a8afaf42fa7dda0e9fb82ef2f4f4e2f5976744fb5353db5",
            "conceptualize": "01c1b2e53e10f1c193e1861b8c6050a22e15c0e123be9426324dd7d28970f739",
            "structuralize": "52329396b498d4a7b300dc4892d91fc512955f29ec2dae17e832ac5a24046b8e",
            "aggregate": "5e85d29f35f4b05c29d419722804c7e21fd46fe0642edb959c4be015d12d493d",
            "evaluate": "a443a61f0e8f6f109cf4ab85b97c1f58ceb61bb35b9fc32dde70f39ac11d2577",
        },
    ),
    "every-section": (
        {
            "seed": 99,
            "corpus": {
                "format": "plain-lines",
                "max_tokens": 40,
                "max_numeric_ratio": 0.5,
                "language_mode": "character",
            },
            "demonstrations": {"path": "demos.jsonl", "m": 4},
            "generation": {
                "n": 2,
                "max_new_tokens": 32,
                "temperature": 0.7,
                "endpoint": "http://127.0.0.1:9/generate",
                "endpoint_style": "openai",
                "replay": "replay.jsonl",
                "record": True,
                "workers": 4,
            },
            "scoring": {
                "lambda1": 0.5,
                "lambda2": 2.0,
                "beta": 0.6,
                "max_iterations": 50,
                "tolerance": 1e-8,
                "threshold": 0.25,
                "weighted_cooccurrence": True,
                "tf_variant": "log-of-square",
                "log_base": 2.0,
            },
            "graph": {
                "lambda3": 2.0,
                "lambda4": 0.5,
                "lambda5": 1.5,
                "edge_prune": "absolute",
                "prune_tau": 0.3,
            },
            "similarity": {
                "backends": [
                    {"kind": "lexical"},
                    {"kind": "lexicon", "path": "lexicon.json"},
                    {"kind": "embedding", "path": "vectors.json"},
                ],
                "weights": [0.5, 0.25, 0.25],
            },
            "evaluation": {"gold": "gold.jsonl", "top_k": 10, "repeats": 3},
        },
        {
            "ingest": "bd7a53407173aa5a6a6a484aa7858443068b68f767a4f67f05f4dc8d5c87ad30",
            "conceptualize": "a8d6620bce095419ab426461abef8e852d9eae9a59749464cacca3ca0b5baee7",
            "structuralize": "8c2c36412f1fc2192326b839d0e4ac13988fd058d6ce070828847a8f8c0c9bc6",
            "aggregate": "c02ac9ae98617917f2b4667d30e72baa76b9d06f62e3a05e7a6d85310374aee3",
            "evaluate": "67e38114b72157fea317a9c4c0953cef4545dfed4fea59c0c0a04307fdd1e1b4",
        },
    ),
}


class TestScopedStageKeys:
    def test_each_edit_reruns_only_the_stages_that_read_it(self, workspace):
        paths, cfg, tmp = workspace
        cover_seed(paths, tmp, 777)
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        edits = [
            (("evaluation", "top_k", 10), {"evaluate"}),
            (("scoring", "threshold", 0.3), {"structuralize", "aggregate", "evaluate"}),
            (("graph", "lambda3", 2.5), {"aggregate", "evaluate"}),
            ((None, "seed", 777), {"conceptualize", "structuralize", "aggregate", "evaluate"}),
        ]
        for edit, expected in edits:
            cfg = edited(cfg, *edit)
            report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
            skipped = {s for s, r in report.items() if r.get("status") == "up-to-date"}
            assert set(STAGES) - skipped == expected, edit
            for stage in skipped:
                assert report[stage] == {"status": "up-to-date", "stage": stage}

        run_stage("all", cfg, tmp / "fresh", input_path=paths["corpus"], force=True)
        for stage_file in ("expressions.jsonl", "conceptualized.jsonl", "structured.jsonl",
                           "schemas.jsonl", "metrics.json"):
            fresh = (tmp / "fresh" / stage_file).read_bytes()
            assert (tmp / "out" / stage_file).read_bytes() == fresh, stage_file

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_edited_similarity_table_reruns_the_stages_that_read_it(self, workspace, repeats):
        paths, cfg, tmp = workspace
        lexicon = tmp / "lexicon.tsv"
        lexicon.write_text("zebra\tquagga\n", encoding="utf-8")
        data = cfg.to_dict()
        data["similarity"]["backends"] = [
            {"kind": "lexical"},
            {"kind": "lexicon", "path": str(lexicon)},
        ]
        data["evaluation"]["repeats"] = repeats
        cfg = PipelineConfig.from_dict(data)
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        lexicon.write_text("attacker\tvictim\tweapon\nwinner\trival\n", encoding="utf-8")
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        rerun = {s for s, r in report.items() if r.get("status") != "up-to-date"}
        assert rerun == {"structuralize", "aggregate", "evaluate"}
        for stage in ("structuralize", "aggregate", "evaluate"):
            manifest = json.loads((tmp / "out" / f"{stage}.manifest.json").read_text("utf-8"))
            reads_table = stage != "evaluate" or repeats > 1
            reads = os.path.relpath(lexicon, tmp / "out") in manifest["inputs"]
            assert reads is reads_table, stage

        run_stage("all", cfg, tmp / "fresh", input_path=paths["corpus"], force=True)
        for stage_file in ("structured.jsonl", "schemas.jsonl", "metrics.json"):
            fresh = (tmp / "fresh" / stage_file).read_bytes()
            assert (tmp / "out" / stage_file).read_bytes() == fresh, stage_file

    def test_a_new_format_version_reruns_every_stage(self, workspace, monkeypatch):
        """FORMAT_VERSION roots the chain of keys, so the files of an older
        format are rewritten, not kept, and not refused either."""
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        monkeypatch.setattr(pipeline, "FORMAT_VERSION", FORMAT_VERSION + 1)
        cfg = PipelineConfig.from_dict(cfg.to_dict())
        with pytest.raises(StageInputError, match="rerun the 'conceptualize' stage"):
            run_stage("structuralize", cfg, tmp / "out")
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert [r.get("status") for r in report.values()] == [None] * len(STAGES)
        run_stage("all", cfg, tmp / "fresh", input_path=paths["corpus"], force=True)
        for stage in STAGES:
            name = STAGE_TABLE[stage].file
            assert (tmp / "out" / name).read_bytes() == (tmp / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_keys_are_pinned(self, name):
        """A changed key reruns every stage of every existing workspace once."""
        data, keys = PINNED_KEYS[name]
        assert PipelineConfig.from_dict(data).stage_keys == keys

    @pytest.mark.parametrize("section, key", [*FLOAT_FIELDS, ("similarity", "weights")])
    def test_a_float_field_spelt_as_an_integer_is_one_config(self, section, key):
        """`3` and `3.0` give one to_dict() JSON and one set of stage keys,
        or, for a value out of range, one error; so does a config built in
        Python from either."""

        def outcome(number, build):
            data = {section: {key: number}}
            if key == "weights":
                data[section] = {"backends": [{"kind": "lexical"}] * 2, key: [number, 1]}
            try:
                cfg = build(data)
            except (ConfigError, ValueError) as exc:
                return str(exc)
            return json.dumps(cfg.to_dict(), sort_keys=True), cfg.stage_keys

        def in_python(data):
            section_cls = type(getattr(PipelineConfig, section))
            return PipelineConfig(**{section: section_cls(**data[section])})

        for number in (0, 1, 2):
            from_json = outcome(float(number), PipelineConfig.from_dict)
            assert outcome(number, PipelineConfig.from_dict) == from_json, number
            if not isinstance(from_json, str):
                assert outcome(number, in_python) == from_json, number

    @pytest.mark.parametrize(
        "section, key, number", [("graph", "lambda3", 3), ("scoring", "threshold", 0)]
    )
    def test_respelling_an_integer_as_a_float_reruns_no_stage(
        self, workspace, capsys, section, key, number
    ):
        paths, _, tmp = workspace
        data = json.loads(paths["config"].read_text(encoding="utf-8"))
        common = ["all", "--config", str(paths["config"]), "--input", str(paths["corpus"]),
                  "--output", str(tmp / "out")]
        statuses = []
        for value in (number, float(number)):
            data.setdefault(section, {})[key] = value
            paths["config"].write_text(json.dumps(data), encoding="utf-8")
            assert cli_main(common) == 0
            report = json.loads(capsys.readouterr().out)
            statuses.append({s: r.get("status") for s, r in report.items()})
        assert statuses == [dict.fromkeys(STAGES), dict.fromkeys(STAGES, "up-to-date")]

    def test_keys_chain_through_predecessors(self):
        base = PipelineConfig()
        changed = edited(base, "scoring", "threshold", 0.5)
        same = [s for s in STAGES if base.stage_keys[s] == changed.stage_keys[s]]
        assert same == ["ingest", "conceptualize"]

    def test_transport_fields_leave_keys_unchanged(self):
        base = PipelineConfig()
        changed = PipelineConfig.from_dict(
            {
                "generation": {
                    "endpoint": "http://localhost:1/generate",
                    "endpoint_style": "openai",
                    "replay": "store.jsonl",
                    "record": True,
                    "workers": 4,
                }
            }
        )
        assert changed.stage_keys == base.stage_keys
        assert edited(base, "generation", "n", 5).stage_keys["conceptualize"] != (
            base.stage_keys["conceptualize"]
        )

    def test_stale_predecessor_is_refused(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        before = (tmp / "out" / "schemas.jsonl").read_bytes()
        with pytest.raises(StageInputError, match="rerun the 'structuralize' stage"):
            run_stage("aggregate", edited(cfg, "scoring", "threshold", 0.3), tmp / "out")
        assert (tmp / "out" / "schemas.jsonl").read_bytes() == before

    def test_stale_predecessor_reported_by_cli(self, workspace, capsys):
        paths, _, tmp = workspace
        common = ["--config", str(paths["config"]), "--output", str(tmp / "cli")]
        assert cli_main(["all", "--input", str(paths["corpus"]), *common]) == 0
        capsys.readouterr()
        assert cli_main(["aggregate", "--threshold", "0.3", *common]) == 2
        assert "structuralize" in capsys.readouterr().err


class TestOneEnsemblePerRun:
    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        original = pipeline.build_ensemble

        def counted(settings):
            calls.append(settings)
            return original(settings)

        monkeypatch.setattr(pipeline, "build_ensemble", counted)
        return calls

    def test_a_run_builds_the_ensemble_only_when_a_stage_needs_it(self, workspace, builds):
        paths, cfg, tmp = workspace

        def builds_of(cfg, out):
            before = len(builds)
            run_stage("all", cfg, tmp / out, input_path=paths["corpus"])
            return len(builds) - before

        assert builds_of(cfg, "out") == 1
        assert builds_of(cfg, "out") == 0
        cfg = edited(cfg, "evaluation", "top_k", 10)
        assert builds_of(cfg, "out") == 0
        cfg = edited(cfg, "scoring", "threshold", 0.3)
        assert builds_of(cfg, "out") == 1
        assert builds_of(edited(cfg, "evaluation", "repeats", 3), "repeats") == 1

    def test_a_stage_run_alone_builds_its_own(self, workspace, builds):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        before = len(builds)
        run_stage("aggregate", cfg, tmp / "out", force=True)
        run_stage("structuralize", cfg, tmp / "out", force=True)
        assert len(builds) - before == 2


class TestTablesParsedOncePerProcess:
    @pytest.fixture()
    def tables(self, workspace, monkeypatch):
        """The workspace with a lexicon and a vector table, and the names of
        the files that the lexicon reader and the vector-table loader read."""
        paths, cfg, tmp = workspace
        data = cfg.to_dict()
        data["similarity"] = write_tables(tmp)
        return paths, PipelineConfig.from_dict(data), tmp, count_table_parses(monkeypatch)

    def test_config_edits_parse_each_table_once(self, tables):
        paths, cfg, tmp, parses = tables
        build_ensemble(cfg.similarity)
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        for section, key, value in (("scoring", "threshold", 0.3), ("graph", "lambda3", 2.5)):
            cfg = edited(cfg, section, key, value)
            report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
            assert report["aggregate"].get("status") is None
        assert sorted(parses) == ["lexicon.tsv", "vectors.txt"]

    def test_a_table_rewritten_to_the_same_size_and_time_reruns_its_stages(self, tables):
        paths, cfg, tmp, parses = tables
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        before = (tmp / "out" / "structured.jsonl").read_bytes()
        # Each vector moves to the next line's token: the same size, other bytes.
        table = tmp / "vectors.txt"
        stat = table.stat()
        lines = table.read_text("utf-8").splitlines()
        tokens, vectors = zip(*(line.split(" ", 1) for line in lines))
        table.write_text(
            "".join(f"{t} {v}\n" for t, v in zip(tokens[1:] + tokens[:1], vectors)), "utf-8"
        )
        os.utime(table, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert table.stat().st_size == stat.st_size

        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert {s for s, r in report.items() if r.get("status") is None} >= {
            "structuralize", "aggregate"
        }
        assert parses.count("vectors.txt") == 2
        assert (tmp / "out" / "structured.jsonl").read_bytes() != before
        run_stage("all", cfg, tmp / "fresh", input_path=paths["corpus"], force=True)
        for stage_file in ("structured.jsonl", "schemas.jsonl", "metrics.json"):
            fresh = (tmp / "fresh" / stage_file).read_bytes()
            assert (tmp / "out" / stage_file).read_bytes() == fresh, stage_file


@pytest.mark.parametrize("name", ["aggregate", "louvain"])
def test_importing_a_module_by_name_binds_the_module(name):
    # The package exports no function under one of its modules' names.
    namespace: dict = {}
    exec(f"import eventframes.{name} as m", namespace)
    assert namespace["m"] is sys.modules[f"eventframes.{name}"]
    assert type(namespace["m"]).__name__ == "module"


class TestOneGraphPerRun:
    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        original = pipeline._aggregate_module.build_schema_graph

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline._aggregate_module, "build_schema_graph", counted)
        return calls

    def test_aggregate_and_evaluate_share_the_graph(self, workspace, builds):
        paths, cfg, tmp = workspace
        cfg = edited(cfg, "evaluation", "repeats", 3)
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert len(builds) == 1
        run_stage("evaluate", cfg, tmp / "out", force=True)
        assert len(builds) == 2

    def test_evaluate_alone_in_a_run_builds_it(self, workspace, builds):
        paths, cfg, tmp = workspace
        cfg = edited(cfg, "evaluation", "repeats", 3)
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        cfg = edited(cfg, "evaluation", "top_k", 10)
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert [s for s, r in report.items() if r.get("status") != "up-to-date"] == ["evaluate"]
        assert len(builds) == 2


def _types(value):
    """The type of value and, in a dataclass or a container, of each value it holds."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_types(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_types, value))
    if isinstance(value, frozenset):
        return type(value), frozenset(map(_types, value))
    return type(value)


def _plain_lines(data, paths):
    """The corpus as plain lines, one padded, and gold ids to match."""
    texts = [json.loads(line)["text"] for line in paths["corpus"].read_text("utf-8").splitlines()]
    paths["corpus"] = paths["corpus"].with_name("corpus.txt")
    paths["corpus"].write_text(f"  {texts[0]}\t\n" + "".join(t + "\n" for t in texts[1:]), "utf-8")
    paths["gold"].write_text(
        "".join(
            json.dumps({"id": f"corpus.txt:{line}", "type": event_type}) + "\n"
            for line, (_, event_type) in enumerate(planted_mentions(), 1)
        ),
        encoding="utf-8",
    )
    data["corpus"]["format"] = "plain-lines"


class TestHandoff:
    """Within one run_stage("all") call, a stage takes the records that its
    predecessor has just written from memory, not from the file."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        """The records each RunContext.read returned, and the stages whose
        files read_stage_file decoded."""
        handed, decoded = {}, []
        read, decode = pipeline.RunContext.read, pipeline.read_stage_file

        def recorded(ctx, stage, parse):
            handed[stage] = (read(ctx, stage, parse), parse)
            return handed[stage][0]

        def counted(path, stage, *args, **kwargs):
            decoded.append(stage)
            return decode(path, stage, *args, **kwargs)

        monkeypatch.setattr(pipeline.RunContext, "read", recorded)
        monkeypatch.setattr(pipeline, "read_stage_file", counted)
        return handed, decoded

    @pytest.mark.parametrize("variant", ["repeats-1", "repeats-3", "plain-lines"])
    def test_handed_records_equal_the_decoded_file(self, workspace, reads, variant):
        paths, cfg, tmp = workspace
        data = cfg.to_dict()
        data["similarity"] = write_tables(tmp)
        if variant == "repeats-3":
            data["evaluation"]["repeats"] = 3
        if variant == "plain-lines":
            _plain_lines(data, paths)
        cfg = PipelineConfig.from_dict(data)
        handed, decoded = reads
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert report["evaluate"]["metrics"]["ari"] == 1.0
        assert decoded == []
        assert list(handed) == list(STAGES[:-1])
        for stage, (records, parse) in handed.items():
            path = tmp / "out" / STAGE_TABLE[stage].file
            expected = read_stage_file(path, stage, cfg.stage_keys[stage], parse)
            assert records == expected, stage
            assert _types(records) == _types(expected), stage

    def test_a_file_not_written_in_the_run_is_decoded(self, workspace, reads):
        paths, cfg, tmp = workspace
        cfg = edited(cfg, "evaluation", "repeats", 3)
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        handed, decoded = reads
        # Structuralize's predecessor is up to date; aggregate and evaluate
        # take what the stage before them wrote.
        cfg = edited(cfg, "scoring", "threshold", 0.3)
        run_stage("all", cfg, tmp / "out")
        assert decoded == ["conceptualize"]
        # Evaluate alone reruns, in this call and in the next.
        cfg = edited(cfg, "evaluation", "top_k", 10)
        run_stage("all", cfg, tmp / "out")
        run_stage("evaluate", cfg, tmp / "out", force=True)
        assert decoded == ["conceptualize", *["aggregate", "structuralize"] * 2]


class TestAllWithoutInput:
    """Without an input path, ingest's inputs are the corpus files its
    manifest records."""

    def test_an_up_to_date_workspace_needs_no_input(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        report = run_stage("all", cfg, tmp / "out")
        assert report == {s: {"status": "up-to-date", "stage": s} for s in STAGES}

    def test_cli_all_without_input_exits_0(self, workspace, capsys):
        paths, _, tmp = workspace
        common = ["all", "--config", str(paths["config"]), "--output", str(tmp / "out")]
        assert cli_main([*common, "--input", str(paths["corpus"])]) == 0
        capsys.readouterr()
        assert cli_main(common) == 0
        statuses = {s: r["status"] for s, r in json.loads(capsys.readouterr().out).items()}
        assert statuses == dict.fromkeys(STAGES, "up-to-date")

    @pytest.mark.parametrize("change", ["edit", "delete"])
    def test_a_changed_corpus_is_named(self, workspace, change):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        if change == "edit":
            with open(paths["corpus"], "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"id": "m99", "text": "crews repair engines"}) + "\n")
        else:
            paths["corpus"].unlink()
        with pytest.raises(StageInputError) as excinfo:
            run_stage("all", cfg, tmp / "out")
        message = str(excinfo.value)
        assert message.startswith("ingest needs an --input corpus file")
        assert str(paths["corpus"]) in message

    NEEDS_INPUT = "ingest needs an --input corpus file"
    KEY_CHANGED = "; its key has changed: a 'corpus' config edit, or another format version"

    def without_input(self, cfg, out, force=False):
        with pytest.raises(StageInputError) as excinfo:
            run_stage("all", cfg, out, force=force)
        return str(excinfo.value)

    def test_a_corpus_edit_names_the_key(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        message = self.without_input(edited(cfg, "corpus", "max_tokens", 100), tmp / "out")
        assert message == self.NEEDS_INPUT + self.KEY_CHANGED

    def test_force_names_no_corpus(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert self.without_input(cfg, tmp / "out", force=True) == self.NEEDS_INPUT

    def test_a_missing_stage_file_names_no_corpus(self, workspace):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        (tmp / "out" / "expressions.jsonl").unlink()
        assert self.without_input(cfg, tmp / "out") == self.NEEDS_INPUT

    def test_another_format_names_the_key_not_its_corpus_name(self, workspace, monkeypatch):
        """A format-1 manifest named the corpus as --input gave it, relative
        to the cwd, under a key rooted on format version 1."""
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        manifest_path = tmp / "out" / "ingest.manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "FORMAT_VERSION", 1)
            manifest["config_hash"] = PipelineConfig.from_dict(cfg.to_dict()).stage_keys["ingest"]
        digest = hashlib.sha256(paths["corpus"].read_bytes()).hexdigest()
        manifest["inputs"] = {"corpus.jsonl": digest}
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert self.without_input(cfg, tmp / "out") == self.NEEDS_INPUT + self.KEY_CHANGED


class TestRelocatedWorkspace:
    """Manifests name each file, the corpus included, by its path relative
    to the output directory, so a workspace whose config names its files
    relatively stays up to date when it is copied, moved or named by another
    path, and so does a corpus that --input names another way."""

    UP_TO_DATE = {s: {"status": "up-to-date", "stage": s} for s in STAGES}

    @pytest.fixture()
    def relative(self, tmp_path, monkeypatch):
        (tmp_path / "a").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        build_workspace(Path("."))
        return PipelineConfig.from_dict(read_config("config.json")), tmp_path

    def test_a_copied_workspace_is_up_to_date(self, relative, monkeypatch):
        cfg, tmp = relative
        run_stage("all", cfg, "out", input_path="corpus.jsonl")
        shutil.copytree(tmp / "a", tmp / "b")
        monkeypatch.chdir(tmp / "b")
        report = run_stage("all", cfg, tmp / "b" / "out", input_path="corpus.jsonl")
        assert report == self.UP_TO_DATE
        assert run_stage("all", cfg, "out") == self.UP_TO_DATE

    @pytest.mark.parametrize("first", ["relative", "absolute"])
    def test_an_absolute_and_a_relative_name_are_one_workspace(self, relative, first):
        cfg, tmp = relative
        names = {"relative": Path("out"), "absolute": tmp / "a" / "out"}
        run_stage("all", cfg, names[first], input_path="corpus.jsonl")
        for name in (*names.values(), names[first]):
            assert run_stage("all", cfg, name, input_path="corpus.jsonl") == self.UP_TO_DATE
            assert run_stage("all", cfg, name) == self.UP_TO_DATE

    def test_a_symlinked_output_directory_is_up_to_date(self, relative):
        """relpath names files lexically, without resolving the link."""
        cfg, tmp = relative
        (tmp / "elsewhere" / "out").mkdir(parents=True)
        Path("out").symlink_to(tmp / "elsewhere" / "out")
        run_stage("all", cfg, "out", input_path="corpus.jsonl")
        assert run_stage("all", cfg, "out") == self.UP_TO_DATE

    @pytest.mark.parametrize("corpus_format", ["structured-records", "plain-lines"])
    @pytest.mark.parametrize("copied", [False, True], ids=["original", "copy"])
    @pytest.mark.parametrize("cwd", ["workspace", "other"])
    @pytest.mark.parametrize("spelling", ["relative", "absolute", "none"])
    def test_another_spelling_of_the_corpus_is_up_to_date(
        self, tmp_path, monkeypatch, spelling, cwd, copied, corpus_format
    ):
        """A workspace holds the corpus and the output; the config names the
        other files absolutely, outside it, so that every cwd reads them and
        both workspaces name them alike.  After `all` from inside the
        original with a relative --input, `all` with the corpus named
        relatively, absolutely or not at all, from inside the workspace or
        from elsewhere, is up to date and has what a fresh run writes."""
        shared = build_workspace(tmp_path / "shared")
        data = read_config(shared["config"])
        if corpus_format == "plain-lines":
            _plain_lines(data, shared)
        cfg = PipelineConfig.from_dict(data)
        (tmp_path / "a").mkdir()
        shutil.copy(shared["corpus"], tmp_path / "a")
        monkeypatch.chdir(tmp_path / "a")
        run_stage("all", cfg, "out", input_path=shared["corpus"].name)

        root = tmp_path / ("b" if copied else "a")
        if copied:
            shutil.copytree(tmp_path / "a", root)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(root if cwd == "workspace" else tmp_path / "elsewhere")
        corpus = root / shared["corpus"].name
        spelt = {"relative": os.path.relpath(corpus), "absolute": corpus, "none": None}[spelling]
        assert run_stage("all", cfg, os.path.relpath(root / "out"), spelt) == self.UP_TO_DATE
        report = run_stage("all", cfg, tmp_path / "fresh", corpus, force=True)
        assert report["evaluate"]["metrics"]["ari"] == 1.0
        for stage in STAGES:
            name = STAGE_TABLE[stage].file
            assert (root / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


class TestDigestTable:
    @pytest.fixture()
    def hashed(self, monkeypatch):
        calls = []
        original = pipeline._file_hash

        def counted(path):
            calls.append(str(path))
            return original(path)

        monkeypatch.setattr(pipeline, "_file_hash", counted)
        return calls

    @staticmethod
    def statuses(report):
        return {s: r.get("status") for s, r in report.items()}

    @pytest.mark.parametrize("tables", [False, True])
    def test_a_no_op_rerun_hashes_each_file_once(self, workspace, hashed, tables):
        paths, cfg, tmp = workspace
        if tables:
            data = cfg.to_dict()
            data["similarity"] = write_tables(tmp)
            cfg = PipelineConfig.from_dict(data)
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        hashed.clear()
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert set(self.statuses(report).values()) == {"up-to-date"}
        assert len(hashed) == len(set(hashed)) == (11 if tables else 9)
        if tables:
            assert {str(tmp / "lexicon.tsv"), str(tmp / "vectors.txt")} <= set(hashed)

    def test_a_no_op_rerun_probes_no_path(self, workspace, monkeypatch):
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        probed = []
        original = Path.exists

        def counted(path, *args, **kwargs):
            probed.append(str(path))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "exists", counted)
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert set(self.statuses(report).values()) == {"up-to-date"}
        assert probed == []

    def test_an_edit_between_calls_is_rehashed(self, workspace, hashed):
        paths, cfg, tmp = workspace
        # Cover the prompts of the edited demonstrations with completions of
        # other types, so that the edit changes every later stage's input.
        edited_pool = [{**d, "text": d["text"] + " again"} for d in DEMO_POOL]
        edited_demos = tmp / "edited-demos.jsonl"
        edited_demos.write_text(
            "".join(json.dumps(d, sort_keys=True) + "\n" for d in edited_pool), encoding="utf-8"
        )
        demos = sample_demonstrations(load_demonstrations(edited_demos), m=8, seed=cfg.seed)
        store = ReplayStore.load(paths["store"])
        for line in paths["corpus"].read_text(encoding="utf-8").splitlines():
            text = json.loads(line)["text"]
            completion = render_schema(SchemaCandidate.create(text.split()[0], ["actor", "place"]))
            store.put(build_prompt(demos, text), (completion,) * 3)
        store.save(paths["store"])

        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        paths["demos"].write_bytes(edited_demos.read_bytes())
        hashed.clear()
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert self.statuses(report) == {
            "ingest": "up-to-date", **dict.fromkeys(STAGES[1:])
        }
        assert str(paths["demos"]) in hashed
        manifest = json.loads((tmp / "out" / "conceptualize.manifest.json").read_text("utf-8"))
        digest = hashlib.sha256(paths["demos"].read_bytes()).hexdigest()
        assert manifest["inputs"][os.path.relpath(paths["demos"], tmp / "out")] == digest

    def test_a_rewritten_stage_file_is_rehashed(self, workspace):
        """Aggregate's check hashes the hand-edited schemas.jsonl; the rerun
        rewrites it, and evaluate and the manifest see the new bytes."""
        paths, cfg, tmp = workspace
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        schemas = tmp / "out" / "schemas.jsonl"
        written = schemas.read_bytes()
        schemas.write_bytes(written + b"\n")
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert self.statuses(report) == {**dict.fromkeys(STAGES, "up-to-date"), "aggregate": None}
        assert schemas.read_bytes() == written
        manifest = json.loads((tmp / "out" / "aggregate.manifest.json").read_text("utf-8"))
        assert manifest["outputs"] == {"schemas.jsonl": hashlib.sha256(written).hexdigest()}
        report = run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        assert set(self.statuses(report).values()) == {"up-to-date"}

    def test_record_mode_manifest_holds_the_saved_store(self, workspace, fake_endpoint):
        paths, cfg, tmp = workspace
        store = tmp / "recorded.jsonl"
        data = cfg.to_dict()
        data["generation"] = {"n": 2, "replay": str(store), "record": True,
                              "endpoint": fake_endpoint.url()}
        record_cfg = PipelineConfig.from_dict(data)
        run_stage("all", record_cfg, tmp / "out", input_path=paths["corpus"])
        manifest = json.loads((tmp / "out" / "conceptualize.manifest.json").read_text("utf-8"))
        assert (
            manifest["inputs"][os.path.relpath(store, tmp / "out")]
            == hashlib.sha256(store.read_bytes()).hexdigest()
        )
        report = run_stage("all", record_cfg, tmp / "out", input_path=paths["corpus"])
        assert set(self.statuses(report).values()) == {"up-to-date"}


class TestDeclaredFiles:
    """A stage's declared files are hashed before it runs, and a run forgets
    only the digests of the files a stage wrote."""

    @pytest.fixture()
    def tables(self, workspace):
        paths, cfg, tmp = workspace
        data = cfg.to_dict()
        data["similarity"] = write_tables(tmp)
        return paths, PipelineConfig.from_dict(data), tmp

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize(
        "stage, edited_file",
        [("conceptualize", "demos"), ("structuralize", "lexicon"), ("structuralize", "output")],
    )
    def test_an_input_edited_while_its_stage_runs_reruns_it(
        self, tables, monkeypatch, stage, edited_file, force
    ):
        """Its own output, too: the manifest records the bytes the stage
        wrote, and the next stage of the run takes those records."""
        paths, cfg, tmp = tables
        edited_path = {
            "demos": paths["demos"],
            "lexicon": tmp / "lexicon.tsv",
            "output": tmp / "out" / STAGE_TABLE[stage].file,
        }[edited_file]
        spec = STAGE_TABLE[stage]

        def run_then_edit(ctx):
            report = spec.run(ctx)
            # A blank line: the stage would read the same records from it.
            with open(edited_path, "a", encoding="utf-8") as handle:
                handle.write("\n")
            return report

        if force:
            run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        monkeypatch.setitem(STAGE_TABLE, stage, replace(spec, run=run_then_edit))
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"], force=force)
        monkeypatch.setitem(STAGE_TABLE, stage, spec)

        report = run_stage(stage, cfg, tmp / "out")
        assert report.get("status") is None
        manifest = json.loads((tmp / "out" / f"{stage}.manifest.json").read_text("utf-8"))
        digest = hashlib.sha256(edited_path.read_bytes()).hexdigest()
        recorded = manifest["outputs" if edited_file == "output" else "inputs"]
        assert recorded[os.path.relpath(edited_path, tmp / "out")] == digest
        assert run_stage(stage, cfg, tmp / "out") == {"status": "up-to-date", "stage": stage}
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        run_stage("all", cfg, tmp / "fresh", input_path=paths["corpus"], force=True)
        for name in (STAGE_TABLE[s].file for s in STAGES):
            assert (tmp / "out" / name).read_bytes() == (tmp / "fresh" / name).read_bytes(), name

    def test_a_threshold_edit_hashes_each_file_once(self, tables, monkeypatch):
        paths, cfg, tmp = tables
        run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        hashed = []
        original = pipeline._file_hash

        def counted(path):
            hashed.append(str(path))
            return original(path)

        monkeypatch.setattr(pipeline, "_file_hash", counted)
        report = run_stage(
            "all", edited(cfg, "scoring", "threshold", 0.3), tmp / "out", input_path=paths["corpus"]
        )
        rerun = [s for s, r in report.items() if r.get("status") != "up-to-date"]
        assert rerun == ["structuralize", "aggregate", "evaluate"]
        # A rewritten file is hashed before its stage runs, never after: its
        # digest is taken from the bytes written.
        files = {str(p) for p in (tmp / "lexicon.tsv", tmp / "vectors.txt")}
        files |= {str(paths[name]) for name in ("corpus", "demos", "store", "gold")}
        files |= {str(tmp / "out" / STAGE_TABLE[s].file) for s in STAGES}
        assert Counter(hashed) == dict.fromkeys(files, 1)


class TestCrashSafeWrites:
    def test_failed_stage_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "structured.jsonl"
        write_stage_file(path, "structuralize", "k1", [{"id": "a"}, {"id": "b"}])
        before = path.read_bytes()

        def records():
            yield {"id": "c"}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_stage_file(path, "structuralize", "k2", records())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["structured.jsonl"]

    def test_failed_manifest_write_keeps_the_previous_manifest(self, tmp_path):
        output = tmp_path / "expressions.jsonl"
        output.write_text("x\n", encoding="utf-8")
        _write_manifest(tmp_path, "ingest", "k1", [], [output], {"kept": 1}, 0.1, {})
        manifest = tmp_path / "ingest.manifest.json"
        before = manifest.read_bytes()
        with pytest.raises(TypeError):
            _write_manifest(tmp_path, "ingest", "k2", [], [output], {"kept": object()}, 0.1, {})
        assert manifest.read_bytes() == before
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["expressions.jsonl", "ingest.manifest.json"]


def _as_list(field):
    """The manifest with `field` recorded as a list of its paths."""

    def corrupt(manifest):
        return json.dumps({**manifest, field: list(manifest[field])}).encode("utf-8")

    return corrupt


def _null_and_deleted(manifest):
    """The manifest with its output's digest recorded as null, and the output
    deleted: a missing file never matches, not even a recorded null."""
    for path in manifest["outputs"]:
        Path(path).unlink()
    return json.dumps({**manifest, "outputs": dict.fromkeys(manifest["outputs"])}).encode("utf-8")


MALFORMED_MANIFESTS = {
    "list": lambda manifest: b"[]",
    "string": lambda manifest: b'"x"',
    "inputs-list": _as_list("inputs"),
    "outputs-list": _as_list("outputs"),
    "outputs-empty": lambda manifest: json.dumps({**manifest, "outputs": {}}).encode("utf-8"),
    "outputs-missing": lambda manifest: json.dumps(
        {k: v for k, v in manifest.items() if k != "outputs"}
    ).encode("utf-8"),
    "not-utf8": lambda manifest: b"\xff" + json.dumps(manifest).encode("utf-8"),
    "output-null-and-missing": _null_and_deleted,
}


class TestMalformedManifest:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_stage_reruns_and_matches_a_fresh_run(self, workspace, capsys, monkeypatch, case):
        paths, _, tmp = workspace
        common = ["all", "--config", str(paths["config"]), "--input", str(paths["corpus"])]
        assert cli_main([*common, "--output", str(tmp / "out")]) == 0
        monkeypatch.chdir(tmp / "out")  # where the manifest's file names start
        manifest = tmp / "out" / "aggregate.manifest.json"
        corrupt = MALFORMED_MANIFESTS[case]
        manifest.write_bytes(corrupt(json.loads(manifest.read_text(encoding="utf-8"))))
        capsys.readouterr()
        assert cli_main([*common, "--output", str(tmp / "out")]) == 0
        statuses = {s: r.get("status") for s, r in json.loads(capsys.readouterr().out).items()}
        assert statuses == {**dict.fromkeys(STAGES, "up-to-date"), "aggregate": None}
        assert json.loads(manifest.read_text(encoding="utf-8"))["stage"] == "aggregate"
        assert cli_main([*common, "--output", str(tmp / "fresh")]) == 0
        for stage in STAGES:
            name = STAGE_TABLE[stage].file
            assert (tmp / "out" / name).read_bytes() == (tmp / "fresh" / name).read_bytes(), name


class TestEmptyCorpus:
    def test_ingest_fails_with_discard_counts(self, workspace):
        paths, cfg, tmp = workspace
        corpus = tmp / "filtered.jsonl"
        corpus.write_text(
            "\n".join(
                [
                    json.dumps({"id": "n1", "text": "12 34 56"}),
                    json.dumps({"id": "n2", "text": "7 8 9 10"}),
                    json.dumps({"id": "e1", "text": "   "}),
                    "not json",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(StageInputError) as excinfo:
            run_stage("all", cfg, tmp / "out", input_path=corpus)
        message = str(excinfo.value)
        assert "4 read" in message
        assert "'numeric': 2" in message
        assert "'empty': 1" in message
        assert "'malformed': 1" in message
        assert not (tmp / "out" / "expressions.jsonl").exists()


def echo_prompt(received):
    """Completes any prompt by typing the target text's second token."""
    target = received.body["prompt"].splitlines()[-1].split(" → ")[0]
    word = target.split()[1]
    return 200, {"completions": [f"Type: {word}, Slots: actor; object"] * received.body["n"]}


@pytest.fixture()
def fake_endpoint():
    with LoopbackServer(echo_prompt) as server:
        yield server


class TestNothingConceptualized:
    """Conceptualize that keeps no expression fails with its drop counts, as
    ingest does, and record mode keeps the completions it was sent."""

    @pytest.mark.parametrize(
        "case, reply, counts",
        [
            ("replay-malformed", None, {"dropped": 30, "parse_failures": 90}),
            ("record-malformed", (200, {"completions": ["garbage"] * 2}), {"parse_failures": 60}),
            # A 2xx body without completions is a final transport failure.
            ("record-transport", (200, ["garbage"]), {"transport_failures": 30}),
        ],
    )
    def test_conceptualize_fails_naming_the_drops(self, workspace, case, reply, counts):
        paths, cfg, tmp = workspace
        if reply is None:
            store = ReplayStore.load(paths["store"])
            store.entries = dict.fromkeys(store.entries, ("garbage",) * 3)
            store.save(paths["store"])
            self.check(cfg, paths, tmp, counts)
            return
        with LoopbackServer(lambda received: reply) as server:
            store = tmp / "recorded.jsonl"
            data = cfg.to_dict()
            data["generation"] = {"n": 2, "replay": str(store), "record": True,
                                  "endpoint": server.url()}
            self.check(PipelineConfig.from_dict(data), paths, tmp, counts)
            assert len(server.received) == 30
        recorded = ReplayStore.load(store).entries
        assert len(recorded) == (30 if case == "record-malformed" else 0)

    @staticmethod
    def check(cfg, paths, tmp, counts):
        with pytest.raises(StageInputError) as excinfo:
            run_stage("all", cfg, tmp / "out", input_path=paths["corpus"])
        message = str(excinfo.value)
        assert message.startswith("no expression survived conceptualize: ")
        assert "'instances': 0" in message and "'dropped': 30" in message
        for name, count in counts.items():
            assert f"'{name}': {count}" in message
        assert sorted(p.name for p in (tmp / "out").iterdir()) == [
            "expressions.jsonl", "ingest.manifest.json"
        ]


class TestColdStart:
    def test_replay_run_loads_no_http_code(self, tmp_path):
        """A replay run of every stage, in a fresh interpreter, imports none of
        the HTTP client modules: they load only with a live client.  Nor does
        it import a third-party package other than numpy, the one declared
        dependency."""
        paths = build_workspace(tmp_path / "ws")
        script = (
            "import sys\n"
            "def packages(): return {m.partition('.')[0] for m in sys.modules}\n"
            "before = packages()\n"
            "from eventframes.pipeline import PipelineConfig, read_config, run_stage\n"
            "cfg = PipelineConfig.from_dict(read_config(sys.argv[1]))\n"
            "run_stage('all', cfg, sys.argv[2], input_path=sys.argv[3])\n"
            "print(sorted(m for m in ('requests', 'urllib3', 'http.client', 'ssl') if m in sys.modules))\n"
            "new = packages() - before - set(sys.stdlib_module_names)\n"
            "print(sorted(new - {'eventframes', 'numpy'}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", script, str(paths["config"]), str(tmp_path / "out"),
             str(paths["corpus"])],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == ["[]", "[]"]
        assert (tmp_path / "out" / "metrics.json").exists()


class TestRecordReplay:
    def make_config(self, workspace_paths, store, endpoint=None, record=False):
        data = json.loads(Path(workspace_paths["config"]).read_text(encoding="utf-8"))
        data["generation"] = {"n": 2, "replay": str(store), "record": record}
        if endpoint:
            data["generation"]["endpoint"] = endpoint
        return PipelineConfig.from_dict(data)

    def test_record_then_replay(self, workspace, fake_endpoint):
        paths, _, tmp = workspace
        store = tmp / "recorded.jsonl"

        record_cfg = self.make_config(paths, store, endpoint=fake_endpoint.url(), record=True)
        run_stage("ingest", record_cfg, tmp / "rec", input_path=paths["corpus"])
        run_stage("conceptualize", record_cfg, tmp / "rec")
        assert store.exists()
        first_calls = len(fake_endpoint.received)
        assert first_calls == 30

        # same-config rerun is served entirely from the store
        run_stage("conceptualize", record_cfg, tmp / "rec", force=True)
        assert len(fake_endpoint.received) == first_calls
        rerun_bytes = (tmp / "rec" / "conceptualized.jsonl").read_bytes()

        # replay-only config reproduces the same records (header differs by config hash)
        replay_cfg = self.make_config(paths, store)
        run_stage("ingest", replay_cfg, tmp / "rep", input_path=paths["corpus"])
        run_stage("conceptualize", replay_cfg, tmp / "rep")
        assert len(fake_endpoint.received) == first_calls
        replay_lines = (tmp / "rep" / "conceptualized.jsonl").read_bytes().splitlines()[1:]
        assert rerun_bytes.splitlines()[1:] == replay_lines

    def test_endpoint_and_record_flags(self, workspace, fake_endpoint):
        paths, _, tmp = workspace
        store = tmp / "recorded.jsonl"
        common = ["--config", str(paths["config"]), "--output", str(tmp / "rec")]
        assert cli_main(["ingest", *common, "--input", str(paths["corpus"])]) == 0
        flags = ["--endpoint", fake_endpoint.url(), "--record", "--replay", str(store)]
        assert cli_main(["conceptualize", *common, *flags]) == 0
        assert len(fake_endpoint.received) == 30
        assert len(ReplayStore.load(store).entries) == 30


def _set(section, key, value):
    def edit(data, paths):
        data.setdefault(section, {})[key] = value

    return edit


def _overwrite(name, text):
    def edit(data, paths):
        paths[name].write_text(text, encoding="utf-8")

    return edit


def _add_unrecorded_line(data, paths):
    with open(paths["corpus"], "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "m99", "text": "crews repair engines"}) + "\n")


def _delete_corpus(data, paths):
    paths["corpus"].unlink()


def _delete(name):
    def edit(data, paths):
        paths[name].unlink()

    return edit


def _repeat_first_gold_id(data, paths):
    with open(paths["gold"], "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": planted_mentions()[0][0], "type": "other"}) + "\n")


def _record_without_endpoint(data, paths):
    data["generation"]["record"] = True


def _add_unknown_gold_mention(data, paths):
    with open(paths["gold"], "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "nope", "type": "attack"}) + "\n")


def _corpus_directory(data, paths):
    paths["corpus"].unlink()
    paths["corpus"].mkdir()


def _output_file(data, paths):
    paths["out"] = paths["config"].parent.parent / "out"
    paths["out"].write_text("", encoding="utf-8")


def _similarity(**section):
    def edit(data, paths):
        data["similarity"] = section

    return edit


def _lexicon_table(text):
    def edit(data, paths):
        paths["lexicon"] = paths["config"].parent / "synsets.tsv"
        paths["lexicon"].write_text(text, encoding="utf-8")
        data["similarity"] = {"backends": [{"kind": "lexicon", "path": str(paths["lexicon"])}]}

    return edit


def _vector_table(text):
    def edit(data, paths):
        paths["vectors"] = paths["config"].parent / "vectors.txt"
        paths["vectors"].write_text(text, encoding="utf-8")
        data["similarity"] = {"backends": [{"kind": "embedding", "path": str(paths["vectors"])}]}

    return edit


def _missing_vector_table(data, paths):
    _vector_table("a 1 2\n")(data, paths)
    paths["vectors"].unlink()


CLI_ERRORS = {
    # case: (edit of the config data and workspace files, start of the message
    # after "error: ", whether the config is rejected before any stage runs)
    "bad-language-mode": (
        _set("corpus", "language_mode", "bogus"),
        "bad config section 'corpus': unknown language_mode: 'bogus'",
        True,
    ),
    "bad-format": (
        _set("corpus", "format", "xml"),
        "bad config section 'corpus': unknown corpus format: 'xml'",
        True,
    ),
    "n-zero": (
        _set("generation", "n", 0),
        "bad config section 'generation': n must be >= 1, got 0",
        True,
    ),
    "workers-zero": (
        _set("generation", "workers", 0),
        "bad config section 'generation': workers must be >= 1, got 0",
        True,
    ),
    "top-k-zero": (
        _set("evaluation", "top_k", 0),
        "bad config section 'evaluation': top_k and repeats must be >= 1",
        True,
    ),
    "m-over-pool": (
        _set("demonstrations", "m", 50),
        "demonstration pool has 10 entries but m=50 were requested",
        False,
    ),
    "missing-corpus": (_delete_corpus, "missing input file for stage 'ingest': {corpus}", False),
    "missing-demos": (
        _delete("demos"), "missing input file for stage 'conceptualize': {demos}", False
    ),
    "missing-gold": (_delete("gold"), "missing input file for stage 'evaluate': {gold}", False),
    "missing-replay": (
        _delete("store"), "missing input file for stage 'conceptualize': {store}", False
    ),
    "no-demonstrations-path": (
        _set("demonstrations", "path", None),
        "conceptualize needs a demonstrations path in the config",
        False,
    ),
    "missing-vectors": (
        _missing_vector_table,
        "missing input file for stage 'structuralize': {vectors}",
        False,
    ),
    "replay-miss": (_add_unrecorded_line, "replay miss for prompt hash ", False),
    "malformed-store": (_overwrite("store", "{}\n"), "{store}:1: bad replay entry", False),
    "malformed-demos": (_overwrite("demos", "[]\n"), "{demos}:1: bad demonstration", False),
    # A slot holding ';' would enter the prompt as two slots.
    "semicolon-slot-demos": (
        _overwrite("demos", '{"text": "Bombs went off", "type": "attack", "slots": ["a; b"]}\n'),
        "{demos}:1: bad demonstration record: candidate 'Type: attack, Slots: a; b': "
        "a slot holds ';'",
        False,
    ),
    "malformed-gold": (_overwrite("gold", "{}\n"), "{gold}:1: bad gold record", False),
    "malformed-vectors": (_vector_table("a 1 2\nb 1 x\n"), "{vectors}:2: could not convert", False),
    # Loaded, these tables would score every pair nan, or every pair lexically.
    "non-finite-vectors": (
        _vector_table("fire 1.0 0.5\nattack nan 0.2\nbomb inf 1.0\n"),
        "{vectors}:2: vector of 'attack' has a non-finite component",
        False,
    ),
    "dimensionless-vectors": (
        _vector_table("fire\nattack\n"),
        "{vectors}:1: token 'fire' has no vector components",
        False,
    ),
    "empty-vectors": (_vector_table("\n"), "{vectors}: no vectors", False),
    "empty-lexicon": (_lexicon_table(" \n"), "{lexicon}: no synonym sets", False),
    "gold-unknown-id": (
        _add_unknown_gold_mention,
        "gold file {gold}: assignment does not cover mention 'nope'",
        False,
    ),
    "empty-gold": (_overwrite("gold", ""), "gold file {gold}: no mentions retained", False),
    "repeated-gold-id": (
        _repeat_first_gold_id,
        f"{{gold}}:{len(planted_mentions()) + 1}: id 'm00' is already used on line 1",
        False,
    ),
    "record-without-endpoint": (
        _record_without_endpoint,
        "record mode needs generation.endpoint (or --endpoint)",
        False,
    ),
    "input-directory": (_corpus_directory, "[Errno 21] Is a directory: '{corpus}'", False),
    "output-file": (_output_file, "[Errno 17] File exists: '{out}'", False),
    "weights-misaligned": (
        _similarity(backends=[{"kind": "lexical"}], weights=[0.5, 0.5]),
        "bad config section 'similarity': weights and backends must align",
        True,
    ),
    "unknown-backend": (
        _similarity(backends=[{"kind": "bogus"}]),
        "bad config section 'similarity': unknown similarity backend kind: 'bogus'",
        True,
    ),
    "unknown-backend-key": (
        _similarity(backends=[{"kind": "lexical", "pth": "x"}]),
        "bad config section 'similarity': unknown keys in lexical backend: ['pth']",
        True,
    ),
    "weights-all-zero": (
        _similarity(backends=[{"kind": "lexical"}], weights=[0.0]),
        "bad config section 'similarity': weights must not all be zero",
        True,
    ),
    "lexicon-without-path": (
        _similarity(backends=[{"kind": "lexicon"}]),
        "bad config section 'similarity': lexicon backend requires a 'path'",
        True,
    ),
    "embedding-without-path-or-url": (
        _similarity(backends=[{"kind": "embedding"}]),
        "bad config section 'similarity': similarity.backends[0]: an embedding backend takes "
        "exactly one of 'path' and 'url'",
        True,
    ),
    # The table at `path` would be neither read nor a manifest input.  The url
    # is a loopback port, so code that accepted the entry fails on this machine.
    "embedding-path-and-url": (
        _similarity(
            backends=[{"kind": "lexical"},
                      {"kind": "embedding", "path": "v.txt", "url": "http://127.0.0.1:9/v"}]
        ),
        "bad config section 'similarity': similarity.backends[1]: an embedding backend takes "
        "exactly one of 'path' and 'url'",
        True,
    ),
    # Python's json reads NaN; kept, it would drop every slot and still score.
    "nan-threshold": (
        _set("scoring", "threshold", float("nan")),
        "scoring.threshold must be a number, got nan",
        True,
    ),
    # Ignored, it would still change aggregate's stage key.
    "prune-tau-without-absolute": (
        _set("graph", "prune_tau", 0.5),
        "bad config section 'graph': prune_tau is given with absolute pruning, and only with it",
        True,
    ),
}


def _without(key):
    return lambda record: json.dumps({k: v for k, v in record.items() if k != key})


def _with(**fields):
    return lambda record: json.dumps({**record, **fields})


# A stage file's last record, edited, and the reason the next stage reports.
CORRUPT_RECORDS = {
    "not-json": ("ingest", lambda record: "{broken", "Expecting property name"),
    "ingest-no-text": ("ingest", _without("text"), "no 'text' field"),
    "no-candidates": ("conceptualize", _with(candidates=[]), "no candidates"),
    "string-slots": (
        "conceptualize",
        _with(candidates=[{"type": "attack", "slots": "ab"}]),
        "slots must be a list (each item a string), got 'ab'",
    ),
    # Records that conceptualize never writes: a candidate that
    # SchemaCandidate.create does not give back unchanged.
    "empty-type": (
        "conceptualize",
        _with(candidates=[{"type": "", "slots": ["x"]}]),
        "candidate 'Type: , Slots: x': event type must be non-empty after normalization",
    ),
    "unnormalized-type": (
        "conceptualize",
        _with(candidates=[{"type": "Attack ", "slots": ["x"]}]),
        "candidate 'Type: Attack , Slots: x' is not canonical: 'Type: attack, Slots: x'",
    ),
    "empty-slot": (
        "conceptualize",
        _with(candidates=[{"type": "attack", "slots": ["x", ""]}]),
        "candidate 'Type: attack, Slots: x; ' is not canonical: 'Type: attack, Slots: x'",
    ),
    "unnormalized-slot": (
        "conceptualize",
        _with(candidates=[{"type": "attack", "slots": ["Bad Slot", "x"]}]),
        "candidate 'Type: attack, Slots: Bad Slot; x' is not canonical: "
        "'Type: attack, Slots: bad slot; x'",
    ),
    "repeated-slot": (
        "conceptualize",
        _with(candidates=[{"type": "attack", "slots": ["x", "y", "x"]}]),
        "candidate 'Type: attack, Slots: x; y; x' is not canonical: 'Type: attack, Slots: x; y'",
    ),
    "negative-parse-failures": (
        "conceptualize", _with(parse_failures=-4), "parse_failures must be >= 0, got -4"
    ),
    "structured-no-slots": ("structuralize", _without("slots"), "no 'slots' field"),
    "string-freq": (
        "structuralize",
        _with(slots=[{"name": "actor", "freq": "two", "salience": 1.0, "reliability": 1.0,
                      "consistency": 1.0, "score": 1.0}]),
        "freq must be an integer, got 'two'",
    ),
    "nan-type-consistency": (
        "structuralize",
        _with(type_consistency=float("nan")),
        "type_consistency must be a number, got nan",
    ),
    "no-members": ("aggregate", _without("members"), "no 'members' field"),
}


# A stage file rewritten from its lines, and the error the next stage reports.
STAGE_FILE_ERRORS = {
    "other-format-version": (
        "ingest",
        lambda lines: [
            json.dumps({**json.loads(lines[0]), "format_version": FORMAT_VERSION + 1}), *lines[1:]
        ],
        f"{{path}} has format_version {FORMAT_VERSION + 1}, not {FORMAT_VERSION}; "
        "rerun the 'ingest' stage",
    ),
    "empty": ("ingest", lambda lines: [], "{path} is empty; rerun the 'ingest' stage"),
    "header-only": (
        "structuralize", lambda lines: lines[:1], "no structured instances to aggregate"
    ),
    # Louvain needs distinct node ids.
    "repeated-id": (
        "structuralize",
        lambda lines: [*lines, lines[1]],
        "{path}: id 'm00' is on two records",
    ),
}


class TestCli:
    @pytest.mark.parametrize("case", sorted(CLI_ERRORS))
    def test_error_is_one_line_and_exit_2(self, workspace, capsys, case):
        edit, expected, before_work = CLI_ERRORS[case]
        paths, _, tmp = workspace
        data = json.loads(paths["config"].read_text(encoding="utf-8"))
        edit(data, paths)
        config = tmp / "edited.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = tmp / "out"
        code = cli_main(
            ["all", "--config", str(config), "--input", str(paths["corpus"]), "--output", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        assert errors[0].startswith("error: " + expected.format(**paths))
        assert out.exists() is not before_work

    def test_config_directory_is_one_error_line(self, workspace, capsys):
        paths, _, tmp = workspace
        out = tmp / "out"
        code = cli_main(
            ["all", "--config", str(tmp), "--input", str(paths["corpus"]), "--output", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: [Errno 21] Is a directory: '{tmp}'\n"
        assert not out.exists()

    def test_all_stage_end_to_end(self, workspace, capsys):
        paths, _, tmp = workspace
        code = cli_main(
            [
                "all",
                "--config", str(paths["config"]),
                "--input", str(paths["corpus"]),
                "--output", str(tmp / "cliout"),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["aggregate"]["clusters"] == 3
        assert (tmp / "cliout" / "schemas.jsonl").exists()

    def test_threshold_override_changes_results(self, workspace, capsys):
        paths, _, tmp = workspace
        code = cli_main(
            [
                "all",
                "--config", str(paths["config"]),
                "--input", str(paths["corpus"]),
                "--output", str(tmp / "strict"),
                "--threshold", "9.9",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structuralize"]["slots_kept"] == 0
        assert report["structuralize"]["type_only_instances"] == 30

    def test_seed_override_lands_in_config_hash(self, workspace, capsys):
        # ingest does not read the seed; conceptualize (demonstration sampling)
        # does, so the replay store also gets the prompts of seed 777's demos
        paths, cfg, tmp = workspace
        cover_seed(paths, tmp, 777)
        for stage in ("ingest", "conceptualize"):
            code = cli_main(
                [
                    stage,
                    "--config", str(paths["config"]),
                    "--input", str(paths["corpus"]),
                    "--output", str(tmp / "seeded"),
                    "--seed", "777",
                ]
            )
            assert code == 0
        header = json.loads(
            (tmp / "seeded" / "conceptualized.jsonl").read_text(encoding="utf-8").splitlines()[0]
        )
        assert header["config_hash"] != cfg.stage_keys["conceptualize"]
        seeded = PipelineConfig.from_dict({**cfg.to_dict(), "seed": 777})
        assert header["config_hash"] == seeded.stage_keys["conceptualize"]

    def test_documented_per_stage_sequence(self, workspace, capsys):
        # README's per-stage commands: the transport flags go to
        # conceptualize alone, and the later stages accept its output.
        paths, cfg, tmp = workspace
        data = cfg.to_dict()
        data["generation"]["replay"] = None
        config = tmp / "no-replay.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        common = ["--config", str(config), "--output", str(tmp / "staged")]
        assert cli_main(["ingest", *common, "--input", str(paths["corpus"])]) == 0
        assert cli_main(
            ["conceptualize", *common, "--replay", str(paths["store"]), "--workers", "2"]
        ) == 0
        for stage in ("structuralize", "aggregate", "evaluate"):
            assert cli_main([stage, *common]) == 0, capsys.readouterr().err
        capsys.readouterr()

        rerun = run_stage("all", cfg, tmp / "staged", input_path=paths["corpus"])
        assert {s: r["status"] for s, r in rerun.items()} == dict.fromkeys(STAGES, "up-to-date")
        run_stage("all", cfg, tmp / "fresh", input_path=paths["corpus"], force=True)
        for stage in STAGES:
            name = STAGE_TABLE[stage].file
            assert (tmp / "staged" / name).read_bytes() == (tmp / "fresh" / name).read_bytes(), name

    @pytest.mark.parametrize("case", sorted(CORRUPT_RECORDS))
    def test_corrupt_stage_file_is_reported(self, workspace, capsys, case):
        paths, _, tmp = workspace
        stage, edit, reason = CORRUPT_RECORDS[case]
        common = ["--config", str(paths["config"]), "--output", str(tmp / "corrupt")]
        assert cli_main(["all", "--input", str(paths["corpus"]), *common]) == 0
        capsys.readouterr()
        path = tmp / "corrupt" / STAGE_TABLE[stage].file
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        lines[-1] = edit(json.loads(lines[-1]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli_main([STAGES[STAGES.index(stage) + 1], "--force", *common])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"error: {path}:{len(lines)}: bad {stage} record: {reason}")
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("case", sorted(STAGE_FILE_ERRORS))
    def test_unusable_stage_file_is_one_error(self, workspace, capsys, case):
        paths, _, tmp = workspace
        stage, edit, expected = STAGE_FILE_ERRORS[case]
        common = ["--config", str(paths["config"]), "--output", str(tmp / "unusable")]
        assert cli_main(["all", "--input", str(paths["corpus"]), *common]) == 0
        capsys.readouterr()
        path = tmp / "unusable" / STAGE_TABLE[stage].file
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = cli_main([STAGES[STAGES.index(stage) + 1], "--force", *common])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: " + expected.format(path=path)]

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"[]", "the config must be a JSON object, got list"),
            (b"null", "the config must be a JSON object, got NoneType"),
            (b"5", "the config must be a JSON object, got int"),
            (
                b'{"seed": 7, "corpus": {"language_mode": "caf\xe9"}}',
                "config file {config} is not valid JSON: 'utf-8' codec",
            ),
        ],
    )
    @pytest.mark.parametrize("flags", [[], ["--seed", "3", "--workers", "2"]])
    def test_unusable_config_file_is_one_error_before_any_stage(
        self, workspace, capsys, content, expected, flags
    ):
        paths, _, tmp = workspace
        config = tmp / "bad.json"
        config.write_bytes(content)
        out = tmp / "out"
        code = cli_main(
            ["all", "--config", str(config), "--input", str(paths["corpus"]),
             "--output", str(out), *flags]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: " + expected.format(config=config))
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("generation", "n", 2.5),
            ("generation", "n", True),
            ("generation", "replay", 5),
            ("generation", "max_new_tokens", 2.5),
            ("generation", "workers", 1.5),
            ("scoring", "threshold", "0.3"),
            pytest.param("graph", "lambda3", 10**400, id="graph-lambda3-beyond-float-range"),
            ("scoring", "max_iterations", 300.0),
            ("scoring", "weighted_cooccurrence", "yes"),
            ("demonstrations", "path", 5),
            ("demonstrations", "m", 8.0),
            ("evaluation", "gold", 5),
            ("evaluation", "top_k", 15.0),
            ("evaluation", "repeats", 2.0),
            ("similarity", "weights", ["0.5", "0.5"]),
            ("similarity", "backends", [{"kind": "lexical"}, {"kind": "lexicon", "path": 5}]),
            ("similarity", "backends", [{"kind": "embedding", "url": 5}]),
            (None, "seed", True),
        ],
    )
    def test_value_of_the_wrong_json_type_is_one_error_before_any_stage(
        self, workspace, capsys, section, key, value
    ):
        paths, _, tmp = workspace
        data = json.loads(paths["config"].read_text(encoding="utf-8"))
        if section is None:
            data[key] = value
        else:
            data.setdefault(section, {})[key] = value
        if key == "weights":
            data["similarity"]["backends"] = [{"kind": "lexical"}, {"kind": "lexical"}]
        config = tmp / "mistyped.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = tmp / "out"
        code = cli_main(
            ["all", "--config", str(config), "--input", str(paths["corpus"]),
             "--output", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ")
        assert (key if section is None else f"{section}.{key}") in err
        assert not out.exists()

    def test_an_integer_for_a_float_field_is_accepted(self):
        cfg = PipelineConfig.from_dict({"graph": {"lambda3": 3}, "scoring": {"threshold": 0}})
        assert (cfg.graph.lambda3, cfg.scoring.threshold) == (3, 0)
        # It is read as that float: `"lambda3": 3` is the default config.
        assert type(cfg.graph.lambda3) is type(cfg.scoring.threshold) is float
        assert PipelineConfig.from_dict({"graph": {"lambda3": 3}}).stage_keys == (
            PipelineConfig().stage_keys
        )

    def test_repeated_expression_id_is_one_error_at_ingest(self, workspace, capsys):
        paths, _, tmp = workspace
        lines = paths["corpus"].read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        lines.append(json.dumps({"id": first["id"], "text": "crews repair engines"}))
        paths["corpus"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp / "out"
        code = cli_main(
            ["all", "--config", str(paths["config"]), "--input", str(paths["corpus"]),
             "--output", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            f"error: {paths['corpus']}:{len(lines)}: id {first['id']!r} is already used on line 1"
        ]
        assert list(out.iterdir()) == []

    def test_override_into_a_section_that_is_not_an_object(self, workspace, capsys):
        paths, _, tmp = workspace
        config = tmp / "section.json"
        config.write_text(json.dumps({"generation": 5}), encoding="utf-8")
        out = tmp / "out"
        code = cli_main(["all", "--config", str(config), "--output", str(out), "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: config section 'generation' must be an object"]
        assert not out.exists()

    @pytest.mark.parametrize("name", ["corpus", "demos", "store", "gold", "lexicon"])
    def test_input_file_that_is_not_utf8_is_one_error_naming_it(self, workspace, capsys, name):
        paths, _, tmp = workspace
        data = json.loads(paths["config"].read_text(encoding="utf-8"))
        paths["lexicon"] = tmp / "lexicon.tsv"
        paths["lexicon"].write_text("victim\tcasualty\n", encoding="utf-8")
        data["similarity"] = {
            "backends": [{"kind": "lexical"}, {"kind": "lexicon", "path": str(paths["lexicon"])}]
        }
        config = tmp / "tables.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        with open(paths[name], "ab") as handle:
            handle.write('{"text": "caf\xe9"}\n'.encode("latin-1"))
        code = cli_main(
            ["all", "--config", str(config), "--input", str(paths["corpus"]),
             "--output", str(tmp / "out")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {paths[name]}: not UTF-8 text: 'utf-8' codec")

    def test_stage_file_that_is_not_utf8_is_reported(self, workspace, capsys):
        paths, _, tmp = workspace
        common = ["--config", str(paths["config"]), "--output", str(tmp / "latin")]
        assert cli_main(["ingest", "--input", str(paths["corpus"]), *common]) == 0
        capsys.readouterr()
        expressions = tmp / "latin" / "expressions.jsonl"
        with open(expressions, "ab") as handle:
            handle.write('{"id": "x", "text": "caf\xe9", "source": "s"}\n'.encode("latin-1"))
        code = cli_main(["conceptualize", "--force", *common])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"error: {expressions}: not UTF-8 text: 'utf-8' codec")
        assert len(err.splitlines()) == 1, err

    def test_embedding_service_outage_fails_the_stage(self, workspace, capsys, monkeypatch):
        def refused(backend, texts):
            raise ConnectionError("connection refused")

        monkeypatch.setattr(EmbeddingServiceBackend, "_http_fetch", refused)
        paths, _, tmp = workspace
        data = json.loads(paths["config"].read_text(encoding="utf-8"))
        data["similarity"] = {"backends": [{"kind": "embedding", "url": "http://vectors"}]}
        config = tmp / "service.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        code = cli_main(
            ["all", "--config", str(config), "--input", str(paths["corpus"]),
             "--output", str(tmp / "outage")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: embedding service http://vectors failed: connection refused"]
        assert not (tmp / "outage" / "structured.jsonl").exists()

    def test_missing_input_is_reported(self, workspace, capsys):
        paths, _, tmp = workspace
        code = cli_main(
            ["structuralize", "--config", str(paths["config"]), "--output", str(tmp / "none")]
        )
        assert code == 2
        assert "conceptualize" in capsys.readouterr().err

    def test_text_report(self, workspace, capsys):
        paths, _, tmp = workspace
        cli_main(
            [
                "all",
                "--config", str(paths["config"]),
                "--input", str(paths["corpus"]),
                "--output", str(tmp / "text"),
                "--report", "text",
            ]
        )
        out = capsys.readouterr().out
        assert "ARI" in out
        assert "1.0000" in out
