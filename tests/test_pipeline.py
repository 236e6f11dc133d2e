import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from eventframes import pipeline
from eventframes.pipeline import (
    STAGE_TABLE,
    STAGES,
    ConfigError,
    PipelineConfig,
    StageInputError,
    _write_manifest,
    build_client,
    build_ensemble,
    read_stage_file,
    run_stage,
    write_stage_file,
)
from eventframes.cli import main as cli_main
from eventframes.endpoint import ReplayStore
from eventframes.similarity import EmbeddingServiceBackend

from synthetic import build_workspace, planted_mentions


@pytest.fixture()
def workspace(tmp_path):
    paths = build_workspace(tmp_path / "ws")
    cfg = PipelineConfig.from_file(paths["config"])
    return paths, cfg, tmp_path


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

    def test_hash_changes_with_config(self):
        base = PipelineConfig()
        changed = PipelineConfig.from_dict({"seed": 4321})
        assert base.stage_keys != changed.stage_keys


class TestBuildHelpers:
    def test_client_requires_endpoint_or_replay(self):
        with pytest.raises(ConfigError):
            build_client(PipelineConfig())

    def test_replay_store_must_exist(self, tmp_path):
        cfg = PipelineConfig.from_dict({"generation": {"replay": str(tmp_path / "nope.jsonl")}})
        with pytest.raises(StageInputError):
            build_client(cfg)

    def test_record_requires_store_path(self):
        cfg = PipelineConfig.from_dict(
            {"generation": {"endpoint": "http://e", "record": True}}
        )
        with pytest.raises(ConfigError):
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
            "format_version": 1,
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
        assert str(paths["corpus"]) in manifest["inputs"]
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
            assert (str(lexicon) in manifest["inputs"]) is reads_table, stage

        run_stage("all", cfg, tmp / "fresh", input_path=paths["corpus"], force=True)
        for stage_file in ("structured.jsonl", "schemas.jsonl", "metrics.json"):
            fresh = (tmp / "fresh" / stage_file).read_bytes()
            assert (tmp / "out" / stage_file).read_bytes() == fresh, stage_file

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
        _write_manifest(tmp_path, "ingest", "k1", [], [output], {"kept": 1}, 0.1)
        manifest = tmp_path / "ingest.manifest.json"
        before = manifest.read_bytes()
        with pytest.raises(TypeError):
            _write_manifest(tmp_path, "ingest", "k2", [], [output], {"kept": object()}, 0.1)
        assert manifest.read_bytes() == before
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["expressions.jsonl", "ingest.manifest.json"]


def _as_list(field):
    """The manifest with `field` recorded as a list of its paths."""

    def corrupt(manifest):
        return json.dumps({**manifest, field: list(manifest[field])}).encode("utf-8")

    return corrupt


MALFORMED_MANIFESTS = {
    "list": lambda manifest: b"[]",
    "string": lambda manifest: b'"x"',
    "inputs-list": _as_list("inputs"),
    "outputs-list": _as_list("outputs"),
    "not-utf8": lambda manifest: b"\xff" + json.dumps(manifest).encode("utf-8"),
}


class TestMalformedManifest:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_stage_reruns_and_matches_a_fresh_run(self, workspace, capsys, case):
        paths, _, tmp = workspace
        common = ["all", "--config", str(paths["config"]), "--input", str(paths["corpus"])]
        assert cli_main([*common, "--output", str(tmp / "out")]) == 0
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


class PromptEchoHandler(BaseHTTPRequestHandler):
    """Completes any prompt by typing the target text's second token."""

    calls = 0

    def do_POST(self):
        type(self).calls += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        target = body["prompt"].splitlines()[-1].split(" → ")[0]
        word = target.split()[1]
        completions = [f"Type: {word}, Slots: actor; object"] * body["n"]
        payload = json.dumps({"completions": completions}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def fake_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), PromptEchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    PromptEchoHandler.calls = 0
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    thread.join(timeout=5)


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

        record_cfg = self.make_config(paths, store, endpoint=fake_endpoint, record=True)
        run_stage("ingest", record_cfg, tmp / "rec", input_path=paths["corpus"])
        run_stage("conceptualize", record_cfg, tmp / "rec")
        assert store.exists()
        first_calls = PromptEchoHandler.calls
        assert first_calls == 30

        # same-config rerun is served entirely from the store
        run_stage("conceptualize", record_cfg, tmp / "rec", force=True)
        assert PromptEchoHandler.calls == first_calls
        rerun_bytes = (tmp / "rec" / "conceptualized.jsonl").read_bytes()

        # replay-only config reproduces the same records (header differs by config hash)
        replay_cfg = self.make_config(paths, store)
        run_stage("ingest", replay_cfg, tmp / "rep", input_path=paths["corpus"])
        run_stage("conceptualize", replay_cfg, tmp / "rep")
        assert PromptEchoHandler.calls == first_calls
        replay_lines = (tmp / "rep" / "conceptualized.jsonl").read_bytes().splitlines()[1:]
        assert rerun_bytes.splitlines()[1:] == replay_lines


def _set(section, key, value):
    def edit(data, paths):
        data[section][key] = value

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


def _similarity(**section):
    def edit(data, paths):
        data["similarity"] = section

    return edit


def _malformed_vectors(data, paths):
    paths["vectors"] = paths["config"].parent / "vectors.txt"
    paths["vectors"].write_text("a 1 2\nb 1 x\n", encoding="utf-8")
    data["similarity"] = {"backends": [{"kind": "embedding", "path": str(paths["vectors"])}]}


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
    "replay-miss": (_add_unrecorded_line, "replay miss for prompt hash ", False),
    "malformed-store": (_overwrite("store", "{}\n"), "{store}:1: bad replay entry", False),
    "malformed-demos": (_overwrite("demos", "[]\n"), "{demos}:1: bad demonstration", False),
    "malformed-gold": (_overwrite("gold", "{}\n"), "{gold}:1: bad gold record", False),
    "malformed-vectors": (_malformed_vectors, "{vectors}:2: could not convert", False),
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

    def test_corrupt_stage_file_is_reported(self, workspace, capsys):
        paths, _, tmp = workspace
        common = ["--config", str(paths["config"]), "--output", str(tmp / "corrupt")]
        assert cli_main(["ingest", "--input", str(paths["corpus"]), *common]) == 0
        capsys.readouterr()
        expressions = tmp / "corrupt" / "expressions.jsonl"
        lines = expressions.read_text(encoding="utf-8").count("\n")
        with open(expressions, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        code = cli_main(["conceptualize", "--force", *common])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"error: {expressions}:{lines + 1}: not valid JSON")
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
