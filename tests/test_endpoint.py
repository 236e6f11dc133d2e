import json

import pytest

from eventframes.endpoint import (
    GenerationRequest,
    GenerationResponse,
    HttpGenerationClient,
    OpenAICompletionsClient,
    RecordingClient,
    ReplayClient,
    ReplayMissError,
    ReplayStore,
    TransportError,
    prompt_hash,
)

from helpers import StaticClient


class TestGenerationRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", n=0)
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", temperature=-0.1)


class TestReplayStore:
    def test_put_get_roundtrip(self):
        store = ReplayStore()
        store.put("some prompt", ("Type: a, Slots: x",))
        assert store.get("some prompt") == ("Type: a, Slots: x",)

    def test_miss_error_carries_hash_and_head(self):
        store = ReplayStore()
        prompt = "x" * 200
        with pytest.raises(ReplayMissError) as excinfo:
            store.get(prompt)
        assert excinfo.value.prompt_hash == prompt_hash(prompt)
        assert excinfo.value.prompt_head == "x" * 80
        assert prompt_hash(prompt) in str(excinfo.value)

    def test_save_load_roundtrip(self, tmp_path):
        store = ReplayStore()
        store.put("prompt one", ("c1", "c2"))
        store.put("prompt two", ("c3",))
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = ReplayStore.load(path)
        assert loaded.entries == store.entries

    def test_entry_order_is_irrelevant(self, tmp_path):
        store = ReplayStore()
        store.put("prompt one", ("c1",))
        store.put("prompt two", ("c2",))
        path = tmp_path / "store.jsonl"
        store.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
        assert ReplayStore.load(shuffled).entries == store.entries

    def test_failed_save_keeps_the_previous_store(self, tmp_path):
        store = ReplayStore()
        store.put("prompt one", ("c1",))
        path = tmp_path / "store.jsonl"
        store.save(path)
        before = path.read_bytes()
        store.entries["~ sorts last"] = (object(),)  # not JSON: the save raises midway
        with pytest.raises(TypeError):
            store.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]

    def test_empty_store_misses_immediately(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        client = ReplayClient.from_file(path)
        with pytest.raises(ReplayMissError):
            client.generate(GenerationRequest(prompt="anything"))


class TestRecordingClient:
    def test_record_then_replay_identical(self, tmp_path):
        live = StaticClient(table={}, default=["Type: t, Slots: a", "Type: t, Slots: b"])
        path = tmp_path / "store.jsonl"
        with RecordingClient.at(live, path) as recorder:
            recorded = recorder.generate(GenerationRequest(prompt="p", n=2))
        replayed = ReplayClient.from_file(path).generate(GenerationRequest(prompt="p", n=2))
        assert replayed == recorded

    def test_read_through_cache(self, tmp_path):
        calls = []

        class CountingClient:
            def generate(self, request):
                calls.append(request.prompt)
                return GenerationResponse(("only",))

        recorder = RecordingClient.at(CountingClient(), tmp_path / "s.jsonl")
        for _ in range(3):
            recorder.generate(GenerationRequest(prompt="same"))
        assert calls == ["same"]

    def test_replay_serves_at_most_n(self, tmp_path):
        live = StaticClient(table={}, default=["a", "b", "c"])
        path = tmp_path / "store.jsonl"
        with RecordingClient.at(live, path) as recorder:
            recorder.generate(GenerationRequest(prompt="p", n=3))
        response = ReplayClient.from_file(path).generate(GenerationRequest(prompt="p", n=2))
        assert response.completions == ("a", "b")


class FakeResponse:
    def __init__(self, body, status=200):
        self.body = body
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            import requests

            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self.body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


class TestHttpClients:
    def test_native_payload_and_parse(self):
        session = FakeSession([FakeResponse({"completions": ["one", "two"]})])
        client = HttpGenerationClient("http://endpoint/generate", session=session)
        response = client.generate(GenerationRequest(prompt="p", n=2, stop=("\n",)))
        assert response.completions == ("one", "two")
        sent = session.requests[0]["json"]
        assert sent == {
            "prompt": "p",
            "n": 2,
            "max_new_tokens": 64,
            "temperature": 0.7,
            "stop": ["\n"],
        }

    def test_retries_then_succeeds(self):
        import requests

        session = FakeSession(
            [requests.ConnectionError("down"), FakeResponse({"completions": ["ok"]})]
        )
        client = HttpGenerationClient("http://e", session=session, retries=3, backoff=0.0)
        assert client.generate(GenerationRequest(prompt="p")).completions == ("ok",)

    def test_transport_error_after_retries(self):
        import requests

        session = FakeSession([requests.ConnectionError("down")] * 3)
        client = HttpGenerationClient("http://e", session=session, retries=3, backoff=0.0)
        with pytest.raises(TransportError):
            client.generate(GenerationRequest(prompt="p"))

    def test_token_env_var_sets_bearer(self, monkeypatch):
        monkeypatch.setenv("EVENTFRAMES_ENDPOINT_TOKEN", "secret")
        session = FakeSession([FakeResponse({"completions": []})])
        HttpGenerationClient("http://e", session=session).generate(GenerationRequest(prompt="p"))
        assert session.requests[0]["headers"]["Authorization"] == "Bearer secret"

    def test_openai_adapter(self):
        session = FakeSession(
            [FakeResponse({"choices": [{"text": "one"}, {"text": "two"}]})]
        )
        client = OpenAICompletionsClient("http://api/v1/completions", session=session)
        response = client.generate(GenerationRequest(prompt="p", n=2))
        assert response.completions == ("one", "two")
        assert session.requests[0]["json"]["max_tokens"] == 64
        assert "max_new_tokens" not in session.requests[0]["json"]
