import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import pytest
import requests

from eventframes import endpoint
from eventframes.conceptualize import SEPARATOR, conceptualize_corpus
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
    generate_all,
    prompt_hash,
)
from eventframes.schemas import Demonstration, SchemaCandidate

from helpers import StaticClient, expression

DEMOS = [Demonstration("a demo text", SchemaCandidate.create("demo", ["slot"]))]


class FakeClock:
    """Stands in for the endpoint module's `time`: sleeping only advances it."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(endpoint, "time", fake)
    return fake


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

    def test_interrupted_record_keeps_its_entries(self, tmp_path):
        k = 3

        class InterruptedClient:
            calls = 0

            def generate(self, request):
                self.calls += 1
                if self.calls > k:
                    raise KeyboardInterrupt
                return GenerationResponse((f"Type: t{self.calls}, Slots: s",))

        path = tmp_path / "store.jsonl"
        corpus = [expression(f"e{i}", f"text {i}") for i in range(6)]
        recorder = RecordingClient.at(InterruptedClient(), path)
        with pytest.raises(KeyboardInterrupt):
            conceptualize_corpus(recorder, DEMOS, corpus, n=1)
        kept = ReplayStore.load(path).entries
        assert len(kept) == k
        assert kept == recorder.store.entries

        # A resumed run completes the store, and save() compacts it to sorted order.
        live = StaticClient(table={}, default=["Type: u, Slots: s"])
        with RecordingClient.at(live, path) as resumed:
            conceptualize_corpus(resumed, DEMOS, corpus, n=1)
        fresh = tmp_path / "fresh.jsonl"
        resumed.store.save(fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert len(resumed.store.entries) == len(corpus)

    def test_concurrent_misses_append_one_line_per_prompt(self, tmp_path):
        class SlowClient:
            def generate(self, request):
                time.sleep(0.001)  # lets other threads miss on the same prompt
                return GenerationResponse(("c",))

        path = tmp_path / "store.jsonl"
        recorder = RecordingClient.at(SlowClient(), path)
        batch = [GenerationRequest(prompt=f"p{i // 8}") for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(recorder.generate, r) for r in batch]
                done, _ = wait(futures, timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert len(done) == len(batch)
        assert all(f.result().completions == ("c",) for f in futures)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 50
        assert ReplayStore.load(path).entries == recorder.store.entries

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


class PromptSession:
    """Answers by the text a prompt asks about, failing it `fails[text]` times
    first (with `body` in place of completions when given); records each
    request's text and the clock time it was sent."""

    def __init__(self, clock, fails=None, body=None):
        self.clock = clock
        self.fails = dict(fails or {})
        self.body = body or {}
        self.sent = []
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        text = json["prompt"].splitlines()[-1].split(SEPARATOR)[0].strip()
        with self._lock:
            self.sent.append((text, self.clock.now))
            failing = self.fails.get(text, 0) > 0
            self.fails[text] = self.fails.get(text, 0) - 1
        if not failing:
            return FakeResponse({"completions": [f"Type: {text}, Slots: agent"]})
        if text in self.body:
            return FakeResponse(self.body[text])
        return FakeResponse({}, status=503)

    def order(self):
        return [text for text, _ in self.sent]


def run_corpus(session, texts, workers=1):
    corpus = [expression(f"e{i}", text) for i, text in enumerate(texts)]
    client = HttpGenerationClient("http://e", session=session)
    return conceptualize_corpus(client, DEMOS, corpus, n=1, workers=workers)


class TestGenerateAll:
    def test_failed_prompt_waits_while_others_proceed(self, clock):
        session = PromptSession(clock, fails={"A": 1})
        instances, report = run_corpus(session, ["A", "B", "C"])
        assert session.order() == ["A", "B", "C", "A"]
        (_, failed), *_, (_, retried) = session.sent
        assert retried - failed >= 1.0
        assert [inst.expression.id for inst in instances] == ["e0", "e1", "e2"]
        assert report.transport_failures == 0

    def test_always_failing_prompt_gets_three_attempts(self, clock):
        session = PromptSession(clock, fails={"A": 99})
        instances, report = run_corpus(session, ["A", "B"])
        assert session.order() == ["A", "B", "A", "A"]
        times = [t for text, t in session.sent if text == "A"]
        assert times[1] - times[0] >= 1.0
        assert times[2] - times[1] >= 2.0
        assert [inst.expression.id for inst in instances] == ["e1"]
        assert report.dropped == 1
        assert report.transport_failures == 1

    def test_missing_completions_is_not_retried(self, clock):
        session = PromptSession(clock, fails={"A": 1}, body={"A": {"text": "no"}})
        instances, report = run_corpus(session, ["A", "B"])
        assert session.order() == ["A", "B"]
        assert clock.sleeps == []
        assert report.transport_failures == 1

    def test_each_distinct_prompt_is_requested_once(self, clock):
        texts = ["x", "y", "x", "z", "y", "x", "x", "z"]
        session = PromptSession(clock)
        instances, _ = run_corpus(session, texts, workers=4)
        assert sorted(session.order()) == ["x", "y", "z"]
        assert [inst.candidates[0].event_type for inst in instances] == texts


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

    def test_retries_then_succeeds(self, clock):
        session = FakeSession(
            [requests.ConnectionError("down"), FakeResponse({"completions": ["ok"]})]
        )
        client = HttpGenerationClient("http://e", session=session)
        request = GenerationRequest(prompt="p")
        assert generate_all(client, [request])[request].completions == ("ok",)

    def test_transport_error_after_retries(self, clock):
        session = FakeSession([requests.ConnectionError("down")] * 3)
        client = HttpGenerationClient("http://e", session=session)
        request = GenerationRequest(prompt="p")
        with pytest.raises(TransportError):
            raise generate_all(client, [request])[request]

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
