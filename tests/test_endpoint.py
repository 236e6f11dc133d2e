import base64
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

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
    RetryableError,
    TransportError,
    generate_all,
    prompt_hash,
)
from eventframes.httpjson import JsonPoster
from eventframes.schemas import Demonstration, SchemaCandidate

from helpers import LoopbackServer, StaticClient, expression, refused_port

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


# A store line with a field of the wrong JSON type, and the reason it is refused.
MISTYPED_ENTRIES = {
    # A string is not a completion list: it would load as one completion per
    # character.
    '{"hash": "h1", "completions": "Type: attack"}':
        "completions must be a list (each item a string), got 'Type: attack'",
    # A hash that is not a string would load, then break save().
    '{"hash": 7, "completions": ["Type: attack"]}': "hash must be a string, got 7",
    '{"hash": null, "completions": []}': "hash must be a string, got None",
    # Completions that are not strings would be served as "None", "3".
    '{"hash": "h", "completions": [null, 3]}':
        "completions must be a list (each item a string), got [None, 3]",
}


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

    @pytest.mark.parametrize("line", MISTYPED_ENTRIES)
    def test_mistyped_entry_raises_with_location(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        path.write_text('{"hash": "h0", "completions": []}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            ReplayStore.load(path)
        assert str(info.value) == f"{path}:2: bad replay entry: {MISTYPED_ENTRIES[line]}"

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
        recorder = RecordingClient.at(live, path)
        recorded = recorder.generate(GenerationRequest(prompt="p", n=2))
        recorder.save()
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
        resumed = RecordingClient.at(live, path)
        conceptualize_corpus(resumed, DEMOS, corpus, n=1)
        resumed.save()
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
        recorder = RecordingClient.at(live, path)
        recorder.generate(GenerationRequest(prompt="p", n=3))
        recorder.save()
        response = ReplayClient.from_file(path).generate(GenerationRequest(prompt="p", n=2))
        assert response.completions == ("a", "b")


def asked(prompt):
    """The text a conceptualize prompt asks about."""
    return prompt.splitlines()[-1].split(SEPARATOR)[0].strip()


class PromptClient:
    """Answers by the text a prompt asks about, failing it `fails[text]` times
    first (retryably, or finally for a text in `final`); records each
    request's text and the clock time it was sent."""

    def __init__(self, clock, fails=None, final=()):
        self.clock = clock
        self.fails = dict(fails or {})
        self.final = set(final)
        self.sent = []
        self._lock = threading.Lock()

    def generate(self, request):
        text = asked(request.prompt)
        with self._lock:
            self.sent.append((text, self.clock.now))
            failing = self.fails.get(text, 0) > 0
            self.fails[text] = self.fails.get(text, 0) - 1
        if not failing:
            return GenerationResponse((f"Type: {text}, Slots: agent",))
        if text in self.final:
            raise TransportError(f"no completions for {text}")
        raise RetryableError(f"503 for {text}")

    def order(self):
        return [text for text, _ in self.sent]


def run_corpus(client, texts, workers=1):
    corpus = [expression(f"e{i}", text) for i, text in enumerate(texts)]
    return conceptualize_corpus(client, DEMOS, corpus, n=1, workers=workers)


class TestGenerateAll:
    def test_failed_prompt_waits_while_others_proceed(self, clock):
        client = PromptClient(clock, fails={"A": 1})
        instances, report = run_corpus(client, ["A", "B", "C"])
        assert client.order() == ["A", "B", "C", "A"]
        (_, failed), *_, (_, retried) = client.sent
        assert retried - failed >= 1.0
        assert [inst.expression.id for inst in instances] == ["e0", "e1", "e2"]
        assert report.transport_failures == 0

    def test_always_failing_prompt_gets_three_attempts(self, clock):
        client = PromptClient(clock, fails={"A": 99})
        instances, report = run_corpus(client, ["A", "B"])
        assert client.order() == ["A", "B", "A", "A"]
        times = [t for text, t in client.sent if text == "A"]
        assert times[1] - times[0] >= 1.0
        assert times[2] - times[1] >= 2.0
        assert [inst.expression.id for inst in instances] == ["e1"]
        assert report.dropped == 1
        assert report.transport_failures == 1

    def test_missing_completions_is_not_retried(self, clock):
        client = PromptClient(clock, fails={"A": 1}, final={"A"})
        instances, report = run_corpus(client, ["A", "B"])
        assert client.order() == ["A", "B"]
        assert clock.sleeps == []
        assert report.transport_failures == 1

    def test_each_distinct_prompt_is_requested_once(self, clock):
        texts = ["x", "y", "x", "z", "y", "x", "x", "z"]
        client = PromptClient(clock)
        instances, _ = run_corpus(client, texts, workers=4)
        assert sorted(client.order()) == ["x", "y", "z"]
        assert [inst.candidates[0].event_type for inst in instances] == texts


def answer_by_text(received):
    return 200, {"completions": [f"Type: {asked(received.body['prompt'])}, Slots: agent"]}


def in_order(*replies):
    """A reply function that gives `replies` one after another."""
    pending = iter(replies)
    return lambda received: next(pending)


def live(server, client_cls=HttpGenerationClient):
    return client_cls(server.url(), timeout=5)


class TestHttpClients:
    def test_native_payload_and_parse(self):
        with LoopbackServer(in_order((200, {"completions": ["one", "two"]}))) as server:
            response = live(server).generate(GenerationRequest(prompt="p", n=2, stop=("\n",)))
        assert response.completions == ("one", "two")
        (sent,) = server.received
        assert (sent.method, sent.target) == ("POST", "/generate")
        assert sent.headers["Content-Type"] == "application/json"
        assert sent.headers.get("Authorization") is None
        assert sent.body == {
            "prompt": "p",
            "n": 2,
            "max_new_tokens": 64,
            "temperature": 0.7,
            "stop": ["\n"],
        }

    # Each would otherwise be recorded, and replayed, as "None", "3", "" or "['x']".
    @pytest.mark.parametrize(
        "client_cls, body",
        [
            (HttpGenerationClient, {"completions": ["Type: a, Slots: b", None, 3]}),
            (OpenAICompletionsClient, {"choices": [{"text": "Type: a"}, {"text": None}]}),
            (OpenAICompletionsClient, {"choices": [{"index": 0}]}),
            (OpenAICompletionsClient, {"choices": [{"text": ["x"]}]}),
        ],
        ids=["native-null-and-number", "openai-null-text", "openai-no-text", "openai-list-text"],
    )
    def test_non_string_completion_is_final_and_not_recorded(
        self, clock, tmp_path, client_cls, body
    ):
        store = tmp_path / "store.jsonl"
        with LoopbackServer(lambda received: (200, body)) as server:
            recorder = RecordingClient.at(live(server, client_cls), store)
            instances, report = run_corpus(recorder, ["A"])
            request = GenerationRequest(prompt="p")
            outcome = generate_all(live(server, client_cls), [request])[request]
        assert (instances, report.dropped, report.transport_failures) == ([], 1, 1)
        assert type(outcome) is TransportError
        assert "a completion that is not a string" in str(outcome)
        assert len(server.received) == 2
        assert clock.sleeps == []
        assert recorder.store.entries == {} and not store.exists()

    def test_retries_then_succeeds(self, clock):
        replies = in_order((503, {}), (200, {"completions": ["ok"]}))
        request = GenerationRequest(prompt="p")
        with LoopbackServer(replies) as server:
            assert generate_all(live(server), [request])[request].completions == ("ok",)
        assert len(server.received) == 2
        assert clock.sleeps == [1.0]

    def test_unreadable_body_is_retried(self, clock):
        replies = in_order((200, b"<html>busy</html>"), (200, {"completions": ["ok"]}))
        request = GenerationRequest(prompt="p")
        with LoopbackServer(replies) as server:
            assert generate_all(live(server), [request])[request].completions == ("ok",)
        assert len(server.received) == 2
        assert clock.sleeps == [1.0]

    @pytest.mark.parametrize(
        "client_cls, field",
        [(HttpGenerationClient, "completions"), (OpenAICompletionsClient, "choices")],
        ids=["native", "openai"],
    )
    def test_missing_completions_is_final(self, clock, client_cls, field):
        request = GenerationRequest(prompt="p")
        with LoopbackServer(in_order((200, {"text": "no"}))) as server:
            outcome = generate_all(live(server, client_cls), [request])[request]
        assert type(outcome) is TransportError
        assert f"missing '{field}'" in str(outcome)
        assert len(server.received) == 1
        assert clock.sleeps == []

    @pytest.mark.parametrize(
        "client_cls, body",
        [
            (HttpGenerationClient, ["a"]),
            (HttpGenerationClient, "x"),
            (OpenAICompletionsClient, {"choices": ["a"]}),
        ],
        ids=["native-array", "native-string", "openai-choice-string"],
    )
    def test_reply_that_is_not_an_object_is_final(self, clock, client_cls, body):
        with LoopbackServer(lambda received: (200, body)) as server:
            instances, report = run_corpus(live(server, client_cls), ["A"])
            request = GenerationRequest(prompt="p")
            outcome = generate_all(live(server, client_cls), [request])[request]
        assert (instances, report.dropped, report.transport_failures) == ([], 1, 1)
        assert type(outcome) is TransportError
        assert repr(body) in str(outcome)
        assert len(server.received) == 2
        assert clock.sleeps == []

    def test_transport_error_after_retries(self, clock):
        client = HttpGenerationClient(f"http://127.0.0.1:{refused_port()}/generate", timeout=5)
        request = GenerationRequest(prompt="p")
        with pytest.raises(TransportError, match="after 3 attempts: .*refused"):
            raise generate_all(client, [request])[request]
        assert clock.sleeps == [1.0, 2.0]

    def test_token_env_var_sets_bearer(self, monkeypatch):
        monkeypatch.setenv("EVENTFRAMES_ENDPOINT_TOKEN", "secret")
        with LoopbackServer(in_order((200, {"completions": []}))) as server:
            live(server).generate(GenerationRequest(prompt="p"))
        assert server.received[0].headers["Authorization"] == "Bearer secret"

    def test_netrc_is_never_read(self, monkeypatch, tmp_path):
        netrc = tmp_path / ".netrc"
        netrc.write_text("machine 127.0.0.1 login user password pw\n", encoding="utf-8")
        netrc.chmod(0o600)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("EVENTFRAMES_ENDPOINT_TOKEN", "secret")
        with LoopbackServer(lambda received: (200, {"completions": []})) as server:
            client = live(server)
            client.generate(GenerationRequest(prompt="p"))
            monkeypatch.delenv("EVENTFRAMES_ENDPOINT_TOKEN")
            client.generate(GenerationRequest(prompt="p"))
        with_token, without_token = server.received
        assert with_token.headers.get_all("Authorization") == ["Bearer secret"]
        assert without_token.headers.get("Authorization") is None

    def test_openai_adapter(self):
        replies = in_order((200, {"choices": [{"text": "one"}, {"text": "two"}]}))
        with LoopbackServer(replies) as server:
            client = live(server, OpenAICompletionsClient)
            response = client.generate(GenerationRequest(prompt="p", n=2, stop=("\n",)))
        assert response.completions == ("one", "two")
        (sent,) = server.received
        assert sent.body == {
            "prompt": "p",
            "n": 2,
            "max_tokens": 64,
            "temperature": 0.7,
            "stop": ["\n"],
        }

    def test_connection_closed_while_idle_is_reopened(self, clock):
        with LoopbackServer(answer_by_text, close_after_reply=True) as server:
            instances, report = run_corpus(live(server), ["a", "b", "c"])
        assert clock.sleeps == []
        assert [asked(r.body["prompt"]) for r in server.received] == ["a", "b", "c"]
        assert server.accepted == 3
        assert [inst.candidates[0].event_type for inst in instances] == ["a", "b", "c"]
        assert report.transport_failures == 0

    def test_workers_open_at_most_that_many_connections(self):
        def slow(received):
            time.sleep(0.01)
            return answer_by_text(received)

        texts = [f"t{i}" for i in range(24)]
        with LoopbackServer(slow) as server:
            instances, report = run_corpus(live(server), texts, workers=4)
        assert [inst.candidates[0].event_type for inst in instances] == texts
        assert len(server.received) == len(texts)
        assert 1 <= server.accepted <= 4
        assert report.transport_failures == 0

    def test_http_proxy_gets_the_absolute_url(self, monkeypatch):
        url = "http://endpoint.invalid:8080/v1/generate?model=m"
        with LoopbackServer(in_order((200, {"completions": ["via proxy"]}))) as proxy:
            monkeypatch.setenv("HTTP_PROXY", f"http://user:pw@127.0.0.1:{proxy.port}")
            response = HttpGenerationClient(url, timeout=5).generate(GenerationRequest(prompt="p"))
        assert response.completions == ("via proxy",)
        (sent,) = proxy.received
        assert sent.target == url
        assert sent.headers["Host"] == "endpoint.invalid:8080"
        assert sent.headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()

    def test_no_proxy_bypasses_the_proxy(self, monkeypatch):
        with LoopbackServer(in_order()) as proxy, LoopbackServer(answer_by_text) as origin:
            monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.port}")
            monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
            run_corpus(live(origin), ["A"])
        assert proxy.received == []
        assert [r.target for r in origin.received] == ["/generate"]

    def test_https_proxy_is_tunnelled_with_connect(self, monkeypatch):
        with LoopbackServer(in_order((403, b""))) as proxy:
            monkeypatch.setenv("HTTPS_PROXY", f"127.0.0.1:{proxy.port}")  # no scheme: http
            client = HttpGenerationClient("https://endpoint.invalid/generate", timeout=5)
            with pytest.raises(RetryableError, match="403"):
                client.generate(GenerationRequest(prompt="p"))
        (sent,) = proxy.received
        assert (sent.method, sent.target) == ("CONNECT", "endpoint.invalid:443")


class TestJsonPoster:
    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK here")
    def test_nagle_server_is_not_held_up_by_delayed_ack(self):
        with LoopbackServer(lambda received: (200, received.body), nodelay=False) as server:
            poster = JsonPoster(server.url(), timeout=5)
            try:
                start = time.perf_counter()
                replies = [poster.post({"i": i}) for i in range(20)]
                elapsed = time.perf_counter() - start
            finally:
                poster.close()
        assert replies == [{"i": i} for i in range(20)]
        assert server.accepted == 1
        # Waiting out the ~40 ms delayed ACK on each keep-alive post would
        # take 0.8 s or more.
        assert elapsed < 0.3

    def test_post_without_quickack(self, monkeypatch):
        monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
        with LoopbackServer(in_order((200, {"completions": ["ok"]}))) as server:
            poster = JsonPoster(server.url(), timeout=5)
            try:
                assert poster.post({"prompt": "p"}) == {"completions": ["ok"]}
            finally:
                poster.close()
        assert len(server.received) == 1
