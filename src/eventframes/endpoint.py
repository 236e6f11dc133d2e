"""Text-generation endpoint contract, HTTP clients, the retrying dispatcher,
and the record/replay store."""

from __future__ import annotations

import hashlib
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

from .fileio import encode, read_records, typed, write_records

log = logging.getLogger(__name__)

TOKEN_ENV_VAR = "EVENTFRAMES_ENDPOINT_TOKEN"


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    n: int = 3
    max_new_tokens: int = 64
    temperature: float = 0.7
    stop: tuple[str, ...] = ("\n",)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class GenerationResponse:
    completions: tuple[str, ...]


class GenerationClient(Protocol):
    """Anything that turns a GenerationRequest into completions.

    One call is one attempt.  A failure that a later attempt may not repeat
    raises RetryableError; any other TransportError is final.
    """

    def generate(self, request: GenerationRequest) -> GenerationResponse: ...


class TransportError(RuntimeError):
    """The endpoint gave no usable answer: attempts ran out, or it failed in a
    way that a retry does not mend."""


class RetryableError(TransportError):
    """One attempt failed in a way that a later attempt may not."""


# Retry policy, per distinct prompt: at most ATTEMPTS attempts, the k-th retry
# no sooner than BACKOFF_S * 2**(k-1) seconds after that prompt's own failure.
ATTEMPTS = 3
BACKOFF_S = 1.0


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class HttpGenerationClient:
    """Client for the native wire contract.

    POSTs {prompt, n, max_new_tokens, temperature, stop} and expects
    {"completions": [...]} back.  Each call makes one attempt: a failed
    request, a non-2xx status or an unreadable body raises RetryableError,
    and `generate_all` decides whether and when to try again.  Each worker
    reuses one persistent connection.  Credentials come only from the
    EVENTFRAMES_ENDPOINT_TOKEN environment variable, never from config files.
    """

    def __init__(self, url: str, timeout: float = 60.0):
        # Imported here, so a replay run loads no HTTP code.
        from .httpjson import JsonPoster

        self.url = url
        self._poster = JsonPoster(url, timeout)

    def _headers(self) -> dict[str, str]:
        token = os.environ.get(TOKEN_ENV_VAR)
        return {"Authorization": f"Bearer {token}"} if token else {}

    def payload(self, request: GenerationRequest) -> dict:
        return {
            "prompt": request.prompt,
            "n": request.n,
            "max_new_tokens": request.max_new_tokens,
            "temperature": request.temperature,
            "stop": list(request.stop),
        }

    def parse_response(self, body: object) -> GenerationResponse:
        completions = body.get("completions") if isinstance(body, dict) else None
        if not isinstance(completions, list):
            raise TransportError(f"endpoint response missing 'completions': {body!r}")
        return GenerationResponse(completions=tuple(str(c) for c in completions))

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        try:
            body = self._poster.post(self.payload(request), self._headers())
        except OSError as exc:  # httpjson.HttpError
            raise RetryableError(str(exc)) from exc
        return self.parse_response(body)


Outcome = GenerationResponse | TransportError


def generate_all(
    client: GenerationClient, batch: Sequence[GenerationRequest], workers: int = 1
) -> dict[GenerationRequest, Outcome]:
    """Send each distinct request of `batch`, retrying those that fail retryably.

    Returns, for every distinct request, its response or the TransportError
    that ended its attempts.  Each round sends every request still unanswered
    once, with at most `workers` in flight, and a request whose attempt
    raised RetryableError goes into the next round.  Before that round the
    dispatcher sleeps until the latest failure of the round before plus the
    backoff, so each request waits at least that long after its own failure
    while the others proceed.  Any other exception from the client
    propagates.
    """

    def attempt(request: GenerationRequest) -> tuple[Outcome, float | None]:
        """The outcome, and the time of the failure if it may be retried."""
        try:
            return client.generate(request), None
        except RetryableError as exc:
            return exc, time.monotonic()
        except TransportError as exc:
            return exc, None

    outcomes: dict[GenerationRequest, Outcome] = {}
    pending = list(dict.fromkeys(batch))
    # One worker runs inline: a pool adds about 25 us per request (2-vCPU VM,
    # Python 3.11), 10 ms on a replay of 384 prompts.
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    send = pool.map if pool is not None else map
    try:
        for round_ in range(ATTEMPTS):
            retry: list[GenerationRequest] = []
            failures: list[float] = []
            for request, (outcome, failed) in zip(pending, send(attempt, pending)):
                if failed is None:
                    outcomes[request] = outcome
                elif round_ + 1 < ATTEMPTS:
                    retry.append(request)
                    failures.append(failed)
                else:
                    outcomes[request] = TransportError(
                        f"endpoint failed after {ATTEMPTS} attempts: {outcome}"
                    )
            if not retry:
                break
            log.info("retrying %d request(s) after a failed attempt %d", len(retry), round_ + 1)
            delay = max(failures) + BACKOFF_S * 2**round_ - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            pending = retry
    finally:
        # On an interrupt, requests not yet started are not sent.
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return outcomes


class OpenAICompletionsClient(HttpGenerationClient):
    """Adapter mapping the native contract onto an OpenAI-style /completions API."""

    def payload(self, request: GenerationRequest) -> dict:
        return {
            "prompt": request.prompt,
            "n": request.n,
            "max_tokens": request.max_new_tokens,
            "temperature": request.temperature,
            "stop": list(request.stop),
        }

    def parse_response(self, body: object) -> GenerationResponse:
        choices = body.get("choices") if isinstance(body, dict) else None
        if not isinstance(choices, list):
            raise TransportError(f"endpoint response missing 'choices': {body!r}")
        if not all(isinstance(c, dict) for c in choices):
            raise TransportError(f"endpoint response has a choice that is not an object: {body!r}")
        return GenerationResponse(completions=tuple(str(c.get("text", "")) for c in choices))


class ReplayMissError(KeyError):
    """Replay store has no entry for the requested prompt."""

    def __init__(self, prompt: str):
        self.prompt_hash = prompt_hash(prompt)
        self.prompt_head = prompt[:80]
        super().__init__(
            f"replay miss for prompt hash {self.prompt_hash} (prompt starts: {self.prompt_head!r})"
        )

    def __str__(self) -> str:
        # KeyError's str() would quote the message.
        return self.args[0]


@dataclass
class ReplayStore:
    """Prompt-hash -> completions map persisted as JSON lines through fileio.

    Lookups are keyed, so the store behaves identically after any reordering
    of its lines.  Duplicate hashes keep the first entry seen.
    """

    entries: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "ReplayStore":
        store = cls()
        for _, (key, completions) in read_records(path, "replay entry", _replay_entry):
            store.entries.setdefault(key, completions)
        return store

    def put(self, prompt: str, completions: tuple[str, ...]) -> str:
        key = prompt_hash(prompt)
        self.entries.setdefault(key, completions)
        return key

    def get(self, prompt: str) -> tuple[str, ...]:
        key = prompt_hash(prompt)
        if key not in self.entries:
            raise ReplayMissError(prompt)
        return self.entries[key]

    def __contains__(self, prompt: str) -> bool:
        return prompt_hash(prompt) in self.entries

    def save(self, path: str | Path) -> None:
        write_records(Path(path), (_entry(key, self.entries[key]) for key in sorted(self.entries)))


def _replay_entry(record: dict) -> tuple[str, tuple[str, ...]]:
    completions = typed("completions", tuple[str, ...], record["completions"])
    return typed("hash", str, record["hash"]), completions


def _entry(key: str, completions: tuple[str, ...]) -> dict:
    return {"hash": key, "completions": list(completions)}


class ReplayClient:
    """Serves recorded completions only; fails loudly on a miss."""

    def __init__(self, store: ReplayStore):
        self.store = store

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayClient":
        return cls(ReplayStore.load(path))

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        completions = self.store.get(request.prompt)
        return GenerationResponse(completions=completions[: request.n])


class RecordingClient:
    """Read-through cache around a live client.

    A prompt already in the store is served from it, so repeated prompts stay
    deterministic even under sampling; new prompts hit the live client and are
    recorded.  Each new entry is appended to the store file as it arrives, so
    an interrupted run keeps every completion it received; a failed attempt
    passes through and records nothing.  Call save() to rewrite the file
    sorted.
    """

    def __init__(self, inner: GenerationClient, store: ReplayStore, path: str | Path):
        self.inner = inner
        self.store = store
        self.path = Path(path)
        self._lock = threading.Lock()  # pool threads share one client

    @classmethod
    def at(cls, inner: GenerationClient, path: str | Path) -> "RecordingClient":
        path = Path(path)
        store = ReplayStore.load(path) if path.exists() else ReplayStore()
        return cls(inner, store, path)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        if request.prompt in self.store:
            return GenerationResponse(self.store.get(request.prompt)[: request.n])
        response = self.inner.generate(request)
        with self._lock:
            if request.prompt not in self.store:
                key = self.store.put(request.prompt, response.completions)
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(encode(_entry(key, response.completions)) + "\n")
        return response

    def save(self) -> None:
        self.store.save(self.path)
