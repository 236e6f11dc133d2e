"""Text-generation endpoint contract, HTTP clients, and the record/replay store."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import requests

from .fileio import atomic_write

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
    """Anything that turns a GenerationRequest into completions."""

    def generate(self, request: GenerationRequest) -> GenerationResponse: ...


class TransportError(RuntimeError):
    """Endpoint unreachable or persistently failing after retries."""


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class HttpGenerationClient:
    """Client for the native wire contract.

    POSTs {prompt, n, max_new_tokens, temperature, stop} and expects
    {"completions": [...]} back.  Credentials come only from the
    EVENTFRAMES_ENDPOINT_TOKEN environment variable, never from config files.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 1.0,
        session: requests.Session | None = None,
    ):
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def payload(self, request: GenerationRequest) -> dict:
        return {
            "prompt": request.prompt,
            "n": request.n,
            "max_new_tokens": request.max_new_tokens,
            "temperature": request.temperature,
            "stop": list(request.stop),
        }

    def parse_response(self, body: dict) -> GenerationResponse:
        completions = body.get("completions")
        if not isinstance(completions, list):
            raise TransportError(f"endpoint response missing 'completions': {body!r}")
        return GenerationResponse(completions=tuple(str(c) for c in completions))

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        last_error: Exception | None = None
        for attempt in range(self.retries):
            try:
                response = self._session.post(
                    self.url,
                    json=self.payload(request),
                    headers=self._headers(),
                    timeout=self.timeout,
                )
                response.raise_for_status()
                return self.parse_response(response.json())
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt + 1 < self.retries:
                    time.sleep(self.backoff * 2**attempt)
        raise TransportError(f"endpoint failed after {self.retries} attempts: {last_error}")


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

    def parse_response(self, body: dict) -> GenerationResponse:
        choices = body.get("choices")
        if not isinstance(choices, list):
            raise TransportError(f"endpoint response missing 'choices': {body!r}")
        return GenerationResponse(completions=tuple(str(c.get("text", "")) for c in choices))


@dataclass
class StaticClient:
    """Serves canned completions from a prompt -> completions table (for tests and demos)."""

    table: dict[str, list[str]]
    default: list[str] | None = None

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        completions = self.table.get(request.prompt, self.default)
        if completions is None:
            raise TransportError(f"no canned completions for prompt {request.prompt[:80]!r}")
        return GenerationResponse(completions=tuple(completions[: request.n]))


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
    """Prompt-hash -> completions map persisted as one JSON object per line.

    Lookups are keyed, so the store behaves identically after any reordering
    of its lines.  Duplicate hashes keep the first entry seen.
    """

    entries: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "ReplayStore":
        store = cls()
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["hash"]
                    completions = tuple(str(c) for c in record["completions"])
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad replay entry: {exc}") from exc
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
        with atomic_write(Path(path)) as handle:
            for key in sorted(self.entries):
                record = {"hash": key, "completions": list(self.entries[key])}
                handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


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
    recorded.  Call save() (or use as a context manager) to persist.
    """

    def __init__(self, inner: GenerationClient, store: ReplayStore, path: str | Path):
        self.inner = inner
        self.store = store
        self.path = Path(path)

    @classmethod
    def at(cls, inner: GenerationClient, path: str | Path) -> "RecordingClient":
        path = Path(path)
        store = ReplayStore.load(path) if path.exists() else ReplayStore()
        return cls(inner, store, path)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        if request.prompt in self.store:
            return GenerationResponse(self.store.get(request.prompt)[: request.n])
        response = self.inner.generate(request)
        self.store.put(request.prompt, response.completions)
        return response

    def save(self) -> None:
        self.store.save(self.path)

    def __enter__(self) -> "RecordingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.save()
