"""Shared builders for tests: tiny instances, a table-backed similarity, a
client that serves canned completions, a loopback HTTP server, and a count
of the similarity tables parsed."""

from __future__ import annotations

import json
import os
import socket
import threading
from dataclasses import dataclass
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

import numpy as np

from eventframes.conceptualize import ConceptualizedInstance
from eventframes.corpus import EventExpression
from eventframes.endpoint import GenerationRequest, GenerationResponse, TransportError
from eventframes import similarity
from eventframes.schemas import SchemaCandidate
from eventframes.similarity import SimilarityEnsemble


class TableBackend:
    """Similarity backend with engineered pair scores (identity is always 1)."""

    kind = "table"

    def __init__(self, table: dict[tuple[str, str], float], default: float = 0.0):
        self.table = {frozenset(pair): value for pair, value in table.items()}
        self.default = default

    def score(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return self.table.get(frozenset((a, b)), self.default)

    def matrix(self, xs, ys, lexical=None) -> np.ndarray:
        return np.array([[self.score(x, y) for y in ys] for x in xs], dtype=float).reshape(
            len(xs), len(ys)
        )


def table_ensemble(table: dict[tuple[str, str], float], default: float = 0.0) -> SimilarityEnsemble:
    return SimilarityEnsemble(backends=[TableBackend(table, default)])


@dataclass
class StaticClient:
    """Serves canned completions from a prompt -> completions table."""

    table: dict[str, list[str]]
    default: list[str] | None = None

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        completions = self.table.get(request.prompt, self.default)
        if completions is None:
            raise TransportError(f"no canned completions for prompt {request.prompt[:80]!r}")
        return GenerationResponse(completions=tuple(completions[: request.n]))


def expression(expr_id: str, text: str) -> EventExpression:
    return EventExpression.from_text(expr_id, text)


def instance(expr_id: str, text: str, candidates) -> ConceptualizedInstance:
    return ConceptualizedInstance(
        expression(expr_id, text),
        tuple(SchemaCandidate.create(t, list(slots)) for t, slots in candidates),
    )


@dataclass(frozen=True)
class Received:
    """One request as the loopback server read it."""

    method: str
    target: str
    headers: Message  # case-insensitive .get()
    body: object  # the decoded JSON, or None without a body


class LoopbackServer(ThreadingHTTPServer):
    """HTTP/1.1 server on 127.0.0.1, serving from a thread inside `with`.

    `reply(received)` returns (status, body): bytes are sent as they are,
    anything else as JSON.  The server keeps every request it read in
    `received`, and counts the connections it accepted.  With
    `close_after_reply`, it closes each connection after one answer without
    announcing it, as a server whose keep-alive timeout ran out does.  With
    `nodelay=False`, its sockets keep Nagle's algorithm on, as a plain
    `http.server` endpoint does.
    """

    daemon_threads = True

    def __init__(
        self,
        reply: Callable[[Received], tuple[int, object]],
        close_after_reply=False,
        nodelay=True,
    ):
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.reply = reply
        self.close_after_reply = close_after_reply
        self.nodelay = nodelay
        self.lock = threading.Lock()
        self.received: list[Received] = []
        self.accepted = 0
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def url(self, path: str = "/generate") -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def __enter__(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: LoopbackServer

    def setup(self) -> None:
        super().setup()
        # The handler writes the headers and the body in two sends.  Without
        # TCP_NODELAY the body waits until the client acknowledges the
        # headers, which a client that delays its ACKs does ~40 ms later.
        if self.server.nodelay:
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.lock:
            self.server.accepted += 1

    def log_message(self, format: str, *args) -> None:
        pass

    def do_POST(self) -> None:
        self._answer()

    def do_CONNECT(self) -> None:
        self._answer()

    def _answer(self) -> None:
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        received = Received(self.command, self.path, self.headers, json.loads(raw) if raw else None)
        with self.server.lock:
            self.server.received.append(received)
        status, body = self.server.reply(received)
        payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        if self.server.close_after_reply:
            self.close_connection = True


def refused_port() -> int:
    """A loopback port with nothing listening on it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def as_partition(assignment) -> frozenset[frozenset[int]]:
    """A ClusterAssignment's clusters as a set of sets of node indices."""
    return frozenset(frozenset(group) for group in assignment.groups())


def count_table_parses(monkeypatch) -> list[str]:
    """The names of the files that the lexicon reader and the vector-table
    loader read from now on, one per read, in order."""
    parses: list[str] = []
    for name in ("read_text", "_load_table"):

        def counted(path, _original=getattr(similarity, name)):
            parses.append(os.path.basename(path))
            return _original(path)

        monkeypatch.setattr(similarity, name, counted)
    return parses
