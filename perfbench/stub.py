"""Loopback generation endpoint speaking the native contract, for record mode.

POST {"prompt", "n", ...} returns {"completions": [...]} from a table keyed by
prompt hash, after a fixed service delay.  The first request for each prompt
listed as unavailable-once gets a 503 instead, which the client must retry.
The stub counts requests, 503s, the most requests in flight at once and the
most connections open at once.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from eventframes.endpoint import prompt_hash


class StubCounters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight = 0
        self.connections = 0
        self.reset()

    def reset(self) -> None:
        """Start counting afresh; the gauges (in flight, open) carry over."""
        with self.lock:
            self.requests = 0
            self.unavailable = 0
            self.inflight_max = self.inflight
            self.connections_max = self.connections
            self.served: Counter = Counter()  # prompt hash -> successful responses
            self.refused: Counter = Counter()  # prompt hash -> 503 responses

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "unavailable": self.unavailable,
                "inflight_max": self.inflight_max,
                "connections_max": self.connections_max,
                "prompts": len(self.served.keys() | self.refused.keys()),
                "served": dict(self.served),
                "refused": dict(self.refused),
            }


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict[str, list[str]], unavailable_once: set[str], delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.table = table
        self.unavailable_once = unavailable_once
        self.delay_s = delay_s
        self.counters = StubCounters()
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/generate"

    def start(self) -> "StubServer":
        self._thread = threading.Thread(target=self.serve_forever, name="stub", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        counters = self.server.counters
        with counters.lock:
            counters.connections += 1
            counters.connections_max = max(counters.connections_max, counters.connections)

    def finish(self) -> None:
        counters = self.server.counters
        with counters.lock:
            counters.connections -= 1
        super().finish()

    def log_message(self, format: str, *args) -> None:
        pass

    def _reply(self, status: int, body: dict | None = None) -> None:
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        key = prompt_hash(request["prompt"])
        counters = self.server.counters
        with counters.lock:
            counters.requests += 1
            refuse = key in self.server.unavailable_once and not counters.refused[key]
            if refuse:
                counters.refused[key] += 1
                counters.unavailable += 1
            else:
                counters.inflight += 1
                counters.inflight_max = max(counters.inflight_max, counters.inflight)
        if refuse:
            self._reply(503)
            return
        try:
            time.sleep(self.server.delay_s)
            completions = self.server.table.get(key)
            if completions is None:
                self._reply(404, {"error": "unknown prompt"})
                return
            self._reply(200, {"completions": completions[: int(request.get("n", 1))]})
            with counters.lock:
                counters.served[key] += 1
        finally:
            with counters.lock:
                counters.inflight -= 1
