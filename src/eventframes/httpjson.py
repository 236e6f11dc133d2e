"""JSON POSTs over persistent HTTP/1.1 connections, from the standard library.

Only the live generation clients and the embedding service import this
module, so a replay run loads no socket, ssl or http code.
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import ssl
import threading
import weakref
from typing import Mapping
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass


class HttpError(OSError):
    """No usable reply: the connection failed, the status was not 2xx, or the
    body was not JSON."""


class JsonPoster:
    """POSTs JSON to one URL and decodes the JSON reply.

    A connection stays open after a post and serves the next one, from any
    thread, so no more connections are open than posts ever ran at once.  A
    reused connection that the server closed while it sat idle is reopened
    once within the same post.  Sockets are opened with TCP_NODELAY, because
    http.client writes the headers and the body in two sends.  Where the
    platform has TCP_QUICKACK (Linux), each request re-arms it, so a server
    that writes the headers and the body separately is not held up by the
    client's delayed ACK.  `close()` closes every connection; garbage
    collection of the poster does too.

    The proxy comes from the environment as urllib reads it (`HTTP_PROXY`,
    `HTTPS_PROXY`, `NO_PROXY`), once, when the poster is made; https through
    a proxy is tunnelled with CONNECT.  Credentials in the proxy URL are sent
    as Basic `Proxy-Authorization`.  Certificates are checked against
    `ssl.create_default_context()`'s store.
    """

    def __init__(self, url: str, timeout: float):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {url!r}")
        self.url = url
        self.timeout = timeout
        self._context = ssl.create_default_context() if parts.scheme == "https" else None
        port = parts.port or (443 if self._context else 80)
        path = parts.path or "/"
        self._target = f"{path}?{parts.query}" if parts.query else path
        self._address = (parts.hostname, port)
        self._tunnel: tuple[str, int, dict[str, str]] | None = None
        self._proxy_headers: dict[str, str] = {}
        proxy = None if proxy_bypass(parts.hostname) else getproxies().get(parts.scheme)
        if proxy:
            proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            headers = {}
            if proxy_parts.username is not None:
                credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
                basic = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                headers["Proxy-Authorization"] = f"Basic {basic}"
            if self._context:
                self._tunnel = (parts.hostname, port, headers)
            else:
                # A plain-http proxy takes the absolute URL as the request target.
                self._target = parts._replace(netloc=parts.netloc.rpartition("@")[2]).geturl()
                self._proxy_headers = headers
            self._address = (proxy_parts.hostname, proxy_parts.port or 80)
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._connections: list[http.client.HTTPConnection] = []
        self.close = weakref.finalize(self, _close_all, self._connections)

    def post(self, body: object, headers: Mapping[str, str] | None = None) -> object:
        """POST `body` as JSON with `headers` added; return the decoded reply.

        Raises HttpError when the exchange fails, the status is not 2xx or
        the reply is not JSON.
        """
        data = json.dumps(body).encode("utf-8")
        sent = {"Content-Type": "application/json", **self._proxy_headers, **(headers or {})}
        connection = self._checkout()
        try:
            status, reason, reply = self._exchange(connection, data, sent)
        except (OSError, http.client.HTTPException) as exc:
            raise HttpError(f"POST {self.url} failed: {exc}") from exc
        finally:
            with self._lock:
                self._idle.append(connection)
        if not 200 <= status < 300:
            raise HttpError(f"POST {self.url} returned HTTP {status} {reason}")
        try:
            return json.loads(reply)
        except ValueError as exc:
            raise HttpError(f"POST {self.url} returned a body that is not JSON: {exc}") from exc

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        if self._context:
            connection = http.client.HTTPSConnection(
                *self._address, timeout=self.timeout, context=self._context
            )
        else:
            connection = http.client.HTTPConnection(*self._address, timeout=self.timeout)
        if self._tunnel:
            host, port, headers = self._tunnel
            connection.set_tunnel(host, port, headers)
        with self._lock:
            self._connections.append(connection)
        return connection

    def _exchange(
        self, connection: http.client.HTTPConnection, data: bytes, headers: dict[str, str]
    ) -> tuple[int, str, bytes]:
        reused = connection.sock is not None
        try:
            if not reused:
                _open(connection)
            try:
                return _roundtrip(connection, self._target, data, headers)
            except (ConnectionResetError, BrokenPipeError):
                # http.client.RemoteDisconnected is a ConnectionResetError.
                if not reused:
                    raise
            connection.close()
            _open(connection)
            return _roundtrip(connection, self._target, data, headers)
        except BaseException:
            # A half-finished exchange leaves the connection unusable.
            connection.close()
            raise


def _open(connection: http.client.HTTPConnection) -> None:
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _roundtrip(
    connection: http.client.HTTPConnection, target: str, data: bytes, headers: dict[str, str]
) -> tuple[int, str, bytes]:
    connection.request("POST", target, body=data, headers=headers)
    quickack = getattr(socket, "TCP_QUICKACK", None)  # Linux only
    if quickack is not None:
        # The kernel leaves quick-ACK mode whenever the socket sends, so it is
        # re-armed after each request: the reply's header segment is then
        # acknowledged at once, and a server with Nagle on sends the body
        # without waiting out the ~40 ms delayed-ACK timer.
        connection.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
    response = connection.getresponse()
    return response.status, response.reason, response.read()


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()
