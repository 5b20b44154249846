"""Minimal HTTP/1.1 framing for :mod:`repro.serve`, both ends.

Just enough protocol to host the serving endpoints on stdlib asyncio
streams — request-line + header parsing, ``Content-Length`` bodies,
keep-alive — with hard limits on header and body size so a misbehaving
client cannot balloon server memory.  Not a general web server: no
chunked transfer, no TLS, no multipart.  JSON in, JSON out.

The server half is :func:`read_request` and :func:`render_response`;
the blocking client (:mod:`repro.serve.client`) uses the other half,
:func:`render_request` (head and body in one buffer, so one
``sendall``) and :func:`read_response` (status line and
``Content-Length`` only — the server never sends chunked bodies).

Floats survive the JSON round trip bit-exactly: both :mod:`json` and
every mainstream client serializer emit the shortest decimal that
parses back to the same IEEE-754 double, which is what makes the
serving path's bit-identity contract testable end to end.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

MAX_HEADER_BYTES = 16 * 1024
HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed or over-limit request; carries the HTTP status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except ValueError as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return payload


async def read_request(reader, max_body_bytes: int) -> Request | None:
    """Parse one request from the stream; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial == b"":
            return None  # clean close between requests
        raise ProtocolError(400, "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(400, "request head exceeds the header limit") from None
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(400, "request head exceeds the header limit")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}") from None
    parts = urlsplit(target)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        body_len = int(length)
    except ValueError:
        raise ProtocolError(400, f"bad Content-Length: {length!r}") from None
    if body_len < 0 or body_len > max_body_bytes:
        raise ProtocolError(413, f"request body of {body_len} bytes exceeds the limit")
    body = await reader.readexactly(body_len) if body_len else b""
    return Request(
        method=method.upper(),
        path=parts.path,
        query=dict(parse_qsl(parts.query)),
        headers=headers,
        body=body,
    )


def render_response(status: int, payload: dict, *, keep_alive: bool = True) -> bytes:
    """Serialize a JSON response (headers + body) to raw bytes."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    reason = HTTP_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def render_request(
    method: str, path: str, body: bytes = b"", headers: dict[str, str] | None = None
) -> bytes:
    """Serialize a request (head + body) into one buffer."""
    lines = [f"{method} {path} HTTP/1.1"]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def read_response(rfile) -> tuple[int, dict[str, str], bytes]:
    """Parse one response from a buffered binary file: status, headers, body.

    EOF before the status line raises :class:`ConnectionResetError` (the
    server closed an idle keep-alive connection, or died); EOF inside the
    head or body raises it too.  A reply that is not HTTP raises
    :class:`ProtocolError`.
    """
    line = rfile.readline(MAX_HEADER_BYTES + 1)
    if not line:
        raise ConnectionResetError("server closed the connection without a response")
    try:
        status = int(line.split(None, 2)[1])
    except (IndexError, ValueError):
        raise ProtocolError(502, f"malformed status line: {line[:80]!r}") from None
    headers: dict[str, str] = {}
    size = len(line)
    while True:
        line = rfile.readline(MAX_HEADER_BYTES + 1)
        size += len(line)
        if size > MAX_HEADER_BYTES:
            raise ProtocolError(502, "response head exceeds the header limit")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionResetError("connection closed mid-response")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers["content-length"])
    except (KeyError, ValueError):
        length = -1
    if length < 0:
        raise ProtocolError(502, "response without a valid Content-Length")
    body = rfile.read(length)
    if len(body) < length:
        raise ConnectionResetError("connection closed mid-response")
    return status, headers, body
