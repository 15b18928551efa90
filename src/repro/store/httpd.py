"""HTTP daemon scaffolding shared by ``repro store serve`` and ``repro serve``.

Both daemons are stdlib :mod:`http.server` servers speaking JSON: the
store daemon (:mod:`repro.store.remote`) and the job daemon
(:mod:`repro.jobs.server`).  :class:`JSONRequestHandler` holds their
common request plumbing (responses, JSON errors, bounded request
bodies, debug-level access logs) and :class:`DaemonHTTPServer` their
server settings.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from repro.log import get_logger

__all__ = ["DaemonHTTPServer", "JSONRequestHandler"]


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Request handler base: JSON errors, bounded bodies, quiet logs.

    Subclasses set ``server_version``, ``max_body_bytes`` (the largest
    request body accepted) and ``logger`` (where access lines go, at
    debug level).
    """

    protocol_version = "HTTP/1.1"
    max_body_bytes = 1 << 20
    logger: logging.Logger = get_logger()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        self.logger.debug("%s %s", self.address_string(), format % args)

    def _send(
        self,
        status: int,
        content: bytes = b"",
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
        body: bool = True,
    ) -> None:
        """Send a complete response; ``body=False`` answers a HEAD."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(content)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if body and content:
            self.wfile.write(content)

    def _error(
        self,
        status: int,
        message: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            json.dumps({"error": message}).encode("utf-8") + b"\n",
            extra_headers=extra_headers,
        )

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None once a bad ``Content-Length`` has
        been answered: 400 unless it is a decimal integer, 413 above
        ``max_body_bytes``.  The connection then closes, since the
        unread body would otherwise be parsed as the next request."""
        header = (self.headers.get("Content-Length") or "0").strip()
        length = int(header) if header.isascii() and header.isdigit() else -1
        if 0 <= length <= self.max_body_bytes:
            return self.rfile.read(length) if length else b""
        self.close_connection = True
        if length < 0:
            self._error(400, f"invalid Content-Length: {header!r}")
        else:
            self._error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        return None


class DaemonHTTPServer(ThreadingHTTPServer):
    """A threaded server whose handler threads never block exit."""

    daemon_threads = True
    allow_reuse_address = True

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        # shutdown() returns once the loop next polls; at the stdlib's
        # 0.5 s default every stop of the daemon took about that long.
        super().serve_forever(poll_interval)
