"""The HTTP backend and the ``repro store serve`` daemon (stdlib only).

One node runs the daemon over an ordinary local store directory::

    repro store serve --store /var/cache/repro-store --port 8737

and every other node points any store-URL surface at it
(``--store http://cache-host:8737``, usually behind a ``tiered:`` local
cache).  Wire protocol — record bytes are the codec's self-verifying
two-line format, so the transport needs no integrity of its own:

==========  =========================  =====================================
method      path                       semantics
==========  =========================  =====================================
GET/HEAD    ``/records/<digest>``      record bytes; ``ETag`` is the body's
                                       BLAKE2b digest, ``If-None-Match``
                                       answers ``304 Not Modified``
PUT         ``/records/<digest>``      atomic store; the body must decode
                                       and hash to ``<digest>`` (400 keeps
                                       a corrupt client from poisoning the
                                       shared cache)
DELETE      ``/records/<digest>``      gc support; 404 when absent
GET         ``/keys``                  JSON array of all record digests
POST        ``/leases/<digest>``       claim: JSON ``{"owner","ttl"}`` in,
                                       ``{"granted": bool}`` out; TTL
                                       expiry is arbitrated server-side
DELETE      ``/leases/<digest>``       owner-checked release
GET         ``/healthz``               liveness probe for CI/deploy scripts
==========  =========================  =====================================

The server is a ``ThreadingHTTPServer`` over a
:class:`~repro.store.local.LocalBackend` (atomic ``os.replace`` writes
make concurrent PUTs safe); leases live in one in-process table behind
a lock, which is exactly the arbiter multi-node claiming needs.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple
from urllib import error as urlerror
from urllib import parse as urlparse
from urllib import request as urlrequest

from repro.log import get_logger
from repro.store.backend import StoreBackend, owner_token
from repro.store.codec import body_digest, decode_record
from repro.store.httpd import DaemonHTTPServer, JSONRequestHandler

_log = get_logger("store")

#: Largest request body read, in bytes; far above any store record.
MAX_BODY_BYTES = 64 << 20

#: A record key digest: BLAKE2b-16 hex, as produced by StoreKey.digest.
_DIGEST_RE = re.compile(r"^[0-9a-f]{32}$")

#: Client-side cache of (etag, body) per digest backing If-None-Match
#: revalidation; bounded so a huge suite cannot hold every record alive.
_ETAG_CACHE_SIZE = 64

#: Default client timeout per HTTP round-trip, seconds.
DEFAULT_TIMEOUT = 10.0

__all__ = ["DEFAULT_TIMEOUT", "HTTPBackend", "serve"]


class HTTPBackend(StoreBackend):
    """Client for a ``repro store serve`` daemon."""

    kind = "http"

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT):
        super().__init__()
        self.url = url.rstrip("/")
        self.local_root = None
        self.timeout = timeout
        self.owner = owner_token()
        self._etags: "OrderedDict[str, Tuple[str, bytes]]" = OrderedDict()

    # -- plumbing ----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One round-trip; HTTP error statuses return, transport errors raise.

        ``urllib.error.URLError`` (connection refused, DNS, timeout) is
        an ``OSError`` subclass and propagates as such, which is exactly
        the contract :meth:`StoreBackend.get_bytes` promises — the
        policy layer's retry/degrade logic treats it like any other I/O
        fault.
        """
        request = urlrequest.Request(
            self.url + path, data=body, method=method, headers=headers or {}
        )
        self.counters.remote_roundtrips += 1
        try:
            with urlrequest.urlopen(request, timeout=self.timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urlerror.HTTPError as err:
            with err:
                return err.code, dict(err.headers), err.read()

    def _record_path(self, digest: str) -> str:
        return "/records/" + urlparse.quote(digest, safe="")

    # -- records -----------------------------------------------------------

    def get_bytes(self, digest: str) -> Optional[bytes]:
        headers = {}
        cached = self._etags.get(digest)
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        status, response_headers, content = self._request(
            "GET", self._record_path(digest), headers=headers
        )
        if status == 304 and cached is not None:
            self.counters.conditional_get_hits += 1
            self._etags.move_to_end(digest)
            return cached[1]
        if status == 404:
            return None
        if status != 200:
            raise OSError(
                f"GET {self.url}{self._record_path(digest)} "
                f"returned HTTP {status}"
            )
        etag = response_headers.get("ETag")
        if etag:
            self._etags[digest] = (etag, content)
            self._etags.move_to_end(digest)
            while len(self._etags) > _ETAG_CACHE_SIZE:
                self._etags.popitem(last=False)
        return content

    def put_bytes(self, digest: str, content: bytes) -> None:
        status, _, body = self._request(
            "PUT",
            self._record_path(digest),
            body=content,
            headers={"Content-Type": "application/octet-stream"},
        )
        if status not in (200, 201, 204):
            detail = body.decode("utf-8", "replace").strip()
            raise OSError(
                f"PUT {self.url}{self._record_path(digest)} "
                f"returned HTTP {status}: {detail}"
            )
        self._etags.pop(digest, None)

    def delete(self, digest: str) -> bool:
        status, _, _ = self._request("DELETE", self._record_path(digest))
        if status in (200, 204):
            self._etags.pop(digest, None)
            return True
        if status == 404:
            return False
        raise OSError(
            f"DELETE {self.url}{self._record_path(digest)} "
            f"returned HTTP {status}"
        )

    def list_keys(self) -> Iterator[str]:
        status, _, content = self._request("GET", "/keys")
        if status != 200:
            raise OSError(f"GET {self.url}/keys returned HTTP {status}")
        yield from json.loads(content)

    def stat(self, digest: str) -> Optional[int]:
        status, headers, _ = self._request("HEAD", self._record_path(digest))
        if status == 404:
            return None
        if status != 200:
            raise OSError(
                f"HEAD {self.url}{self._record_path(digest)} "
                f"returned HTTP {status}"
            )
        try:
            return int(headers.get("Content-Length", ""))
        except ValueError:
            return None

    def describe(self, digest: str) -> str:
        return self.url + self._record_path(digest)

    # -- leases ------------------------------------------------------------

    def claim(self, digest: str, ttl: float) -> bool:
        payload = json.dumps({"owner": self.owner, "ttl": ttl}).encode("utf-8")
        status, _, content = self._request(
            "POST",
            "/leases/" + urlparse.quote(digest, safe=""),
            body=payload,
            headers={"Content-Type": "application/json"},
        )
        if status != 200:
            raise OSError(
                f"lease claim on {self.url} returned HTTP {status}"
            )
        granted = bool(json.loads(content).get("granted"))
        if granted:
            self.counters.lease_claims += 1
        else:
            self.counters.lease_conflicts += 1
        return granted

    def release(self, digest: str) -> None:
        self._request(
            "DELETE",
            "/leases/"
            + urlparse.quote(digest, safe="")
            + "?owner="
            + urlparse.quote(self.owner, safe=""),
        )


# -- the daemon ---------------------------------------------------------------


class _LeaseTable:
    """Server-side lease arbiter: one table, one lock, TTL expiry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._leases: Dict[str, Tuple[str, float]] = {}

    def claim(self, digest: str, owner: str, ttl: float) -> bool:
        now = time.time()
        with self._lock:
            holder = self._leases.get(digest)
            if holder is not None and holder[1] > now and holder[0] != owner:
                return False
            self._leases[digest] = (owner, now + ttl)
            return True

    def release(self, digest: str, owner: str) -> None:
        with self._lock:
            holder = self._leases.get(digest)
            if holder is not None and holder[0] == owner:
                del self._leases[digest]


class _StoreRequestHandler(JSONRequestHandler):
    server_version = "repro-store/1"
    max_body_bytes = MAX_BODY_BYTES
    logger = _log

    # These annotations are provided by _StoreServer at runtime.
    server: "_StoreServer"

    # -- helpers -----------------------------------------------------------

    def _record_digest(self) -> Optional[str]:
        prefix = "/records/"
        path = urlparse.urlsplit(self.path).path
        if not path.startswith(prefix):
            return None
        digest = urlparse.unquote(path[len(prefix):])
        return digest if _DIGEST_RE.match(digest) else None

    def _lease_digest(self) -> Optional[str]:
        prefix = "/leases/"
        path = urlparse.urlsplit(self.path).path
        if not path.startswith(prefix):
            return None
        digest = urlparse.unquote(path[len(prefix):])
        return digest if _DIGEST_RE.match(digest) else None

    # -- records -----------------------------------------------------------

    def _get_record(self, include_body: bool) -> None:
        digest = self._record_digest()
        if digest is None:
            self._error(404, "not found")
            return
        content = self.server.backend.get_bytes(digest)
        if content is None:
            self._error(404, f"no record {digest}")
            return
        etag = '"' + body_digest(content) + '"'
        if self.headers.get("If-None-Match") == etag:
            self._send(304, extra_headers={"ETag": etag})
            return
        self._send(
            200,
            content,
            content_type="application/octet-stream",
            extra_headers={"ETag": etag},
            body=include_body,
        )

    def do_GET(self) -> None:  # noqa: N802
        path = urlparse.urlsplit(self.path).path
        if path == "/healthz":
            self._send(200, b'{"ok": true}\n')
            return
        if path == "/keys":
            keys = list(self.server.backend.list_keys())
            self._send(200, json.dumps(keys).encode("utf-8") + b"\n")
            return
        self._get_record(include_body=True)

    def do_HEAD(self) -> None:  # noqa: N802
        self._get_record(include_body=False)

    def do_PUT(self) -> None:  # noqa: N802
        digest = self._record_digest()
        if digest is None:
            self._error(404, "not found")
            return
        content = self._read_body()
        if content is None:
            return
        record, problem = decode_record(content)
        if problem is not None:
            self._error(400, f"rejected record: {problem}")
            return
        if record["key_digest"] != digest:
            self._error(
                400,
                f"record key digest {record['key_digest']} does not match "
                f"the request path digest {digest}",
            )
            return
        self.server.backend.put_bytes(digest, content)
        self._send(201, b'{"stored": true}\n')

    def do_DELETE(self) -> None:  # noqa: N802
        digest = self._record_digest()
        if digest is not None:
            if self.server.backend.delete(digest):
                self._send(200, b'{"deleted": true}\n')
            else:
                self._error(404, f"no record {digest}")
            return
        digest = self._lease_digest()
        if digest is not None:
            query = urlparse.parse_qs(urlparse.urlsplit(self.path).query)
            owner = (query.get("owner") or [""])[0]
            self.server.leases.release(digest, owner)
            self._send(200, b'{"released": true}\n')
            return
        self._error(404, "not found")

    def do_POST(self) -> None:  # noqa: N802
        digest = self._lease_digest()
        if digest is None:
            self._error(404, "not found")
            return
        content = self._read_body()
        if content is None:
            return
        try:
            body = json.loads(content or b"{}")
            owner = str(body["owner"])
            ttl = float(body.get("ttl", 60.0))
        except (ValueError, KeyError):
            self._error(400, 'lease claim body must be {"owner", "ttl"}')
            return
        granted = self.server.leases.claim(digest, owner, ttl)
        self._send(
            200, json.dumps({"granted": granted}).encode("utf-8") + b"\n"
        )


class _StoreServer(DaemonHTTPServer):
    def __init__(self, address, backend):
        self.backend = backend
        self.leases = _LeaseTable()
        super().__init__(address, _StoreRequestHandler)


def serve(root: str, host: str = "127.0.0.1", port: int = 8737) -> _StoreServer:
    """Build (but do not run) a store daemon over local directory ``root``.

    Returns the server; call ``serve_forever()`` to run it (the CLI
    does), or drive it from a thread in tests.  ``port=0`` binds an
    ephemeral port, readable from ``server.server_address``.
    """
    from repro.store.local import LocalBackend

    return _StoreServer((host, port), LocalBackend(root))
