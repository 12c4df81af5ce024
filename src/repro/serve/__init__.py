"""``repro.serve`` — the always-on artifact service.

The batch CLI pays a one-time profiling cost so later evaluations are
cheap replays of cached signatures; this package turns that warm cache
into a *served* system.  A long-lived asyncio daemon exposes the
scheduler + stores over a small JSON HTTP API:

* ``POST /v1/cells``                 submit a study cell; identical
  in-flight submissions coalesce onto one execution (keyed by the exec
  engine's dedup digest),
* ``GET  /v1/cells/{digest}``        warm hits answered straight from
  stored ``.rpb`` containers,
* ``GET  /v1/cells/{digest}/events`` newline-delimited JSON progress,
* ``GET  /v1/status``                store shards, hit/miss counters,
  cache version.

Everything is stdlib: the HTTP/1.1 framing is hand-rolled on
``asyncio.start_server`` (:mod:`repro.serve.protocol`), the client on
``http.client``.  Underneath, the sharded stores get a size-budgeted
LRU eviction loop (:mod:`repro.exec.eviction`), per-client
token-bucket rate limiting, and graceful drain on SIGTERM.
"""

from repro.serve.client import ServeClient
from repro.serve.server import ReproServer

__all__ = ["ReproServer", "ServeClient"]
