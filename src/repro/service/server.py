"""Asyncio serving daemon: micro-batching, admission control, degradation.

:class:`ServingDaemon` stands the library's serving layer up as a process:
newline-delimited JSON over TCP (stdlib only — no web framework), one
:class:`~repro.service.protocol.QueryRequest` per line in, one
:class:`~repro.service.protocol.QueryResponse` per line out.  Three
mechanisms make it a serving tier rather than a socket wrapper:

* **Request coalescing.**  Concurrent queries against the same target are
  collected into one :class:`~repro.service.queries.QueryBatch` per
  micro-batching window (the window opens when the first query of a batch
  arrives and lasts at most ``window_ms``, default 2 ms).  The vectorised
  :class:`~repro.service.engine.BatchQueryEngine` then amortises one dense
  NumPy evaluation across every waiting client, so the engine-call count
  grows with *windows*, not with *queries* — the effect the load generator
  measures as the coalescing factor.  The window adapts: when a target's
  last flush answered a lone query, waiting bought nothing, so its next
  window flushes on the next event-loop turn instead (queries read in the
  same turn still share it); a flush of two or more puts the full
  ``window_ms`` timer back.

* **Admission control.**  The pending-queue depth is bounded
  (``max_pending`` across all targets) and every connection has an in-flight
  cap (``max_inflight_per_client``).  Beyond either limit the daemon answers
  ``overloaded`` immediately instead of queueing without bound: latency for
  admitted queries stays flat and the rejection is explicit, retryable
  signal rather than a hang.

* **Degradation ladder.**  A query is served from the freshest state that
  exists: a cached engine (hot), else the synopsis re-resolved through the
  :class:`~repro.service.store.SynopsisStore` — whose own LRU may have
  degraded the entry to a disk/mmap hit — else, when even the store misses
  (and ``build_on_miss`` is off, the default: a loaded daemon must not
  block its event loop on a dynamic program), an explicit ``unavailable``
  rejection.  Nothing on the query path ever waits on a rebuild it did not
  ask for.

Responses leave from the flush: it encodes each connection's answers and
writes them with one ``write`` call; a connection handler awaits ``drain``
after every line it dispatches, so a client that stops reading stops being
read.  Shutdown is graceful: :meth:`ServingDaemon.stop` stops accepting,
flushes every open window immediately, and then closes the connections,
whose transports send what they buffered before they drop.

Accounting has one home, the daemon's own ungated registry
(:attr:`ServingDaemon.metrics`): the ``stats`` op is computed from its
``repro_daemon_*`` instruments and the ``metrics`` op renders them.

Flushes run synchronously on the event loop — the whole point of
micro-batching is that the engine call is one short dense evaluation, and a
synchronous flush makes batch composition deterministic under test.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, cast

import numpy as np

from ..core.spec import SynopsisSpec
from ..core.synopsis import Synopsis
from ..exceptions import ProtocolError, SynopsisError, VersionMismatchError
from .. import telemetry
from ..telemetry import (
    Counter,
    MetricsRegistry,
    RateLimiter,
    capture_spans,
    get_logger,
    log_event,
    render_prometheus,
    span,
)
from .engine import BatchQueryEngine
from .protocol import (
    OP_INFO,
    OP_METRICS,
    OP_PING,
    OP_QUERY,
    OP_SHUTDOWN,
    OP_STATS,
    PROTOCOL_VERSION,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
    WIRE_OPS,
    QueryRequest,
    QueryResponse,
    error_response,
    parse_request_line,
    request_id_of,
    responses_for,
)
from .queries import QueryBatch
from .store import SynopsisStore, fingerprint_data

__all__ = ["DaemonConfig", "ServingDaemon", "DEFAULT_PORT"]

#: Default TCP port for ``repro-synopses serve`` (any free port via 0).
DEFAULT_PORT = 7209


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables for :class:`ServingDaemon`, validated at construction.

    ``window_ms`` is the upper bound of a micro-batching window: the longest
    a query waits for others to share its engine call (a target whose last
    flush answered a lone query flushes its next window on the next event-loop
    turn instead);
    ``max_pending`` / ``max_inflight_per_client`` are the admission-control
    limits; ``max_batch`` flushes a window early once enough queries have
    coalesced; ``max_engines`` bounds the hot engine cache (evicted targets
    degrade to a store re-resolution); ``build_on_miss`` decides the bottom
    rung of the degradation ladder (rebuild synchronously vs. reject with
    ``unavailable``); ``attribute_errors`` controls whether responses carry
    per-query expected-error mass (costs one exact per-item evaluation per
    target at warm-up); ``slow_query_ms`` (``None`` = off) is the forensics
    threshold — any flush whose wall time reaches it emits one structured
    JSON record (query, coalesced batch size, degradation-ladder rung, span
    tree) on the ``repro.daemon.slow_query`` logger.
    """

    window_ms: float = 2.0
    max_pending: int = 1024
    max_inflight_per_client: int = 64
    max_batch: int = 4096
    max_engines: int = 8
    build_on_miss: bool = False
    attribute_errors: bool = True
    allow_remote_shutdown: bool = False
    drain_timeout: float = 10.0
    slow_query_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise SynopsisError("the micro-batching window must be positive")
        for name in ("max_pending", "max_inflight_per_client", "max_batch", "max_engines"):
            if int(getattr(self, name)) <= 0:
                raise SynopsisError(f"{name} must be positive")
        if self.drain_timeout <= 0:
            raise SynopsisError("drain_timeout must be positive")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise SynopsisError("slow_query_ms must be non-negative (or None to disable)")


def _by_label(family: Counter) -> Dict[str, int]:
    """``{label value: count}`` for a one-label counter family."""
    return {
        next(iter(labels.values())): int(cast(Counter, child).value)
        for labels, child in family.samples()
    }


#: One compact JSON encoder for every line the daemon writes
#: (``json.dumps`` with these separators would build one per call).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(eq=False)
class _Connection:
    """Per-connection state: the writer and the in-flight count."""

    writer: asyncio.StreamWriter
    inflight: int = 0


class ServingDaemon:
    """The asyncio synopsis-serving daemon (see the module docstring).

    Parameters
    ----------
    data:
        The probabilistic model (or frequency vector) the synopses
        summarise; needed to warm targets through the store and to compute
        per-item expected errors for attribution.
    store:
        The :class:`~repro.service.store.SynopsisStore` fronting the builds
        (its LRU/disk behaviour *is* the middle of the degradation ladder).
    targets:
        ``name -> SynopsisSpec`` for every synopsis this daemon serves.
        Each spec must name a single budget (no sweeps).
    """

    def __init__(
        self,
        data: Any,
        store: SynopsisStore,
        targets: Mapping[str, SynopsisSpec],
        *,
        config: Optional[DaemonConfig] = None,
        default_target: Optional[str] = None,
    ):
        if not targets:
            raise SynopsisError("the daemon needs at least one target spec to serve")
        for name, spec in targets.items():
            if spec.is_sweep:
                raise SynopsisError(
                    f"target {name!r} declares a budget sweep; serve one budget per target"
                )
        self._data = data
        self._store = store
        self._targets: Dict[str, SynopsisSpec] = dict(targets)
        self._default_target = default_target or next(iter(self._targets))
        if self._default_target not in self._targets:
            raise SynopsisError(f"default target {self._default_target!r} is not a target")
        self._config = config or DaemonConfig()
        self._fingerprint = fingerprint_data(data)
        #: This daemon's accounting, ungated like the store's registry: the
        #: `stats` op reads it, the `metrics` op renders it, and every daemon
        #: event records into exactly one of its instruments.
        self.metrics = MetricsRegistry(gated=False)
        counter, gauge = self.metrics.counter, self.metrics.gauge
        self._m_connections = counter("repro_daemon_connections_total", "TCP connections accepted")
        self._m_requests = counter(
            "repro_daemon_requests_total", "Wire requests dispatched, by op", labelnames=("op",)
        )
        self._m_queries = counter(
            "repro_daemon_queries_answered_total", "Queries answered with status ok"
        )
        self._m_batches = counter(
            "repro_daemon_engine_batches_total", "Coalesced engine flushes executed"
        )
        self._m_batch_size = self.metrics.histogram(
            "repro_daemon_batch_size",
            "Queries coalesced into one engine flush",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
        )
        self._m_flush_ms = self.metrics.histogram(
            "repro_daemon_flush_latency_ms", "Wall time of one coalesced flush"
        )
        self._m_rejections = counter(
            "repro_daemon_admission_rejections_total",
            "Queries rejected by admission control, by reason", labelnames=("reason",),
        )
        self._m_ladder = counter(
            "repro_daemon_ladder_total",
            "Engine resolutions by degradation-ladder rung", labelnames=("rung",),
        )
        self._m_evictions = counter(
            "repro_daemon_engine_evictions_total", "Hot engines evicted by the LRU cap"
        )
        self._m_pending = gauge(
            "repro_daemon_pending_queries", "Queries waiting in micro-batching windows"
        )
        self._m_slow = counter(
            "repro_daemon_slow_queries_total", "Flushes at or above the slow_query_ms threshold"
        )
        self._m_errors = counter(
            "repro_daemon_errors_total",
            "Requests answered with an error, by kind (protocol, version, invalid, internal)",
            labelnames=("kind",),
        )
        self._m_unavailable = counter(
            "repro_daemon_unavailable_total", "Queries the degradation ladder could not serve"
        )
        self._m_drained = counter(
            "repro_daemon_drained_queries_total", "Queries flushed early by the shutdown drain"
        )
        self._m_largest_batch = gauge(
            "repro_daemon_largest_batch", "Most queries one engine flush has answered"
        )
        self._log = get_logger("daemon")
        self._slow_log = get_logger("daemon.slow_query")
        self._overload_limiter = RateLimiter(interval_seconds=1.0)
        self._engines: "OrderedDict[str, BatchQueryEngine]" = OrderedDict()
        self._errors: Dict[str, np.ndarray] = {}
        self._domain_sizes: Dict[str, int] = {}
        self._pending: Dict[str, List[Tuple[QueryRequest, _Connection]]] = {}
        self._flush_handles: Dict[str, asyncio.Handle] = {}
        #: Targets whose last flush answered exactly one query: their next
        #: window flushes on the next loop turn instead of arming the timer.
        self._next_turn: Set[str] = set()
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._handler_tasks: Set["asyncio.Task[None]"] = set()
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._warmed = False
        self._holds_telemetry = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> DaemonConfig:
        """The daemon's (frozen) tunables."""
        return self._config

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; raises until :meth:`start` ran."""
        if self._address is None:
            raise SynopsisError("the daemon is not listening; call start() first")
        return self._address

    @property
    def targets(self) -> Dict[str, SynopsisSpec]:
        """The served ``name -> spec`` map (a copy)."""
        return dict(self._targets)

    def info(self) -> Dict[str, Any]:
        """The ``info`` op payload: targets, limits and schema version."""
        return {
            "op": OP_INFO,
            "version": PROTOCOL_VERSION,
            "default_target": self._default_target,
            "window_ms": self._config.window_ms,
            "max_pending": self._config.max_pending,
            "max_inflight_per_client": self._config.max_inflight_per_client,
            "targets": {
                name: {
                    "kind": spec.kind,
                    "budget": spec.budgets[0],
                    "metric": spec.metric.describe(),
                    "domain_size": self._domain_sizes.get(name),
                }
                for name, spec in self._targets.items()
            },
        }

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` op payload, read off this daemon's instruments.

        ``coalescing_factor`` (``queries_answered / engine_batches``) is the
        average batch one engine evaluation was amortised over; the
        ``engine_*`` counts break engine lookups down by ladder rung.
        """
        answered = int(self._m_queries.value)
        batches = int(self._m_batches.value)
        sizes = self._m_batch_size
        errors = _by_label(self._m_errors)
        ladder = _by_label(self._m_ladder)
        return {
            "connections": int(self._m_connections.value),
            "requests": sum(_by_label(self._m_requests).values()),
            "queries_answered": answered,
            "engine_batches": batches,
            # Queries that shared a flush: everything outside the le=1 bucket.
            "coalesced_queries": int(sizes.sum) - sizes.counts[0],
            "largest_batch": int(self._m_largest_batch.value),
            "overloaded": sum(_by_label(self._m_rejections).values()),
            "unavailable": int(self._m_unavailable.value),
            "protocol_errors": errors.get("protocol", 0),
            "version_rejections": errors.get("version", 0),
            "invalid_queries": errors.get("invalid", 0),
            "internal_errors": errors.get("internal", 0),
            "engine_cache_hits": ladder.get("hot", 0),
            "engine_store_resolutions": ladder.get("store", 0),
            "engine_builds": ladder.get("build", 0),
            "engine_evictions": int(self._m_evictions.value),
            "drained_queries": int(self._m_drained.value),
            "coalescing_factor": answered / batches if batches else None,
        }

    # ------------------------------------------------------------------
    # Warm-up and the engine degradation ladder
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Build (or fetch) every target through the store, once, up front.

        Also computes each target's per-item expected errors when error
        attribution is on; the vectors are kept independently of the engine
        cache so an engine rebuilt after LRU eviction keeps its attribution
        without re-running the exact evaluation.
        """
        if self._warmed:
            return
        for name, spec in self._targets.items():
            synopsis = self._store.get_or_build(
                self._data, spec, fingerprint=self._fingerprint
            )
            self._domain_sizes[name] = synopsis.domain_size
            if self._config.attribute_errors:
                from ..evaluation.errors import per_item_expected_errors

                self._errors[name] = per_item_expected_errors(
                    self._data, synopsis, spec.metric, workload=spec.workload
                )
            self._cache_engine(name, synopsis)
        self._warmed = True

    def _cache_engine(self, name: str, synopsis: Synopsis) -> BatchQueryEngine:
        engine = BatchQueryEngine(
            synopsis, per_item_errors=self._errors.get(name), metric=self._targets[name].metric
        )
        self._engines[name] = engine
        self._engines.move_to_end(name)
        while len(self._engines) > self._config.max_engines:
            evicted, _ = self._engines.popitem(last=False)
            self._m_evictions.inc()
            log_event(
                self._log, logging.INFO, "daemon.engine_evicted",
                target=evicted, max_engines=self._config.max_engines,
            )
        return engine

    def _resolve_engine(self, name: str) -> Tuple[Optional[BatchQueryEngine], str]:
        """``(engine, rung)`` for ``name`` via the degradation ladder.

        Hot cache (``"hot"``) -> store re-resolution (``"store"``; the
        store's own memory LRU may degrade this to a disk/mmap hit) ->
        optional synchronous rebuild (``"build"``) -> ``(None,
        "unavailable")`` (the caller answers ``unavailable``).  The rung is
        counted per resolution and carried into the slow-query log.
        """
        engine = self._engines.get(name)
        if engine is not None:
            self._engines.move_to_end(name)
            self._m_ladder.labels(rung="hot").inc()
            return engine, "hot"
        spec = self._targets[name]
        synopsis = self._store.get(spec.store_key(self._fingerprint))
        if synopsis is not None:
            rung = "store"
        elif self._config.build_on_miss:
            synopsis = self._store.get_or_build(self._data, spec, fingerprint=self._fingerprint)
            rung = "build"
        else:
            self._m_ladder.labels(rung="unavailable").inc()
            return None, "unavailable"
        self._m_ladder.labels(rung=rung).inc()
        return self._cache_engine(name, synopsis), rung

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Warm the targets and start listening; returns the bound address.

        ``port=0`` binds an ephemeral port (tests, CI) — read the actual one
        from the return value or :attr:`address`.
        """
        if self._server is not None:
            raise SynopsisError("the daemon is already listening")
        # A listening daemon is the canonical telemetry producer: hold the
        # gated engine and span instruments on while it runs.  stop() -- or
        # a start that fails here -- releases the hold; the flag returns to
        # its prior state once no other daemon in the process holds it.
        telemetry.hold()
        self._holds_telemetry = True
        try:
            self.warm()
            self._stopped = asyncio.Event()
            self._server = await asyncio.start_server(self._handle_client, host, port)
        except BaseException:
            self._release_telemetry()
            raise
        sockets = self._server.sockets or []
        if not sockets:  # pragma: no cover - start_server always binds or raises
            raise SynopsisError("the daemon failed to bind a socket")
        bound = sockets[0].getsockname()
        self._address = (str(bound[0]), int(bound[1]))
        log_event(
            self._log, logging.INFO, "daemon.listen",
            host=self._address[0], port=self._address[1],
            targets=sorted(self._targets), window_ms=self._config.window_ms,
            max_pending=self._config.max_pending,
        )
        return self._address

    def _release_telemetry(self) -> None:
        if self._holds_telemetry:
            telemetry.release()
            self._holds_telemetry = False

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` has fully drained and shut down."""
        if self._stopped is None:
            raise SynopsisError("the daemon is not listening; call start() first")
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush windows, drain, close.

        Every query already admitted is answered — open micro-batching
        windows are flushed immediately rather than waiting out their
        timers, which puts every answer in its connection's write buffer.
        Closing a transport sends what it buffered before the connection
        drops, and the daemon waits (bounded by ``drain_timeout``) for the
        connection handlers to see their connections closed.
        """
        if self._draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        log_event(
            self._log, logging.INFO, "daemon.drain",
            pending=int(self._m_pending.value), connections=len(self._connections),
        )
        for name, handle in list(self._flush_handles.items()):
            handle.cancel()
            self._flush_handles.pop(name, None)
        drained = int(self._m_pending.value)
        for name in list(self._pending):
            self._flush(name)
        self._m_drained.inc(drained)
        for connection in list(self._connections):
            connection.writer.close()
        # Closing the transports EOFs the readers; wait for the connection
        # handlers to notice and exit so loop teardown finds no stray tasks.
        if self._handler_tasks:
            await asyncio.wait(list(self._handler_tasks), timeout=self._config.drain_timeout)
        if self._server is not None:
            await self._server.wait_closed()
        log_event(
            self._log, logging.INFO, "daemon.shutdown",
            drained_queries=drained,
            queries_answered=int(self._m_queries.value),
            connections=int(self._m_connections.value),
        )
        self._release_telemetry()
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _track(self, task: "asyncio.Task[None]") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._m_connections.inc()
        connection = _Connection(writer=writer)
        self._connections.add(connection)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Past the stream limit (asyncio's 64 KiB default) the line
                    # cannot be resynchronised: answer it, then close.
                    self._m_requests.labels(op="invalid").inc()
                    self._send_error(
                        connection, "protocol", None,
                        "request line exceeds the 64 KiB line limit",
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                self._dispatch(line, connection)
                # Backpressure: returns at once unless the transport is past
                # its high-water mark, so a client that stops reading its
                # answers stops being read.
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(connection)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def _send(self, connection: _Connection, payload: Mapping[str, Any]) -> None:
        """Write one whole response line; its handler drains after dispatch."""
        connection.writer.write((_encode_json(payload) + "\n").encode("utf-8"))

    def _send_error(self, connection: _Connection, kind: str,
                    request_id: Any, detail: str) -> None:
        """Count one ``errors_total{kind}`` rejection and answer it."""
        self._m_errors.labels(kind=kind).inc()
        self._send(connection, error_response(request_id, detail).to_dict())

    def _dispatch(self, line: bytes, connection: _Connection) -> None:
        try:
            payload = parse_request_line(line)
        except ProtocolError as exc:
            self._m_requests.labels(op="invalid").inc()
            self._send_error(connection, "protocol", request_id_of(line), str(exc))
            return
        op = payload.get("op", OP_QUERY)
        self._m_requests.labels(op=op if op in WIRE_OPS else "invalid").inc()
        if op == OP_QUERY:
            self._dispatch_query(payload, connection)
        elif op == OP_PING:
            self._send(connection, {"op": "pong", "version": PROTOCOL_VERSION})
        elif op == OP_INFO:
            self._send(connection, self.info())
        elif op == OP_STATS:
            self._send(
                connection,
                {
                    "op": OP_STATS,
                    "version": PROTOCOL_VERSION,
                    "stats": self.stats(),
                    "store": self._store.stats.as_dict(),
                },
            )
        elif op == OP_METRICS:
            # One scrape: the process-wide gated registry (engine and span
            # families), then this daemon's and its store's ungated ones.
            self._send(
                connection,
                {
                    "op": OP_METRICS,
                    "version": PROTOCOL_VERSION,
                    "content_type": telemetry.CONTENT_TYPE,
                    "body": render_prometheus(
                        [telemetry.registry(), self.metrics, self._store.metrics]
                    ),
                },
            )
        elif op == OP_SHUTDOWN:
            if not self._config.allow_remote_shutdown:
                self._send_error(
                    connection, "protocol", payload.get("id"),
                    "remote shutdown is disabled on this daemon",
                )
                return
            self._send(
                connection,
                {"op": OP_SHUTDOWN, "version": PROTOCOL_VERSION, "status": "draining"},
            )
            self._track(asyncio.ensure_future(self.stop()))
        else:
            self._send_error(
                connection, "protocol", payload.get("id"), f"unknown op {op!r}"
            )

    def _dispatch_query(self, payload: Dict[str, Any], connection: _Connection) -> None:
        request_id = payload.get("id")
        try:
            request = QueryRequest.from_dict(
                {key: value for key, value in payload.items() if key != "op"}
            )
        except ProtocolError as exc:
            self._send_error(
                connection,
                "version" if isinstance(exc, VersionMismatchError) else "protocol",
                request_id if isinstance(request_id, (int, str))
                and not isinstance(request_id, bool) else None,
                str(exc),
            )
            return

        target = request.target or self._default_target
        if target not in self._targets:
            self._send_error(
                connection, "invalid", request.id, f"unknown target {target!r}"
            )
            return
        domain_size = self._domain_sizes.get(target)
        if domain_size is not None and request.end >= domain_size:
            # Validated per query at admission so one bad range can never
            # poison the coalesced batch it would have joined.
            self._send_error(
                connection, "invalid", request.id,
                f"query touches item {request.end} but target {target!r} covers "
                f"[0, {domain_size})",
            )
            return

        # Admission control: explicit overloaded responses, never unbounded
        # queues.  Checked before enqueueing so rejections are immediate.
        if self._draining:
            self._reject_overloaded(
                connection, request.id, "draining", "daemon is draining for shutdown"
            )
            return
        if connection.inflight >= self._config.max_inflight_per_client:
            self._reject_overloaded(
                connection, request.id, "inflight",
                f"client in-flight cap reached ({self._config.max_inflight_per_client})",
            )
            return
        if self._m_pending.value >= self._config.max_pending:
            self._reject_overloaded(
                connection, request.id, "pending",
                f"server pending queue is full ({self._config.max_pending})",
            )
            return

        # Counted before enqueueing: a max_batch flush answers (and uncounts)
        # the query inside _enqueue.
        connection.inflight += 1
        self._enqueue(target, request, connection)

    def _reject_overloaded(self, connection: _Connection, request_id: Any,
                           reason: str, detail: str) -> None:
        """Count, log and answer one admission-control rejection.

        The overload log is rate-limited per reason — an overloaded daemon
        must not amplify its own overload with log volume; the suppressed
        count rides on the next allowed record.
        """
        self._m_rejections.labels(reason=reason).inc()
        if self._overload_limiter.allow(reason):
            log_event(
                self._log, logging.WARNING, "daemon.overload",
                reason=reason, request_id=request_id,
                pending=int(self._m_pending.value),
                suppressed=self._overload_limiter.drain_suppressed(reason),
            )
        self._send(
            connection, error_response(request_id, detail, status=STATUS_OVERLOADED).to_dict()
        )

    # ------------------------------------------------------------------
    # The coalescer
    # ------------------------------------------------------------------
    def _enqueue(self, target: str, request: QueryRequest, connection: _Connection) -> None:
        bucket = self._pending.setdefault(target, [])
        bucket.append((request, connection))
        self._m_pending.inc()
        if len(bucket) >= self._config.max_batch:
            handle = self._flush_handles.pop(target, None)
            if handle is not None:
                handle.cancel()
            self._flush(target)
        elif target not in self._flush_handles:
            # First query of a window opens it; every query arriving before
            # it flushes rides the same engine call.  After a lone-query
            # flush, waiting coalesced nothing, so flush on the next loop
            # turn (queries read in this turn still join); otherwise arm the
            # window_ms timer.
            loop = asyncio.get_running_loop()
            if target in self._next_turn:
                handle = loop.call_soon(self._flush_window, target)
            else:
                handle = loop.call_later(
                    self._config.window_ms / 1000.0, self._flush_window, target
                )
            self._flush_handles[target] = handle

    def _flush_window(self, target: str) -> None:
        self._flush_handles.pop(target, None)
        self._flush(target)

    def _flush(self, target: str) -> None:
        """Answer everything pending for ``target`` with one engine call.

        Synchronous by design: the engine call is one dense vectorised
        evaluation, and answering a whole window in one step keeps batch
        accounting exact.  Each connection's answers then leave in one
        ``write``; a connection that has closed meanwhile is skipped.  Any
        failure is converted into per-query error responses — the daemon
        never crashes a connection over one bad batch.
        """
        pending = self._pending.pop(target, [])
        if not pending:
            return
        self._m_pending.dec(len(pending))
        if len(pending) == 1:
            self._next_turn.add(target)
        else:
            self._next_turn.discard(target)
        requests = [request for request, _ in pending]
        trace_flush = self._config.slow_query_ms is not None
        started = time.perf_counter()
        if trace_flush:
            # Capture the span tree locally (independently of the global
            # telemetry flag) so a slow flush can be logged with full
            # per-stage forensics; detach so the tree roots at this flush.
            with capture_spans(detach=True) as flush_spans:
                responses, rung = self._answer_pending(target, requests)
        else:
            flush_spans = []
            responses, rung = self._answer_pending(target, requests)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._m_flush_ms.observe(elapsed_ms)
        if trace_flush and elapsed_ms >= float(self._config.slow_query_ms or 0.0):
            self._m_slow.inc()
            log_event(
                self._slow_log, logging.WARNING, "daemon.slow_query",
                target=target, batch=len(requests), rung=rung,
                wall_ms=round(elapsed_ms, 4),
                threshold_ms=self._config.slow_query_ms,
                window_ms=self._config.window_ms,
                queries=[request.to_dict() for request in requests[:8]],
                spans=[record.to_dict() for record in flush_spans],
            )
        lines: Dict[_Connection, List[str]] = {}
        for (_, connection), response in zip(pending, responses):
            lines.setdefault(connection, []).append(_encode_json(response.to_dict()))
        for connection, encoded in lines.items():
            connection.inflight -= len(encoded)
            if not connection.writer.is_closing():
                connection.writer.write(("\n".join(encoded) + "\n").encode("utf-8"))

    def _answer_pending(
        self, target: str, requests: List[QueryRequest]
    ) -> Tuple[List[QueryResponse], str]:
        """Resolve and answer one coalesced batch; never raises.

        Returns the per-query responses plus the degradation-ladder rung the
        engine came from (``"error"`` when the batch failed internally).
        """
        rung = "error"
        with span("daemon.flush", target=target, batch=len(requests)) as trace:
            try:
                with span("daemon.resolve_engine", target=target):
                    engine, rung = self._resolve_engine(target)
                if engine is None:
                    self._m_unavailable.inc(len(requests))
                    responses = [
                        error_response(
                            request.id,
                            f"target {target!r} is not materialised and build_on_miss "
                            "is disabled",
                            status=STATUS_UNAVAILABLE,
                        )
                        for request in requests
                    ]
                else:
                    with span("daemon.answer", batch=len(requests)):
                        batch = QueryBatch.from_requests(requests)
                        answers = engine.answer(batch)
                        errors = (
                            engine.attribute_errors(batch)
                            if engine.has_error_attribution
                            else None
                        )
                        responses = responses_for(requests, answers, errors)
                    self._m_batches.inc()
                    self._m_queries.inc(len(requests))
                    self._m_batch_size.observe(len(requests))
                    if len(requests) > self._m_largest_batch.value:
                        self._m_largest_batch.set(len(requests))
            except Exception as exc:  # noqa: BLE001 - the daemon must not die
                self._m_errors.labels(kind="internal").inc(len(requests))
                responses = [
                    error_response(request.id, f"internal error answering batch: {exc}")
                    for request in requests
                ]
            trace.set(rung=rung)
        return responses, rung
