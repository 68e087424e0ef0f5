"""Async campaign service: queue, worker, result cache, HTTP front end.

``repro serve`` runs this.  The server is a minimal HTTP/1.1 loop on
stdlib :mod:`asyncio` (no aiohttp — the container has none, and the
protocol surface is four routes), designed around three properties:

* **bounded backpressure** — submissions land in a bounded
  :class:`asyncio.Queue`; when it is full the service answers ``503``
  immediately instead of buffering unboundedly (the "millions of
  users" failure mode is a full queue, not a dead server);
* **one campaign at a time** — weaving rewrites classes
  process-globally, so a single worker coroutine drains the queue and
  runs each campaign in an executor thread (per-run timeouts still hold:
  they apply to campaigns with ``workers``, whose shard processes are
  their own main thread and take SIGALRM);
* **content-addressed results** — a finished campaign is cached under
  :func:`~repro.service.cache.submission_digest`; a repeat submission
  of the same source + canonical config is answered from the cache
  with *zero* subject executions, verifiable via
  ``runs_executed_total`` in ``GET /stats`` and the
  ``result_cache_hits`` telemetry field of the response.  With
  ``cache_path=`` the cache persists across restarts (crash-safe JSONL
  journal — see :mod:`repro.service.cache`), so even a *restarted*
  server answers repeats without re-running anything.

Overload and shutdown behavior (the robustness layer):

* a full queue is handled by a pluggable **load-shedding policy** —
  ``reject`` (503 the newcomer, the default), ``shed-oldest`` (drop the
  oldest queued campaign with a terminal ``shed`` event and admit the
  newcomer), or ``cost-aware`` (admit only while the statically
  estimated pending work fits ``max_pending_cost``; see
  :func:`~repro.service.subjects.estimate_cost`).  Every 503 carries a
  ``Retry-After`` header derived from observed campaign wall times;
* request bodies are bounded: a ``POST`` without ``Content-Length`` is
  ``411``, one larger than ``max_body_bytes`` is ``413`` — the server
  never trusts the client with its memory;
* ``SIGTERM``/``SIGINT`` trigger a **graceful drain**: admission stops
  (503 + Retry-After; cache hits are still served), queued and running
  campaigns finish and emit their terminal events (closing any open
  ``/events`` streams), then the listener shuts down.

Routes::

    POST /campaigns            {"source": "...", "config": {...}, "name": "..."}
                               -> 200 cached result | 202 queued | 400 | 503
    GET  /campaigns/<id>       status (result embedded once done)
    GET  /campaigns/<id>/events  NDJSON progress stream (Connection: close)
    GET  /stats                queue depth, cache counters, runs_executed_total
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.virtualsource import unregister_virtual_source
from repro.experiments.campaign import run_app_campaign
from repro.resilience.chaos import fire as _fault_site

from .cache import ResultCache, submission_digest
from .subjects import (
    SubmissionError,
    build_subject,
    canonical_config,
    compile_source,
    estimate_cost,
    subject_filename,
)

__all__ = ["CampaignRecord", "CampaignService", "ServiceServer", "serve"]

#: Campaign states a record moves through (terminal: done/failed/shed).
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_SHED = "shed"
TERMINAL = frozenset({STATUS_DONE, STATUS_FAILED, STATUS_SHED})

#: Load-shedding policies the service accepts.
SHED_POLICIES = ("reject", "shed-oldest", "cost-aware")

#: Default request-body bound (1 MiB — generous for source + config).
DEFAULT_MAX_BODY_BYTES = 1_048_576

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class CampaignRecord:
    """One submitted campaign as the service tracks it."""

    id: str
    name: str
    digest: str
    source: str
    config: Dict[str, Any]
    status: str = STATUS_QUEUED
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Estimated cost reserved in the pending budget (``cost-aware`` only).
    cost: int = 0

    def summary(self) -> Dict[str, Any]:
        out = {
            "id": self.id,
            "name": self.name,
            "digest": self.digest,
            "status": self.status,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["result"] = self.result
        return out


class CampaignService:
    """The queue + worker + cache core, independent of the HTTP layer.

    Usable without a running event loop: :meth:`submit` is synchronous
    (it only validates, consults the cache, and enqueues), and
    :meth:`process_one` drains one queued campaign inline — which is
    how the tests (and the bench smoke) drive the service
    deterministically.  The HTTP layer adds a worker coroutine that
    does the same draining in an executor thread.
    """

    def __init__(
        self,
        *,
        queue_size: int = 8,
        cache_capacity: int = 128,
        cache_path: Optional[str] = None,
        policy: str = "reject",
        max_pending_cost: Optional[int] = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown load-shedding policy {policy!r} "
                f"(known: {', '.join(SHED_POLICIES)})"
            )
        if max_pending_cost is not None and max_pending_cost < 1:
            raise ValueError("max_pending_cost must be >= 1")
        if policy == "cost-aware" and max_pending_cost is None:
            raise ValueError("cost-aware policy needs max_pending_cost")
        self.queue: "asyncio.Queue[CampaignRecord]" = asyncio.Queue(
            maxsize=queue_size
        )
        self.cache = ResultCache(cache_capacity, path=cache_path)
        self.policy = policy
        self.max_pending_cost = max_pending_cost
        self.campaigns: Dict[str, CampaignRecord] = {}
        #: Subject executions performed by campaigns this service ran —
        #: the number a cache hit must leave untouched.
        self.runs_executed_total = 0
        #: Campaigns dropped by the shed-oldest policy.
        self.shed_total = 0
        #: True once a graceful shutdown began: admission stops (503),
        #: cache hits are still served, in-flight campaigns finish.
        self.draining = False
        self._ids = itertools.count(1)
        self._events_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending_cost = 0
        self._wall_ema: Optional[float] = None

    # -- submission --------------------------------------------------------

    def submit(
        self,
        source: str,
        config: Optional[Dict[str, Any]] = None,
        name: str = "subject",
    ) -> Tuple[Dict[str, Any], int]:
        """Accept one submission; returns ``(response payload, status)``.

        * cached result -> ``(payload, 200)`` with ``cached: true`` —
          the campaign is *not* re-run (even while draining), and none
          of the submitted code is compiled or executed;
        * accepted -> ``(queued summary, 202)``;
        * draining, queue full (``reject``), or over the cost budget
          (``cost-aware``) -> ``(error, 503)`` with a ``retry_after``
          hint; under ``shed-oldest`` a full queue instead drops the
          oldest queued campaign (terminal ``shed`` event) and admits
          the newcomer;
        * invalid config, or source that does not compile ->
          :class:`SubmissionError` (the HTTP layer maps it to ``400``).
          Source that compiles but fails when executed (at definition
          time, or with no ``workload()`` or class) is accepted, and its
          campaign ends ``failed``.
        """
        if not isinstance(source, str) or not source.strip():
            raise SubmissionError("source must be non-empty Python source")
        cfg = canonical_config(config)
        digest = submission_digest(source, cfg)
        cached = self.cache.get(digest)
        if cached is not None:
            persisted = self.cache.is_persisted(digest)
            return self._cached_response(cached, persisted=persisted), 200
        # Compile, but run nothing: a syntax error is a 400 at submit
        # time, not a failed campaign discovered by polling.
        compile_source(source)
        if self.draining:
            return self._unavailable("service is draining for shutdown"), 503
        cost = 0
        if self.policy == "cost-aware":
            cost = estimate_cost(source, cfg)
            with self._state_lock:
                pending = self._pending_cost
            # An idle service admits any single campaign, however big —
            # the budget bounds *accumulation*, not ambition.
            if pending > 0 and pending + cost > self.max_pending_cost:
                return (
                    self._unavailable(
                        f"estimated cost {cost} does not fit the pending "
                        f"budget ({pending}/{self.max_pending_cost})"
                    ),
                    503,
                )
        record = CampaignRecord(
            id=f"c{next(self._ids)}",
            name=name,
            digest=digest,
            source=source,
            config=cfg,
            cost=cost,
        )
        try:
            self.queue.put_nowait(record)
        except asyncio.QueueFull:
            if self.policy != "shed-oldest" or not self._shed_oldest():
                return (
                    self._unavailable("campaign queue is full, retry later"),
                    503,
                )
            self.queue.put_nowait(record)
        if cost:
            with self._state_lock:
                self._pending_cost += cost
        self.campaigns[record.id] = record
        self._emit(record, {"event": "queued", "digest": digest})
        return record.summary(), 202

    def _shed_oldest(self) -> bool:
        """Drop the oldest *queued* campaign to admit a newer one.

        The shed record gets a terminal status and event (so pollers
        and open ``/events`` streams see a definitive outcome, not a
        silent disappearance) and its reserved cost is released.
        """
        try:
            victim = self.queue.get_nowait()
        except asyncio.QueueEmpty:
            return False  # everything queued is already running
        self.queue.task_done()
        with self._state_lock:
            self._pending_cost = max(0, self._pending_cost - victim.cost)
        self.shed_total += 1
        victim.status = STATUS_SHED
        victim.error = "shed under load (shed-oldest policy)"
        self._emit(victim, {"event": "shed", "error": victim.error})
        return True

    def _unavailable(self, message: str) -> Dict[str, Any]:
        """The body of every 503: why, plus how long to back off."""
        payload: Dict[str, Any] = {
            "error": message,
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.queue.maxsize,
            "retry_after": self.retry_after_seconds(),
        }
        if self.draining:
            payload["draining"] = True
        return payload

    def retry_after_seconds(self) -> int:
        """A ``Retry-After`` estimate: observed mean campaign wall time
        times the queue depth ahead of the client, clamped to [1, 120]."""
        base = self._wall_ema if self._wall_ema is not None else 1.0
        estimate = base * (self.queue.qsize() + 1)
        return int(max(1, min(120, math.ceil(estimate))))

    def begin_drain(self) -> None:
        """Stop admitting new campaigns; already-queued work continues."""
        self.draining = True

    def _cached_response(
        self, payload: Dict[str, Any], *, persisted: bool = False
    ) -> Dict[str, Any]:
        # Deep copy via JSON so the cached entry stays pristine, then
        # mark the copy: this answer cost zero subject executions.
        response = json.loads(json.dumps(payload))
        response["cached"] = True
        telemetry = response.setdefault("telemetry", {})
        telemetry["result_cache_hits"] = 1
        telemetry["result_cache_misses"] = 0
        if persisted:
            # The entry survived a server restart on disk — this very
            # lookup is what cache_persist_hits counts.
            telemetry["cache_persist_hits"] = 1
        return response

    # -- execution ---------------------------------------------------------

    def process_one(self) -> Optional[CampaignRecord]:
        """Drain and run one queued campaign inline (test/bench path)."""
        try:
            record = self.queue.get_nowait()
        except asyncio.QueueEmpty:
            return None
        try:
            self._run(record)
        finally:
            self.queue.task_done()
        return record

    def _emit(self, record: CampaignRecord, event: Dict[str, Any]) -> None:
        payload = {"id": record.id}
        payload.update(event)
        with self._events_lock:
            record.events.append(payload)

    def _run(self, record: CampaignRecord) -> None:
        """Run one campaign (called from the worker's executor thread)."""
        started = time.perf_counter()
        try:
            self._run_inner(record)
        finally:
            with self._state_lock:
                self._pending_cost = max(0, self._pending_cost - record.cost)
                wall = time.perf_counter() - started
                # EMA of campaign wall times feeds Retry-After.
                if self._wall_ema is None:
                    self._wall_ema = wall
                else:
                    self._wall_ema = 0.3 * wall + 0.7 * self._wall_ema

    def _run_inner(self, record: CampaignRecord) -> None:
        record.status = STATUS_RUNNING
        self._emit(record, {"event": "started"})
        cfg = record.config

        def progress(done: int, total: int) -> None:
            self._emit(
                record,
                {"event": "progress", "runs_done": done, "runs_total": total},
            )

        try:
            # The one build of this subject: shard processes inherit it.
            program = build_subject(record.source, record.name)
            if cfg["rounds"] > 1:
                program = program.scaled(cfg["rounds"])
            outcome = run_app_campaign(
                program,
                stride=cfg["stride"],
                workers=cfg["workers"],
                timeout=cfg["timeout"],
                retries=cfg["retries"],
                state_backend=cfg["state_backend"],
                trace_derive=cfg["trace_derive"],
                progress=progress,
            )
        except Exception as exc:  # the campaign, not the service, failed
            record.status = STATUS_FAILED
            record.error = f"{type(exc).__name__}: {exc}"
            self._emit(record, {"event": "failed", "error": record.error})
            return
        finally:
            # The campaign is over: keep no submitted source behind.
            unregister_virtual_source(
                subject_filename(record.source, record.name)
            )

        detection = outcome.detection
        telemetry = detection.telemetry
        if telemetry is not None:
            telemetry.result_cache_misses = 1
        self.runs_executed_total += detection.runs_executed
        payload = {
            "id": record.id,
            "name": record.name,
            "digest": record.digest,
            "config": dict(cfg),
            "cached": False,
            "total_points": detection.total_points,
            "runs_executed": detection.runs_executed,
            "genuine_failures": list(detection.genuine_failures),
            "classes": outcome.report.class_count,
            "methods": outcome.report.method_count,
            "injections": outcome.report.injection_count,
            "classification": json.loads(outcome.classification.to_json()),
            "log": json.loads(detection.log.to_json()),
            "telemetry": telemetry.to_dict() if telemetry is not None else {},
        }
        self.cache.put(record.digest, payload)
        record.result = payload
        record.status = STATUS_DONE
        self._emit(
            record,
            {
                "event": "completed",
                "runs_executed": detection.runs_executed,
                "total_points": detection.total_points,
            },
        )

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        out = {
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.queue.maxsize,
            "campaigns": len(self.campaigns),
            "runs_executed_total": self.runs_executed_total,
            "result_cache": self.cache.stats(),
            "policy": self.policy,
            "draining": self.draining,
            "shed_total": self.shed_total,
        }
        if self.policy == "cost-aware":
            with self._state_lock:
                out["pending_cost"] = self._pending_cost
        if self.max_pending_cost is not None:
            out["max_pending_cost"] = self.max_pending_cost
        return out

    def snapshot_events(
        self, record: CampaignRecord, start: int
    ) -> Tuple[List[Dict[str, Any]], str]:
        """Events from *start* on, plus the status observed *after* the
        copy — so a streamer that sees a terminal status with no newer
        events knows the stream is complete."""
        with self._events_lock:
            events = list(record.events[start:])
        return events, record.status


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceServer:
    """The asyncio HTTP/1.1 front end around a :class:`CampaignService`."""

    def __init__(
        self,
        service: Optional[CampaignService] = None,
        *,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        **kwargs,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.service = service or CampaignService(**kwargs)
        self.max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind, start the worker coroutine, return the bound port."""
        self._worker = asyncio.ensure_future(self._work())
        self._server = await asyncio.start_server(self._handle, host, port)
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain, then stop.

        Stops admission (new submissions get 503 + Retry-After; cache
        hits are still answered), waits for every queued and running
        campaign to finish — their terminal events close any open
        ``/events`` streams — then tears the listener and worker down.
        A *timeout* bounds the drain; on expiry the remaining work is
        abandoned (their journals, if any, allow a later resume).
        """
        self.service.begin_drain()
        try:
            if timeout is None:
                await self.service.queue.join()
            else:
                await asyncio.wait_for(self.service.queue.join(), timeout)
        except asyncio.TimeoutError:
            pass
        await self.stop()

    async def _work(self) -> None:
        """Drain the queue forever, one campaign at a time.

        The campaign runs in an executor thread so the event loop keeps
        serving requests; a campaign with ``workers`` forks its shard
        processes from that thread.
        """
        loop = asyncio.get_event_loop()
        while True:
            record = await self.queue_get()
            try:
                await loop.run_in_executor(None, self.service._run, record)
            finally:
                self.service.queue.task_done()

    async def queue_get(self) -> CampaignRecord:
        return await self.service.queue.get()

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, headers = await self._read_request_head(reader)
                body = await self._read_body(reader, headers, method)
                await self._route(method, path, body, writer)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": str(exc)}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request_head(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_body(
        self,
        reader: asyncio.StreamReader,
        headers: Dict[str, str],
        method: str,
    ) -> bytes:
        """Read (and bound) the request body.

        The declared length is not trusted: a body-bearing method must
        declare one (``411`` otherwise), it must be a number (``400``),
        and it must fit ``max_body_bytes`` (``413``) — checked *before*
        a single body byte is read, so an oversized client costs the
        server a request head, not a buffer.
        """
        raw = headers.get("content-length")
        if raw is None or raw == "":
            if method in ("POST", "PUT", "PATCH"):
                raise _HttpError(
                    411, f"{method} requires a Content-Length header"
                )
            return b""
        try:
            length = int(raw)
        except ValueError:
            raise _HttpError(400, f"invalid Content-Length {raw!r}")
        if length < 0:
            raise _HttpError(400, f"invalid Content-Length {raw!r}")
        if length > self.max_body_bytes:
            raise _HttpError(
                413,
                f"body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        if length == 0:
            return b""
        return await reader.readexactly(length)

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/campaigns" and method == "POST":
            await self._post_campaign(body, writer)
        elif path == "/stats" and method == "GET":
            await self._send_json(writer, 200, self.service.stats())
        elif path.startswith("/campaigns/") and method == "GET":
            rest = path[len("/campaigns/"):]
            if rest.endswith("/events"):
                await self._stream_events(rest[: -len("/events")].rstrip("/"), writer)
            else:
                record = self._find(rest)
                await self._send_json(writer, 200, record.summary())
        elif path in ("/campaigns", "/stats") or path.startswith("/campaigns/"):
            raise _HttpError(405, f"method {method} not allowed on {path}")
        else:
            raise _HttpError(404, f"no route for {path}")

    def _find(self, campaign_id: str) -> CampaignRecord:
        record = self.service.campaigns.get(campaign_id)
        if record is None:
            raise _HttpError(404, f"no campaign {campaign_id!r}")
        return record

    async def _post_campaign(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not JSON: {exc}")
        if not isinstance(data, dict):
            raise _HttpError(400, "body must be a JSON object")
        try:
            payload, status = self.service.submit(
                data.get("source", ""),
                data.get("config"),
                name=str(data.get("name", "subject")),
            )
        except SubmissionError as exc:
            raise _HttpError(400, str(exc))
        headers = None
        if status == 503 and "retry_after" in payload:
            headers = {"Retry-After": str(payload["retry_after"])}
        await self._send_json(writer, status, payload, headers=headers)

    async def _stream_events(
        self, campaign_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """NDJSON progress stream: one event per line, closed at the
        campaign's terminal event (``Connection: close`` framing)."""
        record = self._find(campaign_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        sent = 0
        while True:
            events, status = self.service.snapshot_events(record, sent)
            for event in events:
                # Chaos seam: an armed disconnect fault raises
                # ConnectionResetError here, exactly like a subscriber
                # vanishing mid-stream; _handle absorbs it and the
                # campaign (and every other connection) carries on.
                _fault_site("stream.write")
                writer.write(
                    json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
                )
            if events:
                await writer.drain()
                sent += len(events)
            elif status in TERMINAL:
                break
            else:
                await asyncio.sleep(0.02)

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        reason = _REASONS.get(status, "OK")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    queue_size: int = 8,
    cache_capacity: int = 128,
    cache_path: Optional[str] = None,
    policy: str = "reject",
    max_pending_cost: Optional[int] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> None:
    """Blocking entry point for ``repro serve``.

    ``SIGTERM`` and ``SIGINT`` (Ctrl-C) both trigger a graceful drain:
    admission stops, in-flight campaigns finish and emit their terminal
    events, then the process exits.  A second Ctrl-C aborts the drain.
    """

    async def _main() -> None:
        server = ServiceServer(
            queue_size=queue_size,
            cache_capacity=cache_capacity,
            cache_path=cache_path,
            policy=policy,
            max_pending_cost=max_pending_cost,
            max_body_bytes=max_body_bytes,
        )
        bound = await server.start(host, port)
        print(f"repro service listening on http://{host}:{bound}")
        print("POST /campaigns  GET /campaigns/<id>[/events]  GET /stats")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platform without handlers
        try:
            await stop.wait()
        finally:
            depth = server.service.queue.qsize()
            if depth:
                print(f"draining {depth} queued campaign(s) ...")
            await server.shutdown()
            print("repro service stopped")

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
