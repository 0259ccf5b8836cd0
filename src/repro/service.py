"""Long-lived JSON analysis service (``repro serve``).

A stdlib-only HTTP adapter over one shared
:class:`repro.api.Analyzer` session (which owns the content-addressed
result cache, the solver backend and the worker pool), so repeated
analysis traffic short-circuits to cache lookups instead of re-running
LP synthesis:

``POST /analyze``
    Body is one :class:`~repro.batch.spec.AnalysisRequest` object
    (same JSON shape as a spec-file task), a list of tasks, or a full
    ``{"defaults": ..., "tasks": ...}`` spec (suite expansion
    included).  A single request returns its ``AnalysisReport`` JSON —
    byte-identical to what the CLI/engine produce for the same request
    against the same cache; a multi-task body returns
    ``{"schema": "repro-service/v2", "reports": [...]}``.
``POST /lint``
    Same body shapes as ``/analyze``, but runs only the static checks
    of :mod:`repro.check` (abstract interpretation + lint rules +
    invariant validation) — no LP work, no cache.  A single request
    returns its diagnostics directly; a multi-task body returns
    per-target diagnostics with error/warning tallies.
``GET /benchmarks``
    The benchmark registry (names, categories, degrees, anchors).
``GET /options/defaults``
    The :class:`repro.api.AnalysisOptions` defaults as JSON — what an
    omitted field in a POSTed task means.
``GET /version``
    repro + schema versions and the registered LP solver backends.
``GET /cache/stats``
    Live counters + disk census of the backing store.
``GET /healthz``
    Liveness probe with version and uptime.

Analysis failures (bad benchmark name, parse errors, infeasible LPs)
are *not* HTTP errors: they come back as structured reports with
``status: "error"`` inside a 200 response, exactly as in batch output.
HTTP 400 is reserved for malformed envelopes (bad JSON, unknown
request fields, a setting :class:`~repro.api.AnalysisOptions` rejects —
the message names the field).  Route errors are JSON too: ``404`` for an unknown
path, ``405`` + ``Allow`` for a known path under the wrong method
(``GET /analyze``, ``POST /healthz``); an unsupported verb (``PUT``,
``DELETE``, ...) keeps the stdlib's ``501``.

Keep-alive is the fast path: connections speak HTTP/1.1 with Nagle's
algorithm off (``TCP_NODELAY``), so a client that reuses one
connection pays for a cache hit what the lookup costs, not a TCP
delayed-ACK round.  Route errors keep the connection open (a POST
body is read before the reply, so its bytes cannot pose as the next
request); ``429`` and ``503`` replies close it.

``ThreadingHTTPServer`` handles each connection on its own thread; the
shared :class:`~repro.cache.ResultCache` is thread-safe and the engine
is re-entrant.  Per-task ``timeout_s`` budgets *are* enforced on
handler threads: SIGALRM is main-thread-only, so the engine arms the
cooperative deadline of :mod:`repro.deadline`, checked at the
synthesis/simulation checkpoints — a blown budget surfaces as a
``status: "timeout"`` report exactly as in batch runs (the overshoot
is bounded by the longest uninterruptible LP step, not by the task).

Resilience (see ``docs/resilience.md``):

* **Admission control** — at most ``max_inflight`` POSTs execute
  concurrently; beyond that the service sheds load *immediately* with
  ``429`` + a ``Retry-After`` hint instead of piling up handler
  threads.  GETs are never shed.
* **Single-flight coalescing** — concurrent identical single-request
  POSTs (same cache fingerprint) collapse onto one leader's solve; the
  followers park without consuming an admission slot and answer from
  the store the leader populated.  N racers, one LP solve, N
  byte-identical responses, exact hit/miss counters.
* **Graceful drain** — SIGTERM/Ctrl-C stops accepting work (new POSTs
  get ``503`` + ``Connection: close``), waits up to the drain deadline
  for in-flight requests, prints the cache hit/miss summary, and exits
  ``0``.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import urlparse

from .api import AnalysisOptions, Analyzer, version_info
from .batch import AnalysisRequest, requests_from_spec
from .resilience import AdmissionController, SingleFlight

__all__ = ["AnalysisHTTPServer", "create_server", "run_server", "serve"]

SERVICE_SCHEMA = "repro-service/v2"

#: Default ceiling on concurrently executing POSTs.
DEFAULT_MAX_INFLIGHT = 32
#: Default seconds the drain path waits for in-flight requests.
DEFAULT_DRAIN_TIMEOUT_S = 10.0


class AnalysisHTTPServer(ThreadingHTTPServer):
    """HTTP server whose handlers share one ``Analyzer`` session."""

    daemon_threads = True

    def __init__(
        self,
        address,
        jobs: int = 1,
        cache=None,
        verbose: bool = False,
        analyzer: Optional[Analyzer] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    ):
        super().__init__(address, _Handler)
        self._owns_analyzer = analyzer is None
        if analyzer is None:
            analyzer = Analyzer(cache=cache, jobs=jobs)
        self.analyzer = analyzer
        self.verbose = verbose
        self.started = time.time()
        self.admission = AdmissionController(max_inflight)
        self.single_flight = SingleFlight()
        self.drain_timeout_s = drain_timeout_s
        self.draining = threading.Event()
        # Request-level in-flight accounting, distinct from admission
        # slots: coalesced followers hold no slot but must still be
        # awaited by the drain path; idle keep-alive connections hold
        # neither and must NOT block it.
        self._req_cond = threading.Condition()
        self._req_inflight = 0

    @property
    def jobs(self) -> int:
        return self.analyzer.jobs

    @property
    def cache(self):
        return self.analyzer.cache

    @property
    def port(self) -> int:
        return self.server_address[1]

    # -- drain ----------------------------------------------------------

    def request_started(self) -> None:
        with self._req_cond:
            self._req_inflight += 1

    def request_finished(self) -> None:
        with self._req_cond:
            self._req_inflight -= 1
            self._req_cond.notify_all()

    @property
    def requests_inflight(self) -> int:
        with self._req_cond:
            return self._req_inflight

    def begin_drain(self) -> None:
        """Stop accepting *work*; safe to call from a signal handler.

        The accept loop must keep running while requests are still in
        flight — a connection arriving mid-drain deserves an explicit
        503, not a silent hang in the kernel backlog.  So draining is
        flag-first: handlers start refusing work immediately, and a
        helper thread calls ``shutdown()`` only once every in-flight
        request finished (or the drain deadline expired).  The helper
        thread also sidesteps the classic deadlock of calling
        ``shutdown()`` from the ``serve_forever`` thread itself.
        """
        if self.draining.is_set():
            return
        self.draining.set()

        def _stop_accepting() -> None:
            self.wait_drained(self.drain_timeout_s)
            self.shutdown()

        threading.Thread(target=_stop_accepting, daemon=True).start()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every in-flight request finished (or timeout)."""
        with self._req_cond:
            return self._req_cond.wait_for(lambda: self._req_inflight == 0, timeout=timeout)

    def server_close(self) -> None:  # noqa: D102 - stdlib override
        super().server_close()
        # Only release a session this server created; a lent Analyzer
        # (create_server(analyzer=...)) stays usable by its owner.
        if self._owns_analyzer:
            self.analyzer.close()


def _benchmark_listing() -> List[Dict[str, Any]]:
    from .programs import all_benchmarks

    return [
        {
            "name": bench.name,
            "title": bench.title,
            "category": bench.category,
            "degree": bench.degree,
            "mode": bench.mode,
            "nondeterministic": bench.has_nondeterminism,
            "init": dict(bench.init),
        }
        for bench in all_benchmarks()
    ]


#: Paths each method serves; a known path under the other method is a 405.
_GET_ROUTES = ("/healthz", "/benchmarks", "/options/defaults", "/version", "/cache/stats")
_POST_ROUTES = ("/analyze", "/lint")


def _parse_analyze_body(body: Any) -> Tuple[List[AnalysisRequest], bool]:
    """Expand a ``POST /analyze`` body into engine requests.

    Returns ``(requests, single)``; ``single`` marks the
    one-request-object form whose response is the bare report.
    """
    if isinstance(body, Mapping) and "tasks" not in body and "suite" not in body:
        return [AnalysisRequest.from_dict(body)], True
    if isinstance(body, Mapping) and "suite" in body and "tasks" not in body:
        return requests_from_spec([dict(body)]), False
    return requests_from_spec(body), False


class _Handler(BaseHTTPRequestHandler):
    server: AnalysisHTTPServer

    # Keep-alive is safe: every response carries Content-Length.
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket: headers and body go out in
    # two writes, and with Nagle on the body waits for the client's
    # delayed ACK of the headers (~40 ms per keep-alive reply).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            sys.stderr.write(f"[serve] {self.address_string()} {format % args}\n")

    # -- plumbing -------------------------------------------------------

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_throttled(self) -> None:
        """429 + Retry-After: the admission gate is full."""
        admission = self.server.admission
        self.close_connection = True
        self._send_json(
            429,
            {
                "error": "server is at capacity; retry later",
                "inflight": admission.inflight,
                "max_inflight": admission.limit,
            },
            extra_headers={
                "Retry-After": str(int(math.ceil(admission.retry_after_s))),
                "Connection": "close",
            },
        )

    def _send_draining(self) -> None:
        """503 + Connection: close — the server is shutting down."""
        self.close_connection = True
        self._send_json(
            503,
            {"error": "service is draining; not accepting new work"},
            extra_headers={"Connection": "close"},
        )

    def _send_error_json(
        self, status: int, message: str, extra_headers: Optional[Mapping[str, str]] = None
    ) -> None:
        self._send_json(status, {"error": message}, extra_headers=extra_headers)

    def _send_route_error(self, path: str, hint: str = "") -> None:
        """Answer a path this method does not serve: 405 + ``Allow``
        when the other method serves it, 404 otherwise."""
        if path in _GET_ROUTES or path in _POST_ROUTES:
            allow = "GET" if path in _GET_ROUTES else "POST"
            self._send_error_json(
                405, f"method not allowed on {path!r}; use {allow}", {"Allow": allow}
            )
        else:
            self._send_error_json(404, f"unknown path {path!r}{hint}")

    def _discard_body(self) -> None:
        """Consume a request body the route will not read, so its bytes
        do not parse as the next request on a keep-alive connection; an
        unusable ``Content-Length`` closes the connection instead."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
        elif length:
            self.rfile.read(length)

    def _read_body(self) -> Optional[Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The unread body would desynchronize a keep-alive
            # connection (its bytes parse as the next request line).
            self.close_connection = True
            self._send_error_json(400, "invalid Content-Length header")
            return None
        if length <= 0:
            self.close_connection = True
            self._send_error_json(400, "empty request body; expected JSON")
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return None

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self.server.request_started()
        try:
            self._do_get()
        finally:
            self.server.request_finished()

    def _do_get(self) -> None:
        path = urlparse(self.path).path.rstrip("/") or "/"
        if path == "/healthz":
            from . import __version__

            cache = self.server.cache
            self._send_json(
                200,
                {
                    "status": "draining" if self.server.draining.is_set() else "ok",
                    "schema": SERVICE_SCHEMA,
                    "version": __version__,
                    "jobs": self.server.jobs,
                    "cache": str(cache.root) if cache is not None else None,
                    "uptime_s": round(time.time() - self.server.started, 3),
                    "inflight": self.server.admission.inflight,
                    "max_inflight": self.server.admission.limit,
                    "rejected": self.server.admission.rejected,
                    "coalesced": self.server.single_flight.coalesced,
                },
            )
        elif path == "/benchmarks":
            listing = _benchmark_listing()
            self._send_json(
                200, {"schema": SERVICE_SCHEMA, "count": len(listing), "benchmarks": listing}
            )
        elif path == "/options/defaults":
            self._send_json(
                200, {"schema": SERVICE_SCHEMA, "defaults": AnalysisOptions().to_dict()}
            )
        elif path == "/version":
            payload = version_info()
            payload["schemas"]["service"] = SERVICE_SCHEMA
            self._send_json(200, {"schema": SERVICE_SCHEMA, **payload})
        elif path == "/cache/stats":
            cache = self.server.cache
            if cache is None:
                self._send_json(200, {"schema": SERVICE_SCHEMA, "enabled": False})
            else:
                self._send_json(
                    200, {"schema": SERVICE_SCHEMA, "enabled": True, **cache.stats().to_dict()}
                )
        else:
            self._send_route_error(path)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self.server.request_started()
        try:
            self._do_post()
        finally:
            self.server.request_finished()

    def _do_post(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path == "/lint":
            self._post_lint()
            return
        if path != "/analyze":
            self._discard_body()
            self._send_route_error(path, "; POST /analyze or POST /lint")
            return
        if self.server.draining.is_set():
            self._send_draining()
            return
        body = self._read_body()
        if body is None:
            return
        try:
            requests, single = _parse_analyze_body(body)
        except (TypeError, ValueError) as exc:
            self._send_error_json(400, f"invalid analysis request: {exc}")
            return
        if not requests:
            self._send_error_json(400, "request expands to no tasks")
            return
        if single:
            # Single-request POSTs coalesce by cache fingerprint: N
            # concurrent identical racers cost one LP solve.
            key = self.server.analyzer.request_cache_key(requests[0])
            if key is not None:
                self._analyze_coalesced(requests[0], key)
                return
        if not self.server.admission.try_acquire():
            self._send_throttled()
            return
        try:
            # --jobs applies to multi-task bodies only: fanning a
            # single-request POST across the pool would cost more than
            # the analysis it parallelizes.
            reports = self.server.analyzer.analyze_batch(
                requests, jobs=None if len(requests) > 1 else 1
            )
        finally:
            self.server.admission.release()
        if single:
            self._send_json(200, reports[0].to_dict())
        else:
            self._send_json(
                200,
                {
                    "schema": SERVICE_SCHEMA,
                    "tasks": len(reports),
                    "failed": sum(not r.ok for r in reports),
                    "reports": [r.to_dict() for r in reports],
                },
            )

    def _post_lint(self) -> None:
        """Static checks only: same body shapes as ``/analyze``, no LP
        work, no cache — diagnostics come back immediately."""
        from .check import check_request
        from .errors import ReproError

        if self.server.draining.is_set():
            self._send_draining()
            return
        body = self._read_body()
        if body is None:
            return
        try:
            requests, single = _parse_analyze_body(body)
        except (TypeError, ValueError) as exc:
            self._send_error_json(400, f"invalid lint request: {exc}")
            return
        if not requests:
            self._send_error_json(400, "request expands to no tasks")
            return
        if not self.server.admission.try_acquire():
            self._send_throttled()
            return
        try:
            targets = []
            for request in requests:
                try:
                    result = check_request(request)
                except (KeyError, ValueError, ReproError) as exc:
                    self._send_error_json(
                        400, f"invalid task {request.display_name!r}: {exc}"
                    )
                    return
                targets.append(
                    {
                        "name": request.display_name,
                        "diagnostics": result.to_dicts(),
                        "errors": len(result.errors),
                        "warnings": len(result.warnings),
                    }
                )
        finally:
            self.server.admission.release()
        if single:
            self._send_json(200, {"schema": SERVICE_SCHEMA, **targets[0]})
            return
        self._send_json(
            200,
            {
                "schema": SERVICE_SCHEMA,
                "tasks": len(targets),
                "errors": sum(t["errors"] for t in targets),
                "warnings": sum(t["warnings"] for t in targets),
                "targets": targets,
            },
        )

    def _analyze_coalesced(self, request: AnalysisRequest, key: str) -> None:
        """Run one cacheable request with single-flight coalescing.

        The leader takes an admission slot and solves; followers park
        slot-free on the flight, then answer from the cache entry the
        leader stored (an ordinary hit — counters stay exact: 1 miss +
        N-1 hits for N cold racers).  A follower that still misses
        (the leader errored, or its report was uncacheable) takes the
        normal admitted path itself.
        """
        flight, leader = self.server.single_flight.join(key)
        if leader:
            if not self.server.admission.try_acquire():
                # Propagate the shed to every racer: they would only
                # pile onto the same saturated gate.
                self.server.single_flight.finish(flight, "throttled")
                self._send_throttled()
                return
            outcome = "error"
            try:
                reports = self.server.analyzer.analyze_batch([request], jobs=1)
                outcome = "done"
            finally:
                self.server.admission.release()
                self.server.single_flight.finish(flight, outcome)
            self._send_json(200, reports[0].to_dict())
            return
        self.server.single_flight.wait(flight)
        if flight.outcome == "throttled":
            self._send_throttled()
            return
        report = self.server.analyzer.cached_report(key, request)
        if report is not None:
            self._send_json(200, report.to_dict())
            return
        # Leader failed to populate the store (error report, cache
        # write failure): run it ourselves, under admission.
        if not self.server.admission.try_acquire():
            self._send_throttled()
            return
        try:
            reports = self.server.analyzer.analyze_batch([request], jobs=1)
        finally:
            self.server.admission.release()
        self._send_json(200, reports[0].to_dict())


def create_server(
    host: str = "127.0.0.1",
    port: int = 8095,
    jobs: int = 1,
    cache=None,
    verbose: bool = False,
    analyzer: Optional[Analyzer] = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
) -> AnalysisHTTPServer:
    """Bind (but do not run) an analysis server; ``port=0`` picks a
    free port (read it back from ``server.port``).

    Pass an :class:`repro.api.Analyzer` to serve an existing session
    (its cache, solver and pool); ``jobs``/``cache`` are the shorthand
    that builds one.  ``max_inflight`` bounds concurrently executing
    POSTs (the rest are shed with 429); ``drain_timeout_s`` is how long
    a SIGTERM/Ctrl-C shutdown waits for in-flight requests.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return AnalysisHTTPServer(
        (host, port),
        jobs=jobs,
        cache=cache,
        verbose=verbose,
        analyzer=analyzer,
        max_inflight=max_inflight,
        drain_timeout_s=drain_timeout_s,
    )


def _print_cache_summary(server: AnalysisHTTPServer) -> None:
    cache = server.cache
    if cache is None:
        return
    print(
        f"repro serve: cache: {cache.hits} hits, {cache.misses} misses ({cache.root})",
        file=sys.stderr,
    )


def run_server(server: AnalysisHTTPServer) -> int:
    """Run an already-bound server until SIGTERM/SIGINT, then drain.

    A first signal stops the accept loop and waits up to
    ``server.drain_timeout_s`` for in-flight requests (new POSTs get
    503 meanwhile); the cache hit/miss summary is printed and the exit
    code is 0 on a clean shutdown.  Signal handlers are installed only
    when running on the main thread (tests drive ``serve_forever``
    from daemon threads and handle shutdown themselves).
    """
    host = server.server_address[0]
    where = f"http://{host}:{server.port}"
    cache = server.cache
    cache_line = f"cache at {cache.root}" if cache is not None else "cache disabled"
    print(
        f"repro serve: listening on {where} (jobs={server.jobs}, {cache_line})",
        file=sys.stderr,
    )
    print(f"try: curl -s {where}/healthz", file=sys.stderr)

    def _on_signal(signum, frame):
        name = signal.Signals(signum).name
        print(f"repro serve: {name} received, draining", file=sys.stderr)
        server.begin_drain()

    previous: List[Tuple[int, Any]] = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous.append((signum, signal.signal(signum, _on_signal)))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # Only reachable when no SIGINT handler was installed (non-main
        # thread embedding); still drain before closing.
        print("repro serve: interrupt received, draining", file=sys.stderr)
        server.draining.set()
    finally:
        if not server.wait_drained(server.drain_timeout_s):
            print(
                f"repro serve: drain deadline ({server.drain_timeout_s:g}s) expired with "
                f"{server.requests_inflight} request(s) still in flight",
                file=sys.stderr,
            )
        server.server_close()
        _print_cache_summary(server)
        print("repro serve: shutdown complete", file=sys.stderr)
        for signum, handler in previous:
            signal.signal(signum, handler)
    return 0


def serve(
    host: str = "127.0.0.1",
    port: int = 8095,
    jobs: int = 1,
    cache=None,
    verbose: bool = True,
    analyzer: Optional[Analyzer] = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
) -> int:
    """Bind and run the service until interrupted (convenience API)."""
    return run_server(
        create_server(
            host=host,
            port=port,
            jobs=jobs,
            cache=cache,
            verbose=verbose,
            analyzer=analyzer,
            max_inflight=max_inflight,
            drain_timeout_s=drain_timeout_s,
        )
    )
