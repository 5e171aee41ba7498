"""Thin stdlib HTTP front for the coloring service, plus client helpers.

The protocol is deliberately small and JSON-only:

- ``POST /submit`` — body ``{"input": name, "scale": s, "seed": gseed,
  "config": {RunConfig.to_dict()}}``; validates the request, takes the
  named dataset stand-in from the service's graph memo (built on first
  use, see :meth:`ColoringService.dataset`), and admits a job.  ``scale``
  must be finite and > 0, ``seed`` a non-negative integer.
  ``{"graph_file": path, ...}``
  instead of ``input`` colors a server-side graph file or
  :mod:`repro.graph.store` directory (stores open memory-mapped, so a
  graph bigger than the cache budget serves out-of-core); it is read on
  every submit, never memoized, since the file can change on disk.  Replies
  ``202`` with ``{"job_id", "key", "status"}`` (``status`` is already
  ``"done"`` for a repeat answered from the memory cache at admission),
  ``400`` for malformed requests, or ``429`` with the admission reason
  under backpressure.
- ``GET /result/<id>[?colors=1]`` — job lifecycle summary (``404`` for
  unknown ids); once done, balance/color counts, and the full coloring
  array when ``colors=1`` is asked for.
- ``GET /stats`` — the service's merged queue/scheduler/cache counters.
- ``GET /healthz`` — three-state health (``live``/``ready``/``degraded``
  with the degradation reasons) and backlog.

``/submit`` and ``/mutate`` accept an optional ``deadline_ms`` — a
wall-clock budget from admission; jobs that outlive it are failed fast
with ``reason="deadline"``.

Routing lives in the socketless :func:`dispatch` function so the whole
protocol is unit-testable in-process; :class:`ServeHandler` merely
bridges it onto :class:`http.server.ThreadingHTTPServer`.  The client
half (:func:`submit_job`, :func:`fetch_json`, :func:`wait_for_result`)
uses only :mod:`urllib`, so ``python -m repro submit`` needs no
third-party HTTP stack.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..graph.datasets import DATASETS
from ..graph.delta import MutationBatch
from ..run.config import RunConfig
from .queue import AdmissionError
from .service import ColoringService, MutationError, dataset_params

__all__ = ["ServeHandler", "dispatch", "fetch_json", "make_server",
           "mutate_job", "submit_job", "wait_for_result"]


# ----------------------------------------------------------------------
# socketless routing core
# ----------------------------------------------------------------------
def dispatch(service: ColoringService, method: str, path: str,
             body: dict | None = None) -> tuple[int, dict]:
    """Route one request; returns ``(http_status, json_payload)``.

    Pure function of the service and the request — no sockets, no
    threads — so tests drive the full protocol deterministically.

    An unexpected handler exception never leaks a raw traceback to the
    client: it is counted (``http_errors`` in ``/stats``), recorded on
    the service's recorder, and answered as a structured
    ``500 {"error": reason}``.
    """
    try:
        return _route(service, method, path, body)
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        reason = f"internal error: {type(exc).__name__}: {exc}"
        service.counts.add("http_errors")
        service.recorder.event("serve_http_error", method=method,
                               path=path, error=reason)
        return 500, {"error": reason}


def _route(service: ColoringService, method: str, path: str,
           body: dict | None = None) -> tuple[int, dict]:
    split = urlsplit(path)
    route = split.path.rstrip("/") or "/"
    query = parse_qs(split.query)

    if method == "POST" and route == "/submit":
        return _submit(service, body or {})
    if method == "POST" and route == "/mutate":
        return _mutate(service, body or {})
    if method == "GET" and route.startswith("/result/"):
        return _result(service, route[len("/result/"):], query)
    if method == "GET" and route == "/stats":
        return 200, service.stats()
    if method == "GET" and route == "/healthz":
        return 200, service.healthz()
    return 404, {"error": f"no route for {method} {route}"}


def _submit(service: ColoringService, body: dict) -> tuple[int, dict]:
    if not isinstance(body, dict):
        return 400, {"error": "submit body must be a JSON object"}
    unknown = sorted(set(body) - {"input", "scale", "seed", "config",
                                  "graph_file", "tenant", "priority",
                                  "deadline_ms"})
    if unknown:
        return 400, {"error": f"unknown submit field(s) {unknown}; expected "
                              "input/scale/seed/config/graph_file/tenant/"
                              "priority/deadline_ms"}
    tenant = body.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        return 400, {"error": "tenant must be a string or null"}
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            return 400, {"error": "deadline_ms must be a number or null"}
    graph_file = body.get("graph_file")
    if graph_file is not None and "input" in body:
        return 400, {"error": "give either 'input' or 'graph_file', not both"}
    if graph_file is None:
        name = body.get("input", "cnr")
        if name not in DATASETS:
            return 400, {"error": f"unknown input {name!r}; choose from "
                                  f"{sorted(DATASETS)}"}
    try:
        scale, graph_seed = dataset_params(body.get("scale", 0.25),
                                           body.get("seed", 0))
        config = RunConfig.from_dict(body.get("config", {}))
        if graph_file is not None:
            from ..graph.store import load_graph_file

            graph = load_graph_file(str(graph_file))
        else:
            graph = service.dataset(name, scale=scale, seed=graph_seed)
    except ValueError as exc:
        return 400, {"error": str(exc)}
    try:
        job = service.submit(graph, config, tenant=tenant,
                             priority=str(body.get("priority", "normal")),
                             deadline_ms=deadline_ms)
    except AdmissionError as exc:
        status = 429 if _is_backpressure(exc) else 400
        return status, {"error": exc.reason}
    return 202, {"job_id": job.id, "key": job.key, "status": job.status}


def _is_backpressure(exc: AdmissionError) -> bool:
    """429 (retryable: queue/quota pressure) vs 400 (caller error)."""
    return (exc.reason.startswith("queue full")
            or "quota exhausted" in exc.reason)


def _mutate(service: ColoringService, body: dict) -> tuple[int, dict]:
    """``POST /mutate``: re-color a finished job's mutated graph.

    Body: ``{"base_job_id": id, "delta": MutationBatch.to_dict(),
    "mode": m, "threads": t}`` — only ``base_job_id`` and ``delta`` are
    required.  Replies ``202`` like ``/submit`` (plus the dirty-vertex
    count), ``404`` for an unknown base job, ``409`` when the base is not
    done yet, ``400`` for a malformed delta or an unknown field, ``429``
    under backpressure.
    """
    if not isinstance(body, dict):
        return 400, {"error": "mutate body must be a JSON object"}
    unknown = sorted(set(body) - {"base_job_id", "delta", "mode", "threads",
                                  "tenant", "priority", "deadline_ms"})
    if unknown:
        return 400, {"error": f"unknown mutate field(s) {unknown}; expected "
                              "base_job_id/delta/mode/threads/tenant/"
                              "priority/deadline_ms"}
    tenant = body.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        return 400, {"error": "tenant must be a string or null"}
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            return 400, {"error": "deadline_ms must be a number or null"}
    try:
        base_job_id = int(body["base_job_id"])
    except (KeyError, TypeError, ValueError):
        return 400, {"error": "mutate needs an integer 'base_job_id'"}
    if "delta" not in body:
        return 400, {"error": "mutate needs a 'delta' object "
                              "(add_edges/remove_edges/add_vertices)"}
    try:
        threads = int(body.get("threads", 1))
    except (TypeError, ValueError):
        return 400, {"error": "threads must be an int"}
    try:
        batch = MutationBatch.from_dict(body["delta"])
    except ValueError as exc:
        return 400, {"error": str(exc)}
    try:
        job = service.mutate(base_job_id, batch,
                             mode=str(body.get("mode", "sequential")),
                             threads=threads, tenant=tenant,
                             priority=str(body.get("priority", "normal")),
                             deadline_ms=deadline_ms)
    except MutationError as exc:
        return exc.status, {"error": exc.reason}
    except AdmissionError as exc:
        status = 429 if _is_backpressure(exc) else 400
        return status, {"error": exc.reason}
    except ValueError as exc:
        return 400, {"error": str(exc)}
    return 202, {"job_id": job.id, "key": job.key, "status": job.status,
                 "base_job_id": base_job_id,
                 "dirty_vertices": job.meta["dirty_vertices"]}


def _result(service: ColoringService, id_text: str, query: dict) -> tuple[int, dict]:
    try:
        job_id = int(id_text)
    except ValueError:
        return 400, {"error": f"job id must be an integer, got {id_text!r}"}
    job = service.result(job_id)
    if job is None:
        return 404, {"error": f"unknown job id {job_id}"}
    payload = job.describe()
    if query.get("colors", ["0"])[-1] in ("1", "true") and job.result is not None:
        payload["colors"] = job.result.coloring.colors.tolist()
    return 200, payload


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------
class ServeHandler(BaseHTTPRequestHandler):
    """One-request bridge from ``http.server`` onto :func:`dispatch`."""

    service: ColoringService  # set by make_server on the subclass
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service's recorder is the observability channel

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        status, payload = dispatch(self.service, "GET", self.path)
        self._reply(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"malformed JSON body: {exc}"})
            return
        status, payload = dispatch(self.service, "POST", self.path, body)
        self._reply(status, payload)


def make_server(service: ColoringService, host: str = "127.0.0.1",
                port: int = 8734) -> ThreadingHTTPServer:
    """Bind a threading HTTP server to *service* (``port=0`` picks a free one).

    The caller owns both lifecycles: ``service.start()`` for the
    scheduling pump and ``server.serve_forever()`` for the socket loop.
    """
    handler = type("BoundServeHandler", (ServeHandler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


# ----------------------------------------------------------------------
# client helpers (python -m repro submit)
# ----------------------------------------------------------------------
def fetch_json(base_url: str, path: str, timeout: float = 10.0) -> dict:
    """GET ``base_url + path`` and decode the JSON reply (errors included)."""
    req = urllib.request.Request(base_url.rstrip("/") + path)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read().decode("utf-8"))


def submit_job(base_url: str, payload: dict, timeout: float = 10.0) -> dict:
    """POST one submit *payload*; returns the decoded JSON reply."""
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        base_url.rstrip("/") + "/submit", data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read().decode("utf-8"))


def mutate_job(base_url: str, payload: dict, timeout: float = 10.0) -> dict:
    """POST one mutate *payload* (see ``/mutate``); returns the JSON reply."""
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        base_url.rstrip("/") + "/mutate", data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read().decode("utf-8"))


def wait_for_result(base_url: str, job_id: int, *, timeout: float = 60.0,
                    poll_s: float = 0.05) -> dict:
    """Poll ``/result/<id>`` until the job is terminal or *timeout* expires."""
    deadline = time.monotonic() + timeout
    while True:
        payload = fetch_json(base_url, f"/result/{job_id}")
        if payload.get("status") in ("done", "failed") or "error" in payload:
            return payload
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"job {job_id} still {payload.get('status')!r} after {timeout}s"
            )
        time.sleep(poll_s)
