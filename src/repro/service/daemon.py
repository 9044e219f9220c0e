"""The optimization daemon: an AF_UNIX socket front on the fair-share queue.

Protocol: newline-delimited JSON, one request line and one response line
per connection (every response carries ``"ok"``).  The wire format for
results IS :class:`~repro.pipeline.session.RunRecord` — ``record`` payloads
are exactly ``RunRecord.as_dict()``, so a client round-trips them through
``RunRecord.from_dict`` and gets the same object the bench trajectory files
store.

Verbs:

- ``ping``     → liveness + tenant roster
- ``submit``   → enqueue a job dict for a tenant; replies with the ticket
- ``status``   → submissions table + event feed since a poll cursor
- ``result``   → the finished record for a ticket (or ``pending``)
- ``stats``    → cache hit/miss counters + per-tenant fair-share ledger
- ``shutdown`` → stop accepting, drain in-flight jobs, persist the cache

Threading: the daemon's accept loop answers requests (submission is just a
ticket append — always fast) while one worker thread drains the queue a
fair round at a time.  ``shutdown`` finishes the backlog before the daemon
exits, so a submitted job is never lost to a graceful stop.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import fields
from pathlib import Path

from repro.pipeline.budget import Budget
from repro.pipeline.session import Job, RunRecord
from repro.service.queue import OptimizationQueue

__all__ = [
    "OptimizationDaemon",
    "job_to_dict",
    "job_from_dict",
    "request",
]


# ------------------------------------------------------------- wire helpers
#: Job fields a wire submission may not set: artifact paths would let any
#: client that reaches the socket write a file anywhere or unpickle one,
#: and the rest are in-process objects or test switches.  The in-process
#: queue still honours them.
LOCAL_ONLY_FIELDS = (
    "warm_start",
    "save_egraph",
    "splits",
    "extraction_key",
    "check_invariants",
)


def job_to_dict(job: Job) -> dict:
    """A JSON-ready job dict (budgets flatten to their quota dicts).

    Raises ``ValueError`` for a job that sets a local-only field."""
    payload = {}
    for f in fields(job):
        value = getattr(job, f.name)
        if f.name not in LOCAL_ONLY_FIELDS:
            payload[f.name] = value
        elif value != f.default:
            raise ValueError(f"{f.name} is local-only and cannot be sent")
    payload["phases"] = [list(phase) for phase in job.phases]
    payload["budget"] = job.budget.as_dict() if job.budget else None
    payload["verify_budget"] = (
        job.verify_budget.as_dict() if job.verify_budget else None
    )
    return payload


def job_from_dict(data: dict) -> Job:
    """Rebuild a :class:`Job` from its wire dict (unknown keys rejected by
    the dataclass itself, local-only ones here — a bad submission fails
    loudly, not silently)."""
    local = sorted(set(data) & set(LOCAL_ONLY_FIELDS))
    if local:
        raise ValueError(f"local-only job fields in a wire submission: {local}")
    payload = dict(data)
    if payload.get("phases"):
        payload["phases"] = tuple(
            tuple(phase) for phase in payload["phases"]
        )
    for key in ("budget", "verify_budget"):
        if payload.get(key) is not None:
            payload[key] = Budget(**payload[key])
    return Job(**payload)


def request(socket_path: str | Path, payload: dict, timeout: float = 30.0) -> dict:
    """One protocol exchange: connect, send a line, read the reply line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(str(socket_path))
        sock.sendall(json.dumps(payload).encode() + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    reply = b"".join(chunks)
    if not reply:
        raise ConnectionError("daemon closed the connection without a reply")
    return json.loads(reply)


# ------------------------------------------------------------------- daemon
class OptimizationDaemon:
    """Serve an :class:`OptimizationQueue` on an AF_UNIX socket."""

    def __init__(
        self,
        socket_path: str | Path,
        queue: OptimizationQueue,
        poll_s: float = 0.02,
    ) -> None:
        self.socket_path = Path(socket_path)
        self.queue = queue
        self.poll_s = poll_s
        self._stopping = threading.Event()
        self._worker: threading.Thread | None = None
        self._server: socket.socket | None = None
        #: Filled by shutdown: how many backlog jobs the drain finished and
        #: how many cache entries were persisted.
        self.shutdown_summary: dict = {}

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Bind the socket and start the drain worker (non-blocking)."""
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(str(self.socket_path))
        self._server.listen(16)
        self._server.settimeout(0.2)
        self.queue.cache.load()
        self._worker = threading.Thread(target=self._drain_loop, daemon=True)
        self._worker.start()

    def serve_forever(self) -> None:
        """Blocking accept loop; returns after a ``shutdown`` request."""
        if self._server is None:
            self.start()
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = self._server.accept()
                except socket.timeout:
                    continue
                with conn:
                    self._handle(conn)
        finally:
            self._close()

    def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
        if self.socket_path.exists():
            self.socket_path.unlink()

    def _drain_loop(self) -> None:
        while not self._stopping.is_set():
            if self.queue.pending():
                self.queue._run_round()
            else:
                time.sleep(self.poll_s)

    def _shutdown(self) -> dict:
        """Graceful stop: drain the backlog, persist the cache."""
        self._stopping.set()
        if self._worker is not None:
            self._worker.join()
        drained = len(self.queue.drain())
        persisted = self.queue.cache.persist()
        self.shutdown_summary = {"drained": drained, "persisted": persisted}
        return self.shutdown_summary

    # ------------------------------------------------------------- protocol
    def _handle(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        line = reader.readline()
        if not line:
            return
        try:
            reply = self._dispatch(json.loads(line))
        except Exception as err:  # malformed requests must not kill the daemon
            reply = {"ok": False, "error": f"{type(err).__name__}: {err}"}
        conn.sendall(json.dumps(reply).encode() + b"\n")

    def _dispatch(self, req: dict) -> dict:
        op = req.get("op")
        if op == "ping":
            return {"ok": True, "tenants": sorted(self.queue.accounts)}
        if op == "submit":
            if self._stopping.is_set():
                return {"ok": False, "error": "daemon is shutting down"}
            sub = self.queue.submit(job_from_dict(req["job"]), req["tenant"])
            return {"ok": True, "ticket": sub.ticket, "job": sub.job.name}
        if op == "status":
            cursor, events = self.queue.feed.poll(int(req.get("cursor", 0)))
            subs = [
                {
                    "ticket": sub.ticket,
                    "job": sub.job.name,
                    "tenant": sub.tenant,
                    "status": sub.status,
                }
                for sub in list(self.queue.submissions)
            ]
            return {
                "ok": True,
                "cursor": cursor,
                "events": [event.as_dict() for event in events],
                "submissions": subs,
            }
        if op == "result":
            ticket = int(req["ticket"])
            subs = list(self.queue.submissions)
            if not 0 <= ticket < len(subs):
                return {"ok": False, "error": f"no such ticket {ticket}"}
            sub = subs[ticket]
            if sub.record is None:
                return {"ok": True, "status": sub.status, "record": None}
            return {
                "ok": True,
                "status": sub.status,
                "record": sub.record.as_dict(),
            }
        if op == "stats":
            return {
                "ok": True,
                "cache": self.queue.cache.stats(),
                "ledger": self.queue.ledger(),
            }
        if op == "shutdown":
            return {"ok": True, **self._shutdown()}
        return {"ok": False, "error": f"unknown op {op!r}"}


def wait_for_result(
    socket_path: str | Path,
    ticket: int,
    timeout: float = 120.0,
    poll_s: float = 0.05,
    clock=None,
) -> RunRecord:
    """Poll ``result`` until the ticket finishes; returns the record.

    ``clock`` injects a fake monotonic clock so timeout behaviour is
    testable without waiting out the deadline.
    """
    now = clock if clock is not None else time.monotonic
    deadline = now() + timeout
    while now() < deadline:
        reply = request(socket_path, {"op": "result", "ticket": ticket})
        if not reply.get("ok"):
            raise RuntimeError(reply.get("error", "result poll failed"))
        if reply["record"] is not None:
            return RunRecord.from_dict(reply["record"])
        time.sleep(poll_s)
    raise TimeoutError(f"ticket {ticket} unfinished after {timeout:.0f}s")
