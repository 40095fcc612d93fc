"""The ``repro serve`` daemon: a threaded TCP server over the job scheduler.

One connection = one request (see :mod:`repro.serve.protocol`); handlers
are thin translations from protocol ops to :class:`JobScheduler` calls:

========  ==================================================================
op        behaviour
========  ==================================================================
ping      liveness + pid
submit    validate a :class:`~repro.serve.jobs.JobSpec`, start the job
status    one job's summary
list      every job's summary (restart-recovered jobs included)
watch     *streams* job events (round progress, state changes) until the
          job is terminal — the one multi-response op
cancel    cooperative cancellation (takes effect at the next round boundary)
stats     scheduler + lane-pool counters
lane_pids worker PID per lane (fault-injection and ops tooling)
shutdown  graceful stop: the serve loop exits after responding
========  ==================================================================

Crash semantics: the daemon journals every job transition through the
:class:`~repro.serve.jobs.JobTable`; on SIGTERM/crash nothing is flushed
beyond the last completed transition, and the next daemon started on the
same state dir recovers the table — in-flight jobs surface as
``interrupted`` + resumable.  This mirrors Distiller's crash-safe scan-dir
fine-tuning journal, generalised to a live protocol.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from typing import Optional

from ..core.engine import blas_threads
from .jobs import TERMINAL_STATES, JobSpec
from .protocol import (
    ProtocolError,
    recv_message,
    remove_endpoint,
    send_message,
    write_endpoint,
)
from .scheduler import JobScheduler

#: how often `watch` re-checks a job with no new events
WATCH_POLL_SECONDS = 0.05


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True  # in-flight handlers never block process exit


class ServeDaemon:
    """Own a scheduler, a TCP server, and the endpoint discovery file.

    With lanes (``workers > 0``) the daemon also owns its process's BLAS
    thread count: each lane runs one thread, so the daemon keeps the cores
    the lanes leave, ``max(1, cpus - workers)``, and :meth:`stop` restores
    the count it found.  Without lanes the count is left as it is.
    """

    def __init__(
        self,
        state_dir,
        workers: int = 0,
        max_jobs: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_budget_mb: Optional[float] = None,
        recover: bool = True,
    ):
        self.scheduler = JobScheduler(
            state_dir,
            workers=workers,
            max_jobs=max_jobs,
            snapshot_budget_mb=snapshot_budget_mb,
            recover=recover,
        )
        self.state_dir = self.scheduler.state_dir
        daemon = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                daemon._handle(self)

        self._server = _Server((host, port), Handler)
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self.shutdown_requested = threading.Event()
        # lanes fork before any job/handler thread exists
        self.scheduler.prestart()
        self._blas_restore: Optional[int] = None
        if self.scheduler.lane_pool is not None:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            self._blas_restore = blas_threads(max(1, cpus - workers))
        write_endpoint(self.state_dir, self.host, self.port)

    # ------------------------------------------------------------------ #
    def start(self) -> "ServeDaemon":
        """Serve in a background thread (foreground loops on the caller)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="serve-loop", daemon=True
        )
        self._thread.start()
        return self

    def wait(self, poll_seconds: float = 0.2) -> None:
        """Block until :attr:`shutdown_requested` (the foreground loop)."""
        while not self.shutdown_requested.wait(poll_seconds):
            pass

    def stop(self, wait_jobs: bool = False) -> None:
        """Graceful teardown: endpoint file, server socket, scheduler."""
        remove_endpoint(self.state_dir)
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.scheduler.close(wait_jobs=wait_jobs)
        if self._blas_restore is not None:
            blas_threads(self._blas_restore)
            self._blas_restore = None

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def _handle(self, handler) -> None:
        try:
            request = recv_message(handler.rfile)
        except ProtocolError as exc:
            send_message(handler.wfile, {"ok": False, "error": str(exc),
                                         "error_type": "ProtocolError"})
            return
        if request is None:
            return
        op = request.get("op")
        try:
            if op == "watch":
                self._watch(handler, request)
                return
            response = self._respond(op, request)
        except (KeyError, ValueError, RuntimeError) as exc:
            response = {
                "ok": False,
                "error": str(exc) or repr(exc),
                "error_type": type(exc).__name__,
            }
        try:
            send_message(handler.wfile, response)
        except OSError:
            pass  # client went away; nothing to do

    def _respond(self, op, request: dict) -> dict:
        scheduler = self.scheduler
        if op == "ping":
            return {"ok": True, "pid": os.getpid(), "state_dir": str(self.state_dir)}
        if op == "submit":
            spec = JobSpec.from_payload(request.get("spec") or {})
            record = scheduler.submit(spec)
            return {"ok": True, "job": record.summary()}
        if op == "status":
            record = scheduler.table.get(self._job_id(request))
            return {"ok": True, "job": record.summary()}
        if op == "list":
            return {
                "ok": True,
                "jobs": [r.summary() for r in scheduler.table.list()],
            }
        if op == "cancel":
            record = scheduler.cancel(self._job_id(request))
            return {"ok": True, "job": record.summary()}
        if op == "stats":
            return {"ok": True, "stats": scheduler.stats()}
        if op == "lane_pids":
            pool = scheduler.lane_pool
            return {"ok": True, "pids": pool.lane_pids() if pool else []}
        if op == "shutdown":
            self.shutdown_requested.set()
            return {"ok": True, "stopping": True}
        raise ValueError(f"unknown op {op!r}")

    def _job_id(self, request: dict) -> str:
        job_id = request.get("job_id")
        if not job_id:
            raise ValueError("missing job_id")
        if job_id not in {r.job_id for r in self.scheduler.table.list()}:
            raise KeyError(f"unknown job {job_id!r}")
        return job_id

    def _watch(self, handler, request: dict) -> None:
        """Stream a job's events until it is terminal, then close."""
        job_id = self._job_id(request)
        table = self.scheduler.table
        seq = int(request.get("since", 0))
        send_message(handler.wfile, {"ok": True, "job": table.get(job_id).summary()})
        while True:
            events = table.events_since(job_id, seq)
            for event in events:
                send_message(handler.wfile, event)
            seq += len(events)
            record = table.get(job_id)
            if record.state in TERMINAL_STATES and not table.events_since(job_id, seq):
                send_message(
                    handler.wfile, {"kind": "done", "job_id": job_id,
                                    "job": record.summary()}
                )
                return
            if not events:
                time.sleep(WATCH_POLL_SECONDS)
