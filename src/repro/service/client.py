"""Thin synchronous client for the repro job service.

:class:`ServiceClient` speaks the newline-delimited JSON protocol from
:mod:`repro.service.protocol` over plain blocking sockets — no asyncio
on the client side, so it drops into scripts, tests, and notebooks
without an event loop.  One request opens one connection; ``watch``
keeps its connection open and yields events until ``job_done``.

The one-call path most scripts want::

    from repro.api import submit

    job = submit(["mcf", "art"], ["lru", "lin(4)"], port=7663)
    print(job["status"], job["digest"])

``submit(..., wait=True)`` (the default) blocks until the job reaches
a terminal state and returns the final job snapshot.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Iterator, List, Optional, Sequence

from repro.service import protocol


class ServiceError(RuntimeError):
    """A non-ok response; carries the wire code and retry hint."""

    def __init__(
        self,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.retry_after_s = retry_after_s

    @classmethod
    def from_response(cls, response: Dict[str, object]) -> "ServiceError":
        error = response.get("error") or {}
        return cls(
            code=str(error.get("code", "bad-request")),
            message=str(error.get("message", "request failed")),
            retry_after_s=response.get("retry_after_s"),
        )


class ServiceClient:
    """One service endpoint; every method is one request/response."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        tenant: str = "anonymous",
        timeout: float = 300.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------

    def _connect(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _request(self, message: Dict[str, object]) -> Dict[str, object]:
        """One request, one response, connection closed."""
        with self._connect() as conn:
            conn.sendall(protocol.encode(message))
            with conn.makefile("rb") as stream:
                line = stream.readline()
        if not line:
            raise ServiceError(
                "bad-request", "service closed the connection"
            )
        response = protocol.decode(line)
        if not response.get("ok"):
            raise ServiceError.from_response(response)
        return response

    # -- ops -------------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self._request({"op": "ping"})

    def stats(self) -> Dict[str, object]:
        return self._request({"op": "stats"})["stats"]

    def submit(
        self,
        benchmarks: Sequence[str],
        policies: Sequence[str],
        scale: Optional[float] = None,
        options: Optional[Dict[str, object]] = None,
    ) -> str:
        """Submit one grid; returns the job id the server minted
        (raises on rejection)."""
        message: Dict[str, object] = {
            "op": "submit",
            "tenant": self.tenant,
            "benchmarks": list(benchmarks),
            "policies": list(policies),
        }
        if scale is not None:
            message["scale"] = scale
        if options:
            message["options"] = options
        return self._request(message)["job_id"]

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request({"op": "status", "job_id": job_id})["job"]

    def result(
        self, job_id: str, include_results: bool = False
    ) -> Dict[str, object]:
        """Final job snapshot; ``include_results`` adds full payloads
        (re-served from the result store) under ``"results"``."""
        response = self._request({
            "op": "result",
            "job_id": job_id,
            "include_results": bool(include_results),
        })
        job = response["job"]
        if include_results:
            job = dict(job)
            job["results"] = response.get("results", {})
        return job

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request({"op": "cancel", "job_id": job_id})["job"]

    def shutdown(self) -> None:
        self._request({"op": "shutdown"})

    def watch(self, job_id: str) -> Iterator[Dict[str, object]]:
        """Yield progress events until ``job_done`` (inclusive).

        The connection stays open for the duration; the generator
        closes it when the stream ends or the caller stops iterating.
        """
        with self._connect() as conn:
            conn.sendall(protocol.encode({"op": "watch", "job_id": job_id}))
            with conn.makefile("rb") as stream:
                first = stream.readline()
                if not first:
                    raise ServiceError(
                        "bad-request", "service closed the connection"
                    )
                response = protocol.decode(first)
                if not response.get("ok"):
                    raise ServiceError.from_response(response)
                for line in stream:
                    event = protocol.decode(line)
                    yield event
                    if event.get("event") == "job_done":
                        return

    # -- conveniences ----------------------------------------------------

    def wait(self, job_id: str) -> Dict[str, object]:
        """Block until ``job_id`` is terminal; returns the snapshot.

        Uses ``watch`` so waiting costs no polling; falls back to the
        ``status`` snapshot when the stream ends early.
        """
        for event in self.watch(job_id):
            if event.get("event") == "job_done":
                break
        return self.status(job_id)


def submit(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    scale: Optional[float] = None,
    options: Optional[Dict[str, object]] = None,
    host: str = "127.0.0.1",
    port: int = protocol.DEFAULT_PORT,
    tenant: str = "anonymous",
    wait: bool = True,
    max_retries: int = 5,
) -> Dict[str, object]:
    """Submit a grid to a running service and (by default) wait.

    The blessed one-call client API (re-exported as
    :func:`repro.api.submit`).  Quota/backpressure rejections are
    retried up to ``max_retries`` times, honoring the server's
    ``retry_after_s`` hint; with ``wait=False`` the (non-terminal) job
    snapshot is returned immediately after admission.
    """
    client = ServiceClient(host=host, port=port, tenant=tenant)
    attempt = 0
    while True:
        try:
            job_id = client.submit(
                benchmarks, policies, scale=scale, options=options
            )
            break
        except ServiceError as exc:
            retriable = exc.code in ("quota-exceeded", "queue-full")
            if not retriable or attempt >= max_retries:
                raise
            attempt += 1
            time.sleep(float(exc.retry_after_s or 0.5))
    if not wait:
        return client.status(job_id)
    return client.wait(job_id)


def print_events(events: Iterator[Dict[str, object]]) -> None:
    """Render a ``watch`` stream as human-readable progress lines."""
    for event in events:
        name = event.get("event")
        if name == "cell_running":
            print("  run   %-28s worker=%s attempt=%s" % (
                event.get("cell"), event.get("worker"),
                event.get("attempt"),
            ))
        elif name == "cell_finished":
            print("  done  %-28s %s (%s, %.2fs)" % (
                event.get("cell"), event.get("digest"),
                event.get("source"), float(event.get("wall_s") or 0.0),
            ))
        elif name == "cell_failed":
            print("  FAIL  %-28s %s" % (
                event.get("cell"), event.get("error"),
            ))
        elif name == "cell_cancelled":
            print("  drop  %s" % event.get("cell"))
        elif name == "job_done":
            print("job %s: %s digest=%s" % (
                event.get("job_id"), event.get("status"),
                event.get("digest"),
            ))


__all__ = [
    "ServiceClient",
    "ServiceError",
    "print_events",
    "submit",
]
