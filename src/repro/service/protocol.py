"""Wire protocol of the repro job service: newline-delimited JSON.

One TCP connection carries one request line and its response line(s).
Every message is a single JSON object terminated by ``\\n`` — trivially
implementable from any language (and debuggable with ``nc``), while
staying structured enough for remote worker hosts to speak the same
protocol later.

Requests carry an ``op`` field::

    {"op": "submit", "tenant": "alice", "benchmarks": ["mcf", "art"],
     "policies": ["lru", "lin(4)"], "scale": 0.25}
    {"op": "status", "job_id": "job-..."}
    {"op": "watch",  "job_id": "job-..."}
    {"op": "result", "job_id": "job-...", "include_results": false}
    {"op": "cancel", "job_id": "job-..."}
    {"op": "stats"} | {"op": "ping"} | {"op": "shutdown"}

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error":
{"code": ..., "message": ...}}``; quota and backpressure rejections
additionally carry ``retry_after_s`` (the 429 idiom: the client should
back off that long before resubmitting).  ``watch`` is the one
streaming op: after the initial response the server keeps the
connection open and writes one ``{"event": ...}`` line per cell
transition, ending with ``job_done``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.sim.options import check_scale

#: Bump when the message shapes change incompatibly.  Servers answer
#: ``ping`` with this so clients can refuse to talk across versions.
PROTOCOL_SCHEMA = "repro.service/v1"

#: Default TCP port of ``python -m repro serve``.
DEFAULT_PORT = 7663

#: Hard per-line ceiling: a line longer than this is a protocol error,
#: not an allocation. (Full-result payloads for big grids are the only
#: legitimately large messages.)
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Requests the server understands.
OPS = (
    "submit", "status", "watch", "result", "cancel", "stats", "ping",
    "shutdown",
)

#: Error codes responses may carry.
ERROR_CODES = (
    "bad-request",      # malformed JSON / missing fields
    "unknown-op",
    "unknown-job",
    "quota-exceeded",   # per-tenant in-flight quota; has retry_after_s
    "queue-full",       # global backpressure; has retry_after_s
    "shutting-down",
)


class ProtocolError(ValueError):
    """A malformed or invalid message; ``code`` names the failure."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


def encode(message: Dict[str, object]) -> bytes:
    """One compact JSON line, newline-terminated, UTF-8."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line) -> Dict[str, object]:
    """Parse one wire line into a message dict.

    Accepts bytes or str; raises :class:`ProtocolError` on anything
    that is not a single JSON object.
    """
    if isinstance(line, (bytes, bytearray)):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("message exceeds %d bytes" % MAX_LINE_BYTES)
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("message is not valid UTF-8")
    try:
        message = json.loads(line)
    except ValueError:
        raise ProtocolError("message is not valid JSON")
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def ok_response(**fields) -> Dict[str, object]:
    response: Dict[str, object] = {"ok": True}
    response.update(fields)
    return response


def error_response(
    code: str,
    message: str,
    retry_after_s: Optional[float] = None,
) -> Dict[str, object]:
    response: Dict[str, object] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if retry_after_s is not None:
        response["retry_after_s"] = round(float(retry_after_s), 3)
    return response


def event(name: str, **fields) -> Dict[str, object]:
    """One entry of a ``watch`` stream."""
    payload: Dict[str, object] = {"event": name}
    payload.update(fields)
    return payload


def _string_list(message: Dict[str, object], field: str) -> List[str]:
    value = message.get(field)
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(isinstance(item, str) and item.strip() for item in value)
    ):
        raise ProtocolError(
            "%r must be a non-empty list of non-empty strings" % field
        )
    return [item.strip() for item in value]


def validate_submit(message: Dict[str, object]) -> Dict[str, object]:
    """Normalize a ``submit`` request; raises :class:`ProtocolError`.

    Returns ``{"tenant", "benchmarks", "policies", "scale", "options"}``
    with defaults applied.  ``scale``, when present, must be a positive,
    finite number (:func:`repro.sim.options.check_scale`).  ``options``
    (when present) maps :class:`repro.sim.options.RunOptions` field
    names to the values the client wants — the server decides which
    fields it honors.  The server mints every job id, so a ``job_id``
    field is ignored like any other unknown field.
    """
    benchmarks = _string_list(message, "benchmarks")
    policies = _string_list(message, "policies")
    tenant = message.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not tenant.strip():
        raise ProtocolError("'tenant' must be a non-empty string")
    scale = message.get("scale")
    if scale is not None:
        try:
            scale = check_scale(scale)
        except ValueError as exc:
            raise ProtocolError("'scale': %s" % exc)
    options = message.get("options")
    if options is not None and not isinstance(options, dict):
        raise ProtocolError("'options' must be an object")
    return {
        "tenant": tenant.strip(),
        "benchmarks": benchmarks,
        "policies": policies,
        "scale": scale,
        "options": options,
    }


__all__ = [
    "PROTOCOL_SCHEMA",
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "OPS",
    "ERROR_CODES",
    "ProtocolError",
    "encode",
    "decode",
    "ok_response",
    "error_response",
    "event",
    "validate_submit",
]
