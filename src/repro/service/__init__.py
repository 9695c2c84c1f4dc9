"""repro.service — the distributed simulation job service.

One long-lived server (``python -m repro serve``) executes grid
submissions from many tenants over a shared, digest-sharded result
store; thin clients (``python -m repro submit``,
:func:`repro.service.submit`) talk to it over newline-delimited JSON.

The package splits along the wire:

* :mod:`repro.service.protocol` — message shapes, both sides import it.
* :mod:`repro.service.jobs` — job/cell state and tenant quotas.
* :mod:`repro.service.server` — the asyncio service itself.
* :mod:`repro.service.client` — the blocking-socket client.

Heavy imports are deferred so ``import repro.service`` stays cheap;
the names below lazy-load on first touch.
"""

from __future__ import annotations

from repro import _lazy_exports
from repro.service.protocol import DEFAULT_PORT, PROTOCOL_SCHEMA

_LAZY = {
    "JobService": "repro.service.server",
    "ServiceConfig": "repro.service.server",
    "ServiceHandle": "repro.service.server",
    "serve_in_thread": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "submit": "repro.service.client",
}

__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)


__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_SCHEMA",
    "JobService",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceClient",
    "ServiceError",
    "serve_in_thread",
    "submit",
]
