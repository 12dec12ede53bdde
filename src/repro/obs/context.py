"""Request-scoped correlation: the propagated request ID.

One request entering the HTTP layer gets exactly one ID — generated
at ingress, or accepted from the client's ``X-Repro-Request-Id``
header — and that ID follows the request through everything it
causally touches:

* every **trace span and event** recorded while the request is active
  carries ``attrs["request"]`` (stamped by :mod:`repro.obs.tracing`
  at append time);
* every **schedule frame** captured during the request's simulation
  carries ``request`` (:mod:`repro.obs.observatory`);
* **metric exemplars** on the request/phase histograms name the last
  request that observed into them (:mod:`repro.obs.metrics`);
* **flight-recorder dumps** triggered by the request record it as the
  correlation key (:mod:`repro.obs.flightrecorder`);
* the **response** echoes the ID back in ``X-Repro-Request-Id``.

Propagation uses one :class:`contextvars.ContextVar` — the same
mechanism the tracer uses for span nesting, so the ID is correct
across threads and async tasks without caller bookkeeping.  The
service runs every request, simulations included, on the HTTP handler
thread that bound the ID (:mod:`repro.service.pipeline`), so no
boundary needs a hand-off.  Nothing a request touches runs in another
process.

The disabled-is-free contract holds trivially: code that never binds
a request ID never pays more than a default :meth:`ContextVar.get`
on the tracer's *enabled* path, and nothing at all on its disabled
path.
"""

from __future__ import annotations

import contextvars
import os
import re

__all__ = [
    "REQUEST_ID_HEADER",
    "accept_request_id",
    "current_request_id",
    "new_request_id",
    "request_scope",
    "reset_request_id",
    "set_request_id",
]

#: the correlation header, both directions: accepted on requests,
#: echoed on every response.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: client-supplied IDs must be header/log/JSON-safe; anything else is
#: ignored and a fresh ID generated (never a 4xx — correlation is a
#: convenience, not a contract).
_VALID_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")

#: the active request ID, tracked per context (thread / async task).
_request_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_request_id", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-char request ID (64 random bits)."""
    return os.urandom(8).hex()


def current_request_id() -> str | None:
    """The request ID bound in this context, or ``None``."""
    return _request_id.get()


def set_request_id(request_id: str | None) -> contextvars.Token:
    """Bind ``request_id`` in this context; returns the reset token."""
    return _request_id.set(request_id)


def reset_request_id(token: contextvars.Token) -> None:
    """Undo a :func:`set_request_id` (restores the previous binding)."""
    _request_id.reset(token)


def accept_request_id(raw: str | None) -> str:
    """The ID to use for a request that arrived with header value
    ``raw``: the client's ID when well-formed (1-64 chars of
    ``[A-Za-z0-9._-]``), else a freshly generated one.
    """
    if raw is not None and _VALID_ID.fullmatch(raw):
        return raw
    return new_request_id()


class request_scope:
    """Context manager binding a request ID for a region of code.

    ``request_scope()`` generates a fresh ID;
    ``request_scope("abc123")`` binds an existing one (the pipeline
    worker re-binding a queued request's ID).  The bound ID is
    available as the ``with`` target and via
    :func:`current_request_id`.
    """

    __slots__ = ("request_id", "_token")

    def __init__(self, request_id: str | None = None) -> None:
        self.request_id = (
            request_id if request_id is not None else new_request_id()
        )

    def __enter__(self) -> str:
        self._token = _request_id.set(self.request_id)
        return self.request_id

    def __exit__(self, *exc) -> bool:
        _request_id.reset(self._token)
        return False
