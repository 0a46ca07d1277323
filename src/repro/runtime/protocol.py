"""Versioned request/response messages for the remote store surface.

One request carries a *batch* of operations (pipelining: a multi-op write
or a routed read costs one round-trip however many ops it packs); one
response carries one result — value or error — per op, in order.  Messages
are JSON payloads inside CRC frames, so the wire format is:

``frame( {"v": 1, "id": n, "ops": [...]}} )`` →
``frame( {"v": 1, "id": n, "results": [...]} )``

Every op targets either the store itself or one of its collections:

* ``{"t": "store", "m": method, "a": args, "k": kwargs}``
* ``{"t": "coll", "c": name, "m": method, "a": args, "k": kwargs}``

Methods are allowlisted by the one op table, :data:`OPS` — the server
never dispatches an arbitrary attribute name off the wire.  An
op that failed serializes its exception as ``{"ok": false, "error":
<class name>, "message": ...}``; the client rehydrates the matching
:mod:`repro.errors` class so a remote ``DuplicateKeyError`` raises exactly
like a local one.

``v`` is checked on both sides: a peer speaking a different protocol
version is rejected with :class:`~repro.errors.ProtocolError` before any
op executes, which is what makes the format evolvable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from repro import errors
from repro.errors import ProtocolError, ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "STORE",
    "COLL",
    "OPS",
    "WRITE_OPS",
    "Request",
    "Response",
    "store_op",
    "collection_op",
    "check_op",
    "client_name",
    "apply_op",
    "forward_ops",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "error_to_wire",
    "wire_to_error",
]

PROTOCOL_VERSION = 1

#: Wire targets: the store itself, or one of its collections.
STORE, COLL = "store", "coll"

#: The remote store surface, declared once: op name -> (target, journaled
#: write).  Everything else is derived from it — the decode-time allowlist
#: (:func:`check_op`), the worker's dispatch (:func:`apply_op`), the client
#: proxies' pass-through methods (:func:`forward_ops`) and the replicated
#: write set (:data:`WRITE_OPS`).
OPS: dict[str, tuple[str, bool]] = {
    # Lifecycle and health: ``ping`` returns the worker's identity and
    # recovery statistics; ``crash`` simulates power loss (un-fsynced
    # journal bytes are dropped); ``close`` flushes and closes the journal
    # but keeps serving reads (mirroring ``DurableDocumentStore.close``);
    # ``shutdown`` ends the serve loop.
    "ping": (STORE, False),
    "crash": (STORE, False),
    "close": (STORE, False),
    "shutdown": (STORE, False),
    "metrics_snapshot": (STORE, False),
    "collection": (STORE, False),
    "drop_collection": (STORE, False),
    "collection_names": (STORE, False),
    "aggregate": (STORE, False),
    "checkpoint": (STORE, False),
    "journal_ops_since_snapshot": (STORE, False),
    # The replication surface: a worker-hosted shard *is* a replica peer
    # (the worker wraps its store in a
    # :class:`~repro.replication.peer.LocalReplicaPeer`), so log shipping
    # and fenced failover speak the same framed protocol as everything else.
    "replication_status": (STORE, False),
    "set_epoch": (STORE, False),
    "apply_write": (STORE, False),
    "wal_read": (STORE, False),
    "replica_apply": (STORE, False),
    "snapshot_export": (STORE, False),
    "snapshot_install": (STORE, False),
    # Collection writes: journaled, and under replication fenced through
    # the leader's ``apply_write``.
    "insert_one": (COLL, True),
    "insert_many": (COLL, True),
    "update_many": (COLL, True),
    "delete_many": (COLL, True),
    "create_index": (COLL, True),
    "drop_index": (COLL, True),
    # Collection reads.  ``length`` stands in for ``__len__`` and
    # ``all_documents`` materializes the iterator (a remote generator
    # cannot stream lazily over one framed response).
    "index_fields": (COLL, False),
    "index_spec": (COLL, False),
    "find": (COLL, False),
    "find_one": (COLL, False),
    "count": (COLL, False),
    "distinct": (COLL, False),
    "explain": (COLL, False),
    "get": (COLL, False),
    "all_documents": (COLL, False),
    "length": (COLL, False),
}

#: The journaled collection writes — what a replicated write may dispatch.
WRITE_OPS = frozenset(op for op in OPS if OPS[op][1])

#: Client methods named differently from the op they send.
_CLIENT_NAMES = {"crash": "simulate_crash", "length": "__len__"}

_Class = TypeVar("_Class", bound=type)


def check_op(target: Any, method: Any) -> None:
    """Reject anything but a declared ``target`` op: the server never
    dispatches an arbitrary attribute name off the wire."""
    if not isinstance(method, str) or OPS.get(method, (None,))[0] != target:
        raise ProtocolError(f"unknown {target} method {method!r}")


def client_name(op: str) -> str:
    """The client proxy method that sends ``op``."""
    return _CLIENT_NAMES.get(op, op)


@dataclass(frozen=True)
class Request:
    """One framed request: correlation id plus a batch of ops.

    ``trace_id``/``parent_span`` carry a sampled trace's context across
    the process boundary (``None`` on the untraced fast path).  They ride
    as *optional* wire keys a version-1 decoder without them would simply
    ignore — additive evolution, no version bump.
    """

    id: int
    ops: list[dict[str, Any]] = field(default_factory=list)
    trace_id: str | None = None
    parent_span: str | None = None


@dataclass(frozen=True)
class Response:
    """One framed response: the request's id plus one result per op.

    ``spans`` returns the worker-side timing spans for a traced request
    (``[{"stage", "start", "end"}, ...]`` in the *worker's* perf-counter
    clock; the client rebases them — see
    :meth:`~repro.runtime.remote.RemoteShardStore.call`).  Empty for
    untraced requests, and optional on the wire.
    """

    id: int
    results: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)


def store_op(method: str, *args: Any, **kwargs: Any) -> dict[str, Any]:
    """Build a store-level op (validated against :data:`OPS`)."""
    check_op(STORE, method)
    return {"t": STORE, "m": method, "a": list(args), "k": kwargs}


def collection_op(collection: str, method: str, *args: Any,
                  **kwargs: Any) -> dict[str, Any]:
    """Build a collection-level op (validated against :data:`OPS`)."""
    check_op(COLL, method)
    return {
        "t": COLL, "c": collection, "m": method, "a": list(args), "k": kwargs,
    }


def _encode(body: dict[str, Any]) -> bytes:
    try:
        return json.dumps(body, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"message not JSON-serializable: {exc}"
        ) from exc


def _decode(payload: bytes) -> dict[str, Any]:
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(f"message must be an object, got {type(body).__name__}")
    version = body.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    return body


def encode_request(request: Request) -> bytes:
    body: dict[str, Any] = {
        "v": PROTOCOL_VERSION, "id": request.id, "ops": request.ops,
    }
    if request.trace_id is not None:
        body["tid"] = request.trace_id
        if request.parent_span is not None:
            body["ps"] = request.parent_span
    return _encode(body)


def _validate_op(op: Any) -> dict[str, Any]:
    if not isinstance(op, dict):
        raise ProtocolError(f"op must be an object, got {type(op).__name__}")
    target = op.get("t")
    method = op.get("m")
    if target not in (STORE, COLL):
        raise ProtocolError(f"unknown op target {target!r}")
    if target == COLL and not isinstance(op.get("c"), str):
        raise ProtocolError("collection op missing collection name")
    check_op(target, method)
    if not isinstance(op.get("a", []), list) or not isinstance(op.get("k", {}), dict):
        raise ProtocolError(f"malformed args for {target}.{method}")
    return op


def _message_id(body: dict[str, Any]) -> int:
    value = body.get("id", 0)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"message id must be an integer, got {value!r}")
    return value


def decode_request(payload: bytes) -> Request:
    body = _decode(payload)
    ops = body.get("ops")
    if not isinstance(ops, list) or not ops:
        raise ProtocolError("request must carry a non-empty op list")
    trace_id = body.get("tid")
    parent_span = body.get("ps")
    return Request(
        id=_message_id(body), ops=[_validate_op(op) for op in ops],
        trace_id=str(trace_id) if trace_id is not None else None,
        parent_span=str(parent_span) if parent_span is not None else None,
    )


def encode_response(response: Response) -> bytes:
    body: dict[str, Any] = {
        "v": PROTOCOL_VERSION, "id": response.id, "results": response.results,
    }
    if response.spans:
        body["spans"] = response.spans
    return _encode(body)


def decode_response(payload: bytes) -> Response:
    body = _decode(payload)
    results = body.get("results")
    if not isinstance(results, list):
        raise ProtocolError("response must carry a result list")
    for result in results:
        if not isinstance(result, dict) or "ok" not in result:
            raise ProtocolError(f"malformed result entry: {result!r}")
    spans = body.get("spans", [])
    if not isinstance(spans, list):
        raise ProtocolError("response spans must be a list")
    for span in spans:
        if (not isinstance(span, dict) or "stage" not in span
                or "start" not in span or "end" not in span):
            raise ProtocolError(f"malformed span entry: {span!r}")
    return Response(id=_message_id(body), results=results, spans=spans)


def error_to_wire(exc: BaseException) -> dict[str, Any]:
    """Serialize an exception as an op result."""
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def wire_to_error(result: dict[str, Any]) -> ReproError:
    """Rehydrate an op error as the matching :mod:`repro.errors` class.

    Unknown names (a worker-side bug, say a ``KeyError``) come back as
    :class:`~repro.errors.ProcessPlaneError` with the original class name
    preserved in the message — never silently swallowed.
    """
    name = result.get("error", "ProcessPlaneError")
    message = result.get("message", "")
    candidate = getattr(errors, str(name), None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        return candidate(message)
    return errors.ProcessPlaneError(f"worker-side {name}: {message}")


# -- the table's two halves ------------------------------------------------------


def apply_op(target: Any, level: str, method: str, args: Sequence[Any],
             kwargs: Mapping[str, Any]) -> Any:
    """Run one declared ``level`` op on a local store or collection.

    The server half of the table.  The ops that cannot cross the wire
    as-is are materialized here: ``length`` is ``len()``,
    ``all_documents`` is listed, and a ``("field", -1)`` sort that JSON
    turned into a list is restored to the tuple the planner expects.
    """
    check_op(level, method)
    if method == "length":
        return len(target)
    if method == "all_documents":
        return list(target.all_documents())
    sort = kwargs.get("sort")
    if isinstance(sort, list):
        kwargs = {**kwargs, "sort": tuple(sort)}
    return getattr(target, method)(*args, **kwargs)


def forward_ops(level: str) -> Callable[[_Class], _Class]:
    """Class decorator deriving a client proxy's pass-through methods.

    The client half of the table: every ``level`` op the class does not
    define itself (under its :func:`client_name`) becomes a method that
    sends it through ``self._write`` for a journaled write and
    ``self._read`` otherwise.  The methods a class does define are the
    ones that add behaviour.
    """
    def install(cls: _Class) -> _Class:
        for op, (op_level, write) in OPS.items():
            name = client_name(op)
            if op_level == level and name not in vars(cls):
                setattr(cls, name, _forwarder(cls, op, name, write))
        return cls
    return install


def _forwarder(cls: type, op: str, name: str, write: bool) -> Callable[..., Any]:
    route = "_write" if write else "_read"

    def forward(self: Any, *args: Any, **kwargs: Any) -> Any:
        value = getattr(self, route)(
            op, *map(_plain, args), **{k: _plain(v) for k, v in kwargs.items()}
        )
        # all_documents crosses the wire as a list; hand back the iterator
        # a local collection returns.
        return iter(value) if op == "all_documents" else value

    forward.__name__ = name
    forward.__qualname__ = f"{cls.__qualname__}.{name}"
    return forward


def _plain(value: Any) -> Any:
    """``value`` as the wire carries it: a Mapping becomes a dict and any
    other iterable but a string or tuple a list (of plain items), so an
    argument JSON-encodes and survives a replayed write."""
    if value is None or isinstance(value, (dict, str, bytes, tuple, int, float)):
        return value
    if isinstance(value, Mapping):
        return dict(value)
    if isinstance(value, Iterable):
        return [_plain(item) for item in value]
    return value
