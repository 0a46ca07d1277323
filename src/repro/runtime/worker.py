"""Shard server: a durable document store hosted behind a transport.

:class:`ShardWorker` is the server half of the process plane — a loop that
receives one framed request, executes its ops against the hosted store,
and sends one framed response.  :func:`worker_main` is the child-process
entry point: it opens a :class:`~repro.durability.journal.DurableDocumentStore`
over the shard's own durability root (recovering it if non-empty) and
serves until told to shut down or the transport dies.

Durability before acknowledgement: every journaled write fsyncs before
the call returns (the store's ``sync="batch"`` policy — one group commit
per op), so by the time the response frame leaves the worker the op is on
stable storage.  Killing the worker mid-request therefore loses only
*unacknowledged* work, and a batched ``insert_many`` is one WAL record —
recovery applies all of it or none of it, never a torn batch.

The worker is deliberately single-threaded: the whole point of the
process plane is that each shard owns one core, and the client side
already serializes per-shard access behind the sharded store's gates.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import (
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.runtime.framing import MAX_FRAME_BYTES
from repro.runtime.protocol import (
    COLL,
    STORE,
    Response,
    apply_op,
    decode_request,
    encode_response,
    error_to_wire,
)
from repro.runtime.transport import SocketTransport, Transport

__all__ = ["ShardWorker", "worker_main"]


class ShardWorker:
    """Serve one store's remote surface over one transport.

    ``store`` is duck-typed — a :class:`DurableDocumentStore` in
    production, but any store exposing the same surface (e.g. a plain
    :class:`~repro.storage.store.DocumentStore` behind a loopback
    transport) works for tests.
    """

    def __init__(self, store: Any, transport: Transport) -> None:
        self.store = store
        self.transport = transport
        self._running = False
        #: The store ops with worker-side behaviour; every other declared
        #: op runs on the hosted store itself (:func:`apply_op`).
        self._handlers: dict[str, Callable[..., Any]] = {
            "ping": self._ping,
            "collection": self._collection,
            "crash": self._crash,
            "close": self._close,
            "shutdown": self._shutdown,
            "checkpoint": self._checkpoint,
            "metrics_snapshot": self._metrics_snapshot,
        }

    # -- op execution ---------------------------------------------------------------

    def _ping(self) -> dict[str, Any]:
        """Worker identity plus the hosted store's recovery statistics —
        what the supervisor's health check and ``restart_shard`` report."""
        store = self.store
        return {
            "pid": os.getpid(),
            "snapshot_documents": getattr(store, "snapshot_documents", 0),
            "replayed_ops": getattr(store, "replayed_ops", 0),
            "deduplicated_ops": getattr(store, "deduplicated_ops", 0),
            "truncated_bytes": getattr(store, "truncated_bytes", 0),
            "snapshot_lsn": getattr(store, "snapshot_lsn", 0),
            "epoch": getattr(store, "epoch", 0),
            "collections": store.collection_names(),
        }

    def _collection(self, *args: Any, **kwargs: Any) -> bool:
        # Materialize only: the client keeps its own proxy object.
        self.store.collection(*args, **kwargs)
        return True

    def _crash(self) -> bool:
        # Deterministic power-loss model: un-fsynced journal bytes are
        # dropped and the store is dead; the worker exits after the ack
        # and the supervisor restarts it over the same root.
        if hasattr(self.store, "simulate_crash"):
            self.store.simulate_crash()
        self._running = False
        return True

    def _close(self) -> bool:
        # Mirrors DurableDocumentStore.close: journal flushed and closed,
        # reads keep working — the worker stays up to serve them until
        # shutdown or EOF.
        if hasattr(self.store, "close"):
            self.store.close()
        return True

    def _shutdown(self) -> bool:
        if hasattr(self.store, "close"):
            try:
                self.store.close()
            except ReproError:
                pass  # already crashed/closed — shutdown proceeds
        self._running = False
        return True

    def _checkpoint(self) -> Any:
        if hasattr(self.store, "checkpoint"):
            return self.store.checkpoint()
        return None

    def _metrics_snapshot(self) -> dict[str, Any]:
        """This process's full metrics snapshot (the harvest op).

        The transport's framing stats are mirrored into the registry
        first, so resync episodes and garbage bytes the worker hunted
        past surface in the merged cluster snapshot as
        ``repro_frame_resyncs_total`` / ``repro_frame_garbage_bytes_total``
        (the harvest relabels them with the shard).
        """
        from repro.obs.export import build_snapshot
        from repro.obs.registry import get_registry

        registry = get_registry()
        resyncs = getattr(self.transport, "resyncs", None)
        if resyncs is not None:
            counter = registry.counter("repro_frame_resyncs_total")
            counter.inc(resyncs - counter.value)
            garbage = registry.counter("repro_frame_garbage_bytes_total")
            garbage.inc(self.transport.resync_bytes - garbage.value)
        return build_snapshot(registry, role="worker")

    def _execute(self, op: dict[str, Any]) -> dict[str, Any]:
        method, args, kwargs = op["m"], op.get("a", []), op.get("k", {})
        try:
            if op["t"] == COLL:
                value = apply_op(self.store.collection(op["c"]), COLL,
                                 method, args, kwargs)
            elif method in self._handlers:
                value = self._handlers[method](*args, **kwargs)
            else:
                value = apply_op(self.store, STORE, method, args, kwargs)
            return {"ok": True, "value": value}
        except Exception as exc:  # incl. worker-side bugs: report, keep serving
            return error_to_wire(exc)

    # -- serve loop -----------------------------------------------------------------

    def serve_once(self) -> bool:
        """Handle one request; returns False when the loop should stop."""
        try:
            payload = self.transport.recv()
        except TransportError:
            return False  # peer gone (client died or closed): stop serving
        try:
            request = decode_request(payload)
        except ProtocolError as exc:
            # Undecodable request: the correlation id is unknowable, so the
            # error rides id -1 and the client surfaces the mismatch.
            self._send(Response(id=-1, results=[error_to_wire(exc)]))
            return self._running
        if request.trace_id is None:
            results = [self._execute(op) for op in request.ops]
            self._send(Response(id=request.id, results=results))
            return self._running
        # Traced request (sampled, ~1/N): time op execution and result
        # encoding separately, in this worker's perf-counter clock.  The
        # extra encode pass prices the serialization the real reply pays;
        # the client rebases the stamps into its own clock and splices
        # the spans into the e2e trace.
        w0 = time.perf_counter()
        results = [self._execute(op) for op in request.ops]
        w1 = time.perf_counter()
        try:
            encode_response(Response(id=request.id, results=results))
        except ProtocolError:
            pass  # _send's fallback path will repair the results
        w2 = time.perf_counter()
        spans = [
            {"stage": "rpc_execute", "start": w0, "end": w1},
            {"stage": "rpc_encode", "start": w1, "end": w2},
        ]
        self._send(Response(id=request.id, results=results, spans=spans))
        return self._running

    def _send(self, response: Response) -> None:
        try:
            payload = encode_response(response)
        except ProtocolError:
            # Some op returned a non-JSON value; fail those ops, keep the rest.
            results = []
            for result in response.results:
                if result.get("ok"):
                    try:
                        encode_response(Response(id=0, results=[result]))
                        results.append(result)
                        continue
                    except ProtocolError as exc:
                        results.append(error_to_wire(exc))
                else:
                    results.append(result)
            payload = encode_response(
                Response(id=response.id, results=results, spans=response.spans)
            )
        try:
            self.transport.send(payload)
        except TransportError:
            self._running = False  # peer gone mid-reply

    def serve_forever(self) -> None:
        self._running = True
        while self.serve_once():
            pass


def worker_main(sock: socket.socket, directory: str, config: dict[str, Any],
                ) -> None:
    """Child-process entry point: host one shard over one socket.

    ``config`` carries the durable-store knobs (``sync``,
    ``compact_ratio``, ``min_compact_records``) plus the transport's
    ``max_frame_bytes``.  Opening a non-empty ``directory`` *is* the
    shard's crash recovery — snapshot load plus WAL-suffix replay — and
    its statistics are served to the supervisor via ``ping``.
    """
    # Imported here, not at module top: the parent may import this module
    # without ever pulling the durability stack into a worker-less process.
    from repro.durability.journal import DurableDocumentStore
    from repro.replication.peer import LocalReplicaPeer

    transport = SocketTransport(
        sock,
        max_frame_bytes=config.get("max_frame_bytes") or MAX_FRAME_BYTES,
    )
    try:
        # Every worker-hosted shard is also a replica peer: the wrapper
        # persists the fenced epoch beside the store and serves the
        # replication ops (wal_read, replica_apply, ...), while everything
        # else delegates to the store untouched.  A never-replicated shard
        # just carries epoch 0 forever.
        store = LocalReplicaPeer(
            DurableDocumentStore(
                Path(directory),
                sync=config.get("sync", "batch"),
                compact_ratio=config.get("compact_ratio", 4.0),
                min_compact_records=config.get("min_compact_records", 2_000),
            ),
            Path(directory),
        )
    except ReproError as exc:
        # Unrecoverable root (e.g. corrupt sealed segment): report the
        # failure as a dead worker rather than a hang.
        print(f"shard worker failed to open {directory}: {exc}", file=sys.stderr)
        transport.close()
        raise SystemExit(3)
    worker = ShardWorker(store, transport)
    try:
        worker.serve_forever()
    finally:
        transport.close()
