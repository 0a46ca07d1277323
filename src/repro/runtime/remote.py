"""Client proxy for a shard hosted in another process.

:class:`RemoteShardStore` speaks the :mod:`~repro.runtime.protocol`
messages over a :class:`~repro.runtime.transport.Transport` and presents
the same duck-typed surface as a local
:class:`~repro.durability.journal.DurableDocumentStore` — which is what
lets it plug into :class:`~repro.cluster.sharded.ShardedDocumentStore`'s
scatter-gather unchanged: the sharded store neither knows nor cares that
a shard's planner now runs on another core.

Every call is one round-trip (a batch of ops pipelines into a single
request frame via :meth:`RemoteShardStore.call`), timed into
``repro_rpc_roundtrip_seconds{shard=i}`` with request and byte counters
alongside.  A transport that dies mid-request surfaces as
:class:`~repro.errors.WorkerCrashedError`: the op's fate is unknown, but
the worker's write batching keeps it atomic — recovery applies all of it
or none of it.

The proxy is thread-safe (one internal lock serializes the transport),
but by design the sharded store's per-shard gates already provide that
serialization.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping

from repro.errors import (
    ProtocolError,
    TransportError,
    WorkerCrashedError,
)
from repro.obs.registry import get_registry
from repro.obs.trace import Span, current_trace
from repro.runtime.protocol import (
    COLL,
    STORE,
    Request,
    collection_op,
    decode_response,
    encode_request,
    forward_ops,
    store_op,
    wire_to_error,
)
from repro.runtime.transport import Transport

__all__ = ["RemoteShardStore", "RemoteCollection"]

#: Default per-request timeout.  Generous: a group-commit fsync plus a
#: snapshot-sized response comfortably fit, while a hung worker still
#: surfaces as an error instead of a deadlock.
DEFAULT_TIMEOUT = 60.0


@forward_ops(COLL)
class RemoteCollection:
    """Collection surface forwarded op-by-op to the worker.

    Its methods derive from the op table (:func:`forward_ops`); only
    ``update_many`` is written out, to reject what cannot cross the wire.
    """

    def __init__(self, store: "RemoteShardStore", name: str) -> None:
        self._store = store
        self.name = name

    def _read(self, method: str, *args: Any, **kwargs: Any) -> Any:
        # One op, one round-trip.  A batched insert_many is therefore one
        # WAL record on the worker: atomic across a crash exactly like a
        # local durable insert_many.
        return self._store.call(
            [collection_op(self.name, method, *args, **kwargs)]
        )[0]

    _write = _read

    def update_many(self, filter_doc: Mapping[str, Any], update: Any) -> int:
        if callable(update):
            raise ProtocolError(
                "callable updates cannot cross the process boundary; "
                "use an operator document ({'$set': ...})"
            )
        return self._write("update_many", filter_doc, update)


@forward_ops(STORE)
class RemoteShardStore:
    """Store surface of one worker-hosted shard.

    Pass-through methods derive from the op table (:func:`forward_ops`);
    the ones written out below add behaviour — the collection-proxy cache,
    recovery-stat capture, timeouts and the crash/close/shutdown lifecycle.

    ``recovery stats`` (``snapshot_documents`` etc.) are captured from the
    worker's first ``ping`` — the supervisor performs it as the spawn
    handshake — so :meth:`ShardedDocumentStore.restart_shard` and
    :class:`~repro.durability.recovery.RecoveryManager` read them off this
    proxy exactly as they would off a local durable store.
    """

    def __init__(self, transport: Transport, shard: int = 0,
                 timeout: float = DEFAULT_TIMEOUT,
                 on_simulate_crash: Callable[[], None] | None = None) -> None:
        self.transport = transport
        self.shard = shard
        self.timeout = timeout
        #: Supervisor hook: after the deterministic ``crash`` op, make sure
        #: the worker process is actually dead and reaped.
        self.on_simulate_crash = on_simulate_crash
        self.pid: int | None = None
        self.snapshot_documents = 0
        self.replayed_ops = 0
        self.deduplicated_ops = 0
        self.truncated_bytes = 0
        self.snapshot_lsn = 0
        self._lock = threading.Lock()
        self._next_id = 0
        self._collections: dict[str, RemoteCollection] = {}
        self._crashed = False
        label = {"shard": str(shard)}
        registry = get_registry()
        self._roundtrip = registry.histogram(
            "repro_rpc_roundtrip_seconds", labels=label
        )
        self._requests = registry.counter(
            "repro_rpc_requests_total", labels=label
        )
        self._bytes_sent = registry.counter(
            "repro_rpc_bytes_sent_total", labels=label
        )
        self._bytes_received = registry.counter(
            "repro_rpc_bytes_received_total", labels=label
        )
        self._frame_resyncs = registry.counter(
            "repro_frame_resyncs_total", labels=label
        )
        self._frame_garbage = registry.counter(
            "repro_frame_garbage_bytes_total", labels=label
        )

    # -- request plumbing ---------------------------------------------------------

    def call(self, ops: list[dict[str, Any]],
             timeout: float | None = None) -> list[Any]:
        """One round-trip: send a batch of ops, return their values in order.

        The first failed op's exception is rehydrated and raised; a
        transport failure mid-request raises
        :class:`~repro.errors.WorkerCrashedError`.

        When the calling thread carries an active trace context
        (:func:`~repro.obs.trace.current_trace`), the trace id rides the
        request and the worker's timing spans come back in the response —
        rebased here into this process's clock and staged on the tracer.
        """
        context = current_trace()
        ended = 0.0
        with self._lock:
            self._next_id += 1
            request = Request(
                id=self._next_id, ops=ops,
                trace_id=context[1] if context is not None else None,
                parent_span=context[2] if context is not None else None,
            )
            stats = getattr(self.transport, "stats", None)
            started = time.perf_counter()
            try:
                # This lock exists to serialize the transport: the framed
                # protocol is strictly request/response per connection, so
                # send+recv must be one atomic exchange.
                self.transport.send(encode_request(request))  # repro: noqa[lock-discipline]
                payload = self.transport.recv(  # repro: noqa[lock-discipline]
                    timeout=self.timeout if timeout is None else timeout
                )
                ended = time.perf_counter()
            except TransportError as exc:
                self._crashed = True
                raise WorkerCrashedError(
                    f"shard {self.shard} worker died mid-request "
                    f"(op batch of {len(ops)}): {exc}"
                ) from exc
            finally:
                self._roundtrip.observe(time.perf_counter() - started)
                self._requests.inc()
                if stats is not None:
                    # Mirror the transport's running totals into the
                    # registry (delta since the last mirror).
                    self._bytes_sent.inc(
                        stats.bytes_sent - self._bytes_sent.value
                    )
                    self._bytes_received.inc(
                        stats.bytes_received - self._bytes_received.value
                    )
                    resyncs = getattr(self.transport, "resyncs", None)
                    if resyncs is not None:
                        self._frame_resyncs.inc(
                            resyncs - self._frame_resyncs.value
                        )
                        self._frame_garbage.inc(
                            self.transport.resync_bytes
                            - self._frame_garbage.value
                        )
        response = decode_response(payload)
        if response.id != request.id:
            raise ProtocolError(
                f"response id {response.id} does not match request "
                f"{request.id} (shard {self.shard})"
            )
        if len(response.results) != len(ops):
            raise ProtocolError(
                f"{len(response.results)} results for {len(ops)} ops "
                f"(shard {self.shard})"
            )
        if context is not None and response.spans:
            self._splice_remote_spans(context, response.spans, started, ended)
        values: list[Any] = []
        for result in response.results:
            if not result.get("ok"):
                raise wire_to_error(result)
            values.append(result.get("value"))
        return values

    def _splice_remote_spans(self, context: tuple[Any, str, str],
                             spans: list[dict[str, Any]],
                             t0: float, t1: float) -> None:
        """Rebase worker-clock spans into this process's clock and stage
        them on the tracer for the trace's completion.

        ``perf_counter`` values are process-local, so the worker's window
        is centered inside the client's observed roundtrip ``[t0, t1]`` —
        the symmetric-delay assumption every clock-sync protocol starts
        from.  The gap between ``t0`` and the rebased first worker stamp
        is then the request's queue dwell (transit + time parked in the
        worker's socket buffer), synthesized as its own span.
        """
        tracer, trace_id, _parent_stage = context
        starts = [float(span["start"]) for span in spans]
        ends = [float(span["end"]) for span in spans]
        w0 = min(starts)
        window = max(ends) - w0
        offset = t0 + ((t1 - t0) - window) / 2.0 - w0
        rebased = [
            Span(
                stage=str(span["stage"]),
                start=float(span["start"]) + offset,
                end=float(span["end"]) + offset,
                shard=self.shard,
                remote=True,
            )
            for span in spans
        ]
        dwell_end = max(w0 + offset, t0)
        rebased.insert(0, Span(
            stage="rpc_queue_dwell", start=t0, end=dwell_end,
            shard=self.shard, remote=True,
        ))
        tracer.add_remote_spans(trace_id, rebased)

    def _store_call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        return self.call([store_op(method, *args, **kwargs)])[0]

    _read = _store_call

    # -- store API ----------------------------------------------------------------

    def collection(self, name: str) -> RemoteCollection:
        coll = self._collections.get(name)
        if coll is None:
            self._store_call("collection", name)
            coll = self._collections[name] = RemoteCollection(self, name)
        return coll

    def drop_collection(self, name: str) -> None:
        self._store_call("drop_collection", name)
        self._collections.pop(name, None)

    def metrics_snapshot(self, timeout: float | None = None) -> dict[str, Any]:
        """The worker process's full metrics snapshot (one harvest RPC)."""
        return self.call([store_op("metrics_snapshot")], timeout=timeout)[0]

    # -- replication surface ------------------------------------------------------
    #
    # The worker wraps its store in a LocalReplicaPeer, so this proxy can
    # speak the full replica-peer surface over the same framed protocol —
    # which is what lets a ReplicaSet mix in-process and process-hosted
    # replicas freely.

    #: The worker serve loop is single-threaded: a server-side blocking
    #: tail wait would stall that shard's writes, so shippers poll remote
    #: leaders instead of calling ``wal_wait``.
    blocking_tail = False

    @property
    def epoch(self) -> int:
        """The worker's fenced epoch (one RPC)."""
        return int(self._store_call("replication_status")["epoch"])

    def ping(self, timeout: float | None = None) -> dict[str, Any]:
        """Health probe; refreshes the cached worker identity and recovery
        statistics that make this proxy quack like a recovered local store."""
        info = self.call([store_op("ping")], timeout=timeout)[0]
        self.pid = info.get("pid")
        for stat in ("snapshot_documents", "replayed_ops", "deduplicated_ops",
                     "truncated_bytes", "snapshot_lsn"):
            setattr(self, stat, info.get(stat, 0))
        return info

    # -- lifecycle ----------------------------------------------------------------

    def simulate_crash(self) -> None:
        """Deterministic power loss: the worker drops its un-fsynced journal
        bytes and exits; the supervisor hook then reaps the process.

        Tolerates a worker that is *already* dead (a real kill) — the whole
        point of modelling crashes.
        """
        if not self._crashed:
            try:
                self._store_call("crash")
            except WorkerCrashedError:
                pass  # already dead: nothing left to lose
            self._crashed = True
        if self.on_simulate_crash is not None:
            self.on_simulate_crash()
        self.transport.close()

    def close(self) -> None:
        """Close the worker's journal; the worker keeps serving reads
        (mirror of ``DurableDocumentStore.close``).  Idempotent."""
        if self._crashed:
            return
        try:
            self._store_call("close")
        except WorkerCrashedError:
            self._crashed = True

    def shutdown(self) -> None:
        """End the worker's serve loop and release the transport."""
        if not self._crashed:
            try:
                self._store_call("shutdown")
            except WorkerCrashedError:
                pass
            self._crashed = True
        self.transport.close()
