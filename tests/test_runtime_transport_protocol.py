"""Transports and the RPC protocol layer, including a worker over loopback.

The loopback transport exists precisely so the protocol, the worker's
dispatch and the corruption handling can all be exercised in-process: the
bytes still round-trip through real frames, and ``inject`` lets a test
drip raw garbage into the stream between valid requests.
"""

import threading

import pytest

from repro.errors import (
    DuplicateKeyError,
    ProcessPlaneError,
    ProtocolError,
    TransportClosedError,
    TransportError,
)
from repro.runtime.protocol import (
    OPS,
    PROTOCOL_VERSION,
    STORE,
    Request,
    Response,
    client_name,
    collection_op,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_to_wire,
    store_op,
    wire_to_error,
)
from repro.runtime.remote import RemoteCollection, RemoteShardStore
from repro.runtime.transport import LoopbackTransport, SocketTransport
from repro.runtime.worker import ShardWorker
from repro.storage.store import DocumentStore


# -- transports ---------------------------------------------------------------------


def test_loopback_roundtrip_and_byte_accounting():
    a, b = LoopbackTransport.pair()
    a.send(b"ping")
    assert b.recv(timeout=1.0) == b"ping"
    b.send(b"pong")
    assert a.recv(timeout=1.0) == b"pong"
    assert a.stats.bytes_sent == b.stats.bytes_received
    assert a.resync_bytes == 0


def test_loopback_injected_garbage_resyncs():
    # Small frame cap so every garbage offset parses as an implausible
    # length and is hunted past immediately (a large cap would make the
    # decoder legitimately wait for the phantom payload to arrive).
    a, b = LoopbackTransport.pair(max_frame_bytes=1024)
    a.inject(b"\xdegarbage-that-is-not-a-frame\xff\xfe")
    a.send(b"still-works")
    assert b.recv(timeout=1.0) == b"still-works"
    assert b.resync_bytes > 0


def test_loopback_timeout_and_close():
    a, b = LoopbackTransport.pair()
    with pytest.raises(TransportError):
        b.recv(timeout=0.01)
    a.close()
    with pytest.raises(TransportClosedError):
        b.recv(timeout=1.0)
    with pytest.raises(TransportClosedError):
        a.send(b"nope")


def test_socket_transport_roundtrip_chunked_reads():
    a, b = SocketTransport.pair()
    b._read_chunk = 3  # force frame reassembly across many tiny reads
    payload = b"x" * 1000
    a.send(payload)
    a.send(b"second")
    assert b.recv(timeout=5.0) == payload
    assert b.recv(timeout=5.0) == b"second"
    a.close()
    with pytest.raises(TransportClosedError):
        b.recv(timeout=5.0)
    b.close()


# -- protocol -----------------------------------------------------------------------


def test_request_response_roundtrip():
    request = Request(id=7, ops=[
        store_op("ping"),
        collection_op("alarms", "find", {"zip": "8001"}, limit=3),
    ])
    decoded = decode_request(encode_request(request))
    assert decoded == request

    response = Response(id=7, results=[
        {"ok": True, "value": {"pid": 1}},
        {"ok": True, "value": []},
    ])
    assert decode_response(encode_response(response)) == response


def test_op_builders_validate_methods():
    with pytest.raises(ProtocolError):
        store_op("eval")
    with pytest.raises(ProtocolError):
        collection_op("alarms", "__init__")


def test_decode_rejects_version_mismatch_and_malformed_bodies():
    import json

    stale = json.dumps({"v": PROTOCOL_VERSION + 1, "id": 1, "ops": []}).encode()
    with pytest.raises(ProtocolError, match="version mismatch"):
        decode_request(stale)
    with pytest.raises(ProtocolError):
        decode_request(b"\xff not json")
    with pytest.raises(ProtocolError, match="non-empty"):
        decode_request(encode_request(Request(id=1, ops=[])))
    # Off-allowlist methods are rejected at decode time, before dispatch.
    smuggled = json.dumps({
        "v": PROTOCOL_VERSION, "id": 1,
        "ops": [{"t": "store", "m": "save", "a": ["/etc/passwd"], "k": {}}],
    }).encode()
    with pytest.raises(ProtocolError, match="unknown store method"):
        decode_request(smuggled)
    with pytest.raises(ProtocolError, match="malformed result"):
        decode_response(encode_response(Response(id=1, results=[{"no": 1}])))


@pytest.mark.parametrize("bad_id", ["x", None, [1], 1.5])
def test_non_integer_message_id_is_a_protocol_error(bad_id):
    import json

    request = {"v": PROTOCOL_VERSION, "id": bad_id, "ops": [store_op("ping")]}
    with pytest.raises(ProtocolError, match="id must be an integer"):
        decode_request(json.dumps(request).encode())
    response = {"v": PROTOCOL_VERSION, "id": bad_id, "results": []}
    with pytest.raises(ProtocolError, match="id must be an integer"):
        decode_response(json.dumps(response).encode())


def test_error_rehydration():
    wire = error_to_wire(DuplicateKeyError("dup on uid"))
    error = wire_to_error(wire)
    assert isinstance(error, DuplicateKeyError)
    assert "dup on uid" in str(error)

    unknown = wire_to_error({"ok": False, "error": "KeyError", "message": "'x'"})
    assert isinstance(unknown, ProcessPlaneError)
    assert "KeyError" in str(unknown)


# -- worker over loopback -----------------------------------------------------------


@pytest.fixture()
def loopback_worker():
    client_t, server_t = LoopbackTransport.pair()
    worker = ShardWorker(DocumentStore(), server_t)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    client = RemoteShardStore(client_t, shard=0, timeout=5.0)
    yield client, worker
    client.shutdown()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_remote_surface_matches_local_store(loopback_worker):
    client, worker = loopback_worker
    local = DocumentStore()
    docs = [{"uid": f"u{i}", "zone": i % 3, "w": float(i)} for i in range(30)]

    for store in (client, local):
        coll = store.collection("alarms")
        coll.insert_many(docs)
        coll.create_index("uid", unique=True)
        coll.create_index("zone")

    remote, local_coll = client.collection("alarms"), local.collection("alarms")
    assert len(remote) == len(local_coll) == 30
    assert remote.count({"zone": 1}) == local_coll.count({"zone": 1})
    assert remote.find({"zone": 2}, sort=("w", -1), limit=4) == \
        local_coll.find({"zone": 2}, sort=("w", -1), limit=4)
    assert remote.find_one({"uid": "u7"}) == local_coll.find_one({"uid": "u7"})
    assert remote.distinct("zone") == local_coll.distinct("zone")
    assert remote.get(1) == local_coll.get(1)
    assert sorted(remote.index_fields()) == sorted(local_coll.index_fields())
    assert remote.index_spec("uid") == local_coll.index_spec("uid")
    assert list(remote.all_documents()) == list(local_coll.all_documents())
    assert remote.explain({"uid": "u3"})["mode"] == \
        local_coll.explain({"uid": "u3"})["mode"]
    assert client.aggregate("alarms", [
        {"$match": {"zone": 0}},
        {"$group": {"_id": None, "total": {"$sum": "$w"}}},
    ]) == local.aggregate("alarms", [
        {"$match": {"zone": 0}},
        {"$group": {"_id": None, "total": {"$sum": "$w"}}},
    ])

    assert remote.update_many({"zone": 0}, {"$set": {"flag": True}}) == \
        local_coll.update_many({"zone": 0}, {"$set": {"flag": True}})
    assert remote.delete_many({"zone": 2}) == local_coll.delete_many({"zone": 2})
    assert len(remote) == len(local_coll)
    assert client.collection_names() == local.collection_names()


def test_remote_errors_raise_like_local_ones(loopback_worker):
    client, _ = loopback_worker
    coll = client.collection("alarms")
    coll.create_index("uid", unique=True)
    coll.insert_one({"uid": "dup"})
    with pytest.raises(DuplicateKeyError):
        coll.insert_one({"uid": "dup"})
    with pytest.raises(ProtocolError, match="callable"):
        coll.update_many({}, lambda doc: doc)
    assert len(coll) == 1  # the worker survived both failures


def test_batched_ops_pipeline_in_one_roundtrip(loopback_worker):
    client, _ = loopback_worker
    client.collection("alarms")
    before = client._requests.value
    values = client.call([
        collection_op("alarms", "insert_many", [{"n": i} for i in range(5)]),
        collection_op("alarms", "count", {}),
        store_op("collection_names"),
    ])
    assert client._requests.value == before + 1
    assert len(values[0]) == 5
    assert values[1] == 5
    assert values[2] == ["alarms"]


def test_worker_survives_injected_corruption_between_requests(loopback_worker):
    client, worker = loopback_worker
    coll = client.collection("alarms")
    coll.insert_one({"n": 1})
    client.transport.inject(b"\xde\xad\xbe\xef torn bytes \x00\x00")
    assert coll.count({}) == 1  # request after garbage still answered
    assert worker.transport.resync_bytes > 0


def test_worker_answers_malformed_ids_and_methods_and_keeps_serving(
        loopback_worker):
    import json

    client, _ = loopback_worker
    ping = {"t": "store", "m": "ping", "a": [], "k": {}}
    for body in ({"v": PROTOCOL_VERSION, "id": "x", "ops": [ping]},
                 {"v": PROTOCOL_VERSION, "id": 1,
                  "ops": [dict(ping, m=["ping"])]}):
        client.transport.send(json.dumps(body).encode())
        reply = decode_response(client.transport.recv(timeout=5.0))
        assert reply.id == -1
        assert isinstance(wire_to_error(reply.results[0]), ProtocolError)
    assert client.collection("alarms").count({}) == 0  # still serving


def test_every_declared_op_has_a_client_and_resolves_on_the_worker(tmp_path):
    from repro.durability.journal import DurableDocumentStore
    from repro.replication.peer import LocalReplicaPeer
    from repro.replication.replica_set import ReplicatedCollection

    for op, (level, _write) in OPS.items():
        clients = ((RemoteShardStore,) if level == STORE
                   else (RemoteCollection, ReplicatedCollection))
        for cls in clients:
            assert callable(getattr(cls, client_name(op), None)), (cls, op)

    # The production host shape: a worker over a replica peer over a
    # durable store.  Every op is sent without arguments, so one that
    # resolves fails at worst on its signature; one that does not
    # resolve reports an AttributeError.  Lifecycle ops go last.
    client_t, server_t = LoopbackTransport.pair()
    store = DurableDocumentStore(tmp_path)
    worker = ShardWorker(LocalReplicaPeer(store, tmp_path), server_t)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    RemoteShardStore(client_t, timeout=10.0).collection("alarms")
    lifecycle = ["close", "crash", "shutdown"]
    names = [op for op in OPS if op not in lifecycle] + lifecycle
    client_t.send(encode_request(Request(id=1, ops=[
        store_op(op) if OPS[op][0] == STORE else collection_op("alarms", op)
        for op in names
    ])))
    results = decode_response(client_t.recv(timeout=10.0)).results
    assert len(results) == len(names)
    for op, result in zip(names, results):
        assert result["ok"] or (result["error"] != "AttributeError"
                                and "not callable" not in result["message"]
                                ), (op, result)
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_worker_rejects_oversized_batch_reply_gracefully():
    # A non-JSON value from a store method must fail that op, not the worker.
    class WeirdStore(DocumentStore):
        def collection_names(self):
            return {b"bytes-key"}  # not JSON-serializable

    client_t, server_t = LoopbackTransport.pair()
    worker = ShardWorker(WeirdStore(), server_t)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    client = RemoteShardStore(client_t, shard=0, timeout=5.0)
    try:
        with pytest.raises(ProcessPlaneError):
            client.collection_names()
        client.collection("alarms").insert_one({"n": 1})  # still serving
    finally:
        client.shutdown()
        thread.join(timeout=5.0)


# -- trace propagation and metrics harvest ------------------------------------------


def test_trace_fields_round_trip_and_stay_optional():
    import json

    traced = Request(id=3, ops=[store_op("ping")],
                     trace_id="t-00000042", parent_span="store")
    decoded = decode_request(encode_request(traced))
    assert decoded.trace_id == "t-00000042"
    assert decoded.parent_span == "store"

    # Untraced requests must not grow wire keys: protocol v1 stays
    # readable by peers that predate tracing.
    bare = json.loads(encode_request(Request(id=4, ops=[store_op("ping")])))
    assert "tid" not in bare and "ps" not in bare
    assert decode_request(encode_request(Request(id=4, ops=[store_op("ping")]))
                          ).trace_id is None

    spans = [{"stage": "rpc_execute", "start": 1.0, "end": 2.0}]
    response = Response(id=3, results=[{"ok": True, "value": None}],
                        spans=spans)
    assert decode_response(encode_response(response)).spans == spans
    plain = json.loads(encode_response(
        Response(id=4, results=[{"ok": True, "value": None}])
    ))
    assert "spans" not in plain
    # A v1 body written before spans existed still decodes.
    assert decode_response(json.dumps(
        {"v": 1, "id": 5, "results": [{"ok": True, "value": 1}]}
    ).encode()) == Response(id=5, results=[{"ok": True, "value": 1}])


def test_decode_rejects_malformed_spans():
    import json

    body = {
        "v": PROTOCOL_VERSION, "id": 1,
        "results": [{"ok": True, "value": None}],
        "spans": [{"stage": "rpc_execute"}],  # missing start/end
    }
    with pytest.raises(ProtocolError, match="malformed span"):
        decode_response(json.dumps(body).encode())
    body["spans"] = "not-a-list"
    with pytest.raises(ProtocolError, match="spans must be a list"):
        decode_response(json.dumps(body).encode())


def test_metrics_snapshot_op_returns_worker_snapshot(loopback_worker):
    client, worker = loopback_worker
    client.collection("alarms").insert_one({"n": 1})
    snapshot = client.metrics_snapshot()
    assert snapshot["schema"] == "repro.metrics/v1"
    assert snapshot["meta"]["role"] == "worker"
    assert snapshot["meta"]["pid"] > 0


def test_worker_exports_frame_resync_counters(loopback_worker):
    client, worker = loopback_worker
    coll = client.collection("alarms")
    coll.insert_one({"n": 1})
    client.transport.inject(b"\xff" * 9)  # one garbage run hits the worker
    assert coll.count({}) == 1
    snapshot = client.metrics_snapshot()
    resyncs = snapshot["counters"].get("repro_frame_resyncs_total")
    garbage = snapshot["counters"].get("repro_frame_garbage_bytes_total")
    assert resyncs is not None and resyncs["value"] == 1
    assert garbage is not None and garbage["value"] == 9


def test_traced_request_splices_worker_spans_into_parent_trace(loopback_worker):
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Tracer, trace_context

    client, worker = loopback_worker
    tracer = Tracer(sample_every=1, registry=MetricsRegistry())
    with trace_context(tracer, "t-00000001", "store"):
        client.collection("alarms").insert_one({"uid": "traced"})
    trace = tracer.record("t-00000001", [("store", 0.0, 1e-5)])

    stages = [span.stage for span in trace.spans]
    assert "rpc_execute" in stages
    assert "rpc_encode" in stages
    assert "rpc_queue_dwell" in stages
    remote = {span.stage: span for span in trace.spans if span.remote}
    assert remote["rpc_execute"].shard == 0
    # Rebasing keeps worker spans inside the parent's observed window
    # and in causal order: queue dwell ends where execution starts.
    assert remote["rpc_queue_dwell"].end <= remote["rpc_execute"].start + 1e-6
    assert remote["rpc_execute"].end <= remote["rpc_encode"].end + 1e-6
    for span in remote.values():
        assert span.end >= span.start


def test_untraced_requests_carry_no_spans(loopback_worker):
    client, worker = loopback_worker
    client.collection("alarms").insert_one({"n": 1})  # no ambient context
    # The worker only times traced requests; the plain path stays lean.
    # (Indirect check: a subsequent traced call is the first to splice.)
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Tracer, trace_context

    tracer = Tracer(sample_every=1, registry=MetricsRegistry())
    with trace_context(tracer, "t-00000009", "store"):
        client.collection("alarms").insert_one({"n": 2})
    trace = tracer.record("t-00000009", [("store", 0.0, 1e-5)])
    assert sum(1 for s in trace.spans if s.stage == "rpc_execute") == 1
