"""ReplicaSet: one shard's leader + followers behind a store-shaped facade.

A :class:`ReplicaSet` owns N peers (any mix of
:class:`~repro.replication.peer.LocalReplicaPeer` and
:class:`~repro.runtime.remote.RemoteShardStore` — both speak the same
replication surface), elects a leader, and runs one
:class:`~repro.replication.shipper.LogShipper` per follower.  To everything
above it — :class:`~repro.cluster.sharded.ShardedDocumentStore`, the
workload driver, the CLI — it quacks exactly like a single durable store.

**Write path.**  Every write goes through the leader's fenced
``apply_write`` carrying the set's epoch.  ``ack="sync"`` blocks until
every live follower's acked frontier reaches the write's LSN (so a
subsequent leader loss cannot lose it); ``ack="async"`` returns at leader
durability and lets followers trail.

**Read path.**  ``read_from="leader"`` (default) serves reads from the
leader — read-your-writes.  ``read_from="follower"`` round-robins reads
over the followers (falling back to the leader when none are up) —
scale-out reads that may trail the leader by the replication lag in
``async`` mode.

**Failover.**  :meth:`promote` is the generation-fencing move: stop the
shippers, pick the most-caught-up follower (highest ``(epoch, frontier)``,
ties to the lowest index), bump the epoch, fence every reachable peer at
it, and restart shippers from the new leader.  A stale leader that missed
all of this is rejected by the epoch fence at both remaining entry points
(its own ``apply_write`` acks and its shipper's ``replica_apply`` pushes).
In ``sync`` ack mode the most-caught-up follower holds every acked write,
so promotion is zero-loss.  :meth:`fail_over` is the full drill — kill the
leader (via its :class:`ReplicaController`), promote, respawn the old
leader as a follower (it catches up via snapshot + WAL suffix).

Failover duration lands in the ``repro_failover_seconds`` histogram.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import (
    ConfigurationError,
    ReplicationError,
    ReproError,
    StaleEpochError,
)
from repro.obs.registry import get_registry
from repro.replication.shipper import LogShipper
from repro.runtime.protocol import COLL, WRITE_OPS, apply_op, forward_ops

__all__ = ["ReplicaController", "ReplicaSet", "ReplicatedCollection"]

ACK_MODES = ("sync", "async")
READ_MODES = ("leader", "follower")

#: Seconds a ``sync``-ack write waits for follower acknowledgement before
#: failing the write (a follower that cannot ack within this is down, and
#: durability-by-replication cannot be claimed).
SYNC_ACK_TIMEOUT = 30.0


@dataclass
class ReplicaController:
    """Process-level hooks for one replica: how to kill and respawn it.

    ``kill`` crashes the replica's process/store (SIGKILL in process mode,
    ``simulate_crash`` in-process); ``respawn`` brings a fresh peer up over
    the same durability root and returns it.  Either may be None when the
    environment cannot provide it (a killed in-process peer without a
    reopen factory simply stays dead).
    """

    kill: Callable[[], None] | None = None
    respawn: Callable[[], Any] | None = None


def _peer_status(peer: Any) -> dict[str, Any] | None:
    """The peer's replication status, or None when it is unreachable/dead."""
    try:
        return peer.replication_status()
    except ReproError:
        return None


@forward_ops(COLL)
class ReplicatedCollection:
    """Collection facade routing writes to the leader, reads per policy.

    Its methods derive from the op table (:func:`forward_ops`): the
    journaled writes go through the fenced, replicated ``_write``, and
    everything else through ``_read``.
    """

    def __init__(self, replica_set: "ReplicaSet", name: str) -> None:
        self._set = replica_set
        self.name = name

    def _write(self, method: str, *args: Any, **kwargs: Any) -> Any:
        return self._set._write(self.name, method, *args, **kwargs)

    def _read(self, method: str, *args: Any, **kwargs: Any) -> Any:
        return self._set._read_collection(self.name, method, *args, **kwargs)


class ReplicaSet:
    """Leader/follower replication for one shard, store-shaped."""

    def __init__(self, peers: list[Any], *, shard: int = 0,
                 ack: str = "sync", read_from: str = "leader",
                 leader: int | None = None,
                 controllers: list[ReplicaController] | None = None,
                 sync_ack_timeout: float = SYNC_ACK_TIMEOUT,
                 auto_failover: bool = True) -> None:
        if len(peers) < 1:
            raise ConfigurationError("a replica set needs at least one peer")
        if ack not in ACK_MODES:
            raise ConfigurationError(
                f"ack must be one of {list(ACK_MODES)}, got {ack!r}"
            )
        if read_from not in READ_MODES:
            raise ConfigurationError(
                f"read_from must be one of {list(READ_MODES)}, got {read_from!r}"
            )
        if controllers is not None and len(controllers) != len(peers):
            raise ConfigurationError(
                f"{len(controllers)} controllers for {len(peers)} peers"
            )
        self.shard = shard
        self.ack = ack
        self.read_from = read_from
        self.sync_ack_timeout = sync_ack_timeout
        self.auto_failover = auto_failover
        self._peers: list[Any] = list(peers)
        self._controllers = controllers or [
            ReplicaController() for _ in peers
        ]
        self._dead: set[int] = set()
        self._lock = threading.RLock()
        self._shippers: dict[int, LogShipper] = {}
        self._read_rr = 0
        self._closed = False
        #: Promotion history: one dict per failover (epoch, leader, seconds).
        self.failovers: list[dict[str, Any]] = []
        self._failover_hist = get_registry().histogram("repro_failover_seconds")
        self._leader_index, self._epoch = self._elect(leader)
        self._fence_all(self._epoch)
        self._start_shippers()

    # -- election / fencing -----------------------------------------------------------

    def _elect(self, explicit: int | None) -> tuple[int, int]:
        """Pick the initial leader and epoch from the peers' persisted state.

        The leader is the most-caught-up reachable peer — highest
        ``(epoch, frontier)``, ties to the lowest index — unless the
        caller pinned one.  The set's epoch starts at the highest epoch
        any peer has seen (so a restarted cluster never regresses below a
        fence some replica already honoured).
        """
        statuses = [(_peer_status(peer)) for peer in self._peers]
        for index, status in enumerate(statuses):
            if status is None:
                self._dead.add(index)
        alive = [(i, s) for i, s in enumerate(statuses) if s is not None]
        if not alive:
            raise ReplicationError(
                f"shard {self.shard}: no reachable replica to lead"
            )
        max_epoch = max(s["epoch"] for _, s in alive)
        if explicit is not None:
            if statuses[explicit] is None:
                raise ReplicationError(
                    f"shard {self.shard}: pinned leader {explicit} is dead"
                )
            return explicit, max_epoch
        best = max(alive, key=lambda item: (item[1]["epoch"],
                                            item[1]["next_lsn"], -item[0]))
        return best[0], max_epoch

    def _fence_all(self, epoch: int, exclude: set[int] | None = None) -> None:
        """Raise every reachable peer's fence to ``epoch``."""
        for index, peer in enumerate(self._peers):
            if index in self._dead or (exclude and index in exclude):
                continue
            try:
                peer.set_epoch(epoch)
            except ReproError:
                self._dead.add(index)

    def _start_shippers(self) -> None:
        leader = self._peers[self._leader_index]
        for index in range(len(self._peers)):
            if index == self._leader_index or index in self._dead:
                continue
            self._shippers[index] = LogShipper(
                leader, self._peers[index], self._epoch,
                shard=self.shard, replica=index,
            ).start()

    def _stop_shippers(self) -> None:
        for shipper in self._shippers.values():
            shipper.stop()
        self._shippers = {}

    # -- introspection ----------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def leader_index(self) -> int:
        return self._leader_index

    @property
    def leader(self) -> Any:
        return self._peers[self._leader_index]

    @property
    def peers(self) -> list[Any]:
        return list(self._peers)

    @property
    def num_replicas(self) -> int:
        return len(self._peers)

    def follower_indexes(self) -> list[int]:
        return [i for i in range(len(self._peers))
                if i != self._leader_index and i not in self._dead]

    def replication_lag(self) -> dict[int, int]:
        """Records each live follower trails the leader by, right now."""
        status = _peer_status(self.leader)
        if status is None:
            return {}
        head = status["next_lsn"]
        return {
            index: max(0, head - 1 - shipper.acked)
            for index, shipper in self._shippers.items()
            if shipper.running
        }

    def status(self) -> dict[str, Any]:
        """Epoch, leader, and per-peer frontier — the operator's view."""
        return {
            "shard": self.shard,
            "epoch": self._epoch,
            "leader": self._leader_index,
            "ack": self.ack,
            "read_from": self.read_from,
            "peers": [
                {"replica": i,
                 "role": ("leader" if i == self._leader_index else "follower"),
                 "alive": i not in self._dead,
                 "status": _peer_status(peer)}
                for i, peer in enumerate(self._peers)
            ],
            "failovers": len(self.failovers),
        }

    def leader_alive(self) -> bool:
        return _peer_status(self.leader) is not None

    def collect_metrics(self) -> list[dict[str, Any]]:
        """Harvest the metrics snapshot of every process-hosted replica.

        Only peers with a ``metrics_snapshot`` surface contribute (a
        :class:`~repro.replication.peer.LocalReplicaPeer` shares the
        parent's registry — harvesting it would double-count).  Each
        snapshot is relabeled ``{shard, replica}``, so a worker's WAL and
        planner series surface in the merged cluster view attributed to
        the replica that recorded them; a dead peer contributes a
        tombstone.
        """
        from repro.obs.aggregate import relabel_snapshot, tombstone_snapshot

        snapshots: list[dict[str, Any]] = []
        for index, peer in enumerate(self._peers):
            harvest = getattr(peer, "metrics_snapshot", None)
            if harvest is None:
                continue
            labels = {"shard": self.shard, "replica": index}
            if index in self._dead:
                snapshots.append(tombstone_snapshot(
                    error="replica marked dead", **labels
                ))
                continue
            try:
                snapshots.append(relabel_snapshot(harvest(), labels))
            except ReproError as exc:
                snapshots.append(tombstone_snapshot(error=str(exc), **labels))
        return snapshots

    # -- write path -------------------------------------------------------------------

    def _write(self, collection: str, method: str, *args: Any,
               **kwargs: Any) -> Any:
        if method not in WRITE_OPS:
            raise ReplicationError(f"method {method!r} is not a replicated write")
        with self._lock:
            self._check_open()
            leader = self.leader
            epoch = self._epoch
        try:
            reply = leader.apply_write(epoch, collection, method,
                                       list(args), kwargs)
        except StaleEpochError:
            raise  # this handle missed a promotion; never retry under it
        except ReproError:
            if not self.auto_failover or self.leader_alive():
                raise
            # Leader died mid-write.  The op's fate on the old timeline is
            # unknown-but-atomic (same contract as a worker crash); promote
            # and retry once — journaled writes are idempotent at the sink.
            self.promote()
            with self._lock:
                leader, epoch = self.leader, self._epoch
            reply = leader.apply_write(epoch, collection, method,
                                       list(args), kwargs)
        if self.ack == "sync":
            self._await_followers(reply["next_lsn"] - 1)
        return reply["result"]

    def _await_followers(self, lsn: int) -> None:
        """Block until every live follower has durably applied ``lsn``."""
        for index, shipper in list(self._shippers.items()):
            if not shipper.running:
                continue
            if not shipper.wait_for(lsn, timeout=self.sync_ack_timeout):
                if shipper.running:
                    raise ReplicationError(
                        f"shard {self.shard} replica {index} did not ack lsn "
                        f"{lsn} within {self.sync_ack_timeout}s"
                    )
                # Shipper stopped while we waited (promotion/teardown):
                # the new regime re-ships the record; nothing to enforce.

    # -- read path --------------------------------------------------------------------

    def _read_peer(self) -> Any:
        if self.read_from == "follower":
            with self._lock:
                followers = self.follower_indexes()
                if followers:
                    self._read_rr += 1
                    return self._peers[followers[self._read_rr % len(followers)]]
        return self.leader

    @staticmethod
    def _read_once(peer: Any, collection: str, method: str, *args: Any,
                   **kwargs: Any) -> Any:
        return apply_op(peer.collection(collection), COLL, method, args, kwargs)

    def _read_collection(self, collection: str, method: str, *args: Any,
                         **kwargs: Any) -> Any:
        peer = self._read_peer()
        try:
            return self._read_once(peer, collection, method, *args, **kwargs)
        except ReproError:
            if peer is not self.leader:
                # A follower died mid-read: the leader always has the data.
                return self._read_once(self.leader, collection, method,
                                       *args, **kwargs)
            if not self.auto_failover or self.leader_alive():
                raise
            # Leader died mid-read: promote, then serve from the new one.
            self.ensure_leader()
            return self._read_once(self.leader, collection, method,
                                   *args, **kwargs)

    # -- failover ---------------------------------------------------------------------

    def promote(self, to: int | None = None) -> dict[str, Any]:
        """Promote the most-caught-up follower under a bumped epoch.

        Order matters: shippers stop first (no new records flow under the
        old epoch), the fence goes up on every reachable peer *before* the
        new leader takes writes, and only then do fresh shippers start.  A
        peer that was unreachable during the fence round adopts the new
        epoch lazily — its first contact with the new regime — while
        anything still speaking the old epoch is rejected.
        """
        started = time.perf_counter()
        with self._lock:
            self._check_open()
            old_leader = self._leader_index
            self._stop_shippers()
            if _peer_status(self._peers[old_leader]) is None:
                self._dead.add(old_leader)
            candidates: list[tuple[int, dict[str, Any]]] = []
            for index, peer in enumerate(self._peers):
                if index == old_leader or index in self._dead:
                    continue
                status = _peer_status(peer)
                if status is None:
                    self._dead.add(index)
                    continue
                candidates.append((index, status))
            old_epoch = self._epoch
            if to is not None:
                chosen = [c for c in candidates if c[0] == to]
                if not chosen:
                    raise ReplicationError(
                        f"shard {self.shard}: replica {to} cannot be promoted "
                        f"(dead or current leader)"
                    )
                best = chosen[0]
            else:
                if not candidates:
                    raise ReplicationError(
                        f"shard {self.shard}: no live follower to promote"
                    )
                best = max(candidates,
                           key=lambda item: (item[1]["epoch"],
                                             item[1]["next_lsn"], -item[0]))
            self._epoch += 1
            self._leader_index = best[0]
            self._fence_all(self._epoch)
            self._start_shippers()
            seconds = time.perf_counter() - started
            record = {
                "shard": self.shard,
                "old_leader": old_leader,
                "new_leader": self._leader_index,
                "old_epoch": old_epoch,
                "epoch": self._epoch,
                "frontier": best[1]["next_lsn"],
                "seconds": seconds,
            }
            self.failovers.append(record)
        self._failover_hist.observe(seconds)
        return record

    def fail_over(self, kill: bool = True) -> dict[str, Any]:
        """The full failover drill: kill the leader, promote, respawn it.

        ``kill=False`` skips the kill (the leader already died on its
        own).  The old leader is respawned as a follower when its
        controller can, and catches up via snapshot + WAL suffix.
        Returns the promotion record plus respawn info.
        """
        with self._lock:
            self._check_open()
            old_leader = self._leader_index
        if kill:
            controller = self._controllers[old_leader]
            if controller.kill is not None:
                controller.kill()
            else:
                try:
                    self._peers[old_leader].simulate_crash()
                except ReproError:
                    pass
            self._dead.add(old_leader)
        record = dict(self.promote())
        record["respawned"] = self.rejoin(old_leader)
        return record

    def rejoin(self, index: int) -> bool:
        """Respawn a dead replica as a follower of the current leader.

        The fresh peer is fenced at the current epoch immediately and a
        shipper starts catching it up.  Returns False when no respawn
        hook exists (the replica stays dead).
        """
        controller = self._controllers[index]
        if controller.respawn is None:
            return False
        peer = controller.respawn()
        with self._lock:
            self._check_open()
            if index == self._leader_index:
                raise ReplicationError(
                    f"shard {self.shard}: cannot rejoin the current leader"
                )
            self._peers[index] = peer
            self._dead.discard(index)
            try:
                peer.set_epoch(self._epoch)
            except ReproError:
                self._dead.add(index)
                return False
            self._shippers[index] = LogShipper(
                self.leader, peer, self._epoch,
                shard=self.shard, replica=index,
            ).start()
        return True

    def ensure_leader(self) -> dict[str, Any] | None:
        """Promote (and respawn the dead leader) iff the leader is down.

        The health-loop entry point: idempotent, returns the promotion
        record when a failover happened, None when the leader was fine.
        """
        with self._lock:
            if self._closed:
                return None
            old_leader = self._leader_index
        if self.leader_alive():
            return None
        record = dict(self.promote())
        record["respawned"] = self.rejoin(old_leader)
        return record

    # -- store surface ----------------------------------------------------------------

    def collection(self, name: str) -> ReplicatedCollection:
        # No open-check: a cleanly closed set still serves reads (the
        # durable store's contract; the driver's post-run reads rely on
        # it).  Writes re-check via ``_write``.
        return ReplicatedCollection(self, name)

    def drop_collection(self, name: str) -> None:
        # DDL follows the write path semantics but is not in the
        # collection-method allowlist; journal it via the leader directly.
        with self._lock:
            self._check_open()
            leader, epoch = self.leader, self._epoch
        status = _peer_status(leader)
        if status is not None and status["epoch"] > epoch:
            raise StaleEpochError(
                f"shard {self.shard} handle at epoch {epoch} is stale "
                f"(leader fenced at {status['epoch']})"
            )
        leader.drop_collection(name)

    def collection_names(self) -> list[str]:
        return self._read_peer().collection_names()

    def aggregate(self, collection: str, pipeline: list[Mapping[str, Any]],
                  ) -> list[dict[str, Any]]:
        return self._read_peer().aggregate(collection, list(pipeline))

    def checkpoint(self) -> Any:
        return self.leader.checkpoint()

    def journal_ops_since_snapshot(self) -> int:
        return self.leader.journal_ops_since_snapshot()

    # Recovery statistics quack-through: the leader's numbers are the ones
    # that describe the state this set serves.

    @property
    def snapshot_documents(self) -> int:
        return getattr(self.leader, "snapshot_documents", 0)

    @property
    def replayed_ops(self) -> int:
        return getattr(self.leader, "replayed_ops", 0)

    @property
    def deduplicated_ops(self) -> int:
        return getattr(self.leader, "deduplicated_ops", 0)

    @property
    def truncated_bytes(self) -> int:
        return getattr(self.leader, "truncated_bytes", 0)

    @property
    def snapshot_lsn(self) -> int:
        return getattr(self.leader, "snapshot_lsn", 0)

    # -- lifecycle --------------------------------------------------------------------

    def simulate_crash(self) -> None:
        """Crash every replica (un-fsynced bytes lost everywhere)."""
        with self._lock:
            self._stop_shippers()
            self._closed = True
        for index, peer in enumerate(self._peers):
            if index in self._dead:
                continue
            try:
                peer.simulate_crash()
            except ReproError:
                pass

    def close(self) -> None:
        """Stop shipping and close every replica.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._stop_shippers()
            self._closed = True
        for index, peer in enumerate(self._peers):
            if index in self._dead:
                continue
            try:
                peer.close()
            except ReproError:
                pass

    def _check_open(self) -> None:
        if self._closed:
            raise ReplicationError(
                f"operation on closed replica set (shard {self.shard})"
            )
