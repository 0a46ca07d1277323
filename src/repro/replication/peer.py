"""The replica-peer surface: epoch fencing, WAL tailing, follower apply.

Every member of a :class:`~repro.replication.replica_set.ReplicaSet` —
leader or follower, in-process or behind the RPC plane — exposes the same
small surface:

``replication_status()``
    Epoch plus WAL frontier (``next_lsn``/``first_lsn``) — what elections
    and catch-up decisions are made from.
``set_epoch(epoch)``
    Raise the fence.  Monotonic: lowering it is a stale peer's move and
    raises :class:`~repro.errors.StaleEpochError`.
``apply_write(epoch, collection, method, args, kwargs)``
    The *only* write entry point replicated traffic uses.  The epoch is
    checked against the fence first — a demoted leader's ack is rejected
    here — and the journaled LSN comes back with the result so a
    ``sync``-ack caller can wait for followers to reach it.
``wal_read(start_lsn, ...)`` / ``wal_wait(lsn, timeout)``
    Leader-side tail: bounded batches of ``[lsn, payload]`` records and a
    blocking "more exists" wait.
``replica_apply(epoch, entries)``
    Follower-side apply, fenced by epoch — the second fence point, which
    is what stops a zombie leader's shipper even in ``async`` ack mode.
``snapshot_export()`` / ``snapshot_install(epoch, state, lsn)``
    Catch-up for a follower behind the retained log (or fresh).

WAL payloads are journaled JSON (UTF-8 text), so entries cross the wire
as plain strings inside the existing JSON protocol — no second framing
scheme, no base64.

:class:`LocalReplicaPeer` implements the surface over an in-process
:class:`~repro.durability.journal.DurableDocumentStore`, persisting the
fenced epoch in a tiny fsynced file beside the store's ``wal/`` and
``snapshots/`` directories so it survives crashes.  Worker processes wrap
their store the same way, which makes a
:class:`~repro.runtime.remote.RemoteShardStore` speak this surface over
RPC verbatim.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import DurabilityError, ReplicationError, StaleEpochError
from repro.runtime.protocol import WRITE_OPS

__all__ = ["EpochFile", "LocalReplicaPeer"]

_EPOCH_NAME = "EPOCH"


class EpochFile:
    """Durable monotonic epoch counter (``EPOCH`` file under a replica root).

    The on-disk form is one JSON object written atomically (temp + rename,
    fsynced) so a crash mid-bump leaves either the old epoch or the new —
    never a torn file that would un-fence a stale leader.
    """

    def __init__(self, directory: str | Path) -> None:
        self.path = Path(directory) / _EPOCH_NAME
        self._lock = threading.Lock()
        self._epoch = 0
        if self.path.exists():
            try:
                self._epoch = int(
                    json.loads(self.path.read_text(encoding="utf-8"))["epoch"]
                )
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                raise ReplicationError(
                    f"unreadable epoch file {self.path}: {exc}"
                ) from exc

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def advance(self, epoch: int) -> int:
        """Persist ``epoch`` if it is ahead; equal is a no-op; behind raises."""
        with self._lock:
            if epoch < self._epoch:
                raise StaleEpochError(
                    f"epoch {epoch} is behind fenced epoch {self._epoch}"
                )
            if epoch > self._epoch:
                self._write(epoch)
                self._epoch = epoch
            return self._epoch

    def _write(self, epoch: int) -> None:
        tmp = self.path.with_name(f".{_EPOCH_NAME}.tmp-{os.getpid()}")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                handle.write(json.dumps({"epoch": epoch}))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            raise ReplicationError(
                f"cannot persist epoch {epoch} to {self.path}: {exc}"
            ) from exc


class LocalReplicaPeer:
    """One replica: a durable store plus its fenced epoch.

    Quacks like the wrapped :class:`DurableDocumentStore` for everything
    outside the replication surface (reads, ``checkpoint``, recovery
    statistics, lifecycle) via attribute delegation, so a peer drops into
    any slot a durable store fits — including being hosted by a
    :class:`~repro.runtime.worker.ShardWorker`.
    """

    #: Local peers can block on the WAL's append condition without
    #: stalling writers; remote proxies must poll instead (the worker
    #: serve loop is single-threaded).
    blocking_tail = True

    def __init__(self, store: Any, directory: str | Path) -> None:
        self._replica_store = store
        self.directory = Path(directory)
        self._epoch_file = EpochFile(self.directory)

    # -- epoch fence ----------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch_file.epoch

    def set_epoch(self, epoch: int) -> int:
        """Fence this peer at ``epoch`` (promotion broadcast)."""
        return self._epoch_file.advance(epoch)

    def _check_epoch(self, epoch: int) -> None:
        """Reject a stale epoch; adopt a newer one.

        Adopting covers the peer that missed a promotion broadcast (it was
        unreachable during the fence round): the first operation from the
        new regime raises its fence, after which the superseded regime is
        rejected — the same lazy-fencing rule brokers apply to consumer
        generations.
        """
        current = self._epoch_file.epoch
        if epoch < current:
            raise StaleEpochError(
                f"operation epoch {epoch} is behind fenced epoch {current} "
                f"(replica {self.directory.name})"
            )
        if epoch > current:
            self._epoch_file.advance(epoch)

    # -- fenced writes ---------------------------------------------------------------

    def apply_write(self, epoch: int, collection: str, method: str,
                    args: Sequence[Any] = (), kwargs: Mapping[str, Any] | None = None,
                    ) -> dict[str, Any]:
        """Journal one write under the fence; returns result + its frontier.

        The returned ``next_lsn`` is the WAL frontier *after* the write —
        a follower whose acked frontier reaches it has durably applied
        this write, which is the ``sync`` ack-mode condition.
        """
        # Only the journaled write surface; reads never need the fence.
        if method not in WRITE_OPS:
            raise ReplicationError(
                f"method {method!r} is not a replicated write"
            )
        self._check_epoch(epoch)
        store = self._replica_store
        # The store's write lock makes (apply, frontier) one atomic pair —
        # no interleaved write can slip between the journal append and the
        # LSN read.
        with store._write_lock:
            coll = store.collection(collection)
            result = getattr(coll, method)(*args, **(dict(kwargs or {})))
            return {"result": result, "next_lsn": store.wal.next_lsn}

    # -- leader-side tail -------------------------------------------------------------

    def wal_read(self, start_lsn: int, max_records: int = 512,
                 max_bytes: int = 1 << 20) -> dict[str, Any]:
        """One bounded batch of journal records from ``start_lsn``.

        Entries are ``[lsn, payload-text]`` pairs (journal payloads are
        JSON text by construction).  Raises
        :class:`~repro.errors.WALError` when ``start_lsn`` predates the
        retained log — the shipper's cue to fall back to snapshot
        catch-up.
        """
        store = self._replica_store
        batch = store.wal.read_batch(start_lsn, max_records=max_records,
                                     max_bytes=max_bytes)
        return {
            "entries": [[lsn, payload.decode("utf-8")] for lsn, payload in batch],
            "next_lsn": store.wal.next_lsn,
            "first_lsn": store.wal.first_lsn,
        }

    def wal_wait(self, lsn: int, timeout: float | None = None) -> bool:
        """Block until the journal holds a record at ``lsn`` (or timeout)."""
        return self._replica_store.wal.wait_for_lsn(lsn, timeout=timeout)

    # -- follower-side apply ----------------------------------------------------------

    def replica_apply(self, epoch: int, entries: Sequence[Sequence[Any]]) -> int:
        """Apply one shipped batch under the fence; returns the new frontier.

        This is the ack-path fence: even in ``async`` ack mode, a zombie
        leader's shipper dies here on its first post-promotion push.
        """
        self._check_epoch(epoch)
        frontier = self._replica_store.wal.next_lsn
        for lsn, payload in entries:
            frontier = self._replica_store.apply_replicated(
                int(lsn), payload.encode("utf-8")
            )
        return frontier

    # -- snapshot catch-up ------------------------------------------------------------

    def snapshot_export(self) -> dict[str, Any]:
        """Consistent store image + covered LSN, for a lagging follower."""
        state = self._replica_store.export_state()
        return {"state": state, "lsn": state["lsn"], "epoch": self.epoch}

    def snapshot_install(self, epoch: int, state: Mapping[str, Any],
                         lsn: int) -> int:
        """Replace local state with a leader image; returns the new frontier."""
        self._check_epoch(epoch)
        return self._replica_store.install_state(state, lsn)

    # -- status -----------------------------------------------------------------------

    def replication_status(self) -> dict[str, Any]:
        """Epoch + WAL frontier; raises when the store is dead (liveness probe)."""
        store = self._replica_store
        if getattr(store, "_closed", False):
            raise DurabilityError("operation on closed durable store")
        return {
            "epoch": self.epoch,
            "next_lsn": store.wal.next_lsn,
            "first_lsn": store.wal.first_lsn,
            "snapshot_lsn": getattr(store, "snapshot_lsn", 0),
            "pid": os.getpid(),
        }

    # -- store-surface delegation ------------------------------------------------------

    @property
    def store(self) -> Any:
        """The wrapped durable store."""
        return self._replica_store

    def collection(self, name: str) -> Any:
        # A cleanly closed store still serves in-memory reads (the durable
        # store's contract); a *crashed* one must not — its memory is
        # notionally gone, and serving from it would let a dead leader
        # answer reads it can no longer back.
        if getattr(self._replica_store, "_crashed", False):
            raise DurabilityError(
                f"replica {self.directory.name} crashed; reads must fail over"
            )
        return self._replica_store.collection(name)

    def __getattr__(self, item: str) -> Any:
        return getattr(self._replica_store, item)
