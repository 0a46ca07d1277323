"""Span recording around the pipeline's public calls, from outside ``src/``.

A traced run installs thin wrappers on the public functions each layer
exposes (``Producer.send_many``, ``Broker.fetch``, ``AlarmHistory.device_histogram``,
``VerificationService.verify_batch``, ...).  Every wrapped call appends one
span ``(name, start, end, parent)`` to an in-memory list; nothing is
written until the run ends.  Work counts (alarms classified, devices
queried, documents written) are taken at the same boundaries from the
call's arguments or result.

The always-on instruments the modules already publish (RPC, WAL, shard
fan-out, storage planner) are read from outside too: ``collect_cluster_snapshot``
merges the parent's registry with every shard worker's, and :func:`delta`
subtracts two such snapshots.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.core.history import AlarmHistory
from repro.core.consumer_app import ConsumerApplication
from repro.core.verification import VerificationService
from repro.core.verification_log import VerificationLog
from repro.streaming import dstream
from repro.streaming.broker import Broker
from repro.streaming.dstream import StreamingContext
from repro.streaming.producer import Producer

#: Root span of one consumer drain; its direct children are the stages.
ROOT = "consumer.process_available"


#: (owner, attribute, span name, work count from (args, result)).
#: ``args[0]`` is ``self`` for methods.
PROBES: list[tuple[Any, str, str, Callable[[tuple, Any], int]]] = [
    (Producer, "send_many", "producer.send", lambda args, result: result),
    (Broker, "fetch", "broker.fetch", lambda args, result: len(result)),
    (StreamingContext, "commit", "broker.commit", lambda args, result: 1),
    (StreamingContext, "next_batch", "streaming.next_batch",
     lambda args, result: len(result)),
    (dstream, "deserialize_batch", "streaming.deserialize",
     lambda args, result: len(result)),
    (AlarmHistory, "device_histogram", "history.query",
     lambda args, result: len(result)),
    (VerificationService, "verify_batch", "ml.verify",
     lambda args, result: len(result)),
    (AlarmHistory, "record_batch", "store.write", lambda args, result: result),
    (VerificationLog, "record_batch", "store.write",
     lambda args, result: len(result)),
    (ConsumerApplication, "process_available", ROOT,
     lambda args, result: result.alarms_processed),
]


class Tracer:
    """In-memory span list plus per-name work counts."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span; parents are
        #: tracked per thread.
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``; returns its result."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        index = len(self.spans)
        self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def install(self) -> None:
        """Wrap every probe; :meth:`uninstall` restores the originals."""
        for owner, attr, name, count in PROBES:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str,
              count: Callable[[tuple, Any], int]) -> Callable:
        @functools.wraps(original)
        def probe(*args: Any, **kwargs: Any) -> Any:
            nested = self._inside(name)
            result = self.span(name, original, *args, **kwargs)
            if not nested:
                # Work done by a call nested in one of the same name is
                # part of the outer call's count, as in :meth:`total`.
                self.counts[name] += count(args, result)
            return result
        return probe

    def _inside(self, name: str) -> bool:
        """Whether this thread's innermost open span is called ``name``."""
        stack = getattr(self._local, "stack", None)
        return bool(stack) and self.spans[stack[-1]][0] == name

    # -- analysis ---------------------------------------------------------------

    def total(self, name: str) -> float:
        """Inclusive seconds of the spans called ``name``, not counting one
        nested in another of the same name (the verification log's write
        calls the history's write on a store without atomic groups)."""
        return sum(
            end - start for n, start, end, parent in self.spans
            if n == name and (parent < 0 or self.spans[parent][0] != name)
        )

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer (span name up to the first dot): each
        span's duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            layers[name.split(".", 1)[0]] += end - start - children
        return dict(sorted(layers.items()))

    def unattributed(self) -> float:
        """Consumer wall (root spans) minus the stage spans directly under it."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == ROOT}
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        stages = sum(end - start for _, start, end, parent in self.spans
                     if parent in roots)
        return wall - stages

    def documents(self) -> list[dict[str, Any]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


# -- always-on instruments -------------------------------------------------------


def _series_total(snapshot: dict[str, Any], kind: str, name: str,
                  field: str) -> float:
    return sum(entry[field] for entry in snapshot.get(kind, {}).values()
               if entry["name"] == name)


def delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """Per-series-name growth between two snapshots: ``<name>`` for counters,
    ``<name>.sum`` / ``<name>.count`` for histograms."""
    out: dict[str, float] = {}
    names = {(kind, entry["name"]) for kind in ("counters", "histograms")
             for entry in after.get(kind, {}).values()}
    for kind, name in sorted(names):
        fields = ("value",) if kind == "counters" else ("sum", "count")
        for field in fields:
            key = name if field == "value" else f"{name}.{field}"
            out[key] = (_series_total(after, kind, name, field)
                        - _series_total(before, kind, name, field))
    return out
