"""Consumer application: stream -> verify -> historic analysis.

The paper's consumer (Sections 5.5.1-5.5.2 and Figure 12): for every
streaming window it

1. **streaming** — deserializes the window into a partitioned dataset and
   extracts the distinct device addresses (the dataset is ``cache()``-ed:
   the paper's "cache data that will be reused" lesson, because the same
   batch feeds both the ML step and the history query);
2. **batch** — queries the alarm history for a histogram of past alarms of
   exactly those devices;
3. **ml** — classifies every alarm in the window with the verification
   service (the dominant cost in Figure 12, ~80%);
4. appends the window to the alarm history.

Per-component wall times are accumulated in :class:`ConsumerRunReport`,
which is what the Figure 12 benchmark prints.  ``repartition`` raises the
parallelism of single-partition topics (the Kafka fix of Section 5.5.2).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.core.alarm import Alarm
from repro.core.history import AlarmHistory
from repro.core.verification import Verification, VerificationService
from repro.core.verification_log import VerificationLog
from repro.errors import ConfigurationError
from repro.obs.trace import trace_context
from repro.streaming.broker import Broker
from repro.streaming.dstream import MicroBatch, StreamingContext
from repro.streaming.serializers import Serializer

__all__ = ["ConsumerApplication", "ConsumerRunReport"]


@dataclass
class ConsumerRunReport:
    """Aggregated per-component timings over a consumer run."""

    alarms_processed: int = 0
    windows: int = 0
    streaming_seconds: float = 0.0  # deserialize + distinct-addresses
    batch_seconds: float = 0.0      # history histogram query
    ml_seconds: float = 0.0         # classification
    store_seconds: float = 0.0      # appending the window to history
    elapsed_seconds: float = 0.0
    #: Re-processed alarms dropped by the idempotent verification sink
    #: (only non-zero when a ``verification_log`` is attached): replayed
    #: windows after crash recovery and at-least-once redeliveries.
    duplicates_skipped: int = 0
    verifications: list[Verification] = field(default_factory=list)
    #: Wall-clock (``time.time()``) bounds of the run: set when the run
    #: loop starts and when it returns, ``None`` until then.
    started_wall: float | None = None
    finished_wall: float | None = None

    @property
    def throughput(self) -> float:
        """Verified alarms per second of wall time."""
        if self.elapsed_seconds <= 0:
            return float(self.alarms_processed)
        return self.alarms_processed / self.elapsed_seconds

    def breakdown(self) -> dict[str, float]:
        """Fraction of component time per component (Figure 12)."""
        total = (
            self.streaming_seconds + self.batch_seconds
            + self.ml_seconds + self.store_seconds
        )
        if total <= 0:
            return {"streaming": 0.0, "batch": 0.0, "ml": 0.0, "store": 0.0}
        return {
            "streaming": self.streaming_seconds / total,
            "batch": self.batch_seconds / total,
            "ml": self.ml_seconds / total,
            "store": self.store_seconds / total,
        }


class ConsumerApplication:
    """End-to-end alarm consumer over a broker topic.

    Parameters
    ----------
    broker, topic, group:
        Source stream and consumer group.
    service:
        Fitted verification service.
    history:
        Alarm history for batch analytics and persistence (a fresh
        in-memory one when omitted).
    serializer:
        Wire serializer (must match the producer's format; both built-ins
        are mutually compatible).
    repartition:
        When set, each window's dataset is repartitioned to this many
        partitions before the ML step (the Section 5.5.2 parallelism fix —
        in Spark this raises executor parallelism; here it controls the
        task granularity).
    parallel_ml:
        Run the per-partition ML tasks on a thread pool.  Off by default:
        the classifiers are already vectorized with numpy and, under
        CPython's GIL, thread-level parallelism slows this workload down.
        This is a real divergence from the paper's Spark cluster, whose
        executors verify partitions on separate cores; here the tasks take
        turns holding one interpreter lock, and the pool adds hand-off cost.
    keep_verifications:
        Retain every verification in the report (disable for throughput
        benchmarks to avoid unbounded memory).
    verification_log:
        Optional idempotent sink
        (:class:`~repro.core.verification_log.VerificationLog`).  When
        attached, each window's outcomes are recorded keyed by alarm uid
        *before* offsets are committed, and only the newly-written subset
        reaches the history — so re-processing a window after a crash (or
        an at-least-once redelivery) is exactly-once: duplicates are
        skipped and counted, never double-recorded.
    on_window:
        Optional observer called after each processed window with the
        window's verifications and the :class:`MicroBatch`; this is how
        the workload subsystem's ops metrics tap the pipeline without
        buffering verifications.
    coordinator, member_id:
        Dynamic-membership mode: join the given
        :class:`~repro.cluster.coordinator.GroupCoordinator` as
        ``member_id`` instead of statically owning every partition.
        Several applications sharing one coordinator split the topic and
        re-split on every join/leave; their offset commits are generation
        fenced.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When attached, each
        trace context sampled into the window's record headers by the
        producer is completed here after the verification-log insert with
        five spans — queue dwell (producer send -> consumer poll) plus the
        window's streaming/history/ml/store stage boundaries.
    """

    def __init__(self, broker: Broker, topic: str, group: str,
                 service: VerificationService,
                 history: AlarmHistory | None = None,
                 serializer: Serializer | None = None,
                 repartition: int | None = None,
                 parallel_ml: bool = False,
                 keep_verifications: bool = False,
                 histogram_since: float | None = None,
                 verification_log: VerificationLog | None = None,
                 on_window: Callable[[list[Verification], MicroBatch], None] | None = None,
                 coordinator=None, member_id: str | None = None,
                 tracer=None) -> None:
        if repartition is not None and repartition < 1:
            raise ConfigurationError(f"repartition must be >= 1, got {repartition}")
        self.context = StreamingContext(broker, topic, group, serializer=serializer,
                                        coordinator=coordinator, member_id=member_id)
        self.service = service
        self.history = history if history is not None else AlarmHistory()
        self.repartition = repartition
        self.parallel_ml = parallel_ml
        self.keep_verifications = keep_verifications
        self.histogram_since = histogram_since
        self.verification_log = verification_log
        self.on_window = on_window
        self.tracer = tracer
        self.last_histogram: dict[str, int] = {}

    # -- window processing -----------------------------------------------------------

    def _handle_window(self, batch: MicroBatch, report: ConsumerRunReport) -> None:
        # (1) streaming: dataset of alarm documents, cached because it is
        # consumed twice (distinct addresses + classification input).
        t0 = time.perf_counter()
        dataset = batch.dataset
        if self.repartition is not None:
            dataset = dataset.repartition(self.repartition)
        dataset.cache()
        addresses = sorted(
            dataset.map(lambda doc: doc["device_address"]).distinct().collect()
        )
        t1 = time.perf_counter()
        report.streaming_seconds += t1 - t0 + batch.deserialize_seconds

        # (2) batch: histogram of past alarms for the alarming devices.
        self.last_histogram = self.history.device_histogram(
            addresses, since=self.histogram_since
        )
        t2 = time.perf_counter()
        report.batch_seconds += t2 - t1

        # (3) ml: classify the window (one vectorized call per partition).
        def classify(partition: list) -> list[Verification]:
            alarms = [Alarm.from_document(doc) for doc in partition]
            return self.service.verify_batch(alarms)
        if self.parallel_ml:
            partition_results = dataset.map_partitions_parallel(classify)
        else:
            partition_results = [
                classify(part) for part in dataset.collect_partitions()
            ]
        verifications = [v for part in partition_results for v in part]
        t3 = time.perf_counter()
        report.ml_seconds += t3 - t2

        # (4) persist the window: through the idempotent sink when attached
        # (replayed/redelivered alarms are dropped there and never reach the
        # history; on a shared durable store the sink journals verification
        # + history rows as one atomic group), plainly otherwise.  This
        # happens *before* the streaming context commits offsets, so a
        # crash between persist and commit only ever causes re-processing —
        # which the sink deduplicates — never loss.
        if self.tracer is not None and batch.traces:
            # The window's store stage runs under the first sampled trace's
            # context: a sharded/process-hosted sink then propagates the
            # trace id over its RPCs and the workers' rpc_* spans splice
            # into that trace when it completes below.
            store_stage = trace_context(self.tracer, batch.traces[0][0], "store")
        else:
            store_stage = nullcontext()
        with store_stage:
            recorded = verifications
            if self.verification_log is not None:
                recorded = self.verification_log.record_batch(
                    verifications, history=self.history
                )
                report.duplicates_skipped += len(verifications) - len(recorded)
            else:
                self.history.record_batch(v.alarm for v in verifications)
        t4 = time.perf_counter()
        report.store_seconds += t4 - t3

        if self.tracer is not None:
            # Close every trace context the window carried: the record's
            # queue dwell is individual (its own send stamp to this poll);
            # the four processing spans are the window's stage boundaries,
            # shared by every record the window batched together.
            for trace_id, sent_at in batch.traces:
                self.tracer.record(trace_id, [
                    ("queue_dwell", sent_at, batch.polled_at),
                    ("streaming", t0, t1),
                    ("history", t1, t2),
                    ("ml", t2, t3),
                    ("store", t3, t4),
                ])

        report.alarms_processed += len(verifications)
        report.windows += 1
        if self.keep_verifications:
            report.verifications.extend(verifications)
        if self.on_window is not None:
            # Observers see what was *recorded*: with an idempotent sink
            # attached, replayed duplicates are excluded so ops metrics
            # (throughput, SLA, verification-rate) stay exactly-once too.
            self.on_window(recorded, batch)

    # -- run loops ---------------------------------------------------------------------

    def process_available(self, max_records: int | None = None) -> ConsumerRunReport:
        """Drain and process everything currently in the topic."""
        report = ConsumerRunReport()
        report.started_wall = time.time()
        started = time.perf_counter()
        self.context.process_available(
            lambda batch: self._handle_window(batch, report),
            max_records=max_records,
        )
        report.elapsed_seconds = time.perf_counter() - started
        report.finished_wall = time.time()
        return report

    def drain_until(self, done: Callable[[], bool],
                    max_records: int | None = None,
                    idle_sleep: float = 0.005,
                    report: ConsumerRunReport | None = None) -> ConsumerRunReport:
        """Process windows until ``done()`` is true *and* the topic is drained.

        This is the completion-driven variant of :meth:`run` used by the
        load driver: producers signal completion through ``done`` and the
        consumer keeps going until it has caught up with the log end.
        When idle, the consumer blocks on the broker's append notification
        (waking as soon as a record lands); ``idle_sleep`` only bounds how
        long one blocking wait can defer the next ``done()`` check.

        Pass an existing ``report`` to accumulate into it — how a dynamic
        group member resumes draining after a mid-commit rebalance fenced
        its previous generation, without losing the windows it already
        counted.
        """
        report = report if report is not None else ConsumerRunReport()
        if report.started_wall is None:
            report.started_wall = time.time()
        started = time.perf_counter()
        finishing = False
        while True:
            processed = self.context.process_available(
                lambda batch: self._handle_window(batch, report),
                max_records=max_records,
            )
            if processed:
                finishing = False
                continue
            if finishing:
                break
            if done():
                # One more drain pass: records appended just before ``done``
                # flipped must still be consumed.
                finishing = True
            else:
                self.context.wait_for_records(idle_sleep)
        report.elapsed_seconds += time.perf_counter() - started
        report.finished_wall = time.time()
        return report

    def run(self, duration_seconds: float,
            max_records: int | None = None,
            idle_wait: float = 0.02) -> ConsumerRunReport:
        """Process windows for ``duration_seconds`` of wall time.

        Use together with a concurrently-running producer for the
        Section 5.5 throughput experiments.  Idle periods block on the
        broker's append notification (bounded by ``idle_wait`` per wait so
        the duration deadline stays responsive) instead of sleep-polling.
        """
        report = ConsumerRunReport()
        report.started_wall = time.time()
        started = time.perf_counter()
        deadline = started + duration_seconds
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            processed = self.context.process_available(
                lambda batch: self._handle_window(batch, report),
                max_records=max_records,
            )
            if not processed:
                self.context.wait_for_records(min(idle_wait, remaining))
        report.elapsed_seconds = time.perf_counter() - started
        report.finished_wall = time.time()
        return report
