"""The benchmark's workloads: seeded inputs, timed set-up, measured rounds.

Every workload drives the public pipeline APIs only: ``Producer`` into a
4-partition topic, one ``ConsumerApplication`` per round, the
``AlarmHistory`` / ``VerificationLog`` sinks and, for ``drain-procshard``,
the durable broker and durable process-sharded store that
``RecoveryManager`` opens.

Both are closed loops.  The seeded stream is produced into a topic
once (untimed).  Each round drains it as a new consumer group with one
``process_available`` call in fixed-size windows (timed), is checked by
the caller's ``check`` callback, and is then undone: the round's alarms
leave the history and its verifications leave the log.  So every round
starts from the same state however many rounds fit in the run.  A window
is requested when the previous one was recorded; its alarms' latency is
the time from that request to its verdicts being recorded.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core import AlarmHistory, ConsumerApplication, VerificationService
from repro.core.alarm import Alarm
from repro.core.labeling import label_alarms
from repro.core.verification import ALARM_FEATURES
from repro.core.verification_log import EVENT_SEQ_KEY, TIMELINE_KEY, VerificationLog
from repro.datasets import SitasysGenerator
from repro.durability.recovery import RecoveryManager
from repro.ml import FeaturePipeline, RandomForestClassifier
from repro.obs.aggregate import collect_cluster_snapshot
from repro.streaming import Broker, Producer
from repro.workload.driver import PIPELINE_SHARD_KEYS

import tracing

GROUP = "perfbench"
PARTITIONS = 4
DEVICES = 2_000
#: Labelled alarms the model is fitted on.
TRAIN = 2_000
#: Set-ups per run; ``setup_s`` is their median, the last one is measured.
SETUPS = 3
#: Iterations of the host-speed probe, and the probe's wall seconds at the
#: host speed every reported timing is scaled to (see ``host_speed``).
PROBE_LOOPS = 150_000
PROBE_REFERENCE_S = 0.025


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload."""

    name: str
    preload: int          # alarms in the history before the stream
    stream: int           # alarms per round
    window: int           # alarms per consumer window
    process_shards: int = 0
    train: int = TRAIN

    def params(self) -> dict[str, Any]:
        params = {k: v for k, v in dataclasses.asdict(self).items() if k != "name"}
        return {**params, "devices": DEVICES, "partitions": PARTITIONS}


SPECS = {spec.name: spec for spec in (
    Spec("drain-inmem", preload=10_000, stream=10_000, window=2_000),
    # 6 is the median window the self-sizing consumer formed on this
    # topology at 150 alarms/s (perfbench/README.md).
    Spec("drain-procshard", preload=10_000, stream=300, window=6,
         process_shards=2),
)}


# -- inputs and set-up -------------------------------------------------------------


@dataclass
class Inputs:
    train: list[Alarm]
    preload: list[Alarm]
    stream: list[Alarm]
    docs: list[dict[str, Any]]      # the stream as wire documents


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Seeded inputs: the same ``(spec, seed)`` gives the same alarms.

    The preload and the stream are one timeline split in time order, so
    every streamed alarm is newer than the history it is checked against.
    """
    generator = SitasysGenerator(num_devices=DEVICES, seed=seed)
    alarms = generator.generate(spec.train + spec.preload + spec.stream)
    timeline = sorted(alarms[spec.train:], key=lambda alarm: alarm.timestamp)
    preload = timeline[:spec.preload]
    streamed = [
        dataclasses.replace(alarm, extras={
            EVENT_SEQ_KEY: seq, TIMELINE_KEY: f"perfbench-{seed}",
        })
        for seq, alarm in enumerate(timeline[spec.preload:])
    ]
    return Inputs(
        train=alarms[:spec.train], preload=preload, stream=streamed,
        docs=[alarm.to_document() for alarm in streamed],
    )


def fit_service(train: list[Alarm], seed: int) -> VerificationService:
    """The Section 5.5.2 bench model: random forest, 30 trees, depth 25."""
    labeled = label_alarms(train, 60.0)
    pipeline = FeaturePipeline(
        RandomForestClassifier(n_estimators=30, max_depth=25, random_state=seed),
        categorical_features=ALARM_FEATURES, encoding="ordinal",
    )
    pipeline.fit([l.features() for l in labeled], [l.is_false for l in labeled])
    return VerificationService(pipeline)


@dataclass
class Pipeline:
    """One set-up: inputs, fitted model, broker, stores (and shard workers)."""

    spec: Spec
    inputs: Inputs
    service: VerificationService
    broker: Broker
    history: AlarmHistory
    log: VerificationLog | None = None
    manager: RecoveryManager | None = None
    directory: Path | None = None

    def worker_pids(self) -> list[int]:
        supervisor = getattr(self.history.store, "supervisor", None)
        if supervisor is None:
            return []
        pids = (supervisor.pid(i) for i in range(self.spec.process_shards))
        return [pid for pid in pids if pid is not None]

    def close(self) -> None:
        """Stop shard workers (waiting for them) and remove on-disk state."""
        if self.manager is not None:
            try:
                self.manager.close()
            finally:
                self.manager.shutdown_workers()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


def set_up(spec: Spec, seed: int, workdir: Path) -> Pipeline:
    """Data generation + model fit + store/worker start + history preload."""
    inputs = make_inputs(spec, seed)
    service = fit_service(inputs.train, seed)
    if not spec.process_shards:
        history = AlarmHistory()
        history.record_batch(inputs.preload)
        return Pipeline(spec, inputs, service, Broker(), history)
    directory = workdir / f"store-{os.getpid()}-{time.monotonic_ns()}"
    manager = RecoveryManager(
        directory, process_shards=True, store_shards=spec.process_shards,
        shard_keys=PIPELINE_SHARD_KEYS,
    )
    try:
        manager.recover()
        history = AlarmHistory(manager.store)
        pipeline = Pipeline(spec, inputs, service, manager.broker, history,
                            VerificationLog(manager.store), manager, directory)
        history.record_batch(inputs.preload)
    except BaseException:
        manager.shutdown_workers()
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return pipeline


# -- host speed --------------------------------------------------------------------


def speed_probe() -> float:
    """Wall seconds of a fixed pure-Python loop that touches no program code."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        key = i % 1000
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - started


def host_speed(before: float, after: float) -> float:
    """Reference seconds per wall second, from probes around a timed step.

    A shared host runs the same code 20-40% slower for seconds to minutes at
    a time, with no steal time to show for it.  A wall time multiplied by
    this factor reads what it would at the reference speed, so figures
    taken in different host regimes compare.  Only the probe is timed
    against the reference; the program is measured in wall time.
    """
    return PROBE_REFERENCE_S / ((before + after) / 2)


# -- measured rounds ---------------------------------------------------------------


@dataclass
class Window:
    """One consumer window as the ``on_window`` observer saw it.

    ``verifications`` are kept only until the round is checked, so a run
    holds the same memory however many rounds it fits in.
    """

    requested_at: float   # when the consumer asked for it
    polled_at: float
    recorded_at: float    # verdicts recorded (observer call)
    verifications: list
    alarms: int = field(init=False)

    def __post_init__(self) -> None:
        self.alarms = len(self.verifications)

    @property
    def latency(self) -> float:
        """Request to verdict, seconds; every alarm of the window shares it."""
        return self.recorded_at - self.requested_at


@dataclass
class Round:
    """One measured drain of the stream."""

    traced: bool
    speed: float = 1.0         # host_speed around the drain
    started: float = 0.0       # the whole backlog is in the broker
    finished: float = 0.0
    processed: int = 0
    windows: list[Window] = field(default_factory=list)
    last_histogram: dict[str, int] = field(default_factory=dict)
    producer_bytes: int = 0    # sent to make this round's backlog, if it did
    instruments: dict[str, float] = field(default_factory=dict)

    def per_alarm(self, values: list[float]) -> np.ndarray:
        """One per-window value repeated for each alarm of its window."""
        return np.repeat(values, [w.alarms for w in self.windows])


class Observer:
    """``on_window`` callback: stamps each window, defers all analysis."""

    def __init__(self, drain: Round, tracer: tracing.Tracer | None) -> None:
        self.drain = drain
        self.tracer = tracer
        self._requested = drain.started

    def __call__(self, verifications: list, batch: Any) -> None:
        if self.tracer is not None:
            self.tracer.span("bench.observe", self._observe, verifications, batch)
        else:
            self._observe(verifications, batch)

    def _observe(self, verifications: list, batch: Any) -> None:
        now = time.perf_counter()
        self.drain.windows.append(
            Window(self._requested, batch.polled_at, now, verifications)
        )
        self._requested = now


def _seq(verification: Any) -> int:
    return verification.alarm.extras[EVENT_SEQ_KEY]


def _device_key(doc: dict[str, Any]) -> str:
    return doc["device_address"]


#: Called with each round before it is undone.
Check = Callable[[Round], None]


def run(pipe: Pipeline, seconds: float, tracer: tracing.Tracer | None,
        check: Check) -> list[Round]:
    """Rounds until ``seconds`` have passed, each between two speed probes.

    With a tracer, rounds alternate untraced and traced, starting untraced
    and ending on a traced round, so every traced round has an untraced
    neighbour run just before it.  The probes are installed only around
    traced rounds.  Each kind of round drains its own topic, produced up
    front; the traced topic is produced with the probes installed, and the
    first traced round carries its bytes.
    """
    _produce(pipe, _topic(False))
    producer_bytes = 0
    if tracer is not None:
        tracer.install()
        try:
            producer_bytes = _produce(pipe, _topic(True))
        finally:
            tracer.uninstall()
    rounds: list[Round] = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if time.perf_counter() - begin >= seconds and rounds and not traced:
            break
        probe = speed_probe()
        if traced:
            tracer.install()
        try:
            drain = _round(pipe, _topic(traced), len(rounds),
                           tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        drain.speed = host_speed(probe, speed_probe())
        if traced:
            drain.producer_bytes, producer_bytes = producer_bytes, 0
        check(drain)
        _undo(pipe)
        for window in drain.windows:
            window.verifications = []
        rounds.append(drain)
    return rounds


def _topic(traced: bool) -> str:
    return f"alarms-{int(traced)}"


def _produce(pipe: Pipeline, topic: str) -> int:
    """Send the stream to a new topic; returns the payload bytes sent."""
    pipe.broker.create_topic(topic, num_partitions=PARTITIONS)
    producer = Producer(pipe.broker)
    producer.send_many(topic, pipe.inputs.docs, key_fn=_device_key)
    producer.close()
    return producer.stats.bytes_sent


def _round(pipe: Pipeline, topic: str, index: int,
           tracer: tracing.Tracer | None) -> Round:
    consumer = ConsumerApplication(
        pipe.broker, topic, f"{GROUP}-{index}", pipe.service,
        history=pipe.history, verification_log=pipe.log,
    )
    drain = Round(tracer is not None)
    store = pipe.history.store
    # Start every round without the previous round's garbage.
    gc.collect()
    before = collect_cluster_snapshot(store=store)
    drain.started = time.perf_counter()
    consumer.on_window = Observer(drain, tracer)
    report = consumer.process_available(max_records=pipe.spec.window)
    drain.finished = time.perf_counter()
    drain.instruments = tracing.delta(before, collect_cluster_snapshot(store=store))
    drain.processed = report.alarms_processed
    drain.last_histogram = dict(consumer.last_histogram)
    return drain


def _undo(pipe: Pipeline) -> None:
    """Return the stores to their state before the round.

    A durable store is checkpointed too, so its journal restarts empty and
    an automatic compaction never lands inside a timed drain.
    """
    cutoff = pipe.inputs.stream[0].timestamp
    pipe.history.collection.delete_many({"timestamp": {"$gte": cutoff}})
    if pipe.log is not None:
        pipe.log.collection.delete_many({})
    if pipe.manager is not None:
        pipe.history.store.checkpoint()
