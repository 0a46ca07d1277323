"""Output checks: every alarm verified exactly once, correctly, with the
right history histogram.  Their failures are what ``error_share`` counts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.core.alarm import Alarm

from workloads import Pipeline, Round, _seq


@dataclass
class Outcome:
    attempted: int = 0
    lost: int = 0
    duplicated: int = 0
    misverified: int = 0
    #: Alarms of final windows whose histogram disagreed with brute force.
    bad_histogram: int = 0

    @property
    def failed(self) -> int:
        return self.lost + self.duplicated + self.misverified + self.bad_histogram

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def add(self, other: "Outcome") -> None:
        for name in ("attempted", "lost", "duplicated", "misverified",
                     "bad_histogram"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def oracle(pipe: Pipeline) -> dict[int, bool]:
    """Offline verdicts: one ``verify_batch`` over the whole stream."""
    verdicts = pipe.service.verify_batch(pipe.inputs.stream)
    return {_seq(v): v.is_false for v in verdicts}


def brute_histogram(devices: Iterable[str], alarms: Iterable[Alarm]) -> dict[str, int]:
    counts = dict.fromkeys(devices, 0)
    for alarm in alarms:
        if alarm.device_address in counts:
            counts[alarm.device_address] += 1
    return counts


def check_round(pipe: Pipeline, drain: Round,
                verdicts: dict[int, bool]) -> Outcome:
    """Check one round, before it is undone."""
    windows = drain.windows
    seen = Counter(_seq(v) for w in windows for v in w.verifications)
    outcome = Outcome(attempted=len(pipe.inputs.stream))
    outcome.lost = outcome.attempted - len(seen.keys() & verdicts.keys())
    outcome.duplicated = sum(seen.values()) - len(seen)
    outcome.misverified = sum(
        1 for w in windows for v in w.verifications
        if verdicts.get(_seq(v)) != v.is_false
    )
    if windows:
        last = windows[-1]
        earlier = [v.alarm for w in windows[:-1] for v in w.verifications]
        devices = {v.alarm.device_address for v in last.verifications}
        expected = brute_histogram(devices, pipe.inputs.preload + earlier)
        if drain.last_histogram != expected:
            outcome.bad_histogram = len(last.verifications)
    if pipe.log is not None:
        # The durable sink itself must hold each alarm exactly once.
        outcome.lost = max(outcome.lost, outcome.attempted - pipe.log.count())
        outcome.duplicated += len(pipe.log.duplicate_uids())
    return outcome
