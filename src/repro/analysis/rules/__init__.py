"""The launch rule set.

Four project-specific invariants, each its own module:

* :mod:`repro.analysis.rules.locks` — no blocking I/O under a lock; no
  lock-acquisition-order cycles across the tree.
* :mod:`repro.analysis.rules.errors_rule` — exceptions raised on RPC
  code paths must rehydrate by name via ``repro.errors``.
* :mod:`repro.analysis.rules.spawn` — the worker entrypoint's import
  closure must be side-effect free at module level.
* :mod:`repro.analysis.rules.metrics` — metric name literals follow the
  Prometheus conventions and match the README catalog.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.errors_rule import ErrorRehydrationRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.metrics import MetricDriftRule
from repro.analysis.rules.spawn import SpawnSafetyRule

__all__ = [
    "ErrorRehydrationRule",
    "LockDisciplineRule",
    "MetricDriftRule",
    "SpawnSafetyRule",
    "default_rules",
]


def default_rules() -> list[Rule]:
    return [
        LockDisciplineRule(),
        ErrorRehydrationRule(),
        SpawnSafetyRule(),
        MetricDriftRule(),
    ]
