"""Project-specific static analysis (``python -m repro lint``).

An AST-based rule engine that mechanizes the hand-maintained invariants
the codebase's correctness rests on: lock discipline in the streaming
and durability cores, by-name error rehydration, spawn-safe worker
imports, and metric-catalog hygiene.

Entry points:

* :func:`repro.analysis.engine.default_config` — anchors the rules to
  the repository layout;
* :class:`repro.analysis.engine.Analyzer` — loads the tree once, runs
  the rule set, applies ``# repro: noqa[...]`` suppressions and the
  ``analysis-baseline.json`` ratchet, and renders pretty/JSON reports.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.engine import (
    AnalysisConfig,
    AnalysisContext,
    Analyzer,
    LintReport,
    Rule,
    default_config,
)
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile, SourceTree

__all__ = [
    "AnalysisConfig",
    "AnalysisContext",
    "Analyzer",
    "Baseline",
    "Finding",
    "LintReport",
    "Rule",
    "SourceFile",
    "SourceTree",
    "default_config",
]
