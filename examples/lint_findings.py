"""A deliberately-buggy module that makes every lint rule fire.

Run it to see the static analyzer catch one of each violation class::

    PYTHONPATH=src python examples/lint_findings.py

The module is the README's "Static analysis" walkthrough: each section
below plants one violation, and the ``__main__`` driver points the
analyzer at this very file (plus the real ``repro/errors.py``, so the
error-rehydration rule has a registry to check against) and prints the
findings.  Nothing here executes the buggy code — it only has to parse.

This file lives in ``examples/`` precisely because ``repro lint`` scans
``src/repro/`` only: the violations are teaching material, not debt.
"""

import time


# -- lock-discipline ----------------------------------------------------------
# Blocking work inside `with <lock>:` bodies, and two call sites that
# acquire the same pair of locks in opposite orders (deadlock potential).

def drain(state_lock, flush_cond, done_event, batch):
    with state_lock:
        time.sleep(0.05)            # blocking sleep under a lock
        done_event.wait()           # waiting on an object that is not the lock
        with flush_cond:            # order edge: state_lock -> flush_cond
            flush_cond.notify_all()


def refill(state_lock, flush_cond):
    with flush_cond:                # opposite order: flush_cond -> state_lock
        with state_lock:
            pass


# -- error-rehydration --------------------------------------------------------
# LookupError is not in repro.errors, so a worker raising it would come
# back to the client as a generic ProcessPlaneError.

def rpc_handler(doc_id, docs):
    if doc_id not in docs:
        raise LookupError(f"no document {doc_id}")
    return docs[doc_id]


# -- spawn-safety -------------------------------------------------------------
# A module-level side effect: every spawned worker that imports this
# module would bind the metrics registry at an uncontrolled moment.

def _fake_get_registry():
    return None


_REGISTRY = _fake_get_registry()


# -- metric-drift -------------------------------------------------------------
# A counter without the _total suffix and a series outside the repro_
# namespace.

def register_metrics(registry):
    registry.counter("repro_lint_demo_requests")
    registry.histogram("demo_latency_seconds")


# -- driver -------------------------------------------------------------------

def main() -> int:
    from pathlib import Path

    from repro.analysis import AnalysisConfig, Analyzer

    here = Path(__file__).resolve()
    errors_module = here.parents[1] / "src" / "repro" / "errors.py"
    config = AnalysisConfig(
        root=here.parent,
        source_roots=(here, errors_module),
        error_rule_modules=(here.name,),
        spawn_entry=here.name,
    )
    report = Analyzer(config).run()
    print(report.render_pretty())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
