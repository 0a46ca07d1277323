"""Self-tests of the benchmark code.

Run from the repository root with ``python3 -m pytest -q perfbench``.
The smoke runs shrink every workload to a few hundred alarms; they check
that the output checks pass on a correct pipeline, catch a wrong verdict,
and that every metric the code computes is declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "drain-inmem": dict(train=300, preload=500, stream=400, window=100),
    "drain-procshard": dict(train=300, preload=300, stream=60, window=6),
}


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_contract():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.fixture(scope="module", params=list(TINY))
def smoke(request, tmp_path_factory):
    """A traced tiny run whose first round gets one verdict flipped before
    it is checked, and whose other rounds are checked as they are."""
    spec = dataclasses.replace(workloads.SPECS[request.param], **TINY[request.param])
    pipe = workloads.set_up(spec, seed=3, workdir=tmp_path_factory.mktemp("store"))
    tracer = tracing.Tracer()
    outcomes: list[checks.Outcome] = []

    def check(drain):
        if not outcomes:
            window = drain.windows[0]
            first = window.verifications[0]
            window.verifications[0] = dataclasses.replace(
                first, is_false=not first.is_false)
            outcomes.append(checks.check_round(pipe, drain, verdicts))
            window.verifications[0] = first
        outcomes.append(checks.check_round(pipe, drain, verdicts))

    try:
        verdicts = checks.oracle(pipe)
        rounds = workloads.run(pipe, 0.5, tracer, check)
    finally:
        pipe.close()
        run.reap_child_processes()
    return rounds, tracer, outcomes


def test_smoke_run_passes_its_output_checks(smoke):
    rounds, _, outcomes = smoke
    total = checks.Outcome()
    for outcome in outcomes[1:]:
        total.add(outcome)
    assert total.attempted > 0
    assert total.failed == 0
    # Untraced and traced rounds alternate, ending on a traced one.
    assert [d.traced for d in rounds] == [i % 2 == 1 for i in range(len(rounds))]
    assert rounds[-1].traced


def test_checks_catch_a_wrong_verdict(smoke):
    _, _, outcomes = smoke
    assert outcomes[0].misverified == 1
    assert outcomes[0].failed == 1


def test_computed_metrics_match_benchmark_json(smoke):
    rounds, tracer, outcomes = smoke
    plain = [d for d in rounds if not d.traced]
    e2e, _ = run.end_to_end(plain, [1.0], 100.0, 0.5)
    layers = run.per_layer(rounds, tracer, outcomes[-1].error_share)
    assert list(e2e) == list(run.declared_metrics("end_to_end"))
    assert list(layers) == list(run.declared_metrics("per_layer"))
    assert all(value > 0 for value in e2e.values())
    # Each traced alarm is classified once and persisted once, also where
    # one store write runs inside another.
    assert layers["store.docs"] == layers["ml.alarms"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drain-inmem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_reap_stops_every_child_process():
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(3600,), daemon=True)
    child.start()
    run.reap_child_processes()
    assert child.exitcode is not None
    assert resource_tracker._resource_tracker._pid is None
