"""Tests for the static-analysis engine (`python -m repro lint`).

Each rule gets must-flag and must-not-flag fixture trees built in
``tmp_path``; the engine itself gets baseline round-trip, noqa
suppression, and CLI exit-code coverage, plus the self-check that the
repo's own tree lints clean with an empty baseline.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    Baseline,
    Finding,
    default_config,
)
from repro.analysis.rules import (
    ErrorRehydrationRule,
    LockDisciplineRule,
    MetricDriftRule,
    SpawnSafetyRule,
)
from repro.cli import main
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def run_lint(root: Path, files: dict[str, str], rules=None, *,
             readme: Path | None = None,
             baseline_path: Path | None = None,
             error_rule_modules: tuple[str, ...] = ("app.py",),
             spawn_entry: str = "worker.py"):
    write_tree(root, files)
    config = AnalysisConfig(
        root=root,
        source_roots=(root,),
        readme=readme,
        baseline_path=baseline_path,
        error_rule_modules=error_rule_modules,
        spawn_entry=spawn_entry,
        metric_exclude=(),
    )
    return Analyzer(config, rules=rules).run()


def messages(report) -> list[str]:
    return [f.message for f in report.findings]


class TestLockDiscipline:
    def test_flags_blocking_calls_under_lock(self, tmp_path):
        report = run_lint(tmp_path, {"app.py": """\
            import os
            import time

            def f(lock, handle, transport, wal, worker_thread, evt):
                with lock:
                    os.fsync(handle.fileno())
                    time.sleep(0.5)
                    transport.send(b"x")
                    transport.recv()
                    wal.append(b"rec")
                    worker_thread.join()
                    evt.wait()
            """}, rules=[LockDisciplineRule()])
        msgs = messages(report)
        assert len(msgs) == 7
        assert any("fsync" in m for m in msgs)
        assert any("time.sleep" in m for m in msgs)
        assert any("transport.send" in m for m in msgs)
        assert any("transport.recv" in m for m in msgs)
        assert any("WAL append" in m for m in msgs)
        assert any("thread join" in m for m in msgs)
        assert any("wait on `evt`" in m for m in msgs)

    def test_must_not_flag_sanctioned_patterns(self, tmp_path):
        report = run_lint(tmp_path, {"app.py": """\
            import os
            import time

            class Log:
                def read(self, timeout):
                    with self._cond:
                        # waiting on the held condition releases it: fine
                        self._cond.wait(timeout)

                def observe_outside(self):
                    with self._lock:
                        records = list(self._records)
                    time.sleep(0.01)          # outside the lock: fine
                    os.fsync(self._fd)        # outside the lock: fine
                    return records

                def register(self, cb):
                    with self._lock:
                        def deferred():       # runs later, not under lock
                            time.sleep(1)
                        self._cbs.append(deferred)
            """}, rules=[LockDisciplineRule()])
        assert report.findings == []

    def test_flags_lock_order_cycle(self, tmp_path):
        report = run_lint(tmp_path, {"app.py": """\
            def f(a_lock, b_lock):
                with a_lock:
                    with b_lock:
                        pass

            def g(a_lock, b_lock):
                with b_lock:
                    with a_lock:
                        pass
            """}, rules=[LockDisciplineRule()])
        assert len(report.findings) == 1
        assert "lock-order cycle" in report.findings[0].message
        assert "a_lock" in report.findings[0].message

    def test_consistent_order_and_reentry_not_flagged(self, tmp_path):
        report = run_lint(tmp_path, {"app.py": """\
            class Store:
                def f(self):
                    with self._reg_lock:
                        with self._commit_lock:
                            pass

                def g(self):
                    with self._reg_lock:
                        with self._commit_lock:
                            pass

                def reenter(self):
                    with self._write_lock:     # RLock re-entry
                        with self._write_lock:
                            pass
            """}, rules=[LockDisciplineRule()])
        assert report.findings == []

    def test_cross_method_cycle_via_class_keys(self, tmp_path):
        # self.<attr> locks key per-class, so a cycle split across two
        # methods of the same class is still a cycle.
        report = run_lint(tmp_path, {"app.py": """\
            class Broker:
                def a(self):
                    with self._registry_lock:
                        with self._committed_lock:
                            pass

                def b(self):
                    with self._committed_lock:
                        with self._registry_lock:
                            pass
            """}, rules=[LockDisciplineRule()])
        assert len(report.findings) == 1
        assert "Broker._registry_lock" in report.findings[0].message


class TestErrorRehydration:
    FILES = {
        "errors.py": """\
            class ReproError(Exception):
                pass

            class KnownError(ReproError):
                pass
            """,
        "app.py": """\
            from errors import KnownError

            def handler(flag, exc):
                if flag:
                    raise KnownError("fine")
                raise SystemExit(3)

            def reraise(exc):
                raise exc

            def bad():
                raise MissingError("not registered")
            """,
    }

    def test_flags_unregistered_exception_only(self, tmp_path):
        report = run_lint(tmp_path, dict(self.FILES),
                          rules=[ErrorRehydrationRule()])
        assert len(report.findings) == 1
        assert "`raise MissingError`" in report.findings[0].message
        assert "repro.errors defines no" in report.findings[0].message

    def test_module_outside_rpc_scope_is_ignored(self, tmp_path):
        files = dict(self.FILES)
        files["offline.py"] = files.pop("app.py")
        report = run_lint(tmp_path, files, rules=[ErrorRehydrationRule()],
                          error_rule_modules=("app.py",))
        assert report.findings == []


class TestSpawnSafety:
    def test_flags_side_effects_in_import_closure(self, tmp_path):
        report = run_lint(tmp_path, {
            "worker.py": """\
                import helpers

                def worker_main():
                    import lazy_impure  # deferred: must NOT be followed
                """,
            "helpers.py": """\
                import deep

                LIMIT = 42                      # pure: fine
                NAMES = frozenset({"a", "b"})   # whitelisted call: fine
                """,
            "deep.py": """\
                from registry_mod import get_registry

                REGISTRY = get_registry()
                """,
            "lazy_impure.py": """\
                print("only imported lazily")
                """,
            "registry_mod.py": """\
                def get_registry():
                    return None
                """,
        }, rules=[SpawnSafetyRule()])
        msgs = messages(report)
        assert len(msgs) == 1
        assert "get_registry()" in msgs[0]
        assert "worker.py -> helpers.py -> deep.py" in msgs[0]
        assert "pins metrics" in report.findings[0].hint

    def test_package_init_in_closure_is_checked(self, tmp_path):
        report = run_lint(tmp_path, {
            "worker.py": "from pkg import mod\n",
            "pkg/__init__.py": "import atexit\natexit.register(print)\n",
            "pkg/mod.py": "VALUE = 1\n",
        }, rules=[SpawnSafetyRule()])
        assert len(report.findings) == 1
        assert "atexit.register" in report.findings[0].message
        assert report.findings[0].path == "pkg/__init__.py"

    def test_pure_closure_is_clean(self, tmp_path):
        report = run_lint(tmp_path, {
            "worker.py": """\
                import re
                from typing import TYPE_CHECKING

                import framing

                if TYPE_CHECKING:
                    from nonexistent import Whatever

                PATTERN = re.compile(r"x+")

                def worker_main():
                    return PATTERN

                if __name__ == "__main__":
                    worker_main()
                """,
            "framing.py": """\
                import struct
                from dataclasses import dataclass

                HEADER = struct.Struct(">I")

                @dataclass(frozen=True)
                class Frame:
                    payload: bytes

                    def size(self):
                        return len(self.payload)
                """,
        }, rules=[SpawnSafetyRule()])
        assert report.findings == []


class TestMetricDrift:
    def test_naming_conventions(self, tmp_path):
        report = run_lint(tmp_path, {"app.py": """\
            def setup(registry):
                registry.counter("repro_good_total")
                registry.histogram("repro_latency_seconds")
                registry.gauge("repro_depth_records")
                registry.counter("unprefixed_total")
                registry.counter("repro_missing_suffix")
                registry.gauge("repro_confused_total")
                registry.histogram("repro_no_unit")
            """}, rules=[MetricDriftRule()])
        msgs = messages(report)
        assert not any("repro_good_total" in m for m in msgs)
        assert not any("repro_latency_seconds" in m for m in msgs)
        assert not any("repro_depth_records" in m for m in msgs)
        assert any("lacks the `repro_` namespace prefix" in m for m in msgs)
        assert any("`repro_missing_suffix` is a counter but does not end "
                   "`_total`" in m for m in msgs)
        assert any("`repro_confused_total` is a gauge but ends `_total`" in m
                   for m in msgs)
        assert any("`repro_no_unit` (histogram) lacks a unit suffix" in m
                   for m in msgs)

    def test_readme_catalog_round_trip(self, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text(textwrap.dedent("""\
            # Fixture

            | series | type | labels | layer |
            |---|---|---|---|
            | `good_total` | counter | — | x |
            | `ghost_seconds` | histogram | — | x |
            """), encoding="utf-8")
        report = run_lint(tmp_path, {"app.py": """\
            def setup(registry):
                registry.counter("repro_good_total")
                registry.histogram("repro_uncataloged_seconds")
            """}, rules=[MetricDriftRule()], readme=readme)
        msgs = messages(report)
        assert any("`repro_uncataloged_seconds` is not in the README" in m
                   for m in msgs)
        assert any("lists `ghost_seconds` but no instrument" in m
                   for m in msgs)
        assert not any("good_total" in m for m in msgs)


class TestEngine:
    def test_noqa_suppression(self, tmp_path):
        files = {"app.py": """\
            import time

            def f(lock, other_lock, third_lock):
                with lock:
                    time.sleep(1)  # repro: noqa[lock-discipline]
                with other_lock:
                    time.sleep(1)  # repro: noqa
                with third_lock:
                    time.sleep(1)  # repro: noqa[metric-drift]
            """}
        report = run_lint(tmp_path, files, rules=[LockDisciplineRule()])
        # Targeted and blanket noqa suppress; a different rule id does not.
        assert len(report.findings) == 1
        assert len(report.suppressed) == 2

    def test_baseline_round_trip(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        files = {"app.py": """\
            import time

            def f(lock):
                with lock:
                    time.sleep(1)
            """}
        write_tree(tmp_path, files)
        config = AnalysisConfig(
            root=tmp_path, source_roots=(tmp_path,),
            baseline_path=baseline_path,
        )
        analyzer = Analyzer(config, rules=[LockDisciplineRule()])
        first = analyzer.run()
        assert len(first.findings) == 1

        analyzer.update_baseline()
        assert baseline_path.exists()
        second = analyzer.run()
        assert second.ok
        assert len(second.baselined) == 1

        # The baseline ratchets: a second identical-message violation in the
        # same file is NEW (multiset semantics), not absorbed.
        loaded = Baseline.load(baseline_path)
        finding = first.findings[0]
        new, known = loaded.split([finding, finding])
        assert len(known) == 1 and len(new) == 1

    def test_baseline_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            Baseline.load(path)
        path.write_text(json.dumps({"version": 1, "findings": [{}]}),
                        encoding="utf-8")
        with pytest.raises(ConfigurationError):
            Baseline.load(path)

    def test_baseline_ignores_line_drift(self):
        baseline = Baseline.from_findings([
            Finding(rule="r", path="p.py", line=10, message="m"),
        ])
        moved = Finding(rule="r", path="p.py", line=99, message="m")
        new, known = baseline.split([moved])
        assert new == [] and known == [moved]

    def test_parse_error_fails_the_run(self, tmp_path):
        report = run_lint(tmp_path, {"app.py": "def broken(:\n"},
                          rules=[LockDisciplineRule()])
        assert not report.ok
        assert report.parse_errors and report.parse_errors[0][0] == "app.py"


class TestCli:
    SEEDED = {"src/repro/seeded.py": """\
        import time

        def f(lock):
            with lock:
                time.sleep(1)
        """}

    def test_lint_fails_on_seeded_violation(self, tmp_path, capsys):
        write_tree(tmp_path, dict(self.SEEDED))
        assert main(["lint", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[lock-discipline]" in out
        assert "1 finding(s)" in out

    def test_json_format_and_update_baseline(self, tmp_path, capsys):
        write_tree(tmp_path, dict(self.SEEDED))
        assert main(["lint", "--root", str(tmp_path),
                     "--format", "json"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["ok"] is False
        assert body["findings"][0]["rule"] == "lock-discipline"

        assert main(["lint", "--root", str(tmp_path),
                     "--update-baseline"]) == 0
        assert (tmp_path / "analysis-baseline.json").exists()
        assert main(["lint", "--root", str(tmp_path)]) == 0


class TestSelfCheck:
    def test_repo_tree_lints_clean_with_empty_baseline(self):
        config = default_config(REPO_ROOT)
        analyzer = Analyzer(config)
        report = analyzer.run(baseline=Baseline())  # force-empty baseline
        assert report.ok, report.render_pretty()

    def test_shipped_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
        assert len(baseline) == 0

    def test_example_walkthrough_fires_every_rule(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "lint_findings.py")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        for rule in ("lock-discipline", "error-rehydration", "spawn-safety",
                     "metric-drift"):
            assert f"[{rule}]" in proc.stdout
