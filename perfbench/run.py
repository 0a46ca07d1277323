"""Alarm-pipeline benchmark: one command, two workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload drain-inmem --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced rounds with rounds traced by spans
around the pipeline's public calls, and prints the per-layer metrics, the
unattributed remainder and the tracing overhead.  End-to-end times are
scaled to a reference host speed, probed around every timed step
(``workloads.host_speed``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full result,
with the wall-time figures, its provenance and any spans go to
``perfbench/out/``.
The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def declared(section: str) -> dict[str, dict[str, Any]]:
    """Entries of one ``BENCHMARK.json`` section, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec[section]}


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    return {name: entry["unit"] for name, entry in declared(section).items()}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: Any, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb(worker_pids: list[int]) -> float:
    """Peak RSS of this process plus the high-water mark of each live worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def end_to_end(rounds: list, setup_times: list[float], rss_mb: float,
               sla_bound: float, scaled: bool = True,
               ) -> tuple[dict[str, float], dict[str, Any]]:
    """The rate is taken per round and reported as the median over rounds;
    the latency percentiles are taken over every alarm of the run.

    With ``scaled`` each round's times are multiplied by its host speed, so
    they read as at the reference speed; without, they are wall times.
    The SLA share always judges the wall latencies the consumer saw.
    """
    speed = [d.speed if scaled else 1.0 for d in rounds]
    windows = [w for d in rounds for w in d.windows]
    window_latencies = [w.latency * k for d, k in zip(rounds, speed)
                        for w in d.windows]
    latencies = np.concatenate([
        d.per_alarm([w.latency * k for w in d.windows])
        for d, k in zip(rounds, speed)])
    rates = [d.processed / ((d.windows[-1].recorded_at - d.started) * k)
             for d, k in zip(rounds, speed) if d.windows]
    # OpsMetrics marks a window healthy when its p95 latency is within the
    # bound; all alarms of a window share its latency.
    healthy = [w.latency <= sla_bound for w in windows]
    metrics = {
        "verified_per_s": statistics.median(rates),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "sla_window_share": sum(healthy) / len(healthy),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    info = {
        "latency_samples": len(latencies),
        "windows": len(windows),
        "windows_beyond_p90": sum(
            1 for latency in window_latencies
            if latency * 1e3 > metrics["latency_p90_ms"]),
        "rounds": len(rounds),
        "host_speed_median": statistics.median(d.speed for d in rounds),
        "setup_times_s": setup_times,
        "sla_p95_bound_s": sla_bound,
    }
    return metrics, info


def per_layer(rounds: list, tracer: Any, error_share: float) -> dict[str, float]:
    traced = [d for d in rounds if d.traced]
    wall = sum(d.finished - d.started for d in traced)

    def instrument(key: str) -> float:
        return sum(d.instruments.get(key, 0.0) for d in traced)

    queue_wait = np.concatenate([
        d.per_alarm([w.polled_at - d.started for w in d.windows])
        for d in traced])
    commits = instrument("repro_wal_commit_batch_records.count")
    return {
        "producer.send_s": tracer.total("producer.send"),
        "producer.bytes": sum(d.producer_bytes for d in traced),
        "broker.fetch_s": tracer.total("broker.fetch"),
        "streaming.deserialize_s": tracer.total("streaming.deserialize"),
        "consumer.queue_wait_p50_ms": percentile(queue_wait, 50) * 1e3,
        "history.query_s": tracer.total("history.query"),
        "history.devices": tracer.counts["history.query"],
        "storage.query_s": instrument("repro_storage_query_seconds.sum"),
        "storage.queries": instrument("repro_storage_query_seconds.count"),
        "ml.verify_s": tracer.total("ml.verify"),
        "ml.calls": tracer.calls("ml.verify"),
        "ml.alarms": tracer.counts["ml.verify"],
        "store.write_s": tracer.total("store.write"),
        "store.docs": tracer.counts["store.write"],
        "rpc.roundtrips": instrument("repro_rpc_requests_total"),
        "rpc.roundtrip_share": instrument("repro_rpc_roundtrip_seconds.sum") / wall,
        "rpc.bytes": instrument("repro_rpc_bytes_sent_total")
        + instrument("repro_rpc_bytes_received_total"),
        "runtime.worker_restarts": instrument("repro_worker_restarts_total"),
        "wal.fsyncs": instrument("repro_wal_fsync_seconds.count"),
        "wal.fsync_share": instrument("repro_wal_fsync_seconds.sum") / wall,
        "wal.batch_records_mean":
            instrument("repro_wal_commit_batch_records.sum") / commits
            if commits else 0.0,
        "cluster.fanout_share": instrument("repro_shard_fanout_seconds.sum") / wall,
        "consumer.windows": sum(len(d.windows) for d in traced),
        "unattributed_s": tracer.unattributed(),
        # Each traced round against the untraced round just before it,
        # both at the reference host speed.
        "trace.overhead": statistics.median(
            (t.finished - t.started) * t.speed
            / ((u.finished - u.started) * u.speed) - 1.0
            for u, t in zip(rounds[::2], rounds[1::2])),
        "error_share": error_share,
    }


def reap_child_processes() -> None:
    """Stop and wait for every process this one started.

    The pipeline stops its shard workers in order; a worker it could not
    reach (a run cut short while the workers were being spawned) is killed
    here.  Then the resource tracker ``multiprocessing`` starts with the
    first worker is stopped too: left alone it ends only after this process
    has, and the orphan stays behind as a zombie.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def exit_on_sigterm(signum: int, frame: Any) -> None:
    """A terminated run unwinds like a failed one: workers are stopped."""
    raise SystemExit(128 + signum)


def provenance(spec: Any, seed: int, seconds: float) -> dict[str, Any]:
    return {
        "workload": spec.name,
        "why": declared("workloads")[spec.name]["why"],
        "generator": "repro.datasets.SitasysGenerator",
        "params": spec.params(),
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import tracing
    import workloads
    from repro.workload.opsmetrics import OpsMetrics

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup_times: list[float] = []      # at the reference host speed
    setup_walls: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    outcome = checks.Outcome()
    pipe = None
    try:
        for _ in range(workloads.SETUPS):
            if pipe is not None:
                pipe.close()
                pipe = None
                gc.collect()
            probe = workloads.speed_probe()
            started = time.perf_counter()
            pipe = workloads.set_up(spec, args.seed, OUT)
            setup_walls.append(time.perf_counter() - started)
            setup_times.append(setup_walls[-1] * workloads.host_speed(
                probe, workloads.speed_probe()))
        verdicts = checks.oracle(pipe)
        rounds = workloads.run(pipe, args.seconds, tracer, lambda drain: outcome.add(
            checks.check_round(pipe, drain, verdicts)))
        rss = peak_rss_mb(pipe.worker_pids())
    finally:
        try:
            if pipe is not None:
                pipe.close()
        finally:
            reap_child_processes()

    prov = provenance(spec, args.seed, args.seconds)
    plain = [d for d in rounds if not d.traced]
    sla_bound = OpsMetrics().sla_p95_seconds
    e2e, info = end_to_end(plain, setup_times, rss, sla_bound)
    wall, _ = end_to_end(plain, setup_walls, rss, sla_bound, scaled=False)
    result: dict[str, Any] = {
        "provenance": prov,
        "checks": {**vars(outcome), "failed": outcome.failed,
                   "error_share": outcome.error_share},
        "end_to_end_untraced": e2e,
        "end_to_end_untraced_wall": wall,
        "run": info,
    }
    if tracer is not None:
        metrics = per_layer(rounds, tracer, outcome.error_share)
        units = declared_metrics("per_layer")
        result["per_layer"] = metrics
        result["self_seconds"] = tracer.self_times()
        result["spans"] = tracer.documents()
    else:
        metrics, units = e2e, declared_metrics("end_to_end")
    name = f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    print("checks " + json.dumps(result["checks"], sort_keys=True))
    if tracer is not None:
        for layer, seconds in result["self_seconds"].items():
            print(f"self {layer:<10} {seconds:10.4f} s")
    for key, unit in units.items():
        print(f"metric {key} = {metrics[key]:.6g} {unit}")
    if tracer is None:
        print("wall " + json.dumps(wall, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
