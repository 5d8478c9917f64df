"""One benchmark run: parse the arguments, measure, check, print.

``perfbench/run.py`` is the entry point; it puts ``src/`` on the path
before this module imports the program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import time
from pathlib import Path

import numpy

from repro import telemetry

from . import layers
from . import workloads as wl
from .catalog import END_TO_END, PER_LAYER, TABLE_ONLY
from .checks import audit_lifecycle, shm_segments, stop_resource_tracker
from .hostspeed import HostSpeed
from .loop import run_pass
from .spans import SpanRecorder, patched
from .stats import median, tail_percentile

OUT_DIR = Path(__file__).resolve().parent / "out"

#: An untraced run sets up at least this many times and for at least this
#: long; ``setup_s`` is the median set-up.
SETUP_REPS = 5
SETUP_SECONDS = 4.0
#: Ingest/serve rounds per pass; each phase of a round gets 1/ROUNDS of
#: its share of the run.
ROUNDS = 3
#: Fewest calls one phase of a round makes, however short ``--seconds`` is.
MIN_INGEST_CALLS = 1
MIN_BATCHES = 4
#: Ingests after which resident workloads snapshot the merged summary for
#: the byte-identity check against a serial ingest.
PREFIX_SEGMENTS = 1
#: Iterations of the fixed pure-Python burn behind ``host.calib_s``.
CALIB_ITERATIONS = 2_000_000


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python burn."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIB_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - started


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _time_budget(seconds: float, minimum: int):
    return lambda elapsed, calls: calls >= minimum and elapsed >= seconds


def _fixed_work(count: int):
    return lambda elapsed, calls: calls >= count


def _serial_prefix_bytes(workload, inputs, factory) -> bytes:
    """Merged summary bytes of a serial ingest of the checked prefix."""
    with wl.make_coordinator(workload, factory, backend="serial") as coordinator:
        for rows in inputs.segments[: PREFIX_SEGMENTS + 1]:
            coordinator.ingest(inputs.stream(rows))
        return coordinator.merged_estimator.to_bytes()


def _problems(workload, inputs, factory, result, lifecycle) -> list[str]:
    problems = result.answers.failures() + result.oracle_problems
    if result.merged_rows != result.oracle.rows:
        problems.append(
            f"merged summary observed {result.merged_rows} rows, "
            f"{result.oracle.rows} were ingested"
        )
    if not result.ingest_calls or not result.batch_calls:
        problems.append("a phase completed no call")
    if workload.backend != "serial":
        if result.prefix_bytes is None:
            problems.append("the ingest phase ended before the checked prefix")
        elif result.prefix_bytes != _serial_prefix_bytes(workload, inputs, factory):
            problems.append(
                f"{workload.backend} summary differs from a serial ingest of "
                f"the same {PREFIX_SEGMENTS + 1} segments"
            )
    if lifecycle.leaked_workers or lifecycle.leaked_shm:
        problems.append(
            f"lifecycle leak after close(): {lifecycle.leaked_workers} worker "
            f"process(es), {lifecycle.leaked_shm} shared-memory segment(s)"
        )
    return problems


def _time_metrics(setups, ingests, batches, result) -> dict:
    return {
        "setup_s": median(setups),
        "ingest_rows_per_s": result.ingest_rows / (sum(ingests) or math.inf),
        "ingest_call_p50_ms": median(ingests) * 1e3,
        "queries_per_s": result.requests / (sum(batches) or math.inf),
        "query_batch_p50_ms": median(batches) * 1e3,
    }


def _end_to_end(workload, result) -> tuple[dict, dict]:
    """Time metrics rescaled to the reference host, plus the table.

    Set-ups and ingests of a workload with worker processes are rescaled
    by the probes of every core, query batches by the probes of the
    current core.  The table repeats the time metrics as measured on this
    host's wall clock, under a ``wall.`` prefix, with the probes.
    """
    speed = result.speed
    workers = workload.backend != "serial"
    ingests = speed.rescale(result.ingest_calls, each_core=workers)
    batches = speed.rescale(result.batch_calls)
    setups = speed.rescale(result.setups, each_core=workers)
    metrics = _time_metrics(setups, ingests, batches, result)
    metrics["summary_bytes"] = result.summary_bytes
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    table = {}
    for name, samples in (
        ("ingest_call_p90_ms", ingests),
        ("query_batch_p90_ms", batches),
    ):
        value = tail_percentile(samples, 0.9)
        table[name] = (
            value * 1e3 if value is not None
            else f"n/a: {len(samples)} samples, a p90 needs 100"
        )
    measured = [
        [seconds for _, seconds in calls]
        for calls in (result.setups, result.ingest_calls, result.batch_calls)
    ]
    wall = _time_metrics(*measured, result)
    table.update((f"wall.{name}", value) for name, value in wall.items())
    table["probe_p50_ms"] = median(speed.probes()) * 1e3
    if workers:
        table["probe_each_core_p50_ms"] = median(speed.probes(each_core=True)) * 1e3
    table["probes"] = float(len(speed.probes()))
    return metrics, table


def _per_layer(recorder, traced, registry, lifecycle, calib, ratio) -> dict:
    metrics = layers.span_metrics(recorder.spans)
    metrics.update(layers.report_metrics(traced.reports))
    metrics.update(layers.cache_metrics(traced.cache_info))
    metrics.update(layers.worker_kernel_metrics(registry))
    metrics["lifecycle.leaked_workers"] = lifecycle.leaked_workers
    metrics["lifecycle.leaked_shm"] = lifecycle.leaked_shm
    metrics["host.calib_s"] = calib
    metrics["telemetry.traced_over_untraced"] = ratio
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(metrics) ^ set(PER_LAYER)}")
    return {name: metrics[name] for name in PER_LAYER}


def _untraced(workload, inputs, factory, seconds, prefix):
    return run_pass(
        workload, inputs, factory,
        setup_reps=SETUP_REPS,
        setup_seconds=SETUP_SECONDS,
        rounds=ROUNDS,
        ingest_stop=_time_budget(seconds * workload.ingest_share / ROUNDS, MIN_INGEST_CALLS),
        serve_stop=_time_budget(seconds * (1 - workload.ingest_share) / ROUNDS, MIN_BATCHES),
        prefix_segments=prefix,
        speed=HostSpeed(each_core=workload.backend != "serial"),
    )


def _traced(workload, inputs, factory, seconds, prefix):
    """The same fixed work untraced, then traced; returns both passes."""
    segments = round(seconds * workload.trace_segments_per_s / ROUNDS)
    batches = round(seconds * workload.trace_batches_per_s / ROUNDS)
    work = dict(
        setup_reps=1,
        rounds=ROUNDS,
        ingest_stop=_fixed_work(max(MIN_INGEST_CALLS, segments)),
        serve_stop=_fixed_work(max(MIN_BATCHES, batches)),
        prefix_segments=prefix,
    )
    untraced = run_pass(workload, inputs, factory, **work)
    recorder = SpanRecorder()
    telemetry.enable()
    try:
        with telemetry.scoped_registry() as registry, telemetry.scoped_tracer(), \
                patched(recorder, layers.WRAPS):
            traced = run_pass(
                workload, inputs, recorder.wrap("coordinator.factory", factory),
                quiet=recorder.paused, **work,
            )
    finally:
        telemetry.disable()
    return untraced, traced, recorder, registry


def _print_table(workload, args, record, metrics, catalog, table, result, lifecycle, problems):
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("run: " + " ".join(f"{key}={value}" for key, value in record.items()))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {catalog[name]}")
    for name, value in table.items():
        shown = f"{value:>16.6g}" if isinstance(value, float) else value
        print(f"  {name:40s} {shown} {TABLE_ONLY[name]}")
    print(f"  ingest calls={len(result.ingest_calls)} rows={result.ingest_rows} "
          f"query batches={len(result.batch_calls)} requests={result.requests}")
    for name, family in sorted(result.answers.families.items()):
        print(f"  bound {name:28s} {family.violations}/{family.checked} outside "
              f"(delta {family.delta})")
    print(f"  answers with no stated bound: {result.answers.unchecked}")
    print(f"  alpha-net F0 answers outside guarantee()'s factor (not gated): "
          f"{result.answers.beyond_stated_guarantee}")
    print(f"  lifecycle: leaked_workers={lifecycle.leaked_workers} "
          f"leaked_shm={lifecycle.leaked_shm}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    """Run one workload; print the table and the JSON result line."""
    args = _parse(argv)
    workload = wl.WORKLOADS[args.workload]
    factory = workload.factory
    calib = calibrate()
    record = {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host.calib_s": calib,
    }
    inputs = wl.make_inputs(workload, args.seed)
    prefix = PREFIX_SEGMENTS if workload.backend != "serial" else 0
    # End-to-end numbers are taken with the program's own telemetry off.
    telemetry.disable()
    shm_before = shm_segments()
    if args.trace:
        untraced, result, recorder, registry = _traced(
            workload, inputs, factory, args.seconds, prefix
        )
        passes = [untraced, result]
    else:
        result = _untraced(workload, inputs, factory, args.seconds, prefix)
        passes = [result]
    lifecycle = audit_lifecycle(shm_before)
    problems = _problems(workload, inputs, factory, result, lifecycle)
    stop_resource_tracker()

    if args.trace:
        ratio = (result.ingest_wall + result.serve_wall) / (
            untraced.ingest_wall + untraced.serve_wall
        )
        metrics = _per_layer(recorder, result, registry, lifecycle, calib, ratio)
        table, catalog = {}, PER_LAYER
    else:
        metrics, table = _end_to_end(workload, result)
        catalog = END_TO_END
    attempted = sum(one.attempted for one in passes)
    failed = sum(one.failed for one in passes)
    failed += lifecycle.leaked_workers + lifecycle.leaked_shm
    table["op_failure_ratio"] = failed / attempted
    _print_table(workload, args, record, metrics, catalog, table, result, lifecycle, problems)

    saved = {
        "record": dict(record, workload=workload.name, seed=args.seed,
                       seconds=args.seconds, trace=args.trace),
        "metrics": metrics,
        "table": table,
        "answers": {
            "bounds": {name: vars(family) for name, family in result.answers.families.items()},
            "unchecked": result.answers.unchecked,
            "alpha_net_f0_outside_guarantee": result.answers.beyond_stated_guarantee,
        },
        "problems": problems,
    }
    if args.trace:
        saved["spans"] = recorder.rows()
    else:
        saved["calls"] = {
            "setups": result.setups,
            "ingests": result.ingest_calls,
            "batches": result.batch_calls,
        }
        saved["probes"] = result.speed.record()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved)
    )

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": catalog[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1

