#!/usr/bin/env python3
"""Sharded engine: partition -> parallel ingest -> merge -> batch query.

The single-node observe-then-query protocol of the paper, scaled out: the
row stream is partitioned across N shards, each shard feeds its own replica
of the Algorithm 1 summary in a resident worker process, the per-shard
summaries are merged (losslessly — the default sketches' merges commute
with streaming), and late-arriving column queries are served in batch from
one QueryService with an LRU result cache.

Run with:  python examples/sharded_engine.py
"""

from __future__ import annotations

import os
import time

from repro import (
    AlphaNetEstimator,
    ColumnQuery,
    Coordinator,
    RowStream,
    SketchPlan,
)
from repro.analysis.reporting import render_table
from repro.workloads.synthetic import zipfian_rows


N_ROWS, N_COLUMNS = 6_000, 10
SHARD_COUNTS = (1, 2, 4)


def estimator_factory() -> AlphaNetEstimator:
    # Shared seed: every replica keeps identical sketch parameters, which is
    # what makes the per-shard summaries mergeable without loss.
    return AlphaNetEstimator(
        n_columns=N_COLUMNS, alpha=0.25, plan=SketchPlan.default_f0(epsilon=0.25, seed=3)
    )


def main() -> None:
    data = zipfian_rows(
        n_rows=N_ROWS, n_columns=N_COLUMNS, distinct_patterns=300, exponent=1.2, seed=5
    )
    stream = RowStream(data)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    print(
        f"Ingesting a {N_ROWS} x {N_COLUMNS} Zipfian table on {cores} core(s); "
        f"parallel speedup needs >1 core.\n"
    )

    # ------------------------------------------------ shard-count sweep
    rows = []
    baseline_seconds = None
    coordinators: dict[int, Coordinator] = {}
    for n_shards in SHARD_COUNTS:
        coordinator = Coordinator(
            estimator_factory,
            n_shards=n_shards,
            policy="round_robin",
            backend="serial" if n_shards == 1 else "resident",
        )
        started = time.perf_counter()
        report = coordinator.ingest(stream)
        wall = time.perf_counter() - started
        # Serving needs only the merged summary: release the workers now.
        coordinator.close()
        if baseline_seconds is None:
            baseline_seconds = wall
        coordinators[n_shards] = coordinator
        rows.append(
            (
                n_shards,
                report.backend,
                round(wall, 2),
                f"{baseline_seconds / wall:.2f}x",
                round(report.rows_per_second),
            )
        )
    print(
        render_table(
            ["shards", "backend", "wall seconds", "speedup", "rows/sec"],
            rows,
            # x1 is the per-row serial path; resident workers receive row
            # blocks, so their speedup includes the block fast path.
            title="Sharded ingest: shard count vs wall clock",
        )
    )

    # Sharding is lossless for this summary: every shard count answers
    # queries identically.
    probe = ColumnQuery.of([0, 3, 7], N_COLUMNS)
    answers = {
        n: coordinators[n].merged_estimator.estimate_fp(probe, 0)
        for n in SHARD_COUNTS
    }
    assert len(set(answers.values())) == 1, answers
    print(f"\nAll shard counts agree: F0{tuple(probe.columns)} = {answers[1]:.1f}")

    # ------------------------------------------------ batch ingest fast path
    # Rows travel as ndarray blocks instead of per-row tuples; the summary
    # is identical (the vectorized kernels are exact), only faster.
    batched = Coordinator(
        estimator_factory, n_shards=2, backend="serial", batch_size=2048
    )
    started = time.perf_counter()
    batched.ingest(stream)
    batch_wall = time.perf_counter() - started
    assert batched.merged_estimator.estimate_fp(probe, 0) == answers[1]
    print(
        f"Batch ingest (batch_size=2048, serial x2): {batch_wall:.2f}s — "
        f"same answers, {baseline_seconds / batch_wall:.1f}x the single-shard "
        f"per-row path"
    )

    # ------------------------------------------------ batch query serving
    service = coordinators[max(SHARD_COUNTS)].query_service(cache_size=256)
    queries = [
        ColumnQuery.of(columns, N_COLUMNS)
        for columns in ([0, 3, 7], [1, 2, 4], [0, 1, 2, 3, 4], [5, 8], [2, 6, 9])
    ]
    first_pass = service.batch_estimate_fp(queries, p=0)
    service.batch_estimate_fp(queries, p=0)  # served from cache
    print("\nBatch F0 answers:", [round(answer, 1) for answer in first_pass])
    info = service.cache_info()
    fp_stats = service.stats()["fp"]
    print(
        f"Cache: {info.hits} hits / {info.misses} misses "
        f"(hit rate {info.hit_rate:.0%}); "
        f"mean miss latency {fp_stats.mean_seconds * 1e6:.0f} us, "
        f"p95 {fp_stats.p95_seconds * 1e6:.0f} us"
    )


if __name__ == "__main__":
    main()
