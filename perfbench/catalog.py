"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root declares the same names and
units (a test keeps the two in step); the bounds live only there.
"""

from __future__ import annotations

#: Printed with ``--trace 0`` on every workload; the JSON result line
#: carries exactly these.
END_TO_END = {
    "setup_s": "s",
    "ingest_rows_per_s": "rows/s",
    "ingest_call_p50_ms": "ms",
    "queries_per_s": "req/s",
    "query_batch_p50_ms": "ms",
    "summary_bytes": "B",
    "peak_rss_mb": "MB",
}

#: The end-to-end time metrics, as they read on this host's wall clock
#: before rescaling to the reference host (``perfbench/hostspeed.py``).
WALL = {
    "wall.setup_s": "s",
    "wall.ingest_rows_per_s": "rows/s",
    "wall.ingest_call_p50_ms": "ms",
    "wall.queries_per_s": "req/s",
    "wall.query_batch_p50_ms": "ms",
}

#: Printed in the human-readable table only: a tail percentile exists only
#: when at least ten samples lie beyond it, and the failure ratio is 0 on a
#: healthy run, so neither can be a metric every run reports.  Wall-clock
#: times and the probes behind the rescaling are context, not metrics.
TABLE_ONLY = {
    "ingest_call_p90_ms": "ms",
    "query_batch_p90_ms": "ms",
    "op_failure_ratio": "1",
    **WALL,
    "probe_p50_ms": "ms",
    "probe_each_core_p50_ms": "ms",
    "probes": "count",
}

#: Printed with ``--trace 1`` on every workload (0 where a layer is idle).
PER_LAYER = {
    "streaming.iter_batches_s": "s",
    "partition.assign_block_s": "s",
    "partition.skew_ratio": "1",
    "coordinator.ingest_s": "s",
    "coordinator.ingest_self_s": "s",
    "coordinator.merge_s": "s",
    "coordinator.factory_s": "s",
    "coordinator.factory_calls": "count",
    "estimator.observe_rows_s": "s",
    "estimator.snapshot_s": "s",
    "estimator.merge_s": "s",
    "estimator.estimate_fp_s": "s",
    "estimator.estimate_frequency_block_s": "s",
    "estimator.heavy_hitters_s": "s",
    "rounding.round_query_s": "s",
    "usample.sample_frequencies_s": "s",
    "usample.sample_frequencies_calls": "count",
    "sketches.collapse_block_s": "s",
    "sketches.collapse_block_calls": "count",
    "sketches.collapse_unique_ratio": "1",
    "sketches.hash_s": "s",
    "sketches.patterns_hashed": "count",
    "sketches.kmv_update_block_s": "s",
    "sketches.countmin_update_block_s": "s",
    "sketches.countmin_estimate_block_s": "s",
    "sketches.update_block_worker_s.distinct": "s",
    "sketches.update_block_worker_s.point": "s",
    "persistence.to_bytes_s": "s",
    "persistence.from_bytes_s": "s",
    "persistence.bytes_decoded": "B",
    "transport.pool_spawn_s": "s",
    "transport.send_block_s": "s",
    "transport.blocks_sent": "count",
    "transport.bytes_shipped": "B",
    "transport.collect_s": "s",
    "transport.worker_busy_ratio": "1",
    "resilience.retries": "count",
    "resilience.recoveries": "count",
    "service.answer_block_s": "s",
    "service.answer_block_self_s": "s",
    "service.cache_hit_ratio": "1",
    "service.cache_invalidations": "count",
    "lifecycle.leaked_workers": "count",
    "lifecycle.leaked_shm": "count",
    "host.calib_s": "s",
    "telemetry.traced_over_untraced": "1",
}
