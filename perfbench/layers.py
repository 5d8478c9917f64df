"""The layer map: which program names the traced run wraps, and the
per-layer metrics computed from the spans plus what the program reports
(``IngestReport``, ``CacheInfo`` and the telemetry registry)."""

from __future__ import annotations

from typing import Sequence

from .spans import Span, children_of, self_time


def _rows_in_unique_out(args, kwargs, result):
    return int(args[0].shape[0]), int(result[0].shape[0])


def _first_argument_length(args, kwargs, result):
    return len(args[0]), 0


_ALPHA = "repro.core.alpha_net:AlphaNetEstimator"
_USAMPLE = "repro.core.uniform_sample:UniformSampleEstimator"
_BASE = "repro.core.estimator:ProjectedFrequencyEstimator"
_POOL = "repro.engine.transport.resident:ResidentWorkerPool"

#: ``(span name, owner, attribute, measure)``.  Module globals are wrapped
#: in the module that *calls* them (``alpha_net``, ``kmv`` and ``countmin``
#: each import ``collapse_block`` under their own name).
WRAPS = (
    ("streaming.iter_batches", "repro.streaming.stream:RowStream", "iter_batches", None),
    ("partition.assign_block", "repro.engine.partition:StreamPartitioner", "assign_block", None),
    ("coordinator.ingest", "repro.engine.coordinator:Coordinator", "ingest", None),
    ("estimator.observe_rows", _BASE, "observe_rows", None),
    ("estimator.snapshot", _BASE, "snapshot", None),
    ("estimator.merge", _BASE, "merge", None),
    ("estimator.estimate_fp", _ALPHA, "estimate_fp", None),
    ("estimator.estimate_fp", _USAMPLE, "estimate_fp", None),
    ("estimator.estimate_frequency_block", _ALPHA, "estimate_frequency_block", None),
    ("estimator.estimate_frequency_block", _USAMPLE, "estimate_frequency_block", None),
    ("estimator.heavy_hitters", _ALPHA, "heavy_hitters", None),
    ("estimator.heavy_hitters", _USAMPLE, "heavy_hitters", None),
    ("rounding.round_query", "repro.core.rounding:AlphaNet", "round_query", None),
    ("usample.sample_frequencies", _USAMPLE, "sample_frequencies", None),
    ("sketches.collapse_block", "repro.core.alpha_net", "collapse_block", _rows_in_unique_out),
    ("sketches.collapse_block", "repro.sketches.kmv", "collapse_block", _rows_in_unique_out),
    ("sketches.collapse_block", "repro.sketches.countmin", "collapse_block", _rows_in_unique_out),
    ("sketches.hash", "repro.sketches.kmv", "stable_hash64_patterns", None),
    ("sketches.hash", "repro.sketches.countmin", "encode_pattern_block", None),
    ("sketches.hash", "repro.sketches.hashing:EncodedPatternBlock", "hash64",
     _first_argument_length),
    ("sketches.kmv_update_block", "repro.sketches.kmv:KMVSketch", "update_block", None),
    ("sketches.countmin_update_block", "repro.sketches.countmin:CountMinSketch",
     "update_block", None),
    ("sketches.countmin_estimate_block", "repro.sketches.countmin:CountMinSketch",
     "estimate_block", None),
    ("persistence.to_bytes", "repro.persistence", "to_bytes", None),
    ("persistence.from_bytes", "repro.persistence", "from_bytes", _first_argument_length),
    ("transport.pool_spawn", _POOL, "__init__", None),
    ("transport.send_block", _POOL, "send_block", None),
    ("transport.collect", _POOL, "collect", None),
    ("service.answer_block", "repro.engine.service:QueryService", "answer_block", None),
)

#: Per-layer metrics that are the outermost time of one span name.
_SPAN_SECONDS = {
    "streaming.iter_batches_s": "streaming.iter_batches",
    "partition.assign_block_s": "partition.assign_block",
    "coordinator.ingest_s": "coordinator.ingest",
    "coordinator.factory_s": "coordinator.factory",
    "estimator.observe_rows_s": "estimator.observe_rows",
    "estimator.snapshot_s": "estimator.snapshot",
    "estimator.merge_s": "estimator.merge",
    "estimator.estimate_fp_s": "estimator.estimate_fp",
    "estimator.estimate_frequency_block_s": "estimator.estimate_frequency_block",
    "estimator.heavy_hitters_s": "estimator.heavy_hitters",
    "rounding.round_query_s": "rounding.round_query",
    "usample.sample_frequencies_s": "usample.sample_frequencies",
    "sketches.collapse_block_s": "sketches.collapse_block",
    "sketches.kmv_update_block_s": "sketches.kmv_update_block",
    "sketches.countmin_update_block_s": "sketches.countmin_update_block",
    "sketches.countmin_estimate_block_s": "sketches.countmin_estimate_block",
    "persistence.to_bytes_s": "persistence.to_bytes",
    "persistence.from_bytes_s": "persistence.from_bytes",
    "transport.pool_spawn_s": "transport.pool_spawn",
    "transport.send_block_s": "transport.send_block",
    "transport.collect_s": "transport.collect",
    "service.answer_block_s": "service.answer_block",
}

#: The telemetry histogram the α-net ingest kernel feeds (shipped back from
#: resident workers inside their snapshot replies).
UPDATE_BLOCK_HISTOGRAM = "repro_sketch_update_block_seconds"


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric that the spans alone determine.

    Time metrics sum the spans of one name that have no ancestor of the
    same name, so recursion and nested wrappers (``stable_hash64_patterns``
    calling ``hash64``) are not counted twice.  Hashing counts only under
    ``estimator.observe_rows``, i.e. on the ingest path.
    """
    metrics = {key: 0.0 for key in _SPAN_SECONDS}
    by_name = {name: key for key, name in _SPAN_SECONDS.items()}
    counts = {
        "coordinator.factory_calls": 0,
        "usample.sample_frequencies_calls": 0,
        "sketches.collapse_block_calls": 0,
        "sketches.patterns_hashed": 0,
        "transport.blocks_sent": 0,
        "persistence.bytes_decoded": 0,
    }
    hash_seconds = 0.0
    collapse_in = collapse_out = 0
    children = children_of(spans)
    ingest_self = answer_self = 0.0
    for index, span in enumerate(spans):
        name = span.name
        outermost = not _has_ancestor(spans, index, name)
        key = by_name.get(name)
        if key is not None and outermost:
            metrics[key] += span.end - span.start
        if name == "coordinator.factory":
            counts["coordinator.factory_calls"] += 1
        elif name == "usample.sample_frequencies":
            counts["usample.sample_frequencies_calls"] += 1
        elif name == "sketches.collapse_block":
            counts["sketches.collapse_block_calls"] += 1
            collapse_in += span.n_in
            collapse_out += span.n_out
        elif name == "transport.send_block":
            counts["transport.blocks_sent"] += 1
        elif name == "persistence.from_bytes":
            counts["persistence.bytes_decoded"] += span.n_in
        elif name == "sketches.hash" and _has_ancestor(spans, index, "estimator.observe_rows"):
            counts["sketches.patterns_hashed"] += span.n_in
            if outermost:
                hash_seconds += span.end - span.start
        elif name == "coordinator.ingest" and outermost:
            ingest_self += self_time(spans, index, children)
        elif name == "service.answer_block" and outermost:
            answer_self += self_time(spans, index, children)
    metrics.update(counts)
    metrics["sketches.hash_s"] = hash_seconds
    metrics["sketches.collapse_unique_ratio"] = (
        collapse_out / collapse_in if collapse_in else 0.0
    )
    metrics["coordinator.ingest_self_s"] = ingest_self
    metrics["service.answer_block_self_s"] = answer_self
    return metrics


def report_metrics(reports: Sequence) -> dict[str, float]:
    """Per-layer metrics read off the program's own ``IngestReport``s."""
    busy = sum(sum(report.shard_seconds) for report in reports)
    shard_wall = sum(report.n_shards * report.wall_seconds for report in reports)
    skews = [
        max(report.rows_per_shard) / (report.rows_total / report.n_shards)
        for report in reports
        if report.rows_total
    ]
    return {
        "partition.skew_ratio": sum(skews) / len(skews) if skews else 0.0,
        "coordinator.merge_s": sum(report.merge_seconds for report in reports),
        "transport.bytes_shipped": sum(
            sum(report.bytes_shipped_per_shard) for report in reports
        ),
        "transport.worker_busy_ratio": busy / shard_wall if shard_wall else 0.0,
        "resilience.retries": sum(report.retries for report in reports),
        "resilience.recoveries": sum(report.recoveries for report in reports),
    }


def cache_metrics(cache_info) -> dict[str, float]:
    """Per-layer metrics of the query service's result cache."""
    lookups = cache_info.hits + cache_info.misses
    return {
        "service.cache_hit_ratio": cache_info.hits / lookups if lookups else 0.0,
        "service.cache_invalidations": cache_info.invalidations,
    }


def worker_kernel_metrics(registry) -> dict[str, float]:
    """Seconds in the α-net ``update_block`` kernels, by sketch family."""
    totals = {"distinct": 0.0, "point": 0.0}
    histogram = registry.histogram(UPDATE_BLOCK_HISTOGRAM)
    for labels, series in histogram.series():
        family = dict(labels).get("family")
        if family in totals:
            totals[family] += series.total
    return {
        f"sketches.update_block_worker_s.{family}": seconds
        for family, seconds in totals.items()
    }
