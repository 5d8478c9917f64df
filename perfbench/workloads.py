"""The three workloads and the inputs they generate from a seed.

Rows come from ``zipfian_rows`` (d=10, 512 distinct patterns, exponent
1.1).  Everything a run feeds the program — row segments, small write
segments and query batches — is built here, before any timing starts;
the program only ever receives these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import Coordinator, RowStream
from repro.core.alpha_net import AlphaNetEstimator, SketchPlan
from repro.core.dataset import ColumnQuery, Dataset
from repro.core.estimator import ProjectedFrequencyEstimator
from repro.core.uniform_sample import UniformSampleEstimator
from repro.engine.service import QueryRequest
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import KMVSketch
from repro.workloads.synthetic import zipfian_rows

N_COLUMNS = 10
DISTINCT_PATTERNS = 512
ZIPF_EXPONENT = 1.1

ALPHA = 0.25
KMV_EPSILON = 0.25
KMV_DELTA = 0.05
CM_EPSILON = 0.05
CM_DELTA = 0.01
SAMPLE_SIZE = 4096
#: Failure probability behind ``UniformSampleEstimator.additive_error_bound``.
SAMPLE_DELTA = 0.05
HEAVY_PHI = 0.1

N_SHARDS = 2
BATCH_SIZE = 2048
#: Rows generated per run; ingest cycles through them if a run outpaces it.
POOL_ROWS = 1 << 17
#: Distinct column subsets the serve phase queries, three of each size
#: (subset ``i`` has ``1 + i % N_COLUMNS`` columns), and point-query
#: patterns per subset (projections of generated rows).
COLUMN_POOL = 30
PATTERNS_PER_QUERY = 64
#: Query batches generated per run; the serve phase cycles through them.
BATCH_CYCLE = 128


def alpha_net_estimator() -> AlphaNetEstimator:
    """α-net (α=0.25, 111 members) with KMV and Count-Min per member."""
    plan = SketchPlan(
        distinct_factory=lambda index: KMVSketch.from_epsilon(
            KMV_EPSILON, KMV_DELTA, seed=index
        ),
        point_factory=lambda index: CountMinSketch.from_error(
            CM_EPSILON, CM_DELTA, seed=index
        ),
    )
    return AlphaNetEstimator(N_COLUMNS, ALPHA, plan)


def uniform_sample_estimator() -> UniformSampleEstimator:
    """Reservoir sample of 4096 rows (Theorem 5.1)."""
    return UniformSampleEstimator(N_COLUMNS, SAMPLE_SIZE, seed=0)


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a summary, a backend and a traffic mix."""

    name: str
    #: Builds one fresh estimator replica (the coordinator's factory).
    factory: Callable[[], ProjectedFrequencyEstimator]
    backend: str
    #: Rows per ``Coordinator.ingest`` call in the ingest phase.
    segment_rows: int
    #: Share of ``--seconds`` given to the ingest phase; the serve phase
    #: gets the rest.
    ingest_share: float
    #: Requests per ``answer_block`` call and the kinds they cycle through.
    batch_requests: int
    kinds: tuple[str, ...]
    #: One write of ``write_rows`` rows every ``write_every`` query batches.
    write_every: int
    write_rows: int
    #: Fixed work of the traced run, per second of ``--seconds``.
    trace_segments_per_s: float
    trace_batches_per_s: float


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="alpha-serial",
            factory=alpha_net_estimator,
            backend="serial",
            segment_rows=2048,
            ingest_share=0.6,
            batch_requests=64,
            kinds=("fp", "frequency"),
            write_every=16,
            write_rows=256,
            trace_segments_per_s=0.3,
            trace_batches_per_s=8.0,
        ),
        Workload(
            name="alpha-resident",
            factory=alpha_net_estimator,
            backend="resident",
            segment_rows=4096,
            ingest_share=0.6,
            batch_requests=64,
            kinds=("fp", "frequency"),
            write_every=16,
            write_rows=256,
            trace_segments_per_s=0.25,
            trace_batches_per_s=4.0,
        ),
        Workload(
            name="usample-microbatch",
            factory=uniform_sample_estimator,
            backend="resident",
            segment_rows=1000,
            ingest_share=0.5,
            batch_requests=10,
            kinds=("fp", "frequency", "heavy_hitters"),
            write_every=1,
            write_rows=1000,
            trace_segments_per_s=10.0,
            trace_batches_per_s=1.8,
        ),
    )
}


def make_coordinator(workload: Workload, factory, backend: str | None = None) -> Coordinator:
    """The coordinator a workload ingests through (2 shards, 2048-row blocks)."""
    return Coordinator(
        factory,
        n_shards=N_SHARDS,
        backend=backend or workload.backend,
        batch_size=BATCH_SIZE,
    )


@dataclass
class Inputs:
    """Everything one run feeds the program, generated from the seed."""

    segments: list[np.ndarray]
    writes: list[np.ndarray]
    columns: list[ColumnQuery]
    batches: list[list[QueryRequest]]

    @staticmethod
    def stream(rows: np.ndarray) -> RowStream:
        """The row stream one ``Coordinator.ingest`` call consumes."""
        return RowStream(Dataset(rows, alphabet_size=2))


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Row segments, write segments and query batches for ``seed``."""
    write_pool = workload.write_rows * 64
    rows = zipfian_rows(
        POOL_ROWS + write_pool,
        N_COLUMNS,
        distinct_patterns=DISTINCT_PATTERNS,
        exponent=ZIPF_EXPONENT,
        seed=seed,
    ).to_array()
    segments = [
        rows[start:start + workload.segment_rows]
        for start in range(0, POOL_ROWS - workload.segment_rows + 1, workload.segment_rows)
    ]
    writes = [
        rows[start:start + workload.write_rows]
        for start in range(POOL_ROWS, POOL_ROWS + write_pool, workload.write_rows)
    ]
    rng = np.random.default_rng([seed, 1])
    # Sizes are stratified so every seed queries the same mix of net
    # members (sizes 1, 2, 8, 9, 10) and rounded subsets (sizes 3 to 7).
    columns = [
        ColumnQuery.of(rng.choice(N_COLUMNS, size=1 + index % N_COLUMNS, replace=False),
                       N_COLUMNS)
        for index in range(COLUMN_POOL)
    ]
    patterns = [
        [rows[int(rng.integers(POOL_ROWS))][list(query.columns)].tolist()
         for _ in range(PATTERNS_PER_QUERY)]
        for query in columns
    ]
    batches = []
    for _ in range(BATCH_CYCLE):
        # Each batch walks the pool in a fresh order made of three passes over
        # the sizes, each pass in its own order and taking a different subset
        # of every size.  Each block of ten requests then covers every size
        # once and each block of thirty every subset once, so batches cost
        # alike.
        per_size = [rng.permutation(COLUMN_POOL // N_COLUMNS) for _ in range(N_COLUMNS)]
        order = [
            int(size) + N_COLUMNS * int(per_size[size][rank])
            for rank in range(COLUMN_POOL // N_COLUMNS)
            for size in rng.permutation(N_COLUMNS)
        ]
        batch = []
        for position in range(workload.batch_requests):
            kind = workload.kinds[position % len(workload.kinds)]
            pick = order[position % COLUMN_POOL]
            query = columns[pick]
            if kind == "fp":
                batch.append(QueryRequest.fp(query, 0))
            elif kind == "frequency":
                pattern = patterns[pick][int(rng.integers(PATTERNS_PER_QUERY))]
                batch.append(QueryRequest.frequency(query, pattern))
            else:
                batch.append(QueryRequest.heavy_hitters(query, HEAVY_PHI))
        batches.append(batch)
    return Inputs(segments, writes, columns, batches)
