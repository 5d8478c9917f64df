"""The engine coordinator: partition, parallel ingest, merge.

:class:`Coordinator` turns the single-node observe-then-query protocol into
a sharded one:

1. a :class:`~repro.engine.partition.StreamPartitioner` assigns every row of
   the input stream to one of ``n_shards`` shards;
2. each :class:`~repro.engine.shard.Shard` feeds its rows to a fresh
   estimator replica — serially in-process, in a *resident* pool of forked
   local workers, or on remote socket workers (the last two share one
   socket worker pool, and only the estimator's *compact snapshot state* —
   the :mod:`repro.persistence` wire format, no shard bookkeeping, no
   timing fields — crosses the process boundary; see
   :mod:`repro.engine.transport`);
3. the per-shard summaries are folded together through the estimator-level
   ``merge()`` protocol, yielding one summary of the whole stream.

Because every partition policy produces disjoint substreams whose union is
the input, and because merging is lossless for the default sketch plans,
the merged summary answers queries exactly as a single-node summary of the
same stream would (identically for deterministic summaries, in distribution
for sampling-based ones).
"""

from __future__ import annotations

import atexit
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .. import persistence, telemetry
from ..core.estimator import ProjectedFrequencyEstimator
from ..errors import (
    EstimationError,
    InvalidParameterError,
    SnapshotError,
    TransportError,
)
from ..streaming.stream import RowStream
from . import checkpoint as checkpoint_io
from .partition import StreamPartitioner
from .resilience import ResilienceConfig
from .service import QueryService
from .shard import Shard
from .transport import (
    DEFAULT_TRANSPORT_BLOCK_ROWS,
    ResidentWorkerPool,
    SocketWorkerPool,
)

__all__ = ["Coordinator", "IngestReport", "INGEST_BACKENDS"]

#: Supported ingest execution backends.  ``serial`` ingests in-process;
#: ``resident`` forks a persistent local worker per shard and ``sockets``
#: drives remote shard servers, both over the framed ``repro/transport@1``
#: protocol.
INGEST_BACKENDS = ("serial", "resident", "sockets")

#: Coordinators holding (or able to hold) persistent worker pools.  The
#: atexit hook below closes whatever is still alive at interpreter exit,
#: so a script that forgets ``close()`` (or the ``with`` form) does not
#: leave resident worker processes or socket connections behind.
_LIVE_COORDINATORS: "weakref.WeakSet[Coordinator]" = weakref.WeakSet()


def _close_live_coordinators() -> None:
    for coordinator in list(_LIVE_COORDINATORS):
        try:
            coordinator.close()
        except Exception:
            pass


atexit.register(_close_live_coordinators)


@dataclass(frozen=True)
class IngestReport:
    """Timings and row accounting for one :meth:`Coordinator.ingest` call.

    Example::

        >>> report = IngestReport(
        ...     n_shards=2, backend="serial", policy="round_robin",
        ...     rows_total=100, rows_per_shard=(50, 50), wall_seconds=0.5,
        ...     shard_seconds=(0.2, 0.2), merge_seconds=0.01,
        ... )
        >>> report.rows_per_second
        200.0
    """

    n_shards: int
    backend: str
    policy: str
    rows_total: int
    rows_per_shard: tuple[int, ...]
    wall_seconds: float
    shard_seconds: tuple[float, ...]
    merge_seconds: float
    #: Transport bytes that crossed the process boundary per shard (frames
    #: out plus snapshot bytes back).  Zeros under the serial backend (and
    #: whenever ``n_shards == 1`` short-circuits to it); exact frame
    #: accounting under ``resident`` and ``sockets``.  Empty for reports
    #: predating the transport layer.
    bytes_shipped_per_shard: tuple[int, ...] = ()
    #: Shards given up on after recovery exhaustion (``on_exhausted:
    #: degrade``), as of this ingest.  Empty on healthy runs and on
    #: backends without supervised workers.
    shards_lost: tuple[int, ...] = ()
    #: Rows routed to lost shards this ingest — shipped before the loss or
    #: dropped after it — that the merged summary does not cover.
    rows_dropped: int = 0
    #: Fraction of this ingest's routed rows the merged summary covers
    #: (``1.0`` on healthy runs).
    coverage: float = 1.0
    #: Transport RPC retries charged during this ingest.
    retries: int = 0
    #: Worker recoveries (respawn/reconnect/reassign) during this ingest.
    recoveries: int = 0

    @property
    def rows_per_second(self) -> float:
        """End-to-end ingest throughput (partition + ingest + merge)."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.rows_total / self.wall_seconds


class Coordinator:
    """Sharded ingest plus a merged summary serving late-arriving queries.

    Parameters
    ----------
    estimator_factory:
        Zero-argument factory producing a fresh estimator replica per shard.
        Replicas of randomized summaries should share seeds so that sharded
        and single-node ingestion are comparable run to run.
    n_shards:
        Number of estimator replicas (and, under the transport backends,
        worker processes).
    policy:
        Shard assignment policy, see
        :data:`~repro.engine.partition.PARTITION_POLICIES`.
    backend:
        ``"serial"`` (the default) ingests shards one after another
        in-process; ``"resident"`` keeps one forked worker process per
        shard alive across ``ingest()`` calls, hands it row blocks over a
        socket pair, and ships estimator snapshot bytes only at merge time;
        ``"sockets"`` drives remote shard servers (``python -m repro
        worker``) at ``worker_addresses`` over the framed
        ``repro/transport@1`` protocol.  All three route rows through the
        same block loop, so the transport backends replay the serial
        backend's exact per-batch ``observe_rows`` sequence and their merged
        summaries are bit-identical to a serial ingest of the same stream.
    hash_seed:
        Seed for the ``"hash"`` partition policy.
    worker_addresses:
        ``"host:port"`` strings, one per shard, naming the remote shard
        servers of the ``"sockets"`` backend; unused otherwise.  Checked at
        ingest time so checkpoint restores can rebuild a sockets
        coordinator before the serving tier knows its worker fleet.
    batch_size:
        When set, rows travel the engine as ``(m, d)`` ndarray blocks of at
        most this many rows: the stream is chunked with
        :meth:`~repro.streaming.stream.RowStream.iter_batches`, routed with
        one vectorized assignment per block, and shards ingest through the
        estimators' :meth:`observe_rows` fast path.  Sketch-backed
        estimators carry each block all the way down to the sketches'
        counted ``update_block`` scatter kernels, so batch ingest is the
        blessed path for the α-net estimator in particular.  ``None`` keeps
        the row-at-a-time path on ``serial``; the transport backends always
        ship blocks, of
        :data:`~repro.engine.transport.DEFAULT_TRANSPORT_BLOCK_ROWS` rows
        unless this is set.  Both paths produce identical summaries for
        identical seeds, with two carve-outs for sketch plans:
        float-accumulating moment sketches may differ in the last ulp, and
        order-dependent Misra-Gries/SpaceSaving trackers may answer
        differently (with the same guarantees) because counted batches
        change the arrival order; see docs/architecture.md.
    resilience:
        A :class:`~repro.engine.resilience.ResilienceConfig` (or its
        ``to_dict`` form) governing transport retries, per-RPC deadlines
        and worker recovery under the ``resident`` and ``sockets``
        backends; defaults to bounded respawn/reconnect recovery.  See
        docs/robustness.md.

    Coordinators holding persistent pools support the context-manager
    protocol (``with Coordinator(...) as engine:``), and whatever is left
    open is closed by an atexit hook — but explicit :meth:`close` remains
    the tidy form.

    Example::

        >>> from repro import Coordinator, Dataset, ExactBaseline, RowStream
        >>> data = Dataset.random(n_rows=100, n_columns=6, seed=1)
        >>> engine = Coordinator(
        ...     lambda: ExactBaseline(n_columns=6), n_shards=2, backend="serial"
        ... )
        >>> report = engine.ingest(RowStream(data))
        >>> report.rows_total
        100
        >>> engine.merged_estimator.rows_observed
        100
    """

    def __init__(
        self,
        estimator_factory: Callable[[], ProjectedFrequencyEstimator],
        n_shards: int = 4,
        policy: str = "round_robin",
        backend: str = "serial",
        hash_seed: int = 0,
        batch_size: int | None = None,
        worker_addresses: Sequence[str] | None = None,
        resilience: ResilienceConfig | dict | None = None,
    ) -> None:
        if backend not in INGEST_BACKENDS:
            raise InvalidParameterError(
                f"unknown ingest backend {backend!r}; expected one of "
                f"{INGEST_BACKENDS}"
            )
        if batch_size is not None and batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self._factory = estimator_factory
        self._partitioner = StreamPartitioner(n_shards, policy, hash_seed)
        self._backend = backend
        self._batch_size = batch_size
        self._worker_addresses = (
            tuple(str(address) for address in worker_addresses)
            if worker_addresses
            else None
        )
        if resilience is None:
            self._resilience = ResilienceConfig()
        elif isinstance(resilience, ResilienceConfig):
            self._resilience = resilience
        else:
            self._resilience = ResilienceConfig.from_dict(resilience)
        self._resilience.validate()
        self._resident_pool: ResidentWorkerPool | None = None
        self._socket_pool: SocketWorkerPool | None = None
        self._shards: list[Shard] = []
        self._merged: ProjectedFrequencyEstimator | None = None
        self._rows_covered = 0
        self._rows_lost = 0
        _LIVE_COORDINATORS.add(self)

    # -- structure ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of estimator replicas per ingest."""
        return self._partitioner.n_shards

    @property
    def backend(self) -> str:
        """The configured ingest backend."""
        return self._backend

    @property
    def batch_size(self) -> int | None:
        """Block size of the batch ingest path (``None`` = row at a time)."""
        return self._batch_size

    @property
    def worker_addresses(self) -> tuple[str, ...] | None:
        """Remote shard-server addresses of the ``"sockets"`` backend."""
        return self._worker_addresses

    @property
    def resilience(self) -> ResilienceConfig:
        """The retry/deadline/recovery policy bundle in force."""
        return self._resilience

    @property
    def coverage(self) -> float:
        """Fraction of all routed rows the merged summary covers.

        ``1.0`` until a shard is lost to recovery exhaustion under
        ``on_exhausted: degrade``; afterwards the row-weighted fraction
        the surviving shards actually ingested.  Query services built by
        :meth:`query_service` annotate their answers with this.
        """
        total = self._rows_covered + self._rows_lost
        return 1.0 if total == 0 else self._rows_covered / total

    @property
    def shards(self) -> list[Shard]:
        """The shards of the most recent :meth:`ingest` call."""
        return list(self._shards)

    @property
    def merged_estimator(self) -> ProjectedFrequencyEstimator:
        """The merged summary of every stream ingested so far."""
        if self._merged is None:
            raise EstimationError("nothing ingested yet; call ingest() first")
        return self._merged

    # -- ingest ------------------------------------------------------------------

    def ingest(self, stream: RowStream) -> IngestReport:
        """Partition ``stream``, ingest the shards, and merge the summaries.

        Repeated calls accumulate: each batch's merged summary is folded
        into the summary of all earlier batches, so the engine can ingest an
        unbounded sequence of stream segments.

        Every backend dispatches rows to shards in a single pass with
        ``O(summary + block)`` memory, honouring the streaming model.
        """
        started = time.perf_counter()
        shards = [Shard(index, self._factory()) for index in range(self.n_shards)]
        # Anything that will need a merge later — multiple replicas now, or
        # folding this batch into previously ingested ones — must be
        # mergeable, and saying so before ingesting beats failing after.
        if (self.n_shards > 1 or self._merged is not None) and (
            not shards[0].estimator.is_mergeable
        ):
            raise EstimationError(
                f"{type(shards[0].estimator).__name__} is not mergeable; it "
                "cannot be sharded or ingested incrementally"
            )
        with telemetry.span(
            "coordinator.ingest",
            backend=self._backend,
            policy=self._partitioner.policy,
            n_shards=self.n_shards,
        ) as ingest_span:
            bytes_shipped: tuple[int, ...] = tuple(0 for _ in shards)
            resilience_info = {
                "shards_lost": (), "rows_dropped": 0,
                "retries": 0, "recoveries": 0,
            }
            if self._backend != "serial" and self.n_shards > 1:
                bytes_shipped, resilience_info = self._ingest_transport(
                    shards, stream
                )
            elif self._batch_size is not None:
                self._route_blocks(
                    stream,
                    self._batch_size,
                    lambda shard_index, rows: shards[shard_index].ingest_block(rows),
                )
            else:
                for index, row in enumerate(stream):
                    shards[self._partitioner.assign(index, row)].ingest_row(row)
            with telemetry.span("coordinator.merge", n_shards=self.n_shards):
                merge_started = time.perf_counter()
                merged = shards[0].snapshot()
                for shard in shards[1:]:
                    merged.merge(shard.estimator)
                if self._merged is not None:
                    self._merged.merge(merged)
                else:
                    self._merged = merged
                merge_seconds = time.perf_counter() - merge_started
            self._shards = shards
            rows_per_shard = tuple(shard.rows_ingested for shard in shards)
            rows_total = sum(rows_per_shard)
            rows_dropped = int(resilience_info["rows_dropped"])
            rows_routed = rows_total + rows_dropped
            self._rows_covered += rows_total
            self._rows_lost += rows_dropped
            ingest_span.set(rows=rows_total)
            report = IngestReport(
                n_shards=self.n_shards,
                backend=self._backend,
                policy=self._partitioner.policy,
                rows_total=rows_total,
                rows_per_shard=rows_per_shard,
                wall_seconds=time.perf_counter() - started,
                shard_seconds=tuple(shard.ingest_seconds for shard in shards),
                merge_seconds=merge_seconds,
                bytes_shipped_per_shard=bytes_shipped,
                shards_lost=tuple(resilience_info["shards_lost"]),
                rows_dropped=rows_dropped,
                coverage=(
                    1.0 if rows_routed == 0 else rows_total / rows_routed
                ),
                retries=int(resilience_info["retries"]),
                recoveries=int(resilience_info["recoveries"]),
            )
        if telemetry.enabled():
            self._record_ingest_metrics(report)
        return report

    def _record_ingest_metrics(self, report: IngestReport) -> None:
        """Account one finished ingest in the process-global registry.

        Counters for rows/merges, histograms for wall/merge/per-shard
        seconds, and the partition-skew gauge (max over mean rows per
        shard — 1.0 is perfectly balanced) the ROADMAP's scale-out work
        will watch.  One call per ingest, so the cost is independent of
        the stream length.
        """
        registry = telemetry.get_registry()
        registry.counter(
            "repro_ingest_rows_total", "rows routed through Coordinator.ingest"
        ).inc(report.rows_total, backend=report.backend, policy=report.policy)
        registry.histogram(
            "repro_ingest_seconds", "wall seconds per Coordinator.ingest call"
        ).observe(report.wall_seconds, backend=report.backend)
        registry.counter(
            "repro_merge_total", "per-shard summary merges folded by ingest"
        ).inc(max(0, report.n_shards - 1))
        registry.histogram(
            "repro_merge_seconds", "wall seconds merging shard summaries"
        ).observe(report.merge_seconds)
        shard_histogram = registry.histogram(
            "repro_shard_ingest_seconds", "wall seconds of shard ingest work"
        )
        for shard_index, seconds in enumerate(report.shard_seconds):
            shard_histogram.observe(seconds, shard=str(shard_index))
        if report.rows_total:
            mean_rows = report.rows_total / report.n_shards
            registry.gauge(
                "repro_partition_skew_ratio",
                "max/mean rows per shard of the last ingest (1.0 = balanced)",
            ).set(max(report.rows_per_shard) / mean_rows, policy=report.policy)
        if self._merged is not None:
            registry.gauge(
                "repro_summary_size_bits",
                "structural size of the merged summary",
            ).set(
                self._merged.size_in_bits(),
                estimator=type(self._merged).__name__,
            )

    def _route_blocks(
        self,
        stream: RowStream,
        block_rows: int,
        sink: Callable[[int, np.ndarray], object],
    ) -> None:
        """The one block-routing loop behind every batched ingest.

        Walks ``stream`` once in ``block_rows``-row blocks, assigns each
        block with one vectorized call, and hands every shard's non-empty
        sub-block to ``sink(shard_index, rows)`` — a shard's
        ``ingest_block`` in-process, or a worker pool's ``send_block`` on
        the transport backends.  Sharing the loop is what makes transport
        ingest replay the serial backend's ``observe_rows`` sequence.
        """
        for start, block in stream.iter_batches(block_rows):
            assignment = self._partitioner.assign_block(start, block)
            for shard_index in range(self.n_shards):
                rows = block[assignment == shard_index]
                if rows.shape[0]:
                    sink(shard_index, rows)

    def _ingest_transport(
        self, shards: list[Shard], stream: RowStream
    ) -> tuple[tuple[int, ...], dict]:
        """Stream row blocks to resident or remote shard workers.

        The stream is routed in
        :data:`~repro.engine.transport.DEFAULT_TRANSPORT_BLOCK_ROWS` blocks
        (or ``batch_size`` blocks when set), each shard's per-batch
        sub-block travelling as its own ``ingest_block`` frame.  Snapshot
        bytes cross the boundary only once, at the collect barrier, and the
        shards adopt the estimators decoded from them.  Returns the
        per-shard bytes shipped and this ingest's resilience accounting.
        """
        block_rows = self._batch_size or DEFAULT_TRANSPORT_BLOCK_ROWS
        started = time.perf_counter()
        # Supervisor counters accumulate over the (persistent) pool's
        # lifetime; snapshot them up front so the report carries this
        # ingest's deltas.  A pool built fresh below starts from zero.
        existing_pool = self._resident_pool or self._socket_pool
        base_retries = existing_pool.supervisor.retries if existing_pool else 0
        base_recoveries = (
            existing_pool.supervisor.recoveries if existing_pool else 0
        )
        with telemetry.span(
            "transport.roundtrip",
            backend=self._backend,
            n_shards=self.n_shards,
        ) as roundtrip_span:
            try:
                pool = self._transport_pool(shards)
                self._route_blocks(stream, block_rows, pool.send_block)
                results = pool.collect()
            except EstimationError:
                # The pool closed itself on the way out; drop our handle so
                # the next ingest() spawns or reconnects a healthy one.
                self._resident_pool = None
                self._socket_pool = None
                raise
            except (TransportError, ConnectionError, OSError) as error:
                self.close()
                raise EstimationError(
                    f"transport failure under the '{self._backend}' backend "
                    f"({type(error).__name__}: {error}); workers were shut "
                    "down and will be re-established on the next ingest() call"
                ) from error
            registry = telemetry.get_registry()
            bytes_shipped = []
            bytes_out = bytes_in = blocks = 0
            rows_dropped = 0
            for shard, result in zip(shards, results):
                if result.get("lost"):
                    # Recovery exhausted, policy says degrade: the shard
                    # keeps its fresh (empty) replica, so the merge below
                    # folds in an identity and only survivors contribute.
                    rows_dropped += int(result.get("rows_dropped", 0))
                else:
                    estimator = persistence.from_bytes(
                        bytes(result["payload"])
                    )
                    if not isinstance(estimator, ProjectedFrequencyEstimator):
                        raise EstimationError(
                            "worker returned a non-estimator payload of type "
                            f"{type(estimator).__name__}"
                        )
                    shard.adopt(estimator, result["rows"], result["seconds"])
                    if result["metrics"] is not None and telemetry.enabled():
                        registry.merge_state(result["metrics"])
                bytes_shipped.append(
                    int(result["bytes_sent"]) + int(result["bytes_received"])
                )
                bytes_out += int(result["bytes_sent"])
                bytes_in += int(result["bytes_received"])
                blocks += int(result["blocks"])
            roundtrip_span.set(
                bytes_sent=bytes_out, bytes_received=bytes_in, blocks=blocks
            )
        if telemetry.enabled():
            self._record_transport_metrics(
                bytes_out, bytes_in, blocks, time.perf_counter() - started
            )
        resilience_info = {
            "shards_lost": pool.supervisor.lost_shards,
            "rows_dropped": rows_dropped,
            "retries": pool.supervisor.retries - base_retries,
            "recoveries": pool.supervisor.recoveries - base_recoveries,
        }
        return tuple(bytes_shipped), resilience_info

    def _transport_pool(self, shards: list[Shard]):
        """The live worker pool for this backend, spawning/connecting lazily.

        Pools persist across ``ingest()`` calls — that amortised spawn is
        the point of the resident backend — and are (re)built here from the
        current shards' pristine snapshot bytes when absent, including
        after a worker death tore the previous pool down.  An estimator
        that cannot produce those bytes (no snapshot hooks, or a nested
        component without a registered codec) is refused before any worker
        is forked or connected.
        """
        pool = self._resident_pool or self._socket_pool
        if pool is not None:
            return pool
        addresses = self._worker_addresses
        if self._backend == "sockets" and not addresses:
            raise InvalidParameterError(
                "backend 'sockets' needs worker_addresses (one 'host:port' "
                "per shard); start workers with `python -m repro worker`"
            )
        if self._backend == "sockets" and len(addresses) != self.n_shards:
            raise InvalidParameterError(
                f"backend 'sockets' needs one worker address per shard: got "
                f"{len(addresses)} address(es) for {self.n_shards} shard(s)"
            )
        refusal = (
            f"{type(shards[0].estimator).__name__} is not snapshottable; the "
            f"'{self._backend}' backend ships estimator snapshot bytes only "
            "(see repro.engine.transport)"
        )
        if not shards[0].estimator.is_snapshottable:
            raise EstimationError(refusal)
        try:
            basis = [shard.estimator.to_bytes() for shard in shards]
        except SnapshotError as error:
            raise EstimationError(refusal) from error
        if self._backend == "resident":
            self._resident_pool = ResidentWorkerPool(
                basis, resilience=self._resilience
            )
            return self._resident_pool
        self._socket_pool = SocketWorkerPool(
            addresses, basis, resilience=self._resilience
        )
        return self._socket_pool

    def _record_transport_metrics(
        self, bytes_out: int, bytes_in: int, blocks: int, seconds: float
    ) -> None:
        """Account one transport exchange in the process-global registry."""
        registry = telemetry.get_registry()
        byte_counter = registry.counter(
            "repro_transport_bytes_total",
            "bytes crossing the coordinator/worker transport boundary",
        )
        byte_counter.inc(bytes_out, backend=self._backend, direction="to_worker")
        byte_counter.inc(
            bytes_in, backend=self._backend, direction="to_coordinator"
        )
        registry.counter(
            "repro_transport_blocks_total",
            "row blocks shipped to shard workers",
        ).inc(blocks, backend=self._backend)
        registry.histogram(
            "repro_transport_roundtrip_seconds",
            "wall seconds of one transport exchange (blocks out, snapshots back)",
        ).observe(seconds, backend=self._backend)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down resident workers and socket connections, if any.

        Idempotent and safe on every backend; the serial backend holds no
        persistent resources.  A closed
        coordinator remains fully usable — the next :meth:`ingest` call
        simply spawns or reconnects a fresh worker pool.
        """
        if self._resident_pool is not None:
            self._resident_pool.close()
            self._resident_pool = None
        if self._socket_pool is not None:
            self._socket_pool.close()
            self._socket_pool = None

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- persistence -------------------------------------------------------------

    def save_checkpoint(self, path: str | Path) -> "checkpoint_io.CheckpointInfo":
        """Persist shards + merged summary + config manifest to ``path``.

        The file is a ``repro/engine-checkpoint@1`` payload (see
        :mod:`repro.engine.checkpoint`); a query tier restores it with
        :meth:`load_checkpoint` or
        :meth:`~repro.engine.service.QueryService.from_checkpoint` in any
        later process without re-ingesting the stream.
        """
        return checkpoint_io.save_checkpoint(self, path)

    @classmethod
    def load_checkpoint(
        cls, path: str | Path, estimator_factory: Callable[
            [], ProjectedFrequencyEstimator
        ] | None = None,
    ) -> "Coordinator":
        """Rebuild a coordinator (shards, merged summary, config) from ``path``.

        ``estimator_factory`` is only required to ingest *more* data after
        restoring — serving queries from the restored merged summary needs
        nothing beyond the file.
        """
        return checkpoint_io.load_checkpoint(path, estimator_factory)

    # -- serving -----------------------------------------------------------------

    def query_service(self, cache_size: int = 1024) -> QueryService:
        """A query-serving front end over the merged summary.

        Carries the coordinator's current :attr:`coverage`, so a summary
        degraded by lost shards serves coverage-annotated answers instead
        of silently under-counting.
        """
        return QueryService(
            self.merged_estimator,
            cache_size=cache_size,
            coverage=self.coverage,
        )
