"""One closed-loop pass over a workload: set-up, then rounds of ingest and serve.

A single caller drives the program and waits for every reply before it
sends the next call, so a slower program simply completes fewer calls in
the same time.  Only the calls into the program are timed; the
benchmark's own bookkeeping (feeding the exact oracle, checking answers,
taking the prefix snapshot, probing the host's speed) runs with the phase
clock paused.  Each timed call is kept as ``(start, seconds)`` so that it
can be rescaled by the host-speed probes on either side of it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import ExactBaseline
from repro.engine.resilience.degrade import DegradedAnswer

from . import workloads as wl
from .checks import AnswerChecks, ExactOracle, oracle_matches_baseline
from .hostspeed import HostSpeed

#: ``stop(elapsed_seconds, calls_done) -> bool`` ends a phase.
Stop = Callable[[float, int], bool]

#: Cheap set-ups repeat until ``setup_seconds`` have passed, up to this many.
MAX_SETUP_REPS = 50


class Stopwatch:
    """Wall clock of one phase, minus the intervals spent paused."""

    def __init__(self) -> None:
        self._started = time.perf_counter()
        self._paused_total = 0.0

    @property
    def elapsed(self) -> float:
        """Seconds since start, excluding paused intervals."""
        return time.perf_counter() - self._started - self._paused_total

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Exclude the block from :attr:`elapsed`."""
        began = time.perf_counter()
        try:
            yield
        finally:
            self._paused_total += time.perf_counter() - began


@dataclass
class PassResult:
    """What one pass measured, plus the state the checks need."""

    #: ``(start, seconds)`` of every set-up, ingest call and query batch.
    setups: list[tuple[float, float]] = field(default_factory=list)
    ingest_calls: list[tuple[float, float]] = field(default_factory=list)
    ingest_rows: int = 0
    ingest_wall: float = 0.0
    batch_calls: list[tuple[float, float]] = field(default_factory=list)
    requests: int = 0
    serve_wall: float = 0.0
    #: The ``IngestReport`` of every ingest and write after set-up.
    reports: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cache_info: object = None
    summary_bytes: int = 0
    #: Merged summary bytes right after the first ``prefix_segments`` ingests.
    prefix_bytes: bytes | None = None
    answers: AnswerChecks = field(default_factory=AnswerChecks)
    oracle: ExactOracle | None = None
    #: Where the oracle disagreed with ``ExactBaseline`` on the warm-up rows.
    oracle_problems: list[str] = field(default_factory=list)
    merged_rows: int = 0
    #: Ingest segments and query batches sent so far, across rounds.
    segments_sent: int = 0
    batches_sent: int = 0
    #: The host-speed probes of the pass, when it takes them.
    speed: HostSpeed | None = None


def run_pass(
    workload: wl.Workload,
    inputs: wl.Inputs,
    factory,
    *,
    setup_reps: int,
    setup_seconds: float = 0.0,
    rounds: int,
    ingest_stop: Stop,
    serve_stop: Stop,
    prefix_segments: int = 0,
    quiet=nullcontext,
    speed: HostSpeed | None = None,
) -> PassResult:
    """Set up at least ``setup_reps`` times and for ``setup_seconds``, then
    run ``rounds`` ingest and serve phases.

    The phases alternate so that each one samples the host across the whole
    pass; ``ingest_stop`` and ``serve_stop`` end one phase of one round.
    ``quiet`` is entered around the benchmark's own work so a tracer can
    leave it out.  Every set-up but the last is closed straight away; the
    last coordinator serves the phases and is closed before returning.
    Given ``speed``, the pass probes the host around every set-up and
    through the phases (:mod:`perfbench.hostspeed`).
    """
    result = PassResult(speed=speed)
    while True:
        _probe(result, each_core=True)
        started = time.perf_counter()
        coordinator = wl.make_coordinator(workload, factory)
        try:
            coordinator.ingest(inputs.stream(inputs.segments[0]))
        except BaseException:
            coordinator.close()
            raise
        result.setups.append((started, time.perf_counter() - started))
        done = len(result.setups)
        if done >= setup_reps and (
            sum(seconds for _, seconds in result.setups) >= setup_seconds
            or done >= MAX_SETUP_REPS
        ):
            break
        coordinator.close()
    _probe(result, each_core=True)
    try:
        with quiet():
            result.oracle = ExactOracle(wl.N_COLUMNS)
            result.oracle.add(inputs.segments[0])
            baseline = ExactBaseline(wl.N_COLUMNS).observe_rows(inputs.segments[0])
            result.oracle_problems = oracle_matches_baseline(
                result.oracle, baseline, inputs.columns
            )
        service = coordinator.query_service()
        for _ in range(rounds):
            _ingest_phase(coordinator, inputs, result, ingest_stop, prefix_segments, quiet)
            _serve_phase(workload, coordinator, service, inputs, result, serve_stop, quiet)
        result.cache_info = service.cache_info()
        with quiet():
            merged = coordinator.merged_estimator
            result.summary_bytes = len(merged.to_bytes())
            result.merged_rows = merged.rows_observed
    finally:
        coordinator.close()
    return result


def _probe(result: PassResult, *, due_only: bool = False, each_core: bool = False) -> None:
    if result.speed is not None:
        if due_only:
            result.speed.sample_if_due(each_core)
        else:
            result.speed.sample(each_core)


def _ingest(coordinator, rows, result: PassResult) -> tuple[float, float] | None:
    """One timed ``Coordinator.ingest`` call as ``(start, seconds)``;
    ``None`` if it raised."""
    result.attempted += 1
    started = time.perf_counter()
    try:
        report = coordinator.ingest(wl.Inputs.stream(rows))
    except Exception:
        result.failed += 1
        return None
    elapsed = time.perf_counter() - started
    result.reports.append(report)
    if report.coverage < 1.0:
        result.failed += 1
    return started, elapsed


def _ingest_phase(coordinator, inputs, result, stop, prefix_segments, quiet) -> None:
    cycle = inputs.segments[1:]
    clock = Stopwatch()
    calls = 0
    while not stop(clock.elapsed, calls):
        with clock.paused(), quiet():
            _probe(result, due_only=True, each_core=True)
        rows = cycle[result.segments_sent % len(cycle)]
        call = _ingest(coordinator, rows, result)
        calls += 1
        result.segments_sent += 1
        with clock.paused(), quiet():
            if call is not None:
                result.ingest_calls.append(call)
                result.ingest_rows += rows.shape[0]
                result.oracle.add(rows)
            if result.segments_sent == prefix_segments:
                result.prefix_bytes = coordinator.merged_estimator.to_bytes()
    result.ingest_wall += clock.elapsed
    # Close the phase with a probe, so its last call has one on either side.
    with quiet():
        _probe(result, each_core=True)


def _serve_phase(workload, coordinator, service, inputs, result, stop, quiet) -> None:
    clock = Stopwatch()
    calls = 0
    while not stop(clock.elapsed, calls):
        index = result.batches_sent
        if index and index % workload.write_every == 0:
            rows = inputs.writes[(index // workload.write_every) % len(inputs.writes)]
            if _ingest(coordinator, rows, result) is not None:
                with clock.paused(), quiet():
                    result.oracle.add(rows)
        with clock.paused(), quiet():
            _probe(result, due_only=True)
        batch = inputs.batches[index % len(inputs.batches)]
        calls += 1
        result.batches_sent += 1
        result.attempted += len(batch)
        started = time.perf_counter()
        try:
            answers = service.answer_block(batch)
        except Exception:
            result.failed += len(batch)
            continue
        elapsed = time.perf_counter() - started
        with clock.paused(), quiet():
            result.batch_calls.append((started, elapsed))
            result.requests += len(batch)
            estimator = coordinator.merged_estimator
            for request, answer in zip(batch, answers):
                if isinstance(answer, DegradedAnswer):
                    result.failed += 1
                else:
                    result.answers.check(estimator, request, answer, result.oracle)
    result.serve_wall += clock.elapsed
    with quiet():
        _probe(result)
