"""Correctness and lifecycle checks run by the same command.

* Every answer with a stated bound is compared with the exact answer on
  the rows ingested so far; the share outside the bound must not exceed
  the bound's failure probability δ.
* The exact answers come from :class:`ExactOracle`, which counts rows by
  code (``2^10`` codes here), so checking stays cheap and memory stays flat
  as rows pile up.  In set-up it must agree with an ``ExactBaseline`` of
  the warm-up rows on every queried column subset.
* Resident ingest must produce a summary byte-identical to a serial
  ingest of the same prefix at the same blocking.
* After ``Coordinator.close()`` no worker process and no new shared-memory
  segment may remain.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from multiprocessing import resource_tracker
from dataclasses import dataclass, field

import numpy as np

from repro.core.alpha_net import AlphaNetEstimator

from . import workloads as wl

SHM_DIR = "/dev/shm"
#: Name prefix ``multiprocessing.shared_memory`` gives the segments it creates.
SHM_PREFIX = "psm_"


class ExactOracle:
    """Exact projected frequencies of every row added so far."""

    def __init__(self, n_columns: int, alphabet_size: int = 2) -> None:
        self._words = np.array(
            list(itertools.product(range(alphabet_size), repeat=n_columns)),
            dtype=np.int64,
        )
        self._weights = alphabet_size ** np.arange(n_columns - 1, -1, -1, dtype=np.int64)
        self._counts = np.zeros(self._words.shape[0], dtype=np.int64)
        self._cache: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    @property
    def rows(self) -> int:
        """Rows added so far."""
        return int(self._counts.sum())

    def add(self, rows: np.ndarray) -> None:
        """Count a segment of rows."""
        codes = np.asarray(rows, dtype=np.int64) @ self._weights
        self._counts += np.bincount(codes, minlength=self._counts.shape[0])
        self._cache.clear()

    def frequencies(self, columns: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Pattern -> exact count of the projection onto ``columns``."""
        cached = self._cache.get(columns)
        if cached is None:
            present = self._counts > 0
            projected = self._words[present][:, list(columns)]
            unique, inverse = np.unique(projected, axis=0, return_inverse=True)
            sums = np.bincount(inverse.ravel(), weights=self._counts[present])
            cached = {
                tuple(pattern): int(count)
                for pattern, count in zip(unique.tolist(), sums.tolist())
            }
            self._cache[columns] = cached
        return cached


@dataclass
class BoundFamily:
    """Answers checked against one stated bound with failure probability δ."""

    delta: float
    checked: int = 0
    violations: int = 0

    @property
    def share(self) -> float:
        """Share of checked answers outside the bound."""
        return self.violations / self.checked if self.checked else 0.0


@dataclass
class AnswerChecks:
    """Per-bound accounting of served answers, plus those with no bound."""

    families: dict[str, BoundFamily] = field(default_factory=dict)
    unchecked: int = 0
    #: α-net F_0 answers outside ``AlphaNetEstimator.guarantee()``'s factor
    #: (reported, not gated; see :meth:`_check_alpha_net`).
    beyond_stated_guarantee: int = 0

    def record(self, family: str, delta: float, ok: bool) -> None:
        """Count one checked answer."""
        entry = self.families.setdefault(family, BoundFamily(delta))
        entry.checked += 1
        entry.violations += 0 if ok else 1

    def failures(self) -> list[str]:
        """Families whose violation share exceeds their δ."""
        return [
            f"{name}: {entry.violations}/{entry.checked} answers outside the "
            f"bound, more than delta={entry.delta}"
            for name, entry in sorted(self.families.items())
            if entry.share > entry.delta
        ]

    def check(self, estimator, request, answer, oracle: ExactOracle) -> None:
        """Compare one answer with the exact value under the paper's bound."""
        frequencies = oracle.frequencies(request.query.columns)
        n = oracle.rows
        if isinstance(estimator, AlphaNetEstimator):
            self._check_alpha_net(estimator, request, answer, frequencies, n)
        else:
            self._check_uniform_sample(estimator, request, answer, frequencies, n)

    def _check_alpha_net(self, estimator, request, answer, frequencies, n) -> None:
        if request.kind == "fp":
            # Theorem 6.5: the KMV estimate (beta = 1 / (1 - epsilon)) on the
            # rounded neighbour C' is within beta * Q^|C xor C'| of F_0(C)
            # (Lemma 6.4).  guarantee() prices the distance at alpha * d, but
            # at d=10, alpha=0.25 the net rounds mid-band queries by up to
            # ceil(alpha * d) = 3 columns, so its factor is tracked apart
            # from the gate.
            beta = 1.0 / (1.0 - wl.KMV_EPSILON)
            distance = estimator.net.rounding_cost(request.query, estimator.neighbour_rule)
            factor = beta * estimator.alphabet_size ** distance
            stated = estimator.guarantee(0, beta).approximation_factor
            exact = len(frequencies)
            self.record("thm6.5.f0", wl.KMV_DELTA, exact / factor <= answer <= exact * factor)
            self.beyond_stated_guarantee += not exact / stated <= answer <= exact * stated
        elif estimator.net.contains(request.query):
            # In-net point queries: the Count-Min guarantee
            # f <= f_hat <= f + (e / width) * n.
            width = math.ceil(math.e / wl.CM_EPSILON)
            exact = frequencies.get(tuple(request.pattern), 0)
            self.record(
                "countmin.in_net", wl.CM_DELTA,
                exact <= answer <= exact + math.e / width * n,
            )
        else:
            self.unchecked += 1

    def _check_uniform_sample(self, estimator, request, answer, frequencies, n) -> None:
        slack = estimator.additive_error_bound()
        if request.kind == "fp":
            # Not covered by Theorem 5.1; the distinct sampled patterns can
            # never exceed the true distinct count.
            self.record("sample.f0_lower_bound", 0.0, answer <= len(frequencies))
        elif request.kind == "frequency":
            exact = frequencies.get(tuple(request.pattern), 0)
            self.record("thm5.1.frequency", wl.SAMPLE_DELTA, abs(answer - exact) <= slack)
        else:
            threshold = request.phi * n
            reported_ok = all(
                frequencies.get(pattern, 0) >= threshold - slack
                and abs(estimate - frequencies.get(pattern, 0)) <= slack
                for pattern, estimate in answer.items()
            )
            recall_ok = all(
                pattern in answer
                for pattern, count in frequencies.items()
                if count >= threshold + slack
            )
            self.record("thm5.1.heavy_hitters", wl.SAMPLE_DELTA, reported_ok and recall_ok)


def oracle_matches_baseline(oracle: ExactOracle, baseline, columns) -> list[str]:
    """Problems where the oracle and ``ExactBaseline`` disagree."""
    problems = []
    if oracle.rows != baseline.rows_observed:
        problems.append(
            f"oracle holds {oracle.rows} rows, ExactBaseline {baseline.rows_observed}"
        )
    for query in columns:
        exact = dict(baseline.frequencies(query).counts)
        if oracle.frequencies(query.columns) != exact:
            problems.append(f"oracle disagrees with ExactBaseline on columns {query.columns}")
    return problems


def shm_segments() -> set[str]:
    """Shared-memory segments currently present."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


@dataclass(frozen=True)
class Lifecycle:
    """What survived ``Coordinator.close()``."""

    leaked_workers: int
    leaked_shm: int


def audit_lifecycle(shm_before: set[str]) -> Lifecycle:
    """Count live worker processes and new shared-memory segments."""
    alive = [child for child in multiprocessing.active_children() if child.is_alive()]
    return Lifecycle(len(alive), len(shm_segments() - shm_before))


def stop_resource_tracker() -> None:
    """Stop the tracker process shared memory starts, and wait until it ends.

    Otherwise it outlives the benchmark by the moment it takes to notice
    that its parent has exited.
    """
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
