"""The resident worker pool: spawn once, ingest many, snapshot on demand.

A worker pool built per ``Coordinator.ingest`` call would pay a fresh
spawn and a snapshot round trip *in both directions* on every call.  A
:class:`ResidentWorkerPool` amortises both: one worker
per shard is forked once per coordinator lifetime on a
:func:`socket.socketpair`, loads its shard's estimator once from pristine
snapshot bytes, and serves its end of the pair with the same
per-connection handler as a remote ``python -m repro worker``
(:func:`~repro.engine.transport.sockets.serve_connection`).  Snapshot bytes
travel back only when the coordinator asks for a merge, after which the
worker resets itself to the cached pristine payload, so each ingest call
still starts from a fresh replica exactly like the serial backend.

Everything else — ack-paced inline block shipping, deadlines, recovery by
re-dialling and replaying, degradation and the error messages — is the
:class:`~repro.engine.transport.sockets.SocketWorkerPool`'s.  Here
re-dialling a shard means reaping its worker and forking a fresh one.
"""

from __future__ import annotations

import socket

from ..resilience import ResilienceConfig
from .sockets import (
    SocketShardClient,
    SocketWorkerPool,
    fork_context,
    serve_connection,
)

__all__ = ["ResidentWorkerPool"]


def _local_worker_main(sock: socket.socket, parent_end: socket.socket) -> None:
    """Child entry: drop the coordinator's end, serve ours until EOF."""
    parent_end.close()
    serve_connection(sock)


def _reap(process, grace: float) -> None:
    """Give a worker ``grace`` seconds to exit, then kill it."""
    process.join(timeout=grace)
    if process.is_alive():
        process.kill()
        process.join(timeout=1.0)


class ResidentWorkerPool(SocketWorkerPool):
    """One forked local worker process per shard.

    Parameters
    ----------
    pristine_payloads:
        One persistence snapshot payload per shard — the fresh replica each
        worker is loaded with once, and resets itself to after every
        snapshot.
    resilience:
        The :class:`~repro.engine.resilience.ResilienceConfig` governing
        deadlines and recovery; defaults to the standard policy
        (``respawn`` with bounded recoveries).
    """

    backend_name = "resident"

    def __init__(
        self,
        pristine_payloads: list[bytes],
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self._processes: list = []
        self._unclaimed: list = []
        self._open(pristine_payloads, resilience)

    @property
    def processes(self) -> list:
        """The live worker processes (fault-injection tests kill these)."""
        return list(self._processes)

    def _fork(self, shard_index: int) -> socket.socket:
        """Start shard ``shard_index``'s worker; returns our end of its pair."""
        parent_end, child_end = socket.socketpair()
        process = fork_context().Process(
            target=_local_worker_main,
            args=(child_end, parent_end),
            daemon=True,
            name=f"repro-shard-{shard_index}",
        )
        process.start()
        child_end.close()
        self._processes[shard_index:shard_index + 1] = [process]  # or append
        return parent_end

    def _dial(self, shard_index: int) -> SocketShardClient:
        """Claim the shard's pre-forked worker, or reap its old one and fork anew."""
        if not self._processes:
            # Fork every worker before the first handshake, so that their
            # start-up overlaps instead of adding up.
            for index in range(len(self.supervisor.shards)):
                self._unclaimed.append(self._fork(index))
        sock = self._unclaimed[shard_index]
        self._unclaimed[shard_index] = None
        if sock is None:
            _reap(self._processes[shard_index], grace=0.0)
            sock = self._fork(shard_index)
        label = f"pid {self._processes[shard_index].pid}"
        return self._client(shard_index, label, sock=sock)

    def close(self) -> None:
        """Close every worker's socket and reap its process; idempotent."""
        if self._closed:
            return
        super().close()
        for process, sock in zip(self._processes, self._unclaimed):
            if sock is not None:
                # Forked but never dialled: nothing will ever tell it to stop.
                sock.close()
                process.kill()
            _reap(process, grace=1.0)
