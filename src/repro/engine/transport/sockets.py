"""The shard protocol over sockets: one worker pool for local and remote shards.

A :class:`ShardServer` (``python -m repro worker``) is an :mod:`asyncio`
TCP server that answers framed ``repro/transport@1`` messages with a
resident :class:`~repro.engine.transport.worker.ShardWorkerState` per
connection; :func:`serve_connection` runs the same per-connection handler
on one already-connected socket (how a forked local worker serves its end
of a socket pair).  A :class:`SocketShardClient` is the coordinator-side
peer that drives one shard.  On the wire each frame gains an outer
``u32`` length prefix and row blocks travel inline as ndarray bytes,
each acked by the worker with at most :data:`MAX_UNACKED_BLOCKS` in
flight per shard.  Workers return persistence snapshot bytes for merging,
never pickled objects.

:class:`SocketWorkerPool` keeps one client per shard and owns failure
handling: connects go through the
:class:`~repro.engine.resilience.RetryPolicy`-bounded
:func:`~repro.engine.resilience.connect_with_retry`, every send and
receive carries a :class:`~repro.engine.resilience.DeadlinePolicy` socket
timeout, and a dead connection, a missing ack or a breached deadline is
recovered by re-dialling — the same address under ``respawn`` recovery,
or a *surviving* worker address under ``reassign`` (each server
connection owns an isolated ``ShardWorkerState``, so one server can host
several shards) — then reloading the shard's basis snapshot and replaying
its unacked blocks, keeping recovered ingest bit-identical to serial.
The resident backend (:mod:`repro.engine.transport.resident`) is this
pool with a ``_dial`` that forks a local worker instead of connecting.

:func:`spawn_local_servers` forks loopback servers on ephemeral ports —
the harness behind the socket-loopback differential tests and the
``bench_transport`` benchmark arm.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import struct

import numpy as np

from ...errors import EstimationError, TransportError
from ..resilience import ResilienceConfig, WorkerSupervisor
from ..resilience.supervisor import (
    CLIENT_FEATURES,
    connect_with_retry,
    recv_bytes_with_deadline,
)
from .frames import (
    apply_send_faults,
    decode_frame,
    encode_frame,
    frame_length_prefix,
    split_length_prefix,
)
from .worker import ShardWorkerState

__all__ = [
    "DEFAULT_TRANSPORT_BLOCK_ROWS",
    "MAX_UNACKED_BLOCKS",
    "ShardServer",
    "SocketShardClient",
    "SocketWorkerPool",
    "parse_address",
    "run_worker",
    "serve_connection",
    "spawn_local_servers",
]

#: Transport block size used when the coordinator has no ``batch_size``.
DEFAULT_TRANSPORT_BLOCK_ROWS = 4096

#: Blocks a client may have in flight to one worker before it waits for
#: the oldest ``block_ack``.
MAX_UNACKED_BLOCKS = 2

#: Failures that mean "this shard's worker (or its link) is gone".
_CLIENT_ERRORS = (TransportError, ConnectionError, EOFError, OSError)


class _WorkerReportedError(TransportError):
    """The worker answered an ``error`` frame: the estimator itself failed.

    Distinguished from link failures because replaying the same rows into
    a fresh worker would fail identically — the supervisor must not burn
    recoveries on it.
    """


def parse_address(address) -> tuple[str, int]:
    """Normalise ``"host:port"`` strings or ``(host, port)`` pairs."""
    if isinstance(address, str):
        host, separator, port_text = address.rpartition(":")
        if not separator or not host:
            raise TransportError(
                f"worker address {address!r} is not of the form host:port"
            )
        try:
            return host, int(port_text)
        except ValueError:
            raise TransportError(
                f"worker address {address!r} has a non-numeric port"
            )
    host, port = address
    return str(host), int(port)


# -- server ----------------------------------------------------------------------


class ShardServer:
    """An asyncio TCP shard server speaking ``repro/transport@1``.

    Each connection gets its own :class:`ShardWorkerState`, so one server
    process serves one shard per connection — a coordinator normally opens
    one per shard, and shard *reassignment* after a worker loss may point
    a second connection at a surviving server.  A ``shutdown`` frame with
    ``scope="server"`` stops the whole server — how CI tears its loopback
    workers down.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._stop: asyncio.Event | None = None
        self._bound_port: int | None = None

    @property
    def port(self) -> int | None:
        """The actual bound port (useful when constructed with port 0)."""
        return self._bound_port

    async def _handle_connection(self, reader, writer) -> None:
        state = ShardWorkerState()
        try:
            while True:
                try:
                    prefix = await reader.readexactly(4)
                    frame = await reader.readexactly(split_length_prefix(prefix))
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                try:
                    header, payload = decode_frame(frame)
                except TransportError:
                    # A corrupted frame leaves this connection's stream
                    # position unknowable; drop the connection and let the
                    # client-side supervisor reconnect and replay.
                    break
                try:
                    reply = state.handle(header, payload)
                except TransportError:
                    # Protocol-integrity failures (truncated payloads,
                    # messages out of order) are connection-fatal: the
                    # client-side supervisor reconnects and replays.
                    break
                if reply is not None:
                    out = encode_frame(reply[0], reply[1])
                    writer.write(frame_length_prefix(out) + out)
                    try:
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        break  # the client hung up; it will re-dial
                if header.get("type") == "shutdown":
                    if header.get("scope") == "server" and self._stop is not None:
                        self._stop.set()
                    break
        finally:
            state.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def serve(self, on_ready=None) -> None:
        """Bind, serve until a server-scoped shutdown frame arrives.

        ``on_ready(port)`` is called once the socket is bound — how forked
        loopback servers report their ephemeral port to the parent.
        """
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._bound_port = server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready(self._bound_port)
        async with server:
            await self._stop.wait()


def run_worker(host: str = "127.0.0.1", port: int = 0, on_ready=None) -> None:
    """Run one shard server until shut down (the ``repro worker`` entry)."""
    asyncio.run(ShardServer(host, port).serve(on_ready))


def serve_connection(sock: socket.socket) -> None:
    """Serve one already-connected socket until EOF or ``shutdown``.

    The same per-connection handler :class:`ShardServer` runs, without a
    listening socket — the entry point of a resident pool's forked worker.
    """

    async def serve() -> None:
        reader, writer = await asyncio.open_connection(sock=sock)
        await ShardServer()._handle_connection(reader, writer)

    asyncio.run(serve())


def _server_process_main(host: str, conn) -> None:
    """Child entry for :func:`spawn_local_servers`: serve, report the port."""

    def on_ready(port: int) -> None:
        conn.send_bytes(struct.pack("!I", port))
        conn.close()

    run_worker(host, 0, on_ready)


def fork_context():
    """The multiprocessing context local workers start in (fork if available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def spawn_local_servers(count: int, host: str = "127.0.0.1"):
    """Fork ``count`` loopback shard servers on ephemeral ports.

    Returns ``(addresses, processes)`` where ``addresses`` are
    ``"host:port"`` strings ready for ``Coordinator(worker_addresses=...)``.
    Stop them with :meth:`SocketShardClient.shutdown_server` per address
    (or terminate the processes).
    """
    context = fork_context()
    addresses: list[str] = []
    processes = []
    for _ in range(count):
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_server_process_main,
            args=(host, child_conn),
            daemon=True,
            name="repro-shard-server",
        )
        process.start()
        child_conn.close()
        (port,) = struct.unpack(
            "!I",
            recv_bytes_with_deadline(parent_conn, 30.0, what="server port"),
        )
        parent_conn.close()
        addresses.append(f"{host}:{port}")
        processes.append(process)
    return addresses, processes


# -- client ----------------------------------------------------------------------


class SocketShardClient:
    """Coordinator-side peer driving one shard worker over a socket.

    Dials ``address`` through
    :func:`~repro.engine.resilience.connect_with_retry` (so a worker
    started a moment after the coordinator no longer loses the race), or
    adopts an already-connected ``sock``, in which case ``address`` is
    only the label error messages name.  Every block ships inline and is
    acked by the worker; :meth:`send_block` waits for the oldest ack once
    :data:`MAX_UNACKED_BLOCKS` are in flight, so a lost or unprocessed
    block surfaces within the ``ingest`` deadline rather than as missing
    rows.  Every send and receive runs under a
    :class:`~repro.engine.resilience.DeadlinePolicy` socket timeout.
    All traffic is framed; nothing is pickled.
    """

    backend_name = "sockets"

    def __init__(
        self,
        address,
        resilience: ResilienceConfig | None = None,
        shard_index: int | None = None,
        supervisor: WorkerSupervisor | None = None,
        sock: socket.socket | None = None,
    ) -> None:
        self.shard_index = shard_index
        self._resilience = (resilience or ResilienceConfig()).validate()
        if sock is None:
            host, port = parse_address(address)
            self.address = f"{host}:{port}"
            sock = connect_with_retry(
                host, port, self._resilience, shard=shard_index,
                backend=self.backend_name, supervisor=supervisor,
            )
        else:
            self.address = str(address)
        self._sock = sock
        self._sock.settimeout(self._resilience.deadlines.ingest)
        self._unacked: list[int] = []
        self.blocks = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        try:
            header, _ = self._request(
                {"type": "hello", "features": list(CLIENT_FEATURES)}, "hello"
            )
        except BaseException:
            self.close()
            raise
        self.features = tuple(header.get("features") or ())

    def _send_frame(self, frame: bytes, fault_hook: bool = False) -> None:
        if fault_hook:
            mangled = apply_send_faults(frame, self.shard_index, self.frames_sent)
            self.frames_sent += 1
            if mangled is None:
                # Dropped by the fault plan, like a lost packet: the
                # missing ack gives it away.
                return
            frame = mangled
        self._sock.sendall(frame_length_prefix(frame) + frame)
        self.bytes_sent += len(frame) + 4

    def _recv_exact(self, n_bytes: int) -> bytes:
        chunks = []
        remaining = n_bytes
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ConnectionResetError(
                    f"worker at {self.address} closed the connection"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _recv_frame(self) -> tuple[dict, bytes]:
        length = split_length_prefix(self._recv_exact(4))
        frame = self._recv_exact(length)
        self.bytes_received += length + 4
        header, payload = decode_frame(frame)
        if header.get("type") == "error":
            raise _WorkerReportedError(
                f"worker at {self.address} reported: {header.get('message')}"
            )
        return header, payload

    def wait_acks(self, max_unacked: int = 0) -> None:
        """Read ``block_ack`` replies until at most ``max_unacked`` remain."""
        while len(self._unacked) > max_unacked:
            header, _ = self._recv_frame()
            expected = self._unacked[0]
            if header.get("type") != "block_ack" or header.get("seq") != expected:
                raise TransportError(
                    f"worker at {self.address} answered "
                    f"{header.get('type')!r} (seq {header.get('seq')!r}) "
                    f"while the block_ack for seq {expected} was pending"
                )
            self._unacked.pop(0)

    def _recv_reply(
        self, expected: str, what: str, deadline: float | None = None
    ) -> tuple[dict, bytes]:
        """Drain pending acks, then read the reply to a request.

        Acks are read under the ``ingest`` deadline; the reply itself
        under ``deadline`` when given (snapshots use their own budget).
        """
        self.wait_acks()
        if deadline is None:
            header, payload = self._recv_frame()
        else:
            self._sock.settimeout(deadline)
            try:
                header, payload = self._recv_frame()
            finally:
                self._sock.settimeout(self._resilience.deadlines.ingest)
        if header.get("type") != expected:
            raise TransportError(
                f"worker at {self.address} answered {header.get('type')!r} "
                f"to {what}"
            )
        return header, payload

    def _request(
        self, header: dict, expected: str, payload: bytes = b"",
        deadline: float | None = None,
    ) -> tuple[dict, bytes]:
        self._send_frame(encode_frame(header, payload))
        return self._recv_reply(
            expected, f"a {header['type']} request", deadline
        )

    def load(self, shard_index: int, pristine_payload: bytes) -> None:
        """Install the shard's pristine estimator snapshot on the worker."""
        self._request(
            {"type": "load", "shard": shard_index}, "ok",
            bytes(pristine_payload), self._resilience.deadlines.snapshot,
        )

    def send_block(
        self, shard_index: int, block: np.ndarray, seq: int | None = None
    ) -> None:
        """Ship one row block inline, waiting for acks past the in-flight cap."""
        self.wait_acks(MAX_UNACKED_BLOCKS - 1)
        contiguous = np.ascontiguousarray(block)
        seq = self.blocks if seq is None else seq
        header = {
            "type": "ingest_block",
            "shard": shard_index,
            "seq": seq,
            "ack": True,
            "shape": list(contiguous.shape),
            "dtype": np.dtype(contiguous.dtype).str,
        }
        self._send_frame(
            encode_frame(header, contiguous.tobytes()), fault_hook=True
        )
        self._unacked.append(seq)
        self.blocks += 1

    def ping(self) -> dict:
        """Health-check round trip (feature ``heartbeat``).

        Returns the ``pong`` header — shard index, rows resident, last
        ingested sequence number.  Raises :class:`TransportError` when the
        worker never advertised the feature.
        """
        if "heartbeat" not in self.features:
            raise TransportError(
                f"worker at {self.address} did not negotiate the "
                "'heartbeat' feature"
            )
        header, _ = self._request({"type": "ping"}, "pong")
        return header

    def sync(self) -> tuple[int, bytes]:
        """Mid-ingest checkpoint (feature ``sync_snapshot``).

        Returns ``(last_seq, summary_bytes)`` without resetting the
        worker's resident estimator — the supervisor's basis refresh.
        """
        header, payload = self._request(
            {"type": "snapshot", "reset": False}, "snapshot_state",
            deadline=self._resilience.deadlines.snapshot,
        )
        return int(header.get("last_seq", -1)), payload

    def request_snapshot(self) -> None:
        """Send the snapshot barrier without waiting for the reply."""
        self._send_frame(encode_frame({"type": "snapshot"}), fault_hook=True)

    def read_snapshot(self) -> dict:
        """Receive the ``snapshot_state`` reply for :meth:`request_snapshot`."""
        header, payload = self._recv_reply(
            "snapshot_state", "a snapshot request",
            self._resilience.deadlines.snapshot,
        )
        result = {
            "rows": int(header.get("rows", 0)),
            "seconds": float(header.get("seconds", 0.0)),
            "payload": payload,
            "metrics": header.get("metrics"),
        }
        result.update(self.take_accounting())
        return result

    def take_accounting(self) -> dict:
        """Transport counters since the last snapshot, then reset them."""
        accounting = {
            "blocks": self.blocks,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }
        self.blocks = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        return accounting

    def snapshot(self) -> dict:
        """Barrier + merge: the worker's summary snapshot and accounting.

        Returns the result-dict shape of :meth:`SocketWorkerPool.collect`
        entries (without the resilience fields); transport counters reset
        afterwards.
        """
        self.request_snapshot()
        return self.read_snapshot()

    def shutdown_server(self) -> None:
        """Stop the *whole server* behind this connection (CI teardown)."""
        try:
            self._request({"type": "shutdown", "scope": "server"}, "ok")
        except _CLIENT_ERRORS:
            pass
        self.close()

    def close(self) -> None:
        """End the worker-side session and close this connection.

        ``shutdown`` reaches the peer even where a forked process still
        holds a copy of this socket, so the worker always sees EOF.
        """
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or already closed
        self._sock.close()


class SocketWorkerPool:
    """One persistent :class:`SocketShardClient` per shard.

    The coordinator-facing surface — ``send_block`` / ``collect`` /
    ``close`` — is what ``Coordinator.ingest`` drives for both transport
    backends, and the :class:`~repro.engine.resilience.WorkerSupervisor`
    model governs failures: re-dial (or reassign to a surviving address),
    reload the basis snapshot, replay unacked blocks.  Under ``fail-fast``
    recovery a failed worker or dropped connection surfaces as
    :class:`~repro.errors.EstimationError` naming the shard index and
    backend, after which the pool has closed every connection so the
    owning coordinator can reconnect on its next ingest call.
    Subclasses change where a shard's session comes from by overriding
    :meth:`_dial`.
    """

    backend_name = "sockets"

    def __init__(
        self,
        addresses,
        pristine_payloads: list[bytes],
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if len(addresses) != len(pristine_payloads):
            raise TransportError(
                f"{len(addresses)} worker address(es) for "
                f"{len(pristine_payloads)} shard(s); need exactly one each"
            )
        self._addresses = [
            "{}:{}".format(*parse_address(address)) for address in addresses
        ]
        self._open(pristine_payloads, resilience)

    def _open(
        self, pristine_payloads: list[bytes], resilience: ResilienceConfig | None
    ) -> None:
        """Dial every shard and load its pristine replica."""
        self.supervisor = WorkerSupervisor(
            self.backend_name,
            [bytes(payload) for payload in pristine_payloads],
            resilience,
        )
        self._resilience = self.supervisor.resilience
        self._clients: list[SocketShardClient] = []
        self._closed = False
        for index, payload in enumerate(pristine_payloads):
            try:
                self._clients.append(self._dial(index))
                self._clients[index].load(index, bytes(payload))
            except _CLIENT_ERRORS as error:
                self._fail(index, error)

    @property
    def n_workers(self) -> int:
        """Number of connected shard workers."""
        return len(self._clients)

    def _fail(self, shard_index: int, error: BaseException) -> None:
        self.close()
        raise EstimationError(
            f"shard {shard_index} worker failed mid-ingest under the "
            f"'{self.backend_name}' backend ({type(error).__name__}: {error});"
            " the workers were shut down and will be re-established on the "
            "next ingest() call"
        ) from error

    # -- supervision -------------------------------------------------------------

    def _client(self, shard_index: int, address, sock=None) -> SocketShardClient:
        return SocketShardClient(
            address, resilience=self._resilience, shard_index=shard_index,
            supervisor=self.supervisor, sock=sock,
        )

    def _dial(self, shard_index: int) -> SocketShardClient:
        """Connect shard ``shard_index`` somewhere per the recovery mode."""
        candidates = [self._addresses[shard_index]]
        if self._resilience.recovery.mode == "reassign":
            # A surviving server can host a second shard: each connection
            # gets its own isolated ShardWorkerState.
            for other, address in enumerate(self._addresses):
                if (
                    other != shard_index
                    and not self.supervisor.shard(other).lost
                    and address not in candidates
                ):
                    candidates.append(address)
        last_error: BaseException | None = None
        for address in candidates:
            try:
                return self._client(shard_index, address)
            except _CLIENT_ERRORS as error:
                last_error = error
        raise TransportError(
            f"no reachable worker address for shard {shard_index} "
            f"(tried {', '.join(candidates)}; last: "
            f"{type(last_error).__name__}: {last_error})"
        )

    def _reconnect(self, shard_index: int) -> None:
        """Re-establish the shard's session: dial, load basis, replay."""
        shard = self.supervisor.shard(shard_index)
        old = self._clients[shard_index]
        old.close()
        client = self._dial(shard_index)
        # Transport accounting survives the connection: replayed bytes are
        # genuinely re-shipped and stack on top of the earlier counts.
        client.blocks = old.blocks
        client.bytes_sent += old.bytes_sent
        client.bytes_received += old.bytes_received
        self._clients[shard_index] = client
        client.load(shard_index, shard.basis)
        for seq, block in shard.replay_blocks():
            client.send_block(shard_index, block, seq)
        # A replay that fails must fail inside this recovery attempt.
        client.wait_acks()

    def _handle_transport_failure(
        self, shard_index: int, error: BaseException
    ) -> bool:
        """Recover ``shard_index`` per policy; True when healthy again.

        Charges recovery attempts until one re-dial + replay succeeds; on
        exhaustion either marks the shard lost (``on_exhausted="degrade"``,
        returns False) or closes the pool and raises ``EstimationError``.
        """
        if isinstance(error, _WorkerReportedError):
            # The estimator failed, not the link: replay would fail
            # identically, so surface it like the fail-fast path does.
            self._fail(shard_index, error)
        last_error = error
        while self.supervisor.may_recover(shard_index):
            with self.supervisor.begin_recovery(shard_index):
                try:
                    self._reconnect(shard_index)
                    return True
                except _CLIENT_ERRORS as retry_error:
                    last_error = retry_error
        shard = self.supervisor.shard(shard_index)
        if shard.tracking and self.supervisor.may_degrade():
            self._clients[shard_index].close()
            shard.mark_lost()
            return False
        self._fail(shard_index, last_error)

    # -- the ingest protocol -----------------------------------------------------

    def send_block(self, shard_index: int, block: np.ndarray) -> None:
        """Ship one row block to ``shard_index``'s worker (ack-paced)."""
        shard = self.supervisor.shard(shard_index)
        if shard.lost:
            shard.record_dropped(int(block.shape[0]))
            return
        contiguous = np.ascontiguousarray(block)
        seq = shard.assign_seq()
        shard.record_send(seq, contiguous)
        try:
            self._clients[shard_index].send_block(shard_index, contiguous, seq)
        except _CLIENT_ERRORS as error:
            # A successful reconnect already replayed this block (recorded
            # above); a degraded shard silently absorbs it.
            if not self._handle_transport_failure(shard_index, error):
                return
        if shard.needs_sync(self._resilience.recovery.sync_every):
            self._sync(shard_index)

    def _sync(self, shard_index: int) -> None:
        """Mid-ingest basis refresh through the client's sync RPC."""
        client = self._clients[shard_index]
        if "sync_snapshot" not in client.features:
            return
        shard = self.supervisor.shard(shard_index)
        try:
            last_seq, payload = client.sync()
            shard.record_sync(last_seq, payload)
        except _CLIENT_ERRORS as error:
            self._handle_transport_failure(shard_index, error)

    def _collect_one(self, shard_index: int) -> dict:
        """Full snapshot round trip for one shard, with recovery."""
        shard = self.supervisor.shard(shard_index)
        if shard.lost:
            entry = {"rows": 0, "seconds": 0.0, "payload": None, "metrics": None}
            entry.update(self._clients[shard_index].take_accounting())
            entry.update(lost=True, rows_dropped=shard.drain_dropped())
            return entry
        try:
            result = self._clients[shard_index].snapshot()
        except _CLIENT_ERRORS as error:
            self._handle_transport_failure(shard_index, error)
            # Either recovered (snapshot again) or lost (the recursion
            # lands in the lost branch); bounded by max_recoveries.
            return self._collect_one(shard_index)
        return self._collected(shard_index, result)

    def _collected(self, shard_index: int, result: dict) -> dict:
        self.supervisor.shard(shard_index).after_collect()
        result.update(lost=False, rows_dropped=0)
        return result

    def collect(self) -> list[dict]:
        """Snapshot every worker; returns one result dict per shard.

        Each entry carries ``rows``, ``seconds``, the summary's snapshot
        ``payload`` bytes, the worker's ``metrics`` registry state (or
        ``None``), the ``bytes_sent`` / ``bytes_received`` / ``blocks``
        transport accounting since the previous collect, plus the
        resilience fields ``lost`` and ``rows_dropped``.  Healthy workers
        reset to their pristine replica as a side effect, ready for the
        next ingest.  Snapshot requests are pipelined across shards so the
        workers serialize their summaries concurrently; the replies are
        gathered (and failures recovered) in shard order.
        """
        requested: list[bool] = []
        for index, client in enumerate(self._clients):
            if self.supervisor.shard(index).lost:
                requested.append(False)
                continue
            try:
                client.request_snapshot()
                requested.append(True)
            except _CLIENT_ERRORS as error:
                self._handle_transport_failure(index, error)
                requested.append(False)
        results = []
        for index in range(len(self._clients)):
            if not requested[index]:
                # Lost, or recovered after the request phase: take the
                # per-shard path, which re-snapshots or reports the loss.
                results.append(self._collect_one(index))
                continue
            try:
                result = self._clients[index].read_snapshot()
            except _CLIENT_ERRORS as error:
                self._handle_transport_failure(index, error)
                results.append(self._collect_one(index))
                continue
            results.append(self._collected(index, result))
        return results

    def close(self) -> None:
        """Close every connection (servers stay up); safe to call twice."""
        if self._closed:
            return
        self._closed = True
        for client in self._clients:
            client.close()
