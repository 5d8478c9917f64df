"""Worker transport: one pool of socket workers, local or remote.

The scale-out transport layer behind ``Coordinator(backend="resident")``
and ``backend="sockets"``.  Three pieces:

* :mod:`~repro.engine.transport.frames` — the ``repro/transport@1`` frame
  codec every coordinator/worker exchange uses (nothing is pickled);
* :mod:`~repro.engine.transport.sockets` — the shard worker behind a TCP
  server (``python -m repro worker``), the coordinator-side client, and
  the worker pool that ships ack-paced row blocks, collects snapshot
  bytes and recovers failed shards;
* :mod:`~repro.engine.transport.resident` — the same pool over local
  workers, forked once per coordinator lifetime on socket pairs.

Both backends replay the serial backend's exact per-batch ``observe_rows``
call sequence, so merged summaries are bit-identical to a serial ingest.
"""

from .frames import MESSAGE_TYPES, TRANSPORT_SCHEMA, decode_frame, encode_frame
from .resident import ResidentWorkerPool
from .sockets import (
    DEFAULT_TRANSPORT_BLOCK_ROWS,
    MAX_UNACKED_BLOCKS,
    ShardServer,
    SocketShardClient,
    SocketWorkerPool,
    parse_address,
    run_worker,
    serve_connection,
    spawn_local_servers,
)
from .worker import ShardWorkerState

__all__ = [
    "DEFAULT_TRANSPORT_BLOCK_ROWS",
    "MAX_UNACKED_BLOCKS",
    "MESSAGE_TYPES",
    "ResidentWorkerPool",
    "ShardServer",
    "ShardWorkerState",
    "SocketShardClient",
    "SocketWorkerPool",
    "TRANSPORT_SCHEMA",
    "decode_frame",
    "encode_frame",
    "parse_address",
    "run_worker",
    "serve_connection",
    "spawn_local_servers",
]
