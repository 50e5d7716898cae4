"""repro.engine.backends — the sharded engine backend and its pool.

``get_backend("process", workers=W)`` returns the one engine backend,
:class:`~repro.engine.backends.sharded.ShardedBackend`: inline at
``workers == 1``, supervised over the persistent process pool
otherwise, with byte-identical results either way.  A stream shard is
drawn, routed and checked in row blocks of about ``BLOCK_CELLS``
cells, so its memory does not grow with the shard size; see
``docs/performance.md`` ("Scaling", "Bounded-memory stream shards").
"""

from repro.engine.backends.base import (
    BLOCK_CELLS,
    DEFAULT_SHARD_TRIALS,
    StreamSpec,
    StreamSummary,
    resolve_workers,
    shard_blocks,
    summarize_batch,
)
from repro.engine.backends.pool import shared_pool, shutdown_pools
from repro.engine.backends.sharded import ShardedBackend, get_backend
from repro.engine.backends.supervisor import (
    ShardSupervisor,
    SupervisorPolicy,
    add_event_sink,
    chaos_from_env,
    remove_event_sink,
)

__all__ = [
    "BLOCK_CELLS",
    "DEFAULT_SHARD_TRIALS",
    "ShardSupervisor",
    "ShardedBackend",
    "StreamSpec",
    "StreamSummary",
    "SupervisorPolicy",
    "add_event_sink",
    "chaos_from_env",
    "get_backend",
    "remove_event_sink",
    "resolve_workers",
    "shard_blocks",
    "shared_pool",
    "shutdown_pools",
    "summarize_batch",
]
