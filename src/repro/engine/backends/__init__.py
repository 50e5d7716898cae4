"""repro.engine.backends — execution paths behind one protocol.

``get_backend("scalar" | "batch" | "packed" | "process")``
returns an :class:`~repro.engine.backends.base.EngineBackend`; see
``docs/performance.md`` ("Scaling") for when each wins.
"""

from repro.engine.backends.base import (
    CAP_OCCUPANCY,
    CAP_PARALLEL,
    CAP_ROUTING,
    CAP_STREAM,
    CAP_SUPERVISED,
    DEFAULT_SHARD_TRIALS,
    EngineBackend,
    StreamSpec,
    StreamSummary,
    backend_names,
    get_backend,
    register_backend,
    resolve_workers,
    shard_valid,
    summarize_batch,
)
from repro.engine.backends.local import (
    BatchBackend,
    PackedGateBackend,
    ScalarBackend,
)
from repro.engine.backends.pool import (
    shared_pool,
    shm_segments,
    shutdown_pools,
    sweep_orphan_shm,
)
from repro.engine.backends.sharded import ShardedBackend
from repro.engine.backends.supervisor import (
    ShardSupervisor,
    SupervisorPolicy,
    add_event_sink,
    chaos_from_env,
    remove_event_sink,
)

__all__ = [
    "CAP_OCCUPANCY",
    "CAP_PARALLEL",
    "CAP_ROUTING",
    "CAP_STREAM",
    "CAP_SUPERVISED",
    "DEFAULT_SHARD_TRIALS",
    "BatchBackend",
    "EngineBackend",
    "PackedGateBackend",
    "ScalarBackend",
    "ShardSupervisor",
    "ShardedBackend",
    "StreamSpec",
    "StreamSummary",
    "SupervisorPolicy",
    "add_event_sink",
    "backend_names",
    "chaos_from_env",
    "get_backend",
    "register_backend",
    "remove_event_sink",
    "resolve_workers",
    "shard_valid",
    "shared_pool",
    "shm_segments",
    "shutdown_pools",
    "summarize_batch",
    "sweep_orphan_shm",
]
