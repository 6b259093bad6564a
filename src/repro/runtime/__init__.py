"""Parallel experiment runtime: specs, execution, caching, artifacts.

The subsystem behind ``python -m repro``:

``repro.runtime.spec``
    Declarative, hashable :class:`ScenarioSpec`/:class:`SweepSpec`
    descriptions of experiment cells, expanded into independent
    :class:`UnitTask` grid points with stable content addresses.
``repro.runtime.executor``
    The engine: cache-aware, deduplicating, ``spawn``-safe process-pool
    execution with deterministic result ordering and timing-driven
    adaptive chunking, plus sweep reduction into
    :class:`~repro.analysis.table1.CellResult` rows.
``repro.runtime.shard``
    The cross-machine shard scheduler: deterministic cost-balanced
    partitioning (:func:`plan_shards`), one-shard execution
    (:func:`run_shard`), and manifest merging (:func:`merge_shards`)
    that reconstructs byte-identical unsharded results.
``repro.runtime.queue``
    The database-backed pull queue for elastic distributed sweeps:
    a sqlite work table any number of ``python -m repro worker``
    processes claim from transactionally (leases, heartbeats, bounded
    retries), with ``--from-queue`` collection byte-identical to a
    local run.
``repro.runtime.cache``
    Content-addressed on-disk result cache under ``.repro_cache/``,
    mergeable across machines.
``repro.runtime.artifacts``
    JSON + CSV + Markdown artifact bundles under ``results/``, plus
    per-shard manifests under ``results/<name>/shards/``.
``repro.runtime.cli``
    The ``python -m repro {list,run,sweep,report,shard,cache}`` entry
    point.
"""

from .artifacts import ArtifactStore, RunArtifacts, cell_to_dict, load_cells_json
from .cache import (
    CacheStats,
    ResultCache,
    decode_value,
    default_cache_root,
    encode_value,
)
from .executor import (
    RunStats,
    ScenarioRun,
    SweepRun,
    UnitResult,
    expand_sweeps,
    reduce_sweeps,
    run_sweep,
    run_sweeps,
    run_units,
    sweep_cells,
)
from .queue import (
    QueueError,
    WorkQueue,
    WorkerStats,
    collect_queue,
    fill_queue,
    run_worker,
)
from .shard import (
    CostModel,
    ShardMergeError,
    ShardPlan,
    ShardRun,
    merge_shards,
    plan_shards,
    run_shard,
)
from .spec import ScenarioSpec, SweepSpec, UnitTask, canonical_digest, resolve_ref

__all__ = [
    "ArtifactStore",
    "RunArtifacts",
    "cell_to_dict",
    "load_cells_json",
    "CacheStats",
    "ResultCache",
    "decode_value",
    "default_cache_root",
    "encode_value",
    "QueueError",
    "WorkQueue",
    "WorkerStats",
    "collect_queue",
    "fill_queue",
    "run_worker",
    "RunStats",
    "ScenarioRun",
    "SweepRun",
    "UnitResult",
    "expand_sweeps",
    "reduce_sweeps",
    "run_sweep",
    "run_sweeps",
    "run_units",
    "sweep_cells",
    "CostModel",
    "ShardMergeError",
    "ShardPlan",
    "ShardRun",
    "merge_shards",
    "plan_shards",
    "run_shard",
    "ScenarioSpec",
    "SweepSpec",
    "UnitTask",
    "canonical_digest",
    "resolve_ref",
]
