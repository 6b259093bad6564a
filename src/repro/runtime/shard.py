"""Cross-machine shard scheduler for very large sweeps.

Contract: :func:`plan_shards` deterministically partitions the unique
unit tasks of a batch of sweeps into ``n`` content-addressed shards;
:func:`run_shard` executes exactly one shard (through the normal
executor, cache and all) and yields a JSON manifest of unit values;
:func:`merge_shards` checks a set of manifests for coverage and reduces
them into :class:`~repro.runtime.executor.SweepRun` rows byte-identical
to an unsharded run.  Machines share nothing but the repo: the same
specs, shard count, and timing input produce the same plan everywhere
(uniform costs on cold start), so each machine can independently run
``--shard k/N`` and any one of them can merge the manifests.

Shard boundaries are balanced by a :class:`CostModel` — per-unit
wall-clock seconds measured by a previous run (``meta.json`` →
``unit_timings``) — via deterministic longest-processing-time greedy
assignment; the same model drives the executor's adaptive chunk sizing.
Work units are referenced by :meth:`UnitTask.address`, the engine-free
content address, so planning never depends on the evaluation engine;
manifests record the engine their values were computed under and
:func:`merge_shards` refuses to mix engines.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.tensor import get_engine
from .cache import ResultCache
from .executor import (
    RunStats,
    SweepRun,
    UnitResult,
    collect_sweeps,
    expand_sweeps,
    run_units,
)
from .spec import SweepSpec, UnitTask, _version_salt, canonical_digest

#: Manifest schema version, bumped on incompatible layout changes.
SHARD_MANIFEST_FORMAT = 1


class ShardMergeError(RuntimeError):
    """A shard merge cannot reconstruct the full sweep (missing units,
    mixed engines, or manifests from a different package version)."""


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CostModel:
    """Per-unit wall-clock estimates from a previous run's timings.

    ``measured`` maps a canonical digest of a unit's identity to
    seconds; unknown units fall back to ``default_seconds`` (the median
    measured cost, or 1.0 when nothing was measured — the uniform cold
    start).  The digest covers the task reference *and* the kwargs:
    distinct tasks sharing a parameter grid (e.g. the two Anshelevich
    units, both swept over ``k``) must never inherit each other's cost.
    Timing rows from older runs that predate the recorded task reference
    are keyed with ``task=None`` and matched as a fallback.
    """

    measured: Mapping[str, float] = field(default_factory=dict)
    default_seconds: float = 1.0
    source: Optional[str] = None

    @staticmethod
    def unit_digest(task: Optional[str], params: Mapping[str, Any]) -> str:
        return canonical_digest({"task": task, "params": dict(params)})

    @staticmethod
    def params_digest(params: Mapping[str, Any]) -> str:
        """Task-less fallback digest (rows from pre-PR-3 ``meta.json``)."""
        return CostModel.unit_digest(None, params)

    @classmethod
    def uniform(cls) -> "CostModel":
        return cls()

    @classmethod
    def from_unit_timings(
        cls,
        unit_timings: Mapping[str, Sequence[Mapping[str, Any]]],
        source: Optional[str] = None,
    ) -> "CostModel":
        """Build from the ``unit_timings`` block of a run's ``meta.json``.

        Cache-served rows (``cached: true`` or zero seconds) carry no
        timing signal and are skipped; if the same unit was timed more
        than once the slowest observation wins (conservative for
        balancing).
        """
        measured: Dict[str, float] = {}
        for rows in unit_timings.values():
            for row in rows:
                seconds = float(row.get("seconds", 0.0))
                if row.get("cached") or seconds <= 0.0:
                    continue
                digest = cls.unit_digest(row.get("task"), row.get("params", {}))
                measured[digest] = max(seconds, measured.get(digest, 0.0))
        default = statistics.median(measured.values()) if measured else 1.0
        return cls(measured=measured, default_seconds=default, source=source)

    @classmethod
    def from_meta_json(cls, path: Path) -> "CostModel":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_unit_timings(
            data.get("unit_timings", {}), source=str(path)
        )

    def estimate(self, unit: UnitTask) -> float:
        exact = self.measured.get(self.unit_digest(unit.task, unit.kwargs))
        if exact is not None:
            return exact
        loose = self.measured.get(self.params_digest(unit.kwargs))
        if loose is not None:
            return loose
        return self.default_seconds

    def __len__(self) -> int:
        return len(self.measured)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------

@dataclass
class ShardPlan:
    """A deterministic partition of a sweep batch into ``n_shards``."""

    sweeps: Tuple[SweepSpec, ...]
    n_shards: int
    #: Unique unit tasks per shard, each in submission order.
    shards: Tuple[Tuple[UnitTask, ...], ...]
    #: Cost estimates parallel to ``shards``.
    estimates: Tuple[Tuple[float, ...], ...]
    cost_source: Optional[str] = None

    @property
    def total_units(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def loads(self) -> List[float]:
        """Estimated seconds of work per shard."""
        return [float(sum(costs)) for costs in self.estimates]

    def spec_hashes(self) -> Dict[str, str]:
        return {sweep.sweep_id: sweep.spec_hash() for sweep in self.sweeps}

    def plan_hash(self) -> str:
        """Content address of the whole partition.

        Covers the spec hashes (which already fold in the package
        version), the shard count, and the exact unit assignment — two
        machines produce the same hash iff they would run the same plan.
        """
        return canonical_digest(
            {
                "n_shards": self.n_shards,
                "sweeps": [sweep.spec_hash() for sweep in self.sweeps],
                "assignment": [
                    [unit.address() for unit in shard] for shard in self.shards
                ],
            }
        )

    def to_json(self) -> Dict[str, Any]:
        loads = self.loads()
        return {
            "plan_hash": self.plan_hash(),
            "n_shards": self.n_shards,
            "total_units": self.total_units,
            "sweep_ids": [sweep.sweep_id for sweep in self.sweeps],
            "spec_hashes": self.spec_hashes(),
            "cost_source": self.cost_source,
            "shards": [
                {
                    "shard": index + 1,
                    "units": len(shard),
                    "estimated_seconds": round(loads[index], 6),
                    "unit_addresses": [unit.address() for unit in shard],
                }
                for index, shard in enumerate(self.shards)
            ],
        }

    def describe(self) -> str:
        loads = self.loads()
        source = self.cost_source or "uniform (no timings)"
        lines = [
            f"plan {self.plan_hash()[:12]}: {self.total_units} unit task(s) "
            f"across {self.n_shards} shard(s), costs from {source}"
        ]
        for index, shard in enumerate(self.shards):
            lines.append(
                f"  shard {index + 1}/{self.n_shards}: {len(shard):>4} unit(s), "
                f"est {loads[index]:.2f}s"
            )
        return "\n".join(lines)


def plan_shards(
    sweeps: Sequence[SweepSpec],
    n_shards: int,
    cost_model: Optional[CostModel] = None,
) -> ShardPlan:
    """Partition the unique units of ``sweeps`` into ``n_shards`` shards.

    Deterministic longest-processing-time greedy: units are considered
    in descending estimated cost (ties broken by address), each assigned
    to the least-loaded shard (ties broken by shard index).  Within a
    shard, units keep their submission order.  Without a cost model,
    every unit costs 1.0 — the uniform cold-start split.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    model = cost_model if cost_model is not None else CostModel.uniform()

    units, _ = expand_sweeps(sweeps)
    unique: List[UnitTask] = []
    seen = set()
    for unit in units:
        if unit not in seen:
            seen.add(unit)
            unique.append(unit)

    costs = [float(model.estimate(unit)) for unit in unique]
    order = sorted(
        range(len(unique)), key=lambda at: (-costs[at], unique[at].address())
    )
    loads = [0.0] * n_shards
    buckets: List[List[int]] = [[] for _ in range(n_shards)]
    for at in order:
        shard = min(range(n_shards), key=lambda index: (loads[index], index))
        loads[shard] += costs[at]
        buckets[shard].append(at)

    shards = tuple(
        tuple(unique[at] for at in sorted(bucket)) for bucket in buckets
    )
    estimates = tuple(
        tuple(costs[at] for at in sorted(bucket)) for bucket in buckets
    )
    return ShardPlan(
        sweeps=tuple(sweeps),
        n_shards=n_shards,
        shards=shards,
        estimates=estimates,
        cost_source=model.source,
    )


# ----------------------------------------------------------------------
# shard execution
# ----------------------------------------------------------------------

@dataclass
class ShardRun:
    """One executed shard: its plan slot, unit results, and stats."""

    plan: ShardPlan
    shard_index: int  # 0-based
    engine: str
    results: List[UnitResult]
    stats: RunStats

    def manifest(self) -> Dict[str, Any]:
        """The JSON shard manifest: everything a merge needs.

        Unit values ride in the manifest itself (they are the same
        JSON-ready payloads the result cache stores), so moving one
        file per shard between machines is the whole transport.
        """
        shard_units = self.plan.shards[self.shard_index]
        return {
            "format": SHARD_MANIFEST_FORMAT,
            "plan_hash": self.plan.plan_hash(),
            "shard_index": self.shard_index,
            "n_shards": self.plan.n_shards,
            "sweep_ids": [sweep.sweep_id for sweep in self.plan.sweeps],
            "spec_hashes": self.plan.spec_hashes(),
            "engine": self.engine,
            "version": _version_salt(),
            "units": [
                {
                    "address": unit.address(),
                    "task": result.task,
                    "params": result.params,
                    "value": result.value,
                    "seconds": round(result.seconds, 6),
                    "cached": result.cached,
                }
                for unit, result in zip(shard_units, self.results)
            ],
            "stats": {
                "unique_units": self.stats.unique_units,
                "executed": self.stats.executed,
                "cache_hits": self.stats.cache_hits,
                "jobs": self.stats.jobs,
                "backend": self.stats.backend,
                "wall_seconds": round(self.stats.wall_seconds, 3),
                "executed_seconds": round(self.stats.executed_seconds, 3),
            },
        }


def run_shard(
    sweeps: Sequence[SweepSpec],
    shard_index: int,
    n_shards: int,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    backend: str = "process",
    cost_model: Optional[CostModel] = None,
) -> ShardRun:
    """Plan and execute shard ``shard_index`` (0-based) of ``n_shards``.

    Resume semantics come from the normal result cache: re-running a
    shard against a warm cache recomputes nothing and rewrites an
    identical-valued manifest.
    """
    plan = plan_shards(sweeps, n_shards, cost_model=cost_model)
    if not 0 <= shard_index < n_shards:
        raise ValueError(
            f"shard index {shard_index} out of range for {n_shards} shard(s)"
        )
    units = list(plan.shards[shard_index])
    results, stats = run_units(
        units, jobs=jobs, cache=cache, backend=backend, cost_model=cost_model
    )
    return ShardRun(
        plan=plan,
        shard_index=shard_index,
        engine=get_engine(),
        results=results,
        stats=stats,
    )


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------

def merge_shards(
    sweeps: Sequence[SweepSpec],
    manifests: Sequence[Mapping[str, Any]],
) -> Tuple[List[SweepRun], RunStats, Dict[str, Any]]:
    """Reduce shard manifests into full sweep runs.

    The hard requirement is *coverage*: every unique unit of the
    expanded sweeps must appear (by engine-free address) in the union of
    the manifests.  Manifests whose recorded spec hashes do not match
    ``sweeps`` — leftovers from an earlier split with different ids,
    overrides, or package version — are ignored (their count is reported
    in the merge metadata), so a re-split never has to hand-clean the
    shards directory.  The remaining manifests must share one engine and
    the current package version; plan hashes may differ (e.g.
    overlapping plans) and are reported too.  A manifest that is not a
    JSON object, or has a unit entry without ``address``/``value``,
    raises :class:`ShardMergeError` naming its position: manifests are
    copied between machines, so they are outside input.  Reduction goes
    through :func:`~repro.runtime.executor.collect_sweeps`, so the
    resulting cell rows are byte-identical to an unsharded run under the
    same engine.
    """
    if not manifests:
        raise ShardMergeError("no shard manifests to merge")
    for position, manifest in enumerate(manifests, 1):
        name = f"shard manifest {position} of {len(manifests)}"
        if not isinstance(manifest, Mapping):
            raise ShardMergeError(
                f"{name} is a JSON {type(manifest).__name__}, not an object; "
                f"re-run or re-copy that shard"
            )
        entries = manifest.get("units", [])
        if not isinstance(entries, list) or not all(
            isinstance(entry, Mapping) and {"address", "value"} <= set(entry)
            for entry in entries
        ):
            raise ShardMergeError(
                f"{name} has a unit entry without an address or value; "
                f"re-run or re-copy that shard"
            )

    expected_hashes = {sweep.sweep_id: sweep.spec_hash() for sweep in sweeps}
    matching = [
        m for m in manifests if dict(m.get("spec_hashes", {})) == expected_hashes
    ]
    ignored = len(manifests) - len(matching)
    if not matching:
        raise ShardMergeError(
            f"all {ignored} shard manifest(s) were written for a different "
            f"sweep spec (other ids, --set overrides, or package version); "
            f"re-run the shards against the current spec"
        )
    manifests = matching

    versions = sorted({str(m.get("version")) for m in manifests})
    if versions != [_version_salt()]:
        raise ShardMergeError(
            f"shard manifests were written by package version(s) {versions}, "
            f"but this is {_version_salt()!r}; re-run the shards"
        )

    rows: Dict[str, Mapping[str, Any]] = {}
    for manifest in manifests:
        for entry in manifest.get("units", []):
            rows[str(entry["address"])] = {
                "engine": str(manifest.get("engine")),
                "value": entry["value"],
                "cached": bool(entry.get("cached", False)),
                "seconds": float(entry.get("seconds", 0.0)),
            }

    sweep_runs, stats, engine = collect_sweeps(
        sweeps,
        rows,
        backend="shard-merge",
        error=ShardMergeError,
        missing_from="missing from the merged shard manifests",
        missing_hint="run the remaining shard(s) of the same plan first",
        producers=("shard manifests", "shards"),
    )
    merge_meta = {
        "engine": engine,
        "manifests": len(manifests),
        "ignored_manifests": ignored,
        "plan_hashes": sorted({str(m.get("plan_hash")) for m in manifests}),
        "shards": sorted(
            f"{int(m.get('shard_index', 0)) + 1}/{int(m.get('n_shards', 0))}"
            for m in manifests
        ),
        "executed_seconds": round(stats.executed_seconds, 3),
    }
    return sweep_runs, stats, merge_meta

