"""Parallel unit-task execution and sweep orchestration.

``run_units`` is the engine core: it deduplicates the unit-task list,
serves what it can from the :class:`~repro.runtime.cache.ResultCache`,
dispatches the remainder to a worker pool, writes fresh values back to
the cache, and reassembles results in the *original submission order* —
so every backend and any ``jobs`` count produce identical rows.

Three backends share that contract:

* ``process`` (default) — a ``spawn``-based ``ProcessPoolExecutor``;
  workers re-import task modules instead of inheriting parent state.
* ``thread`` — a ``ThreadPoolExecutor`` in-process.  Worthwhile since the
  tensorized evaluation engine (:mod:`repro.core.tensor`) moved the unit
  tasks' hot loops into NumPy kernels that release the GIL: no spawn or
  pickling overhead, shared page cache, same rows byte-for-byte.
* ``serial`` — a plain loop regardless of ``jobs`` (the baseline).

``run_sweeps`` layers the declarative side on top: it expands every
:class:`~repro.runtime.spec.SweepSpec` into unit tasks, runs them through
one shared pool (deduplication spans sweeps, so e.g. the three Table-1
universal cells share their random-game reports), and hands each
scenario's ordered values to its reducer to produce ``CellResult`` rows.
The expand and reduce halves are exposed separately (``expand_sweeps`` /
``reduce_sweeps``), and ``collect_sweeps`` reduces rows computed
elsewhere — shard manifests (:mod:`repro.runtime.shard`) and queue
result rows (:mod:`repro.runtime.queue`) — through the identical path.

Scheduling is cost-aware when a ``cost_model`` is supplied (built from a
prior run's ``meta.json`` unit timings): pending units dispatch
longest-first and the process-pool chunk size adapts to the measured
cost spread.  Scheduling decisions never change result rows.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .._util import nearest_rank
from ..analysis.table1 import CellResult
from ..core.tensor import engine_override, get_engine
from .cache import ResultCache
from .spec import ScenarioSpec, SweepSpec, UnitTask, resolve_ref

#: Start method for worker processes.  ``spawn`` is the portable, safe
#: choice: workers re-import task modules instead of inheriting arbitrary
#: parent state, which is exactly what keeps unit tasks reproducible.
MP_START_METHOD = "spawn"

#: Recognized execution backends.
BACKENDS = ("process", "thread", "serial")


@dataclass
class UnitResult:
    """One executed (or cache-served) unit task."""

    task: str
    params: Dict[str, Any]
    value: Any
    cached: bool = False
    seconds: float = 0.0


@dataclass
class RunStats:
    """Aggregate accounting for one engine invocation."""

    total_units: int = 0
    unique_units: int = 0
    executed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    backend: str = "process"
    wall_seconds: float = 0.0
    executed_seconds: float = 0.0

    @property
    def deduplicated(self) -> int:
        return self.total_units - self.unique_units

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.unique_units if self.unique_units else 0.0

    def describe(self) -> str:
        return (
            f"{self.total_units} unit task(s) "
            f"({self.unique_units} unique, {self.executed} executed, "
            f"{self.cache_hits} cache hit(s), "
            f"hit rate {100.0 * self.cache_hit_rate:.0f}%) "
            f"jobs={self.jobs} backend={self.backend} "
            f"wall={self.wall_seconds:.2f}s"
        )


#: task reference -> batch-runner reference.  A batch runner has the
#: signature ``runner(rows: List[Dict[str, Any]]) -> List[Any]`` (one
#: kwargs dict per unit, one value per row, same order) and MUST return
#: values identical to calling the unit task once per row — the cache
#: stores batch-computed values under the ordinary per-unit keys, so any
#: divergence would poison later non-batched runs.
_BATCH_RUNNERS: Dict[str, str] = {}


def register_batch_runner(task: str, runner: str) -> None:
    """Declare a unit task batchable: a fleet of pending units sharing
    ``task`` dispatches as a handful of ``runner`` calls (one per worker
    slot) instead of one job per unit, amortizing per-unit dispatch —
    e.g. a structure-of-arrays session sweep over a game population.
    Both arguments are ``"module:function"`` references; modules call
    this at import time next to the task definition, so resolving the
    task's module (which every worker does anyway) finds the runner.
    """
    _BATCH_RUNNERS[task] = runner


def batch_runner_for(task: str) -> Optional[str]:
    """The registered batch runner for ``task``, or ``None``.

    Imports the task's module first (registration is an import side
    effect beside the task definition), so the submitting process sees
    the same registry a worker would.
    """
    if task not in _BATCH_RUNNERS:
        module_name = task.partition(":")[0]
        try:
            importlib.import_module(module_name)
        except Exception:
            return None
    return _BATCH_RUNNERS.get(task)


def _execute_batch(job: Tuple[str, List[Dict[str, Any]], str]) -> List[Tuple[Any, float]]:
    """Worker entry for one batched job: run the batch runner over all
    rows under the caller's engine, then attribute wall time evenly (the
    per-unit split inside one fused kernel call is unobservable)."""
    runner_ref, rows, engine = job
    start = time.perf_counter()
    with engine_override(engine):
        values = list(resolve_ref(runner_ref)(rows))
    elapsed = time.perf_counter() - start
    if len(values) != len(rows):
        raise RuntimeError(
            f"batch runner {runner_ref!r} returned {len(values)} values "
            f"for {len(rows)} unit task(s)"
        )
    share = elapsed / len(rows)
    return [(value, share) for value in values]


def _execute_job(job: Tuple[str, Any]) -> List[Tuple[Any, float]]:
    """Uniform worker entry: ``("unit", ...)`` or ``("batch", ...)`` jobs
    both come back as a list of per-unit ``(value, seconds)`` pairs."""
    kind, payload = job
    if kind == "batch":
        return _execute_batch(payload)
    return [_execute_unit(payload)]


def _execute_unit(job: Tuple[UnitTask, str]) -> Tuple[Any, float]:
    """Top-level worker entry point (picklable under ``spawn``).

    The submitting caller's effective evaluation engine rides along and
    is applied around the task as a context-scoped override (the same
    session-scoped mechanism :mod:`repro.core.session` uses), so thread
    workers (whose fresh contexts would not inherit the caller's
    override) and spawn workers (which would only see the environment
    variable) compute exactly what ``jobs=1`` in the caller's context
    would — and concurrent thread workers pinning different engines
    cannot race each other.
    """
    unit, engine = job
    start = time.perf_counter()
    with engine_override(engine):
        value = unit.run()
    return value, time.perf_counter() - start


def _chunksize(pending: int, jobs: int, costs: Optional[Sequence[float]] = None) -> int:
    """Process-pool ``map`` chunk size, adapted to measured unit costs.

    Uniform fallback: ~4 chunks per worker balances dispatch overhead
    against stragglers.  With cost estimates, the chunk count scales
    with the relative spread of the costs (coefficient of variation):
    near-uniform loads take bigger chunks (less dispatch overhead),
    highly skewed loads take smaller ones (a straggler chunk can hold
    at most a small slice of the work).
    """
    chunks_per_worker = 4
    if costs is not None and len(costs) > 1:
        mean = sum(costs) / len(costs)
        if mean > 0.0:
            variance = sum((cost - mean) ** 2 for cost in costs) / len(costs)
            spread = (variance ** 0.5) / mean
            chunks_per_worker = int(min(16.0, max(2.0, round(2.0 + 6.0 * spread))))
    return max(1, pending // (jobs * chunks_per_worker))


def run_units(
    units: Sequence[UnitTask],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    backend: str = "process",
    cost_model: Optional[Any] = None,
) -> Tuple[List[UnitResult], RunStats]:
    """Execute unit tasks; results come back in submission order.

    ``backend`` selects the worker pool (see module docstring); every
    backend produces byte-identical result rows because values depend
    only on task parameters and ``map`` preserves submission order.

    ``cost_model`` (any object with ``estimate(unit) -> float``, e.g.
    :class:`repro.runtime.shard.CostModel` built from a prior run's
    ``meta.json`` timings) enables adaptive scheduling: pending units
    are dispatched longest-first and the process-pool chunk size shrinks
    as the cost spread grows.  Scheduling never affects values — results
    are reassembled by submission index — so adaptive and uniform runs
    emit identical rows.
    """
    start = time.perf_counter()
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    jobs = max(1, int(jobs))
    stats = RunStats(total_units=len(units), jobs=jobs, backend=backend)
    # The submitting caller's engine governs every worker *and* the cache
    # address, so an engine pin can never serve or produce aliased values.
    engine = get_engine()

    # Deduplicate while preserving first-seen order.
    unique: List[UnitTask] = []
    position: Dict[UnitTask, int] = {}
    for unit in units:
        if unit not in position:
            position[unit] = len(unique)
            unique.append(unit)
    stats.unique_units = len(unique)

    values: List[Any] = [None] * len(unique)
    cached_flags = [False] * len(unique)
    seconds = [0.0] * len(unique)
    pending_indices: List[int] = []
    if cache is not None:
        for index, unit in enumerate(unique):
            hit, value = cache.get(unit.key(engine=engine))
            if hit:
                values[index] = value
                cached_flags[index] = True
            else:
                pending_indices.append(index)
        stats.cache_hits = len(unique) - len(pending_indices)
    else:
        pending_indices = list(range(len(unique)))

    costs: Optional[List[float]] = None
    if cost_model is not None and len(pending_indices) > 1:
        costs = [
            float(cost_model.estimate(unique[index])) for index in pending_indices
        ]
        # Longest-first dispatch: the classic LPT straggler mitigation.
        # Stable sort on (-cost, arrival) keeps ties deterministic, and
        # result assembly below goes through pending_indices, so the
        # permutation never reaches the caller.
        order = sorted(
            range(len(pending_indices)), key=lambda at: (-costs[at], at)
        )
        pending_indices = [pending_indices[at] for at in order]
        costs = [costs[at] for at in order]

    if pending_indices:
        workers = min(jobs, len(pending_indices))
        # Split batchable unit kinds (tasks with a registered batch
        # runner) from singles; each batchable task's pending units fuse
        # into one job per worker slot, carrying the runner reference so
        # workers need no registry of their own.
        singles: List[int] = []
        grouped: Dict[str, List[int]] = {}
        for index in pending_indices:
            if batch_runner_for(unique[index].task) is None:
                singles.append(index)
            else:
                grouped.setdefault(unique[index].task, []).append(index)
        job_list: List[Tuple[str, Any]] = [
            ("unit", (unique[index], engine)) for index in singles
        ]
        slots: List[List[int]] = [[index] for index in singles]
        for task, indices in grouped.items():
            runner = batch_runner_for(task)
            chunk = max(1, -(-len(indices) // workers))
            for start_at in range(0, len(indices), chunk):
                piece = indices[start_at:start_at + chunk]
                job_list.append(
                    ("batch", (runner, [unique[i].kwargs for i in piece], engine))
                )
                slots.append(piece)
        # With batch jobs in play the LPT cost list no longer aligns with
        # the job list; fall back to uniform chunking (values unaffected).
        job_costs = costs if not grouped else None
        if backend == "serial" or workers == 1:
            outcomes = [_execute_job(job) for job in job_list]
        elif backend == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # ``map`` preserves input order, so result assembly is
                # deterministic regardless of completion order.
                outcomes = list(pool.map(_execute_job, job_list))
        else:
            context = multiprocessing.get_context(MP_START_METHOD)
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            ) as pool:
                outcomes = list(
                    pool.map(
                        _execute_job,
                        job_list,
                        chunksize=_chunksize(len(job_list), workers, job_costs),
                    )
                )
        executed_seconds = 0.0
        for piece, piece_outcomes in zip(slots, outcomes):
            for index, (value, elapsed) in zip(piece, piece_outcomes):
                values[index] = value
                seconds[index] = elapsed
                executed_seconds += elapsed
                if cache is not None:
                    cache.put(
                        unique[index].key(engine=engine),
                        value,
                        meta={
                            "task": unique[index].task,
                            "params": list(unique[index].params),
                            "engine": engine,
                        },
                    )
        stats.executed = len(pending_indices)
        stats.executed_seconds = float(executed_seconds)

    results = [
        UnitResult(
            task=unit.task,
            params=unit.kwargs,
            value=values[position[unit]],
            cached=cached_flags[position[unit]],
            seconds=seconds[position[unit]],
        )
        for unit in units
    ]
    stats.wall_seconds = time.perf_counter() - start
    return results, stats


# ----------------------------------------------------------------------
# declarative layer: scenarios and sweeps
# ----------------------------------------------------------------------

@dataclass
class ScenarioRun:
    """One reduced scenario: its spec, unit results, and cell rows."""

    spec: ScenarioSpec
    results: List[UnitResult]
    cells: List[CellResult]


@dataclass
class SweepRun:
    """All scenario runs of one sweep."""

    sweep: SweepSpec
    scenario_runs: List[ScenarioRun] = field(default_factory=list)

    @property
    def cells(self) -> List[CellResult]:
        cells: List[CellResult] = []
        for run in self.scenario_runs:
            cells.extend(run.cells)
        return cells


#: Per-sweep scenario slices into the flat submission-order unit list.
SweepSlices = List[Tuple[SweepSpec, List[Tuple[ScenarioSpec, int, int]]]]


def expand_sweeps(
    sweeps: Sequence[SweepSpec],
) -> Tuple[List[UnitTask], SweepSlices]:
    """Flatten sweeps into the submission-order unit list plus slices.

    The slices record which ``[start, stop)`` range of the flat list
    belongs to each scenario, so any provider of in-order unit values —
    the live executor or a shard merge — can be reduced identically by
    :func:`reduce_sweeps`.
    """
    slices: SweepSlices = []
    units: List[UnitTask] = []
    for sweep in sweeps:
        scenario_slices = []
        for scenario in sweep.scenarios:
            expanded = scenario.expand()
            scenario_slices.append(
                (scenario, len(units), len(units) + len(expanded))
            )
            units.extend(expanded)
        slices.append((sweep, scenario_slices))
    return units, slices


def reduce_sweeps(
    slices: SweepSlices, results: Sequence[UnitResult]
) -> List[SweepRun]:
    """Run every scenario's reducer over its slice of ordered results."""
    sweep_runs: List[SweepRun] = []
    for sweep, scenario_slices in slices:
        sweep_run = SweepRun(sweep=sweep)
        for scenario, start, stop in scenario_slices:
            scenario_results = list(results[start:stop])
            reducer = resolve_ref(scenario.reducer)
            cells = reducer(scenario, scenario_results)
            sweep_run.scenario_runs.append(
                ScenarioRun(spec=scenario, results=scenario_results, cells=cells)
            )
        sweep_runs.append(sweep_run)
    return sweep_runs


def collect_sweeps(
    sweeps: Sequence[SweepSpec],
    rows: Mapping[str, Mapping[str, Any]],
    backend: str,
    error: Type[Exception],
    missing_from: str,
    missing_hint: str,
    producers: Tuple[str, str],
    load: Callable[[UnitTask, Mapping[str, Any]], Any] = (
        lambda unit, row: row["value"]
    ),
) -> Tuple[List[SweepRun], RunStats, str]:
    """Reduce result rows computed elsewhere into full sweep runs.

    ``rows`` maps a unit's engine-free :meth:`UnitTask.address` to a row
    with ``engine``, ``seconds`` and optionally ``cached`` (default
    true); ``load(unit, row)`` returns the unit's value, once per unique
    address in submission order.  Every unique unit of the expanded
    sweeps must have a row and all its rows must share one engine, else
    ``error`` is raised; the message names what was ``missing_from``
    with the first three missing units and ``missing_hint``, or the
    ``producers`` (rows, re-runnable source) that mixed engines.
    Reduction goes through :func:`reduce_sweeps`, so the cell rows are
    byte-identical to a local run under the same engine.  Returns the
    sweep runs, ``RunStats`` labelled ``backend`` and the engine.
    """
    units, slices = expand_sweeps(sweeps)
    addresses: Dict[UnitTask, str] = {}
    missing: List[UnitTask] = []
    for unit in units:
        if unit in addresses:
            continue
        address = unit.address()
        addresses[unit] = address
        if address not in rows:
            missing.append(unit)
    if missing:
        preview = ", ".join(
            f"{unit.task.rsplit(':', 1)[-1]}({json.dumps(unit.kwargs, sort_keys=True)})"
            for unit in missing[:3]
        )
        raise error(
            f"{len(missing)} of {len(addresses)} unique unit task(s) "
            f"{missing_from} (first: {preview}); {missing_hint}"
        )

    engines = sorted({str(rows[address]["engine"]) for address in addresses.values()})
    if len(engines) > 1:
        raise error(
            f"{producers[0]} mix evaluation engines {engines}; re-run the "
            f"{producers[1]} under one engine (see docs/ENGINE.md)"
        )

    values = {address: load(unit, rows[address]) for unit, address in addresses.items()}
    results: List[UnitResult] = []
    for unit in units:
        address = addresses[unit]
        results.append(
            UnitResult(
                task=unit.task,
                params=unit.kwargs,
                value=values[address],
                cached=bool(rows[address].get("cached", True)),
                seconds=rows[address]["seconds"],
            )
        )
    stats = RunStats(
        total_units=len(units),
        unique_units=len(addresses),
        executed=0,
        cache_hits=len(addresses),
        jobs=1,
        backend=backend,
        executed_seconds=float(sum(rows[address]["seconds"] for address in values)),
    )
    return reduce_sweeps(slices, results), stats, engines[0]


def run_sweeps(
    sweeps: Sequence[SweepSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    backend: str = "process",
    cost_model: Optional[Any] = None,
) -> Tuple[List[SweepRun], RunStats]:
    """Expand, execute (one shared pool), and reduce a batch of sweeps."""
    units, slices = expand_sweeps(sweeps)
    results, stats = run_units(
        units, jobs=jobs, cache=cache, backend=backend, cost_model=cost_model
    )
    return reduce_sweeps(slices, results), stats


def run_sweep(
    sweep: SweepSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    backend: str = "process",
    cost_model: Optional[Any] = None,
) -> Tuple[SweepRun, RunStats]:
    """Convenience wrapper for a single sweep."""
    runs, stats = run_sweeps(
        [sweep], jobs=jobs, cache=cache, backend=backend, cost_model=cost_model
    )
    return runs[0], stats


def sweep_cells(
    sweep: SweepSpec, jobs: int = 1, backend: str = "process"
) -> List[CellResult]:
    """Uncached, in-order cell rows for one sweep (library entry point)."""
    run, _ = run_sweep(sweep, jobs=jobs, cache=None, backend=backend)
    return run.cells


def unit_timings(sweep_runs: Sequence[SweepRun]) -> Dict[str, List[Dict[str, Any]]]:
    """Per-unit wall-clock rows keyed by scenario id (for ``meta.json``).

    Cached units report ``seconds = 0``; the rows are what future
    adaptive chunking needs to size work units.
    """
    timings: Dict[str, List[Dict[str, Any]]] = {}
    for sweep_run in sweep_runs:
        for scenario_run in sweep_run.scenario_runs:
            rows = [
                {
                    "task": result.task,
                    "params": result.params,
                    "seconds": round(result.seconds, 6),
                    "cached": result.cached,
                }
                for result in scenario_run.results
            ]
            timings[scenario_run.spec.scenario_id] = rows
    return timings


def timing_summary(
    sweep_runs: Sequence[SweepRun],
) -> Dict[str, Dict[str, Any]]:
    """Per-scenario timing percentiles for ``meta.json``.

    Summarizes only *executed* units (cache hits report zero seconds and
    would drag every percentile to 0); nearest-rank P50/P95 plus totals,
    so artifact consumers get tail latency without re-aggregating the
    raw ``unit_timings`` rows.
    """
    summary: Dict[str, Dict[str, Any]] = {}
    for sweep_run in sweep_runs:
        for scenario_run in sweep_run.scenario_runs:
            executed = sorted(
                result.seconds
                for result in scenario_run.results
                if not result.cached
            )
            row: Dict[str, Any] = {
                "units": len(scenario_run.results),
                "executed": len(executed),
                "cached": len(scenario_run.results) - len(executed),
                "total_seconds": round(sum(executed), 6),
            }
            if executed:
                row["p50_seconds"] = round(nearest_rank(executed, 50), 6)
                row["p95_seconds"] = round(nearest_rank(executed, 95), 6)
                row["max_seconds"] = round(executed[-1], 6)
            summary[scenario_run.spec.scenario_id] = row
    return summary
