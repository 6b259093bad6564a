"""Declarative experiment specifications.

A :class:`ScenarioSpec` describes one homogeneous experiment cell as a
*task reference* (a ``"module:function"`` string naming a spawn-safe
top-level callable), a *parameter grid* (the sweep dimensions, e.g. ``k``
and ``seed``), *fixed* parameters, and a *reducer reference* that turns
the per-point values into :class:`~repro.analysis.table1.CellResult`
rows (the claim check lives in the reducer).  A :class:`SweepSpec`
groups the scenarios backing one experiment id.

Specs are frozen, hashable, and JSON-serializable; :meth:`spec_hash`
gives a stable content address (salted with the package version) used by
the on-disk result cache.  ``expand()`` unrolls the grid into independent
:class:`UnitTask` rows — the unit of parallel dispatch.  Each unit has
two content addresses: :meth:`UnitTask.key` (engine-salted, the cache
key) and :meth:`UnitTask.address` (engine-free, the shard scheduler's
cross-machine work-unit identity).  All addresses reduce to
:func:`canonical_digest` over canonical JSON, so two machines sharing
nothing but the repo agree on every address.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, float, str, bool, None]
FrozenParams = Tuple[Tuple[str, Scalar], ...]
FrozenGrid = Tuple[Tuple[str, Tuple[Scalar, ...]], ...]


def resolve_ref(ref: str) -> Callable[..., Any]:
    """Import the callable named by a ``"pkg.module:function"`` reference.

    String references (instead of function objects) keep specs picklable,
    hashable, and importable inside ``spawn``-ed worker processes.
    """
    module_name, sep, attr = ref.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"bad task reference {ref!r}; expected 'module:function'")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError:
        raise AttributeError(f"{module_name!r} has no attribute {attr!r}") from None
    if not callable(fn):
        raise TypeError(f"{ref!r} does not name a callable")
    return fn


def _check_scalar(value: Any, where: str) -> Scalar:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"{where}: spec parameters must be JSON scalars, got {type(value).__name__}"
    )


def _freeze_params(params: Union[Mapping[str, Scalar], FrozenParams]) -> FrozenParams:
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(
        (key, _check_scalar(value, key)) for key, value in sorted(items)
    )


def _freeze_grid(grid: Union[Mapping[str, Sequence[Scalar]], FrozenGrid]) -> FrozenGrid:
    items = grid.items() if isinstance(grid, Mapping) else grid
    frozen = []
    for key, values in sorted(items):
        values = tuple(_check_scalar(v, key) for v in values)
        if not values:
            raise ValueError(f"grid dimension {key!r} is empty")
        frozen.append((key, values))
    return tuple(frozen)


def canonical_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``.

    The one hash function behind every runtime content address: unit
    cache keys, spec hashes, and shard-plan hashes all reduce to this,
    so "same canonical JSON" and "same address" are interchangeable.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _version_salt() -> str:
    from .. import __version__

    return __version__


@dataclass(frozen=True)
class UnitTask:
    """One independent point of a scenario grid: a task plus its kwargs."""

    task: str
    params: FrozenParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def kwargs(self) -> Dict[str, Scalar]:
        return dict(self.params)

    def key(self, engine: Optional[str] = None) -> str:
        """Content address for the cache: task + params + package version
        + the evaluation engine the value is computed under.

        ``engine`` defaults to the ambient :func:`repro.core.tensor.
        get_engine`; the executor passes the submitting caller's engine
        explicitly so cached reference-path and tensor-path values can
        never alias (``tensor`` normalizes to its alias target ``auto``).
        """
        if engine is None:
            from ..core.tensor import get_engine

            engine = get_engine()
        return canonical_digest(
            {
                "task": self.task,
                "params": self.params,
                "version": _version_salt(),
                "engine": "auto" if engine == "tensor" else engine,
            }
        )

    def address(self) -> str:
        """Engine-independent content address: task + params + version.

        This is the shard scheduler's stable work-unit identity
        (:mod:`repro.runtime.shard`): machines that share nothing but
        the repo compute the same address for the same grid point, so
        shard plans and manifests can reference units without agreeing
        on an evaluation engine up front.  :meth:`key` — the *cache*
        address — is this plus the engine the value was computed under.
        """
        return canonical_digest(
            {
                "task": self.task,
                "params": self.params,
                "version": _version_salt(),
            }
        )

    def run(self) -> Any:
        """Execute the task in the current process (used by workers)."""
        return resolve_ref(self.task)(**self.kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """One homogeneous cell: (task, grid, fixed params, reducer, claim)."""

    scenario_id: str
    task: str
    reducer: str
    grid: FrozenGrid = ()
    fixed: FrozenParams = ()
    #: Reducer-only metadata (claim context); never passed to the task.
    meta: FrozenParams = ()
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _freeze_grid(self.grid))
        object.__setattr__(self, "fixed", _freeze_params(self.fixed))
        object.__setattr__(self, "meta", _freeze_params(self.meta))
        overlap = {k for k, _ in self.grid} & {k for k, _ in self.fixed}
        if overlap:
            raise ValueError(f"{self.scenario_id}: params both grid and fixed: {overlap}")

    # ------------------------------------------------------------------
    # grid expansion
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of unit tasks the grid expands into (1 for empty grids)."""
        count = 1
        for _, values in self.grid:
            count *= len(values)
        return count

    def points(self) -> List[Dict[str, Scalar]]:
        """All grid points, in deterministic (sorted-key, given-value) order."""
        keys = [key for key, _ in self.grid]
        value_lists = [values for _, values in self.grid]
        return [
            dict(zip(keys, combo)) for combo in itertools.product(*value_lists)
        ]

    def expand(self) -> List[UnitTask]:
        fixed = dict(self.fixed)
        return [
            UnitTask(task=self.task, params=_freeze_params({**fixed, **point}))
            for point in self.points()
        ]

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_grid(self, **dims: Sequence[Scalar]) -> "ScenarioSpec":
        """A copy with the given grid dimensions replaced (others kept)."""
        merged = dict(self.grid)
        for key, values in dims.items():
            if key not in merged:
                raise KeyError(
                    f"{self.scenario_id} has no grid dimension {key!r}; "
                    f"dimensions: {sorted(merged)}"
                )
            merged[key] = tuple(values)
        return replace(self, grid=_freeze_grid(merged))

    def with_fixed(self, **params: Scalar) -> "ScenarioSpec":
        merged = dict(self.fixed)
        merged.update(params)
        return replace(self, fixed=_freeze_params(merged))

    # ------------------------------------------------------------------
    # hashing / serialization
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "task": self.task,
            "reducer": self.reducer,
            "grid": [[key, list(values)] for key, values in self.grid],
            "fixed": [[key, value] for key, value in self.fixed],
            "meta": [[key, value] for key, value in self.meta],
            "description": self.description,
        }

    def spec_hash(self) -> str:
        payload = self.to_json()
        payload["version"] = _version_salt()
        return canonical_digest(payload)


@dataclass(frozen=True)
class SweepSpec:
    """A named group of scenarios backing one experiment id."""

    sweep_id: str
    scenarios: Tuple[ScenarioSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ValueError(f"sweep {self.sweep_id!r} has no scenarios")
        seen = set()
        for scenario in self.scenarios:
            if scenario.scenario_id in seen:
                raise ValueError(
                    f"sweep {self.sweep_id!r}: duplicate scenario "
                    f"{scenario.scenario_id!r}"
                )
            seen.add(scenario.scenario_id)

    @property
    def size(self) -> int:
        return sum(scenario.size for scenario in self.scenarios)

    def expand(self) -> List[UnitTask]:
        units: List[UnitTask] = []
        for scenario in self.scenarios:
            units.extend(scenario.expand())
        return units

    def with_grid(self, **dims: Sequence[Scalar]) -> "SweepSpec":
        """Override grid dimensions on every scenario that declares them."""
        scenarios = []
        for scenario in self.scenarios:
            present = {k for k, _ in scenario.grid}
            applicable = {k: v for k, v in dims.items() if k in present}
            scenarios.append(
                scenario.with_grid(**applicable) if applicable else scenario
            )
        return replace(self, scenarios=tuple(scenarios))

    def to_json(self) -> Dict[str, Any]:
        return {
            "sweep_id": self.sweep_id,
            "description": self.description,
            "scenarios": [scenario.to_json() for scenario in self.scenarios],
        }

    def spec_hash(self) -> str:
        payload = self.to_json()
        payload["version"] = _version_salt()
        return canonical_digest(payload)
