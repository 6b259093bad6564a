"""Differential harness: every public measure under both engines.

``run_battery`` evaluates one game through the complete public surface —
Bayesian equilibrium enumeration and extreme costs, ``optP``/``optC``,
``eq_c``, the full ignorance report, per-state Nash analysis and
complete-information dynamics, interim best responses, and the interim
best-response dynamics — capturing values *and* raised exceptions.
``check_spec`` runs the battery once with the engine pinned to
``reference`` and once with the tensor engine and demands **exact**
agreement: identical equilibrium sets and profiles, bit-equal floats,
matching exception types and messages (the tensor kernels replay the
reference fold order, so nothing weaker is needed).

On a mismatch, :func:`minimize` greedily shrinks the game (drop support
states / actions / unused types) while the disagreement persists, and
:func:`format_failure` renders the minimized game as a self-contained
repro.

:func:`check_session_spec` is the facade-level analogue: the same game
evaluated once through the free functions and once through a *single
shared* :class:`~repro.core.session.GameSession` (every measure a
``session.evaluate`` query, so memoized sweeps/lowerings actually get
reused across the battery), under both engines, demanding the same
exact agreement — values and exceptions alike.

:func:`check_batch_specs` is the batch-engine analogue: a whole batch of
fuzzed games evaluated through ``BatchSession.evaluate_many`` — once
with ``kernels="loop"`` (the per-game path) and once with
``kernels="auto"`` (the structure-of-arrays kernels) — against the
free-function baseline, per game, under both engines.  Values *and*
captured exceptions must be identical in all three columns; a mismatch
shrinks the offending game as a singleton batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro._util import ExplosionError
from repro.core import (
    BayesianGame,
    bayesian_best_response_dynamics,
    bayesian_equilibrium_extreme_costs,
    complete_best_response_dynamics,
    engine_override,
    enumerate_bayesian_equilibria,
    enumerate_nash_equilibria,
    eq_c,
    ignorance_report,
    interim_best_response,
    nash_extreme_costs,
    opt_c,
    opt_p,
    state_optimum,
)
from repro.core.session import BatchSession, GameSession, query
from repro.core.strategy import greedy_strategy_profile

from fuzz_games import TabularGameSpec, shrink_candidates

#: Sweep cap for the dynamics probes: bounds cycling games while leaving
#: plenty of room for genuine convergence on these tiny instances.
DYNAMICS_MAX_ROUNDS = 60

Outcome = Tuple[str, object]


def _outcome(fn: Callable[[], object]) -> Outcome:
    """Run ``fn``, folding raised exceptions into the comparable result."""
    try:
        return ("ok", fn())
    except ExplosionError as error:
        return ("explosion", str(error))
    except RuntimeError as error:
        return ("runtime-error", str(error))
    except AssertionError as error:
        return ("assertion", str(error))
    except ValueError as error:
        return ("value-error", str(error))


def random_profiles(spec: TabularGameSpec, seed: int = 0):
    """Deterministic extra starting points, shared by both engine runs.

    One random strategy profile (actions drawn from each type's feasible
    list) plus one random per-state action profile — the seeds for the
    non-default dynamics and best-response probes.
    """
    rng = np.random.default_rng((0xFA22, 3, seed))
    strategy_profile = []
    for agent in range(spec.num_agents):
        per_type = []
        for ti in spec.type_spaces[agent]:
            feasible = spec.feasible[(agent, ti)]
            per_type.append(feasible[int(rng.integers(len(feasible)))])
        strategy_profile.append(tuple(per_type))
    state_initials = []
    for profile, _ in spec.support:
        actions = []
        for agent in range(spec.num_agents):
            feasible = spec.feasible[(agent, profile[agent])]
            actions.append(feasible[int(rng.integers(len(feasible)))])
        state_initials.append(tuple(actions))
    return tuple(strategy_profile), state_initials


def run_battery(spec: TabularGameSpec, game: BayesianGame) -> Dict[str, Outcome]:
    """Every public measure of ``game``, keyed for comparison."""
    results: Dict[str, Outcome] = {}
    results["equilibria"] = _outcome(lambda: enumerate_bayesian_equilibria(game))
    results["eq_extremes"] = _outcome(
        lambda: bayesian_equilibrium_extreme_costs(game)
    )
    results["opt_p"] = _outcome(lambda: opt_p(game))
    results["opt_c"] = _outcome(lambda: opt_c(game))
    results["eq_c"] = _outcome(lambda: eq_c(game))
    results["report"] = _outcome(lambda: ignorance_report(game).as_dict())

    random_strategies, state_initials = random_profiles(spec)
    results["bayes_dynamics"] = _outcome(
        lambda: bayesian_best_response_dynamics(
            game, max_rounds=DYNAMICS_MAX_ROUNDS
        )
    )
    results["bayes_dynamics_random"] = _outcome(
        lambda: bayesian_best_response_dynamics(
            game, initial=random_strategies, max_rounds=DYNAMICS_MAX_ROUNDS
        )
    )

    greedy = greedy_strategy_profile(game)
    for agent in range(game.num_agents):
        for ti in game.prior.positive_types(agent):
            results[f"interim_br[{agent},{ti!r},greedy]"] = _outcome(
                lambda a=agent, t=ti: interim_best_response(game, a, t, greedy)
            )
            results[f"interim_br[{agent},{ti!r},random]"] = _outcome(
                lambda a=agent, t=ti: interim_best_response(
                    game, a, t, random_strategies
                )
            )

    for index, (profile, _) in enumerate(spec.support):
        underlying = game.underlying_game(profile)
        results[f"nash[{index}]"] = _outcome(
            lambda g=underlying: enumerate_nash_equilibria(g)
        )
        results[f"nash_extremes[{index}]"] = _outcome(
            lambda g=underlying: nash_extreme_costs(g)
        )
        results[f"state_opt[{index}]"] = _outcome(
            lambda p=profile: state_optimum(game, p)
        )
        results[f"complete_dynamics[{index}]"] = _outcome(
            lambda g=underlying: complete_best_response_dynamics(
                g, max_rounds=DYNAMICS_MAX_ROUNDS
            )
        )
        results[f"complete_dynamics_random[{index}]"] = _outcome(
            lambda g=underlying, a=state_initials[index]: (
                complete_best_response_dynamics(
                    g, initial=a, max_rounds=DYNAMICS_MAX_ROUNDS
                )
            )
        )
    return results


def run_session_battery(
    spec: TabularGameSpec, game: BayesianGame
) -> Dict[str, Outcome]:
    """The session-facade slice of :func:`run_battery`, same keys.

    One shared :class:`GameSession` answers everything — measure values
    as ``evaluate`` queries (so the planner and the memoized sweep are
    in play), interim/dynamics probes as session methods — which is
    exactly the reuse the free-function battery never exercises.
    """
    session = GameSession(game)

    def outcome(measure: str, **params) -> Outcome:
        return _outcome(lambda: session.evaluate([query(measure, **params)])[0])

    results: Dict[str, Outcome] = {}
    results["equilibria"] = outcome("equilibria")
    results["eq_extremes"] = outcome("eq_p")
    results["opt_p"] = outcome("opt_p")
    results["opt_c"] = outcome("opt_c")
    results["eq_c"] = outcome("eq_c")
    results["report"] = _outcome(
        lambda: session.evaluate([query("ignorance_report")])[0].as_dict()
    )

    random_strategies, _ = random_profiles(spec)
    results["bayes_dynamics"] = outcome("dynamics", max_rounds=DYNAMICS_MAX_ROUNDS)
    results["bayes_dynamics_random"] = outcome(
        "dynamics", initial=random_strategies, max_rounds=DYNAMICS_MAX_ROUNDS
    )

    greedy = greedy_strategy_profile(game)
    for agent in range(game.num_agents):
        for ti in game.prior.positive_types(agent):
            results[f"interim_br[{agent},{ti!r},greedy]"] = _outcome(
                lambda a=agent, t=ti: session.interim_best_response(a, t, greedy)
            )
            results[f"interim_br[{agent},{ti!r},random]"] = _outcome(
                lambda a=agent, t=ti: session.interim_best_response(
                    a, t, random_strategies
                )
            )

    for index, (profile, _) in enumerate(spec.support):
        results[f"state_opt[{index}]"] = outcome("state_optimum", profile=profile)
    return results


@dataclass
class SessionMismatch:
    """One facade disagreement: free functions vs the shared session."""

    spec: TabularGameSpec
    engine: str
    disagreements: List[Tuple[str, Outcome, Outcome]]

    def describe(self) -> str:
        lines = [
            f"session facade mismatch under engine {self.engine!r} on "
            f"{self.spec.meta or self.spec.name}:",
        ]
        for key, free, session in self.disagreements:
            lines.append(f"  {key}:")
            lines.append(f"    free functions: {free!r}")
            lines.append(f"    session:        {session!r}")
        return "\n".join(lines)


def check_session_spec(spec: TabularGameSpec) -> Optional[SessionMismatch]:
    """Free-function battery vs one shared session, under both engines.

    Fresh game builds per run keep cached lowerings from leaking between
    the paths; agreement must be exact (bit-equal floats, identical
    profiles, matching exception types and messages).
    """
    for engine in ("auto", "reference"):
        with engine_override(engine):
            free = run_battery(spec, spec.build())
            session = run_session_battery(spec, spec.build())
        disagreements = [
            (key, free[key], session[key])
            for key in session
            if free[key] != session[key]
        ]
        if disagreements:
            return SessionMismatch(
                spec=spec, engine=engine, disagreements=disagreements
            )
    return None


#: The batch bundle, in wire order: every sweep-backed measure, the scan
#: measures, the full report, and the interim dynamics.
BATCH_KEYS: Tuple[str, ...] = (
    "equilibria",
    "eq_p",
    "opt_p",
    "opt_c",
    "eq_c",
    "report",
    "dynamics",
)


def _batch_bundle() -> List[object]:
    return [
        query("equilibria"),
        query("eq_p"),
        query("opt_p"),
        query("opt_c"),
        query("eq_c"),
        query("ignorance_report"),
        query("dynamics", max_rounds=DYNAMICS_MAX_ROUNDS),
    ]


def run_free_bundle(game: BayesianGame) -> List[Outcome]:
    """The batch bundle answered by the free functions, one game."""
    return [
        _outcome(lambda: enumerate_bayesian_equilibria(game)),
        _outcome(lambda: bayesian_equilibrium_extreme_costs(game)),
        _outcome(lambda: opt_p(game)),
        _outcome(lambda: opt_c(game)),
        _outcome(lambda: eq_c(game)),
        _outcome(lambda: ignorance_report(game).as_dict()),
        _outcome(
            lambda: bayesian_best_response_dynamics(
                game, max_rounds=DYNAMICS_MAX_ROUNDS
            )
        ),
    ]


def _cell_outcome(key: str, value: object) -> Outcome:
    """Fold one captured ``evaluate_many`` cell into a comparable outcome."""
    if isinstance(value, ExplosionError):
        return ("explosion", str(value))
    if isinstance(value, AssertionError):
        return ("assertion", str(value))
    if isinstance(value, ValueError):
        return ("value-error", str(value))
    if isinstance(value, RuntimeError):
        return ("runtime-error", str(value))
    if key == "report":
        return ("ok", value.as_dict())
    return ("ok", value)


def _batch_rows(
    specs: List[TabularGameSpec], engine: str, kernels: str
) -> List[List[Outcome]]:
    """One ``evaluate_many`` over fresh builds of ``specs``, folded."""
    with engine_override(engine):
        batch = BatchSession.from_sessions(
            [GameSession(spec.build()) for spec in specs]
        )
        rows = batch.evaluate_many(
            _batch_bundle(), kernels=kernels, on_error="capture"
        )
    return [
        [_cell_outcome(key, value) for key, value in zip(BATCH_KEYS, row)]
        for row in rows
    ]


@dataclass
class BatchMismatch:
    """One batch disagreement: free vs looped vs SoA on one game."""

    spec: TabularGameSpec
    engine: str
    game_index: int
    disagreements: List[Tuple[str, Outcome, Outcome, Outcome]]

    def describe(self) -> str:
        lines = [
            f"batch engine mismatch under engine {self.engine!r} on "
            f"game #{self.game_index} "
            f"({self.spec.meta or self.spec.name}):",
        ]
        for key, free, looped, soa in self.disagreements:
            lines.append(f"  {key}:")
            lines.append(f"    free functions: {free!r}")
            lines.append(f"    kernels='loop': {looped!r}")
            lines.append(f"    kernels='auto': {soa!r}")
        return "\n".join(lines)


def check_batch_specs(
    specs: List[TabularGameSpec],
) -> Optional[BatchMismatch]:
    """Free functions vs looped vs SoA batch kernels, per game.

    All three columns use fresh game builds (no cached lowerings leak
    between paths) and fold exceptions into comparable outcome tags, so
    agreement covers error semantics too — a game that must raise inside
    an otherwise-healthy batch has to raise identically in every column.
    """
    for engine in ("auto", "reference"):
        with engine_override(engine):
            free = [run_free_bundle(spec.build()) for spec in specs]
        looped = _batch_rows(specs, engine, "loop")
        soa = _batch_rows(specs, engine, "auto")
        for index, spec in enumerate(specs):
            disagreements = [
                (key, f, l, s)
                for key, f, l, s in zip(
                    BATCH_KEYS, free[index], looped[index], soa[index]
                )
                if not (f == l == s)
            ]
            if disagreements:
                return BatchMismatch(
                    spec=spec,
                    engine=engine,
                    game_index=index,
                    disagreements=disagreements,
                )
    return None


def minimize_batch(
    mismatch: BatchMismatch, max_steps: int = 200
) -> BatchMismatch:
    """Shrink a batch failure as a singleton batch (same greedy loop)."""
    current = mismatch
    for _ in range(max_steps):
        for candidate in shrink_candidates(current.spec):
            smaller = check_batch_specs([candidate])
            if smaller is not None:
                current = smaller
                break
        else:
            return current
    return current


@dataclass
class Mismatch:
    """One differential failure: the keys the engines disagree on."""

    spec: TabularGameSpec
    disagreements: List[Tuple[str, Outcome, Outcome]]

    def keys(self) -> List[str]:
        return [key for key, _, _ in self.disagreements]


def check_spec(spec: TabularGameSpec) -> Optional[Mismatch]:
    """Run the battery under both engines on fresh builds; compare exactly."""
    with engine_override("reference"):
        reference = run_battery(spec, spec.build())
    with engine_override("auto"):
        tensorized = run_battery(spec, spec.build())
    disagreements = [
        (key, reference[key], tensorized[key])
        for key in reference
        if reference[key] != tensorized[key]
    ]
    if disagreements:
        return Mismatch(spec=spec, disagreements=disagreements)
    return None


def minimize(mismatch: Mismatch, max_steps: int = 200) -> Mismatch:
    """Greedy structural shrink of a failing game.

    Repeatedly applies the first candidate from
    :func:`fuzz_games.shrink_candidates` that still disagrees, until no
    candidate does (a local minimum) or ``max_steps`` shrinks happened.
    """
    current = mismatch
    for _ in range(max_steps):
        for candidate in shrink_candidates(current.spec):
            smaller = check_spec(candidate)
            if smaller is not None:
                current = smaller
                break
        else:
            return current
    return current


def format_failure(seed: int, original: Mismatch, minimized: Mismatch) -> str:
    """A report with the disagreeing measures and a minimized repro."""
    lines = [
        f"engine parity mismatch for fuzz seed {seed}",
        f"original game: {original.spec.meta or original.spec.name} — "
        f"disagreeing measures: {original.keys()}",
        "",
        "minimized repro "
        f"({len(minimized.spec.support)} support state(s)):",
        minimized.spec.describe(),
        "",
        "disagreements on the minimized game:",
    ]
    for key, reference, tensorized in minimized.disagreements:
        lines.append(f"  {key}:")
        lines.append(f"    reference: {reference!r}")
        lines.append(f"    tensor:    {tensorized!r}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the lazy battery: reference vs dense kernels vs lazy kernels
# ----------------------------------------------------------------------

#: Deliberately tiny block-cache budget for the lazy column: a handful of
#: cells forces eviction churn *during* every battery (blocks drop and
#: re-materialize mid-measure), so agreement also proves re-tabulated
#: blocks are bit-identical to evicted ones.
LAZY_FUZZ_CACHE_CELLS = 64


def _explosion_outcome(fn: Callable[[], object]) -> Outcome:
    """Like :func:`_outcome` but keeps the structured ``ExplosionError``
    payload — the lazy path must carry identical ``(what, size, limit)``
    data, not merely an identical message."""
    try:
        return ("ok", fn())
    except ExplosionError as error:
        return ("explosion", (str(error), error.what, error.size, error.limit))
    except RuntimeError as error:
        return ("runtime-error", str(error))


def run_reference_lazy_battery(
    spec: TabularGameSpec, game: BayesianGame
) -> Dict[str, Outcome]:
    """The kernel-comparable slice of the reference battery (same keys
    as :func:`run_kernel_battery`); callers pin the reference engine."""
    results: Dict[str, Outcome] = {}
    results["equilibria"] = _outcome(lambda: enumerate_bayesian_equilibria(game))
    results["eq_extremes"] = _outcome(
        lambda: bayesian_equilibrium_extreme_costs(game)
    )
    results["opt_p"] = _outcome(lambda: opt_p(game))
    results["opt_c"] = _outcome(lambda: opt_c(game))
    results["eq_c"] = _outcome(lambda: eq_c(game))
    results["explosion_guard"] = _explosion_outcome(
        lambda: opt_p(game, max_profiles=0)
    )
    random_strategies, _ = random_profiles(spec)
    results["bayes_dynamics"] = _outcome(
        lambda: bayesian_best_response_dynamics(
            game, max_rounds=DYNAMICS_MAX_ROUNDS
        )
    )
    results["bayes_dynamics_random"] = _outcome(
        lambda: bayesian_best_response_dynamics(
            game, initial=random_strategies, max_rounds=DYNAMICS_MAX_ROUNDS
        )
    )
    greedy = greedy_strategy_profile(game)
    for agent in range(game.num_agents):
        for ti in game.prior.positive_types(agent):
            results[f"interim_br[{agent},{ti!r},greedy]"] = _outcome(
                lambda a=agent, t=ti: interim_best_response(game, a, t, greedy)
            )
            results[f"interim_br[{agent},{ti!r},random]"] = _outcome(
                lambda a=agent, t=ti: interim_best_response(
                    game, a, t, random_strategies
                )
            )
    return results


def run_kernel_battery(spec: TabularGameSpec, lowered) -> Dict[str, Outcome]:
    """Every kernel a lowering exposes, keyed like the reference slice.

    ``lowered`` is a ``TensorGame`` over either block store — both
    run the same kernels, so one battery serves both columns.  The
    sweep-backed measures come from a fresh :class:`GameSession` per key
    that holds ``lowered``, so each key runs its own sweep on that store.
    """
    game = lowered.game

    def session() -> GameSession:
        fresh = GameSession(game)
        fresh._lowered_entry = (lowered,)
        return fresh

    results: Dict[str, Outcome] = {}
    results["equilibria"] = _outcome(lambda: session().bayesian_equilibria())
    results["eq_extremes"] = _outcome(lambda: session().equilibrium_extreme_costs())
    results["opt_p"] = _outcome(lambda: session().opt_p())
    results["opt_c"] = _outcome(lambda: lowered.opt_c())
    results["eq_c"] = _outcome(lambda: lowered.eq_c())
    results["explosion_guard"] = _explosion_outcome(
        lambda: lowered.sweep_profiles(max_profiles=0)
    )
    random_strategies, _ = random_profiles(spec)
    greedy = greedy_strategy_profile(game)
    results["bayes_dynamics"] = _outcome(
        lambda: lowered.best_response_dynamics(greedy, DYNAMICS_MAX_ROUNDS)
    )
    results["bayes_dynamics_random"] = _outcome(
        lambda: lowered.best_response_dynamics(
            random_strategies, DYNAMICS_MAX_ROUNDS
        )
    )
    for agent in range(game.num_agents):
        for ti in game.prior.positive_types(agent):
            results[f"interim_br[{agent},{ti!r},greedy]"] = _outcome(
                lambda a=agent, t=ti: lowered.interim_best_response(
                    a, t, greedy
                )
            )
            results[f"interim_br[{agent},{ti!r},random]"] = _outcome(
                lambda a=agent, t=ti: lowered.interim_best_response(
                    a, t, random_strategies
                )
            )
    return results


@dataclass
class LazyMismatch:
    """One three-way disagreement: reference vs dense vs lazy kernels."""

    spec: TabularGameSpec
    disagreements: List[Tuple[str, Outcome, Outcome, Outcome]]

    def keys(self) -> List[str]:
        return [key for key, _, _, _ in self.disagreements]

    def describe(self) -> str:
        lines = [
            "lazy lowering mismatch on "
            f"{self.spec.meta or self.spec.name}:",
        ]
        for key, reference, dense, lazy in self.disagreements:
            lines.append(f"  {key}:")
            lines.append(f"    reference:     {reference!r}")
            lines.append(f"    dense kernels: {dense!r}")
            lines.append(f"    lazy kernels:  {lazy!r}")
        return "\n".join(lines)


def check_lazy_spec(
    spec: TabularGameSpec, cache_cells: int = LAZY_FUZZ_CACHE_CELLS
) -> Optional[LazyMismatch]:
    """Reference vs dense kernels vs lazy kernels, exact agreement.

    Fresh game builds per column keep cached lowerings (and cost-callback
    memoization on the game object) from leaking between paths.  Games
    the dense tier refuses are skipped (``None`` — nothing to compare
    three ways); the lazy column runs under a deliberately tiny block
    cache so blocks evict and re-materialize mid-battery.
    """
    from repro.core.lazy import lower_game_lazy
    from repro.core.tensor import lower_game

    dense = lower_game(spec.build())
    if dense is None:
        return None
    lazy = lower_game_lazy(spec.build(), cache_cells=cache_cells)
    assert lazy is not None, "dense lowering passed the shared per-state guard"
    with engine_override("reference"):
        reference = run_reference_lazy_battery(spec, spec.build())
    dense_col = run_kernel_battery(spec, dense)
    lazy_col = run_kernel_battery(spec, lazy)
    cells = sum(block.costs.size for block in lazy.store._blocks.values())
    assert lazy.store.cells == cells, (
        f"block cache accounting drifted: tracked {lazy.store.cells} cells, "
        f"resident blocks hold {cells}"
    )
    disagreements = [
        (key, reference[key], dense_col[key], lazy_col[key])
        for key in reference
        if not (reference[key] == dense_col[key] == lazy_col[key])
    ]
    if disagreements:
        return LazyMismatch(spec=spec, disagreements=disagreements)
    return None


def minimize_lazy(
    mismatch: LazyMismatch, max_steps: int = 200
) -> LazyMismatch:
    """Greedy structural shrink of a failing game (same loop as
    :func:`minimize`, re-checking the three-way lazy comparison)."""
    current = mismatch
    for _ in range(max_steps):
        for candidate in shrink_candidates(current.spec):
            smaller = check_lazy_spec(candidate)
            if smaller is not None:
                current = smaller
                break
        else:
            return current
    return current


def format_lazy_failure(
    seed: int, original: LazyMismatch, minimized: LazyMismatch
) -> str:
    """A report with the disagreeing kernels and a minimized repro."""
    lines = [
        f"lazy lowering parity mismatch for fuzz seed {seed}",
        f"original game: {original.spec.meta or original.spec.name} — "
        f"disagreeing measures: {original.keys()}",
        "",
        "minimized repro "
        f"({len(minimized.spec.support)} support state(s)):",
        minimized.spec.describe(),
        "",
        minimized.describe(),
    ]
    return "\n".join(lines)
