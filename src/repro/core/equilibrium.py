"""Nash and Bayesian equilibria: verification, enumeration, dynamics.

All equilibrium notions here are *pure*, following the paper: the model
restricts attention to Bayesian games that admit pure Bayesian equilibria
and whose underlying games admit pure Nash equilibria (guaranteed for
potential games, hence for all NCS games).

The complete-information (underlying-game) functions are per-profile
Python loops.  A lowered Bayesian game (:mod:`repro.core.tensor`) serves
the same per-state quantities from its cost blocks, with these loops as
the parity oracle (see ``tests/core/test_tensor_parity.py``).  The
Bayesian-level entry points are thin wrappers over one-shot
:class:`~repro.core.session.GameSession` objects, which dispatch to the
lowered engine and share its enumeration — hold a session (or use
:func:`repro.core.session.evaluate`) when computing several measures of
one game.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, List, Optional, Tuple

from .._util import ExplosionError, lt, product_size
from . import tensor
from .game import (
    Action,
    ActionProfile,
    BayesianGame,
    StrategyProfile,
    UnderlyingGame,
)
from .strategy import DEFAULT_MAX_PROFILES

#: Guard on the number of action profiles enumerated in an underlying game
#: (defined next to the lowering guards; value unchanged).
DEFAULT_MAX_ACTION_PROFILES = tensor.DEFAULT_MAX_ACTION_PROFILES


# ----------------------------------------------------------------------
# Complete-information (underlying) games
# ----------------------------------------------------------------------

def best_response_value(
    game: UnderlyingGame, agent: int, actions: ActionProfile
) -> Tuple[Action, float]:
    """The best deviation of ``agent`` against ``actions`` and its cost."""
    best_action: Optional[Action] = None
    best_cost = float("inf")
    mutable = list(actions)
    for candidate in game.actions(agent):
        mutable[agent] = candidate
        cost = game.cost(agent, tuple(mutable))
        if cost < best_cost:
            best_cost = cost
            best_action = candidate
    if best_action is None:  # pragma: no cover - feasible sets are non-empty
        raise RuntimeError("agent has no actions")
    return best_action, best_cost


def is_nash_equilibrium(game: UnderlyingGame, actions: ActionProfile) -> bool:
    """True when no agent can strictly improve by a unilateral deviation.

    Comparisons use the package tolerance, so ties are equilibria.
    """
    for agent in range(game.num_agents):
        current = game.cost(agent, actions)
        _, best = best_response_value(game, agent, actions)
        if lt(best, current):
            return False
    return True


def enumerate_action_profiles(
    game: UnderlyingGame,
    max_profiles: int = DEFAULT_MAX_ACTION_PROFILES,
) -> Iterator[ActionProfile]:
    """All feasible action profiles of the underlying game, guarded."""
    spaces = [game.actions(agent) for agent in range(game.num_agents)]
    size = product_size(len(space) for space in spaces)
    if size > max_profiles:
        raise ExplosionError("action profiles", size, max_profiles)
    for combo in product(*spaces):
        yield tuple(combo)


def enumerate_nash_equilibria(
    game: UnderlyingGame,
    max_profiles: int = DEFAULT_MAX_ACTION_PROFILES,
) -> List[ActionProfile]:
    """All pure Nash equilibria (over feasible action profiles)."""
    return [
        actions
        for actions in enumerate_action_profiles(game, max_profiles)
        if is_nash_equilibrium(game, actions)
    ]


def nash_extreme_costs(
    game: UnderlyingGame,
    max_profiles: int = DEFAULT_MAX_ACTION_PROFILES,
) -> Tuple[float, float]:
    """``(best, worst)`` social cost over all pure Nash equilibria.

    Raises ``RuntimeError`` when the underlying game has no pure Nash
    equilibrium (outside the paper's model).
    """
    best = float("inf")
    worst = float("-inf")
    found = False
    for actions in enumerate_action_profiles(game, max_profiles):
        if is_nash_equilibrium(game, actions):
            cost = game.social_cost(actions)
            best = min(best, cost)
            worst = max(worst, cost)
            found = True
    if not found:
        raise RuntimeError(
            f"underlying game {game!r} has no pure Nash equilibrium"
        )
    return best, worst


def complete_best_response_dynamics(
    game: UnderlyingGame,
    initial: Optional[ActionProfile] = None,
    max_rounds: int = 10_000,
) -> ActionProfile:
    """Iterated strict best responses until a fixed point (Nash).

    Converges whenever the game admits an (exact) potential; raises
    ``RuntimeError`` after ``max_rounds`` full sweeps without convergence.
    """
    if initial is None:
        actions = tuple(game.actions(agent)[0] for agent in range(game.num_agents))
    else:
        actions = tuple(initial)
    for _ in range(max_rounds):
        changed = False
        for agent in range(game.num_agents):
            current = game.cost(agent, actions)
            best_action, best_cost = best_response_value(game, agent, actions)
            if lt(best_cost, current):
                mutable = list(actions)
                mutable[agent] = best_action
                actions = tuple(mutable)
                changed = True
        if not changed:
            return actions
    raise RuntimeError("best-response dynamics did not converge")


# ----------------------------------------------------------------------
# Bayesian games
# ----------------------------------------------------------------------

def interim_best_response(
    game: BayesianGame,
    agent: int,
    ti,
    strategies: StrategyProfile,
) -> Tuple[Action, float]:
    """Best action of ``agent`` at type ``ti`` against ``strategies``.

    A one-shot session call: dispatches to the tensor engine's
    precomputed conditional expected-cost tables when the game lowers
    and the inputs encode (positive type, cataloged actions), with the
    reference candidate scan — same values, same first-feasible
    tie-break — as the fallback.
    """
    from .session import GameSession

    return GameSession(game).interim_best_response(agent, ti, strategies)


def is_bayesian_equilibrium(game: BayesianGame, strategies: StrategyProfile) -> bool:
    """Interim characterization: no type of any agent strictly gains.

    Only positive-probability types are checked (deviations elsewhere do
    not change ex-ante costs), matching the paper's definition.
    """
    for agent in range(game.num_agents):
        for ti in game.prior.positive_types(agent):
            current = game.interim_cost(agent, ti, strategies)
            _, best = interim_best_response(game, agent, ti, strategies)
            if lt(best, current):
                return False
    return True


def enumerate_bayesian_equilibria(
    game: BayesianGame,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> List[StrategyProfile]:
    """All pure Bayesian equilibria (over the restricted strategy space).

    A one-shot session call; hold a
    :class:`~repro.core.session.GameSession` to share the enumeration
    with other measures of the same game.
    """
    from .session import GameSession

    return GameSession(game, max_strategy_profiles=max_profiles).bayesian_equilibria()


def bayesian_equilibrium_extreme_costs(
    game: BayesianGame,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> Tuple[float, float]:
    """``(best-eqP, worst-eqP)``: extreme social costs over Bayesian equilibria."""
    from .session import GameSession

    return GameSession(
        game, max_strategy_profiles=max_profiles
    ).equilibrium_extreme_costs()


def bayesian_best_response_dynamics(
    game: BayesianGame,
    initial: Optional[StrategyProfile] = None,
    max_rounds: int = 10_000,
) -> StrategyProfile:
    """Interim best-response dynamics to a Bayesian equilibrium.

    Sweeps over (agent, positive type) pairs applying strict improvements.
    Converges whenever the game admits a Bayesian potential (Observation
    2.1); raises ``RuntimeError`` otherwise after ``max_rounds`` sweeps.

    On lowerable games the whole loop runs on the tensor engine — one
    vectorized argmin over each type's feasible-action axis per step,
    against precomputed conditional expected-cost tables — and visits the
    identical profile sequence as the reference sweep (bit-equal interim
    costs, same tie-breaks, same cycle/non-convergence behavior).  A
    one-shot session call; sessions share the lowering and the
    conditional tables with the other measures.
    """
    from .session import GameSession

    return GameSession(game).best_response_dynamics(
        initial=initial, max_rounds=max_rounds
    )
