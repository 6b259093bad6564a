"""Strategy-space enumeration with explosion guards.

A pure strategy of agent ``i`` is a tuple of actions aligned with her type
list.  Enumeration restricts, per type, to the game's feasible actions, and
fixes an arbitrary feasible action at *zero-probability* types: those
entries never influence any cost, so the restriction loses nothing while
shrinking the space drastically (several constructions have large type
spaces with tiny prior support).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List

from .._util import ExplosionError, product_size
from .game import Action, BayesianGame, Strategy, StrategyProfile

#: Default guard on the number of strategy profiles enumerated at once.
DEFAULT_MAX_PROFILES = 2_000_000


def per_type_choices(game: BayesianGame, agent: int) -> List[List[Action]]:
    """The actions enumerated for ``agent`` at each type position.

    Positive-probability types keep their full feasible list;
    zero-probability types are pinned to the first feasible action (see
    module docstring).  This is the single source of the truncation
    rule, shared by the enumeration below and the tensor engine's
    mixed-radix strategy encoding (:mod:`repro.core.tensor`).
    """
    positive = set(game.prior.positive_types(agent))
    choices: List[List[Action]] = []
    for ti in game.types(agent):
        feasible = game.feasible_actions(agent, ti)
        choices.append(feasible if ti in positive else feasible[:1])
    return choices


def strategy_space_size(game: BayesianGame, agent: int) -> float:
    """Number of distinct strategies enumerated for ``agent``.

    Only positive-probability types contribute branching.
    """
    return product_size(
        len(choices) for choices in per_type_choices(game, agent)
    )


def profile_space_size(game: BayesianGame) -> float:
    """Number of strategy profiles enumerated for the full game."""
    return product_size(
        int(strategy_space_size(game, agent)) for agent in range(game.num_agents)
    )


def enumerate_strategies(game: BayesianGame, agent: int) -> Iterator[Strategy]:
    """All tuple-encoded strategies of ``agent`` (see module docstring)."""
    for combo in product(*per_type_choices(game, agent)):
        yield tuple(combo)


def enumerate_strategy_profiles(
    game: BayesianGame,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> Iterator[StrategyProfile]:
    """All strategy profiles, guarded by ``max_profiles``."""
    size = profile_space_size(game)
    if size > max_profiles:
        raise ExplosionError("strategy profiles", size, max_profiles)
    spaces = [list(enumerate_strategies(game, agent)) for agent in range(game.num_agents)]
    for combo in product(*spaces):
        yield tuple(combo)


def greedy_strategy_profile(game: BayesianGame) -> StrategyProfile:
    """A cheap starting profile: every type plays its first feasible
    action (``game.feasible_actions(agent, ti)[0]``); no cost is
    evaluated.

    Used to seed best-response dynamics; any feasible profile would do.
    """
    profile: List[Strategy] = []
    for agent in range(game.num_agents):
        picks: List[Action] = []
        for ti in game.types(agent):
            feasible = game.feasible_actions(agent, ti)
            picks.append(feasible[0])
        profile.append(tuple(picks))
    return tuple(profile)


def replace_strategy_action(
    game: BayesianGame,
    strategies: StrategyProfile,
    agent: int,
    ti,
    action: Action,
) -> StrategyProfile:
    """Profile equal to ``strategies`` except ``agent`` plays ``action`` at ``ti``."""
    position = game.type_position(agent, ti)
    strategy = list(strategies[agent])
    strategy[position] = action
    updated = list(strategies)
    updated[agent] = tuple(strategy)
    return tuple(updated)
