"""Benevolent (socially optimal) strategies for Bayesian NCS games.

``optP`` is a minimum over the full strategy-profile space; this module
provides the exact (guarded) computation plus a coordinate-descent
heuristic usable on instances too large to enumerate.  The heuristic is a
*benevolent* analogue of best-response dynamics: each (agent, type) entry
is iteratively replaced by the choice minimizing the **social** cost, which
converges because the social cost strictly decreases.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .._util import lt
from ..core.game import StrategyProfile
from ..core.measures import opt_p as core_opt_p
from ..core.session import GameSession
from ..core.strategy import DEFAULT_MAX_PROFILES
from .bayesian import BayesianNCSGame


def opt_p(game: BayesianNCSGame, max_profiles: int = DEFAULT_MAX_PROFILES) -> float:
    """Exact ``optP`` by enumeration (guarded)."""
    return core_opt_p(game.game, max_profiles)


def optimal_strategy_profile(
    game: BayesianNCSGame, max_profiles: int = DEFAULT_MAX_PROFILES
) -> Tuple[StrategyProfile, float]:
    """An ``optP``-achieving strategy profile and its social cost.

    A one-shot session call; both engines return the *first* minimizer
    in enumeration order.  Prefer :meth:`BayesianNCSGame.session` when
    combining this with other measures of the same game.
    """
    return GameSession(
        game.game, max_strategy_profiles=max_profiles
    ).optimal_profile()


def benevolent_descent(
    game: BayesianNCSGame,
    initial: Optional[StrategyProfile] = None,
    max_rounds: int = 1_000,
) -> Tuple[StrategyProfile, float]:
    """Coordinate descent on the social cost (an ``optP`` upper bound).

    Each (agent, positive type) entry is replaced by the feasible action
    minimizing ``K(s)`` with everything else fixed, until a sweep makes no
    strict improvement.  Returns ``(profile, social_cost)``.  The result is
    a local optimum of the benevolent game — not necessarily ``optP`` —
    and is the natural 'coordinated benevolent agents' baseline for large
    instances.  Ties keep the current action.
    """
    strategies = initial if initial is not None else game.greedy_profile()
    core = game.game
    current = game.social_cost(strategies)
    for _ in range(max_rounds):
        changed = False
        for agent in range(game.num_agents):
            for ti in game.prior.positive_types(agent):
                position = core.type_position(agent, ti)
                best_action = strategies[agent][position]
                best_cost = current
                for action in core.feasible_actions(agent, ti):
                    if action == strategies[agent][position]:
                        continue
                    mutated_strategy = list(strategies[agent])
                    mutated_strategy[position] = action
                    candidate = list(strategies)
                    candidate[agent] = tuple(mutated_strategy)
                    cost = game.social_cost(tuple(candidate))
                    if lt(cost, best_cost):
                        best_cost = cost
                        best_action = action
                if best_action != strategies[agent][position]:
                    mutated_strategy = list(strategies[agent])
                    mutated_strategy[position] = best_action
                    updated = list(strategies)
                    updated[agent] = tuple(mutated_strategy)
                    strategies = tuple(updated)
                    current = best_cost
                    changed = True
        if not changed:
            return strategies, current
    raise RuntimeError("benevolent descent did not converge")

