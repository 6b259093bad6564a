"""Dense tensor-form complete-information games.

:class:`MatrixGame` stores one numpy cost tensor per agent (axis ``i``
indexes agent ``i``'s action).  It is the workhorse for Section 4 (where
``K(s, t)`` matrices are assembled from small games), for random spot
checks of the generic machinery, and for textbook examples in the tests.
"""

from __future__ import annotations

from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from .._util import lt
from .game import BayesianGame, complete_information_game
from .prior import CommonPrior


class MatrixGame:
    """A ``k``-agent cost game with explicit numpy cost tensors.

    Parameters
    ----------
    costs:
        A sequence of ``k`` arrays, each of shape
        ``(|A_1|, ..., |A_k|)``; ``costs[i][a]`` is agent ``i``'s cost
        under the (index-encoded) action profile ``a``.
    """

    def __init__(self, costs: Sequence[np.ndarray]) -> None:
        arrays = [np.asarray(tensor, dtype=float) for tensor in costs]
        if not arrays:
            raise ValueError("need at least one agent")
        shape = arrays[0].shape
        if len(shape) != len(arrays):
            raise ValueError(
                f"{len(arrays)} agents but tensors have {len(shape)} axes"
            )
        for tensor in arrays:
            if tensor.shape != shape:
                raise ValueError("cost tensors must share one shape")
        self.costs = arrays
        self.shape = shape

    @property
    def num_agents(self) -> int:
        return len(self.costs)

    def action_counts(self) -> Tuple[int, ...]:
        return tuple(self.shape)

    def cost(self, agent: int, actions: Tuple[int, ...]) -> float:
        return float(self.costs[agent][actions])

    def social_cost(self, actions: Tuple[int, ...]) -> float:
        return float(sum(tensor[actions] for tensor in self.costs))

    def action_profiles(self) -> List[Tuple[int, ...]]:
        return [tuple(a) for a in product(*(range(n) for n in self.shape))]

    # ------------------------------------------------------------------
    def is_nash(self, actions: Tuple[int, ...]) -> bool:
        """Pure Nash check with the package tolerance."""
        for agent in range(self.num_agents):
            current = self.cost(agent, actions)
            mutable = list(actions)
            for candidate in range(self.shape[agent]):
                mutable[agent] = candidate
                if lt(self.cost(agent, tuple(mutable)), current):
                    return False
            mutable[agent] = actions[agent]
        return True

    def nash_equilibria(self) -> List[Tuple[int, ...]]:
        """All pure Nash profiles, in C-order enumeration order."""
        return [a for a in self.action_profiles() if self.is_nash(a)]

    def optimum(self) -> Tuple[Tuple[int, ...], float]:
        """Socially optimal action profile (first minimizer) and its cost."""
        best_profile = None
        best_cost = float("inf")
        for actions in self.action_profiles():
            cost = self.social_cost(actions)
            if cost < best_cost:
                best_cost = cost
                best_profile = actions
        assert best_profile is not None
        return best_profile, best_cost

    # ------------------------------------------------------------------
    def to_bayesian(self) -> BayesianGame:
        """Degenerate (single-type) Bayesian wrapper of this game."""
        action_spaces = [list(range(n)) for n in self.shape]
        return complete_information_game(
            action_spaces,
            lambda agent, actions: self.cost(agent, actions),
            name="matrix-game",
        )

    @classmethod
    def random(
        cls,
        action_counts: Sequence[int],
        rng: np.random.Generator,
        low: float = 0.1,
        high: float = 2.0,
    ) -> "MatrixGame":
        """A random positive-cost game (used in Section 4 experiments)."""
        shape = tuple(action_counts)
        return cls([rng.uniform(low, high, size=shape) for _ in shape])


def bayesian_game_from_state_games(
    state_games: Sequence[MatrixGame],
    informed_agent_probabilities: Sequence[float],
) -> BayesianGame:
    """A one-informed-agent Bayesian game over the given state games.

    Agent 0 observes which state game is being played (her type is the
    state index, drawn with the given probabilities); all other agents
    have a single dummy type.  This is the simplest non-degenerate
    Bayesian structure and is used heavily in tests: the underlying games
    are exactly ``state_games`` and the informed agent's strategy may
    condition on the state while the others' may not.
    """
    if not state_games:
        raise ValueError("need at least one state game")
    if len(state_games) != len(informed_agent_probabilities):
        raise ValueError("one probability per state game is required")
    shape = state_games[0].shape
    for game in state_games:
        if game.shape != shape:
            raise ValueError("state games must share one action shape")
    k = state_games[0].num_agents
    states = list(range(len(state_games)))

    type_spaces: List[List[int]] = [[0] for _ in range(k)]
    type_spaces[0] = states
    prior = CommonPrior(
        {
            tuple([state] + [0] * (k - 1)): prob
            for state, prob in zip(states, informed_agent_probabilities)
            if prob > 0
        }
    )
    action_spaces = [list(range(n)) for n in shape]

    def cost_fn(agent: int, profile, actions) -> float:
        return state_games[profile[0]].cost(agent, tuple(actions))

    return BayesianGame(
        action_spaces, type_spaces, prior, cost_fn, name="one-informed-agent"
    )
