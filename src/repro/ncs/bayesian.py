"""Bayesian network cost sharing games (paper Sections 2-3).

A Bayesian NCS game fixes the graph and edge costs; each agent's *type* is
her (source, destination) pair, drawn from a common prior.  The class
below wraps a :class:`repro.core.BayesianGame` whose action spaces are the
simple-path actions (exact for all the paper's quantities — see
:mod:`repro.ncs.actions`) and adds the NCS-specific fast paths:

* interim best responses as shortest-path computations under *expected
  share* edge weights (no action enumeration),
* best-response dynamics converging by the Bayesian Rosenthal potential,
* the exact per-state optimum (Steiner forest / arborescence solvers) for
  ``optC``.

Because the wrapped core game declares its feasible-path action sets via
``feasible_fn``, it lowers directly to the tensorized evaluation engine
(:mod:`repro.core.tensor`): enumeration-heavy quantities (equilibrium
sets, ``optP``, the ignorance report) dispatch to index-encoded NumPy
kernels automatically; :meth:`BayesianNCSGame.lowered` exposes the
compiled form.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .._util import lt
from ..core.game import BayesianGame, StrategyProfile
from ..core.measures import IgnoranceReport, ignorance_report
from ..core.prior import CommonPrior, TypeProfile
from ..core.strategy import replace_strategy_action
from ..graphs import EdgeId, Graph
from ..graphs.paths import DEFAULT_MAX_PATHS
from ..graphs.shortest_path import shortest_path_edges
from ..graphs.steiner import minimum_connection_cost
from .actions import (
    EMPTY_ACTION,
    ActionCatalog,
    NCSAction,
    NCSType,
    cheapest_action,
    edge_loads,
)
from .game import NCSGame

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..core.session import GameSession


def _ncs_cost_fn(graph: Graph):
    """The NCS cost callback handed to the core game: fair shares of the
    bought edges, ``+inf`` for an action that does not connect its
    agent's pair.  It closes over ``graph`` and its own feasibility
    cache, never over the wrapper: the core game caches its lowering,
    whose block store holds this callback, so a callback bound to the
    wrapper would make wrapper, game and lowering one reference cycle."""
    feasibility: Dict[Tuple[NCSAction, NCSType], bool] = {}

    def connects(action: NCSAction, pair: NCSType) -> bool:
        key = (action, pair)
        if key not in feasibility:
            source, target = pair
            feasibility[key] = graph.connects(source, target, allowed_edges=set(action))
        return feasibility[key]

    def cost(agent: int, profile: TypeProfile, actions) -> float:
        pair = profile[agent]
        action: NCSAction = actions[agent]
        if not connects(action, pair):
            return math.inf
        if not action:
            return 0.0
        loads = edge_loads(tuple(actions))
        return sum(graph.edge(eid).cost / loads[eid] for eid in action)

    return cost


class BayesianNCSGame:
    """A Bayesian NCS game over ``graph`` with pair-valued types.

    Parameters
    ----------
    graph:
        Host graph shared by all underlying games.
    type_spaces:
        Per-agent lists of ``(source, destination)`` pairs.  Every pair
        must be connectable in ``graph`` (or trivial).
    prior:
        Common prior over type profiles (tuples of pairs).
    max_paths / max_path_edges:
        Guards forwarded to simple-path enumeration when building the
        formal action spaces.
    """

    def __init__(
        self,
        graph: Graph,
        type_spaces: Sequence[Sequence[NCSType]],
        prior: CommonPrior,
        name: str = "",
        max_paths: int = DEFAULT_MAX_PATHS,
        max_path_edges: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.name = name
        self.catalog = ActionCatalog(
            graph, max_paths=max_paths, max_path_edges=max_path_edges
        )
        normalized_types: List[List[NCSType]] = [
            [tuple(pair) for pair in space] for space in type_spaces
        ]
        action_spaces = [
            self.catalog.union_space(space) for space in normalized_types
        ]
        self._state_opt_cache: Dict[TypeProfile, float] = {}
        catalog = self.catalog
        self.game = BayesianGame(
            action_spaces,
            normalized_types,
            prior,
            _ncs_cost_fn(graph),
            feasible_fn=lambda agent, ti: catalog.actions_for(ti),
            name=name,
        )

    # ------------------------------------------------------------------
    # delegation and views
    # ------------------------------------------------------------------
    def lowered(self):
        """A lowered (index-encoded) form of the wrapped core game.

        Cached on the core game by :func:`repro.core.tensor.maybe_lower`;
        ``None`` when a state exceeds the per-state guard or the
        reference engine is forced.  Games too big for the dense cell
        guard come back over the LRU block store, whose Dijkstra-backed
        per-state cost blocks are tabulated the first time a kernel
        touches each state.
        """
        from ..core import tensor

        return tensor.maybe_lower(self.game)

    def drop_lowering(self) -> None:
        """Release the lowering cached on the wrapped core game; see
        :func:`repro.core.tensor.drop_lowering`."""
        from ..core import tensor

        tensor.drop_lowering(self.game)

    @property
    def num_agents(self) -> int:
        return self.game.num_agents

    @property
    def prior(self) -> CommonPrior:
        return self.game.prior

    def types(self, agent: int) -> List[NCSType]:
        return self.game.types(agent)

    def social_cost(self, strategies: StrategyProfile) -> float:
        return self.game.social_cost(strategies)

    def underlying_ncs(self, profile: TypeProfile) -> NCSGame:
        """The complete-information NCS game at state ``profile``."""
        return NCSGame(self.graph, profile, name=f"{self.name}@{profile!r}")

    # ------------------------------------------------------------------
    # exact per-state optima (the optC denominator)
    # ------------------------------------------------------------------
    def state_optimum(self, profile: TypeProfile) -> float:
        """``min_a K_t(a)`` via exact Steiner solvers (cached)."""
        key = tuple(profile)
        if key not in self._state_opt_cache:
            self._state_opt_cache[key] = minimum_connection_cost(
                self.graph, list(key)
            )
        return self._state_opt_cache[key]

    def opt_c(self) -> float:
        """``optC = E_t[min_a K_t(a)]``."""
        return self.prior.expect(self.state_optimum)

    # ------------------------------------------------------------------
    # Dijkstra-based interim machinery
    # ------------------------------------------------------------------
    def interim_edge_weights(
        self, agent: int, ti: NCSType, strategies: StrategyProfile
    ) -> Dict[EdgeId, float]:
        """Expected cost share of each edge for ``agent`` of type ``ti``.

        ``w(e) = E[c(e) / (1 + N_e) | t_i]`` where ``N_e`` counts *other*
        agents buying ``e`` under their strategies.  An action's interim
        cost is the sum of its edges' weights, so interim best responses
        are shortest paths under ``w``.
        """
        weights = {edge.eid: 0.0 for edge in self.graph.edges()}
        for profile, prob in self.prior.conditional(agent, ti):
            others = tuple(
                self.game.action_of(strategies[j], j, profile[j])
                for j in range(self.num_agents)
                if j != agent
            )
            loads = edge_loads(others)
            for eid in weights:
                weights[eid] += (
                    prob * self.graph.edge(eid).cost / (1 + loads.get(eid, 0))
                )
        return weights

    def interim_best_response(
        self, agent: int, ti: NCSType, strategies: StrategyProfile
    ) -> Tuple[NCSAction, float]:
        """Cheapest action for ``agent`` of type ``ti`` against ``strategies``.

        Returns ``(action, interim_cost)``; exact over all of ``2^E``.
        """
        # A trivial type needs no weights (and may have zero probability).
        weights = (
            self.interim_edge_weights(agent, ti, strategies) if ti[0] != ti[1] else {}
        )
        return cheapest_action(self.graph, ti, lambda edge: weights[edge.eid])

    def is_bayesian_equilibrium(self, strategies: StrategyProfile) -> bool:
        """Interim equilibrium check via shortest-path best responses."""
        for agent in range(self.num_agents):
            for ti in self.prior.positive_types(agent):
                current = self.game.interim_cost(agent, ti, strategies)
                _, best = self.interim_best_response(agent, ti, strategies)
                if lt(best, current):
                    return False
        return True

    def greedy_profile(self) -> StrategyProfile:
        """Every type buys its raw-cost shortest path (the canonical
        'uncoordinated' profile; also the dynamics seed)."""
        strategies: List[Tuple[NCSAction, ...]] = []
        for agent in range(self.num_agents):
            per_type: List[NCSAction] = []
            for source, target in self.game.types(agent):
                if source == target:
                    per_type.append(EMPTY_ACTION)
                    continue
                path = shortest_path_edges(self.graph, source, target)
                if path is None:
                    raise ValueError(
                        f"type ({source!r}, {target!r}) is disconnected"
                    )
                per_type.append(frozenset(path))
            strategies.append(tuple(per_type))
        return tuple(strategies)

    def best_response_dynamics(
        self,
        initial: Optional[StrategyProfile] = None,
        max_rounds: int = 10_000,
    ) -> StrategyProfile:
        """Interim best-response dynamics to a pure Bayesian equilibrium.

        Convergence is guaranteed by the Bayesian Rosenthal potential
        (Observation 2.1): every strict improvement strictly decreases it.

        When the game lowers to the tensor engine, the whole loop runs as
        vectorized argmins over precomputed conditional expected-cost
        tables (:meth:`repro.core.tensor.TensorGame.best_response_dynamics`)
        — the same fixed-point semantics over the cataloged simple-path
        actions, but without per-step Dijkstra runs or Python cost
        callbacks.  Games too big for the dense cell guard get the LRU
        block store: the same kernel, per-state cost blocks tabulated on
        first touch and held in a bounded LRU.  The Dijkstra sweep below
        remains the path for games beyond even the per-state guard (and
        the reference when ``REPRO_ENGINE=reference`` is pinned); on
        exact-tie steps the two paths may select different — equally
        cheap — equilibria.
        """
        strategies = initial if initial is not None else self.greedy_profile()
        lowered = self.lowered()
        if lowered is not None:
            try:
                result = lowered.best_response_dynamics(strategies, max_rounds)
            except RuntimeError as error:
                if "did not converge" not in str(error):
                    raise
                # Re-raise the round-budget error under this class's own
                # message, so callers see identical text on both paths.
                raise RuntimeError(
                    "Bayesian best-response dynamics did not converge "
                    "(should be impossible given the Bayesian Rosenthal "
                    "potential)"
                ) from None
            if result is not None:
                return result
        for _ in range(max_rounds):
            changed = False
            for agent in range(self.num_agents):
                for ti in self.prior.positive_types(agent):
                    current = self.game.interim_cost(agent, ti, strategies)
                    action, best = self.interim_best_response(agent, ti, strategies)
                    if lt(best, current):
                        strategies = replace_strategy_action(
                            self.game, strategies, agent, ti, action
                        )
                        changed = True
            if not changed:
                return strategies
        raise RuntimeError(
            "Bayesian best-response dynamics did not converge (should be "
            "impossible given the Bayesian Rosenthal potential)"
        )

    # ------------------------------------------------------------------
    # reports and sessions
    # ------------------------------------------------------------------
    def session(self, **config) -> "GameSession":
        """A query session over this game with the NCS solver plugged in.

        The exact Steiner per-state solver rides along as the session's
        ``state_solver`` plugin, so ``optC`` (and the report) use it just
        like :meth:`ignorance_report` does, while lowering and
        equilibrium enumeration are shared across every query.  Sessions
        capture the effective engine at construction; build a fresh one
        to pick up a new ambient engine pin.
        """
        from ..core.session import GameSession

        config.setdefault("state_solver", self.state_optimum)
        return GameSession(self.game, **config)

    def ignorance_report(
        self,
        max_strategy_profiles: int = 2_000_000,
        max_action_profiles: int = 2_000_000,
    ) -> IgnoranceReport:
        """All six measures, using the exact Steiner solver for ``optC``."""
        return ignorance_report(
            self.game,
            state_opt_solver=self.state_optimum,
            max_strategy_profiles=max_strategy_profiles,
            max_action_profiles=max_action_profiles,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<BayesianNCSGame{label} k={self.num_agents} "
            f"|E|={self.graph.edge_count} support={len(self.prior)}>"
        )


def uniform_bayesian_ncs(
    graph: Graph,
    scenarios: Sequence[Sequence[NCSType]],
    name: str = "",
    **kwargs,
) -> BayesianNCSGame:
    """Build a Bayesian NCS game from equally likely *scenarios*.

    Each scenario is a full assignment of pairs to the ``k`` agents; the
    prior is uniform over scenarios and each agent's type space is the set
    of pairs she receives in some scenario.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    k = len(scenarios[0])
    if any(len(scenario) != k for scenario in scenarios):
        raise ValueError("scenarios must assign pairs to every agent")
    type_spaces: List[List[NCSType]] = []
    for agent in range(k):
        seen: List[NCSType] = []
        for scenario in scenarios:
            pair = tuple(scenario[agent])
            if pair not in seen:
                seen.append(pair)
        type_spaces.append(seen)
    prior = CommonPrior.uniform(
        [tuple(tuple(pair) for pair in scenario) for scenario in scenarios]
    )
    return BayesianNCSGame(graph, type_spaces, prior, name=name, **kwargs)
