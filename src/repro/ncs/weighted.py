"""Weighted network cost sharing (the variant of the paper's footnote 5).

The paper notes (footnote 5) that Albers exhibits ``o(1)`` price of
stability for a *weighted* NCS variant: agent ``i`` carries weight
``w_i`` and pays the fraction ``w_i / W_e`` of each bought edge, where
``W_e`` sums the weights of the edge's buyers.  Unweighted NCS is the
``w_i = 1`` special case, so :class:`WeightedNCSGame` is an
:class:`repro.ncs.game.NCSGame` with its own weights: the share rule,
costs, shortest-path best responses and the Nash check are the base
class's, written once for arbitrary weights.

Two structural facts drive what the subclass adds:

* Best responses are still shortest-path computations — agent ``i``'s
  marginal cost for edge ``e`` is ``c(e) * w_i / (w_i + W_e^{-i})``,
  additive over edges — so verification stays polynomial.
* Unlike the unweighted game, weighted cost sharing is **not** an exact
  potential game in general and pure Nash equilibria may fail to exist
  for three or more agents; the dynamics therefore carry an explicit
  round limit and return ``None`` on non-convergence, and the
  equilibrium enumeration reports an empty set rather than assuming
  existence (the tests exercise both outcomes).
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import List, Optional, Sequence, Tuple

from .._util import ExplosionError, product_size
from ..graphs import Graph
from .actions import EMPTY_ACTION, ActionCatalog, NCSAction, NCSType
from .game import NCSGame


class WeightedNCSGame(NCSGame):
    """A complete-information NCS game with weighted fair sharing."""

    def __init__(
        self,
        graph: Graph,
        pairs: Sequence[NCSType],
        weights: Sequence[float],
        name: str = "",
    ) -> None:
        if len(pairs) != len(weights):
            raise ValueError("one weight per agent is required")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        super().__init__(graph, pairs, name=name)
        self.weights = [float(w) for w in weights]

    def best_response_dynamics(
        self,
        initial: Optional[Tuple[NCSAction, ...]] = None,
        max_rounds: int = 1_000,
    ) -> Optional[Tuple[NCSAction, ...]]:
        """Iterated best responses; returns ``None`` on non-convergence.

        Weighted games need not converge (no exact potential); callers
        must handle the ``None`` case.  The default start is each agent's
        first cataloged path.
        """
        if initial is None:
            catalog = ActionCatalog(self.graph)
            initial = tuple(
                catalog.actions_for(pair)[0] if pair[0] != pair[1] else EMPTY_ACTION
                for pair in self.pairs
            )
        return self._improve(initial, max_rounds)

    def nash_equilibria(
        self, max_profiles: int = 2_000_000
    ) -> List[Tuple[NCSAction, ...]]:
        """All path-supported pure Nash equilibria (possibly empty)."""
        catalog = ActionCatalog(self.graph)
        spaces = [catalog.actions_for(pair) for pair in self.pairs]
        size = product_size(len(space) for space in spaces)
        if size > max_profiles:
            raise ExplosionError("weighted NCS profiles", size, max_profiles)
        return [
            combo
            for combo in cartesian_product(*spaces)
            if self.is_nash_equilibrium(tuple(combo))
        ]

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<WeightedNCSGame{label} k={self.num_agents} "
            f"weights={self.weights}>"
        )
