"""Tensorized evaluation engine: index-encoded NumPy lowering of games.

The generic solvers in :mod:`repro.core.equilibrium` and
:mod:`repro.core.measures` are exact but enumerate tuple-encoded profiles
one at a time through Python callbacks.  This module *lowers* a
:class:`~repro.core.game.BayesianGame` into dense index-encoded NumPy
form once, then reimplements the hot paths as batched array kernels:

* Every support state ``t`` becomes a :class:`StateTensor`: one cost
  matrix of shape ``(k, N_t)`` where axis positions index the *feasible*
  actions of each agent's state type in feasible-list order.  Flattened
  C-order enumeration of a state tensor therefore coincides exactly with
  the reference ``itertools.product`` order, and no infeasible cell is
  ever tabulated (equivalent to masking infeasible actions to ``+inf``,
  but without storing or evaluating them — exactness is preserved
  because infeasible actions never appear in any optimum, best response,
  or equilibrium).
* A pure strategy of agent ``i`` is a mixed-radix integer whose digit at
  type position ``p`` is an index into that type's feasible-action list;
  zero-probability types contribute radix 1 (the reference enumeration
  fixes them to the first feasible action).  Because a state's axis-``i``
  action list *is* the feasible list of ``t_i``, a strategy digit is
  directly the state-tensor position — no per-state translation tables.
* Strategy-profile sweeps (``optP``, Bayesian-equilibrium enumeration and
  extreme costs) run over *blocks* of consecutive profile indices:
  social costs ``K(s)`` come from gathers into per-state social-cost
  vectors, and the interim equilibrium conditions from one boolean
  gather per (agent, type) row into best-response tables built once per
  lowering (:func:`equilibrium_tables`).  No temporary allocation exceeds
  :data:`BLOCK_CELLS` cells, and the reference explosion guards
  (``max_profiles`` / ``max_action_profiles``) apply unchanged.

Floating-point accumulation mirrors the reference fold order (states in
prior-support order, conditional states in support order), so interim
costs — and hence equilibrium *sets* — are bit-identical to the
reference path, which remains available as the parity oracle.

One kernel, two block stores: every :class:`TensorGame` kernel reads a
state's cost block through :meth:`TensorGame.state_block`, and the
blocks come from one of two stores.  :func:`maybe_lower` makes the one
choice: a game within :data:`TENSOR_MAX_CELLS` cells gets the *pinned*
store (every block tabulated at lowering), a bigger one the bounded LRU
of :mod:`repro.core.lazy`, which tabulates a block the first time a
kernel touches it.  Per-state geometry (shapes, strides, sizes) comes
from the one structural walk, so nothing structural ever needs a block.

Engine selection: the ``REPRO_ENGINE`` environment variable chooses the
default — ``"auto"`` (lower when possible) or ``"reference"`` (never
lower) — and :func:`engine_override`
scopes a different engine over the *current context* only.  The override
is backed by :mod:`contextvars`, so concurrently running thread-backend
unit tasks (and async tasks) each see only their own pin: nothing is
shared, nothing races, nothing leaks out of the ``with`` block.  Session
objects (:mod:`repro.core.session`) capture the effective engine at
construction, which is the recommended way to hold an engine across many
calls.
"""

from __future__ import annotations

import contextvars
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import TOLERANCE, ExplosionError, lt, product_size
from .game import Action, BayesianGame, StrategyProfile
from .strategy import per_type_choices

#: Guard on the number of action profiles enumerated in an underlying game
#: (shared with :mod:`repro.core.equilibrium`, which re-exports it).
DEFAULT_MAX_ACTION_PROFILES = 2_000_000

#: Refuse to lower a game whose dense form would exceed this many cost
#: cells (sum over states of ``k * N_t``); the reference path still works.
TENSOR_MAX_CELLS = 8_000_000

#: Cap (in cells) on any single temporary allocated by a blocked sweep.
BLOCK_CELLS = 1 << 21

_LOWERED_ATTR = "_tensor_lowered"

# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------

ENGINE_ENV = "REPRO_ENGINE"
ENGINES = ("auto", "reference")


def _initial_engine() -> str:
    value = os.environ.get(ENGINE_ENV, "auto").strip().lower()
    return value if value in ENGINES else "auto"


def _check_engine(name: str) -> None:
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")


_default_engine = _initial_engine()

#: Context-scoped engine pin.  New threads (and spawn workers) start with
#: a fresh context, so a pin never crosses an execution-context boundary
#: by accident; the executor forwards the submitting caller's engine to
#: its workers explicitly.
_engine_var: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_engine", default=None
)


def get_engine() -> str:
    """The effective engine: the context's override, else the default."""
    return _engine_var.get() or _default_engine


def tensor_enabled() -> bool:
    return get_engine() != "reference"


@contextmanager
def engine_override(name: str):
    """Temporarily select an engine for the *current context* only.

    Backed by :mod:`contextvars`: concurrently running thread-backend
    unit tasks (``--backend thread``) and async tasks each see only
    their own pin, so engine flips in two concurrent threads cannot race
    each other, and nothing leaks to other contexts or survives the
    ``with`` block.
    """
    _check_engine(name)
    token = _engine_var.set(name)
    try:
        yield
    finally:
        _engine_var.reset(token)


# ----------------------------------------------------------------------
# vectorized tolerant comparison
# ----------------------------------------------------------------------

def lt_array(a, b, tol: float = TOLERANCE) -> np.ndarray:
    """Elementwise tolerant strict ``a < b`` (vector form of ``_util.lt``).

    Infinite operands compare plainly (``inf`` never beats ``inf``),
    matching the scalar helper exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        strict = a < b - tol * scale
    finite = np.isfinite(a) & np.isfinite(b)
    return np.where(finite, strict, a < b)


# ----------------------------------------------------------------------
# per-state cost blocks
# ----------------------------------------------------------------------

def _c_strides(shape: Sequence[int]) -> Tuple[int, ...]:
    strides: List[int] = []
    acc = 1
    for n in reversed(tuple(shape)):
        strides.append(acc)
        acc *= n
    return tuple(reversed(strides))


def _tabulate(spaces: Sequence[Sequence[Action]], cost_of) -> np.ndarray:
    """Dense ``(k, N)`` cost table over the product of ``spaces``.

    Calls ``cost_of(agent, actions)`` once per (agent, cell) — exactly the
    cells the reference enumeration would evaluate, in the same order.
    """
    k = len(spaces)
    size = 1
    for space in spaces:
        size *= len(space)
    costs = np.empty((k, size), dtype=float)
    flat = 0
    for combo in product(*spaces):
        for agent in range(k):
            costs[agent, flat] = cost_of(agent, combo)
        flat += 1
    return costs


def nash_masks(
    costs: np.ndarray, shape: Tuple[int, ...]
) -> Tuple[np.ndarray, List[Optional[BaseException]]]:
    """Flat C-order pure-Nash masks ``(G, N)`` and per-lane errors of
    the ``(G, k, N)`` cost stack of ``G`` states of one ``shape``.

    A lane errors exactly where the reference scan raises: it checks
    agents in order and selects best responses only among finite-cost
    candidates, so a profile whose deviation row is all ``+inf`` raises
    — unless an earlier agent already improved there.
    """
    group, k = costs.shape[:2]
    cube = costs.reshape((group, k) + shape)
    mask = np.ones((group,) + shape, dtype=bool)
    errors: List[Optional[BaseException]] = [None] * group
    for agent in range(k):
        costs_i = cube[:, agent]
        best = costs_i.min(axis=1 + agent, keepdims=True)
        bad = np.logical_and(mask, ~(best < np.inf)).reshape(group, -1).any(axis=1)
        for g in bad.nonzero()[0]:
            if errors[g] is None:
                errors[g] = RuntimeError("agent has no actions")
        mask &= ~lt_array(best, costs_i)
    return mask.reshape(group, -1), errors


class StateTensor:
    """One support state's cost block in dense index-encoded form.

    Axis ``i`` of the conceptual cost cube indexes agent ``i``'s feasible
    actions in feasible-list order; ``costs`` stores the cube flattened
    C-order as ``(k, N)`` so flat indices enumerate profiles in exactly
    the reference ``itertools.product`` order.  Built only by
    :func:`_lower`'s ``tabulate`` and read through
    :meth:`TensorGame.state_block`.
    """

    __slots__ = ("actions", "shape", "size", "costs", "social")

    def __init__(
        self, actions: Sequence[Sequence[Action]], costs: np.ndarray
    ) -> None:
        self.actions = [list(space) for space in actions]
        self.shape = tuple(len(space) for space in self.actions)
        self.size = math.prod(self.shape)
        self.costs = costs
        self.social = costs.sum(axis=0)

    @property
    def num_agents(self) -> int:
        return len(self.actions)

    def optimum(self) -> float:
        """``min_a K_t(a)`` over the feasible product."""
        return float(self.social.min())


# ----------------------------------------------------------------------
# Bayesian lowering
# ----------------------------------------------------------------------

class _AgentSpace:
    """Mixed-radix strategy encoding for one agent.

    ``choices[p]`` is the action list enumerated at type position ``p``
    (the feasible list, truncated to one entry at zero-probability
    types); a strategy index's digit at position ``p`` indexes into it.
    """

    __slots__ = ("choices", "radix", "strides", "count", "exact_count")

    def __init__(self, choices: List[List[Action]]) -> None:
        self.choices = choices
        self.radix = tuple(len(space) for space in choices)
        self.strides = _c_strides(self.radix)
        self.count = product_size(self.radix)  # float, for guard math
        exact = 1
        for n in self.radix:
            exact *= n
        self.exact_count = exact

    def decode(self, index: int) -> Tuple[Action, ...]:
        return tuple(
            space[(index // stride) % n]
            for space, stride, n in zip(self.choices, self.strides, self.radix)
        )


@dataclass
class ProfileSweep:
    """Aggregates of one blocked pass over the strategy-profile space."""

    opt_p: float
    argmin_index: int
    best_eq: float
    worst_eq: float
    eq_found: bool
    eq_indices: Optional[List[int]] = None


class _RowTable:
    """The factored equilibrium check of one (agent, positive type) row.

    ``good[g, c]`` says whether, in lane ``g``, the agent's current
    action at this type is an interim best response when the row's
    conditional states sit at the joint cell ``c`` — the mixed-radix
    product of the states' flat cells, taken in conditional-state order.
    ``bad[g, c]`` flags the cells whose whole interim row is ``+inf``
    (the reference error path); it is ``None`` when no cell is bad.
    """

    __slots__ = ("states", "strides", "good", "bad")

    def __init__(self, states, strides, good, bad) -> None:
        self.states = states
        self.strides = strides
        self.good = good
        self.bad = bad

    def cells(self, state_flat: List[np.ndarray]) -> np.ndarray:
        """Joint cell of every profile in a block, from its state cells."""
        if len(self.states) == 1:
            return state_flat[self.states[0]]
        joint = state_flat[self.states[0]] * self.strides[0]
        for s, stride in zip(self.states[1:], self.strides[1:]):
            joint = joint + state_flat[s] * stride
        return joint


def _row_table(
    template: "TensorGame",
    agent: int,
    cond_states: List[int],
    n_dev: int,
    state_costs: Sequence[np.ndarray],
    weights: np.ndarray,
) -> _RowTable:
    """Build one row's :class:`_RowTable` over stacked lanes.

    State ``j``'s flat cell splits around the agent's digit into
    ``(h_j, d_j, l_j)``, so the joint cells span the axes
    ``(G, H_1, D_1, L_1, ..., H_m, D_m, L_m)``.  The deviation runs on
    ``D_1``; every other ``D_j`` stays 1 while the interim cost is folded
    exactly as the per-profile check folds it (``0.0 + q1*x1``, then
    ``+= q2*x2``, ...).  So every ``best`` and every current cost (read
    at ``d_1``, the agent's own digit), and hence every ``lt_array``
    verdict, is bit-identical to the check it replaces.  The verdicts
    then broadcast over the other ``D_j``: the sweep only visits cells
    where all the ``d_j`` agree.
    """
    group = weights.shape[0]
    sizes = [template.state_sizes[s] for s in cond_states]
    full = [group]
    for s, size in zip(cond_states, sizes):
        stride = template.state_strides[s][agent]
        full += [size // (stride * n_dev), n_dev, stride]
    folded = [1 if axis % 3 == 2 and axis > 2 else n for axis, n in enumerate(full)]
    interim = np.zeros(folded, dtype=float)
    for j, s in enumerate(cond_states):
        placed = [group] + [1] * (len(full) - 1)
        placed[1 + 3 * j] = full[1 + 3 * j]
        placed[2] = n_dev
        placed[3 + 3 * j] = full[3 + 3 * j]
        costs = state_costs[s][:, agent].reshape(group, -1, n_dev, full[3 + 3 * j])
        if j:
            costs = np.moveaxis(costs, 2, 1)
        lane_weights = weights[:, j].reshape((group,) + (1,) * (len(full) - 1))
        interim += lane_weights * costs.reshape(placed)
    best = interim.min(axis=2, keepdims=True)
    good = ~lt_array(best, interim)
    bad = ~(best < np.inf)
    return _RowTable(
        cond_states,
        _c_strides(sizes),
        np.broadcast_to(good, full).reshape(group, -1),
        np.broadcast_to(bad, full).reshape(group, -1) if bad.any() else None,
    )


def equilibrium_tables(
    template: "TensorGame",
    state_costs: Sequence[np.ndarray],
    cond_weights: Sequence[Sequence[np.ndarray]],
) -> List[List[Optional[_RowTable]]]:
    """Per (agent, conditional row): the factored equilibrium check.

    ``state_costs[s]`` is the ``(G, k, N_s)`` cost stack of state ``s``
    and ``cond_weights[i][r]`` the ``(G, m)`` posterior weights of row
    ``r`` of agent ``i`` (``G = 1`` for a single game).  A row over one
    state costs O(cells) and is always tabled (a support state never has
    more cells than the game has strategy profiles).  A row over several
    states is tabled over the product of their cells only while
    ``G * prod(sizes) * n_dev`` stays within :data:`BLOCK_CELLS` and
    ``prod(sizes)`` does not exceed the profile count (past that, the
    table costs more to build than the gather it saves).  Other rows come
    back ``None`` and the sweeps keep the per-block deviation gather.
    """
    group = state_costs[0].shape[0]
    profiles = template.profile_count()
    tables: List[List[Optional[_RowTable]]] = []
    for i, rows in enumerate(template._cond):
        built: List[Optional[_RowTable]] = []
        for (_tpos, cond_states, _w, n_dev), weights in zip(rows, cond_weights[i]):
            cells = product_size(template.state_sizes[s] for s in cond_states)
            if len(cond_states) > 1 and (
                cells > profiles or group * cells * n_dev > BLOCK_CELLS
            ):
                built.append(None)
                continue
            built.append(
                _row_table(template, i, cond_states, n_dev, state_costs, weights)
            )
        tables.append(built)
    return tables


class TensorGame:
    """A :class:`BayesianGame` lowered to index-encoded NumPy form.

    Every kernel reads a state's cost block through :meth:`state_block`;
    ``store`` decides where the blocks live (:func:`maybe_lower` picks
    it).  A ``list`` is the *pinned* store: every block tabulated at
    lowering.  A :class:`repro.core.lazy._BlockCache` is the *LRU* store:
    a block is tabulated the first time a kernel touches it and may be
    evicted afterwards.  Both
    index as ``store[s]``, and a re-tabulated block is bit-identical to
    the evicted one, so no kernel result depends on the store.
    """

    def __init__(
        self,
        game: BayesianGame,
        states: List[Tuple],
        probs: np.ndarray,
        agents: List[_AgentSpace],
        state_spaces: List[List[List[Action]]],
        store,
    ) -> None:
        self.game = game
        self.states = states
        self.probs = probs
        self.agents = agents
        self.store = store
        self.state_index = {profile: s for s, profile in enumerate(states)}
        # Per-state geometry from the feasible axes alone, so nothing
        # structural ever needs a materialized block.
        self.state_shapes = [
            tuple(len(space) for space in spaces) for spaces in state_spaces
        ]
        self.state_strides = [_c_strides(shape) for shape in self.state_shapes]
        self.state_sizes = [math.prod(shape) for shape in self.state_shapes]
        self.max_state_size = max(self.state_sizes)
        self.total_cells = sum(self.state_sizes) * len(agents)
        self.profile_strides = _c_strides(
            [agent.exact_count for agent in agents]
        )
        # Agent i's action position in state s is its strategy digit at
        # the state type's position.
        self._state_pos: List[List[int]] = []
        self._used_positions: List[List[int]] = []
        for i in range(game.num_agents):
            pos = [game.type_position(i, profile[i]) for profile in states]
            self._state_pos.append(pos)
            self._used_positions.append(sorted(set(pos)))
        # Interim structure: per (agent, positive type): the conditional
        # state indices with posterior weights (prior-support order) and
        # the type's position / deviation count.
        self._cond: List[List[Tuple[int, List[int], np.ndarray, int]]] = []
        for i in range(game.num_agents):
            rows = []
            for ti in game.prior.positive_types(i):
                indices = [s for s, profile in enumerate(states) if profile[i] == ti]
                # Sequential fold, matching prior.conditional exactly.
                total = 0.0
                for s in indices:
                    total += float(probs[s])
                rows.append(
                    (
                        game.type_position(i, ti),
                        indices,
                        probs[indices] / total,
                        len(game.feasible_actions(i, ti)),
                    )
                )
            self._cond.append(rows)
        # The same weights as one-lane ``(1, m)`` views, the form the lane
        # kernels (sweep, equilibrium tables) read.
        self._lane_weights = [[row[2][None] for row in rows] for rows in self._cond]
        # Positive types in reference sweep order, keyed for the interim
        # entry points; the expected-cost tables are built lazily.
        self._cond_types: List[List] = [
            list(game.prior.positive_types(i)) for i in range(game.num_agents)
        ]
        self._interim_tables: Optional[List[List[Tuple]]] = None
        self._eq_tables: Optional[List[List[Optional[_RowTable]]]] = None

    # ------------------------------------------------------------------
    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def pinned(self) -> bool:
        """Whether every block was tabulated at lowering (the pinned
        store) rather than on demand (the LRU store)."""
        return isinstance(self.store, list)

    def state_block(self, s: int) -> StateTensor:
        """Support state ``s``'s :class:`StateTensor` (tabulated on an LRU
        miss, in the pinned lowering's callback order)."""
        return self.store[s]

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """The LRU store's counters, or ``None`` for a pinned store."""
        return None if self.pinned else self.store.stats()

    def profile_count(self) -> float:
        return product_size(agent.count for agent in self.agents)

    def decode_profile(self, flat: int) -> StrategyProfile:
        return tuple(
            agent.decode((flat // stride) % agent.exact_count)
            for agent, stride in zip(self.agents, self.profile_strides)
        )

    def _block_size(self, group: int = 1) -> int:
        """Profiles per sweep block, keeping ``group``-lane temporaries
        under :data:`BLOCK_CELLS`."""
        widest = max(
            [1]
            + [row[3] for rows in self._cond for row in rows]
            + [len(self.states)]
        )
        return max(1, min(1 << 16, BLOCK_CELLS // max(1, widest * group)))

    def _equilibrium_tables(self) -> Optional[List[List[Optional[_RowTable]]]]:
        """This game's :func:`equilibrium_tables` (one lane), built on
        the first equilibrium-checking sweep and cached on the lowering
        (so :func:`drop_lowering` frees them with it).

        ``None`` on the LRU store: a table needs every conditional
        state's costs at once, so those sweeps keep the per-block
        deviation gather, which touches only the blocks a sweep reads.
        """
        if not self.pinned:
            return None
        if self._eq_tables is None:
            self._eq_tables = equilibrium_tables(
                self,
                [block.costs[None] for block in self.store],
                self._lane_weights,
            )
        return self._eq_tables

    # ------------------------------------------------------------------
    # the blocked profile sweep
    # ------------------------------------------------------------------
    def sweep_profiles(
        self,
        max_profiles: int,
        collect_equilibria: bool = False,
        check_equilibria: bool = True,
    ) -> ProfileSweep:
        """One pass computing ``optP`` and equilibrium extreme costs.

        ``check_equilibria=False`` skips the equilibrium check entirely
        (for ``optP``/argmin-only callers; the tables are never built);
        the equilibrium fields then report nothing found.  Raises
        :class:`ExplosionError` exactly when the reference
        strategy-profile enumeration would.

        The one-lane case of :meth:`_sweep_lanes`, over zero-copy views.
        """
        sweeps, errors = self._sweep_lanes(
            self.probs[None],
            self._lane_block,
            self._lane_weights,
            self._equilibrium_tables,
            max_profiles,
            collect_equilibria,
            check_equilibria,
        )
        if errors[0] is not None:
            raise errors[0]
        return sweeps[0]

    def _lane_block(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """State ``s``'s costs and social costs as one-lane views, the
        ``blocks(s)`` form the lane kernels read."""
        state = self.state_block(s)
        return state.costs[None], state.social[None]

    def _sweep_lanes(
        self,
        probs: np.ndarray,
        blocks: Callable[[int], Tuple[np.ndarray, np.ndarray]],
        cond_weights: Sequence[Sequence[np.ndarray]],
        tables: Callable[[], Optional[List[List[Optional[_RowTable]]]]],
        max_profiles: int,
        collect_equilibria: bool,
        check_equilibria: bool,
    ) -> Tuple[List[Optional[ProfileSweep]], List[Optional[BaseException]]]:
        """The blocked profile sweep over ``G`` lanes that share this
        lowering's structure (``G = 1`` for a single game).

        ``probs`` is ``(G, S)``; ``blocks(s)`` returns state ``s``'s
        ``(G, k, N_s)`` costs and ``(G, N_s)`` social costs;
        ``cond_weights[i][r]`` is the ``(G, m)`` weights of agent ``i``'s
        row ``r``.  ``tables()`` runs once, after the guard and only when
        the check does; a ``None`` table sends its row to the gather.
        Returns ``(sweeps, errors)`` with exactly one ``None`` per lane;
        the sweep stops once every lane has errored.
        """
        group = probs.shape[0]
        total_f = self.profile_count()
        if total_f > max_profiles:
            return [None] * group, [
                ExplosionError("strategy profiles", total_f, max_profiles)
                for _ in range(group)
            ]
        total = int(total_f)
        k = self.num_agents
        block = self._block_size(group)

        def digit(strategy, i: int, p: int):
            """Agent ``i``'s digit at type position ``p``."""
            agent = self.agents[i]
            return (strategy // agent.strides[p]) % agent.radix[p]

        opt = np.full(group, np.inf)
        argmin = np.full(group, -1, dtype=np.int64)
        best_eq = np.full(group, np.inf)
        worst_eq = np.full(group, -np.inf)
        eq_found = np.zeros(group, dtype=bool)
        eq_lists: Optional[List[List[int]]] = (
            [[] for _ in range(group)] if collect_equilibria else None
        )
        alive = np.ones(group, dtype=bool)
        errors: List[Optional[BaseException]] = [None] * group
        row_tables = tables() if check_equilibria else None

        for lo in range(0, total, block):
            hi = min(total, lo + block)
            flat = np.arange(lo, hi, dtype=np.int64)
            strat = [
                (flat // stride) % agent.exact_count
                for agent, stride in zip(self.agents, self.profile_strides)
            ]

            # Shared per-state flat indices (structure), per-lane social
            # costs (data), folded in prior-support order (the reference
            # fold).
            state_flat: List[np.ndarray] = []
            social = np.zeros((group, hi - lo), dtype=float)
            for s, state_strides in enumerate(self.state_strides):
                index = np.zeros(hi - lo, dtype=np.int64)
                for i in range(k):
                    index += state_strides[i] * digit(
                        strat[i], i, self._state_pos[i][s]
                    )
                state_flat.append(index)
                social += probs[:, s, None] * blocks(s)[1].take(index, axis=1)

            block_min = social.min(axis=1)
            improved = block_min < opt
            if improved.any():
                argmin = np.where(improved, lo + social.argmin(axis=1), argmin)
                opt = np.where(improved, block_min, opt)
            if not check_equilibria:
                continue

            ok = np.ones((group, hi - lo), dtype=bool)
            for i in range(k):
                for r, (tpos, cond_states, _w, n_dev) in enumerate(self._cond[i]):
                    table = None if row_tables is None else row_tables[i][r]
                    if table is not None:
                        cells = table.cells(state_flat)
                        good = table.good.take(cells, axis=1)
                        bad = None if table.bad is None else table.bad.take(cells, axis=1)
                    else:
                        # No table (LRU store, or a joint row over the
                        # table guard): gather the (G x block x n_dev)
                        # interim matrix directly.
                        own = digit(strat[i], i, tpos)
                        deviations = np.arange(n_dev, dtype=np.int64)
                        interim = np.zeros((group, hi - lo, n_dev), dtype=float)
                        for position, s in enumerate(cond_states):
                            stride = self.state_strides[s][i]
                            others = state_flat[s] - stride * own
                            interim += cond_weights[i][r][:, position, None, None] * (
                                blocks(s)[0][:, i].take(
                                    others[:, None] + stride * deviations[None, :],
                                    axis=1,
                                )
                            )
                        current = interim[:, np.arange(hi - lo), own]
                        best = interim.min(axis=2)
                        good = ~lt_array(best, current)
                        bad = ~(best < np.inf)
                    # Reference error path: a type whose whole interim row
                    # is +inf has no selectable best response — it raises,
                    # unless an earlier (agent, type) already improved.
                    if bad is not None and np.logical_and(ok, bad).any():
                        newly = np.logical_and(ok, bad).any(axis=1) & alive
                        for g in np.flatnonzero(newly):
                            errors[g] = RuntimeError("agent has no feasible actions")
                        alive &= ~newly
                        if not alive.any():
                            return [None] * group, errors
                    ok &= good

            has = ok.any(axis=1)
            if has.any():
                eq_found |= has
                best_eq = np.minimum(best_eq, np.where(ok, social, np.inf).min(axis=1))
                worst_eq = np.maximum(
                    worst_eq, np.where(ok, social, -np.inf).max(axis=1)
                )
                if eq_lists is not None:
                    lanes, columns = np.nonzero(ok & alive[:, None])
                    for g, column in zip(lanes.tolist(), columns.tolist()):
                        eq_lists[g].append(lo + column)

        folds = zip(
            opt.tolist(),
            argmin.tolist(),
            best_eq.tolist(),
            worst_eq.tolist(),
            eq_found.tolist(),
        )
        return [
            None
            if error is not None
            else ProfileSweep(
                *fold, eq_indices=None if eq_lists is None else eq_lists[g]
            )
            for g, (error, fold) in enumerate(zip(errors, folds))
        ], errors

    # ------------------------------------------------------------------
    # measure kernels
    # ------------------------------------------------------------------
    def opt_c(self) -> float:
        """``optC``: the one-lane case of :meth:`_opt_c_lanes`."""
        return float(self._opt_c_lanes(self.probs[None], self._lane_block)[0])

    def eq_c(self) -> Tuple[float, float]:
        """``(best-eqC, worst-eqC)``: the one-lane case of
        :meth:`_eq_c_lanes`, raising its error."""
        pairs, errors = self._eq_c_lanes([self], self.probs[None], self._lane_block)
        if errors[0] is not None:
            raise errors[0]
        return pairs[0]

    def _opt_c_lanes(
        self,
        probs: np.ndarray,
        blocks: Callable[[int], Tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Per-lane ``optC`` over ``G`` lanes of this lowering's structure
        (never errors): ``0.0 + p*min`` folded in prior-support order.
        ``probs`` and ``blocks`` are as in :meth:`_sweep_lanes`."""
        totals = np.zeros(probs.shape[0])
        for s in range(len(self.states)):
            totals = totals + probs[:, s] * blocks(s)[1].min(axis=1)
        return totals

    def _eq_c_lanes(
        self,
        games: Sequence["TensorGame"],
        probs: np.ndarray,
        blocks: Callable[[int], Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[List[Optional[Tuple[float, float]]], List[Optional[BaseException]]]:
        """Per-lane ``(best-eqC, worst-eqC)`` over ``G`` lanes, with one
        error slot per lane; ``games[g]`` is lane ``g``'s lowering (it
        names the state in the no-pure-Nash message).  Folds in
        prior-support order and stops once every lane has errored."""
        group = probs.shape[0]
        best_total = np.zeros(group)
        worst_total = np.zeros(group)
        alive = np.ones(group, dtype=bool)
        errors: List[Optional[BaseException]] = [None] * group
        for s, shape in enumerate(self.state_shapes):
            costs, social = blocks(s)
            flat_mask, state_errors = nash_masks(costs, shape)
            for g, error in enumerate(state_errors):
                if error is not None and alive[g]:
                    errors[g] = error
                    alive[g] = False
            has = flat_mask.any(axis=1)
            none = ~has & alive
            if none.any():
                for g in np.nonzero(none)[0]:
                    underlying = games[g].game.underlying_game(games[g].states[s])
                    errors[g] = RuntimeError(
                        f"underlying game {underlying!r} "
                        "has no pure Nash equilibrium"
                    )
                alive &= ~none
            # Dead lanes fold 0.0 (their totals are discarded) so mixed
            # infinities can never turn a live lane's sum into NaN noise.
            best_s = np.where(
                has, np.where(flat_mask, social, np.inf).min(axis=1), 0.0
            )
            worst_s = np.where(
                has, np.where(flat_mask, social, -np.inf).max(axis=1), 0.0
            )
            best_total = best_total + probs[:, s] * best_s
            worst_total = worst_total + probs[:, s] * worst_s
            if not alive.any():
                break
        pairs: List[Optional[Tuple[float, float]]] = [
            None
            if errors[g] is not None
            else (float(best_total[g]), float(worst_total[g]))
            for g in range(group)
        ]
        return pairs, errors

    # ------------------------------------------------------------------
    # dynamics kernels: interim best responses over precomputed
    # conditional expected-cost tables
    # ------------------------------------------------------------------
    def encode_strategies(self, strategies: StrategyProfile) -> Optional[List[List[int]]]:
        """Per-agent digit lists for a tuple-encoded strategy profile.

        Only positions that appear in some support state are encoded (the
        rest never enter a cost and keep digit 0 — :meth:`decode_digits`
        patches the caller's original actions back there).  Returns
        ``None`` when an action at a used position is not in that type's
        enumerated choice list; callers then keep the reference path.
        """
        if len(strategies) != len(self.agents):
            return None
        digits: List[List[int]] = []
        for i, agent in enumerate(self.agents):
            strategy = strategies[i]
            if len(strategy) != len(agent.choices):
                return None
            row = [0] * len(agent.choices)
            for position in self._used_positions[i]:
                try:
                    row[position] = agent.choices[position].index(strategy[position])
                except ValueError:
                    return None
            digits.append(row)
        return digits

    def decode_digits(
        self, template: StrategyProfile, digits: List[List[int]]
    ) -> StrategyProfile:
        """The profile ``digits`` encodes, with ``template``'s actions kept
        verbatim at positions no support state uses (mirroring the
        reference dynamics, which never rewrites those entries)."""
        decoded = []
        for i, agent in enumerate(self.agents):
            strategy = list(template[i])
            for position in self._used_positions[i]:
                strategy[position] = agent.choices[position][digits[i][position]]
            decoded.append(tuple(strategy))
        return tuple(decoded)

    def _interim_rows(self) -> List[List[Tuple]]:
        """Per (agent, positive type): the conditional expected-cost table.

        Each row is ``(tpos, n_dev, entries)`` where every entry
        ``(state_index, weight, dev_offsets)`` carries the posterior
        weight plus the precomputed deviation offsets
        ``stride_i * arange(n_dev)``, so one interim cost vector is a
        gather-and-accumulate per conditional state — no per-candidate
        cost callbacks.  The cost rows themselves are read through
        :meth:`state_block` per call (an LRU block may be evicted between
        calls).  Built lazily: profile sweeps never need it.
        """
        if self._interim_tables is None:
            tables: List[List[Tuple]] = []
            for i in range(self.num_agents):
                rows = []
                for tpos, cond_states, weights, n_dev in self._cond[i]:
                    entries = []
                    for s, weight in zip(cond_states, weights):
                        entries.append(
                            (
                                s,
                                float(weight),
                                self.state_strides[s][i]
                                * np.arange(n_dev, dtype=np.int64),
                            )
                        )
                    rows.append((tpos, n_dev, entries))
                tables.append(rows)
            self._interim_tables = tables
        return self._interim_tables

    def _interim_vector(
        self, agent: int, n_dev: int, entries: List[Tuple], digits: List[List[int]]
    ) -> np.ndarray:
        """Interim expected cost of every feasible deviation of ``agent``
        at one positive type, against the profile ``digits``.

        The accumulation (conditional states in prior-support order, one
        ``+= weight * costs`` per state) reproduces the reference scalar
        fold entrywise, so the vector is bit-identical to per-candidate
        ``interim_cost_of_action`` calls.
        """
        interim = np.zeros(n_dev, dtype=float)
        for s, weight, dev_offsets in entries:
            strides = self.state_strides[s]
            base = 0
            for j in range(self.num_agents):
                if j != agent:
                    base += strides[j] * digits[j][self._state_pos[j][s]]
            interim += weight * self.state_block(s).costs[agent][base + dev_offsets]
        return interim

    def interim_best_response(
        self, agent: int, ti, strategies: StrategyProfile
    ) -> Optional[Tuple[Action, float]]:
        """``(best_action, best_cost)`` of ``agent`` at positive type
        ``ti`` — the vectorized form of the reference candidate scan,
        with the same first-feasible tie-break.  Returns ``None`` when
        ``ti`` has zero probability or ``strategies`` does not encode
        (callers fall back to the reference path, which also owns the
        error semantics for those inputs)."""
        try:
            row_index = self._cond_types[agent].index(ti)
        except ValueError:
            return None
        digits = self.encode_strategies(strategies)
        if digits is None:
            return None
        tpos, n_dev, entries = self._interim_rows()[agent][row_index]
        interim = self._interim_vector(agent, n_dev, entries, digits)
        best_position = int(interim.argmin())
        if not interim[best_position] < float("inf"):
            # Reference semantics: only candidates of finite interim cost
            # are ever selected; an all-inf row raises there.
            raise RuntimeError("agent has no feasible actions")
        return (
            self.agents[agent].choices[tpos][best_position],
            float(interim[best_position]),
        )

    def best_response_dynamics(
        self, initial: StrategyProfile, max_rounds: int
    ) -> Optional[StrategyProfile]:
        """Interim best-response dynamics, one argmin per (agent, type).

        Visits exactly the profile sequence of the reference loop — same
        (agent, positive-type) sweep order, bit-identical interim costs,
        first-feasible ``argmin`` tie-break, tolerant improvement test —
        so fixed points, cycles, and the non-convergence ``RuntimeError``
        (same message) all coincide with the reference.  Returns ``None``
        when ``initial`` does not encode; callers then keep the
        reference path.
        """
        digits = self.encode_strategies(initial)
        if digits is None:
            return None
        tables = self._interim_rows()
        for _ in range(max_rounds):
            changed = False
            for agent in range(self.num_agents):
                for tpos, n_dev, entries in tables[agent]:
                    interim = self._interim_vector(agent, n_dev, entries, digits)
                    best_position = int(interim.argmin())
                    if not interim[best_position] < float("inf"):
                        raise RuntimeError("agent has no feasible actions")
                    if lt(float(interim[best_position]), float(interim[digits[agent][tpos]])):
                        digits[agent][tpos] = best_position
                        changed = True
            if not changed:
                return self.decode_digits(initial, digits)
        raise RuntimeError("Bayesian best-response dynamics did not converge")

    def __repr__(self) -> str:
        store = (
            "pinned"
            if self.pinned
            else f"lru resident={self.store.cells}/{self.store.budget}"
        )
        return (
            f"<TensorGame k={self.num_agents} states={len(self.states)} "
            f"cells={self.total_cells} {store}>"
        )


# ----------------------------------------------------------------------
# structure-of-arrays batching: many same-shape games, one kernel sweep
# ----------------------------------------------------------------------

def batch_signature(lowered: TensorGame) -> Tuple:
    """Hashable description of everything *structural* about a lowering.

    Two lowered games with equal signatures differ only in **data** —
    state probabilities, cost-table entries, posterior weights — so
    their tensors stack on a leading game axis and every blocked kernel
    runs over the whole stack in lockstep (identical profile counts,
    digit strides, deviation shapes, and conditional-state rows).  The
    signature covers the per-agent mixed radices, per-state tensor
    shapes, the strategy-digit position of every agent in every state,
    and the interim conditional structure; action *labels* and type
    *labels* are deliberately excluded (they never enter a kernel).
    :class:`BatchTensorGame` refuses mixed signatures, so use this as
    the bucket key.
    """
    return (
        tuple(agent.radix for agent in lowered.agents),
        tuple(lowered.state_shapes),
        tuple(tuple(pos) for pos in lowered._state_pos),
        tuple(
            tuple((tpos, tuple(indices), n_dev) for tpos, indices, _w, n_dev in rows)
            for rows in lowered._cond
        ),
    )


class BatchTensorGame:
    """A bucket of same-signature lowered games stacked game-major.

    The profile sweep, the pure-Nash fold and the ``eqC``/``optC`` folds
    are the kernels a single game runs (:meth:`TensorGame._sweep_lanes`,
    :func:`nash_masks`, :meth:`TensorGame._eq_c_lanes`,
    :meth:`TensorGame._opt_c_lanes`) with one lane per game; a single
    game is their one-lane case.  The other kernels (the state optima,
    the lockstep dynamics) add a leading game axis to the per-game
    arithmetic.  Lanes never mix:
    elementwise ops touch one lane each, running ``min``/``argmin``
    folds are exact and keep the first occurrence, and every error
    *condition* is a per-profile property of one lane, so no lane's
    result depends on the other lanes or on the block size.

    Error semantics: kernels never raise for a single game's failure.
    Each returns per-game result lists alongside a per-game ``errors``
    list holding the exact exception the per-game kernel would have
    raised (same type, same message) — ``None`` for healthy games.  A
    game that errors keeps occupying its lanes (the results are
    discarded), so one bad game never poisons an otherwise-healthy
    bucket.  The one bucket-wide error is the :class:`ExplosionError`
    guard: same signature means the same profile count, so it trips for
    all games or none.
    """

    def __init__(self, lowered: Sequence[TensorGame]) -> None:
        games = list(lowered)
        if not games:
            raise ValueError("BatchTensorGame needs at least one lowered game")
        template = games[0]
        signature = batch_signature(template)
        for other in games[1:]:
            if batch_signature(other) != signature:
                raise ValueError(
                    "games in one batch must share a lowering shape; "
                    "bucket by batch_signature() first"
                )
        self.lowered = games
        self.template = template
        self.size = len(games)
        n_states = len(template.states)
        #: (G, S) state probabilities — per-game data.
        self.probs = np.stack([tg.probs for tg in games])
        #: per state: (G, k, N_s) stacked cost tables.
        self.state_costs = [
            np.stack([tg.state_block(s).costs for tg in games])
            for s in range(n_states)
        ]
        #: per state: (G, N_s) stacked social-cost vectors.
        self.state_social = [
            np.stack([tg.state_block(s).social for tg in games])
            for s in range(n_states)
        ]
        #: per (agent, conditional row): (G, row length) posterior weights.
        self.cond_weights = [
            [
                np.stack([tg._cond[i][r][2] for tg in games])
                for r in range(len(template._cond[i]))
            ]
            for i in range(template.num_agents)
        ]

    def _take(self, subset: Optional[Sequence[int]]):
        """The stacked views (or fancy-index copies) for a game subset."""
        if subset is None:
            return (
                self.lowered,
                self.probs,
                self.state_costs,
                self.state_social,
                self.cond_weights,
            )
        positions = list(subset)
        idx = np.asarray(positions, dtype=np.intp)
        return (
            [self.lowered[g] for g in positions],
            self.probs[idx],
            [costs[idx] for costs in self.state_costs],
            [social[idx] for social in self.state_social],
            [[weights[idx] for weights in rows] for rows in self.cond_weights],
        )

    # ------------------------------------------------------------------
    # the batched blocked profile sweep
    # ------------------------------------------------------------------
    def sweep_profiles(
        self,
        max_profiles: int,
        collect_equilibria: bool = False,
        check_equilibria: bool = True,
        subset: Optional[Sequence[int]] = None,
    ) -> Tuple[List[Optional[ProfileSweep]], List[Optional[BaseException]]]:
        """:meth:`TensorGame.sweep_profiles` over the bucket, one lane
        per game of ``subset`` (default: all); returns ``(sweeps,
        errors)`` with exactly one ``None`` per game."""
        _games, probs, state_costs, state_social, cond_weights = self._take(subset)
        return self.template._sweep_lanes(
            probs,
            lambda s: (state_costs[s], state_social[s]),
            cond_weights,
            lambda: equilibrium_tables(self.template, state_costs, cond_weights),
            max_profiles,
            collect_equilibria,
            check_equilibria,
        )

    # ------------------------------------------------------------------
    # batched measure kernels
    # ------------------------------------------------------------------
    def state_optima(
        self, subset: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """``(G, S)`` per-state optimum matrix (never errors)."""
        _games, _probs, _costs, state_social, _w = self._take(subset)
        return np.stack([social.min(axis=1) for social in state_social], axis=1)

    def opt_c(self, subset: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-game ``optC`` via the per-state tables (never errors):
        :meth:`TensorGame._opt_c_lanes` over the bucket."""
        _games, probs, state_costs, state_social, _w = self._take(subset)
        return self.template._opt_c_lanes(
            probs, lambda s: (state_costs[s], state_social[s])
        )

    def eq_c(
        self, subset: Optional[Sequence[int]] = None
    ) -> Tuple[List[Optional[Tuple[float, float]]], List[Optional[BaseException]]]:
        """Per-game ``(best-eqC, worst-eqC)`` with per-game error lanes:
        :meth:`TensorGame._eq_c_lanes` over the bucket."""
        games, probs, state_costs, state_social, _w = self._take(subset)
        return self.template._eq_c_lanes(
            games, probs, lambda s: (state_costs[s], state_social[s])
        )

    # ------------------------------------------------------------------
    # batched best-response dynamics
    # ------------------------------------------------------------------
    def best_response_digits(
        self,
        digit_rows: Sequence[List[List[int]]],
        max_rounds: int,
        subset: Optional[Sequence[int]] = None,
    ) -> Tuple[List[Optional[List[List[int]]]], List[Optional[BaseException]]]:
        """Lockstep interim best-response dynamics over encoded profiles.

        ``digit_rows[g]`` is game ``g``'s :meth:`TensorGame.encode_strategies`
        output.  Rounds run in the per-game (agent, positive-type) order
        with the per-game tolerant improvement test per lane, so each
        game visits exactly the profile sequence the per-game kernel
        visits; converged games freeze their digits while the rest keep
        stepping.  Returns per-game final digit lists and per-game
        errors (no-feasible-action, or the non-convergence error after
        ``max_rounds``).
        """
        games, _probs, state_costs, _social, cond_weights = self._take(subset)
        group = len(games)
        if len(digit_rows) != group:
            raise ValueError("one digit row per game required")
        template = self.template
        k = template.num_agents
        digits = [
            np.array([row[i] for row in digit_rows], dtype=np.int64)
            for i in range(k)
        ]
        lanes = np.arange(group)
        done = np.zeros(group, dtype=bool)
        failed = np.zeros(group, dtype=bool)
        errors: List[Optional[BaseException]] = [None] * group
        for _ in range(max_rounds):
            active = ~(done | failed)
            if not active.any():
                break
            changed = np.zeros(group, dtype=bool)
            for i in range(k):
                for (tpos, cond_states, _w, n_dev), weights in zip(
                    template._cond[i], cond_weights[i]
                ):
                    deviations = np.arange(n_dev, dtype=np.int64)
                    interim = np.zeros((group, n_dev))
                    for position, s in enumerate(cond_states):
                        strides = template.state_strides[s]
                        base = np.zeros(group, dtype=np.int64)
                        for j in range(k):
                            if j != i:
                                base += (
                                    strides[j]
                                    * digits[j][:, template._state_pos[j][s]]
                                )
                        gathered = np.take_along_axis(
                            state_costs[s][:, i, :],
                            base[:, None] + strides[i] * deviations[None, :],
                            axis=1,
                        )
                        interim += weights[:, position, None] * gathered
                    best_positions = interim.argmin(axis=1)
                    best = interim[lanes, best_positions]
                    bad = ~(best < np.inf) & active
                    if bad.any():
                        for g in np.nonzero(bad)[0]:
                            errors[g] = RuntimeError(
                                "agent has no feasible actions"
                            )
                        failed |= bad
                        active &= ~bad
                    current = interim[lanes, digits[i][:, tpos]]
                    improve = lt_array(best, current) & active
                    if improve.any():
                        digits[i][improve, tpos] = best_positions[improve]
                        changed |= improve
            done |= active & ~changed
        results: List[Optional[List[List[int]]]] = []
        for g in range(group):
            if errors[g] is None and not done[g]:
                errors[g] = RuntimeError(
                    "Bayesian best-response dynamics did not converge"
                )
            if errors[g] is not None:
                results.append(None)
            else:
                results.append([digits[i][g].tolist() for i in range(k)])
        return results, errors

    def __repr__(self) -> str:
        return (
            f"<BatchTensorGame games={self.size} "
            f"states={len(self.template.states)} "
            f"profiles={self.template.profile_count():g}>"
        )


def _lower(
    game: BayesianGame,
    max_action_profiles: int,
    make_store,
) -> Optional[TensorGame]:
    """The structural walk every lowering shares.

    Builds the support states, their probabilities, the agents'
    mixed-radix spaces and every state's feasible axes without calling
    ``game.cost``.  Refuses (``None``) when a state's feasible product
    exceeds ``max_action_profiles``; otherwise the walk finishes and
    ``make_store(tabulate, num_states, total_cells)`` builds the store,
    where ``tabulate(s)`` is state ``s``'s :class:`StateTensor` (one
    ``game.cost`` call per (agent, cell), in the reference enumeration
    order).  A ``None`` store refuses too.
    """
    support = game.prior.support()
    states = [tuple(profile) for profile, _ in support]
    probs = np.array([prob for _, prob in support], dtype=float)
    k = game.num_agents

    # per_type_choices is the same per-type action lists the reference
    # enumeration walks — the whole parity contract hinges on sharing it.
    agents = [_AgentSpace(per_type_choices(game, i)) for i in range(k)]

    state_spaces: List[List[List[Action]]] = []
    total_cells = 0.0
    for profile in states:
        spaces = [
            agents[i].choices[game.type_position(i, profile[i])] for i in range(k)
        ]
        size = product_size(len(space) for space in spaces)
        if size > max_action_profiles:
            return None
        total_cells += size * k
        state_spaces.append(spaces)

    def tabulate(s: int) -> StateTensor:
        profile, spaces = states[s], state_spaces[s]
        return StateTensor(
            spaces,
            _tabulate(
                spaces, lambda agent, actions: game.cost(agent, profile, actions)
            ),
        )

    store = make_store(tabulate, len(states), total_cells)
    if store is None:
        return None
    return TensorGame(game, states, probs, agents, state_spaces, store)


def _pinned_store(tabulate, num_states: int, total_cells: float):
    """Every block tabulated now; ``None`` past :data:`TENSOR_MAX_CELLS`."""
    if total_cells <= TENSOR_MAX_CELLS:
        return [tabulate(s) for s in range(num_states)]
    return None


def _fitting_store(tabulate, num_states: int, total_cells: float):
    """The pinned store within the cell guard, the LRU store past it."""
    from .lazy import _BlockCache, default_cache_cells  # breaks the cycle

    store = _pinned_store(tabulate, num_states, total_cells)
    return _BlockCache(default_cache_cells(), tabulate) if store is None else store


def lower_game(
    game: BayesianGame,
    max_action_profiles: int = DEFAULT_MAX_ACTION_PROFILES,
) -> Optional[TensorGame]:
    """Compile a :class:`BayesianGame` over the pinned store, or ``None``.

    Every state's block is tabulated here.  Refuses (returning ``None``,
    so callers fall back to the reference path) when any support state's
    feasible action product exceeds ``max_action_profiles`` or the dense
    form would exceed :data:`TENSOR_MAX_CELLS` cells.  Uncached; the
    cached, engine-aware path is :func:`maybe_lower`.
    """
    return _lower(game, max_action_profiles, _pinned_store)


def maybe_lower(
    game: BayesianGame,
    max_action_profiles: int = DEFAULT_MAX_ACTION_PROFILES,
) -> Optional[TensorGame]:
    """Cached lowering honoring the engine switch and guards.

    The one place that decides whether ``game`` lowers and onto which
    block store.  One structural walk counts the cells: the pinned store
    is used within :data:`TENSOR_MAX_CELLS`, the LRU
    :class:`~repro.core.lazy._BlockCache` past it.  Only the per-state
    ``max_action_profiles`` guard refuses (``None``).  The result, a
    refusal included, lives in one slot on the game object: a cached
    lowering serves any guard that admits its largest state, a cached
    refusal any guard no looser than the one that refused.
    :func:`drop_lowering` releases it.
    """
    if not tensor_enabled():
        return None
    entry = game.__dict__.get(_LOWERED_ATTR)
    if entry is not None:
        cached, built_guard = entry
        if cached is not None:
            return cached if cached.max_state_size <= max_action_profiles else None
        if max_action_profiles <= built_guard:
            return None
    lowered = _lower(game, max_action_profiles, _fitting_store)
    game.__dict__[_LOWERED_ATTR] = (lowered, max_action_profiles)
    return lowered


def drop_lowering(game: BayesianGame) -> None:
    """Release the lowering cached on ``game`` (either store, or a
    cached refusal).

    The next lowering request simply recompiles; nothing about the game
    itself changes.  The service registry calls this on LRU eviction so evicted
    sessions actually free their tensors.
    """
    game.__dict__.pop(_LOWERED_ATTR, None)
