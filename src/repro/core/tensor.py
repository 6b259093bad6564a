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
  lowering (:func:`equilibrium_tables`).  The gathered indices are
  linear in the strategy digits, so no block divides per profile: a
  profile index splits as ``q*P + r`` at a radix period ``P`` within one
  block, the ``r`` part of every index is built once per sweep, and a
  block adds the few ``q`` parts it spans
  (:meth:`TensorGame._profile_indexer`).  No temporary allocation
  exceeds :data:`BLOCK_CELLS` cells, and the reference explosion guards
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
from the one structural walk, so a block holds only costs, and each
(agent, positive type) interim row is one ``_Row`` that every kernel reads.

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
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

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
    costs = np.empty((k, math.prod(len(space) for space in spaces)), dtype=float)
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
    the reference ``itertools.product`` order.  The cube's geometry is
    the lowering's (``TensorGame.state_shapes``).  Built only by
    :func:`_lower`'s ``tabulate`` and read through
    :meth:`TensorGame.state_block`.
    """

    __slots__ = ("costs", "social")

    def __init__(self, costs: np.ndarray) -> None:
        self.costs = costs
        self.social = costs.sum(axis=0)

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

    __slots__ = ("choices", "radix", "strides", "exact_count")

    def __init__(self, choices: List[List[Action]]) -> None:
        self.choices = choices
        self.radix = tuple(len(space) for space in choices)
        self.strides = _c_strides(self.radix)
        self.exact_count = math.prod(self.radix)

    def decode(self, index: int) -> Tuple[Action, ...]:
        return tuple(
            space[(index // stride) % n]
            for space, stride, n in zip(self.choices, self.strides, self.radix)
        )


def agent_spaces(game: BayesianGame) -> List[_AgentSpace]:
    """Every agent's :class:`_AgentSpace` over :func:`per_type_choices`,
    the per-type action lists the reference enumeration walks — the
    whole parity contract hinges on sharing them."""
    return [_AgentSpace(per_type_choices(game, i)) for i in range(game.num_agents)]


def decode_profile(agents: Sequence[_AgentSpace], flat: int) -> StrategyProfile:
    """The strategy profile at position ``flat`` of the C-order product
    of the agents' spaces (the last agent varies fastest), which is
    :func:`~repro.core.strategy.enumerate_strategy_profiles` order."""
    strategies = []
    for agent in reversed(agents):
        flat, index = divmod(flat, agent.exact_count)
        strategies.append(agent.decode(index))
    return tuple(reversed(strategies))


class _Row:
    """The interim row of one (agent, positive type), which every kernel
    that checks or takes a best response there reads: the type position
    ``tpos``, the conditional ``states`` (prior-support order), their
    ``(1, m)`` posterior ``weights``, the deviation count ``n_dev``, and
    per state the deviation ``offsets`` ``stride_i * arange(n_dev)``."""

    __slots__ = ("tpos", "states", "weights", "n_dev", "offsets")

    def __init__(self, tpos, states, weights, n_dev, offsets) -> None:
        self.tpos, self.states, self.weights = tpos, states, weights
        self.n_dev, self.offsets = n_dev, offsets


@dataclass
class ProfileSweep:
    """Aggregates of one blocked pass over the strategy-profile space."""

    opt_p: float
    argmin_index: int
    best_eq: float
    worst_eq: float
    eq_found: bool
    eq_indices: Optional[List[int]] = None


@dataclass(eq=False)
class Lanes:
    """``G`` lanes that share one lowering's structure: the data every
    lane kernel of :class:`TensorGame` reads.

    A game is its own zero-copy one-lane view (:meth:`TensorGame.lanes`)
    and a bucket of same-signature games a stacked view
    (:func:`stack_lanes`).  ``probs`` is ``(G, S)``; ``blocks(s)``
    returns state ``s``'s ``(G, k, N_s)`` costs and ``(G, N_s)`` social
    costs; ``weights[i][r]`` is the ``(G, m)`` posterior weights of
    agent ``i``'s row ``r``; ``tables()`` is the lanes'
    :func:`equilibrium_tables` (``None`` sends every row to the gather).

    Lanes never mix: elementwise ops touch one lane each, the running
    ``min``/``argmin`` folds are exact and keep the first occurrence,
    and every error *condition* is a per-profile property of one lane,
    so no lane's result depends on the other lanes or on the block
    size.  The kernels return one error slot per lane holding the exact
    exception the lane's game alone raises (same type, same message); a
    failing lane keeps its place (its result is discarded), so one bad
    game never poisons the others.  The one all-lanes error is the
    :class:`ExplosionError` guard: one signature means one profile
    count, so it trips for every lane or none.
    """

    games: List[TensorGame]
    probs: np.ndarray
    blocks: Callable[[int], Tuple[np.ndarray, np.ndarray]]
    weights: Sequence[Sequence[np.ndarray]]
    tables: Callable[[], Optional[List[List[Optional[_RowTable]]]]]


class _RowTable:
    """The factored equilibrium check of one (agent, positive type) row.

    ``good[g, c]`` says whether, in lane ``g``, the agent's current
    action at this type is an interim best response when the row's
    conditional states sit at the joint cell ``c`` — the mixed-radix
    product of the states' flat cells, taken in conditional-state order.
    ``bad[g, c]`` flags the cells whose whole interim row is ``+inf``
    (the reference error path); it is ``None`` when no cell is bad.
    """

    __slots__ = ("strides", "good", "bad")

    def __init__(self, strides, good, bad) -> None:
        self.strides = strides
        self.good = good
        self.bad = bad

    def cells(self, states: List[int], state_flat: List[np.ndarray]) -> np.ndarray:
        """Joint cell of every profile in a block, from the flat cells of
        the row's conditional ``states``."""
        if len(states) == 1:
            return state_flat[states[0]]
        joint = state_flat[states[0]] * self.strides[0]
        for s, stride in zip(states[1:], self.strides[1:]):
            joint = joint + state_flat[s] * stride
        return joint


def _row_table(
    template: "TensorGame",
    agent: int,
    row: _Row,
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
    cond_states, n_dev = row.states, row.n_dev
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
        for row, weights in zip(rows, cond_weights[i]):
            cells = product_size(template.state_sizes[s] for s in row.states)
            if len(row.states) > 1 and (
                cells > profiles or group * cells * row.n_dev > BLOCK_CELLS
            ):
                built.append(None)
                continue
            built.append(_row_table(template, i, row, state_costs, weights))
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

    Ownership: a lowering cached on its game (:func:`maybe_lower`) holds
    the game weakly, and its store holds the game's cost callback, not
    the game, so dropping the game frees both by reference counting.
    An uncached lowering (``cached=False``) holds its game strongly; the
    game does not point back at it.
    """

    def __init__(
        self,
        game: BayesianGame,
        states: List[Tuple],
        probs: np.ndarray,
        agents: List[_AgentSpace],
        state_spaces: List[List[List[Action]]],
        store,
        cached: bool = False,
    ) -> None:
        self._game_ref = weakref.ref(game) if cached else lambda: game
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
        # One _Row per (agent, positive type) in reference sweep order,
        # and each type's row (the first occurrence wins).
        self._cond: List[List[_Row]] = []
        self._rows_by_type: List[Dict[Hashable, _Row]] = []
        for i, agent in enumerate(agents):
            rows, by_type = [], {}
            for ti in game.prior.positive_types(i):
                indices = [s for s, profile in enumerate(states) if profile[i] == ti]
                # Sequential fold, matching prior.conditional exactly.
                total = 0.0
                for s in indices:
                    total += float(probs[s])
                tpos = game.type_position(i, ti)
                # A positive type's choices are its whole feasible list.
                deviations = np.arange(agent.radix[tpos], dtype=np.int64)
                row = _Row(
                    tpos, indices, (probs[indices] / total)[None], len(deviations),
                    [self.state_strides[s][i] * deviations for s in indices],
                )
                rows.append(row)
                by_type.setdefault(ti, row)
            self._cond.append(rows)
            self._rows_by_type.append(by_type)
        self._eq_tables: Optional[List[List[Optional[_RowTable]]]] = None

    # ------------------------------------------------------------------
    @property
    def game(self) -> BayesianGame:
        """The lowered game.  Raises :class:`ReferenceError` when the
        lowering was cached on a game that has since been freed."""
        game = self._game_ref()
        if game is None:
            raise ReferenceError(
                f"{self!r} was cached on a game that no longer exists; "
                "lower a live game instead"
            )
        return game

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def pinned(self) -> bool:
        """Whether every block was tabulated at lowering (the pinned
        store) rather than on demand (the LRU store)."""
        return isinstance(self.store, list)

    @cached_property
    def signature(self) -> Tuple:
        """Everything *structural* about this lowering, computed on first
        use: the agents' radices, the state shapes, each agent's digit
        position per state, and each row's ``(tpos, states, n_dev)``.
        Equal signatures differ only in **data** (probabilities, costs,
        weights; labels never enter a kernel), so :func:`stack_lanes`
        stacks them and ``BatchSession`` buckets by it."""
        return (
            tuple(agent.radix for agent in self.agents),
            tuple(self.state_shapes),
            tuple(tuple(pos) for pos in self._state_pos),
            tuple(
                tuple((row.tpos, tuple(row.states), row.n_dev) for row in rows)
                for rows in self._cond
            ),
        )

    def state_block(self, s: int) -> StateTensor:
        """Support state ``s``'s :class:`StateTensor` (tabulated on an LRU
        miss, in the pinned lowering's callback order)."""
        return self.store[s]

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """The LRU store's counters, or ``None`` for a pinned store."""
        return None if self.pinned else self.store.stats()

    def profile_count(self) -> float:
        # Float products, per agent then over agents: the reference guard math.
        return product_size(product_size(agent.radix) for agent in self.agents)

    def decode_profile(self, flat: int) -> StrategyProfile:
        return decode_profile(self.agents, flat)

    def _block_size(self, group: int = 1) -> int:
        """Profiles per sweep block, keeping ``group``-lane temporaries
        under :data:`BLOCK_CELLS`."""
        widest = max(
            [1]
            + [row.n_dev for rows in self._cond for row in rows]
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
            lanes = self.lanes()
            costs = [lanes.blocks(s)[0] for s in range(len(self.states))]
            self._eq_tables = equilibrium_tables(self, costs, lanes.weights)
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

        The one-lane case of :meth:`_sweep_lanes`, over :meth:`lanes`.
        """
        sweeps, errors = self._sweep_lanes(
            self.lanes(), max_profiles, collect_equilibria, check_equilibria
        )
        if errors[0] is not None:
            raise errors[0]
        return sweeps[0]

    def lanes(self) -> Lanes:
        """This game as a zero-copy one-lane :class:`Lanes` view: ``[None]``
        views of its blocks, read through :meth:`state_block` (so the LRU
        store sees the same block reads), its rows' weights and tables."""

        def blocks(s: int) -> Tuple[np.ndarray, np.ndarray]:
            state = self.state_block(s)
            return state.costs[None], state.social[None]

        return Lanes(
            [self], self.probs[None], blocks,
            [[row.weights for row in rows] for rows in self._cond],
            self._equilibrium_tables,
        )

    def _profile_indexer(
        self, forms: Sequence[Sequence[Tuple[int, int, int]]], block: int
    ) -> Callable[[int, int], List[np.ndarray]]:
        """``indices(lo, hi)``: each form's value at profiles ``lo..hi-1``,
        for the blocks ``[lo, lo + block)`` of a sweep.

        A form is a list of ``(coef, i, p)`` terms and its value the sum
        of ``coef`` times agent ``i``'s strategy digit at type position
        ``p``.  Flatten every digit in profile order (agents in order,
        positions in order, the last fastest) and cut at the largest
        suffix product ``P`` of their radices within ``min(block,
        total)``.  A profile ``x = q*P + r`` then has its digits below the
        cut fixed by ``r`` and those above by ``q``.  The tails (terms
        below the cut, over ``r`` in ``range(P)``) are built once here; a
        block computes the heads of the few ``q`` it spans (fewer than the
        radix above the cut, plus one) and adds them to the tails straight
        into its index, in three pieces: the rest of the first period,
        the whole periods, the start of the last.  When ``total <= block``
        there is no head and the tail is the index.
        """
        radix: List[int] = []
        place: List[int] = []  # profile-index stride of each digit
        first: List[int] = []  # agent i's first digit
        for agent, outer in zip(self.agents, self.profile_strides):
            first.append(len(radix))
            radix.extend(agent.radix)
            place.extend(outer * inner for inner in agent.strides)
        bound = min(block, int(self.profile_count()))
        cut = next(
            (j for j, (n, unit) in enumerate(zip(radix, place)) if n * unit <= bound),
            len(radix),
        )
        period = radix[cut] * place[cut] if cut < len(radix) else 1
        head_terms: List[List[Tuple[int, int]]] = []
        tail_terms: List[List[Tuple[int, int]]] = []
        for form in forms:
            head, tail = [], []
            for coef, i, p in form:
                j = first[i] + p
                if radix[j] > 1:  # a radix-1 digit is always 0
                    (head if j < cut else tail).append((coef, j))
            head_terms.append(head)
            tail_terms.append(tail)

        def evaluate(term_lists, values: np.ndarray, scale: int) -> List[np.ndarray]:
            """Each term list's value at ``values`` (``r`` at scale 1, or
            ``q`` at scale ``P``), extracting each digit once."""
            digits: Dict[int, np.ndarray] = {}
            out = []
            for terms in term_lists:
                value = None
                for coef, j in terms:
                    if j not in digits:
                        digits[j] = (values // (place[j] // scale)) % radix[j]
                    term = digits[j] if coef == 1 else coef * digits[j]
                    value = term if value is None else value + term
                out.append(np.zeros(len(values), dtype=np.int64) if value is None else value)
            return out

        tails = evaluate(tail_terms, np.arange(period, dtype=np.int64), 1)
        if cut == 0:
            return lambda lo, hi: tails

        def indices(lo: int, hi: int) -> List[np.ndarray]:
            q0, r0 = divmod(lo, period)
            q1, r1 = divmod(hi, period)
            heads = evaluate(head_terms, np.arange(q0, q1 + 1, dtype=np.int64), period)
            out = []
            for head, tail in zip(heads, tails):
                index = np.empty(hi - lo, dtype=np.int64)
                if q0 == q1:
                    np.add(head[0], tail[r0:r1], out=index)
                else:
                    # The rest of period q0, whole periods, the start of q1.
                    start = period - r0
                    stop = start + (q1 - q0 - 1) * period
                    np.add(head[0], tail[r0:], out=index[:start])
                    np.add(
                        head[1 : q1 - q0, None], tail,
                        out=index[start:stop].reshape(-1, period),
                    )
                    np.add(head[-1], tail[:r1], out=index[stop:])
                out.append(index)
            return out

        return indices

    def _sweep_lanes(
        self,
        lanes: Lanes,
        max_profiles: int,
        collect_equilibria: bool,
        check_equilibria: bool,
    ) -> Tuple[List[Optional[ProfileSweep]], List[Optional[BaseException]]]:
        """The blocked profile sweep over ``lanes``, which share this
        lowering's structure (``G = 1`` for a single game).

        ``lanes.tables()`` runs once, after the guard and only when the
        check does; a ``None`` table sends its row to the gather.
        Returns ``(sweeps, errors)`` with exactly one ``None`` per lane;
        the sweep stops once every lane has errored.
        """
        probs, blocks, cond_weights = lanes.probs, lanes.blocks, lanes.weights
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
        row_tables = lanes.tables() if check_equilibria else None

        # The indices a block reads: every state's flat cell, then the own
        # digit of each row the gather checks (a row without a table).
        num_states = len(self.states)
        forms = [
            [(strides[i], i, self._state_pos[i][s]) for i in range(k)]
            for s, strides in enumerate(self.state_strides)
        ]
        own: Dict[Tuple[int, int], int] = {}
        if check_equilibria:
            for i in range(k):
                for r, row in enumerate(self._cond[i]):
                    if row_tables is None or row_tables[i][r] is None:
                        own[i, r] = len(forms)
                        forms.append([(1, i, row.tpos)])
        indices = self._profile_indexer(forms, block)

        for lo in range(0, total, block):
            hi = min(total, lo + block)
            index_block = indices(lo, hi)

            # Shared per-state flat indices (structure), per-lane social
            # costs (data), folded in prior-support order (the reference
            # fold).
            state_flat = index_block[:num_states]
            social = np.zeros((group, hi - lo), dtype=float)
            for s, index in enumerate(state_flat):
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
                for r, row in enumerate(self._cond[i]):
                    table = None if row_tables is None else row_tables[i][r]
                    if table is not None:
                        cells = table.cells(row.states, state_flat)
                        good = table.good.take(cells, axis=1)
                        bad = None if table.bad is None else table.bad.take(cells, axis=1)
                    else:
                        # No table (LRU store, or a joint row over the
                        # table guard): gather the (G x block x n_dev)
                        # interim matrix directly.
                        digit = index_block[own[i, r]]
                        interim = np.zeros((group, hi - lo, row.n_dev), dtype=float)
                        for position, (s, offsets) in enumerate(
                            zip(row.states, row.offsets)
                        ):
                            others = state_flat[s] - self.state_strides[s][i] * digit
                            interim += cond_weights[i][r][:, position, None, None] * (
                                blocks(s)[0][:, i].take(
                                    others[:, None] + offsets[None, :], axis=1
                                )
                            )
                        current = interim[:, np.arange(hi - lo), digit]
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
        return float(self._opt_c_lanes(self.lanes())[0])

    def eq_c(self) -> Tuple[float, float]:
        """``(best-eqC, worst-eqC)``: the one-lane case of
        :meth:`_eq_c_lanes`, raising its error."""
        pairs, errors = self._eq_c_lanes(self.lanes())
        if errors[0] is not None:
            raise errors[0]
        return pairs[0]

    def _opt_c_lanes(self, lanes: Lanes) -> np.ndarray:
        """Per-lane ``optC`` over ``lanes`` (never errors): ``0.0 +
        p*min`` folded in prior-support order."""
        probs = lanes.probs
        totals = np.zeros(probs.shape[0])
        for s in range(len(self.states)):
            totals = totals + probs[:, s] * lanes.blocks(s)[1].min(axis=1)
        return totals

    def _eq_c_lanes(
        self, lanes: Lanes
    ) -> Tuple[List[Optional[Tuple[float, float]]], List[Optional[BaseException]]]:
        """Per-lane ``(best-eqC, worst-eqC)`` over ``lanes``, with one
        error slot per lane; ``lanes.games[g]`` names the state in lane
        ``g``'s no-pure-Nash message.  Folds in prior-support order and
        stops once every lane has errored."""
        games, probs = lanes.games, lanes.probs
        group = probs.shape[0]
        best_total = np.zeros(group)
        worst_total = np.zeros(group)
        alive = np.ones(group, dtype=bool)
        errors: List[Optional[BaseException]] = [None] * group
        for s, shape in enumerate(self.state_shapes):
            costs, social = lanes.blocks(s)
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

    def _interim_vector(
        self, agent: int, row: _Row, digits: List[List[int]]
    ) -> np.ndarray:
        """Interim expected cost of every feasible deviation of ``agent``
        at ``row``'s type, against the profile ``digits``.

        Blocks are read through :meth:`state_block` per call (an LRU
        block may be evicted between calls).  The accumulation
        (conditional states in prior-support order, one
        ``+= weight * costs`` per state) reproduces the reference scalar
        fold entrywise, so the vector is bit-identical to per-candidate
        ``interim_cost_of_action`` calls.
        """
        interim = np.zeros(row.n_dev, dtype=float)
        for s, weight, offsets in zip(row.states, row.weights.tolist()[0], row.offsets):
            strides = self.state_strides[s]
            base = 0
            for j in range(self.num_agents):
                if j != agent:
                    base += strides[j] * digits[j][self._state_pos[j][s]]
            interim += weight * self.state_block(s).costs[agent][base + offsets]
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
        row = self._rows_by_type[agent].get(ti)
        if row is None:
            return None
        digits = self.encode_strategies(strategies)
        if digits is None:
            return None
        interim = self._interim_vector(agent, row, digits)
        best_position = int(interim.argmin())
        if not interim[best_position] < float("inf"):
            # Reference semantics: only candidates of finite interim cost
            # are ever selected; an all-inf row raises there.
            raise RuntimeError("agent has no feasible actions")
        return self.agents[agent].choices[row.tpos][best_position], float(interim[best_position])

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
        for _ in range(max_rounds):
            changed = False
            for agent in range(self.num_agents):
                for row in self._cond[agent]:
                    interim = self._interim_vector(agent, row, digits)
                    best_position = int(interim.argmin())
                    if not interim[best_position] < float("inf"):
                        raise RuntimeError("agent has no feasible actions")
                    current = float(interim[digits[agent][row.tpos]])
                    if lt(float(interim[best_position]), current):
                        digits[agent][row.tpos] = best_position
                        changed = True
            if not changed:
                return self.decode_digits(initial, digits)
        raise RuntimeError("Bayesian best-response dynamics did not converge")

    def _dynamics_lanes(
        self,
        lanes: Lanes,
        digit_rows: Sequence[List[List[int]]],
        max_rounds: int,
    ) -> Tuple[List[Optional[List[List[int]]]], List[Optional[BaseException]]]:
        """Lockstep interim best-response dynamics over ``lanes``.

        ``digit_rows[g]`` is lane ``g``'s :meth:`encode_strategies`
        output.  Rounds run in the per-game (agent, positive-type) order
        with the per-game tolerant improvement test per lane, so each
        lane visits exactly the profile sequence
        :meth:`best_response_dynamics` visits; converged lanes freeze
        their digits while the rest keep stepping.  Returns per-lane
        final digit lists and per-lane errors (no-feasible-action, or the
        non-convergence error after ``max_rounds``).
        """
        group = lanes.probs.shape[0]
        if len(digit_rows) != group:
            raise ValueError("one digit row per game required")
        k = self.num_agents
        digits = [
            np.array([row[i] for row in digit_rows], dtype=np.int64)
            for i in range(k)
        ]
        lane_ids = np.arange(group)
        done = np.zeros(group, dtype=bool)
        failed = np.zeros(group, dtype=bool)
        errors: List[Optional[BaseException]] = [None] * group
        for _ in range(max_rounds):
            active = ~(done | failed)
            if not active.any():
                break
            changed = np.zeros(group, dtype=bool)
            for i in range(k):
                for row, weights in zip(self._cond[i], lanes.weights[i]):
                    interim = np.zeros((group, row.n_dev))
                    for position, (s, offsets) in enumerate(
                        zip(row.states, row.offsets)
                    ):
                        strides = self.state_strides[s]
                        base = np.zeros(group, dtype=np.int64)
                        for j in range(k):
                            if j != i:
                                base += strides[j] * digits[j][:, self._state_pos[j][s]]
                        gathered = np.take_along_axis(
                            lanes.blocks(s)[0][:, i, :],
                            base[:, None] + offsets[None, :],
                            axis=1,
                        )
                        interim += weights[:, position, None] * gathered
                    best_positions = interim.argmin(axis=1)
                    best = interim[lane_ids, best_positions]
                    bad = ~(best < np.inf) & active
                    if bad.any():
                        for g in np.nonzero(bad)[0]:
                            errors[g] = RuntimeError("agent has no feasible actions")
                        failed |= bad
                        active &= ~bad
                    current = interim[lane_ids, digits[i][:, row.tpos]]
                    improve = lt_array(best, current) & active
                    if improve.any():
                        digits[i][improve, row.tpos] = best_positions[improve]
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
# structure-of-arrays batching: many same-shape games as stacked lanes
# ----------------------------------------------------------------------

def stack_lanes(lowered: Sequence[TensorGame]) -> Lanes:
    """Stack same-signature lowered games game-major into one
    :class:`Lanes` view: one lane per game, in order.

    Refuses an empty list and mixed signatures (bucket by
    :attr:`TensorGame.signature` first).  The equilibrium tables are built
    over the stack each time a sweep asks for them.
    """
    games = list(lowered)
    if not games:
        raise ValueError("stack_lanes needs at least one lowered game")
    template = games[0]
    for other in games[1:]:
        if other.signature != template.signature:
            raise ValueError(
                "games in one batch must share a lowering shape; "
                "bucket by TensorGame.signature first"
            )
    states = range(len(template.states))
    costs = [np.stack([tg.state_block(s).costs for tg in games]) for s in states]
    social = [np.stack([tg.state_block(s).social for tg in games]) for s in states]
    weights = [
        [np.concatenate([tg._cond[i][r].weights for tg in games]) for r in range(len(rows))]
        for i, rows in enumerate(template._cond)
    ]
    return Lanes(
        games,
        np.stack([tg.probs for tg in games]),
        lambda s: (costs[s], social[s]),
        weights,
        lambda: equilibrium_tables(template, costs, weights),
    )


def _lower(
    game: BayesianGame,
    max_action_profiles: int,
    make_store,
    cached: bool = False,
) -> Optional[TensorGame]:
    """The structural walk every lowering shares.

    Builds the support states, their probabilities, the agents'
    mixed-radix spaces and every state's feasible axes without calling
    ``game.cost``.  Refuses (``None``) when a state's feasible product
    exceeds ``max_action_profiles``; otherwise the walk finishes and
    ``make_store(tabulate, num_states, total_cells)`` builds the store,
    where ``tabulate(s)`` is state ``s``'s :class:`StateTensor` (one
    ``game.cost`` call per (agent, cell), in the reference enumeration
    order).  A ``None`` store refuses too.  ``tabulate`` holds the cost
    callback and not the game, so a store never keeps its game alive;
    ``cached`` says the lowering will be cached on ``game`` (see
    :class:`TensorGame`).
    """
    support = game.prior.support()
    states = [tuple(profile) for profile, _ in support]
    probs = np.array([prob for _, prob in support], dtype=float)
    k = game.num_agents

    agents = agent_spaces(game)

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

    # game.cost(i, t, a) is cost_fn(i, tuple(t), tuple(a)), and states
    # and product() cells are already tuples: the same calls, in order.
    cost_fn = game._cost_fn

    def tabulate(s: int) -> StateTensor:
        profile, spaces = states[s], state_spaces[s]
        return StateTensor(
            _tabulate(spaces, lambda agent, actions: cost_fn(agent, profile, actions))
        )

    store = make_store(tabulate, len(states), total_cells)
    if store is None:
        return None
    return TensorGame(game, states, probs, agents, state_spaces, store, cached)


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
    :func:`drop_lowering` releases it.  The cached lowering holds the
    game only weakly (no reference cycle), so the game and its lowering
    are freed as soon as the last outside reference to the game goes.
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
    lowered = _lower(game, max_action_profiles, _fitting_store, cached=True)
    game.__dict__[_LOWERED_ATTR] = (lowered, max_action_profiles)
    return lowered


def drop_lowering(game: BayesianGame) -> None:
    """Release the lowering cached on ``game`` (either store, or a
    cached refusal).

    The next lowering request simply recompiles; nothing about the game
    itself changes.  Only a caller that keeps the game needs this: a
    dropped game frees its lowering with it.
    """
    game.__dict__.pop(_LOWERED_ATTR, None)
