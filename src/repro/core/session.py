"""Session-and-query evaluation facade: lower once, share, batch.

The paper studies a *bundle* of quantities over one game — ``optP`` /
``eq_P`` numerators against ``optC`` / ``eq_C`` denominators and their
nine ratios — yet the historical entry points were independent free
functions that each re-lowered the game and re-enumerated equilibria
from scratch.  This module is the shape the workload actually has:

* :class:`GameSession` wraps one :class:`~repro.core.game.BayesianGame`,
  captures the effective evaluation engine at construction
  (context-scoped, see :mod:`repro.core.tensor`), lowers the game **at
  most once**, and memoizes every expensive shared artifact across
  calls: the blocked strategy-profile sweep (``optP`` + the Bayesian
  equilibrium extremes + optionally the equilibrium set), per-state
  Nash analyses, per-state optima, and the expected complete-information
  quantities, all in one memo table.  Raised errors are memoized too,
  so a session raises exactly what the corresponding free function
  would; each raise is a fresh copy that keeps no traceback, so no
  frame holds the session and reference counting alone frees it.
* :class:`Query` / :func:`query` name one measure declaratively;
  :meth:`GameSession.evaluate` runs a bundle of queries through a tiny
  planner that computes the *union* of their sweep requirements first,
  so e.g. ``ignorance_report`` + ``eq_c(kind="worst")`` + ``opt_p``
  share **one** profile sweep (equilibrium enumeration) instead of
  three.  :func:`evaluate` is the one-shot module-level convenience.
* :class:`BatchSession` holds one session per game for multi-game
  batches: one planning pass, one lowering per game, uniform results
  (``evaluate_many`` returns one value row per game).

Specialized game classes plug their exact per-state solvers in as
*session plugins* via ``state_solver`` (e.g.
:meth:`repro.ncs.bayesian.BayesianNCSGame.session` installs the exact
Steiner solver for ``optC``).

Every pre-existing free function in :mod:`repro.core.measures`,
:mod:`repro.core.equilibrium`, and :mod:`repro.ncs.opt` is now a thin
wrapper over a one-shot session; their signatures, values, fold orders,
and error semantics are unchanged (the engine-fuzz suite asserts exact
agreement).  See ``docs/API.md`` for the lifecycle and a migration
table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .._util import ExplosionError, lt
from . import tensor
from .equilibrium import enumerate_action_profiles, nash_extreme_costs
from .game import Action, BayesianGame, StrategyProfile
from .prior import TypeProfile
from .strategy import (
    DEFAULT_MAX_PROFILES,
    enumerate_strategy_profiles,
    greedy_strategy_profile,
    replace_strategy_action,
)

#: Guard on per-state action-profile enumeration (shared value).
DEFAULT_MAX_ACTION_PROFILES = tensor.DEFAULT_MAX_ACTION_PROFILES

#: A session plugin replacing the per-state optimum enumeration.
StateOptSolver = Callable[[TypeProfile], float]


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """One declarative measure request: a name plus frozen parameters.

    Build with :func:`query`; accepted measures and their parameters are
    listed in :data:`MEASURES` (and documented in ``docs/API.md``).
    """

    measure: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)


def _frozen(value: Any) -> Any:
    """``value`` with every list, nested in lists or tuples, a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_frozen, value))
    return value


def query(measure: str, **params: Any) -> Query:
    """``query("eq_c", kind="worst")`` → a frozen :class:`Query`; list
    parameters, nested ones too, become tuples."""
    params = {name: _frozen(value) for name, value in params.items()}
    return Query(measure=measure, params=tuple(sorted(params.items())))


#: measure name -> (sweep needed, needs equilibrium check, needs the
#: collected equilibrium set).  The planner unions these over a bundle.
MEASURES: Dict[str, Tuple[bool, bool, bool]] = {
    "opt_p": (True, False, False),
    "optimal_profile": (True, False, False),
    "eq_p": (True, True, False),
    "equilibria": (True, True, True),
    "ignorance_report": (True, True, False),
    "ratio": (True, True, False),
    "opt_c": (False, False, False),
    "eq_c": (False, False, False),
    "state_optimum": (False, False, False),
    "dynamics": (False, False, False),
}


def _requirements(queries: Iterable[Query]) -> Tuple[bool, bool, bool]:
    """The bundle's union of :data:`MEASURES` requirements: ``(sweep
    needed, equilibrium check needed, equilibrium set needed)``."""
    need_sweep = need_eq = collect = False
    for item in queries:
        try:
            sweep, eq, col = MEASURES[item.measure]
        except KeyError:
            raise ValueError(
                f"unknown measure {item.measure!r}; "
                f"expected one of {sorted(MEASURES)}"
            ) from None
        need_sweep = need_sweep or sweep
        need_eq = need_eq or eq
        collect = collect or col
    return need_sweep, need_eq, collect


def _component(pair: Tuple[float, float], kind: str, what: str):
    if kind == "both":
        return pair
    if kind == "best":
        return pair[0]
    if kind == "worst":
        return pair[1]
    raise ValueError(
        f"unknown {what} kind {kind!r}; expected 'best', 'worst', or 'both'"
    )


def _detached(error: Exception) -> Exception:
    """A copy of ``error`` that holds no frames: the same type, ``args``
    and instance attributes (slots too, such as numpy's ``AxisError``
    keeps), with no traceback, context or cause.

    A memoized or captured error must not keep its traceback: those
    frames hold the session (and through it the game and its lowering),
    so the session would outlive its last reference as cyclic garbage.
    """
    cls = type(error)
    copy = cls.__new__(cls, *error.args)
    copy.__dict__.update(vars(error))
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(error, name):
                setattr(copy, name, getattr(error, name))
    return copy


class GameSession:
    """One game, lowered at most once, every shared artifact memoized.

    Parameters
    ----------
    game:
        The Bayesian game to serve queries over.
    engine:
        Evaluation engine (``auto`` / ``reference``), applied where the
        session lowers its game.  Defaults to the *effective engine at
        construction time* — the context-scoped override if one is
        active, else the process default — and stays pinned for the
        session's lifetime, so concurrent sessions on different engines
        cannot race each other.
    state_solver:
        Optional session plugin replacing the per-state optimum
        enumeration inside ``optC`` (e.g. an exact Steiner solver).
    max_strategy_profiles / max_action_profiles:
        The usual explosion guards, applied exactly as the free
        functions apply them.

    Memoization covers values *and* raised errors: asking twice
    raises a fresh copy of the error the matching free function raises
    (same type, arguments and attributes; no traceback), and a failed
    equilibrium sweep never poisons sweep-free measures (e.g. ``opt_p``
    falls back to its own cheaper sweep, like the free function it
    replaces).  The session holds no reference back to itself, so
    dropping its last reference frees it, its game and its lowering at
    once.
    """

    def __init__(
        self,
        game: BayesianGame,
        *,
        engine: Optional[str] = None,
        state_solver: Optional[StateOptSolver] = None,
        max_strategy_profiles: int = DEFAULT_MAX_PROFILES,
        max_action_profiles: int = DEFAULT_MAX_ACTION_PROFILES,
    ) -> None:
        if engine is not None:
            tensor._check_engine(engine)
        self.game = game
        self.engine = engine if engine is not None else tensor.get_engine()
        self.state_solver = state_solver
        self.max_strategy_profiles = max_strategy_profiles
        self.max_action_profiles = max_action_profiles
        self._lowered_entry: Optional[Tuple[Optional[tensor.TensorGame]]] = None
        #: key -> ("ok", value) | ("err", detached error); profile
        #: sweeps sit under ("sweep", need_eq, collect)
        self._memo: Dict[Any, Tuple[str, Any]] = {}
        #: Reuse hook for long-lived, shared sessions: the memo is not
        #: itself thread-safe, so callers sharing one session
        #: across threads (e.g. :mod:`repro.service.registry`) hold this
        #: reentrant lock around query work.  Single-threaded use never
        #: touches it.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _entry(self, key: Any) -> Optional[Tuple[str, Any]]:
        """The memo entry serving ``key`` (a sweep's via :meth:`_served`)."""
        if key[0] == "sweep":
            return self._served(key[1], key[2])
        return self._memo.get(key)

    def _store(
        self, key: Any, value: Any, error: Optional[Exception] = None
    ) -> Tuple[str, Any]:
        """The one memo write: ``value``, or ``error`` detached, under
        ``key`` unless an entry already serves it (the first write wins).
        Returns the entry that serves ``key``."""
        entry = self._entry(key)
        if entry is None:
            entry = ("ok", value) if error is None else ("err", _detached(error))
            self._memo[key] = entry
        return entry

    def _memoized(self, key: Any, compute: Callable[[], Any]) -> Any:
        entry = self._entry(key)
        if entry is None:
            try:
                value = compute()
            except Exception as error:
                error.__traceback__ = None
                entry = self._store(key, None, error)
            else:
                entry = self._store(key, value)
        kind, payload = entry
        if kind == "err":
            raise _detached(payload)
        return payload

    def _kernel(self) -> Optional[tensor.TensorGame]:
        """The game's lowering, computed (at most) once, on whichever
        block store :func:`~repro.core.tensor.maybe_lower` picked — or
        ``None`` (reference path).  Both stores run the same kernels, so
        every dispatch site below is store-agnostic.  The lowering is the
        one decision the session's engine pin governs."""
        if self._lowered_entry is None:
            with tensor.engine_override(self.engine):
                self._lowered_entry = (
                    tensor.maybe_lower(self.game, self.max_action_profiles),
                )
        return self._lowered_entry[0]

    def lowered(self) -> Optional[tensor.TensorGame]:
        """The lowering when its store is pinned, else ``None``: the SoA
        batch engine stacks every state's block across games, which an
        LRU store does not hold."""
        lowered = self._kernel()
        return lowered if lowered is not None and lowered.pinned else None

    def lazy_lowered(self) -> Optional[tensor.TensorGame]:
        """The lowering when its store is LRU (the game is past the dense
        cell guard), else ``None``."""
        lowered = self._kernel()
        return lowered if lowered is not None and not lowered.pinned else None

    # ------------------------------------------------------------------
    # the one shared enumeration
    # ------------------------------------------------------------------
    def _served(self, need_eq: bool, collect: bool) -> Optional[Tuple[str, Any]]:
        """The :meth:`_enumeration` memo entry that serves a request, or
        ``None``: the capability lattice.

        A cached result serves any request it subsumes.  A cached *error*
        serves only where the matching free function would raise it: a
        check-free pass's work is a prefix of every pass, and the
        :class:`ExplosionError` guard trips identically at every
        capability level, so those errors serve all requests; an
        equilibrium-check error serves only equilibrium-needing requests
        (a plain ``opt_p`` then runs its own check-free pass, exactly
        like the free function).
        """
        need_eq = need_eq or collect
        levels = [  # most capable first
            (eq, col, self._memo.get(("sweep", eq, col)))
            for eq, col in ((True, True), (True, False), (False, False))
        ]
        for eq, col, entry in levels:
            if entry and entry[0] == "ok" and (eq or not need_eq) and (col or not collect):
                return entry
        for eq, _, entry in levels:
            if entry and entry[0] == "err" and (
                not eq or need_eq or isinstance(entry[1], ExplosionError)
            ):
                return entry
        return None

    def _enumeration(self, need_eq: bool, collect: bool = False) -> tensor.ProfileSweep:
        """The memoized pass over the strategy profiles at (at least) the
        given capability (see :meth:`_served`): the lowered profile
        sweep, else the reference scan.  Either way ``argmin_index`` and
        ``eq_indices`` are positions in
        :func:`~repro.core.strategy.enumerate_strategy_profiles` order."""
        need_eq = need_eq or collect

        def compute() -> tensor.ProfileSweep:
            lowered = self._kernel()
            if lowered is None:
                return self._reference_sweep(need_eq, collect)
            return lowered.sweep_profiles(
                self.max_strategy_profiles,
                collect_equilibria=collect,
                check_equilibria=need_eq,
            )

        return self._memoized(("sweep", need_eq, collect), compute)

    def _reference_sweep(self, need_eq: bool, collect: bool) -> tensor.ProfileSweep:
        """The reference scan: profiles in ``enumerate_strategy_profiles``
        order with running ``min``/``max`` folds, so every value is
        bit-identical to the free functions' own enumeration, and an
        extremes-only scan stays O(1) in memory."""
        opt = float("inf")
        argmin = -1
        best_eq = float("inf")
        worst_eq = float("-inf")
        eq_found = False
        eq_indices: Optional[List[int]] = [] if collect else None
        for index, strategies in enumerate(
            enumerate_strategy_profiles(self.game, self.max_strategy_profiles)
        ):
            cost = self.game.social_cost(strategies)
            if cost < opt:
                opt = cost
                argmin = index
            if need_eq and self.is_bayesian_equilibrium(strategies):
                if eq_indices is not None:
                    eq_indices.append(index)
                best_eq = min(best_eq, cost)
                worst_eq = max(worst_eq, cost)
                eq_found = True
        return tensor.ProfileSweep(opt, argmin, best_eq, worst_eq, eq_found, eq_indices)

    def _decode(self, indices: Iterable[int]) -> List[StrategyProfile]:
        """The profiles at :meth:`_enumeration` positions ``indices``."""
        lowered = self._kernel()
        agents = tensor.agent_spaces(self.game) if lowered is None else lowered.agents
        return [tensor.decode_profile(agents, index) for index in indices]

    # ------------------------------------------------------------------
    # measures (each mirrors its free function exactly)
    # ------------------------------------------------------------------
    def opt_p(self) -> float:
        """``optP``; shares the session's profile sweep when one exists."""
        return self._enumeration(need_eq=False).opt_p

    def optimal_profile(self) -> Tuple[StrategyProfile, float]:
        """An ``optP``-achieving profile (first minimizer) and its cost."""
        sweep = self._enumeration(need_eq=False)
        assert sweep.argmin_index >= 0
        return self._decode([sweep.argmin_index])[0], sweep.opt_p

    def equilibrium_extreme_costs(self) -> Tuple[float, float]:
        """``(best-eqP, worst-eqP)`` over all pure Bayesian equilibria."""
        sweep = self._enumeration(need_eq=True)
        if not sweep.eq_found:
            raise RuntimeError(f"{self.game!r} has no pure Bayesian equilibrium")
        return sweep.best_eq, sweep.worst_eq

    def bayesian_equilibria(self) -> List[StrategyProfile]:
        """All pure Bayesian equilibria (collected once, copied out)."""

        def decode() -> List[StrategyProfile]:
            return self._decode(self._enumeration(need_eq=True, collect=True).eq_indices)

        return list(self._memoized(("equilibria",), decode))

    def state_optimum(self, profile: TypeProfile) -> float:
        """``min_a K_t(a)`` for one type profile (memoized per state):
        the block's optimum for a support state of a game that lowers,
        the reference enumeration otherwise."""
        profile = tuple(profile)

        def compute() -> float:
            lowered = self._kernel()
            s = None if lowered is None else lowered.state_index.get(profile)
            if s is not None:
                return lowered.state_block(s).optimum()
            underlying = self.game.underlying_game(profile)
            return min(
                underlying.social_cost(actions)
                for actions in enumerate_action_profiles(
                    underlying, self.max_action_profiles
                )
            )

        return self._memoized(("state_opt", profile), compute)

    def _nash_extreme_costs(self, profile: TypeProfile) -> Tuple[float, float]:
        """Per-state Nash extremes (memoized; reference ``eq_c`` path)."""
        profile = tuple(profile)

        def compute() -> Tuple[float, float]:
            return nash_extreme_costs(
                self.game.underlying_game(profile), self.max_action_profiles
            )

        return self._memoized(("nash_extremes", profile), compute)

    def opt_c(self) -> float:
        """``optC = E_t[min_a K_t(a)]``: the lowering's fold when the game
        lowers and no session plugin is installed, else the plugin (or
        the per-state enumeration) under the prior.  The two folds run
        the same support in the same order, so they agree bit for bit."""

        def compute() -> float:
            if self.state_solver is None:
                lowered = self._kernel()
                if lowered is not None:
                    return lowered.opt_c()
            return self.game.prior.expect(self.state_solver or self.state_optimum)

        return self._memoized(("opt_c",), compute)

    def eq_c(self) -> Tuple[float, float]:
        """``(best-eqC, worst-eqC)``: expected extreme Nash costs."""

        def compute() -> Tuple[float, float]:
            lowered = self._kernel()
            if lowered is not None:
                return lowered.eq_c()
            best_total = 0.0
            worst_total = 0.0
            for profile, prob in self.game.prior.support():
                best, worst = self._nash_extreme_costs(profile)
                best_total += prob * best
                worst_total += prob * worst
            return best_total, worst_total

        return self._memoized(("eq_c",), compute)

    def ignorance_report(self):
        """All six quantities packaged as an ``IgnoranceReport``."""
        return self._memoized(("report",), self._compute_report)

    def _compute_report(self):
        from .measures import IgnoranceReport

        best_p, worst_p = self.equilibrium_extreme_costs()
        best_c, worst_c = self.eq_c()
        report = IgnoranceReport(
            opt_p=self.opt_p(),
            best_eq_p=best_p,
            worst_eq_p=worst_p,
            opt_c=self.opt_c(),
            best_eq_c=best_c,
            worst_eq_c=worst_c,
            name=self.game.name,
        )
        report.verify_observation_2_2()
        return report

    def is_bayesian_equilibrium(self, strategies: StrategyProfile) -> bool:
        """Interim characterization: no positive-probability type of any
        agent strictly gains, over the session's own interim machinery
        (the one implementation behind
        :func:`repro.core.equilibrium.is_bayesian_equilibrium`)."""
        for agent in range(self.game.num_agents):
            for ti in self.game.prior.positive_types(agent):
                current = self.game.interim_cost(agent, ti, strategies)
                _, best = self.interim_best_response(agent, ti, strategies)
                if lt(best, current):
                    return False
        return True

    # ------------------------------------------------------------------
    # interim machinery and dynamics
    # ------------------------------------------------------------------
    def interim_best_response(
        self, agent: int, ti, strategies: StrategyProfile
    ) -> Tuple[Action, float]:
        """Best action of ``agent`` at type ``ti`` against ``strategies``
        (shares the session's lowering; not memoized — profiles vary)."""
        lowered = self._kernel()
        if lowered is not None:
            result = lowered.interim_best_response(agent, ti, strategies)
            if result is not None:
                return result
        best_action: Optional[Action] = None
        best_cost = float("inf")
        for candidate in self.game.feasible_actions(agent, ti):
            cost = self.game.interim_cost_of_action(agent, ti, candidate, strategies)
            if cost < best_cost:
                best_cost = cost
                best_action = candidate
        if best_action is None:  # pragma: no cover - feasible sets non-empty
            raise RuntimeError("agent has no feasible actions")
        return best_action, best_cost

    def best_response_dynamics(
        self,
        initial: Optional[StrategyProfile] = None,
        max_rounds: int = 10_000,
    ) -> StrategyProfile:
        """Interim best-response dynamics to a pure Bayesian equilibrium.

        Same semantics as the free function (tensor kernel when the game
        lowers and the initial profile encodes, reference sweep
        otherwise), but the lowering and the conditional expected-cost
        tables are the session's shared copies.
        """
        strategies = (
            initial if initial is not None else greedy_strategy_profile(self.game)
        )
        lowered = self._kernel()
        if lowered is not None:
            result = lowered.best_response_dynamics(strategies, max_rounds)
            if result is not None:
                return result
        for _ in range(max_rounds):
            changed = False
            for agent in range(self.game.num_agents):
                for ti in self.game.prior.positive_types(agent):
                    current = self.game.interim_cost(agent, ti, strategies)
                    best_action, best_cost = self.interim_best_response(
                        agent, ti, strategies
                    )
                    if lt(best_cost, current):
                        strategies = replace_strategy_action(
                            self.game, strategies, agent, ti, best_action
                        )
                        changed = True
            if not changed:
                return strategies
        raise RuntimeError("Bayesian best-response dynamics did not converge")

    # ------------------------------------------------------------------
    # the query planner
    # ------------------------------------------------------------------
    def plan(self, queries: Sequence[Query]) -> None:
        """Pre-compute the union of the bundle's shared requirements.

        One profile sweep (or reference scan) at the union capability
        serves every sweep-backed query in the bundle; errors are
        memoized here and re-raised by exactly the queries whose free
        function would raise them.
        """
        need_sweep, need_eq, collect = _requirements(queries)
        if not need_sweep:
            return
        try:
            self._enumeration(need_eq, collect)
        except Exception:
            pass  # memoized; re-raised by the queries that depend on it

    def _answer(self, item: Query) -> Any:
        kwargs = item.kwargs
        measure = item.measure
        if measure == "opt_p":
            return self.opt_p()
        if measure == "optimal_profile":
            return self.optimal_profile()
        if measure == "opt_c":
            return self.opt_c()
        if measure == "eq_p":
            pair = self.equilibrium_extreme_costs()
            return _component(pair, kwargs.get("kind", "both"), "eq_p")
        if measure == "eq_c":
            pair = self.eq_c()
            return _component(pair, kwargs.get("kind", "both"), "eq_c")
        if measure == "equilibria":
            return self.bayesian_equilibria()
        if measure == "ignorance_report":
            return self.ignorance_report()
        if measure == "ratio":
            report = self.ignorance_report()
            return report.ratio(kwargs["numerator"], kwargs["denominator"])
        if measure == "state_optimum":
            return self.state_optimum(tuple(kwargs["profile"]))
        if measure == "dynamics":
            return self.best_response_dynamics(
                initial=kwargs.get("initial"),
                max_rounds=kwargs.get("max_rounds", 10_000),
            )
        raise ValueError(
            f"unknown measure {measure!r}; expected one of {sorted(MEASURES)}"
        )

    def evaluate(self, queries: Iterable[Any]) -> List[Any]:
        """Answer a bundle of queries, sharing subcomputations.

        ``queries`` may mix :class:`Query` objects and bare measure
        names; results align with the input order.
        """
        normalized = [
            item if isinstance(item, Query) else query(str(item))
            for item in queries
        ]
        self.plan(normalized)
        return [self._answer(item) for item in normalized]

    def __repr__(self) -> str:
        label = f" {self.game.name!r}" if self.game.name else ""
        return (
            f"<GameSession{label} engine={self.engine!r} "
            f"k={self.game.num_agents} memo={len(self._memo)}>"
        )


class BatchSession:
    """Sessions over many games, evaluated with one shared query plan.

    ``evaluate_many`` answers the same bundle for every game and returns
    one result row per game, **bit-identical** (values and raised
    errors) to calling :meth:`GameSession.evaluate` per game.  The
    structure-of-arrays fast path buckets lowerable games by
    :attr:`repro.core.tensor.TensorGame.signature` — same per-agent feasible
    radices, same support shapes — stacks each bucket's cost tensors on
    a leading game axis (:func:`repro.core.tensor.stack_lanes`), and
    runs :class:`~repro.core.tensor.TensorGame`'s lane kernels (the
    profile sweep, the ``eq_c`` / ``opt_c`` folds, best-response
    dynamics) as single NumPy calls per bucket.  Kernel
    results land in each game's own session memo at exactly the keys
    the looped path would fill, so every row is still answered by the
    session's own ``_answer`` — per-game fold order, tie-breaks, and
    error messages (:class:`~repro._util.ExplosionError`, the
    no-feasible-action / no-equilibrium ``RuntimeError``) come out
    unchanged, including for games that fail inside an otherwise
    healthy bucket.  Non-lowerable games (and the ``reference`` engine)
    fall back to the looped per-game path automatically.
    """

    def __init__(self, games: Sequence[BayesianGame], **config: Any) -> None:
        self.sessions = [GameSession(game, **config) for game in games]

    @classmethod
    def from_sessions(cls, sessions: Sequence[GameSession]) -> "BatchSession":
        """Wrap pre-built sessions (e.g. NCS sessions with solvers).

        Bypasses ``__init__``, so it validates what construction would
        have guaranteed: one batch, one engine.  Sessions pinned to
        different engines would silently answer one bundle with mixed
        semantics — that is always a caller bug, so it raises.
        """
        sessions = list(sessions)
        engines = {session.engine for session in sessions}
        if len(engines) > 1:
            raise ValueError(
                "sessions in one BatchSession must share an engine; got "
                f"{sorted(engines)} — pin one (GameSession(engine=...)) or "
                "split the batch per engine"
            )
        batch = cls.__new__(cls)
        batch.sessions = sessions
        return batch

    def evaluate_many(
        self,
        queries: Iterable[Any],
        *,
        kernels: str = "auto",
        on_error: str = "raise",
    ) -> List[List[Any]]:
        """Answer one bundle for every game; one result row per game.

        ``kernels="auto"`` dispatches bucketed
        structure-of-arrays kernels where games lower, falling back to
        the looped per-game path otherwise; ``"loop"`` forces the
        per-game path for everything (the benchmark baseline).  Values
        and errors are identical either way.

        ``on_error="raise"`` propagates the first failing cell (input
        order), exactly like the looped path always did;
        ``on_error="capture"`` places the exception, without its
        traceback, in that game's row cell instead, so one failing game
        cannot hide the other games' results (the service batch endpoint
        uses this).  A bundle the planner refuses (an unknown measure)
        fails every cell of every row with its ``ValueError``, before any
        work.
        """
        if kernels not in ("auto", "loop"):
            raise ValueError(
                f"unknown kernels mode {kernels!r}; expected 'auto' or 'loop'"
            )
        if on_error not in ("raise", "capture"):
            raise ValueError(
                f"unknown on_error mode {on_error!r}; "
                "expected 'raise' or 'capture'"
            )
        normalized = [
            item if isinstance(item, Query) else query(str(item))
            for item in queries
        ]
        try:
            requirements = _requirements(normalized)
        except ValueError as error:
            if on_error == "raise" and self.sessions:
                raise
            refused = _detached(error)
            return [[refused] * len(normalized) for _ in self.sessions]
        extras: Dict[Tuple[int, Query], Tuple[str, Any]] = {}
        if kernels != "loop" and self.sessions:
            extras = self._batch_dispatch(normalized, requirements)
        rows: List[List[Any]] = []
        for index, session in enumerate(self.sessions):
            with session.lock:
                session.plan(normalized)
                row: List[Any] = []
                for item in normalized:
                    try:
                        kind, value = extras.get((index, item)) or (
                            "ok", session._answer(item)
                        )
                        if kind == "err":
                            raise _detached(value)
                        row.append(value)
                    except Exception as error:
                        if on_error == "raise":
                            raise
                        row.append(_detached(error))
                rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # the structure-of-arrays dispatch
    # ------------------------------------------------------------------
    def _buckets(self) -> Tuple[Dict[Any, List[int]], int]:
        """Lowerable game indices grouped by kernel-compatible shape."""
        buckets: Dict[Any, List[int]] = {}
        fallback = 0
        for index, session in enumerate(self.sessions):
            with session.lock:
                lowered = session.lowered()
            if lowered is None:
                fallback += 1
                continue
            key = (session.max_strategy_profiles, lowered.signature)
            buckets.setdefault(key, []).append(index)
        return buckets, fallback

    def bucket_plan(self) -> Dict[str, Any]:
        """Bucket occupancy of the SoA dispatch (for benchmarks/ops):
        bucket sizes descending plus the looped-fallback game count."""
        buckets, fallback = self._buckets()
        sizes = sorted((len(indices) for indices in buckets.values()), reverse=True)
        return {
            "games": len(self.sessions),
            "buckets": sizes,
            "fallback": fallback,
        }

    def _batch_dispatch(
        self, normalized: Sequence[Query], requirements: Tuple[bool, bool, bool]
    ) -> Dict[Tuple[int, Query], Tuple[str, Any]]:
        extras: Dict[Tuple[int, Query], Tuple[str, Any]] = {}
        buckets, _fallback = self._buckets()
        for (max_profiles, _signature), indices in buckets.items():
            lowered = self.sessions[indices[0]].lowered()
            cells = lowered.total_cells
            # Chunk oversized buckets so one stack never exceeds the
            # engine-wide cell budget; per-lane results are partition-
            # independent, so chunking cannot change any value.
            limit = max(1, tensor.TENSOR_MAX_CELLS // max(1, cells))
            for start in range(0, len(indices), limit):
                self._run_bucket(
                    indices[start:start + limit], max_profiles, normalized,
                    requirements, extras,
                )
        return extras

    @staticmethod
    def _fill(session: GameSession, key, result, error) -> None:
        """Install one kernel result in a session memo (first write wins)."""
        with session.lock:
            session._store(key, result, error)

    def _run_bucket(
        self,
        indices: List[int],
        max_profiles: int,
        normalized: Sequence[Query],
        requirements: Tuple[bool, bool, bool],
        extras: Dict[Tuple[int, Query], Tuple[str, Any]],
    ) -> None:
        need_sweep, need_eq, collect = requirements
        measures = {item.measure for item in normalized}
        sessions = [self.sessions[index] for index in indices]
        lowered = [session.lowered() for session in sessions]
        template = lowered[0]
        lanes = tensor.stack_lanes(lowered)

        def stacked(todo: List[int]) -> tensor.Lanes:
            """The lanes of the bucket positions ``todo``: the bucket's
            stack, restacked only for a strict subset."""
            if len(todo) == len(lowered):
                return lanes
            return tensor.stack_lanes([lowered[position] for position in todo])

        def sweep(need_eq: bool, collect: bool) -> None:
            """One lane sweep over the sessions whose memo does not
            already serve ``(need_eq, collect)``, filled into their memos."""
            key = ("sweep", need_eq, collect)
            todo = [
                position
                for position, session in enumerate(sessions)
                if session._entry(key) is None
            ]
            if todo:
                sweeps, errors = template._sweep_lanes(
                    stacked(todo), max_profiles, collect, need_eq
                )
                for position, result, error in zip(todo, sweeps, errors):
                    self._fill(sessions[position], key, result, error)

        if need_sweep:
            sweep(need_eq or collect, collect)
            if (need_eq or collect) and measures & {"opt_p", "optimal_profile"}:
                # The looped lattice: an equilibrium-check error does not
                # poison sweep-only measures — they get a check-free sweep.
                sweep(False, False)
        if measures & {"eq_c", "ignorance_report", "ratio"}:
            todo = [
                position
                for position, session in enumerate(sessions)
                if ("eq_c",) not in session._memo
            ]
            if todo:
                pairs, errors = template._eq_c_lanes(stacked(todo))
                for position, pair, error in zip(todo, pairs, errors):
                    self._fill(sessions[position], ("eq_c",), pair, error)
        if "state_optimum" in measures:
            states = range(len(template.states))
            optima = [lanes.blocks(s)[1].min(axis=1).tolist() for s in states]
            for position, session in enumerate(sessions):
                for s, profile in enumerate(lowered[position].states):
                    value = optima[s][position]
                    self._fill(session, ("state_opt", profile), value, None)
        if measures & {"opt_c", "ignorance_report", "ratio"}:
            totals = template._opt_c_lanes(lanes)
            for position, session in enumerate(sessions):
                if session.state_solver is None:
                    value = float(totals[position])
                    self._fill(session, ("opt_c",), value, None)
        if "dynamics" in measures:
            self._run_bucket_dynamics(
                indices, sessions, lowered, stacked, normalized, extras
            )

    def _run_bucket_dynamics(
        self,
        indices: List[int],
        sessions: List[GameSession],
        lowered: List[tensor.TensorGame],
        stacked: Callable[[List[int]], tensor.Lanes],
        normalized: Sequence[Query],
        extras: Dict[Tuple[int, Query], Tuple[str, Any]],
    ) -> None:
        dynamics_queries = dict.fromkeys(
            item for item in normalized if item.measure == "dynamics"
        )
        for item in dynamics_queries:
            kwargs = item.kwargs
            initial = kwargs.get("initial")
            max_rounds = kwargs.get("max_rounds", 10_000)
            digit_rows: List[List[List[int]]] = []
            positions: List[int] = []
            templates: Dict[int, StrategyProfile] = {}
            for position, session in enumerate(sessions):
                start = (
                    initial
                    if initial is not None
                    else greedy_strategy_profile(session.game)
                )
                digits = lowered[position].encode_strategies(start)
                if digits is None:
                    continue  # non-encodable: the session keeps the
                    # reference loop, exactly like the per-game path
                digit_rows.append(digits)
                positions.append(position)
                templates[position] = start
            if not digit_rows:
                continue
            results, errors = lowered[0]._dynamics_lanes(
                stacked(positions), digit_rows, max_rounds
            )
            for position, result, error in zip(positions, results, errors):
                if error is not None:
                    extras[(indices[position], item)] = ("err", error)
                else:
                    profile = lowered[position].decode_digits(
                        templates[position], result
                    )
                    extras[(indices[position], item)] = ("ok", profile)

    def __len__(self) -> int:
        return len(self.sessions)


def evaluate(game: BayesianGame, queries: Iterable[Any], **config: Any) -> List[Any]:
    """One-shot convenience: ``GameSession(game, **config).evaluate(...)``."""
    return GameSession(game, **config).evaluate(queries)
