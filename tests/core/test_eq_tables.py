"""The factored equilibrium check: per-lowering interim best-response tables.

``TensorGame.sweep_profiles`` and ``BatchTensorGame.sweep_profiles``
check the interim equilibrium condition with one boolean gather per
(agent, positive type) row, from tables built once per lowering.  These
tests pin the tables to brute force, the oversized-row gather fallback
to the tables, the ``+inf`` error path to the reference, and the cache
to the lowering's lifetime.
"""

import gc
import weakref
from itertools import product

import numpy as np
import pytest

from repro._util import TOLERANCE, lt
from repro.core import (
    BayesianGame,
    CommonPrior,
    engine_override,
    enumerate_bayesian_equilibria,
    tensor,
)
from repro.core.lazy import lower_game_lazy
from repro.core.matrix_game import MatrixGame, bayesian_game_from_state_games

BIG = 10**9
INF = float("inf")


def _two_sided_game(seed, actions=3, pool=None):
    """Two agents with two types each over three support states.

    Each agent's type 0 conditions on two states — a joint row of
    ``actions**4`` cells, as many as the game has strategy profiles, so
    it is tabled — and type 1 on one state.
    """
    rng = np.random.default_rng(seed)
    support = [(0, 0), (0, 1), (1, 0)]
    probs = [float(p) for p in rng.dirichlet(np.ones(len(support)))]
    costs = {}
    for profile in support:
        for chosen in product(range(actions), repeat=2):
            for agent in range(2):
                value = rng.uniform(0.1, 2.0) if pool is None else rng.choice(pool)
                costs[(agent, profile, chosen)] = float(value)
    return BayesianGame(
        [list(range(actions))] * 2,
        [[0, 1], [0, 1]],
        CommonPrior(dict(zip(support, probs))),
        lambda agent, profile, chosen: costs[(agent, tuple(profile), tuple(chosen))],
    )


def _informed_agent_game(seed):
    """One informed agent over three random state games; the uninformed
    agents' rows span every state, far more joint cells than profiles."""
    rng = np.random.default_rng(seed)
    shape = (3, 2, 2)
    games = [MatrixGame([rng.uniform(0.1, 2.0, size=shape) for _ in shape]) for _ in range(3)]
    probs = rng.dirichlet(np.ones(3))
    return bayesian_game_from_state_games(games, [float(p) for p in probs])


def _multi_rows(lowered):
    return [
        (i, r)
        for i, rows in enumerate(lowered._cond)
        for r, row in enumerate(rows)
        if len(row[1]) > 1
    ]


def _brute_force_row(lowered, agent, row):
    """Scalar fold of one row over every own-digit-consistent joint cell:
    ``{joint_cell: (good, bad)}``."""
    _tpos, cond_states, weights, n_dev = lowered._cond[agent][row]
    states = [lowered.state_block(s) for s in cond_states]
    strides = [lowered.state_strides[s][agent] for s in cond_states]
    joint_strides = tensor._c_strides([state.size for state in states])
    verdicts = {}
    for cells in product(*(range(state.size) for state in states)):
        owns = {(cell // stride) % n_dev for cell, stride in zip(cells, strides)}
        if len(owns) != 1:
            continue  # never gathered: the agent's digit is shared
        (own,) = owns
        interim = []
        for deviation in range(n_dev):
            total = 0.0
            for q, cell, state, stride in zip(weights, cells, states, strides):
                moved = cell + stride * (deviation - own)
                total += float(q) * float(state.costs[agent][moved])
            interim.append(total)
        best = min(interim)
        joint = sum(cell * stride for cell, stride in zip(cells, joint_strides))
        verdicts[joint] = (not lt(best, interim[own]), not best < INF)
    return verdicts


def _outcome(fn):
    try:
        return "ok", fn()
    except RuntimeError as error:
        return "err", (type(error), str(error))


class TestTables:
    def test_multi_state_row_matches_brute_force(self):
        lowered = tensor.lower_game(_two_sided_game(1))
        rows = _multi_rows(lowered)
        assert len(rows) == 2, "each agent's type 0 spans two states"
        tables = lowered._equilibrium_tables()
        for agent, row in rows:
            table = tables[agent][row]
            assert table is not None
            for joint, (good, bad) in _brute_force_row(lowered, agent, row).items():
                assert bool(table.good[0, joint]) is good
                assert not bad
            assert table.bad is None

    def test_single_state_rows_match_brute_force(self):
        lowered = tensor.lower_game(_two_sided_game(2))
        tables = lowered._equilibrium_tables()
        for agent, rows in enumerate(lowered._cond):
            for row, (_tpos, cond_states, _w, _n) in enumerate(rows):
                if len(cond_states) != 1:
                    continue
                verdicts = _brute_force_row(lowered, agent, row)
                assert len(verdicts) == lowered.state_sizes[cond_states[0]]
                for cell, (good, _bad) in verdicts.items():
                    assert bool(tables[agent][row].good[0, cell]) is good

    def test_bad_table_marks_all_inf_rows(self):
        state = MatrixGame([
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([[1.0, 2.0], [INF, INF]]),
        ])
        lowered = tensor.lower_game(bayesian_game_from_state_games([state], [1.0]))
        tables = lowered._equilibrium_tables()
        assert tables[0][0].bad is None
        assert tables[1][0].bad[0].tolist() == [False, False, True, True]

    def test_check_free_sweeps_never_build_tables(self):
        lowered = tensor.lower_game(_two_sided_game(3))
        lowered.sweep_profiles(BIG, check_equilibria=False)
        assert lowered._eq_tables is None
        lowered.sweep_profiles(BIG)
        assert lowered._eq_tables is not None


class TestGatherFallback:
    def test_joint_row_with_more_cells_than_profiles_keeps_the_gather_path(self):
        lowered = tensor.lower_game(_informed_agent_game(6))
        tables = lowered._equilibrium_tables()
        rows = _multi_rows(lowered)
        assert rows
        for agent, row in rows:
            assert tables[agent][row] is None
        sweep = lowered.sweep_profiles(BIG, collect_equilibria=True)
        equilibria = [lowered.decode_profile(index) for index in sweep.eq_indices]
        with engine_override("reference"):
            assert enumerate_bayesian_equilibria(_informed_agent_game(6)) == equilibria

    def test_row_over_block_cells_keeps_the_gather_path(self, monkeypatch):
        game = _two_sided_game(4)
        tabled = tensor.lower_game(game)
        expected = tabled.sweep_profiles(BIG, collect_equilibria=True)
        (agent, row), *_ = _multi_rows(tabled)
        assert tabled._equilibrium_tables()[agent][row] is not None
        _tpos, cond_states, _w, n_dev = tabled._cond[agent][row]
        joint = n_dev
        for s in cond_states:
            joint *= tabled.state_sizes[s]
        monkeypatch.setattr(tensor, "BLOCK_CELLS", joint - 1)
        gathered = tensor.lower_game(game)
        tables = gathered._equilibrium_tables()
        assert tables[agent][row] is None
        assert all(
            table is not None
            for rows, conds in zip(tables, gathered._cond)
            for table, cond in zip(rows, conds)
            if len(cond[1]) == 1
        )
        assert gathered.sweep_profiles(BIG, collect_equilibria=True) == expected
        batch = tensor.BatchTensorGame([gathered, tensor.lower_game(game)])
        sweeps, errors = batch.sweep_profiles(BIG, collect_equilibria=True)
        assert errors == [None, None]
        assert sweeps == [expected, expected]


class TestErrorPath:
    @staticmethod
    def _game(agent0_prefers_first):
        # Agent 1 has no finite action whenever agent 0 plays action 1.
        agent0 = [[1.0, 1.0], [2.0 if agent0_prefers_first else 1.0] * 2]
        state = MatrixGame([
            np.array(agent0),
            np.array([[1.0, 2.0], [INF, INF]]),
        ])
        return bayesian_game_from_state_games([state], [1.0])

    def test_excluded_profiles_do_not_raise(self):
        game = self._game(agent0_prefers_first=True)
        with engine_override("reference"):
            reference = _outcome(lambda: enumerate_bayesian_equilibria(self._game(True)))
        assert reference[0] == "ok"
        assert _outcome(lambda: enumerate_bayesian_equilibria(game)) == reference

    def test_reachable_all_inf_row_raises_like_the_reference(self):
        game = self._game(agent0_prefers_first=False)
        with engine_override("reference"):
            reference = _outcome(lambda: enumerate_bayesian_equilibria(self._game(False)))
        assert reference == ("err", (RuntimeError, "agent has no feasible actions"))
        assert _outcome(lambda: enumerate_bayesian_equilibria(game)) == reference

    def test_batch_records_the_error_in_the_failing_lane_only(self):
        healthy = [tensor.lower_game(self._game(True)) for _ in range(2)]
        failing = tensor.lower_game(self._game(False))
        batch = tensor.BatchTensorGame([healthy[0], failing, healthy[1]])
        sweeps, errors = batch.sweep_profiles(BIG, collect_equilibria=True)
        assert errors[0] is None and errors[2] is None
        assert type(errors[1]) is RuntimeError
        assert str(errors[1]) == "agent has no feasible actions"
        assert sweeps[1] is None
        expected = healthy[0].sweep_profiles(BIG, collect_equilibria=True)
        assert sweeps[0] == sweeps[2] == expected


class TestTolerance:
    #: Costs one tolerance step apart: interim sums tie, or miss a tie by
    #: less than, exactly, or more than the tolerance.
    POOL = [1.0 + step * TOLERANCE / 2 for step in range(5)] + [3.0]

    @pytest.mark.parametrize("seed", range(12))
    def test_tie_rich_games_match_reference_and_gather(self, seed, monkeypatch):
        def build():
            return _two_sided_game(100 + seed, pool=self.POOL)

        tabled = tensor.lower_game(build())
        tables = tabled._equilibrium_tables()
        assert all(tables[agent][row] is not None for agent, row in _multi_rows(tabled))
        sweep = tabled.sweep_profiles(BIG, collect_equilibria=True)
        equilibria = [tabled.decode_profile(index) for index in sweep.eq_indices]
        with engine_override("reference"):
            assert enumerate_bayesian_equilibria(build()) == equilibria
        lazy = lower_game_lazy(build())
        assert lazy.sweep_profiles(BIG, collect_equilibria=True) == sweep
        monkeypatch.setattr(tensor, "BLOCK_CELLS", 1)
        assert tensor.lower_game(build()).sweep_profiles(
            BIG, collect_equilibria=True
        ) == sweep


class TestLifetime:
    def test_drop_lowering_releases_the_tables(self):
        game = _two_sided_game(5)
        lowered = tensor.maybe_lower(game)
        lowered.sweep_profiles(BIG)
        table = next(t for rows in lowered._eq_tables for t in rows if t is not None)
        released = weakref.ref(table.good)
        del lowered, table
        tensor.drop_lowering(game)
        gc.collect()
        assert released() is None
        assert tensor.maybe_lower(game)._eq_tables is None
