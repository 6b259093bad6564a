"""Randomized cross-engine differential tests (the engine fuzzer).

Runs a few hundred seeded random games — tabular and NCS families, see
``fuzz_games`` — through every public measure and dynamics entry point
under both the reference and the tensor engine, asserting exact
agreement.  A failure shrinks the game to a local minimum and fails with
a self-contained repro (see ``fuzz_harness``).

The seed range is split into chunks so a parity regression pinpoints its
neighborhood quickly while keeping collection overhead low.
"""

import pytest

from repro.core import tensor

from fuzz_games import spec_for_seed
from fuzz_harness import (
    check_batch_specs,
    check_session_spec,
    check_spec,
    format_failure,
    minimize,
    minimize_batch,
)

#: Total seeded games per full run (the CI gate demands >= 200).
N_GAMES = 240
CHUNK = 24
#: Chunks that stay in the fast inner loop (`pytest -m "not slow"`); the
#: rest are marked ``slow`` and still run in CI / the full suite.
FAST_CHUNKS = 2

#: Seeded games the session facade replays against the free functions
#: (each runs four batteries: two paths x two engines).
N_SESSION_GAMES = 120
SESSION_FAST_CHUNKS = 1

#: Seeded games the batch engine replays: free functions vs
#: ``kernels="loop"`` vs ``kernels="auto"``, per game, both engines.
N_BATCH_GAMES = 120
BATCH_FAST_CHUNKS = 1


def _run_seeds(seeds) -> None:
    for seed in seeds:
        spec = spec_for_seed(seed)
        mismatch = check_spec(spec)
        if mismatch is not None:
            minimized = minimize(mismatch)
            pytest.fail(format_failure(seed, mismatch, minimized))


@pytest.mark.parametrize(
    "chunk",
    [
        pytest.param(chunk, marks=[pytest.mark.slow] if chunk >= FAST_CHUNKS else [])
        for chunk in range(N_GAMES // CHUNK)
    ],
)
def test_engines_agree_on_random_games(chunk):
    _run_seeds(range(chunk * CHUNK, (chunk + 1) * CHUNK))


@pytest.mark.parametrize(
    "chunk",
    [
        pytest.param(
            chunk,
            marks=[pytest.mark.slow] if chunk >= SESSION_FAST_CHUNKS else [],
        )
        for chunk in range(N_SESSION_GAMES // CHUNK)
    ],
)
def test_session_facade_agrees_with_free_functions(chunk):
    """Every fuzzed game, replayed through one shared GameSession.

    The memoized session — planner, shared sweep, cached state analyses
    — must reproduce the free-function outcomes *exactly* (values and
    exceptions) under both engines.
    """
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        mismatch = check_session_spec(spec_for_seed(seed))
        if mismatch is not None:
            pytest.fail(mismatch.describe())


@pytest.mark.parametrize(
    "chunk",
    [
        pytest.param(
            chunk,
            marks=[pytest.mark.slow] if chunk >= BATCH_FAST_CHUNKS else [],
        )
        for chunk in range(N_BATCH_GAMES // CHUNK)
    ],
)
def test_batch_engine_agrees_with_looped_and_free(chunk):
    """Whole fuzz chunks as one batch: SoA == looped == free functions.

    Each chunk's games form one ``BatchSession`` (heterogeneous shapes,
    so bucketing and the fallback path are both in play), evaluated with
    captured errors — per-game values *and* exceptions must be
    bit-identical across all three paths on both engines.  A mismatch
    shrinks to a minimal singleton repro.
    """
    specs = [
        spec_for_seed(seed)
        for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK)
    ]
    mismatch = check_batch_specs(specs)
    if mismatch is not None:
        minimized = minimize_batch(mismatch)
        pytest.fail(
            mismatch.describe() + "\n\nminimized repro:\n"
            + minimized.describe() + "\n" + minimized.spec.describe()
        )


class TestHarnessDetectsFaults:
    """The differential harness must not be vacuous: an injected engine
    bug has to surface as a mismatch and survive minimization."""

    def test_injected_tensor_fault_is_caught_and_minimized(self, monkeypatch):
        # Skew the blocked profile sweep — the one shared kernel behind
        # optP and the equilibrium extremes on the session facade.
        original = tensor.TensorGame.sweep_profiles

        def skewed(self, max_profiles, collect_equilibria=False, check_equilibria=True):
            sweep = original(
                self,
                max_profiles,
                collect_equilibria=collect_equilibria,
                check_equilibria=check_equilibria,
            )
            sweep.opt_p += 0.125
            return sweep

        monkeypatch.setattr(tensor.TensorGame, "sweep_profiles", skewed)
        spec = spec_for_seed(0)
        mismatch = check_spec(spec)
        assert mismatch is not None
        assert any(key.startswith("opt_p") or key == "report" for key in mismatch.keys())
        minimized = minimize(mismatch)
        assert minimized.disagreements
        assert len(minimized.spec.support) <= len(spec.support)
        report = format_failure(0, mismatch, minimized)
        assert "minimized repro" in report
        assert "opt_p" in report or "report" in report

    def test_injected_batch_kernel_fault_is_caught(self, monkeypatch):
        """A skewed SoA sweep must surface in the batch battery.

        The fault only touches the stacked data :func:`tensor.stack_lanes`
        returns (its social costs), so a game's own one-lane view,
        ``kernels="loop"`` and the free functions stay correct — exactly
        the disagreement the battery compares for.
        """
        original = tensor.stack_lanes

        def skewed(lowered):
            lanes = original(lowered)
            blocks = lanes.blocks

            def skewed_blocks(s):
                costs, social = blocks(s)
                return costs, social + 0.125

            lanes.blocks = skewed_blocks
            return lanes

        monkeypatch.setattr(tensor, "stack_lanes", skewed)
        specs = [spec_for_seed(seed) for seed in range(8)]
        mismatch = check_batch_specs(specs)
        assert mismatch is not None
        keys = [key for key, _, _, _ in mismatch.disagreements]
        assert any(key in ("opt_p", "eq_p", "report") for key in keys)
        minimized = minimize_batch(mismatch)
        assert minimized.disagreements
        assert len(minimized.spec.support) <= len(mismatch.spec.support)

    def test_injected_dynamics_fault_is_caught(self, monkeypatch):
        """A wrong tie-break in the dynamics argmin must be detected."""
        original = tensor.TensorGame.best_response_dynamics

        def last_index_tiebreak(self, initial, max_rounds):
            result = original(self, initial, max_rounds)
            if result is None:
                return None
            # Re-run one sweep with a deliberately different tie-break:
            # perturb by choosing the *last* feasible action at every
            # type whose interim row ties at the minimum.
            digits = self.encode_strategies(result)
            assert digits is not None
            for agent in range(self.num_agents):
                for row in self._cond[agent]:
                    vector = self._interim_vector(agent, row, digits)
                    best = vector.min()
                    positions = [
                        p for p in range(row.n_dev) if vector[p] == best
                    ]
                    digits[agent][row.tpos] = positions[-1]
            return self.decode_digits(result, digits)

        monkeypatch.setattr(
            tensor.TensorGame, "best_response_dynamics", last_index_tiebreak
        )
        found = False
        for seed in range(40):
            mismatch = check_spec(spec_for_seed(seed))
            if mismatch is not None and any(
                key.startswith("bayes_dynamics") for key in mismatch.keys()
            ):
                found = True
                break
        assert found, "no game exposed the skewed dynamics tie-break"
