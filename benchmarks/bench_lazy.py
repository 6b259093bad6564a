"""Lazy-tier benchmark: on-demand blocks vs. the reference loop.

Three claims, checked on every run (pytest *or* ``python
benchmarks/bench_lazy.py``, the CI smoke step):

1. **Dynamics speedup.**  A 64-restart interim best-response dynamics
   batch on a mid-size random directed NCS game runs at least
   :data:`TARGET_SPEEDUP` times faster through the lazy kernels —
   end to end, structural lowering and block materialization included —
   than through the per-candidate reference loop, with the *identical*
   list of fixed points.
2. **Completes under lazy.**  A structured congestion-style game whose
   full tabulation (~9M cells) exceeds :data:`TENSOR_MAX_CELLS` — so the
   dense lowering refuses it outright — answers targeted interim
   best-response queries on the lazy tier, bit-identical to the
   reference candidate scan on the *same* game, while materializing
   only the conditional blocks those queries touch (residency stays a
   tiny fraction of the total).
3. **Down-scaled parity.**  A small variant of the same construction,
   checkable both ways, runs the full dynamics to the identical fixed
   point on the lazy kernels and the reference loop.

Wall-clock numbers land in ``results/bench-lazy/meta.json``.
"""

import json
import pathlib
import sys
import time

import numpy as np

from repro.constructions.random_games import random_bayesian_ncs
from repro.core import (
    BayesianGame,
    CommonPrior,
    bayesian_best_response_dynamics,
    engine_override,
)
from repro.core import tensor
from repro.core.equilibrium import interim_best_response
from repro.core.lazy import lower_game_lazy
from repro.core.tensor import lower_game, maybe_lower
from repro.runtime.artifacts import ArtifactStore

#: Acceptance floor for the lazy-vs-reference dynamics-batch speedup.
TARGET_SPEEDUP = 3.0

#: Starting profiles per dynamics batch (one greedy + seeded random).
DYNAMICS_RESTARTS = 64

#: Timing repetitions; best-of-N (min) filters scheduler noise on
#: loaded shared CI runners so the speedup floor does not flake.
REFERENCE_REPEATS = 2
LAZY_REPEATS = 5

#: Informed-agent types (= support states) and actions per agent in the
#: over-guard construction: ``512 * 18**3 * 3 = 8,957,952`` cost cells,
#: past the 8M dense cell guard, while each per-state block stays a
#: trivial ``18**3`` cells.
BIG_TYPES = 512
BIG_ACTIONS = 18

#: Down-scaled variant small enough to check both ways.
SMALL_TYPES = 4
SMALL_ACTIONS = 6

#: Informed types probed by the targeted interim queries.
TARGETED_QUERIES = 8


def congestion_game(num_types: int, num_actions: int) -> BayesianGame:
    """One informed agent over ``num_types`` single-resource states.

    Three agents choose one of ``num_actions`` resources; agent 0
    observes the state, agents 1 and 2 do not.  Costs are
    congestion-form — ``base(resource, state) * (1 + load / 4)`` — so
    every state game admits a Rosenthal potential and the Bayesian
    best-response dynamics converge.  The per-cell formula is trivially
    cheap: the game is big only in the cross product, the exact shape
    the lazy tier exists for.
    """
    actions = list(range(num_actions))
    prior = CommonPrior(
        {(t, 0, 0): 1.0 / num_types for t in range(num_types)}
    )

    def cost(agent, profile, actions_):
        state = profile[0]
        a = actions_[agent]
        load = sum(1 for other in actions_ if other == a)
        return float((a * 31 + state * 7) % 23 + 1) * (1.0 + load / 4.0)

    return BayesianGame(
        [actions] * 3,
        [list(range(num_types)), [0], [0]],
        prior,
        cost,
        name=f"congestion-{num_types}x{num_actions}",
    )


def _best_of(repeats, run):
    best_seconds = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, result


# ----------------------------------------------------------------------
# 1. dynamics speedup
# ----------------------------------------------------------------------

def dynamics_game():
    """A random directed NCS game sized for the dynamics batch (the
    same regime as ``bench_engine``: Dijkstra-backed feasible-path
    costs, a few thousand cells lowered)."""
    rng = np.random.default_rng(21_100)
    return random_bayesian_ncs(
        3, 8, rng, directed=True, extra_edges=14, scenarios=4,
        name="bench-lazy-dynamics",
    )


def dynamics_initials(game, count=DYNAMICS_RESTARTS):
    """The batch's starting profiles: greedy plus seeded random draws."""
    core = game.game
    rng = np.random.default_rng(177)
    profiles = [game.greedy_profile()]
    while len(profiles) < count:
        profile = []
        for agent in range(core.num_agents):
            per_type = []
            for ti in core.types(agent):
                feasible = core.feasible_actions(agent, ti)
                per_type.append(feasible[int(rng.integers(len(feasible)))])
            profile.append(tuple(per_type))
        profiles.append(tuple(profile))
    return profiles


def measure_dynamics_speedup():
    """(reference_seconds, lazy_seconds, identical_fixed_points).

    Each measurement runs the full restart batch on a *fresh* game —
    the lazy timing therefore pays its structural lowering and every
    block materialization — and takes the best of several runs.
    """
    initials = dynamics_initials(dynamics_game())

    def reference_batch():
        game = dynamics_game()
        return [
            bayesian_best_response_dynamics(game.game, initial=initial)
            for initial in initials
        ]

    def lazy_batch():
        lowered = lower_game_lazy(dynamics_game().game)
        assert lowered is not None and not lowered.pinned
        return [
            lowered.best_response_dynamics(initial, 10_000)
            for initial in initials
        ]

    with engine_override("reference"):
        reference_seconds, reference = _best_of(
            REFERENCE_REPEATS, reference_batch
        )
    lazy_seconds, lazy = _best_of(LAZY_REPEATS, lazy_batch)
    return reference_seconds, lazy_seconds, reference == lazy


# ----------------------------------------------------------------------
# 2. completes under lazy (over the dense cell guard)
# ----------------------------------------------------------------------

def measure_over_guard_targeted():
    """Targeted interim queries on a ~9M-cell game the dense tier refuses.

    Returns a dict: guard facts, per-query wall clock, bit-identical
    agreement with the reference candidate scan on the same game, and
    the block-cache residency after all queries (which must cover only
    the states the queries conditioned on).
    """
    game = congestion_game(BIG_TYPES, BIG_ACTIONS)
    dense_refused = lower_game(game) is None
    lazy = maybe_lower(game)
    is_lazy = lazy is not None and not lazy.pinned

    profile = tuple(
        tuple(space[0] for space in agent.choices) for agent in lazy.agents
    )
    queried_types = [
        int(t) for t in np.linspace(0, BIG_TYPES - 1, TARGETED_QUERIES)
    ]
    start = time.perf_counter()
    lazy_answers = [
        lazy.interim_best_response(0, ti, profile) for ti in queried_types
    ]
    elapsed = time.perf_counter() - start

    with engine_override("reference"):
        reference_answers = [
            interim_best_response(game, 0, ti, profile)
            for ti in queried_types
        ]

    stats = lazy.cache_stats()
    return {
        "total_cells": lazy.total_cells,
        "cell_guard": tensor.TENSOR_MAX_CELLS,
        "dense_refused": dense_refused,
        "lazy_engaged": is_lazy,
        "targeted_queries": len(queried_types),
        "targeted_seconds": round(elapsed, 3),
        "targeted_identical": lazy_answers == reference_answers,
        "resident_blocks": stats["resident_blocks"],
        "support_states": len(lazy.states),
        "resident_cells": stats["resident_cells"],
        "only_touched_blocks_resident": (
            stats["resident_blocks"] == len(queried_types)
        ),
    }


def measure_downscaled_parity():
    """Full dynamics on the small variant, both ways, identical result."""
    initials = [
        tuple(
            tuple(space[0] for space in agent.choices)
            for agent in lower_game(congestion_game(SMALL_TYPES, SMALL_ACTIONS)).agents
        )
    ]
    with engine_override("reference"):
        reference = [
            bayesian_best_response_dynamics(
                congestion_game(SMALL_TYPES, SMALL_ACTIONS), initial=initial
            )
            for initial in initials
        ]
    lazy = lower_game_lazy(congestion_game(SMALL_TYPES, SMALL_ACTIONS))
    lazied = [
        lazy.best_response_dynamics(initial, 10_000) for initial in initials
    ]
    return reference == lazied


def run_benchmark():
    reference_seconds, lazy_seconds, identical = measure_dynamics_speedup()
    speedup = reference_seconds / max(lazy_seconds, 1e-9)
    over_guard = measure_over_guard_targeted()
    meta = {
        "dynamics_reference_seconds": round(reference_seconds, 3),
        "dynamics_lazy_seconds": round(lazy_seconds, 3),
        "dynamics_speedup": round(speedup, 2),
        "dynamics_target_speedup": TARGET_SPEEDUP,
        "dynamics_restarts": DYNAMICS_RESTARTS,
        "dynamics_fixed_points_identical": identical,
        "over_guard": over_guard,
        "downscaled_dynamics_identical": measure_downscaled_parity(),
    }
    store = ArtifactStore(root=pathlib.Path(__file__).parent.parent / "results")
    store.write("bench-lazy", [], meta=meta)
    return meta


def test_lazy_dynamics_speedup_and_over_guard_queries(record):
    meta = run_benchmark()
    record([])
    assert meta["dynamics_fixed_points_identical"]
    assert meta["downscaled_dynamics_identical"]
    over_guard = meta["over_guard"]
    assert over_guard["total_cells"] > over_guard["cell_guard"]
    assert over_guard["dense_refused"]
    assert over_guard["lazy_engaged"]
    assert over_guard["targeted_identical"]
    assert over_guard["only_touched_blocks_resident"]
    assert meta["dynamics_speedup"] >= TARGET_SPEEDUP, meta


def main() -> int:
    meta = run_benchmark()
    print(json.dumps(meta, indent=2, sort_keys=True))
    over_guard = meta["over_guard"]
    if not meta["dynamics_fixed_points_identical"]:
        print("FAIL: lazy and reference fixed points differ", file=sys.stderr)
        return 1
    if not meta["downscaled_dynamics_identical"]:
        print("FAIL: down-scaled dynamics parity broken", file=sys.stderr)
        return 1
    if not (over_guard["dense_refused"] and over_guard["lazy_engaged"]):
        print("FAIL: over-guard game did not land on the lazy tier", file=sys.stderr)
        return 1
    if not over_guard["targeted_identical"]:
        print("FAIL: targeted interim queries differ from reference", file=sys.stderr)
        return 1
    if not over_guard["only_touched_blocks_resident"]:
        print("FAIL: lazy tier materialized untouched blocks", file=sys.stderr)
        return 1
    if meta["dynamics_speedup"] < TARGET_SPEEDUP:
        print(
            f"FAIL: dynamics speedup {meta['dynamics_speedup']}x below "
            f"target {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {meta['dynamics_speedup']}x lazy dynamics speedup, "
        f"{over_guard['targeted_queries']} targeted queries on a "
        f"{over_guard['total_cells']:,}-cell game in "
        f"{over_guard['targeted_seconds']}s with "
        f"{over_guard['resident_blocks']}/{over_guard['support_states']} "
        "blocks resident"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
