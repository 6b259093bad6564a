"""Engine benchmark: tensor lowering vs. reference enumeration, session
reuse vs. cold free-function calls, and backend parity through the
runtime.

Four claims, checked on every run (pytest *or* ``python
benchmarks/bench_engine.py``, the CI smoke step):

1. **Speedup.**  On a representative mid-size Bayesian game (one
   informed agent over random 3-agent state games: 46,656 strategy
   profiles), equilibrium enumeration through the tensor engine is at
   least :data:`TARGET_SPEEDUP` times faster than the per-profile
   reference path — while producing the *identical* equilibrium set.
2. **Dynamics speedup.**  A multi-restart interim best-response
   dynamics batch (equilibrium sampling from :data:`DYNAMICS_RESTARTS`
   seeded starting profiles on a random directed NCS game) runs at
   least :data:`DYNAMICS_TARGET_SPEEDUP` times faster on the tensor
   engine — end to end, lowering included — with the *identical* list
   of fixed points.
3. **Session reuse.**  A six-measure bundle (full ignorance report,
   ``optP``, both equilibrium extremes, ``eq_C``, the equilibrium set)
   plus a :data:`SESSION_DYNAMICS_RESTARTS`-restart dynamics batch on
   one ~500k-profile Bayesian NCS game runs at least
   :data:`SESSION_TARGET_SPEEDUP` times faster through a single
   :class:`repro.core.session.GameSession` than as independent
   free-function calls — with bit-identical values.  The gap is pure
   lowering/equilibrium *reuse*: the free path re-lowers and re-sweeps
   per call, the session does each once.
4. **Backend parity.**  One mid-size sweep executed through the runtime
   on the ``serial``, ``thread``, and ``process`` backends yields
   byte-identical cell rows (the thread backend exists because the
   tensor kernels release the GIL).
5. **Factored equilibrium check.**  On the session bundle game (497,664
   strategy profiles), the equilibrium-checking sweep — tables built
   from a fresh lowering included — costs at most
   :data:`EQ_SWEEP_MAX_RATIO` times the check-free sweep, and its whole
   result (equilibrium set, extremes, ``optP``) is identical to the
   per-block deviation-gather kernel the LRU block store keeps.

Wall-clock numbers land in ``results/bench-engine/meta.json``.
"""

import json
import pathlib
import sys
import time

import numpy as np

from repro.analysis.experiments import sweep_t1_directed_opt_universal
from repro.constructions.random_games import random_bayesian_ncs
from repro.core import (
    GameSession,
    bayesian_best_response_dynamics,
    bayesian_equilibrium_extreme_costs,
    engine_override,
    enumerate_bayesian_equilibria,
    eq_c,
    ignorance_report,
    opt_p,
    query,
)
from repro.core.lazy import lower_game_lazy
from repro.core.matrix_game import MatrixGame, bayesian_game_from_state_games
from repro.core.strategy import per_type_choices
from repro.core.tensor import lower_game
from repro.runtime.artifacts import ArtifactStore, cell_to_dict
from repro.runtime.executor import run_sweep

#: Acceptance floor for the tensor-vs-reference equilibrium speedup.
TARGET_SPEEDUP = 5.0

#: Acceptance floor for the tensor-vs-reference dynamics-batch speedup.
DYNAMICS_TARGET_SPEEDUP = 3.0

#: Starting profiles per dynamics batch (one greedy + seeded random).
DYNAMICS_RESTARTS = 64

#: Acceptance floor for the session-vs-free-functions bundle speedup.
SESSION_TARGET_SPEEDUP = 2.0

#: Seeded dynamics restarts inside the session bundle.
SESSION_DYNAMICS_RESTARTS = 16

#: Ceiling on equilibrium-sweep / check-free-sweep time (the per-block
#: deviation gather the tables replaced ran at ~12x).
EQ_SWEEP_MAX_RATIO = 2.5

BACKEND_JOBS = 2


def midsize_game():
    """One informed agent over four random 3-agent 6-action state games.

    The informed agent's strategy space is ``6^4 = 1296``; with the two
    uninformed agents the profile space is 46,656 — mid-size: around a
    second on the reference path, well under the explosion guards.
    """
    rng = np.random.default_rng(20_100)
    states = [MatrixGame.random((6, 6, 6), rng) for _ in range(4)]
    return bayesian_game_from_state_games(states, [0.25] * 4)


#: Timing repetitions; best-of-N (min) filters out scheduler noise on
#: loaded shared CI runners so the speedup floor does not flake.
REFERENCE_REPEATS = 2
TENSOR_REPEATS = 5


def _best_of(repeats, run):
    best_seconds = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, result


def measure_equilibrium_speedup():
    """(reference_seconds, tensor_seconds, equal_sets) on fresh games.

    Each measurement builds a fresh game (so no cached lowering leaks
    between engines or repetitions) and takes the best of several runs.
    """
    with engine_override("reference"):
        reference_seconds, reference = _best_of(
            REFERENCE_REPEATS,
            lambda: enumerate_bayesian_equilibria(midsize_game()),
        )
    with engine_override("auto"):
        tensor_seconds, tensorized = _best_of(
            TENSOR_REPEATS,
            lambda: enumerate_bayesian_equilibria(midsize_game()),
        )
    return reference_seconds, tensor_seconds, reference == tensorized


def dynamics_game():
    """A random directed NCS game sized for the dynamics batch.

    Dense enough (14 extra edges, 4 scenarios) that each reference
    best-response step scans a non-trivial feasible-path list through
    Python cost callbacks, while the lowered form stays a few thousand
    cells — the regime the tensor dynamics targets.
    """
    rng = np.random.default_rng(20_200)
    return random_bayesian_ncs(
        3, 8, rng, directed=True, extra_edges=14, scenarios=4,
        name="bench-dynamics",
    )


def dynamics_initials(game, count=DYNAMICS_RESTARTS):
    """The batch's starting profiles: greedy plus seeded random draws."""
    core = game.game
    rng = np.random.default_rng(77)
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
    """(reference_seconds, tensor_seconds, identical_fixed_points).

    Each measurement runs the full restart batch on a *fresh* game (the
    tensor timing therefore pays its one-time lowering) and takes the
    best of several runs, like the equilibrium measurement above.
    """
    initials = dynamics_initials(dynamics_game())

    def batch():
        game = dynamics_game()
        return [
            bayesian_best_response_dynamics(game.game, initial=initial)
            for initial in initials
        ]

    with engine_override("reference"):
        reference_seconds, reference = _best_of(REFERENCE_REPEATS, batch)
    with engine_override("auto"):
        tensor_seconds, tensorized = _best_of(TENSOR_REPEATS, batch)
    return reference_seconds, tensor_seconds, reference == tensorized


def session_bundle_game():
    """A random directed NCS game sized for the session bundle.

    ~500k strategy profiles: the blocked equilibrium sweep dominates, so
    the free-function path pays it once per equilibrium-backed measure
    while the session pays it once per *game* — exactly the reuse the
    gate quantifies.  An NCS game (unlike the matrix `midsize_game`)
    guarantees pure equilibria in every state and convergent dynamics
    via the Bayesian Rosenthal potential, so the full report and the
    restart batch are well defined.
    """
    rng = np.random.default_rng(20_300)
    return random_bayesian_ncs(
        3, 7, rng, directed=True, extra_edges=12, scenarios=4,
        name="bench-session",
    ).game


def session_bundle_initials(game, count=SESSION_DYNAMICS_RESTARTS):
    """Seeded random starting profiles for the bundle's dynamics batch."""
    rng = np.random.default_rng(99)
    profiles = []
    for _ in range(count):
        profile = []
        for agent in range(game.num_agents):
            per_type = []
            for choices in per_type_choices(game, agent):
                per_type.append(choices[int(rng.integers(len(choices)))])
            profile.append(tuple(per_type))
        profiles.append(tuple(profile))
    return profiles


def measure_session_speedup():
    """(free_seconds, session_seconds, identical_values).

    Both paths compute the same bundle — the six-measure ignorance
    report, ``optP``, the equilibrium extremes, ``eq_C``, the
    equilibrium set, and the dynamics restart batch — on fresh game
    builds per call (a cold stateless service), best-of-N timed.  The
    free path rebuilds the game per call so every call re-lowers and
    re-enumerates, which is exactly how the pre-session API was
    consumed; the session path lowers once and plans the bundle.
    """
    initials = session_bundle_initials(session_bundle_game())

    def free_bundle():
        values = [ignorance_report(session_bundle_game()).as_dict()]
        values.append(opt_p(session_bundle_game()))
        values.append(bayesian_equilibrium_extreme_costs(session_bundle_game()))
        values.append(eq_c(session_bundle_game()))
        values.append(enumerate_bayesian_equilibria(session_bundle_game()))
        game = session_bundle_game()
        values.extend(
            bayesian_best_response_dynamics(game, initial=initial)
            for initial in initials
        )
        return values

    def session_bundle():
        session = GameSession(session_bundle_game())
        values = session.evaluate(
            [
                query("ignorance_report"),
                query("opt_p"),
                query("eq_p"),
                query("eq_c"),
                query("equilibria"),
            ]
            + [query("dynamics", initial=initial) for initial in initials]
        )
        return [values[0].as_dict()] + values[1:]

    free_seconds, free_values = _best_of(REFERENCE_REPEATS, free_bundle)
    session_seconds, session_values = _best_of(TENSOR_REPEATS, session_bundle)
    return free_seconds, session_seconds, free_values == session_values


def measure_sweep_ratio():
    """(check_free_seconds, eq_seconds, identical_to_gather_kernel).

    Every repetition sweeps a fresh lowering, so the equilibrium timing
    pays its one-time table build.  The reference result comes from the
    same kernel over the LRU block store (``lower_game_lazy``), which has
    no tables, so its sweep gathers the (block x deviation) interim
    matrices per (agent, type) row.
    """
    game = session_bundle_game()

    def best_sweep(**options):
        best_seconds = float("inf")
        for _ in range(TENSOR_REPEATS):
            lowered = lower_game(game)
            start = time.perf_counter()
            result = lowered.sweep_profiles(10**7, **options)
            best_seconds = min(best_seconds, time.perf_counter() - start)
        return best_seconds, result

    social_seconds, _ = best_sweep(check_equilibria=False)
    eq_seconds, sweep = best_sweep(collect_equilibria=True)
    gathered = lower_game_lazy(game).sweep_profiles(10**7, collect_equilibria=True)
    return social_seconds, eq_seconds, sweep == gathered


def measure_backend_parity():
    """Run one mid-size sweep on all backends; return rows + timings."""
    sweep = sweep_t1_directed_opt_universal(ks=(2, 3, 4), seeds=(0, 1, 2, 3))
    encoded = {}
    seconds = {}
    cells = None
    for backend in ("serial", "thread", "process"):
        start = time.perf_counter()
        run, _ = run_sweep(sweep, jobs=BACKEND_JOBS, cache=None, backend=backend)
        seconds[backend] = time.perf_counter() - start
        encoded[backend] = json.dumps(
            [cell_to_dict(cell) for cell in run.cells], sort_keys=True
        )
        cells = run.cells
    return cells, encoded, seconds


def run_benchmark():
    reference_seconds, tensor_seconds, sets_equal = measure_equilibrium_speedup()
    speedup = reference_seconds / max(tensor_seconds, 1e-9)
    dyn_reference, dyn_tensor, dyn_identical = measure_dynamics_speedup()
    dynamics_speedup = dyn_reference / max(dyn_tensor, 1e-9)
    free_seconds, session_seconds, session_identical = measure_session_speedup()
    session_speedup = free_seconds / max(session_seconds, 1e-9)
    social_seconds, eq_seconds, eq_identical = measure_sweep_ratio()
    eq_ratio = eq_seconds / max(social_seconds, 1e-9)
    cells, encoded, backend_seconds = measure_backend_parity()
    backends_identical = (
        encoded["thread"] == encoded["process"] == encoded["serial"]
    )
    meta = {
        "reference_seconds": round(reference_seconds, 3),
        "tensor_seconds": round(tensor_seconds, 3),
        "speedup": round(speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
        "equilibrium_sets_equal": sets_equal,
        "dynamics_reference_seconds": round(dyn_reference, 3),
        "dynamics_tensor_seconds": round(dyn_tensor, 3),
        "dynamics_speedup": round(dynamics_speedup, 2),
        "dynamics_target_speedup": DYNAMICS_TARGET_SPEEDUP,
        "dynamics_restarts": DYNAMICS_RESTARTS,
        "dynamics_fixed_points_identical": dyn_identical,
        "session_free_seconds": round(free_seconds, 3),
        "session_seconds": round(session_seconds, 3),
        "session_speedup": round(session_speedup, 2),
        "session_target_speedup": SESSION_TARGET_SPEEDUP,
        "session_dynamics_restarts": SESSION_DYNAMICS_RESTARTS,
        "session_values_identical": session_identical,
        "sweep_social_seconds": round(social_seconds, 4),
        "sweep_eq_seconds": round(eq_seconds, 4),
        "sweep_eq_ratio": round(eq_ratio, 2),
        "sweep_eq_max_ratio": EQ_SWEEP_MAX_RATIO,
        "sweep_eq_identical": eq_identical,
        "backend_jobs": BACKEND_JOBS,
        "backend_seconds": {
            backend: round(value, 3) for backend, value in backend_seconds.items()
        },
        "backends_identical": backends_identical,
    }
    store = ArtifactStore(root=pathlib.Path(__file__).parent.parent / "results")
    store.write("bench-engine", cells, meta=meta)
    return meta, cells


def test_engine_speedup_and_backend_parity(record):
    meta, cells = run_benchmark()
    record(cells)
    assert meta["equilibrium_sets_equal"]
    assert meta["dynamics_fixed_points_identical"]
    assert meta["session_values_identical"]
    assert meta["sweep_eq_identical"]
    assert meta["backends_identical"]
    assert meta["speedup"] >= TARGET_SPEEDUP, meta
    assert meta["dynamics_speedup"] >= DYNAMICS_TARGET_SPEEDUP, meta
    assert meta["session_speedup"] >= SESSION_TARGET_SPEEDUP, meta
    assert meta["sweep_eq_ratio"] <= EQ_SWEEP_MAX_RATIO, meta


def main() -> int:
    meta, _ = run_benchmark()
    print(json.dumps(meta, indent=2, sort_keys=True))
    if not meta["equilibrium_sets_equal"]:
        print("FAIL: tensor and reference equilibrium sets differ", file=sys.stderr)
        return 1
    if not meta["dynamics_fixed_points_identical"]:
        print("FAIL: tensor and reference dynamics fixed points differ", file=sys.stderr)
        return 1
    if not meta["session_values_identical"]:
        print("FAIL: session bundle and free-function values differ", file=sys.stderr)
        return 1
    if not meta["sweep_eq_identical"]:
        print(
            "FAIL: factored equilibrium check differs from the gather kernel",
            file=sys.stderr,
        )
        return 1
    if not meta["backends_identical"]:
        print("FAIL: backends disagree on cell rows", file=sys.stderr)
        return 1
    if meta["speedup"] < TARGET_SPEEDUP:
        print(
            f"FAIL: speedup {meta['speedup']}x below target {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    if meta["dynamics_speedup"] < DYNAMICS_TARGET_SPEEDUP:
        print(
            f"FAIL: dynamics speedup {meta['dynamics_speedup']}x below "
            f"target {DYNAMICS_TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    if meta["session_speedup"] < SESSION_TARGET_SPEEDUP:
        print(
            f"FAIL: session bundle speedup {meta['session_speedup']}x below "
            f"target {SESSION_TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    if meta["sweep_eq_ratio"] > EQ_SWEEP_MAX_RATIO:
        print(
            f"FAIL: equilibrium sweep {meta['sweep_eq_ratio']}x the check-free "
            f"sweep, above the {EQ_SWEEP_MAX_RATIO}x ceiling",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {meta['speedup']}x equilibrium speedup, "
        f"{meta['dynamics_speedup']}x dynamics speedup, "
        f"{meta['session_speedup']}x session-bundle speedup, "
        f"equilibrium sweep {meta['sweep_eq_ratio']}x the check-free sweep, "
        "backends byte-identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
