"""Session-and-query tour: one lowering, one sweep, many measures.

The free functions answer one measure per call; a `GameSession` answers
a *bundle*.  This example builds a few random Bayesian NCS games and

1. evaluates a six-measure bundle on one session (the planner shares a
   single equilibrium enumeration across the whole bundle),
2. shows the old-call → query migration side by side (values are
   identical — the wrappers *are* one-shot sessions now),
3. batches the same bundle over several games with `BatchSession`, and
4. pins engines per session to cross-check tensor vs reference.

Run:  PYTHONPATH=src python examples/session_queries.py
"""

import time

import numpy as np

from repro.core import BatchSession, GameSession, opt_p, query
from repro.core.measures import ignorance_report
from repro.constructions.random_games import random_bayesian_ncs


def build_game(seed: int):
    rng = np.random.default_rng(seed)
    return random_bayesian_ncs(
        3, 6, rng, directed=True, extra_edges=8, name=f"demo-{seed}"
    )


BUNDLE = [
    query("ignorance_report"),
    query("opt_p"),
    query("eq_p", kind="both"),
    query("eq_c", kind="worst"),
    query("equilibria"),
    query("dynamics"),
]


def one_session_bundle() -> None:
    print("== one session, one plan, six measures ==")
    game = build_game(11)
    session = game.session()  # NCS: the exact Steiner optC solver rides along
    start = time.perf_counter()
    report, optp, (best_p, worst_p), worst_c, equilibria, fixed_point = (
        session.evaluate(BUNDLE)
    )
    elapsed = time.perf_counter() - start
    print(f"  {session!r}  ({elapsed * 1e3:.1f} ms for the bundle)")
    print(f"  {report}")
    print(f"  optP={optp:.4g}  eqP=[{best_p:.4g}, {worst_p:.4g}]  "
          f"worst-eqC={worst_c:.4g}")
    print(f"  {len(equilibria)} pure Bayesian equilibria; dynamics fixed "
          f"point costs {session.game.social_cost(fixed_point):.4g}")


def migration() -> None:
    print("== migration: old call vs query (identical values) ==")
    old = opt_p(build_game(7).game)
    (new,) = build_game(7).session().evaluate([query("opt_p")])
    print(f"  measures.opt_p(g)          -> {old:.6g}")
    print(f"  evaluate([query('opt_p')]) -> {new:.6g}  (equal: {old == new})")
    old_report = ignorance_report(build_game(7).game,
                                  state_opt_solver=build_game(7).state_optimum)
    (new_report,) = build_game(7).session().evaluate(
        [query("ignorance_report")]
    )
    print(f"  reports equal: {old_report == new_report}")


def batched_games() -> None:
    print("== BatchSession over several games ==")
    games = [build_game(seed) for seed in (7, 11, 13)]
    batch = BatchSession.from_sessions([game.session() for game in games])
    rows = batch.evaluate_many([query("opt_p"), query("eq_p", kind="worst")])
    for game, (optp, worst) in zip(games, rows):
        print(f"  {game.name}: optP={optp:.4g}  worst-eqP={worst:.4g}")


def pinned_engines() -> None:
    print("== per-session engine pins (tensor vs reference) ==")
    tensorized = GameSession(build_game(7).game, engine="auto")
    reference = GameSession(build_game(7).game, engine="reference")
    queries = [query("opt_p"), query("eq_p")]
    assert tensorized.evaluate(queries) == reference.evaluate(queries)
    print("  tensor and reference sessions agree exactly")


if __name__ == "__main__":
    one_session_bundle()
    migration()
    batched_games()
    pinned_engines()
