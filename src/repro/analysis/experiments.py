"""Executable experiments: one declarative sweep per table/figure cell.

Every entry of Table 1, both figures' constructions, and Section 4's
theorem is regenerated as a :class:`~repro.runtime.spec.SweepSpec`: a
group of scenarios whose *unit tasks* — one per ``(k, seed, family)``
grid point, each a spawn-safe top-level function in this module — run
through the :mod:`repro.runtime` process-pool engine, and whose
*reducers* perform the paper's claim checks and emit
:class:`~repro.analysis.table1.CellResult` rows.

Conventions
-----------
* *Universal* cells measure the ratio on random instance families and
  check the paper's inequality on **every** instance (``bound_check``);
  the fitted shape is informational.
* *Existential* cells measure the ratio on the paper's construction over
  growing ``k`` (or ``n``) and check the claimed asymptotic *shape*
  (linear / logarithmic / inverse / reciprocal-log / constant).
* Sizes default to values that keep the whole suite comfortably under a
  few minutes; benchmarks and the CLI may pass smaller or larger grids.
* Unit tasks seed their own ``numpy.random.Generator`` from their grid
  parameters, so values are identical no matter which worker process —
  or how many of them — computes them.
* Enumeration-heavy unit tasks run on the tensorized evaluation engine
  (:mod:`repro.core.tensor`) by default and inherit the ambient engine
  (``REPRO_ENGINE`` or :func:`~repro.core.tensor.engine_override`), so
  benches and parity checks pin the reference path through the same
  runtime.
* Measure-bundle unit tasks state *queries* against a per-game
  :class:`~repro.core.session.GameSession` rather than hand-ordered
  free-function calls: the session lowers the game once and its planner
  shares the equilibrium enumeration across the bundle (values are
  identical to the free functions — the engine-fuzz suite enforces it).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import harmonic
from ..core.session import GameSession, query
from ..constructions.affine_game import build_affine_plane_game
from ..constructions.anshelevich import build_anshelevich_game
from ..constructions.bliss_triangle import build_bliss_triangle
from ..constructions.diamond import expected_fixed_profile_ratio
from ..constructions.gworst import (
    build_gworst_high_ratio_game,
    build_gworst_low_ratio_game,
)
from ..constructions.random_games import random_bayesian_ncs
from ..core.equilibrium import is_bayesian_equilibrium
from ..core.measures import IgnoranceReport
from ..embeddings.frt import average_stretch, frt_embedding
from ..embeddings.metric import FiniteMetric
from ..graphs.generators import diamond_graph, random_connected_graph
from ..minimax.public_randomness import (
    public_randomness_certificate,
    random_priors,
    verify_proposition_4_2,
)
from ..minimax.ratio_program import GamePhi
from ..runtime.executor import UnitResult
from ..runtime.spec import ScenarioSpec, SweepSpec
from ..steiner_online.adversary import expected_competitive_ratio
from .census import census_scenario
from .table1 import CellResult, SeriesPoint

DEFAULT_KS = (2, 3, 4)
DEFAULT_SEEDS = (0, 1, 2, 3)

#: Module prefix for task/reducer references inside specs.
_HERE = __name__


# ----------------------------------------------------------------------
# unit tasks (spawn-safe top-level functions; every value is JSON-ready)
# ----------------------------------------------------------------------

def unit_ncs_report(
    k: int,
    seed: int,
    directed: bool,
    num_nodes: int = 5,
    extra_edges: Optional[int] = None,
) -> Dict[str, float]:
    """All six ignorance measures of one random Bayesian NCS game.

    Undirected instances default to sparse graphs (few extra edges) to
    keep the simple-path action spaces — and hence exact equilibrium
    enumeration — small.  Returning the full report (rather than one
    ratio) lets the opt/best-eq/worst-eq cells share cached values.

    Runs on the ambient engine, so a caller's pin — e.g.
    ``REPRO_ENGINE=reference``, which the executor folds into the cache
    key — is honored.  The tensor and reference paths agree to tolerance
    (see ``benchmarks/bench_engine.py``).
    """
    if extra_edges is None:
        extra_edges = num_nodes if directed else 2
    rng = np.random.default_rng(10_000 * k + seed)
    game = random_bayesian_ncs(
        k, num_nodes, rng, directed=directed, extra_edges=extra_edges
    )
    (report,) = game.session().evaluate([query("ignorance_report")])
    return report.as_dict()


def unit_affine_ratio(m: int, mc_samples: int = 0) -> Dict[str, float]:
    """The affine-plane game's predicted ratio at order ``m``.

    With ``mc_samples > 0`` the closed-form profile cost is cross-checked
    by Monte Carlo before the ratio is reported.
    """
    game = build_affine_plane_game(m)
    if mc_samples:
        estimate = game.simulate_profile_cost(
            np.random.default_rng(m), samples=mc_samples
        )
        closed = game.profile_cost()
        assert abs(estimate - closed) <= 0.1 * closed, (
            f"MC {estimate} vs closed form {closed} at m={m}"
        )
    return {"n": game.num_agents, "ratio": game.predicted_ratio()}


def unit_anshelevich_ratio(k: int) -> float:
    """best-eqP/best-eqC on the Fig. 1 game (exact equilibrium costs)."""
    game = build_anshelevich_game(k)
    return game.bayesian_equilibrium_cost() / game.best_eq_c_exact()


def unit_anshelevich_bliss_ratio(k: int) -> float:
    """worst-eqP/best-eqC on the Fig. 1 game (closed form)."""
    return build_anshelevich_game(k).predicted_bliss_ratio()


def unit_anshelevich_exact_check(k: int) -> Dict[str, float]:
    """Exhaustive cross-check of Fig. 1's closed forms at a small ``k``."""
    game = build_anshelevich_game(k)
    report = game.bayesian_game().ignorance_report()
    worst_gap = abs(report.worst_eq_p - game.bayesian_equilibrium_cost())
    best_gap = abs(report.best_eq_c - game.best_eq_c_exact())
    assert worst_gap <= 1e-9
    assert best_gap <= 1e-9
    return {"worst_eq_p_gap": worst_gap, "best_eq_c_gap": best_gap}


def unit_gworst_ratio(k: int, regime: str, directed: bool) -> float:
    """Predicted worst-eq ratio of the Fig. 2 triangle in one regime."""
    build = (
        build_gworst_high_ratio_game
        if regime == "high"
        else build_gworst_low_ratio_game
    )
    return build(k, directed=directed).predicted_ratio()


def unit_gworst_exact_check(k: int, regime: str) -> Dict[str, float]:
    """Exact enumeration cross-check of one G_worst regime at small ``k``."""
    build = (
        build_gworst_high_ratio_game
        if regime == "high"
        else build_gworst_low_ratio_game
    )
    game = build(k)
    report = game.bayesian_game().ignorance_report()
    p_gap = abs(report.worst_eq_p - game.worst_eq_p())
    c_gap = abs(report.worst_eq_c - game.worst_eq_c())
    assert p_gap <= 1e-9
    assert c_gap <= 1e-9
    return {"worst_eq_p_gap": p_gap, "worst_eq_c_gap": c_gap}


def unit_undirected_opt_ratios(
    n: int, seed: int, tree_samples: int = 5
) -> Dict[str, List[float]]:
    """optP/optC plus the FRT tree-strategy witness on one random game.

    Returns the (possibly empty, when ``optC = 0``) list of measured
    ratios: the exact one and the constructive witness.
    """
    from ..embeddings.tree_strategy import tree_strategy_social_cost
    from ..ncs.opt import opt_p as ncs_opt_p

    rng = np.random.default_rng(777 * n + seed)
    # Sparse graphs keep simple-path action spaces small.
    game = random_bayesian_ncs(2, n, rng, extra_edges=2)
    opt_c_value = game.opt_c()
    if opt_c_value <= 0:
        return {"ratios": []}
    exact = ncs_opt_p(game) / opt_c_value
    # Constructive witness: some sampled FRT tree strategy is within the
    # bound as well.
    best_tree, _ = tree_strategy_social_cost(game, rng, samples=tree_samples)
    return {"ratios": [exact, best_tree / opt_c_value]}


def unit_diamond_ratio(
    level: int, samples: int = 16, seed_offset: int = 0
) -> Dict[str, float]:
    """Oblivious-profile vs E[OPT] ratio on one diamond level."""
    rng = np.random.default_rng(seed_offset + level)
    _, _, ratio = expected_fixed_profile_ratio(level, rng, samples=samples)
    n = diamond_graph(level).graph.node_count
    return {"n": n, "ratio": ratio}


def unit_bliss_triangle() -> float:
    """The bliss-triangle best-eq ratio (measured == closed form)."""
    triangle = build_bliss_triangle()
    report = triangle.bayesian_game().ignorance_report()
    measured = report.best_eq_ratio
    assert abs(measured - triangle.predicted_ratio()) <= 1e-9
    return measured


def unit_sec4_trial(
    trial: int, rows: int = 5, cols: int = 4, priors_per_trial: int = 30
) -> Dict[str, float]:
    """One random phi: Prop 4.2 gap plus the Lemma 4.1 certificate check."""
    rng = np.random.default_rng((42, trial))
    K = rng.uniform(0.4, 3.0, size=(rows, cols))
    phi = GamePhi.from_matrices(K)
    star, tilde = verify_proposition_4_2(phi)
    certificate = public_randomness_certificate(phi)
    certificate.verify_pointwise()
    certificate.verify_lemma_4_1(
        random_priors(phi.num_type_profiles, priors_per_trial, rng)
    )
    return {"gap": abs(star - tilde), "r": certificate.r}


def unit_frt_stretch(n: int, trees_per_n: int = 12) -> float:
    """Empirical mean FRT stretch on one random graph size."""
    rng = np.random.default_rng(n)
    graph = random_connected_graph(n, n, rng)
    metric = FiniteMetric.from_graph(graph)
    trees = [frt_embedding(metric, rng) for _ in range(trees_per_n)]
    return average_stretch(metric, trees)


def unit_dynamics_fixed_point(
    k: int,
    seed: int,
    directed: bool,
    num_nodes: int = 5,
    extra_edges: Optional[int] = None,
) -> Dict[str, float]:
    """Interim best-response dynamics on one random Bayesian NCS game.

    Runs the greedy-seeded dynamics (the tensor fast path whenever the
    game lowers, on the ambient engine like :func:`unit_ncs_report`),
    asserts the fixed point is
    a pure Bayesian equilibrium, and returns its social cost next to the
    exact equilibrium extremes so the reducer can check the sandwich
    ``best-eqP <= K(fixed point) <= worst-eqP`` on every instance.

    The dynamics and the exact extremes are one query bundle on a shared
    :class:`~repro.core.session.GameSession`, so the game lowers once
    and the interim tables feed both the dynamics and the sweep.
    """
    if extra_edges is None:
        extra_edges = num_nodes if directed else 2
    rng = np.random.default_rng(10_000 * k + seed)
    game = random_bayesian_ncs(
        k, num_nodes, rng, directed=directed, extra_edges=extra_edges
    )
    session = GameSession(game.game)
    fixed_point, (best, worst) = session.evaluate(
        [query("dynamics"), query("eq_p")]
    )
    assert is_bayesian_equilibrium(game.game, fixed_point)
    cost = game.social_cost(fixed_point)
    return {"dynamics": cost, "best_eq": best, "worst_eq": worst}


def unit_online_steiner(level: int, samples: int = 12) -> Dict[str, float]:
    """Greedy/OPT competitive ratio on one diamond adversary level."""
    rng = np.random.default_rng(level)
    diamond = diamond_graph(level)
    _, _, ratio = expected_competitive_ratio(diamond, rng, samples=samples)
    return {"n": diamond.graph.node_count, "ratio": ratio}


# ----------------------------------------------------------------------
# reducer helpers
# ----------------------------------------------------------------------

def _report_from_dict(values: Dict[str, float]) -> IgnoranceReport:
    return IgnoranceReport(
        opt_p=values["optP"],
        best_eq_p=values["best-eqP"],
        worst_eq_p=values["worst-eqP"],
        opt_c=values["optC"],
        best_eq_c=values["best-eqC"],
        worst_eq_c=values["worst-eqC"],
    )


def _worst_ratio_series(
    pairs, numerator: str, denominator: str
) -> Tuple[List[SeriesPoint], List[Tuple[int, float]]]:
    """Per-k maximum ratio plus the flat list of all measured ratios."""
    per_k = {}
    flat: List[Tuple[int, float]] = []
    for k, report in pairs:
        ratio = report.ratio(numerator, denominator)
        flat.append((k, ratio))
        per_k[k] = max(per_k.get(k, 0.0), ratio)
    series = [SeriesPoint(k, per_k[k]) for k in sorted(per_k)]
    return series, flat


def _report_pairs(results: Sequence[UnitResult]):
    return [
        (result.params["k"], _report_from_dict(result.value))
        for result in results
    ]


def _xy_series(results: Sequence[UnitResult]) -> List[SeriesPoint]:
    return [SeriesPoint(r.value["n"], r.value["ratio"]) for r in results]


# ----------------------------------------------------------------------
# reducers (claim checks; referenced by name from the specs)
# ----------------------------------------------------------------------

def reduce_t1_directed_opt_universal(spec, results) -> List[CellResult]:
    series, flat = _worst_ratio_series(_report_pairs(results), "optP", "optC")
    holds = all(1.0 - 1e-9 <= r <= k + 1e-9 for k, r in flat)
    return [
        CellResult(
            "T1-D-opt-U", "directed", "optP/optC", "universal",
            "1 <= ratio <= O(k)  [Obs 2.2 + Lemma 3.1]",
            series, expected_shape="constant", bound_check=holds,
            notes=f"{len(flat)} random instances, all within [1, k]",
        )
    ]


def reduce_t1_directed_besteq_universal(spec, results) -> List[CellResult]:
    series, flat = _worst_ratio_series(
        _report_pairs(results), "best-eqP", "best-eqC"
    )
    holds = all(
        1.0 / (harmonic(k) + 1e-9) - 1e-9 <= r <= k + 1e-9 for k, r in flat
    )
    return [
        CellResult(
            "T1-D-beq-U", "directed", "best-eqP/best-eqC", "universal",
            "Omega(1/log k) <= ratio <= O(k)  [Lemmas 3.1 + 3.8]",
            series, expected_shape="constant", bound_check=holds,
            notes=f"{len(flat)} random instances within [1/H(k), k]",
        )
    ]


def reduce_t1_directed_worsteq_universal(spec, results) -> List[CellResult]:
    series, flat = _worst_ratio_series(
        _report_pairs(results), "worst-eqP", "worst-eqC"
    )
    holds = all(1.0 / k - 1e-9 <= r <= k + 1e-9 for k, r in flat)
    return [
        CellResult(
            "T1-D-weq-U", "directed", "worst-eqP/worst-eqC", "universal",
            "Omega(1/k) <= ratio <= O(k)  [Lemma 3.1]",
            series, expected_shape="constant", bound_check=holds,
            notes=f"{len(flat)} random instances within [1/k, k]",
        )
    ]


def reduce_t1_undirected_besteq_universal(spec, results) -> List[CellResult]:
    series, flat = _worst_ratio_series(
        _report_pairs(results), "best-eqP", "best-eqC"
    )
    # The log k log n part of the min is checked with an explicit constant.
    n = dict(spec.fixed)["num_nodes"]
    holds = all(
        1.0 / (harmonic(k) + 1e-9) - 1e-9
        <= r
        <= min(k, 16 * math.log2(max(k, 2)) * math.log2(n)) + 1e-9
        for k, r in flat
    )
    return [
        CellResult(
            "T1-U-beq-U", "undirected", "best-eqP/best-eqC", "universal",
            "Omega(1/log k) <= ratio <= O(min{k, log k log n})",
            series, expected_shape="constant", bound_check=holds,
            notes=f"{len(flat)} random instances",
        )
    ]


def reduce_t1_undirected_worsteq_universal(spec, results) -> List[CellResult]:
    series, flat = _worst_ratio_series(
        _report_pairs(results), "worst-eqP", "worst-eqC"
    )
    holds = all(1.0 / k - 1e-9 <= r <= k + 1e-9 for k, r in flat)
    return [
        CellResult(
            "T1-U-weq-U", "undirected", "worst-eqP/worst-eqC", "universal",
            "Omega(1/k) <= ratio <= O(k)  [Lemma 3.1]",
            series, expected_shape="constant", bound_check=holds,
            notes=f"{len(flat)} random instances within [1/k, k]",
        )
    ]


def reduce_t1_directed_opt_existential(spec, results) -> List[CellResult]:
    return [
        CellResult(
            "T1-D-opt-E", "directed", "optP/optC", "existential",
            "Omega(k) at n = Theta(k^2)  [Lemma 3.2]",
            _xy_series(results), expected_shape="linear",
            notes=(
                "every strategy profile costs 1 + m^2/(m+1); unique state "
                "NE costs 1 (exactly verified at m=2)"
            ),
        )
    ]


def reduce_t1_directed_besteq_existential_lower(spec, results) -> List[CellResult]:
    return [
        CellResult(
            "T1-D-beq-E-lower", "directed", "best-eqP/best-eqC", "existential",
            "Omega(k) at n = Theta(k^2)  [Lemma 3.2]",
            _xy_series(results), expected_shape="linear",
            notes="affine game: all profiles are equilibria of equal cost",
        )
    ]


def reduce_t1_directed_besteq_existential_upper(spec, results) -> List[CellResult]:
    series = [SeriesPoint(r.params["k"], r.value) for r in results]
    return [
        CellResult(
            "T1-D-beq-E-upper", "directed", "best-eqP/best-eqC", "existential",
            "O(1/log k) at n = Theta(k)  [Lemma 3.3]",
            series, expected_shape="reciprocal-log",
            fit_candidates=("constant", "inverse", "reciprocal-log"),
            notes="Fig. 1 game: unique Bayesian eq costs 1+eps vs H(k-1)/2",
        )
    ]


def reduce_gworst(spec, results) -> List[CellResult]:
    """Both G_worst regimes; the scenario id is the cell-id prefix."""
    from .fitting import growth_exponent

    fixed = dict(spec.fixed)
    graph_class = "directed" if fixed["directed"] else "undirected"
    prefix = spec.scenario_id
    by_regime: Dict[str, List[SeriesPoint]] = {"high": [], "low": []}
    for result in results:
        by_regime[result.params["regime"]].append(
            SeriesPoint(result.params["k"], result.value)
        )
    # Shape classification between 1/k and 1/log k is fragile on short
    # series; the log-log slope is the robust discriminator.
    claims = {
        "high": (
            "Omega(k) at n = O(1)  [Fig. 2, proof under L3.7]",
            "linear",
            lambda exponent: exponent >= 0.8,
            "two-hop equilibrium survives Bayesian play; "
            "log-log slope {exponent:.2f} (linear would be 1)",
        ),
        "low": (
            "O(1/k) at n = O(1)  [Fig. 2, proof under L3.6]",
            "inverse",
            lambda exponent: exponent <= -0.8,
            "unique Bayesian equilibrium is the cheap direct profile; "
            "log-log slope {exponent:.2f} (1/k would be -1)",
        ),
    }
    cells: List[CellResult] = []
    for regime in ("high", "low"):
        series = sorted(by_regime[regime], key=lambda p: p.parameter)
        if not series:
            continue  # regime narrowed away by a grid override
        claim, shape, check, notes_template = claims[regime]
        if len(series) >= 2:
            exponent = growth_exponent(
                [p.parameter for p in series], [p.value for p in series]
            )
            bound_check = check(exponent)
            notes = notes_template.format(exponent=exponent)
        else:
            # A single point cannot determine a slope; leave the verdict
            # to the (equally undeterminable) shape fit instead of crashing.
            bound_check = None
            notes = "series too short for a log-log slope"
        cells.append(
            CellResult(
                f"{prefix}-{regime}", graph_class,
                "worst-eqP/worst-eqC", "existential",
                claim, series, expected_shape=shape,
                bound_check=bound_check, notes=notes,
            )
        )
    return cells


def reduce_t1_undirected_opt_universal(spec, results) -> List[CellResult]:
    per_n: Dict[int, float] = {}
    flat: List[Tuple[int, float]] = []
    for result in results:
        n = result.params["n"]
        per_n.setdefault(n, 0.0)
        for ratio in result.value["ratios"]:
            flat.append((n, ratio))
            per_n[n] = max(per_n[n], ratio)
    series = [SeriesPoint(n, per_n[n]) for n in sorted(per_n)]
    bound = all(
        r <= 16 * math.log2(max(n, 2)) + 1e-9 and r >= 1 - 1e-9 for n, r in flat
    )
    return [
        CellResult(
            "T1-U-opt-U", "undirected", "optP/optC", "universal",
            "1 <= ratio <= O(log n)  [Lemma 3.4]",
            series, expected_shape="constant", bound_check=bound,
            notes="exact optP and FRT tree-strategy witness, both within bound",
        )
    ]


def reduce_t1_undirected_opt_existential(spec, results) -> List[CellResult]:
    return [
        CellResult(
            "T1-U-opt-E", "undirected", "optP/optC", "existential",
            "Omega(log n) at k = Theta(n)  [Lemma 3.5]",
            _xy_series(results), expected_shape="logarithmic",
            fit_candidates=("constant", "logarithmic", "linear"),
            notes=(
                "oblivious fixed-path profile vs E[OPT] = 1 on the "
                "Imase-Waxman adversary (the Lemma 3.5 reduction)"
            ),
        )
    ]


def reduce_t1_undirected_besteq_existential_lower(spec, results) -> List[CellResult]:
    return [
        CellResult(
            "T1-U-beq-E-lower", "undirected", "best-eqP/best-eqC", "existential",
            "Omega(log n) at k = Theta(n)  [Lemma 3.5 + NE-ness of optima]",
            _xy_series(results), expected_shape="logarithmic",
            fit_candidates=("constant", "logarithmic", "linear"),
            notes="diamond reduction (optimum profiles are equilibria)",
        )
    ]


def reduce_bliss_below_one(spec, results) -> List[CellResult]:
    measured = results[0].value
    below_one = [SeriesPoint(3, measured), SeriesPoint(3.0001, measured)]
    return [
        CellResult(
            "T1-U-beq-E-below1", "undirected", "best-eqP/best-eqC", "existential",
            "< 1 at n = O(1)  [paper: 'easy to design'; explicit gadget here]",
            below_one, expected_shape="constant",
            bound_check=measured < 1.0,
            notes=f"bliss triangle: ratio = {measured:.4f} on 3 vertices",
        )
    ]


def reduce_fig1(spec, results) -> List[CellResult]:
    series = [SeriesPoint(r.params["k"], r.value) for r in results]
    exact_k = dict(spec.meta).get("exact_k", "?")
    return [
        CellResult(
            "FIG1", "directed", "worst-eqP/best-eqC", "existential",
            "O(1/log k): every Bayesian eq beats every complete-info eq",
            series, expected_shape="reciprocal-log",
            fit_candidates=("constant", "inverse", "reciprocal-log"),
            notes=(
                f"closed forms verified exactly at k={exact_k}; "
                "optC = worst-eqP = O(1), best-eqC = Omega(log k)"
            ),
        )
    ]


def reduce_no_cells(spec, results) -> List[CellResult]:
    """For cross-check scenarios whose asserts live in the unit tasks."""
    return []


def reduce_sec4(spec, results) -> List[CellResult]:
    gaps = [r.value["gap"] for r in results]
    r_values = [r.value["r"] for r in results]
    fixed = dict(spec.fixed)
    series = [SeriesPoint(i + 2, gap) for i, gap in enumerate(gaps)]
    return [
        CellResult(
            "SEC4", "-", "R(phi) vs R~(phi)", "universal",
            "R = R~ (Prop 4.2); a single q achieves R for every prior (L4.1)",
            series, expected_shape="constant",
            bound_check=max(gaps) <= 1e-5,
            notes=(
                f"max |R - R~| = {max(gaps):.2e} over {len(gaps)} random phi; "
                f"Lemma 4.1 verified on {fixed['priors_per_trial']} priors "
                f"each; R values: {', '.join(f'{r:.3f}' for r in r_values)}"
            ),
        )
    ]


def reduce_frt_stretch(spec, results) -> List[CellResult]:
    series = [SeriesPoint(r.params["n"], r.value) for r in results]
    return [
        CellResult(
            "AUX-3.4", "undirected", "FRT stretch", "universal",
            "expected stretch O(log n); domination always",
            series, expected_shape="logarithmic",
            fit_candidates=("constant", "logarithmic", "linear"),
            notes="max-over-pairs empirical mean stretch on random graphs",
        )
    ]


def reduce_online_steiner(spec, results) -> List[CellResult]:
    return [
        CellResult(
            "AUX-3.5", "undirected", "greedy/OPT", "existential",
            "Omega(log n) competitive ratio on diamonds [Imase-Waxman]",
            _xy_series(results), expected_shape="logarithmic",
            fit_candidates=("constant", "logarithmic", "linear"),
            notes="E[greedy]/E[OPT] over the randomized adversary",
        )
    ]


def reduce_aux_dynamics(spec, results) -> List[CellResult]:
    per_k: Dict[int, float] = {}
    flat: List[Tuple[int, float]] = []
    holds = True
    for result in results:
        k = result.params["k"]
        values = result.value
        holds &= (
            values["best_eq"] - 1e-9
            <= values["dynamics"]
            <= values["worst_eq"] + 1e-9
        )
        ratio = (
            1.0
            if values["worst_eq"] == 0.0
            else values["dynamics"] / values["worst_eq"]
        )
        flat.append((k, ratio))
        per_k[k] = max(per_k.get(k, 0.0), ratio)
    series = [SeriesPoint(k, per_k[k]) for k in sorted(per_k)]
    return [
        CellResult(
            "AUX-DYN", "directed", "K(dynamics)/worst-eqP", "universal",
            "best-eqP <= K(fixed point) <= worst-eqP  [Obs 2.1]",
            series, expected_shape="constant", bound_check=holds,
            notes=(
                f"{len(flat)} random instances; greedy-seeded interim "
                "best-response dynamics, fixed point verified as an "
                "equilibrium in-task"
            ),
        )
    ]


# ----------------------------------------------------------------------
# spec factories: one sweep per experiment id
# ----------------------------------------------------------------------

def _ncs_report_scenario(
    cell_id: str,
    directed: bool,
    reducer: str,
    ks: Sequence[int],
    seeds: Sequence[int],
    num_nodes: int = 5,
) -> ScenarioSpec:
    extra_edges = num_nodes if directed else 2
    return ScenarioSpec(
        scenario_id=cell_id,
        task=f"{_HERE}:unit_ncs_report",
        reducer=f"{_HERE}:{reducer}",
        grid={"k": ks, "seed": seeds},
        fixed={
            "directed": directed,
            "num_nodes": num_nodes,
            "extra_edges": extra_edges,
        },
        description="random Bayesian NCS ignorance reports",
    )


def _gworst_scenario(
    prefix: str, directed: bool, ks: Sequence[int]
) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=prefix,
        task=f"{_HERE}:unit_gworst_ratio",
        reducer=f"{_HERE}:reduce_gworst",
        grid={"k": ks, "regime": ("high", "low")},
        fixed={"directed": directed},
        description="Fig. 2 G_worst predicted ratios, both regimes",
    )


def sweep_t1_directed_opt_universal(
    ks: Sequence[int] = DEFAULT_KS, seeds: Sequence[int] = DEFAULT_SEEDS
) -> SweepSpec:
    return SweepSpec(
        "T1-D-opt-U",
        (
            _ncs_report_scenario(
                "T1-D-opt-U", True, "reduce_t1_directed_opt_universal", ks, seeds
            ),
        ),
        description="optP/optC <= O(k) and >= 1 on directed games",
    )


def sweep_t1_directed_opt_existential(
    orders: Sequence[int] = (2, 3, 4, 5, 7, 9), mc_samples: int = 3_000
) -> SweepSpec:
    return SweepSpec(
        "T1-D-opt-E",
        (
            ScenarioSpec(
                scenario_id="T1-D-opt-E",
                task=f"{_HERE}:unit_affine_ratio",
                reducer=f"{_HERE}:reduce_t1_directed_opt_existential",
                grid={"m": orders},
                fixed={"mc_samples": mc_samples},
                description="affine-plane game: Omega(k) at n = Theta(k^2)",
            ),
        ),
        description="optP/optC = Omega(k) via the affine-plane game",
    )


def sweep_t1_directed_besteq_universal(
    ks: Sequence[int] = DEFAULT_KS, seeds: Sequence[int] = DEFAULT_SEEDS
) -> SweepSpec:
    return SweepSpec(
        "T1-D-beq-U",
        (
            _ncs_report_scenario(
                "T1-D-beq-U", True, "reduce_t1_directed_besteq_universal", ks, seeds
            ),
        ),
        description="best-eqP/best-eqC within [Omega(1/log k), O(k)]",
    )


def sweep_t1_directed_besteq_existential(
    orders: Sequence[int] = (2, 3, 4, 5, 7),
    anshelevich_ks: Sequence[int] = (4, 8, 16, 32, 64),
) -> SweepSpec:
    return SweepSpec(
        "T1-D-beq-E",
        (
            ScenarioSpec(
                scenario_id="T1-D-beq-E-lower",
                task=f"{_HERE}:unit_affine_ratio",
                reducer=f"{_HERE}:reduce_t1_directed_besteq_existential_lower",
                grid={"m": orders},
                fixed={"mc_samples": 0},
                description="Omega(k) lower bound via the affine game",
            ),
            ScenarioSpec(
                scenario_id="T1-D-beq-E-upper",
                task=f"{_HERE}:unit_anshelevich_ratio",
                reducer=f"{_HERE}:reduce_t1_directed_besteq_existential_upper",
                grid={"k": anshelevich_ks},
                description="O(1/log k) upper bound via the Fig. 1 game",
            ),
        ),
        description="best-eqP/best-eqC: Omega(k) and O(1/log k) gadgets",
    )


def sweep_t1_directed_worsteq_universal(
    ks: Sequence[int] = DEFAULT_KS, seeds: Sequence[int] = DEFAULT_SEEDS
) -> SweepSpec:
    return SweepSpec(
        "T1-D-weq-U",
        (
            _ncs_report_scenario(
                "T1-D-weq-U", True, "reduce_t1_directed_worsteq_universal", ks, seeds
            ),
        ),
        description="worst-eqP/worst-eqC within [Omega(1/k), O(k)]",
    )


def sweep_t1_directed_worsteq_existential(
    ks: Sequence[int] = (4, 8, 16, 32, 64),
) -> SweepSpec:
    return SweepSpec(
        "T1-D-weq-E",
        (_gworst_scenario("T1-D-weq-E", True, ks),),
        description="G_worst (directed): Omega(k) and O(1/k) at n = O(1)",
    )


def sweep_t1_undirected_opt_universal(
    ns: Sequence[int] = (5, 6, 7, 8),
    seeds: Sequence[int] = (0, 1, 2),
    tree_samples: int = 5,
) -> SweepSpec:
    return SweepSpec(
        "T1-U-opt-U",
        (
            ScenarioSpec(
                scenario_id="T1-U-opt-U",
                task=f"{_HERE}:unit_undirected_opt_ratios",
                reducer=f"{_HERE}:reduce_t1_undirected_opt_universal",
                grid={"n": ns, "seed": seeds},
                fixed={"tree_samples": tree_samples},
                description="exact optP plus FRT tree witness, sparse graphs",
            ),
        ),
        description="optP/optC <= O(log n) on undirected games (Lemma 3.4)",
    )


def sweep_t1_undirected_opt_existential(
    levels: Sequence[int] = (1, 2, 3, 4, 5), samples: int = 16
) -> SweepSpec:
    return SweepSpec(
        "T1-U-opt-E",
        (
            ScenarioSpec(
                scenario_id="T1-U-opt-E",
                task=f"{_HERE}:unit_diamond_ratio",
                reducer=f"{_HERE}:reduce_t1_undirected_opt_existential",
                grid={"level": levels},
                fixed={"samples": samples, "seed_offset": 0},
                description="diamond games: Omega(log n) at k = Theta(n)",
            ),
        ),
        description="optP/optC = Omega(log n) via diamonds (Lemma 3.5)",
    )


def sweep_t1_undirected_besteq_universal(
    ks: Sequence[int] = DEFAULT_KS, seeds: Sequence[int] = DEFAULT_SEEDS
) -> SweepSpec:
    return SweepSpec(
        "T1-U-beq-U",
        (
            _ncs_report_scenario(
                "T1-U-beq-U",
                False,
                "reduce_t1_undirected_besteq_universal",
                ks,
                seeds,
            ),
        ),
        description="best-eqP/best-eqC within [Omega(1/log k), O(min{...})]",
    )


def sweep_t1_undirected_besteq_existential(
    levels: Sequence[int] = (1, 2, 3, 4), samples: int = 16
) -> SweepSpec:
    return SweepSpec(
        "T1-U-beq-E",
        (
            ScenarioSpec(
                scenario_id="T1-U-beq-E-lower",
                task=f"{_HERE}:unit_diamond_ratio",
                reducer=f"{_HERE}:reduce_t1_undirected_besteq_existential_lower",
                grid={"level": levels},
                fixed={"samples": samples, "seed_offset": 90},
                description="Omega(log n) lower bound via diamonds",
            ),
            ScenarioSpec(
                scenario_id="T1-U-beq-E-below1",
                task=f"{_HERE}:unit_bliss_triangle",
                reducer=f"{_HERE}:reduce_bliss_below_one",
                description="the 3-vertex bliss gadget with ratio < 1",
            ),
        ),
        description="best-eqP/best-eqC: Omega(log n) and < 1 gadgets",
    )


def sweep_t1_undirected_worsteq_universal(
    ks: Sequence[int] = DEFAULT_KS, seeds: Sequence[int] = DEFAULT_SEEDS
) -> SweepSpec:
    return SweepSpec(
        "T1-U-weq-U",
        (
            _ncs_report_scenario(
                "T1-U-weq-U",
                False,
                "reduce_t1_undirected_worsteq_universal",
                ks,
                seeds,
            ),
        ),
        description="worst-eqP/worst-eqC within [Omega(1/k), O(k)]",
    )


def sweep_t1_undirected_worsteq_existential(
    ks: Sequence[int] = (4, 8, 16, 32, 64),
) -> SweepSpec:
    return SweepSpec(
        "T1-U-weq-E",
        (_gworst_scenario("T1-U-weq-E", False, ks),),
        description="G_worst (undirected): Omega(k) and O(1/k) at n = O(1)",
    )


def sweep_fig1(
    ks: Sequence[int] = (4, 8, 16, 32, 64), exact_k: int = 6
) -> SweepSpec:
    return SweepSpec(
        "FIG1",
        (
            ScenarioSpec(
                scenario_id="FIG1",
                task=f"{_HERE}:unit_anshelevich_bliss_ratio",
                reducer=f"{_HERE}:reduce_fig1",
                grid={"k": ks},
                meta={"exact_k": exact_k},
                description="worst-eqP/best-eqC closed forms over k",
            ),
            ScenarioSpec(
                scenario_id="FIG1-exact",
                task=f"{_HERE}:unit_anshelevich_exact_check",
                reducer=f"{_HERE}:reduce_no_cells",
                fixed={"k": exact_k},
                description="exhaustive cross-check of the closed forms",
            ),
        ),
        description="Fig. 1 / Remark 1: ignorance is bliss, O(1/log k)",
    )


def sweep_fig2(ks: Sequence[int] = (4, 8, 16, 32, 64)) -> SweepSpec:
    return SweepSpec(
        "FIG2",
        (
            _gworst_scenario("FIG2", False, ks),
            ScenarioSpec(
                scenario_id="FIG2-exact",
                task=f"{_HERE}:unit_gworst_exact_check",
                reducer=f"{_HERE}:reduce_no_cells",
                grid={"regime": ("low", "high")},
                fixed={"k": 4},
                description="exact enumeration cross-check at k = 4",
            ),
        ),
        description="Fig. 2: both parameter regimes of the triangle gadget",
    )


def sweep_sec4(
    trials: int = 6,
    shape: Tuple[int, int] = (5, 4),
    priors_per_trial: int = 30,
) -> SweepSpec:
    rows, cols = shape
    return SweepSpec(
        "SEC4",
        (
            ScenarioSpec(
                scenario_id="SEC4",
                task=f"{_HERE}:unit_sec4_trial",
                reducer=f"{_HERE}:reduce_sec4",
                grid={"trial": tuple(range(trials))},
                fixed={
                    "rows": rows,
                    "cols": cols,
                    "priors_per_trial": priors_per_trial,
                },
                description="Prop 4.2 gaps and Lemma 4.1 certificates",
            ),
        ),
        description="Section 4: R = R~ and one q for all priors",
    )


def sweep_aux_frt_stretch(
    ns: Sequence[int] = (8, 16, 32, 64), trees_per_n: int = 12
) -> SweepSpec:
    return SweepSpec(
        "AUX-3.4",
        (
            ScenarioSpec(
                scenario_id="AUX-3.4",
                task=f"{_HERE}:unit_frt_stretch",
                reducer=f"{_HERE}:reduce_frt_stretch",
                grid={"n": ns},
                fixed={"trees_per_n": trees_per_n},
                description="empirical FRT stretch on random graphs",
            ),
        ),
        description="FRT expected stretch grows like O(log n)",
    )


def sweep_aux_online_steiner(
    levels: Sequence[int] = (1, 2, 3, 4, 5), samples: int = 12
) -> SweepSpec:
    return SweepSpec(
        "AUX-3.5",
        (
            ScenarioSpec(
                scenario_id="AUX-3.5",
                task=f"{_HERE}:unit_online_steiner",
                reducer=f"{_HERE}:reduce_online_steiner",
                grid={"level": levels},
                fixed={"samples": samples},
                description="greedy online Steiner vs OPT on diamonds",
            ),
        ),
        description="greedy online Steiner pays Omega(log n) on diamonds",
    )


#: Default census cell shapes: (agents, types, actions, states) for the
#: tabular source, (agents, types, nodes) for the NCS source.  Small
#: enough to keep the stock report suite fast; benches and the CLI pass
#: bigger grids (``--set members=...`` scales the population).
DEFAULT_CENSUS_TABULAR_CELLS = ((2, 2, 2, 2), (2, 2, 2, 4), (3, 2, 2, 4))
DEFAULT_CENSUS_NCS_CELLS = ((2, 2, 4), (2, 2, 5), (3, 2, 5))

#: Large NCS cells for the ``CENSUS-NCS-L`` sweep: several of their
#: members exceed the dense lowering's ``TENSOR_MAX_CELLS`` guard
#: (e.g. ``(5, 2, 6)`` member 0 needs ~15.4M cost cells), so before the
#: LRU block store (:mod:`repro.core.lazy`) their state-wise measures were
#: reference-only.  Whole-sweep measures on guard-crossing members still
#: trip the strategy-profile guard (tallied as error members by the
#: reducer); ``eq_c``/``opt_c`` now evaluate on the tensor kernels.
#: Minutes, not seconds, per cell — kept out of the stock defaults.
DEFAULT_CENSUS_NCS_LARGE_CELLS = ((4, 2, 7), (5, 2, 6))


def sweep_census_tabular(
    members: int = 12,
    cells: Sequence[Tuple[int, int, int, int]] = DEFAULT_CENSUS_TABULAR_CELLS,
) -> SweepSpec:
    """The tabular random-game census: ratio distributions per cell."""
    return SweepSpec(
        "CENSUS-TAB",
        tuple(
            census_scenario("tabular", agents, types, actions, states, members)
            for agents, types, actions, states in cells
        ),
        description=(
            "how often ignorance helps across dense random-game populations"
        ),
    )


def sweep_census_ncs(
    members: int = 6,
    cells: Sequence[Tuple[int, int, int]] = DEFAULT_CENSUS_NCS_CELLS,
) -> SweepSpec:
    """The NCS random-game census over independent-prior instances."""
    return SweepSpec(
        "CENSUS-NCS",
        tuple(
            census_scenario("ncs", agents, types, nodes, 0, members)
            for agents, types, nodes in cells
        ),
        description=(
            "how often ignorance helps across random network cost-sharing games"
        ),
    )


def sweep_census_ncs_large(
    members: int = 6,
    cells: Sequence[Tuple[int, int, int]] = DEFAULT_CENSUS_NCS_LARGE_CELLS,
) -> SweepSpec:
    """The large-cell NCS census (lazy-lowering tier; minutes per cell)."""
    return SweepSpec(
        "CENSUS-NCS-L",
        tuple(
            census_scenario("ncs", agents, types, nodes, 0, members)
            for agents, types, nodes in cells
        ),
        description=(
            "ignorance statistics on NCS populations beyond the dense "
            "tabulation guard (lazy sparse lowering)"
        ),
    )


def sweep_aux_dynamics(
    ks: Sequence[int] = DEFAULT_KS, seeds: Sequence[int] = DEFAULT_SEEDS
) -> SweepSpec:
    return SweepSpec(
        "AUX-DYN",
        (
            ScenarioSpec(
                scenario_id="AUX-DYN",
                task=f"{_HERE}:unit_dynamics_fixed_point",
                reducer=f"{_HERE}:reduce_aux_dynamics",
                grid={"k": ks, "seed": seeds},
                fixed={"directed": True, "num_nodes": 5, "extra_edges": 5},
                description="greedy-seeded dynamics fixed points vs exact extremes",
            ),
        ),
        description="best-response dynamics land between the equilibrium extremes",
    )


#: Sweep factories in reporting order (one per experiment id).
SWEEP_FACTORIES = (
    sweep_t1_directed_opt_universal,
    sweep_t1_directed_opt_existential,
    sweep_t1_directed_besteq_universal,
    sweep_t1_directed_besteq_existential,
    sweep_t1_directed_worsteq_universal,
    sweep_t1_directed_worsteq_existential,
    sweep_t1_undirected_opt_universal,
    sweep_t1_undirected_opt_existential,
    sweep_t1_undirected_besteq_universal,
    sweep_t1_undirected_besteq_existential,
    sweep_t1_undirected_worsteq_universal,
    sweep_t1_undirected_worsteq_existential,
    sweep_fig1,
    sweep_fig2,
    sweep_sec4,
    sweep_aux_frt_stretch,
    sweep_aux_online_steiner,
    sweep_aux_dynamics,
    sweep_census_tabular,
    sweep_census_ncs,
    sweep_census_ncs_large,
)

#: Default-size sweeps keyed by experiment id, in reporting order.
SWEEPS: Dict[str, SweepSpec] = {
    sweep.sweep_id: sweep for sweep in (factory() for factory in SWEEP_FACTORIES)
}
