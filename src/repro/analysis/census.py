"""Random-game census: population-scale ignorance distributions.

The paper's constructions are a handful of hand-built games; this module
asks the *statistical* question — across large seeded random populations,
how often does Bayesian ignorance actually help, and by how much?  Each
census **cell** fixes a structural shape ``(source, agents, types,
actions, states)`` and samples ``members`` independent games from it:

``source="tabular"``
    Dense random-cost Bayesian games (the named :data:`FAMILIES`
    generalized to an arbitrary shape): ``agents`` players,
    ``types`` types and ``actions`` actions each, a random prior over the
    first ``states`` type profiles.  Every member of a cell lowers to the
    same tensor signature, so the registered batch runner answers a whole
    cell in one structure-of-arrays sweep.

``source="ncs"``
    Random *network cost-sharing* games from
    :func:`repro.constructions.random_games.random_independent_bayesian_ncs`
    on a random connected graph with ``actions`` nodes and ``types``
    independent (source, destination) pairs per agent.  ``states`` must
    be 0 — the prior support is derived from the product prior, not
    chosen.  Cells whose members exceed the dense lowering's cell guard
    (the ``CENSUS-NCS-L`` sweep, e.g. ``(5, 2, 6)``) evaluate their
    state-wise measures over the LRU block store (:mod:`repro.core.lazy`)
    — they were reference-only before it existed; their whole-sweep measures
    trip the strategy-profile guard and are tallied as error members.

Per member the unit task evaluates the full ignorance bundle through a
game session (queue workers fuse whole cells through
:meth:`~repro.core.session.BatchSession.evaluate_many`); the reducer then
collapses a cell into distribution artifacts: ratio histograms and tail
percentiles for the three headline ratios, the fraction of members where
ignorance *strictly helps* (partial-information cost below the
complete-information cost), explicit non-finite-ratio tallies (``+inf``
from zero complete-information costs never pollutes a histogram), and
per-error-type counts for members with no pure Bayesian equilibrium.
:func:`render_census_table` assembles the phase-transition-style view
across cells for the run summary.

Keep this module out of ``repro.analysis.__init__``: the runtime
executor imports ``repro.analysis.table1`` for its own unit tasks, and
re-exporting the census here would close an import cycle.
"""

from __future__ import annotations

import itertools
import math
import zlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._util import nearest_rank
from ..core.game import BayesianGame
from ..core.measures import IgnoranceReport
from ..core.prior import CommonPrior
from ..core.session import BatchSession, GameSession, Query, query
from ..constructions.random_games import random_independent_bayesian_ncs
from ..runtime.executor import UnitResult, register_batch_runner
from ..runtime.spec import ScenarioSpec
from .table1 import CellResult, SeriesPoint

#: Census sources (generator families).
SOURCES: Tuple[str, ...] = ("tabular", "ncs")

#: Named same-shape families.  Every member of a family lowers to the same
#: tensor signature, so a population shares one SoA bucket.
FAMILIES: Dict[str, Dict[str, int]] = {
    # The CI benchmark family: 3 agents, binary types/actions, 4 support
    # states -> 64 strategy profiles per member, cheap to lower but with
    # enough interim conditioning to make per-game sweeps slow in a loop.
    "bench-3x2x2s4": {"agents": 3, "types": 2, "actions": 2, "states": 4},
    # A smaller family for fast tests.
    "tiny-2x2x2s2": {"agents": 2, "types": 2, "actions": 2, "states": 2},
}

#: Measures a census member understands, in canonical order.
CELL_MEASURES: Tuple[str, ...] = (
    "eq_c",
    "opt_c",
    "eq_p",
    "opt_p",
    "ratio",
    "ignorance_report",
)

#: The default census bundle: both equilibrium-extreme complete costs,
#: the complete-information optimum, and the full six-measure report.
DEFAULT_MEASURES = "eq_c,opt_c,ignorance_report"

#: The three headline ratios, as ``(kind, numerator, denominator)`` in
#: the :meth:`~repro.core.measures.IgnoranceReport.ratio` vocabulary.
RATIO_KINDS: Tuple[Tuple[str, str, str], ...] = (
    ("opt", "optP", "optC"),
    ("best_eq", "best-eqP", "best-eqC"),
    ("worst_eq", "worst-eqP", "worst-eqC"),
)

#: Histogram bin edges for finite ratios.  ``1.0`` is deliberately an
#: edge: everything in ``[0.9, 1.0)`` is "ignorance strictly helps", so
#: the helps-mass is readable straight off the histogram.  The final bin
#: is open: ``[8, inf)`` over *finite* ratios (``+inf`` is tallied
#: separately, never binned).
HISTOGRAM_EDGES: Tuple[float, ...] = (
    0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0, 8.0,
)

#: Tail percentiles reported per ratio kind (nearest-rank).
PERCENTILES: Tuple[int, ...] = (50, 90, 95)

#: A ratio strictly below ``1 - HELPS_TOLERANCE`` counts as "ignorance
#: helps"; the symmetric band around 1 counts as neutral.
HELPS_TOLERANCE = 1e-12

_SEED_SALT = 0xCE9505

#: Seed salt of the named :data:`FAMILIES` members.
_POPULATION_SALT = 0xB47C

_HERE = __name__


# ----------------------------------------------------------------------
# cell validation + member generators
# ----------------------------------------------------------------------

def _cell_label(
    source: str, agents: int, types: int, actions: int, states: int
) -> str:
    """Compact cell id fragment, e.g. ``tab-a2t2x2s4`` / ``ncs-a2t2x4s0``."""
    tag = "tab" if source == "tabular" else source
    return f"{tag}-a{agents}t{types}x{actions}s{states}"


def validate_cell(
    source: str, agents: int, types: int, actions: int, states: int
) -> None:
    """Reject structurally impossible cells with a parameter-naming error.

    Runs at spec-build time (so ``python -m repro list`` fails loudly on a
    bad grid) and again inside the unit task (so a hand-built queue row
    cannot smuggle an invalid cell past it).
    """
    if source not in SOURCES:
        raise ValueError(
            f"unknown census source {source!r}; expected one of {list(SOURCES)}"
        )
    if agents < 2 or types < 1 or actions < 2:
        raise ValueError(
            f"census cell {_cell_label(source, agents, types, actions, states)}"
            f" is degenerate: need agents >= 2, types >= 1, actions >= 2"
        )
    if source == "tabular":
        if not 1 <= states <= types ** agents:
            raise ValueError(
                f"census cell "
                f"{_cell_label(source, agents, types, actions, states)}: "
                f"tabular cells need 1 <= states <= types**agents "
                f"(= {types ** agents})"
            )
    else:
        if states != 0:
            raise ValueError(
                f"census cell "
                f"{_cell_label(source, agents, types, actions, states)}: "
                f"ncs cells derive their support from the product prior; "
                f"pass states=0"
            )


def _member_rng(
    source: str, agents: int, types: int, actions: int, states: int, member: int
) -> np.random.Generator:
    return np.random.default_rng(
        (
            _SEED_SALT,
            zlib.crc32(source.encode("utf-8")),
            agents,
            types,
            actions,
            states,
            member,
        )
    )


def _tabular_member(
    agents: int,
    types: int,
    actions: int,
    states: int,
    rng: np.random.Generator,
    name: str,
) -> BayesianGame:
    """One dense random-cost member: a random prior over the first
    ``states`` type profiles in lexicographic order with positive weights,
    and a dense random integer cost table over ``(state, action profile,
    agent)``; off-support type profiles cost 0."""
    support = list(itertools.product(range(types), repeat=agents))[:states]
    weights = rng.uniform(0.2, 1.0, size=len(support))
    weights = weights / weights.sum()
    prior = CommonPrior(
        {profile: float(w) for profile, w in zip(support, weights)}
    )
    table = rng.integers(
        0, 12, size=(len(support),) + (actions,) * agents + (agents,)
    ).astype(float)
    index = {profile: s for s, profile in enumerate(support)}

    def cost(i: int, t: Tuple[int, ...], a: Tuple[int, ...]) -> float:
        s = index.get(tuple(t))
        if s is None:
            return 0.0
        return float(table[(s,) + tuple(a) + (i,)])

    return BayesianGame(
        [list(range(actions))] * agents,
        [list(range(types))] * agents,
        prior,
        cost,
        name=name,
    )


def population_game(family: str, member: int) -> BayesianGame:
    """Member ``member`` of the named same-shape ``family``.

    Deterministic in ``(family, member)``; every member of a family lowers
    to the same tensor signature, so a population shares one SoA bucket.
    """
    shape = FAMILIES.get(family)
    if shape is None:
        raise ValueError(
            f"unknown population family {family!r}; "
            f"expected one of {sorted(FAMILIES)}"
        )
    rng = np.random.default_rng(
        (_POPULATION_SALT, zlib.crc32(family.encode("utf-8")), member)
    )
    return _tabular_member(
        shape["agents"],
        shape["types"],
        shape["actions"],
        shape["states"],
        rng,
        f"pop-{family}-{member}",
    )


def census_game(
    source: str, agents: int, types: int, actions: int, states: int, member: int
) -> Any:
    """Member ``member`` of a census cell; deterministic in all params."""
    validate_cell(source, agents, types, actions, states)
    rng = _member_rng(source, agents, types, actions, states, member)
    name = f"census-{_cell_label(source, agents, types, actions, states)}-{member}"
    if source == "tabular":
        return _tabular_member(agents, types, actions, states, rng, name)
    return random_independent_bayesian_ncs(
        agents, actions, rng, types_per_agent=types, name=name
    )


def _member_session(game: Any) -> GameSession:
    """A session with the game's own solver plugins when it has them
    (NCS games plug in the exact Steiner per-state solver)."""
    if hasattr(game, "session"):
        return game.session()
    return GameSession(game)


# ----------------------------------------------------------------------
# measure bundles: parsing and the strict-JSON value codec
# ----------------------------------------------------------------------

def _measure_names(measures: str) -> List[str]:
    """Split a comma-joined measure string, rejecting empty bundles.

    An empty string would otherwise expand to an empty query bundle: the
    unit task would "succeed" with an empty dict and the result cache
    would remember that nothing forever under the typo'd address.
    """
    names = [name for name in measures.split(",") if name]
    if not names:
        raise ValueError(
            f"empty measure string {measures!r}; expected a comma-joined "
            f"subset of {list(CELL_MEASURES)}"
        )
    return names


def _cell_queries(measures: str) -> List[Query]:
    names = _measure_names(measures)
    for name in names:
        if name not in CELL_MEASURES:
            raise ValueError(
                f"unknown population measure {name!r}; "
                f"expected a comma-joined subset of {list(CELL_MEASURES)}"
            )
    return [query(name) for name in names]


def encode_cell_value(value: Any) -> Any:
    """Strict-JSON view of one measure value.

    Non-finite floats (``+inf`` ratios from zero complete-information
    costs, ``nan`` from degenerate folds) are tagged the way
    :mod:`repro.service.codec` tags them — ``{"t": "float", "v":
    repr(value)}`` — instead of leaking through ``json.dumps`` as the
    non-strict literals ``Infinity``/``NaN`` that strict parsers (the
    service codec round-trip, CSV consumers) reject.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return {"t": "float", "v": repr(value)}
    if isinstance(value, (tuple, list)):
        return [encode_cell_value(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_cell_value(item) for key, item in value.items()}
    return value


def decode_cell_value(payload: Any) -> Any:
    """Inverse of :func:`encode_cell_value` (tagged floats restored)."""
    if isinstance(payload, dict):
        if set(payload) == {"t", "v"} and payload["t"] == "float":
            return float(payload["v"])
        return {key: decode_cell_value(item) for key, item in payload.items()}
    if isinstance(payload, list):
        return [decode_cell_value(item) for item in payload]
    return payload


def _json_safe(name: str, value: Any) -> Any:
    if isinstance(value, Exception):
        return {
            "error": {
                "type": type(value).__name__,
                "message": str(value),
            }
        }
    if name == "ignorance_report":
        return encode_cell_value(value.as_dict())
    return encode_cell_value(value)


def _pack(measures: str, values: Sequence[Any]) -> Dict[str, Any]:
    names = _measure_names(measures)
    return {
        name: _json_safe(name, value) for name, value in zip(names, values)
    }


# ----------------------------------------------------------------------
# unit task + batch runner
# ----------------------------------------------------------------------

def unit_census_member(
    *,
    source: str,
    agents: int,
    types: int,
    actions: int,
    states: int,
    member: int,
    measures: str,
) -> Dict[str, Any]:
    """Evaluate one census member; ``measures`` is comma-joined names.

    A measure that fails (say the member has no pure Bayesian
    equilibrium) yields an ``{"error": {"type", "message"}}`` cell instead
    of aborting the member, mirroring ``evaluate_many(...,
    on_error="capture")``; a *generator* failure (the random graph
    cannot support the requested type count) lands the same
    ``{"error": ...}`` payload in every measure cell, so the reducer
    tallies it once per member.
    """
    queries = _cell_queries(measures)
    try:
        session = _member_session(
            census_game(source, agents, types, actions, states, member)
        )
    except Exception as error:
        return _pack(measures, [error] * len(queries))
    values: List[Any] = []
    for item in queries:
        try:
            values.append(session.evaluate([item])[0])
        except Exception as error:
            values.append(error)
    return _pack(measures, values)


def batch_census_members(
    rows: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Batch runner for ``unit_census_member``: one SoA sweep per bundle.

    Rows group by measure bundle; each group's constructible members go
    through one :class:`BatchSession` (tabular cells share a lowering
    shape, so a whole cell lands in one structure-of-arrays bucket; NCS
    members fall back to the looped path automatically).  Members whose
    *generator* fails are answered inline with the same error payload the
    unit task produces — one bad cell never poisons its group.
    """
    groups: Dict[str, List[int]] = {}
    for position, row in enumerate(rows):
        groups.setdefault(str(row["measures"]), []).append(position)
    out: List[Dict[str, Any]] = [dict() for _ in rows]
    for measures, positions in groups.items():
        queries = _cell_queries(measures)
        live: List[int] = []
        sessions: List[GameSession] = []
        for position in positions:
            row = rows[position]
            try:
                sessions.append(
                    _member_session(
                        census_game(
                            str(row["source"]),
                            int(row["agents"]),
                            int(row["types"]),
                            int(row["actions"]),
                            int(row["states"]),
                            int(row["member"]),
                        )
                    )
                )
            except Exception as error:
                out[position] = _pack(measures, [error] * len(queries))
                continue
            live.append(position)
        if not live:
            continue
        batch = BatchSession.from_sessions(sessions)
        tables = batch.evaluate_many(queries, on_error="capture")
        for position, values in zip(live, tables):
            out[position] = _pack(measures, values)
    return out


register_batch_runner(
    f"{_HERE}:unit_census_member", f"{_HERE}:batch_census_members"
)


# ----------------------------------------------------------------------
# reduction: distribution statistics per cell
# ----------------------------------------------------------------------

def _histogram(values: Sequence[float]) -> List[int]:
    """Counts per :data:`HISTOGRAM_EDGES` bin; the last bin is open."""
    counts = [0] * len(HISTOGRAM_EDGES)
    for value in values:
        slot = len(HISTOGRAM_EDGES) - 1
        for index in range(len(HISTOGRAM_EDGES) - 1):
            if HISTOGRAM_EDGES[index] <= value < HISTOGRAM_EDGES[index + 1]:
                slot = index
                break
        counts[slot] += 1
    return counts


def _leq(a: float, b: float) -> bool:
    return a <= b + 1e-9 * max(1.0, abs(a), abs(b))


def _member_error(payload: Mapping[str, Any]) -> Optional[Dict[str, str]]:
    """The ``{"type", "message"}`` error of one measure cell, if any."""
    if isinstance(payload, Mapping) and isinstance(payload.get("error"), Mapping):
        error = payload["error"]
        return {
            "type": str(error.get("type", "Exception")),
            "message": str(error.get("message", "")),
        }
    return None


def _sanity_holds(report: IgnoranceReport, eq_c: Optional[Sequence[float]]) -> bool:
    """Structural invariants every evaluated member must satisfy:
    Observation 2.2 (optC <= optP <= best-eqP <= worst-eqP), the
    equilibrium sandwich optC <= best-eqC <= worst-eqC, and the
    separately computed ``eq_c`` pair agreeing with the report."""
    ok = (
        _leq(report.opt_c, report.opt_p)
        and _leq(report.opt_p, report.best_eq_p)
        and _leq(report.best_eq_p, report.worst_eq_p)
        and _leq(report.opt_c, report.best_eq_c)
        and _leq(report.best_eq_c, report.worst_eq_c)
    )
    if ok and eq_c is not None:
        best, worst = float(eq_c[0]), float(eq_c[1])
        ok = best == report.best_eq_c and worst == report.worst_eq_c
    return ok


def census_statistics(
    values: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Distribution statistics for one cell's member value dicts.

    ``values`` are the JSON-safe payloads of ``unit_census_member`` (one
    per member).  Members whose report errored are tallied by error type;
    non-finite ratios are counted per kind (``inf`` / ``nan``) and kept
    out of the histograms and percentiles; finite ratios produce
    histogram counts, nearest-rank tail percentiles, and the fraction of
    members where ignorance strictly helps / hurts per ratio kind.
    """
    members = len(values)
    errors: Dict[str, int] = {}
    reports: List[IgnoranceReport] = []
    eq_pairs: List[Optional[Sequence[float]]] = []
    for value in values:
        payload = decode_cell_value(dict(value))
        error = _member_error(payload.get("ignorance_report"))
        if error is not None:
            errors[error["type"]] = errors.get(error["type"], 0) + 1
            continue
        report_dict = payload["ignorance_report"]
        reports.append(
            IgnoranceReport(
                opt_p=report_dict["optP"],
                best_eq_p=report_dict["best-eqP"],
                worst_eq_p=report_dict["worst-eqP"],
                opt_c=report_dict["optC"],
                best_eq_c=report_dict["best-eqC"],
                worst_eq_c=report_dict["worst-eqC"],
            )
        )
        eq_value = payload.get("eq_c")
        eq_pairs.append(
            eq_value
            if isinstance(eq_value, (list, tuple)) and len(eq_value) == 2
            else None
        )
    evaluated = len(reports)
    sanity = all(
        _sanity_holds(report, pair) for report, pair in zip(reports, eq_pairs)
    )
    ratios: Dict[str, Any] = {}
    histograms: Dict[str, List[int]] = {}
    nonfinite: Dict[str, Dict[str, int]] = {}
    helps: Dict[str, Dict[str, Any]] = {}
    for kind, numerator, denominator in RATIO_KINDS:
        raw = [report.ratio(numerator, denominator) for report in reports]
        finite = sorted(r for r in raw if math.isfinite(r))
        inf_count = sum(1 for r in raw if math.isinf(r))
        nan_count = sum(1 for r in raw if math.isnan(r))
        nonfinite[kind] = {"inf": inf_count, "nan": nan_count}
        histograms[kind] = _histogram(finite)
        helped = sum(1 for r in raw if r < 1.0 - HELPS_TOLERANCE)
        hurt = sum(
            1 for r in raw if math.isnan(r) is False and r > 1.0 + HELPS_TOLERANCE
        )
        helps[kind] = {
            "helped": helped,
            "hurt": hurt,
            "neutral": evaluated - helped - hurt - nan_count,
            "fraction_helped": helped / evaluated if evaluated else 0.0,
        }
        stats: Dict[str, Any] = {"finite": len(finite)}
        if finite:
            stats.update(
                min=finite[0],
                max=finite[-1],
                mean=float(sum(finite) / len(finite)),
                **{
                    f"p{q}": nearest_rank(finite, q) for q in PERCENTILES
                },
            )
        ratios[kind] = stats
    return {
        "members": members,
        "evaluated": evaluated,
        "errors": dict(sorted(errors.items())),
        "error_members": members - evaluated,
        "nonfinite": nonfinite,
        "ratios": ratios,
        "helps": helps,
        "histogram": {
            "edges": list(HISTOGRAM_EDGES),
            "open_tail": True,
            "counts": histograms,
        },
        "sanity": sanity,
    }


def reduce_census_cell(
    spec: ScenarioSpec, results: Sequence[UnitResult]
) -> List[CellResult]:
    """One :class:`CellResult` per census cell, distribution in ``extra``.

    ``bound_check`` is the structural sanity verdict over every evaluated
    member plus the bookkeeping identity ``evaluated + error_members ==
    members``; the headline series is the best-eq ratio's tail
    percentiles, so the fitted shape is informational only.
    """
    fixed = dict(spec.fixed)
    stats = census_statistics([result.value for result in results])
    census = {
        "cell": {
            "source": fixed["source"],
            "agents": fixed["agents"],
            "types": fixed["types"],
            "actions": fixed["actions"],
            "states": fixed["states"],
        },
        "measures": fixed["measures"],
        **stats,
    }
    holds = (
        stats["sanity"]
        and stats["evaluated"] + stats["error_members"] == stats["members"]
    )
    best = stats["ratios"]["best_eq"]
    series = [
        SeriesPoint(float(q), best[f"p{q}"])
        for q in PERCENTILES
        if f"p{q}" in best
    ]
    helped = stats["helps"]["best_eq"]
    inf_total = sum(
        counts["inf"] + counts["nan"] for counts in stats["nonfinite"].values()
    )
    notes = (
        f"{helped['helped']}/{stats['evaluated']} members strictly helped "
        f"by ignorance; {stats['error_members']} error member(s); "
        f"{inf_total} non-finite ratio(s)"
    )
    return [
        CellResult(
            spec.scenario_id,
            "undirected" if fixed["source"] == "ncs" else "-",
            "best-eqP/best-eqC",
            "census",
            "Obs 2.2 + eq sandwich hold on every member",
            series,
            expected_shape="constant",
            bound_check=holds,
            notes=notes,
            fit_candidates=("constant",),
            extra={"census": census},
        )
    ]


# ----------------------------------------------------------------------
# spec builders (experiments.py wires these into the sweep registry)
# ----------------------------------------------------------------------

def census_scenario(
    source: str,
    agents: int,
    types: int,
    actions: int,
    states: int,
    members: int,
    measures: str = DEFAULT_MEASURES,
    prefix: str = "CENSUS",
) -> ScenarioSpec:
    """The spec for one census cell: a ``member`` grid over fixed shape."""
    validate_cell(source, agents, types, actions, states)
    if members < 1:
        raise ValueError(f"census cells need members >= 1, got {members}")
    tag = "TAB" if source == "tabular" else source.upper()
    return ScenarioSpec(
        scenario_id=f"{prefix}-{tag}-a{agents}t{types}x{actions}s{states}",
        task=f"{_HERE}:unit_census_member",
        reducer=f"{_HERE}:reduce_census_cell",
        grid={"member": tuple(range(members))},
        fixed={
            "source": source,
            "agents": agents,
            "types": types,
            "actions": actions,
            "states": states,
            "measures": measures,
        },
        description=(
            f"{members}-member {source} census cell "
            f"({agents} agents x {types} types x {actions} actions"
            + (f" x {states} states)" if source == "tabular" else " nodes)")
        ),
    )


# ----------------------------------------------------------------------
# the cross-cell phase-transition table
# ----------------------------------------------------------------------

_TABLE_HEADER = (
    "cell",
    "source",
    "k",
    "types",
    "actions",
    "states",
    "members",
    "errors",
    "non-finite",
    "helped",
    "best-eq p50",
    "best-eq p95",
)


def render_census_table(cells: Sequence[CellResult]) -> str:
    """Phase-transition-style markdown across census cells.

    Non-census cells (no ``extra["census"]`` payload) are skipped, so the
    full report suite can pass its whole row list straight through.
    Returns ``""`` when no census cells are present.
    """
    rows: List[Tuple[str, ...]] = []
    for cell in cells:
        census = (cell.extra or {}).get("census")
        if not census:
            continue
        shape = census["cell"]
        best = census["ratios"]["best_eq"]
        helped = census["helps"]["best_eq"]
        inf_total = sum(
            counts["inf"] + counts["nan"]
            for counts in census["nonfinite"].values()
        )
        evaluated = census["evaluated"]
        rows.append(
            (
                cell.experiment_id,
                str(shape["source"]),
                str(shape["agents"]),
                str(shape["types"]),
                str(shape["actions"]),
                str(shape["states"]),
                str(census["members"]),
                str(census["error_members"]),
                str(inf_total),
                (
                    f"{helped['helped']}/{evaluated}"
                    f" ({100.0 * helped['fraction_helped']:.0f}%)"
                ),
                f"{best['p50']:.3g}" if "p50" in best else "n/a",
                f"{best['p95']:.3g}" if "p95" in best else "n/a",
            )
        )
    if not rows:
        return ""
    lines = [
        "| " + " | ".join(_TABLE_HEADER) + " |",
        "|" + "|".join(["---"] * len(_TABLE_HEADER)) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)
