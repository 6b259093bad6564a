"""Random-game census: generators, reducers, artifacts, queue parity."""

import hashlib
import itertools
import json

import pytest

from repro.analysis.census import (
    CELL_MEASURES,
    FAMILIES,
    HISTOGRAM_EDGES,
    batch_census_members,
    census_game,
    census_scenario,
    census_statistics,
    encode_cell_value,
    population_game,
    reduce_census_cell,
    render_census_table,
    unit_census_member,
    validate_cell,
)
from repro.core import tensor
from repro.runtime.cache import ResultCache
from repro.runtime.executor import UnitResult, run_sweeps
from repro.runtime.queue import WorkQueue, collect_queue, run_worker
from repro.runtime.spec import SweepSpec


def report_dict(
    opt_p=2.0,
    best_eq_p=3.0,
    worst_eq_p=4.0,
    opt_c=1.0,
    best_eq_c=2.0,
    worst_eq_c=3.0,
):
    return {
        "optP": opt_p,
        "best-eqP": best_eq_p,
        "worst-eqP": worst_eq_p,
        "optC": opt_c,
        "best-eqC": best_eq_c,
        "worst-eqC": worst_eq_c,
    }


def member_value(report=None, error=None):
    """A synthetic ``unit_census_member`` payload (already JSON-safe)."""
    if error is not None:
        payload = {"error": {"type": error, "message": "synthetic"}}
        return {"eq_c": payload, "opt_c": payload, "ignorance_report": payload}
    report = report or report_dict()
    return {
        "eq_c": encode_cell_value([report["best-eqC"], report["worst-eqC"]]),
        "opt_c": encode_cell_value(report["optC"]),
        "ignorance_report": encode_cell_value(report),
    }


class TestCellValidation:
    def test_unknown_source_is_refused(self):
        with pytest.raises(ValueError, match="unknown census source"):
            validate_cell("bogus", 2, 2, 2, 2)

    def test_degenerate_shapes_are_refused(self):
        with pytest.raises(ValueError, match="degenerate"):
            validate_cell("tabular", 1, 2, 2, 2)

    def test_tabular_states_must_fit_the_type_profiles(self):
        with pytest.raises(ValueError, match="types\\*\\*agents"):
            validate_cell("tabular", 2, 2, 2, 5)
        with pytest.raises(ValueError, match="types\\*\\*agents"):
            validate_cell("tabular", 2, 2, 2, 0)

    def test_ncs_cells_must_pass_states_zero(self):
        with pytest.raises(ValueError, match="states=0"):
            validate_cell("ncs", 2, 2, 4, 2)

    def test_scenario_builder_validates_eagerly(self):
        with pytest.raises(ValueError, match="states=0"):
            census_scenario("ncs", 2, 2, 4, 2, members=2)
        with pytest.raises(ValueError, match="members >= 1"):
            census_scenario("tabular", 2, 2, 2, 2, members=0)


class TestCensusGame:
    def test_members_are_deterministic(self):
        first = census_game("tabular", 2, 2, 2, 2, member=5)
        second = census_game("tabular", 2, 2, 2, 2, member=5)
        assert first.prior.support() == second.prior.support()
        state = first.prior.support()[0][0]
        assert first.cost(0, state, (0, 0)) == second.cost(0, state, (0, 0))

    def test_tabular_cell_members_share_a_lowering_shape(self):
        lowered = [
            tensor.maybe_lower(census_game("tabular", 2, 2, 3, 4, member=m))
            for m in range(3)
        ]
        assert all(tg is not None for tg in lowered)
        assert len({tensor.batch_signature(tg) for tg in lowered}) == 1

    def test_ncs_members_are_deterministic(self):
        first = census_game("ncs", 2, 2, 4, 0, member=1)
        second = census_game("ncs", 2, 2, 4, 0, member=1)
        for agent in range(2):
            assert first.types(agent) == second.types(agent)
        assert first.prior.support() == second.prior.support()


def game_fingerprint(game):
    """Digest of a game's name, prior and every cost (byte identity)."""
    digest = hashlib.sha256(game.name.encode())
    for state, prob in game.prior.support():
        digest.update(repr((state, prob)).encode())
    agents = range(game.num_agents)
    for types in itertools.product(*[game.types(i) for i in agents]):
        for actions in itertools.product(*[game.actions(i) for i in agents]):
            for i in agents:
                digest.update(repr(game.cost(i, types, actions)).encode())
    return digest.hexdigest()[:16]


class TestPopulationFamilies:
    def test_members_are_pinned(self):
        # Digests of the members the batch benches and service tests use;
        # any change to the seed, the name or the generator breaks them.
        pinned = {
            "tiny-2x2x2s2": [
                "62dc829d9661a105", "68f623e07bdbaf4e",
                "ce43dfae0cfd85ea", "f946a26efe0c953d",
            ],
            "bench-3x2x2s4": [
                "121344c56dfe6b4e", "4553cbc5c0b1791c",
                "6b03e9566b85131e", "b691a204cd0a9d3a",
            ],
        }
        for family, digests in pinned.items():
            assert [
                game_fingerprint(population_game(family, member))
                for member in (0, 1, 7, 999)
            ] == digests

    def test_members_are_deterministic(self):
        first = population_game("tiny-2x2x2s2", 7)
        second = population_game("tiny-2x2x2s2", 7)
        assert first.name == "pop-tiny-2x2x2s2-7"
        assert game_fingerprint(first) == game_fingerprint(second)

    def test_every_family_is_same_shape(self):
        for family in FAMILIES:
            lowered = [
                tensor.maybe_lower(population_game(family, member))
                for member in range(3)
            ]
            assert all(tg is not None for tg in lowered)
            assert len({tensor.batch_signature(tg) for tg in lowered}) == 1

    def test_unknown_family_is_refused(self):
        with pytest.raises(ValueError, match="unknown population family"):
            population_game("no-such-family", 0)

    def test_off_support_profiles_cost_zero(self):
        game = population_game("tiny-2x2x2s2", 0)
        k = game.num_agents
        assert game.cost(0, (9,) * k, (0,) * k) == 0.0


class TestMeasureBundles:
    CELL = dict(source="tabular", agents=2, types=2, actions=2, states=2)

    def test_failing_measures_become_error_cells(self):
        measures = ",".join(CELL_MEASURES)
        cells = [
            unit_census_member(**self.CELL, member=member, measures=measures)
            for member in range(8)
        ]
        errors = [
            cell[name]["error"]
            for cell in cells
            for name in cell
            if isinstance(cell[name], dict) and "error" in cell[name]
        ]
        assert errors, "corpus must include failing members for this test"
        assert all({"type", "message"} <= set(e) for e in errors)

    def test_unknown_measure_is_refused(self):
        with pytest.raises(ValueError, match="unknown population measure"):
            unit_census_member(**self.CELL, member=0, measures="eq_c,bogus")

    def test_empty_measure_string_is_refused(self):
        # Regression: measures="" used to expand to an empty bundle that
        # "succeeded" with {} and was cached forever under that address.
        with pytest.raises(ValueError, match="empty measure string"):
            unit_census_member(**self.CELL, member=0, measures="")
        with pytest.raises(ValueError, match="empty measure string"):
            batch_census_members([dict(self.CELL, member=0, measures=",")])


class TestUnitAndBatch:
    MEASURES = "eq_c,opt_c,ignorance_report"

    def rows(self):
        rows = [
            dict(
                source="tabular", agents=2, types=2, actions=2, states=2,
                member=member, measures=self.MEASURES,
            )
            for member in range(4)
        ]
        rows += [
            dict(
                source="ncs", agents=2, types=2, actions=4, states=0,
                member=member, measures=self.MEASURES,
            )
            for member in range(2)
        ]
        return rows

    def test_unit_and_batch_members_agree(self):
        rows = self.rows()
        assert batch_census_members(rows) == [
            unit_census_member(**row) for row in rows
        ]

    def test_values_are_strict_json(self):
        for row in self.rows()[:2]:
            value = unit_census_member(**row)
            encoded = json.dumps(value, allow_nan=False)
            assert json.loads(encoded) == value

    def test_generator_failure_is_captured_per_member(self):
        # 2 types per agent cannot fit in a 2-node undirected graph's
        # feasible pairs minus... actually force it: types > pairs.
        row = dict(
            source="ncs", agents=2, types=50, actions=4, states=0,
            member=0, measures=self.MEASURES,
        )
        value = unit_census_member(**row)
        for name in ("eq_c", "opt_c", "ignorance_report"):
            assert value[name]["error"]["type"] == "ValueError"
        assert batch_census_members([row]) == [value]

    def test_invalid_cell_params_are_captured_not_raised(self):
        value = unit_census_member(
            source="tabular", agents=2, types=2, actions=2, states=9,
            member=0, measures=self.MEASURES,
        )
        assert value["opt_c"]["error"]["type"] == "ValueError"
        assert "types**agents" in value["opt_c"]["error"]["message"]


class TestCensusStatistics:
    def test_zero_opt_c_ratio_lands_in_nonfinite_not_histogram(self):
        values = [
            member_value(report_dict(opt_c=0.0, opt_p=2.0)),
            member_value(),
        ]
        stats = census_statistics(values)
        assert stats["nonfinite"]["opt"] == {"inf": 1, "nan": 0}
        assert sum(stats["histogram"]["counts"]["opt"]) == 1
        assert stats["ratios"]["opt"]["finite"] == 1
        # +inf counts as "ignorance hurts", never "helps".
        assert stats["helps"]["opt"]["helped"] == 0
        assert stats["helps"]["opt"]["hurt"] == 2

    def test_zero_over_zero_is_the_papers_neutral_one(self):
        values = [
            member_value(
                report_dict(
                    opt_p=0.0, best_eq_p=0.0, worst_eq_p=0.0,
                    opt_c=0.0, best_eq_c=0.0, worst_eq_c=0.0,
                )
            )
        ]
        stats = census_statistics(values)
        assert stats["ratios"]["best_eq"]["p50"] == 1.0
        assert stats["helps"]["best_eq"]["neutral"] == 1

    def test_error_members_are_tallied_by_type(self):
        values = [
            member_value(),
            member_value(error="RuntimeError"),
            member_value(error="RuntimeError"),
            member_value(error="ValueError"),
        ]
        stats = census_statistics(values)
        assert stats["members"] == 4
        assert stats["evaluated"] == 1
        assert stats["error_members"] == 3
        assert stats["errors"] == {"RuntimeError": 2, "ValueError": 1}

    def test_all_error_cell_has_no_percentiles(self):
        stats = census_statistics([member_value(error="RuntimeError")] * 3)
        assert stats["evaluated"] == 0
        assert stats["ratios"]["best_eq"] == {"finite": 0}
        assert stats["helps"]["best_eq"]["fraction_helped"] == 0.0
        assert stats["sanity"] is True  # vacuously

    def test_empty_cell(self):
        stats = census_statistics([])
        assert stats["members"] == 0
        assert stats["evaluated"] == 0
        assert stats["errors"] == {}

    def test_helps_counts_strict_improvement(self):
        values = [
            member_value(report_dict(best_eq_p=1.0, best_eq_c=2.0)),  # helps
            member_value(report_dict(best_eq_p=2.0, best_eq_c=2.0)),  # neutral
            member_value(report_dict(best_eq_p=3.0, best_eq_c=2.0)),  # hurts
        ]
        stats = census_statistics(values)
        helps = stats["helps"]["best_eq"]
        assert (helps["helped"], helps["neutral"], helps["hurt"]) == (1, 1, 1)
        assert helps["fraction_helped"] == pytest.approx(1 / 3)

    def test_sanity_catches_a_broken_sandwich(self):
        values = [member_value(report_dict(opt_c=5.0, opt_p=2.0))]
        assert census_statistics(values)["sanity"] is False

    def test_sanity_cross_checks_eq_c_against_the_report(self):
        value = member_value()
        value["eq_c"] = [999.0, 999.0]
        assert census_statistics([value])["sanity"] is False

    def test_histogram_mass_accounts_for_every_finite_ratio(self):
        values = [member_value(report_dict(best_eq_p=p)) for p in
                  (0.2, 1.0, 2.0, 5.0, 100.0)]
        stats = census_statistics(values)
        counts = stats["histogram"]["counts"]["best_eq"]
        assert len(counts) == len(HISTOGRAM_EDGES)
        assert sum(counts) == stats["ratios"]["best_eq"]["finite"] == 5
        assert counts[-1] == 1  # the open [8, inf) tail holds ratio 50


class TestReduceAndRender:
    def build_run(self, members=4):
        spec = census_scenario("tabular", 2, 2, 2, 2, members=members)
        results = [
            UnitResult(
                task=spec.task,
                params={**dict(spec.fixed), "member": member},
                value=unit_census_member(**dict(spec.fixed), member=member),
            )
            for member in range(members)
        ]
        return spec, results

    def test_reduce_produces_one_cell_with_distribution_extra(self):
        spec, results = self.build_run()
        (cell,) = reduce_census_cell(spec, results)
        assert cell.experiment_id == spec.scenario_id
        assert cell.bound_check is True
        census = cell.extra["census"]
        assert census["members"] == 4
        assert census["cell"]["source"] == "tabular"
        assert "best_eq" in census["ratios"]
        assert "strictly helped" in cell.notes

    def test_reduce_flags_bookkeeping_violations(self):
        spec, results = self.build_run(members=2)
        results[0].value = member_value(report_dict(opt_c=9.0, opt_p=1.0))
        (cell,) = reduce_census_cell(spec, results)
        assert cell.bound_check is False
        assert cell.passed is False

    def test_render_census_table_skips_non_census_cells(self):
        spec, results = self.build_run()
        cells = reduce_census_cell(spec, results)
        from repro.analysis.table1 import CellResult, SeriesPoint

        plain = CellResult(
            "T1-X", "-", "optP/optC", "universal", "claim",
            [SeriesPoint(1, 1.0)], expected_shape="constant",
            bound_check=True,
        )
        table = render_census_table([plain] + cells)
        assert spec.scenario_id in table
        assert "T1-X" not in table
        assert render_census_table([plain]) == ""


class TestQueueParity:
    def test_queue_collected_census_rows_match_local_run(self, tmp_path):
        sweep = SweepSpec(
            "CENSUS-TINY",
            (census_scenario("tabular", 2, 2, 2, 2, members=4),),
            description="tiny census for queue parity",
        )
        queue = WorkQueue(tmp_path / "queue.sqlite")
        queue.fill([sweep])
        run_worker(queue)
        collected, stats, _ = collect_queue(
            [sweep], queue, cache=ResultCache(root=tmp_path / "collect-cache")
        )
        oracle, _ = run_sweeps([sweep], jobs=1, cache=None, backend="serial")

        def encoded(sweep_runs):
            return json.dumps(
                [
                    [r.value for r in run.results]
                    for sweep_run in sweep_runs
                    for run in sweep_run.scenario_runs
                ],
                sort_keys=True,
            )

        assert encoded(collected) == encoded(oracle)
        assert stats.backend == "queue-collect"
