"""Spec hashing stability, grid expansion, and derivation tests."""

import pytest

from repro.runtime.spec import ScenarioSpec, SweepSpec, UnitTask, resolve_ref

TASK = "repro.analysis.experiments:unit_ncs_report"
REDUCER = "repro.analysis.experiments:reduce_t1_directed_opt_universal"


def make_scenario(**kwargs):
    defaults = dict(
        scenario_id="CELL",
        task=TASK,
        reducer=REDUCER,
        grid={"k": (2, 3), "seed": (0, 1, 2)},
        fixed={"directed": True, "num_nodes": 5, "extra_edges": 5},
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestResolveRef:
    def test_resolves_callable(self):
        fn = resolve_ref("repro.analysis.experiments:unit_bliss_triangle")
        assert callable(fn)

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            resolve_ref("no-colon-here")

    def test_rejects_missing_attribute(self):
        with pytest.raises(AttributeError):
            resolve_ref("repro.analysis.experiments:does_not_exist")


class TestGridExpansion:
    def test_size_is_grid_product(self):
        assert make_scenario().size == 6

    def test_empty_grid_is_single_point(self):
        scenario = make_scenario(grid={}, fixed={})
        assert scenario.size == 1
        assert scenario.expand() == [UnitTask(task=TASK, params=())]

    def test_expansion_count_and_params(self):
        units = make_scenario().expand()
        assert len(units) == 6
        seen = {(unit.kwargs["k"], unit.kwargs["seed"]) for unit in units}
        assert seen == {(k, s) for k in (2, 3) for s in (0, 1, 2)}
        # Fixed params ride along on every unit.
        assert all(unit.kwargs["directed"] is True for unit in units)

    def test_expansion_order_is_deterministic(self):
        assert make_scenario().expand() == make_scenario().expand()

    def test_grid_and_fixed_must_not_overlap(self):
        with pytest.raises(ValueError):
            make_scenario(fixed={"k": 1})

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError):
            make_scenario(fixed={"directed": [1, 2]})


class TestHashing:
    def test_hash_is_stable_across_instances(self):
        assert make_scenario().spec_hash() == make_scenario().spec_hash()

    def test_hash_ignores_dict_insertion_order(self):
        a = ScenarioSpec("X", TASK, REDUCER, grid={"k": (2,), "seed": (0,)})
        b = ScenarioSpec("X", TASK, REDUCER, grid={"seed": (0,), "k": (2,)})
        assert a.spec_hash() == b.spec_hash()

    def test_hash_changes_with_grid(self):
        assert (
            make_scenario().spec_hash()
            != make_scenario(grid={"k": (2, 3, 4), "seed": (0, 1, 2)}).spec_hash()
        )

    def test_unit_key_depends_on_params(self):
        a = UnitTask(task=TASK, params=(("k", 2), ("seed", 0)))
        b = UnitTask(task=TASK, params=(("k", 2), ("seed", 1)))
        assert a.key() != b.key()
        assert a.key() == UnitTask(task=TASK, params=(("seed", 0), ("k", 2))).key()

    def test_unit_key_depends_on_engine(self):
        unit = UnitTask(task=TASK, params=(("k", 2), ("seed", 0)))
        assert unit.key(engine="reference") != unit.key(engine="auto")
        # Bare key() uses the ambient engine.
        from repro.core import engine_override

        with engine_override("reference"):
            assert unit.key() == unit.key(engine="reference")
        # The retired ``tensor`` alias of ``auto`` is an unknown engine.
        with pytest.raises(ValueError, match="unknown engine"):
            with engine_override("tensor"):
                pass

    def test_unit_address_is_engine_free(self):
        """The shard scheduler's work-unit identity ignores the engine."""
        unit = UnitTask(task=TASK, params=(("k", 2), ("seed", 0)))
        from repro.core import engine_override

        with engine_override("reference"):
            pinned = unit.address()
        assert pinned == unit.address()
        assert unit.address() not in (unit.key(engine="auto"),
                                      unit.key(engine="reference"))
        other = UnitTask(task=TASK, params=(("k", 2), ("seed", 1)))
        assert unit.address() != other.address()

    def test_sweep_hash_covers_scenarios(self):
        sweep_a = SweepSpec("S", (make_scenario(),))
        sweep_b = SweepSpec("S", (make_scenario(grid={"k": (9,), "seed": (0,)}),))
        assert sweep_a.spec_hash() != sweep_b.spec_hash()


class TestDerivation:
    def test_with_grid_replaces_dimension(self):
        scenario = make_scenario().with_grid(k=(5, 6, 7))
        assert dict(scenario.grid)["k"] == (5, 6, 7)
        assert dict(scenario.grid)["seed"] == (0, 1, 2)

    def test_with_grid_unknown_dimension_raises(self):
        with pytest.raises(KeyError):
            make_scenario().with_grid(zzz=(1,))

    def test_sweep_with_grid_only_touches_declaring_scenarios(self):
        no_k = make_scenario(
            scenario_id="OTHER", grid={"level": (1, 2)}, fixed={}
        )
        sweep = SweepSpec("S", (make_scenario(), no_k)).with_grid(k=(9,))
        assert dict(sweep.scenarios[0].grid)["k"] == (9,)
        assert dict(sweep.scenarios[1].grid) == {"level": (1, 2)}

    def test_duplicate_scenario_ids_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("S", (make_scenario(), make_scenario()))
