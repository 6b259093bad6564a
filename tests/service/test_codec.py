"""Wire-codec round-trips, canonical hashing, and malformed payloads."""

import json
import math

import pytest

from repro.constructions.random_games import random_bayesian_ncs
from repro.core.measures import IgnoranceReport
from repro.service.codec import (
    CodecError,
    canonical_json,
    coerce_spec,
    decode_result,
    decode_value,
    encode_result,
    encode_value,
    game_hash,
    spec_from_wire,
    spec_to_wire,
    tabularize,
)
from repro.core.game import BayesianGame
from repro.core.prior import CommonPrior

import numpy as np

from fuzz_games import spec_for_seed


#: Tagged values whose ``v`` the tag cannot read.
MALFORMED_TAGGED = {
    "float-word": {"t": "float", "v": "abc"},
    "float-null": {"t": "float", "v": None},
    "tuple-int": {"t": "tuple", "v": 5},
    "frozenset-string": {"t": "frozenset", "v": "ab"},
    "nested-float-word": {"t": "tuple", "v": [{"t": "float", "v": "abc"}]},
}


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            "edge",
            3.5,
            0.1 + 0.2,  # not exactly 0.3; shortest-repr must round-trip it
            math.inf,
            -math.inf,
            (1, "a", (2.5, None)),
            frozenset({("e", 1), ("e", 2)}),
            frozenset(),
        ],
    )
    def test_round_trip(self, value):
        encoded = encode_value(value)
        json_safe = json.loads(json.dumps(encoded))
        assert decode_value(json_safe) == value

    def test_bool_survives_as_bool(self):
        # bool is an int subclass; the codec must not flatten it.
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_nan_round_trips_as_nan(self):
        decoded = decode_value(json.loads(json.dumps(encode_value(math.nan))))
        assert math.isnan(decoded)

    def test_nonfinite_floats_stay_out_of_plain_json(self):
        # canonical_json uses allow_nan=False, so the tagged form is the
        # only way non-finite floats reach the hash input.
        canonical_json(encode_value(math.inf))
        with pytest.raises(ValueError):
            canonical_json(math.inf)

    def test_frozensets_encode_canonically(self):
        a = frozenset([("u", 1), ("v", 2), ("w", 3)])
        b = frozenset(reversed(sorted(a)))
        assert canonical_json(encode_value(a)) == canonical_json(encode_value(b))

    def test_unencodable_value_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            decode_value({"t": "martian", "v": []})

    @pytest.mark.parametrize("case", sorted(MALFORMED_TAGGED))
    def test_malformed_tagged_value_raises(self, case):
        with pytest.raises(CodecError, match="malformed"):
            decode_value(MALFORMED_TAGGED[case])


class TestSpecCodec:
    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_both_families(self, seed):
        # seeds 2, 5, 8, 11 are NCS games (frozenset edge-set actions,
        # +inf unreachable costs); the rest are tabular.
        spec = spec_for_seed(seed)
        wire = json.loads(json.dumps(spec_to_wire(spec)))
        rebuilt = spec_from_wire(wire)
        assert rebuilt == spec
        assert game_hash(rebuilt) == game_hash(spec)

    def test_hashes_are_distinct_across_games(self):
        hashes = {game_hash(spec_for_seed(seed)) for seed in range(24)}
        assert len(hashes) == 24

    def test_hash_ignores_lookup_table_ordering(self):
        spec = spec_for_seed(0)
        shuffled = spec_for_seed(0)
        shuffled.costs = dict(reversed(list(shuffled.costs.items())))
        shuffled.feasible = dict(reversed(list(shuffled.feasible.items())))
        assert game_hash(shuffled) == game_hash(spec)

    def test_hash_respects_support_order(self):
        # Support order drives enumeration fold order, hence results;
        # reordering it is a *different* game to the service.
        spec = spec_for_seed(0)
        assert len(spec.support) > 1
        reordered = spec_for_seed(0)
        reordered.support = list(reversed(reordered.support))
        assert game_hash(reordered) != game_hash(spec)

    def test_rebuilt_game_evaluates_identically(self):
        from repro.core import ignorance_report

        spec = spec_for_seed(2)  # NCS: the hairiest value types
        original = ignorance_report(spec.build()).as_dict()
        rebuilt = ignorance_report(
            spec_from_wire(spec_to_wire(spec)).build()
        ).as_dict()
        assert rebuilt == original

    def test_wrong_format_tag_raises(self):
        wire = spec_to_wire(spec_for_seed(0))
        wire["format"] = "repro.tabular-game/99"
        with pytest.raises(CodecError):
            spec_from_wire(wire)

    @pytest.mark.parametrize("payload", [None, [], "x", {"format": None}, {}])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(CodecError):
            spec_from_wire(payload)

    def test_missing_section_raises(self):
        wire = spec_to_wire(spec_for_seed(0))
        del wire["costs"]
        with pytest.raises(CodecError):
            spec_from_wire(wire)


def two_by_two_wire():
    """A one-state game of two agents with two actions each, on the wire."""
    game = BayesianGame(
        action_spaces=[[0, 1], [0, 1]],
        type_spaces=[[0], [0]],
        prior=CommonPrior({(0, 0): 1.0}),
        cost_fn=lambda i, t, a: float(1 + a[0] + 2 * a[1]),
    )
    return spec_to_wire(tabularize(game, name="two-by-two"))


#: Cost tables the engines cannot evaluate: each breaks the first cost
#: entry of :func:`two_by_two_wire`.
BROKEN_COSTS = {
    "nan": lambda entries: entries[0].update(cost={"t": "float", "v": "nan"}),
    "-inf": lambda entries: entries[0].update(cost={"t": "float", "v": "-inf"}),
    "string": lambda entries: entries[0].update(cost="3"),
    "bool": lambda entries: entries[0].update(cost=True),
    "missing": lambda entries: entries.pop(0),
}


def broken_cost_wire(case):
    wire = two_by_two_wire()
    BROKEN_COSTS[case](wire["costs"])
    return wire


class TestCostTable:
    def test_valid_table_passes(self):
        assert spec_from_wire(two_by_two_wire()).costs[(0, (0, 0), (1, 1))] == 4.0

    @pytest.mark.parametrize("case", sorted(BROKEN_COSTS))
    def test_unusable_cost_table_raises(self, case):
        message = "missing cost" if case == "missing" else "must be a number"
        with pytest.raises(CodecError, match=message):
            spec_from_wire(broken_cost_wire(case))

    def test_missing_feasible_list_of_a_support_type_raises(self):
        wire = two_by_two_wire()
        wire["feasible"] = wire["feasible"][1:]
        with pytest.raises(CodecError, match="missing feasible actions of agent 0"):
            spec_from_wire(wire)

    def test_short_support_state_raises(self):
        wire = two_by_two_wire()
        wire["support"][0]["profile"] = [0]
        with pytest.raises(CodecError, match="one type per agent"):
            spec_from_wire(wire)


#: Games the engines cannot build or evaluate, each one edit of fuzz game
#: 3's wire form (two support states; agent 0's type 2 lies outside the
#: support), with the refusal's message.  Before these were refused, the
#: prior cases and a non-integer agent answered a 500 at submit; the rest
#: were accepted, then failed every query with a 500 or a 422, or (a bool
#: or out-of-range agent, a duplicated key) silently changed the game.
BROKEN_GAMES = {
    "negative-probability": (
        lambda wire: wire["support"][0].update(prob=-0.5),
        "finite, non-negative number",
    ),
    "string-probability": (
        lambda wire: wire["support"][0].update(prob="0.5"),
        "finite, non-negative number",
    ),
    "bool-probability": (
        lambda wire: wire.update(support=[dict(wire["support"][0], prob=True)]),
        "finite, non-negative number",
    ),
    "sum-below-one": (
        lambda wire: wire["support"][0].update(
            prob=0.9999 - wire["support"][1]["prob"]
        ),
        "sum to",
    ),
    "empty-support": (
        lambda wire: wire["support"].clear(),
        "non-empty support",
    ),
    "duplicate-state": (
        lambda wire: wire["support"].append(dict(wire["support"][0])),
        "listed twice",
    ),
    "missing-feasible-outside-support": (
        lambda wire: wire.update(
            feasible=[
                entry for entry in wire["feasible"]
                if (entry["agent"], entry["type"]) != (0, 2)
            ]
        ),
        "missing feasible actions of agent 0 for type 2",
    ),
    "empty-feasible": (
        lambda wire: wire["feasible"][3].update(actions=[]),
        "missing feasible actions of agent 1 for type 0",
    ),
    "string-agent": (
        lambda wire: wire["costs"][0].update(agent="x"),
        "agent must be an integer from 0 to 2",
    ),
    "null-agent": (
        lambda wire: wire["feasible"][0].update(agent=None),
        "agent must be an integer from 0 to 2",
    ),
    "bool-agent": (
        lambda wire: next(
            entry for entry in wire["costs"] if entry["agent"] == 1
        ).update(agent=True),
        "agent must be an integer from 0 to 2",
    ),
    "out-of-range-agent": (
        lambda wire: wire["costs"].append(dict(wire["costs"][0], agent=7)),
        "agent must be an integer from 0 to 2",
    ),
    "duplicate-cost": (
        lambda wire: wire["costs"].append(dict(wire["costs"][0], cost=99.0)),
        "a cost key is listed twice",
    ),
    "duplicate-feasible": (
        lambda wire: wire["feasible"].append(
            dict(wire["feasible"][1], actions=wire["feasible"][1]["actions"][:1])
        ),
        "a feasible key is listed twice",
    ),
}


def broken_game_wire(case):
    wire = spec_to_wire(spec_for_seed(3))
    BROKEN_GAMES[case][0](wire)
    return wire


NAN = {"t": "float", "v": "nan"}

#: Atoms that are or hold NaN, each substituted for agent 0's first type
#: or action of fuzz game 5 wherever it appears: ``(kind, atom)``.
NAN_ATOMS = {
    "type": ("type", NAN),
    "nested-action": ("action", {"t": "tuple", "v": [1, NAN]}),
}


def nan_atom_wire(case):
    """Fuzz game 5's wire form with one of agent 0's atoms replaced, in
    every place it appears, by the :data:`NAN_ATOMS` case."""
    kind, new = NAN_ATOMS[case]
    wire = spec_to_wire(spec_for_seed(5))
    old = repr(wire[f"{kind}_spaces"][0][0])

    def swap(items):
        return [new if repr(item) == old else item for item in items]

    def swap_first(profile):  # agent 0's slot of a state or an action profile
        profile[:1] = swap(profile[:1])

    wire[f"{kind}_spaces"][0] = swap(wire[f"{kind}_spaces"][0])
    for entry in wire["costs"]:
        swap_first(entry["state" if kind == "type" else "actions"])
    for entry in wire["feasible"]:
        if entry["agent"] == 0 and kind == "type":
            [entry["type"]] = swap([entry["type"]])
        elif entry["agent"] == 0:
            entry["actions"] = swap(entry["actions"])
    if kind == "type":
        for entry in wire["support"]:
            swap_first(entry["profile"])
    return wire


class TestGameChecks:
    @pytest.mark.parametrize("case", sorted(BROKEN_GAMES))
    def test_unusable_game_raises(self, case):
        with pytest.raises(CodecError, match=BROKEN_GAMES[case][1]):
            spec_from_wire(broken_game_wire(case))

    @pytest.mark.parametrize("case", sorted(NAN_ATOMS))
    def test_nan_atom_raises(self, case):
        with pytest.raises(CodecError, match="must not hold NaN"):
            spec_from_wire(nan_atom_wire(case))

    def test_zero_probability_entry_passes(self):
        """A zero-probability support entry is accepted; the prior drops it."""
        wire = spec_to_wire(spec_for_seed(3))
        wire["support"][0]["prob"] = 0.0
        wire["support"][1]["prob"] = 1.0
        game = spec_from_wire(wire).build()
        assert [profile for profile, _ in game.prior.support()] == [(0, 0, 1)]


class TestCoerceSpec:
    def test_spec_passes_through(self):
        spec = spec_for_seed(0)
        assert coerce_spec(spec) is spec

    def test_core_game_tabularizes(self):
        game = spec_for_seed(1).build()
        assert game_hash(coerce_spec(game)) == game_hash(coerce_spec(game))

    def test_ncs_wrapper_unwraps(self):
        wrapped = random_bayesian_ncs(
            2, 4, np.random.default_rng(7), scenarios=2, name="wrapped"
        )
        spec = coerce_spec(wrapped)
        assert spec.num_agents == 2

    def test_garbage_raises(self):
        with pytest.raises(CodecError):
            coerce_spec(42)


class TestResultCodec:
    def test_ignorance_report_round_trips(self):
        report = IgnoranceReport(
            opt_p=2.0,
            best_eq_p=1.5,
            worst_eq_p=math.inf,
            opt_c=1.0,
            best_eq_c=1.0,
            worst_eq_c=3.25,
            name="rt",
        )
        decoded = decode_result(json.loads(json.dumps(encode_result(report))))
        assert decoded == report

    def test_nested_containers_round_trip(self):
        value = [
            ((frozenset({("e", 0)}),), (0, 1)),
            {"kind": "worst", "pair": (1.0, math.inf)},
        ]
        decoded = decode_result(json.loads(json.dumps(encode_result(value))))
        assert decoded == value
