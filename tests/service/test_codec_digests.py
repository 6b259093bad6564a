"""Golden ``game_hash`` digests: the session key must never drift.

The digests below were computed before ``spec_to_wire`` memoized atom
encodings.  The mixed-atom spec puts atoms that Python calls equal —
``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``; tuples of them — at
the same positions of different agents, so a memo keyed by plain value
equality would hand one atom another's encoding and change the digest.
"""

import json

import pytest

from repro.service.codec import (
    TabularGameSpec,
    game_hash,
    spec_from_wire,
    spec_to_wire,
)

from fuzz_games import random_ncs_spec, random_tabular_spec

#: Per agent: the labels replacing action ``n`` / type ``n`` of a fuzz spec.
ACTION_LABELS = [
    [1, (1, 2), "1", (1, (True, 2.5))],
    [1.0, (1.0, 2), None, (1.0, (1, 2.5))],
    [True, (True, 2), 0.0, (True, (1.0, 2.5))],
]
TYPE_LABELS = [
    [1, (0.0, 1), "t"],
    [1.0, (-0.0, True), ("t",)],
    [True, (0.0, 1.0), frozenset({1, 2})],
]

MIXED_SEED = 5
NCS_SEED = 2

GOLDEN = {
    "mixed-atoms": "9fdb111ca859f2bf13ded192e744af2e7f24fd5bcb305f23cd6711bdf73ea443",
    "ncs-frozensets": "498288062812363bdbec798bf45f321104a062e7e118dd75626be713b406e888",
}


def relabel(spec: TabularGameSpec) -> TabularGameSpec:
    """``spec`` with its integer actions and types renamed per agent."""
    acts = [dict(enumerate(labels)) for labels in ACTION_LABELS]
    kinds = [dict(enumerate(labels)) for labels in TYPE_LABELS]

    def profile(types):
        return tuple(kinds[agent][ti] for agent, ti in enumerate(types))

    def actions(chosen):
        return tuple(acts[agent][a] for agent, a in enumerate(chosen))

    return TabularGameSpec(
        action_spaces=[
            [acts[agent][a] for a in space]
            for agent, space in enumerate(spec.action_spaces)
        ],
        type_spaces=[
            [kinds[agent][ti] for ti in space]
            for agent, space in enumerate(spec.type_spaces)
        ],
        support=[(profile(types), prob) for types, prob in spec.support],
        feasible={
            (agent, kinds[agent][ti]): [acts[agent][a] for a in chosen]
            for (agent, ti), chosen in spec.feasible.items()
        },
        costs={
            (agent, profile(types), actions(chosen)): value
            for (agent, types, chosen), value in spec.costs.items()
        },
        name=spec.name,
        meta=spec.meta,
    )


def golden_specs():
    return {
        "mixed-atoms": relabel(random_tabular_spec(MIXED_SEED)),
        "ncs-frozensets": random_ncs_spec(NCS_SEED),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_is_unchanged(name):
    assert game_hash(golden_specs()[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_survives_the_wire(name):
    wire = json.loads(json.dumps(spec_to_wire(golden_specs()[name])))
    assert game_hash(spec_from_wire(wire)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wire_decode_shares_atoms_without_merging_types(name):
    original = golden_specs()[name]
    spec = spec_from_wire(json.loads(json.dumps(spec_to_wire(original))))
    # ``repr`` tells 1, 1.0 and True (and 0.0 and -0.0) apart.
    assert sorted(map(repr, spec.costs)) == sorted(map(repr, original.costs))
    for part in (1, 2):
        keys = [key[part] for key in spec.costs]
        assert len({id(key) for key in keys}) == len({repr(key) for key in keys})
    atoms = [atom for key in spec.costs for atom in key[2]]
    assert len({id(atom) for atom in atoms}) == len({repr(atom) for atom in atoms})


def test_mixed_spec_really_mixes_equal_atoms():
    spec = golden_specs()["mixed-atoms"]
    assert spec.num_agents == 3
    labels = {repr(a) for space in spec.action_spaces for a in space}
    labels |= {repr(t) for space in spec.type_spaces for t in space}
    assert {"1", "1.0", "True", "(1, 2)", "(1.0, 2)", "(True, 2)"} <= labels
    assert {"(0.0, 1)", "(-0.0, True)"} <= labels


def test_ncs_spec_uses_frozenset_actions():
    spec = golden_specs()["ncs-frozensets"]
    assert all(
        isinstance(action, frozenset)
        for space in spec.action_spaces
        for action in space
    )
