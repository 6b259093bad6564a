"""Wire codec: explicit tabular game specs, JSON round-trips, hashing.

The service speaks one canonical game representation:
:class:`TabularGameSpec` — a fully explicit finite Bayesian game (action
and type spaces, prior support, per-type feasible-action lists, a dense
cost table).  It is the *same* spec form the cross-engine fuzz
generators build (``tests/engine_fuzz/fuzz_games.py`` imports it from
here), so every game the differential harness can produce is directly
servable and vice versa.  Any small core game — including a tabulated
:class:`~repro.ncs.bayesian.BayesianNCSGame` — freezes into a spec via
:func:`tabularize`.

Three layers:

* **Value codec** (:func:`encode_value` / :func:`decode_value`): the
  hashable atoms games are made of — ``None``, ``bool``, ``int``,
  ``str``, finite ``float`` (plain JSON numbers; Python's shortest-repr
  float serialization round-trips bit-exactly), non-finite floats,
  tuples, and frozensets — as tagged JSON.  Frozensets serialize in a
  canonical element order so equal values encode identically.
* **Spec codec** (:func:`spec_to_wire` / :func:`spec_from_wire`):
  the whole game.  Orders that carry semantics (prior support, action
  and type spaces, feasible lists — enumeration fold order depends on
  them, and bit-identical results depend on fold order) are preserved
  verbatim; orders that do not (the ``feasible`` and ``costs`` lookup
  tables) are canonically sorted, so harmless permutations of the same
  game produce the same wire form.
* **Result codec** (:func:`encode_result` / :func:`decode_result`): a
  superset of the value codec for query answers — lists (equilibrium
  sets), dicts, and :class:`~repro.core.measures.IgnoranceReport`.

:func:`game_hash` is SHA-256 over the canonical wire JSON — the
process-wide session key used by :mod:`repro.service.registry` and in
every ``/v1/games/<hash>/...`` URL.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, Hashable, List, Tuple

from ..core.game import BayesianGame
from ..core.prior import CommonPrior

#: Version tag on every serialized game; bump on incompatible changes.
WIRE_FORMAT = "repro.tabular-game/1"

Profile = Tuple[Hashable, ...]
CostKey = Tuple[int, Profile, Tuple[Hashable, ...]]


class CodecError(ValueError):
    """A payload that cannot be encoded or decoded."""


# ----------------------------------------------------------------------
# the explicit game spec
# ----------------------------------------------------------------------

@dataclass
class TabularGameSpec:
    """A fully explicit finite Bayesian game, ready to (re)build."""

    action_spaces: List[List[Hashable]]
    type_spaces: List[List[Hashable]]
    support: List[Tuple[Profile, float]]
    feasible: Dict[Tuple[int, Hashable], List[Hashable]]
    costs: Dict[CostKey, float]
    name: str = "fuzz"
    meta: str = field(default="")

    @property
    def num_agents(self) -> int:
        return len(self.action_spaces)

    def build(self) -> BayesianGame:
        prior = CommonPrior(dict(self.support))
        costs = self.costs

        def cost_fn(agent: int, profile: Profile, actions) -> float:
            return costs[(agent, tuple(profile), tuple(actions))]

        feasible = self.feasible

        def feasible_fn(agent: int, ti: Hashable):
            return feasible[(agent, ti)]

        return BayesianGame(
            [list(space) for space in self.action_spaces],
            [list(space) for space in self.type_spaces],
            prior,
            cost_fn,
            feasible_fn=feasible_fn,
            name=self.name,
        )

    def describe(self) -> str:
        """A self-contained, eyeball-able dump of the game."""
        lines = [f"TabularGameSpec {self.name!r} (k={self.num_agents})"]
        if self.meta:
            lines.append(f"  origin:   {self.meta}")
        lines.append(f"  actions:  {self.action_spaces}")
        lines.append(f"  types:    {self.type_spaces}")
        lines.append("  prior:")
        for profile, prob in self.support:
            lines.append(f"    p{profile!r} = {prob!r}")
        lines.append("  feasible:")
        for (agent, ti), actions in sorted(
            self.feasible.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            lines.append(f"    agent {agent}, type {ti!r}: {actions!r}")
        lines.append("  costs (agent, state, actions) -> cost:")
        for (agent, profile, actions), value in sorted(
            self.costs.items(), key=repr
        ):
            lines.append(f"    ({agent}, {profile!r}, {actions!r}) = {value!r}")
        return "\n".join(lines)


def tabularize(game: BayesianGame, name: str = "", meta: str = "") -> TabularGameSpec:
    """Freeze any (small) core game into an explicit cost table.

    Tabulates exactly the cells the reference enumeration can touch: for
    every support state, the product of the agents' feasible-action
    lists.  Cost floats are copied verbatim, so the tabular rebuild is
    cost-for-cost identical to the original.
    """
    k = game.num_agents
    support = [(tuple(profile), prob) for profile, prob in game.prior.support()]
    feasible: Dict[Tuple[int, Hashable], List[Hashable]] = {}
    for agent in range(k):
        for ti in game.types(agent):
            feasible[(agent, ti)] = list(game.feasible_actions(agent, ti))
    costs: Dict[CostKey, float] = {}
    for profile, _ in support:
        spaces = [feasible[(agent, profile[agent])] for agent in range(k)]
        for actions in product(*spaces):
            for agent in range(k):
                costs[(agent, profile, actions)] = game.cost(agent, profile, actions)
    return TabularGameSpec(
        action_spaces=[game.actions(agent) for agent in range(k)],
        type_spaces=[game.types(agent) for agent in range(k)],
        support=support,
        feasible=feasible,
        costs=costs,
        name=name or game.name or "tabularized",
        meta=meta,
    )


# ----------------------------------------------------------------------
# value codec
# ----------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """One hashable game atom → JSON-safe form (tagged where needed)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {"t": "float", "v": repr(value)}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=canonical_json)
        return {"t": "frozenset", "v": encoded}
    raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, dict):
        tag = payload.get("t")
        items = payload.get("v")
        if tag not in ("float", "tuple", "frozenset"):
            raise CodecError(f"unknown value tag {tag!r}")
        if tag == "float" and isinstance(items, str):
            try:
                return float(items)
            except ValueError:
                pass
        if tag != "float" and isinstance(items, list):
            values = map(decode_value, items)
            return tuple(values) if tag == "tuple" else frozenset(values)
        raise CodecError(f"malformed {tag} value: {items!r}")
    raise CodecError(f"cannot decode payload of type {type(payload).__name__}")


def canonical_json(payload: Any) -> str:
    """The one canonical text form of a JSON-safe payload (hash input)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


# ----------------------------------------------------------------------
# spec codec
# ----------------------------------------------------------------------

def _memo_key(value: Hashable) -> Hashable:
    """A dict key exactly as fine as the encoding of ``value``.

    Python calls ``1``, ``1.0`` and ``True`` equal (and ``0.0`` and
    ``-0.0``), but the wire does not, so every atom — nested ones
    included — is keyed by its type, and floats by their ``repr``.
    """
    kind = type(value)
    if isinstance(value, tuple):
        return kind, tuple(map(_memo_key, value))
    if isinstance(value, frozenset):
        return kind, frozenset(map(_memo_key, value))
    if isinstance(value, float):
        return kind, repr(value)
    return kind, value


def spec_to_wire(spec: TabularGameSpec) -> Dict[str, Any]:
    """The spec as a JSON-safe dict (see module docstring for ordering).

    Cost keys repeat the same few types and actions thousands of times,
    so each distinct atom is encoded (and its canonical text rendered,
    for the sort keys) once per call.  Specs usually share one object
    per atom and per state tuple (:func:`tabularize` and
    :func:`spec_from_wire` both do), so a lookup by identity comes
    first; every object looked up is reachable from ``spec``, so its
    ``id`` stays unique for the whole call.
    """
    memo: Dict[Hashable, Tuple[Any, str]] = {}
    by_id: Dict[int, Tuple[Any, str]] = {}
    lists_by_id: Dict[int, Tuple[List[Any], str]] = {}

    def atom(value: Hashable) -> Tuple[Any, str]:
        hit = by_id.get(id(value))
        if hit is None:
            key = _memo_key(value)
            hit = memo.get(key)
            if hit is None:
                encoded = encode_value(value)
                hit = memo[key] = (encoded, canonical_json(encoded))
            by_id[id(value)] = hit
        return hit

    def listed(values) -> Tuple[List[Any], str]:
        hit = lists_by_id.get(id(values))
        if hit is None:
            atoms = [atom(value) for value in values]
            hit = lists_by_id[id(values)] = (
                [encoded for encoded, _ in atoms],
                "[" + ",".join(text for _, text in atoms) + "]",
            )
        return list(hit[0]), hit[1]

    feasible = []
    for (agent, ti), actions in spec.feasible.items():
        encoded, text = atom(ti)
        feasible.append(
            (
                (agent, text),
                {
                    "agent": agent,
                    "type": encoded,
                    "actions": [encode_value(action) for action in actions],
                },
            )
        )
    feasible.sort(key=lambda pair: pair[0])
    costs = []
    for (agent, profile, actions), value in spec.costs.items():
        state, state_text = listed(profile)
        chosen, chosen_text = listed(actions)
        costs.append(
            (
                (agent, state_text, chosen_text),
                {
                    "agent": agent,
                    "state": state,
                    "actions": chosen,
                    "cost": encode_value(value),
                },
            )
        )
    costs.sort(key=lambda pair: pair[0])
    return {
        "format": WIRE_FORMAT,
        "name": spec.name,
        "meta": spec.meta,
        "action_spaces": [
            [encode_value(action) for action in space]
            for space in spec.action_spaces
        ],
        "type_spaces": [
            [encode_value(ti) for ti in space] for space in spec.type_spaces
        ],
        "support": [
            {
                "profile": [encode_value(ti) for ti in profile],
                "prob": encode_value(prob),
            }
            for profile, prob in spec.support
        ],
        "feasible": [entry for _, entry in feasible],
        "costs": [entry for _, entry in costs],
    }


def spec_from_wire(payload: Dict[str, Any]) -> TabularGameSpec:
    """Rebuild a :class:`TabularGameSpec` from its wire dict.

    Each distinct atom and key tuple is decoded once per call and then
    shared, keyed by the ``repr`` of its payload: payloads are parsed
    JSON, whose ``repr`` tells ``1``, ``1.0``, ``True``, ``0.0`` and
    ``-0.0`` apart, so equal keys decode to equal values.
    """
    if not isinstance(payload, dict):
        raise CodecError("game payload must be a JSON object")
    declared = payload.get("format")
    if declared != WIRE_FORMAT:
        raise CodecError(
            f"unsupported game format {declared!r}; expected {WIRE_FORMAT!r}"
        )
    atoms: Dict[str, Any] = {}
    tuples: Dict[str, Tuple[Any, ...]] = {}

    def atom(item: Any) -> Any:
        key = repr(item)
        if key not in atoms:
            value = decode_value(item)
            if _holds_nan(value):
                raise CodecError(f"an action or type must not hold NaN: got {item!r}")
            atoms[key] = value
        return atoms[key]

    def atom_tuple(items: Any) -> Tuple[Any, ...]:
        key = repr(items)
        if key not in tuples:
            tuples[key] = tuple(atom(item) for item in items)
        return tuples[key]

    def agent_of(entry: Dict[str, Any]) -> int:
        # A JSON bool is a Python int, and True == 1 as a dict key.
        agent = entry["agent"]
        if type(agent) is not int or not 0 <= agent < k:
            raise CodecError(
                f"agent must be an integer from 0 to {k - 1}: got {agent!r}"
            )
        return agent

    def keyed(entries, kind: str, key_of, value_of) -> Dict[Any, Any]:
        table: Dict[Any, Any] = {}
        for entry in entries:
            key = key_of(entry)
            if key in table:
                raise CodecError(f"a {kind} key is listed twice: {key!r}")
            table[key] = value_of(entry)
        return table

    try:
        action_spaces = [
            [atom(action) for action in space]
            for space in payload["action_spaces"]
        ]
        k = len(action_spaces)
        type_spaces = [
            [atom(ti) for ti in space] for space in payload["type_spaces"]
        ]
        support = [
            (atom_tuple(entry["profile"]), decode_value(entry["prob"]))
            for entry in payload["support"]
        ]
        feasible = keyed(
            payload["feasible"],
            "feasible",
            lambda entry: (agent_of(entry), atom(entry["type"])),
            lambda entry: [atom(action) for action in entry["actions"]],
        )
        costs = keyed(
            payload["costs"],
            "cost",
            lambda entry: (
                agent_of(entry),
                atom_tuple(entry["state"]),
                atom_tuple(entry["actions"]),
            ),
            lambda entry: decode_value(entry["cost"]),
        )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed game payload: {error!r}") from None
    spec = TabularGameSpec(
        action_spaces=action_spaces,
        type_spaces=type_spaces,
        support=support,
        feasible=feasible,
        costs=costs,
        name=payload.get("name", ""),
        meta=payload.get("meta", ""),
    )
    _check_spec(spec)
    return spec


def _holds_nan(value: Any) -> bool:
    """Whether ``value`` is NaN or holds one, however deeply nested.  NaN
    equals nothing, not even itself, so a lookup finds such an atom only
    by identity, and the engines then disagree on the game."""
    if isinstance(value, float):
        return value != value
    if isinstance(value, (tuple, frozenset)):
        return any(map(_holds_nan, value))
    return False


def _check_spec(spec: TabularGameSpec) -> None:
    """Refuse a game the engines cannot build or evaluate (the list is in
    ``docs/SERVICE.md``).  A ``bool`` is not a number; a zero
    probability passes (the prior drops it); every type of every agent
    needs feasible actions, since a strategy picks one at each type."""
    k = spec.num_agents
    states = [state for state, _ in spec.support]
    for state, prob in spec.support:
        if len(state) != k:
            raise CodecError(f"support state {state!r} needs one type per agent ({k})")
        if type(prob) not in (int, float) or not 0 <= prob < math.inf:
            raise CodecError(
                f"probability of support state {state!r} must be a finite, "
                f"non-negative number: got {prob!r}"
            )
    if len(set(states)) < len(states):
        raise CodecError("a support state is listed twice")
    for agent, space in enumerate(spec.type_spaces):
        for ti in space:
            if not spec.feasible.get((agent, ti)):
                raise CodecError(
                    f"missing feasible actions of agent {agent} for type {ti!r}"
                )
    try:
        spec.build()
    except ValueError as error:
        raise CodecError(f"unusable game: {error}") from None
    for (agent, state, actions), cost in spec.costs.items():
        # A -inf cost meets +inf in the folds, and inf + -inf is NaN.
        if type(cost) not in (int, float) or cost != cost or cost == -math.inf:
            raise CodecError(
                f"cost of agent {agent!r} at state {state!r}, actions "
                f"{actions!r} must be a number, not NaN or -inf: got {cost!r}"
            )
    for state in states:
        spaces = [spec.feasible[(agent, ti)] for agent, ti in enumerate(state)]
        for actions in product(*spaces):
            for agent in range(k):
                if (agent, state, actions) not in spec.costs:
                    raise CodecError(
                        f"missing cost of agent {agent} at state {state!r}, "
                        f"actions {actions!r}"
                    )


def game_hash(spec: TabularGameSpec) -> str:
    """SHA-256 (hex) of the canonical wire form — the session key."""
    return hashlib.sha256(
        canonical_json(spec_to_wire(spec)).encode("utf-8")
    ).hexdigest()


def coerce_spec(game: Any) -> TabularGameSpec:
    """Anything game-shaped → a spec: specs pass through, wrapped games
    (``.game``, e.g. :class:`~repro.ncs.bayesian.BayesianNCSGame`) unwrap,
    core games tabularize."""
    if isinstance(game, TabularGameSpec):
        return game
    if isinstance(game, BayesianGame):
        return tabularize(game)
    inner = getattr(game, "game", None)
    if isinstance(inner, BayesianGame):
        return tabularize(inner, name=getattr(game, "name", "") or inner.name)
    raise CodecError(
        f"cannot build a game spec from {type(game).__name__}; expected a "
        f"TabularGameSpec, BayesianGame, or a wrapper with a .game attribute"
    )


# ----------------------------------------------------------------------
# result codec
# ----------------------------------------------------------------------

def encode_result(value: Any) -> Any:
    """A query answer → JSON-safe form (superset of the value codec)."""
    from ..core.measures import IgnoranceReport

    if isinstance(value, IgnoranceReport):
        return {
            "t": "ignorance_report",
            "v": {
                "opt_p": encode_value(value.opt_p),
                "best_eq_p": encode_value(value.best_eq_p),
                "worst_eq_p": encode_value(value.worst_eq_p),
                "opt_c": encode_value(value.opt_c),
                "best_eq_c": encode_value(value.best_eq_c),
                "worst_eq_c": encode_value(value.worst_eq_c),
                "name": value.name,
            },
        }
    if isinstance(value, list):
        return {"t": "list", "v": [encode_result(item) for item in value]}
    if isinstance(value, dict):
        return {
            "t": "dict",
            "v": [
                [encode_value(key), encode_result(item)]
                for key, item in value.items()
            ],
        }
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [encode_result(item) for item in value]}
    return encode_value(value)


def decode_result(payload: Any) -> Any:
    """Inverse of :func:`encode_result`."""
    from ..core.measures import IgnoranceReport

    if isinstance(payload, dict):
        tag = payload.get("t")
        items = payload.get("v")
        if tag == "ignorance_report":
            return IgnoranceReport(
                opt_p=decode_value(items["opt_p"]),
                best_eq_p=decode_value(items["best_eq_p"]),
                worst_eq_p=decode_value(items["worst_eq_p"]),
                opt_c=decode_value(items["opt_c"]),
                best_eq_c=decode_value(items["best_eq_c"]),
                worst_eq_c=decode_value(items["worst_eq_c"]),
                name=items.get("name", ""),
            )
        if tag == "list":
            return [decode_result(item) for item in items]
        if tag == "dict":
            return {
                decode_value(key): decode_result(item) for key, item in items
            }
        if tag == "tuple":
            return tuple(decode_result(item) for item in items)
    return decode_value(payload)
