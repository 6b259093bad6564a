"""Exact-value pins for the NCS best responses.

Every equilibrium check of the package rests on one shortest-path best
response under fair-share edge weights.  ``GOLDEN`` holds the ``repr``
of the answers (the action's edge order included) on seeded random
games in both orientations, captured before the three game classes
shared one implementation; a unit-weight ``WeightedNCSGame`` must also
match ``NCSGame`` bit for bit.
"""

import numpy as np
import pytest

from repro.graphs import random_connected_graph
from repro.ncs import NCSGame, WeightedNCSGame, uniform_bayesian_ncs
from repro.ncs.actions import EMPTY_ACTION, ActionCatalog

SEEDS = range(8)
AGENTS = 3


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _instance(seed, directed):
    """A seeded random graph, ``AGENTS`` pairs and a path profile.

    In a directed graph the last pair is drawn blind, so its target may
    be unreachable; that agent then holds the empty action.
    """
    rng = np.random.default_rng([seed, int(directed), 7])
    n = 6 + seed % 3
    graph = random_connected_graph(n, n, rng, directed=directed)
    nodes = sorted(graph.nodes)
    catalog = ActionCatalog(graph)
    pairs, actions = [], []
    for agent in range(AGENTS):
        source = _pick(rng, nodes)
        blind = directed and agent == AGENTS - 1
        target = _pick(rng, nodes if blind else sorted(graph.reachable(source)))
        pairs.append((source, target))
        reachable = graph.connects(source, target)
        paths = catalog.actions_for((source, target)) if reachable else [EMPTY_ACTION]
        actions.append(_pick(rng, paths))
    return graph, pairs, tuple(actions), rng


def _cases():
    for directed in (False, True):
        for seed in SEEDS:
            yield _instance(seed, directed)


def ncs_answers():
    answers = []
    for graph, pairs, actions, _ in _cases():
        game = NCSGame(graph, pairs)
        for agent in range(AGENTS):
            answers.append(game.best_response(agent, actions))
            answers.append(game.cost(agent, actions))
    return [repr(answer) for answer in answers]


def weighted_answers():
    answers = []
    for graph, pairs, actions, rng in _cases():
        weights = [float(rng.uniform(0.5, 3.0)) for _ in range(AGENTS)]
        game = WeightedNCSGame(graph, pairs, weights)
        for agent in range(AGENTS):
            answers.append(game.best_response(agent, actions))
            answers.append(game.cost(agent, actions))
        answers.append(game.best_response_dynamics(initial=actions))
    return [repr(answer) for answer in answers]


def interim_answers():
    answers = []
    for graph, pairs, _, rng in _cases():
        # Two scenarios: the drawn pairs (a cut-off one made trivial) and
        # their reversals where those connect.
        drawn = [(x, y) if graph.connects(x, y) else (x, x) for x, y in pairs]
        flipped = [(y, x) if graph.connects(y, x) else (x, y) for x, y in drawn]
        scenarios = [drawn, flipped]
        game = uniform_bayesian_ncs(graph, scenarios)
        core = game.game
        strategies = tuple(
            tuple(
                _pick(rng, core.feasible_actions(agent, ti))
                for ti in core.types(agent)
            )
            for agent in range(AGENTS)
        )
        for agent in range(AGENTS):
            for ti in game.prior.positive_types(agent):
                answers.append(game.interim_best_response(agent, ti, strategies))
    return [repr(answer) for answer in answers]


GOLDEN = {
    "NCSGame.best_response": [
        '(frozenset(), 0.0)',
        '0',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({10, 5}), 1.3031598272397766)',
        '5.230935560118616',
        '(frozenset({1, 2, 9}), 1.3311348273896377)',
        '1.58189407658514',
        '(frozenset({1, 2, 3}), 0.7525722498895291)',
        '2.3099206598935034',
        '(frozenset({1, 2, 3, 4}), 1.843026349034379)',
        '3.829473330730207',
        '(frozenset({3, 4}), 2.945464915245428)',
        '2.945464915245428',
        '(frozenset({11}), 0.8617310990028245)',
        '3.8388777659619833',
        '(frozenset({7}), 1.560724137958114)',
        '5.853074996015184',
        '(frozenset({2, 4}), 1.2357216681539118)',
        '1.5300494731152194',
        '(frozenset({1}), 1.1701750916414466)',
        '3.586737754017934',
        '(frozenset({2, 6, 7}), 2.0625098534845954)',
        '2.541117414093635',
        '(frozenset({0, 3}), 1.0887494843939594)',
        '4.368276268265675',
        '(frozenset({1, 3}), 1.0184275499211446)',
        '3.32824598189783',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({8, 5, 6}), 3.03076971768839)',
        '6.305739968733214',
        '(frozenset({0}), 0.9581991514308201)',
        '0.9581991514308201',
        '(frozenset({11, 5}), 1.0963060707558716)',
        '1.455490994705019',
        '(frozenset({0, 4}), 1.6216679935650506)',
        '2.903653654619739',
        '(frozenset({8, 0}), 1.6228991633752936)',
        '1.6228991633752936',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({8, 0, 2}), 1.8759957846393724)',
        '3.337585476959469',
        '(frozenset({10, 2, 5}), 1.4334548816102024)',
        '2.1314499928713717',
        '(frozenset({0, 2}), 1.3259781825841905)',
        '2.442399352217067',
        '(frozenset({6}), 0.7080510833146958)',
        '0.7080510833146958',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset(), inf)',
        'inf',
        '(frozenset({4}), 0.3066000570867872)',
        '0.3066000570867872',
        '(frozenset({4}), 0.3066000570867872)',
        '0.3066000570867872',
        '(frozenset(), inf)',
        'inf',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({4, 5}), 2.6401693880458414)',
        '2.6401693880458414',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({3}), 1.453438431174023)',
        '1.453438431174023',
        '(frozenset({6}), 1.1835099822825463)',
        '1.1835099822825463',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({4, 5}), 2.952606903903051)',
        '3.6058111240389437',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({12, 4, 13}), 1.9918037457535411)',
        '2.3295183617239745',
        '(frozenset({0, 1, 12}), 3.000495598128876)',
        '5.287018814314612',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({2}), 0.48336464818734204)',
        '2.3232838841642636',
        '(frozenset({5}), 1.4558302710757862)',
        '4.660411893810554',
        '(frozenset({0, 2}), 2.8938580853017637)',
        '2.8938580853017637',
        '(frozenset({2, 6}), 2.4558215469973925)',
        '2.5529384311549763',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({4, 6}), 0.722603805861613)',
        '0.722603805861613',
    ],
    "WeightedNCSGame.best_response": [
        '(frozenset(), 0.0)',
        '0',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({10, 5}), 1.3031598272397766)',
        '5.230935560118616',
        '(frozenset(), frozenset(), frozenset({10, 5}))',
        '(frozenset({1, 2, 9}), 2.0002821987874855)',
        '2.01244751132484',
        '(frozenset({1, 2, 3}), 0.73908953349119)',
        '2.3466295361348646',
        '(frozenset({1, 2, 3, 4}), 1.4401627589656636)',
        '3.3622110197491457',
        '(frozenset({1, 2, 3, 7}), frozenset({1, 2, 3}), frozenset({1, 2, 3, 4}))',
        '(frozenset({3, 4}), 2.945464915245428)',
        '2.945464915245428',
        '(frozenset({11}), 0.880441264438046)',
        '3.8682160150521296',
        '(frozenset({7}), 1.560724137958114)',
        '5.823736746925039',
        '(frozenset({3, 4}), frozenset({11}), frozenset({7}))',
        '(frozenset({2, 4}), 1.440185195038536)',
        '1.5300494731152194',
        '(frozenset({1}), 1.1701750916414466)',
        '3.5867377540179337',
        '(frozenset({2, 6, 7}), 1.3100658956970872)',
        '2.541117414093635',
        '(frozenset({2, 4}), frozenset({1}), frozenset({1, 2, 5}))',
        '(frozenset({0, 3}), 0.9304721727991838)',
        '3.911979308015626',
        '(frozenset({1, 3}), 1.3069350811228437)',
        '3.78454294214788',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({0, 3}), frozenset({1, 3}), frozenset())',
        '(frozenset({8, 5, 6}), 2.572433952448056)',
        '5.359726518213288',
        '(frozenset({9}), 1.0366099713043488)',
        '1.4458768367104127',
        '(frozenset({11, 5}), 1.7241140929974468)',
        '1.9138267599453527',
        '(frozenset({8, 5, 6}), frozenset({9}), frozenset({11, 5}))',
        '(frozenset({0, 4}), 1.309442143342422)',
        '2.59142780439711',
        '(frozenset({2}), 1.7410874966214909)',
        '1.935125013597922',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({6}), frozenset({2}), frozenset())',
        '(frozenset({8, 0, 2}), 2.0561656011262706)',
        '3.883140269468913',
        '(frozenset({10, 2, 5}), 0.8044247774870075)',
        '1.2140312765341543',
        '(frozenset({0, 2}), 1.4458288899083187)',
        '2.8142632760448407',
        '(frozenset({8, 0, 2}), frozenset({0, 2, 7}), frozenset({0, 2}))',
        '(frozenset({6}), 0.7080510833146957)',
        '0.7080510833146957',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset(), inf)',
        'inf',
        '(frozenset({6}), frozenset(), frozenset())',
        '(frozenset({4}), 0.2729529520815505)',
        '0.2729529520815505',
        '(frozenset({4}), 0.34024716209202394)',
        '0.34024716209202394',
        '(frozenset(), inf)',
        'inf',
        '(frozenset({4}), frozenset({4}), frozenset())',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({4, 5}), 2.6401693880458414)',
        '2.6401693880458414',
        '(frozenset(), frozenset(), frozenset({4, 5}))',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({3}), 1.453438431174023)',
        '1.453438431174023',
        '(frozenset({6}), 1.1835099822825463)',
        '1.1835099822825463',
        '(frozenset(), frozenset({3}), frozenset({6}))',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({4, 5}), 2.9526069039030514)',
        '3.6058111240389437',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset(), frozenset({4, 5}), frozenset())',
        '(frozenset({12, 4, 13}), 1.54563543754796)',
        '2.2500237203077327',
        '(frozenset({0, 1, 12}), 3.301151471850841)',
        '5.366513455730854',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({0, 12}), frozenset({0, 1, 12}), frozenset())',
        '(frozenset({2}), 0.154315367980895)',
        '2.043264128657548',
        '(frozenset({5}), 1.4558302710757862)',
        '4.9404316493172695',
        '(frozenset({0, 2}), 2.8938580853017637)',
        '2.8938580853017637',
        '(frozenset({2}), frozenset({5}), frozenset({0, 2}))',
        '(frozenset({2, 6}), 2.42899993362217)',
        '2.5116922026908846',
        '(frozenset(), 0.0)',
        '0',
        '(frozenset({4, 6}), 0.7638500343257048)',
        '0.7638500343257048',
        '(frozenset({2, 6}), frozenset(), frozenset({4, 6}))',
    ],
    "BayesianNCSGame.interim_best_response": [
        '(frozenset(), 0.0)',
        '(frozenset(), 0.0)',
        '(frozenset({10, 5}), 1.3031598272397766)',
        '(frozenset({10, 5}), 1.3031598272397766)',
        '(frozenset({1, 2, 9}), 1.0205551559901835)',
        '(frozenset({0, 2}), 0.8438684496907127)',
        '(frozenset({1, 2, 3}), 0.7525722498895291)',
        '(frozenset({1, 2, 3}), 1.2032068341279463)',
        '(frozenset({1, 2, 3, 4}), 1.843026349034379)',
        '(frozenset({1, 2, 3, 4}), 2.293660933272796)',
        '(frozenset({3, 4}), 2.945464915245428)',
        '(frozenset({3, 4}), 2.3050361246180704)',
        '(frozenset({11}), 0.8617310990028245)',
        '(frozenset({11}), 0.8617310990028245)',
        '(frozenset({7}), 1.560724137958114)',
        '(frozenset({7}), 0.780362068979057)',
        '(frozenset({2, 4}), 1.2357216681539118)',
        '(frozenset({2, 4}), 1.2357216681539118)',
        '(frozenset({1}), 1.1701750916414466)',
        '(frozenset({1}), 1.1701750916414466)',
        '(frozenset({2, 6, 7}), 1.7116014534047845)',
        '(frozenset({2, 6, 7}), 2.0625098534845954)',
        '(frozenset({0, 3}), 1.0887494843939594)',
        '(frozenset({9}), 0.7272539666417435)',
        '(frozenset({1, 3}), 1.5040371951503353)',
        '(frozenset({1, 3}), 1.0184275499211446)',
        '(frozenset(), 0.0)',
        '(frozenset({8, 5, 6}), 2.4932084883542442)',
        '(frozenset({8, 5, 6}), 2.4932084883542442)',
        '(frozenset({9}), 0.3455366571014496)',
        '(frozenset({0}), 0.9581991514308201)',
        '(frozenset({2, 5}), 1.1279285661220315)',
        '(frozenset({2, 5}), 1.1279285661220315)',
        '(frozenset({0, 4}), 1.6216679935650506)',
        '(frozenset({6}), 0.8497708976386721)',
        '(frozenset({2}), 1.7410874966214909)',
        '(frozenset({2}), 1.7410874966214909)',
        '(frozenset(), 0.0)',
        '(frozenset({8, 0, 2}), 1.5329315747840737)',
        '(frozenset({0, 8, 2}), 1.8759957846393722)',
        '(frozenset({0, 2, 7}), 1.496549567745133)',
        '(frozenset({2, 10, 5}), 1.2683519230799947)',
        '(frozenset({0, 2}), 0.8685592361104589)',
        '(frozenset({0, 2}), 1.3259781825841905)',
        '(frozenset({6}), 0.7080510833146958)',
        '(frozenset(), 0.0)',
        '(frozenset(), 0.0)',
        '(frozenset({4}), 0.3066000570867872)',
        '(frozenset({4}), 0.3066000570867872)',
        '(frozenset(), 0.0)',
        '(frozenset(), 0.0)',
        '(frozenset(), 0.0)',
        '(frozenset({4, 5}), 2.6401693880458414)',
        '(frozenset(), 0.0)',
        '(frozenset({3}), 1.453438431174023)',
        '(frozenset({6}), 1.1835099822825463)',
        '(frozenset({4}), 0.9524913023278048)',
        '(frozenset(), 0.0)',
        '(frozenset({4, 5}), 2.952606903903051)',
        '(frozenset(), 0.0)',
        '(frozenset({12, 4, 13}), 1.9918037457535411)',
        '(frozenset({5}), 1.40915123430982)',
        '(frozenset({0, 1, 12}), 3.671596037636429)',
        '(frozenset(), 0.0)',
        '(frozenset({2}), 0.9667292963746841)',
        '(frozenset({9, 3, 6}), 1.8537394077235765)',
        '(frozenset({5}), 1.4558302710757862)',
        '(frozenset({10}), 1.370350805800862)',
        '(frozenset({0, 2}), 2.4104934371144213)',
        '(frozenset({8, 9, 3, 6}), 3.342147553691148)',
        '(frozenset({2, 6}), 2.4558215469973925)',
        '(frozenset({3}), 0.2986232267105317)',
        '(frozenset(), 0.0)',
        '(frozenset({4, 6}), 0.722603805861613)',
        '(frozenset({3, 7}), 2.128957852003895)',
    ],
}

COMPUTE = {
    "NCSGame.best_response": ncs_answers,
    "WeightedNCSGame.best_response": weighted_answers,
    "BayesianNCSGame.interim_best_response": interim_answers,
}


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_best_response_answers_are_pinned(method):
    assert COMPUTE[method]() == GOLDEN[method]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_unit_weights_match_ncs_bit_for_bit(seed, directed):
    graph, pairs, actions, _ = _instance(seed, directed)
    plain = NCSGame(graph, pairs)
    unit = WeightedNCSGame(graph, pairs, [1.0] * AGENTS)
    for agent in range(AGENTS):
        assert repr(unit.cost(agent, actions)) == repr(plain.cost(agent, actions))
        assert repr(unit.best_response(agent, actions)) == repr(
            plain.best_response(agent, actions)
        )
    assert repr(unit.social_cost(actions)) == repr(plain.social_cost(actions))
    assert unit.is_nash_equilibrium(actions) == plain.is_nash_equilibrium(actions)
    assert repr(unit.best_response_dynamics(initial=actions)) == repr(
        plain.best_response_dynamics(initial=actions)
    )
