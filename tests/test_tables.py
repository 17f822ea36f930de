"""The vectorised table layer against the plain loops in oracles.py.

Every report line (ok, witness, detail), every constructor exception and
every esn_back table must equal what the loops give: on the zoo, on I3, on
seeded relabellings, on seeded corruptions of a table, an inverse, an order
entry or a composite, and on random inverse subsemigroups of I_n.
"""

import copy
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from invhol import core
from invhol.core import NaturalOrder, build_from_table, verify_semigroup_properties
from invhol.groupoid import OrderedGroupoid, esn_back, esn_forward, verify_ordered_groupoid

import oracles


def outcome(fn, *args):
    """What fn(*args) returned, or the type and text of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # every exception is part of the compared outcome
        return type(exc).__name__, str(exc)


def lines(rep):
    return [rep.title] + [(c.name, c.ok, c.witness, c.detail) for c in rep.checks]


def derived(S):
    return {"inv": S.inv, "idempotents": S.idempotents, "identity": S.identity, "zero": S.zero}


def table_of(T):
    return T.names, T.mul


def assert_semigroup_layer_agrees(S):
    assert outcome(lambda: NaturalOrder(S).table) == outcome(
        oracles.natural_order_by_loops, S)
    assert outcome(lambda: lines(verify_semigroup_properties(S))) == outcome(
        lambda: lines(oracles.semigroup_properties_by_loops(S)))


def assert_groupoid_layer_agrees(G):
    assert outcome(lambda: lines(verify_ordered_groupoid(G))) == outcome(
        lambda: lines(oracles.ordered_groupoid_axioms_by_loops(G)))
    assert outcome(lambda: table_of(esn_back(G))) == outcome(
        lambda: table_of(oracles.esn_back_by_loops(G)))


def assert_layers_agree(S):
    assert derived(S) == oracles.inverse_semigroup_scans(S.names, S.mul)
    assert_semigroup_layer_agrees(S)
    G = esn_forward(S)
    assert_groupoid_layer_agrees(G)
    assert table_of(esn_back(G)) == table_of(S)


def structures(zoo):
    """The zoo and I3, each also under two seeded relabellings."""
    base = dict(zoo, I3=core.build_symmetric_inverse_monoid(3))
    out = {}
    for name, S in base.items():
        out[name] = S
        for seed, T in enumerate(oracles.seeded_relabellings(S, name, 2), 1):
            out[f"{name}/{seed}"] = T
    return out


@pytest.fixture(scope="module")
def all_structures(zoo):
    return structures(zoo)


def test_layers_agree_with_loops(all_structures):
    for S in all_structures.values():
        assert_layers_agree(S)


def test_constructor_agrees_on_corrupted_tables(all_structures):
    rejected = 0
    for name, S in all_structures.items():
        rng = random.Random(name)
        for _ in range(4):
            mul = [row[:] for row in S.mul]
            mul[rng.randrange(S.size)][rng.randrange(S.size)] = rng.randrange(S.size)
            got = outcome(lambda: derived(build_from_table(S.names, mul)))
            assert got == outcome(oracles.inverse_semigroup_scans, S.names, mul), name
            rejected += got[0] != "returned"
    assert rejected > 100


def _with(S, mul=None, inv=None, order=None):
    """A copy of S with its table, inverses or natural order replaced, the
    constructor's checks skipped: the input for the report's failure paths."""
    T = copy.copy(S)
    T._order = None
    if mul is not None:
        T.mul, T.mul_array = mul, np.array(mul, np.intp)
    if inv is not None:
        T.inv, T.inv_array = inv, np.array(inv, np.intp)
    if order is not None:
        T._order = copy.copy(S.natural_order())
        T._order.table, T._order.array = order, np.array(order, bool)
    return T


def test_semigroup_reports_agree_on_corruptions(all_structures):
    failing = set()
    for name, S in all_structures.items():
        rng = random.Random(name)
        n = S.size
        for _ in range(3):
            mul = [row[:] for row in S.mul]
            mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            inv = S.inv[:]
            inv[rng.randrange(n)] = rng.randrange(n)
            order = [row[:] for row in S.natural_order().table]
            a, b = rng.randrange(n), rng.randrange(n)
            order[a][b] = not order[a][b]
            # with the order given, a wrong inverse fails only the diagnostics
            kept = S.natural_order().table
            for T in (_with(S, mul=mul), _with(S, inv=inv), _with(S, order=order),
                      _with(S, inv=inv, order=kept)):
                assert_semigroup_layer_agrees(T)
                rep = outcome(verify_semigroup_properties, T)
                if rep[0] != "returned":
                    failing.add(rep[0])
                else:
                    failing.update(c.name for c in rep[1].failures())
    # every line and the uncaught order failure are reached
    assert failing >= {
        "AssertionError", "regularity_and_involution", "order_characterisations_agree",
        "order_compatible_with_inversion", "elements_below_their_squares_are_idempotent",
        "order_compatible_with_multiplication", "idempotent_meets",
    }


def _groupoid(G, compose=None, leq=None, inv=None):
    return OrderedGroupoid(
        G.dom, G.ran, G.inv if inv is None else inv,
        G.compose if compose is None else compose,
        G.leq if leq is None else leq, names=G.names,
    )


def test_groupoid_layer_agrees_on_corruptions(all_structures):
    failing = set()
    for name, S in all_structures.items():
        G = esn_forward(S)
        rng = random.Random(name)
        for _ in range(3):
            leq = [row[:] for row in G.leq]
            a, b = rng.randrange(G.n), rng.randrange(G.n)
            leq[a][b] = not leq[a][b]
            changed, dropped = dict(G.compose), dict(G.compose)
            changed[rng.choice(sorted(changed))] = rng.randrange(G.n)
            del dropped[rng.choice(sorted(dropped))]
            # two arrows exchange inverses; the inversion stays an involution
            inv = G.inv[:]
            a, b = rng.randrange(G.n), rng.randrange(G.n)
            inv[a], inv[G.inv[b]], inv[b], inv[G.inv[a]] = G.inv[b], a, G.inv[a], b
            for H in (_groupoid(G, leq=leq), _groupoid(G, compose=changed),
                      _groupoid(G, compose=dropped), _groupoid(G, inv=inv)):
                assert_groupoid_layer_agrees(H)
                rep = outcome(verify_ordered_groupoid, H)
                if rep[0] != "returned":
                    failing.add(rep[0])
                else:
                    failing.update(c.name for c in rep[1].failures())
                failing.add("esn_back " + outcome(esn_back, H)[0])
    assert failing >= {
        "endpoints_and_inverses", "composition_domain", "identity_and_inverse_laws",
        "associativity",
        "partial_order", "OG1_inversion_ordered", "OG2_composition_ordered",
        "OG3_unique_restriction", "identities_downward_closed",
        "esn_back returned", "esn_back NotBelowDomain", "esn_back NotInductive",
        "esn_back KeyError", "esn_back ValueError",
    }


def test_idempotent_meets_under_a_cyclic_order():
    """With e0 <= e1 and e1 <= e0, e0 e1 = e0 and e1 e0 = e1 are both glbs,
    so only the row sweep for commuting and associating products can see
    that the idempotents do not commute."""
    S = build_from_table(["e0", "e1"], [[0, 1], [1, 1]])
    T = _with(S, mul=[[0, 0], [1, 1]], order=[[True, True], [True, True]])
    assert_semigroup_layer_agrees(T)
    line = verify_semigroup_properties(T).checks[-1]
    assert (line.name, line.witness) == ("idempotent_meets", "(0,1) do not commute")


def test_groupoid_without_identities():
    # one arrow, its own inverse, composing to nothing: no identity, no meet
    G = OrderedGroupoid([0], [0], [0], {}, [[True]])
    assert_groupoid_layer_agrees(G)
    assert not verify_ordered_groupoid(G).ok


def test_empty_groupoid_passes_the_axioms():
    G = OrderedGroupoid([], [], [], {}, [])
    assert_groupoid_layer_agrees(G)
    assert verify_ordered_groupoid(G).ok


@pytest.mark.parametrize("field,value,message", [
    ("dom", [0, 2], "endpoint 2 out of range"),
    ("inv", [-1, 1], "inverse -1 out of range"),
    ("compose", {(0, 0): 0, (1, 5): 1}, "composable arrow 5 out of range"),
    ("compose", {(0, 0): 7}, "composite 7 out of range"),
])
def test_groupoid_rejects_indices_out_of_range(field, value, message):
    data = {"dom": [0, 1], "ran": [0, 1], "inv": [0, 1], "compose": {}, "leq": [[1, 0], [0, 1]]}
    data[field] = value
    with pytest.raises(ValueError, match=message):
        OrderedGroupoid(**data)


def test_empty_table_is_rejected():
    with pytest.raises(ValueError, match="multiplication table is empty"):
        build_from_table([], [])


# random inverse subsemigroups of I_n, n <= 4, from a few partial bijections


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(oracles.inverse_subsemigroups())
def test_layers_agree_on_random_inverse_subsemigroups(S):
    assert S.size <= 20
    assert_layers_agree(S)


# guards on the representation and the memory of the table layer


def test_tables_stay_python_lists(all_structures):
    """The searches index these per node; they stay lists of Python ints and
    bools beside the arrays."""
    for S in all_structures.values():
        assert type(S.mul) is list and all(type(row) is list for row in S.mul)
        assert all(type(v) is int for row in S.mul for v in row)
        assert type(S.inv) is list and all(type(v) is int for v in S.inv)
        assert all(type(v) is int for v in S.idempotents)
        assert all(type(v) is int for v in (S.identity, S.zero) if v is not None)
        table = S.natural_order().table
        assert type(table) is list and all(type(row) is list for row in table)
        assert all(type(v) is bool for row in table for v in row)
        G = esn_forward(S)
        assert all(type(row) is list for row in G.leq)
        assert all(type(v) is bool for row in G.leq for v in row)
        assert all(type(v) is int for v in G.identities)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_table_layer_memory_on_i4():
    """Temporaries stay O(n^2) entries or are swept a block of rows at a
    time: on I4 (209 elements, 1,473 order pairs) no step peaks at 8 MB."""
    S = core.build_symmetric_inverse_monoid(4)
    S.natural_order()
    peaks = {
        "NaturalOrder": _peak_mb(lambda: NaturalOrder(S, diagnostics=True)),
        "verify_semigroup_properties": _peak_mb(lambda: verify_semigroup_properties(S)),
    }
    G = esn_forward(S)
    peaks["verify_ordered_groupoid"] = _peak_mb(lambda: verify_ordered_groupoid(G))
    G = esn_forward(S)
    peaks["esn_back"] = _peak_mb(lambda: esn_back(G))
    assert all(mb < 8 for mb in peaks.values()), peaks
