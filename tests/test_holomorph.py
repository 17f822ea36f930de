import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from invhol import core
from invhol.errors import NotMonoid
from invhol.heap import enumerate_sha
from invhol.holomorph import (
    HolElement,
    MonHolElement,
    enumerate_holomorph,
    hol_action,
    hol_diamond,
    hol_groupoid_compose,
    hol_identity,
    hol_inverse_arrow,
    hol_table,
    holomorph_units,
    is_valid_hol,
    mon_diamond,
    mon_hol,
    target_premorphism,
    verify_hol_monoid,
    verify_interchange,
    verify_mon_hol,
)
from invhol.morphisms import enumerate_endomorphisms, enumerate_premorphisms

import oracles

HOL_PAIRS = {"trivial": 1, "Z2": 4, "Z3": 9, "Z4": 16, "S3": 60, "chain2": 3,
             "clifford4": 12, "I2": 39}
HOL_UNITS = {"trivial": 1, "Z2": 2, "Z3": 6, "Z4": 8, "S3": 36}


def test_pair_counts(zoo):
    for name, count in HOL_PAIRS.items():
        assert len(enumerate_holomorph(zoo[name])) == count, name


def test_unit_counts_match_automorphism_oracle(zoo):
    for name, count in HOL_UNITS.items():
        S = zoo[name]
        units = holomorph_units(S)
        assert len(units) == count, name
        auts = oracles.automorphisms_by_filter(S)
        assert len(units) == len(auts) * S.size, name
        # units are exactly the pairs with a bijective first component
        assert {h.alpha for h in units} == {tuple(a) for a in auts}


def test_identity_element_is_neutral(zoo):
    for name in ["Z3", "chain2", "clifford4", "I2"]:
        S = zoo[name]
        ident = hol_identity(S)
        for h in enumerate_holomorph(S):
            assert hol_diamond(S, ident, h) == h
            assert hol_diamond(S, h, ident) == h


def test_diamond_on_z3_inversion(zoo):
    S = zoo["Z3"]
    invmap = (0, 2, 1)
    h1 = HolElement(invmap, (1,))
    h2 = HolElement(invmap, (2,))
    assert is_valid_hol(S, h1.alpha, h1.tau)
    got = hol_diamond(S, h1, h2)
    # alpha composes to the identity; 1 under the second map is 2, plus 2 is 1
    assert got == HolElement((0, 1, 2), (1,))


def test_groupoid_compose_with_pointwise_inverse(zoo):
    for name in ["Z3", "clifford4", "I2"]:
        S = zoo[name]
        for h in enumerate_holomorph(S):
            hbar = hol_inverse_arrow(S, h)
            got = hol_groupoid_compose(S, h, hbar)
            assert got is not None
            assert got == HolElement(h.alpha, tuple(h.alpha[e] for e in S.idempotents))


def test_groupoid_compose_group_case_is_conjugation(zoo):
    S = zoo["Z3"]
    hol = enumerate_holomorph(S)
    for h1 in hol:
        for h2 in hol:
            g = h1.tau[0]
            conj = tuple(
                S.mul[S.mul[S.inv[g]][h1.alpha[s]]][g] for s in range(S.size)
            )
            expected = h2.alpha == conj
            assert (hol_groupoid_compose(S, h1, h2) is not None) == expected


def test_groupoid_compose_mismatch_is_undefined(zoo):
    S = zoo["Z3"]
    ident = hol_identity(S)
    other = HolElement((0, 0, 0), (0,))
    assert is_valid_hol(S, other.alpha, other.tau)
    assert hol_groupoid_compose(S, ident, other) is None


def test_action_identity_and_group_case(zoo):
    for name in ["Z3", "I2", "clifford4"]:
        S = zoo[name]
        ident = hol_identity(S)
        for s in range(S.size):
            assert hol_action(S, s, ident) == s
    G = zoo["S3"]
    for h in enumerate_holomorph(G):
        g = h.tau[0]
        for s in range(G.size):
            assert hol_action(G, s, h) == G.mul[h.alpha[s]][g]


def test_action_spot_value_on_i2(zoo):
    S = zoo["I2"]
    h = enumerate_holomorph(S)[5]
    pos = S.idempotent_position
    for s in range(S.size):
        expected = S.mul[h.alpha[s]][h.tau[pos[S.mul[S.inv[s]][s]]]]
        assert hol_action(S, s, h) == expected


def test_monoid_laws(zoo):
    for name in ["trivial", "Z2", "Z3", "chain2", "chain3", "clifford4", "I2"]:
        rep = verify_hol_monoid(zoo[name])
        assert rep.ok, f"{name}: {rep.render()}"


def test_interchange(zoo):
    for name in ["trivial", "Z3", "chain2", "clifford4", "I2"]:
        rep = verify_interchange(zoo[name])
        assert rep.ok, f"{name}: {rep.render()}"


def test_target_premorphism_is_premorphism(zoo):
    from invhol.morphisms import is_premorphism

    S = zoo["I2"]
    for h in enumerate_holomorph(S):
        beta = target_premorphism(S, h)
        assert is_premorphism(S, S, beta)


def test_semilattice_holomorph_is_premorphism_monoid(zoo):
    # over a semilattice the transformation part repeats the premorphism
    for name in ["chain2", "chain3", "diamond"]:
        S = zoo[name]
        hol = enumerate_holomorph(S)
        from invhol.morphisms import enumerate_premorphisms

        assert len(hol) == len(enumerate_premorphisms(S))
        for h in hol:
            assert h.tau == tuple(h.alpha[e] for e in S.idempotents)


def test_mon_hol_bijection_and_laws(zoo):
    for name in ["trivial", "Z2", "Z3", "chain2", "clifford4", "I2"]:
        rep = verify_mon_hol(zoo[name])
        assert rep.ok, f"{name}: {rep.render()}"


def test_mon_hol_requires_identity():
    # a semilattice with no top: two incomparable points over a bottom
    T = core.diamond_semilattice()
    sub = [1, 2, 3]
    table = [[sub.index(T.mul[a][b]) for b in sub] for a in sub]
    no_top = core.build_from_table(["x", "y", "bot"], table)
    assert no_top.identity is None
    with pytest.raises(NotMonoid):
        mon_hol(no_top)


def test_mon_diamond_matches_group_semidirect(zoo):
    S = zoo["Z4"]
    mon = mon_hol(S)
    for a in mon:
        for b in mon:
            got = mon_diamond(S, a, b)
            alpha = tuple(b.alpha[a.alpha[x]] for x in range(S.size))
            assert got == MonHolElement(alpha, S.mul[b.alpha[a.m]][b.m])


def test_diamond_closure(zoo):
    S = zoo["clifford4"]
    hol = set(enumerate_holomorph(S))
    for h1 in hol:
        for h2 in hol:
            assert hol_diamond(S, h1, h2) in hol


def test_tau_space_cap(zoo):
    from invhol.errors import SizeCap

    with pytest.raises(SizeCap):
        enumerate_holomorph(zoo["Z3"], tau_cap=1)


@pytest.mark.parametrize("name", ["I2", "clifford4"])
def test_tau_cap_counts_pairs_found(zoo, name):
    # four tau candidates before pruning, two pairs after: a cap of 2 holds
    S = zoo[name]
    hol = enumerate_holomorph(S, prems=[tuple(range(S.size))], tau_cap=2)
    assert len(hol) == 2


def test_holomorph_matches_filter_oracle(zoo):
    for name, S in zoo.items():
        if S.size <= 6:
            pairs = [(h.alpha, h.tau) for h in enumerate_holomorph(S)]
            assert pairs == oracles.holomorph_pairs_by_filter(S), name


def _check_line(rep, name):
    (c,) = [c for c in rep.checks if c.name == name]
    return c


def test_table_checks_match_loop_oracles(zoo):
    # the table-driven units, diamond_associative, monoid_action and
    # interchange_law against plain element loops reading the same table, on
    # the true table and on copies with one diamond entry changed
    failing = {"units": 0, "monoid_action": 0, "interchange_law": 0,
               "diamond_associative": 0}
    for name, S in zoo.items():
        table = hol_table(S)
        n = len(table.pairs)
        if n > 64:
            continue
        rng = random.Random(name)
        e = table.index[hol_identity(S)]
        # two random entries and one product equal to the identity pair
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
        cells.append(tuple(rng.choice(np.argwhere(table.diamond == e).tolist())))
        tables = [table]
        for i, j in cells if n > 1 else []:
            D = table.diamond.copy()
            D[i, j] = (D[i, j] + rng.randrange(1, n)) % n
            tables.append(dataclasses.replace(table, diamond=D))
        for t in tables:
            units = holomorph_units(S, t)
            assert units == oracles.holomorph_units_by_definition(S, t), name
            failing["units"] += units != holomorph_units(S, table)

            monoid = verify_hol_monoid(S, t)
            assoc = _check_line(monoid, "diamond_associative")
            w = oracles.first_nonassociative_by_loops(range(n), t.diamond.item)
            assert (assoc.ok, assoc.witness) == (
                w is None, w and "associativity fails at ({},{},{})".format(*w)), name
            failing["diamond_associative"] += not assoc.ok

            action = _check_line(monoid, "monoid_action")
            w = oracles.monoid_action_witness(S, t)
            assert (action.ok, action.witness, action.detail) == (w is None, w, None), name
            failing["monoid_action"] += not action.ok

            law = _check_line(verify_interchange(S, t), "interchange_law")
            w, checked = oracles.interchange_sweep(S, t)
            assert (law.ok, law.witness, law.detail) == (
                w is None, w, f"{checked} quadruple(s) checked"), name
            failing["interchange_law"] += not law.ok
    assert min(failing.values()) >= 10, failing


def test_hol_table_matches_diamond_oracle(zoo):
    # the row-key fill against one hol_diamond call per entry, on each zoo
    # structure and two seeded relabellings of it, with the pairs in
    # enumeration order and shuffled
    for name, S in zoo.items():
        rng = random.Random(name)
        for T in [S] + [oracles.relabelled(S, rng.sample(range(S.size), S.size))
                        for _ in range(2)]:
            hol = enumerate_holomorph(T)
            for pairs in [hol, rng.sample(hol, len(hol))]:
                assert np.array_equal(hol_table(T, pairs).diamond,
                                      oracles.hol_table_by_diamonds(T, pairs)), name


def test_hol_table_raises_on_a_dropped_pair(zoo):
    # with one seeded pair missing, the table raises at the first diamond, in
    # row order, that the oracle does not find among the pairs left
    raised = 0
    for name, S in zoo.items():
        hol = enumerate_holomorph(S)
        rng = random.Random(name)
        for k in rng.sample(range(len(hol)), min(2, len(hol))):
            pairs = hol[:k] + hol[k + 1:]
            missing = np.argwhere(oracles.hol_table_by_diamonds(S, pairs) < 0)
            if not len(missing):
                hol_table(S, pairs)
                continue
            i, j = missing[0]
            with pytest.raises(AssertionError, match=rf"^diamond of pairs {i} and {j} left"):
                hol_table(S, pairs)
            raised += 1
    assert raised >= 20, raised


def _moved(p, vec):
    """The value vector vec with every element a renamed p[a]."""
    out = [0] * len(vec)
    for a, b in enumerate(vec):
        out[p[a]] = p[b]
    return tuple(out)


def test_results_follow_a_relabelling(zoo):
    # a renamed table has the renamed Prem, End, Sha and Hol, and its units
    # are the renamed units
    for name, S in zoo.items():
        if S.size > 7:
            continue
        p = random.Random(name).sample(range(S.size), S.size)
        T = oracles.relabelled(S, p)
        unmoved = {b: a for a, b in enumerate(p)}

        def moved_pair(h):
            tau = dict(zip(S.idempotents, h.tau))
            return HolElement(_moved(p, h.alpha),
                              tuple(p[tau[unmoved[f]]] for f in T.idempotents))

        for enumerate_maps in [enumerate_premorphisms, enumerate_endomorphisms]:
            assert [m.theta for m in enumerate_maps(T)] == sorted(
                _moved(p, m.theta) for m in enumerate_maps(S)), name
        assert [m.eta for m in enumerate_sha(T)] == sorted(
            _moved(p, m.eta) for m in enumerate_sha(S)), name
        assert enumerate_holomorph(T) == sorted(
            map(moved_pair, enumerate_holomorph(S)), key=lambda h: (h.alpha, h.tau)), name
        assert set(holomorph_units(T)) == set(map(moved_pair, holomorph_units(S))), name


def test_hol_table_memory_stays_near_the_table():
    # S4 has 1,392 pairs: the table takes 7.8 MB, while gathering every
    # diamond's value vector at once would take 186 MB
    S = core.symmetric_group(4)
    hol = enumerate_holomorph(S)
    tracemalloc.start()
    try:
        table = hol_table(S, hol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.pairs) == 1392
    assert peak < 2 * table.diamond.nbytes, peak
