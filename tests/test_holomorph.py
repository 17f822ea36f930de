import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from invhol import core, heap, holomorph
from invhol.errors import NotMonoid
from invhol.heap import enumerate_sha, verify_sha_embedding, verify_sha_monoid_iso
from invhol.holomorph import (
    HolElement,
    HolTable,
    MonHolElement,
    enumerate_holomorph,
    hol_action,
    hol_diamond,
    hol_groupoid_compose,
    hol_identity,
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
            hbar = oracles.hol_inverse_arrow(S, h)
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


def test_tau_recovery_line_matches_loop_oracle(zoo):
    # tau_from_maximal_idempotents against the pair loop, on the true pairs
    # and with one seeded pair's tau changed at one idempotent; in B12 the
    # zero lies below two maximal idempotents
    failing = 0
    for name, S in dict(zoo, B12=B12).items():
        table = hol_table(S)
        rng = random.Random(name)
        cases = [table.pairs]
        for k in rng.sample(range(len(table.pairs)), min(6, len(table.pairs))):
            h = table.pairs[k]
            tau = list(h.tau)
            tau[rng.randrange(len(tau))] = rng.randrange(S.size)
            cases.append(table.pairs[:k] + [HolElement(h.alpha, tuple(tau))] + table.pairs[k + 1:])
        for pairs in cases:
            line = _check_line(verify_hol_monoid(S, dataclasses.replace(table, pairs=pairs)),
                               "tau_from_maximal_idempotents")
            w = oracles.tau_recovery_witness(S, pairs)
            assert (line.ok, line.witness) == (w is None, w), name
            failing += not line.ok
    assert failing >= 10, failing


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
            assert enumerate_maps(T) == sorted(
                _moved(p, t) for t in enumerate_maps(S)), name
        assert enumerate_sha(T) == sorted(
            _moved(p, eta) for eta in enumerate_sha(S)), name
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


def outcome(check, *args):
    """The report of check(*args) as a dict, or the type and text of the
    error it raised."""
    try:
        return check(*args).to_dict()
    except (AssertionError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def failed(result):
    return isinstance(result, tuple) or not result["ok"]


def _with_pairs(S, pairs):
    """A HolTable over any list of pairs: entries -1 where a diamond is not
    in the list, the last of equal pairs indexed."""
    return HolTable(pairs, {h: i for i, h in enumerate(pairs)},
                    oracles.hol_table_by_diamonds(S, pairs))


def test_mon_hol_sweeps_match_loop_oracle(zoo):
    # verify_mon_hol against the pair loops of oracles.mon_hol_report_by_loops,
    # report and raised error alike, on the true inputs and on seeded
    # corruptions: a compressed pair with its m or one alpha value changed,
    # a dropped or duplicated compressed pair, a dropped or duplicated Hol
    # pair and a changed Hol diamond entry
    failing = 0
    for name, S in zoo.items():
        table = hol_table(S)
        hol, n = table.pairs, len(table.pairs)
        if S.identity is None or n > 40:
            continue
        mon = mon_hol(S)
        rng = random.Random(name)
        cases = [(table, mon)]
        for k in rng.sample(range(len(mon)), min(3, len(mon))):
            a = mon[k]
            others = [x for x in range(S.size) if x != a.m]
            if others:
                # at a non-idempotent the expansion keeps its tau
                alpha = list(a.alpha)
                movable = [x for x in range(S.size) if not S.is_idempotent[x]]
                alpha[rng.choice(movable or range(S.size))] = rng.choice(others)
                for changed in [MonHolElement(a.alpha, rng.choice(others)),
                                MonHolElement(tuple(alpha), a.m)]:
                    cases.append((table, mon[:k] + [changed] + mon[k + 1:]))
            cases += [(table, mon[:k] + mon[k + 1:]), (table, mon + [a])]
        # every Hol table holds the identity pair, so a table is never empty
        for k in rng.sample(range(n), min(2, n - 1)):
            D = table.diamond.copy()
            i, j = rng.randrange(n), rng.randrange(n)
            D[i, j] = (D[i, j] + rng.randrange(1, n)) % n
            cases += [(_with_pairs(S, hol[:k] + hol[k + 1:]), mon),
                      (_with_pairs(S, hol + [hol[k]]), mon),
                      (dataclasses.replace(table, diamond=D), mon)]
        for t, m in cases:
            want = outcome(oracles.mon_hol_report_by_loops, S, t.pairs, m)
            assert outcome(verify_mon_hol, S, t, m) == want, name
            failing += failed(want)
    assert failing >= 10, failing


def test_sha_sweeps_match_loop_oracles(zoo):
    # verify_sha_embedding and verify_sha_monoid_iso against the pair loops
    # of oracles, on the true heap maps and with a map dropped, duplicated or
    # changed at one element; a dropped map leaves composites outside the
    # list, whose KeyError the replayed loop raises as the oracle does
    failing = {"embedding": 0, "isomorphism": 0}
    for name, S in zoo.items():
        sha = enumerate_sha(S)
        mon = mon_hol(S) if S.identity is not None else None
        rng = random.Random(name)
        cases = [sha]
        for k in rng.sample(range(len(sha)), min(3, len(sha))):
            eta = list(sha[k])
            eta[rng.randrange(S.size)] = rng.randrange(S.size)
            cases += [sha[:k] + sha[k + 1:], sha + [sha[k]],
                      sha[:k] + [tuple(eta)] + sha[k + 1:]]
        for maps in cases:
            want = outcome(oracles.sha_embedding_report_by_loops, S, maps)
            assert outcome(verify_sha_embedding, S, maps) == want, name
            failing["embedding"] += failed(want)
            if mon is not None:
                want = outcome(oracles.sha_monoid_iso_report_by_loops, S, maps, mon)
                assert outcome(verify_sha_monoid_iso, S, maps, mon) == want, name
                failing["isomorphism"] += failed(want)
    assert min(failing.values()) >= 10, failing


def _counted(calls, f):
    """f, recording its name in ``calls`` at each call."""
    def wrapper(*args):
        calls.append(f.__name__)
        return f(*args)
    return wrapper


def test_law_checks_compute_no_pair_diamond_when_they_pass(zoo, monkeypatch):
    # on passing inputs the three checks decide every pair from the tables
    calls = []
    for module in (holomorph, heap):
        for f in ("hol_diamond", "mon_diamond"):
            monkeypatch.setattr(module, f, _counted(calls, getattr(module, f)))
    for name, S in zoo.items():
        sha = enumerate_sha(S)
        reports = [verify_sha_embedding(S, sha)]
        if S.identity is not None:
            mon = mon_hol(S)
            reports += [verify_mon_hol(S, hol_table(S), mon), verify_sha_monoid_iso(S, sha, mon)]
        assert all(r.ok for r in reports), name
    assert calls == []


def test_monoid_and_interchange_checks_gather_actions_and_composites(zoo, monkeypatch):
    # the action table and the groupoid composites come from gathers over the
    # pair arrays, not from one call per pair
    calls = []
    for f in ("hol_action", "target_premorphism", "hol_groupoid_compose"):
        monkeypatch.setattr(holomorph, f, _counted(calls, getattr(holomorph, f)))
    for name, S in zoo.items():
        table = hol_table(S)
        assert verify_hol_monoid(S, table).ok and verify_interchange(S, table).ok, name
    assert calls == []


def test_interchange_on_dropped_and_repeated_pairs(zoo):
    # with a pair dropped, the first groupoid composite in row order that is
    # not among the pairs raises the KeyError of the pair loop; with a pair
    # repeated, composites point at its last copy, as table.index does
    raised = 0
    for name, S in zoo.items():
        hol = enumerate_holomorph(S)
        if len(hol) > 64:
            continue
        rng = random.Random(name)
        for k in rng.sample(range(len(hol)), min(3, len(hol))):
            for pairs in [hol[:k] + hol[k + 1:], hol + [hol[k]]]:
                if not pairs:
                    continue
                t = _with_pairs(S, pairs)
                try:
                    w, checked = oracles.interchange_sweep(S, t)
                except KeyError as want:
                    with pytest.raises(KeyError) as got:
                        verify_interchange(S, t)
                    assert got.value.args == want.args, name
                    raised += 1
                    continue
                law = _check_line(verify_interchange(S, t), "interchange_law")
                assert (law.ok, law.witness, law.detail) == (
                    w is None, w, f"{checked} quadruple(s) checked"), name
    assert raised >= 10, raised


def test_interchange_fails_on_missing_diamonds_as_the_pair_loop(zoo):
    # a diamond entry -1, a diamond not among the pairs, fails the law where
    # the pair loop fails it, and is not read as the last pair: every table
    # of the zoo with one pair dropped whose composites are all pairs
    with_missing = 0
    for name, S in zoo.items():
        hol = enumerate_holomorph(S)
        for k in range(len(hol)):
            t = _with_pairs(S, hol[:k] + hol[k + 1:])
            try:
                w, checked = oracles.interchange_sweep(S, t)
            except KeyError:
                continue
            law = _check_line(verify_interchange(S, t), "interchange_law")
            assert (law.ok, law.witness, law.detail) == (
                w is None, w, f"{checked} quadruple(s) checked"), (name, k)
            with_missing += bool((t.diamond < 0).any())
    assert with_missing == 106
    S = zoo["Z2"]
    hol = enumerate_holomorph(S)
    law = _check_line(verify_interchange(S, _with_pairs(S, hol[:1] + hol[2:])), "interchange_law")
    assert (law.witness, law.detail) == ("quadruple (0,0,1,2)", "3 quadruple(s) checked")


B12 = oracles.inverse_subsemigroup(2, [(2, 0)])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(oracles.inverse_subsemigroups(cap=7))
@example(B12)
def test_searches_match_filters_on_random_inverse_subsemigroups(S):
    # Prem, End and Hol against the raw-space filters; on a monoid, one
    # compressed pair per Hol pair and verify_mon_hol as its pair loops
    assert enumerate_premorphisms(S) == oracles.premorphisms_by_filter(S)
    assert enumerate_endomorphisms(S) == oracles.endomorphisms_by_filter(S)
    hol = enumerate_holomorph(S)
    assert [(h.alpha, h.tau) for h in hol] == oracles.holomorph_pairs_by_filter(S)
    if S.identity is not None:
        mon = mon_hol(S)
        assert len(mon) == len(hol)
        assert verify_mon_hol(S, hol_table(S, hol), mon).to_dict() == (
            oracles.mon_hol_report_by_loops(S, hol, mon).to_dict())
