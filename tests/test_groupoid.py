import random

import numpy as np
import pytest

from invhol import core
from invhol.catalog import two_chain_clifford
from invhol.errors import NotBelowDomain, NotInductive, SizeCap
from invhol.groupoid import (
    OrderedGroupoid,
    check_flow_monoid_structure,
    corestriction,
    enumerate_flows,
    esn_back,
    esn_forward,
    flow_compose,
    identity_flow,
    meet_identities,
    ordered_flows,
    pseudoproduct,
    restriction,
    verify_ordered_groupoid,
    wreath_product,
)

import oracles

Z2 = [[0, 1], [1, 0]]


def trivial_groupoid():
    return OrderedGroupoid([0], [0], [0], {(0, 0): 0}, [[True]], names=["e"])


def test_trivial_groupoid_passes():
    assert verify_ordered_groupoid(trivial_groupoid()).ok


def test_esn_images_pass_validation(zoo):
    for name, S in zoo.items():
        rep = verify_ordered_groupoid(esn_forward(S))
        assert rep.ok, f"{name}: {rep.render()}"


def test_corrupted_order_flags_og1(zoo):
    G = esn_forward(zoo["I2"])
    # find a strict pair a < b and erase the inverted pair to break OG1
    a, b = next(
        (a, b)
        for a in range(G.n)
        for b in range(G.n)
        if a != b and G.leq[a][b] and not G.is_identity[a]
    )
    leq = [row[:] for row in G.leq]
    leq[G.inv[a]][G.inv[b]] = False
    bad = OrderedGroupoid(G.dom, G.ran, G.inv, G.compose, leq, names=G.names)
    rep = verify_ordered_groupoid(bad)
    failed = {c.name for c in rep.failures()}
    assert "OG1_inversion_ordered" in failed
    og1 = next(c for c in rep.checks if c.name == "OG1_inversion_ordered")
    assert og1.witness


def test_restriction_to_own_domain(zoo):
    G = esn_forward(zoo["I2"])
    for g in range(G.n):
        assert restriction(G, G.dom[g], g) == g


def test_restriction_in_clifford():
    sog = two_chain_clifford()
    S = sog.semigroup
    G = esn_forward(S)
    e_bot = sog.idempotent_of_component(1)
    g_top = sog.element(0, 1)
    expected = sog.element(1, sog.linking[(0, 1)][1])
    assert restriction(G, e_bot, g_top) == expected


def test_restriction_requires_lower_identity(zoo):
    G = esn_forward(zoo["I2"])
    top = next(x for x in G.identities if x == zoo["I2"].identity)
    g_zero = zoo["I2"].zero
    with pytest.raises(NotBelowDomain):
        restriction(G, top, g_zero)


def test_corestriction_dual(zoo):
    G = esn_forward(zoo["clifford4"])
    for g in range(G.n):
        for y in G.identities:
            if G.leq[y][G.ran[g]]:
                co = corestriction(G, g, y)
                assert G.ran[co] == y and G.leq[co][g]


def test_pseudoproduct_composable_pairs(zoo):
    G = esn_forward(zoo["clifford4"])
    for (g, h), k in G.compose.items():
        assert pseudoproduct(G, g, h) == k


def test_pseudoproduct_of_idempotents_is_meet(zoo):
    S = zoo["diamond"]
    G = esn_forward(S)
    for e in G.identities:
        for f in G.identities:
            assert pseudoproduct(G, e, f) == S.mul[e][f]


def test_pseudoproduct_reproduces_i2(zoo):
    S = zoo["I2"]
    G = esn_forward(S)
    for a in range(7):
        for b in range(7):
            assert pseudoproduct(G, a, b) == S.mul[a][b]


def test_pseudoproduct_associative_on_inductive(zoo):
    for name in ["chain3", "clifford4", "diamond", "I2"]:
        G = esn_forward(zoo[name])
        for a in range(G.n):
            for b in range(G.n):
                ab = pseudoproduct(G, a, b)
                for c in range(G.n):
                    assert pseudoproduct(G, ab, c) == pseudoproduct(
                        G, a, pseudoproduct(G, b, c)
                    ), name


def test_esn_forward_structure(zoo):
    # a group gives a one-object groupoid with trivial order
    G = esn_forward(zoo["S3"])
    assert len(G.identities) == 1
    assert all(sum(G.leq[a]) == 1 for a in range(G.n))
    # a semilattice gives identities only
    G = esn_forward(zoo["chain3"])
    assert G.identities == list(range(G.n))
    # I2 has the 4 idempotents as identities
    assert len(esn_forward(zoo["I2"]).identities) == 4


def test_esn_round_trip(zoo):
    for name, S in zoo.items():
        T = esn_back(esn_forward(S))
        assert T.mul == S.mul, name
        assert T.names == S.names, name


def test_esn_back_rejects_non_inductive():
    G = oracles.disjoint_union(trivial_groupoid(), trivial_groupoid())
    with pytest.raises(NotInductive):
        esn_back(G)


def test_meet_identities_absent_is_none():
    G = oracles.disjoint_union(trivial_groupoid(), trivial_groupoid())
    assert meet_identities(G, 0, 1) is None
    assert pseudoproduct(G, 0, 1) is None


def test_flow_counts():
    # one identity: flows are the group elements and compose as the group
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    G = oracles.connected_groupoid(1, z3)
    flows = enumerate_flows(G)
    assert len(flows) == 3
    arrow_group = {t[0]: t for t in flows}
    for g in range(3):
        for h in range(3):
            gh = G.compose[(g, h)]
            assert flow_compose(G, arrow_group[g], arrow_group[h]) == arrow_group[gh]
    # two objects, trivial group: 4 flows
    assert len(enumerate_flows(oracles.connected_groupoid(2, [[0]]))) == 4
    # two objects, Z2: 16 flows
    assert len(enumerate_flows(oracles.connected_groupoid(2, Z2))) == 16


def test_flow_cap():
    with pytest.raises(SizeCap):
        enumerate_flows(oracles.connected_groupoid(2, Z2), cap=10)


def test_identity_flow_is_neutral():
    G = oracles.connected_groupoid(2, Z2)
    flows = enumerate_flows(G)
    e = identity_flow(G)
    for t in flows:
        assert flow_compose(G, e, t) == t
        assert flow_compose(G, t, e) == t


def test_flow_monoid_associative():
    G = oracles.connected_groupoid(2, Z2)
    flows = enumerate_flows(G)
    idx = {t: i for i, t in enumerate(flows)}
    table = np.array(
        [[idx[flow_compose(G, t, s)] for s in flows] for t in flows], dtype=np.int64
    )
    for i in range(len(flows)):
        assert np.array_equal(table[table[i, :], :], table[i, table])


def test_ordered_flows(zoo):
    # trivial order: all flows are ordered
    G = oracles.connected_groupoid(2, Z2)
    assert len(ordered_flows(G)) == len(enumerate_flows(G))
    # semilattice: the only flow is the identity flow
    G = esn_forward(zoo["chain2"])
    assert ordered_flows(G) == [identity_flow(G)]
    # the 4-element Clifford semigroup: the value at the top determines the rest
    G = esn_forward(zoo["clifford4"])
    assert len(ordered_flows(G)) == 2
    # on an ordered groupoid the ordered flows form a monoid
    for name, S in zoo.items():
        G = esn_forward(S)
        out = set(ordered_flows(G))
        assert identity_flow(G) in out, name
        assert all(flow_compose(G, t, s) in out for t in out for s in out), name


def test_wreath_product_size():
    elems, table = wreath_product(Z2, 2)
    assert len(elems) == 16
    n = len(elems)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def test_flow_monoid_structure_connected():
    rep = check_flow_monoid_structure(oracles.connected_groupoid(2, Z2))
    assert rep.ok, rep.render()


def test_flow_monoid_structure_disconnected():
    G = oracles.disjoint_union(
        oracles.connected_groupoid(1, Z2), oracles.connected_groupoid(2, [[0]]))
    rep = check_flow_monoid_structure(G)
    assert rep.ok, rep.render()
    assert len(enumerate_flows(G)) == 2 * 4


def test_flow_monoid_single_object_group():
    G = oracles.connected_groupoid(1, Z2)
    rep = check_flow_monoid_structure(G)
    assert rep.ok
    assert len(enumerate_flows(G)) == 2



def test_flow_monoid_reports_wreath_map_failure(monkeypatch):
    from invhol import groupoid as gp

    real = gp.wreath_product

    def rows_swapped(group_table, m):
        # exchanging two rows leaves a table the explicit map cannot match
        elems, table = real(group_table, m)
        return elems, [table[1], table[0]] + table[2:]

    monkeypatch.setattr(gp, "wreath_product", rows_swapped)
    line = check_flow_monoid_structure(oracles.connected_groupoid(2, Z2)).checks[-1]
    assert line.name == "component_0_wreath_iso" and not line.ok
    assert line.witness.startswith("candidate map not multiplicative at")
    assert line.detail is None


def test_flow_monoid_reports_wreath_map_not_injective(zoo):
    # Z2's groupoid with 1 * g composing to 1: both flows map to the same
    # wreath element, and composing them still agrees with the wreath table
    G = esn_forward(zoo["Z2"])
    compose = {**G.compose, (0, 1): 0}
    H = OrderedGroupoid(G.dom, G.ran, G.inv, compose, G.leq, names=G.names)
    for check in (check_flow_monoid_structure, oracles.flow_monoid_structure_by_pairs):
        line = check(H).checks[-1]
        assert (line.name, line.ok, line.witness) == (
            "component_0_wreath_iso", False, "candidate map not injective at flow (1,)")


def i2_times_chain2():
    return esn_forward(core.direct_product(
        core.build_symmetric_inverse_monoid(2), core.chain_semilattice(2)))


def flow_outcome(check, G):
    """Every line's verdict, or the type of what the check raised."""
    try:
        rep = check(G)
    except Exception as exc:  # the exception type is part of the compared outcome
        return type(exc).__name__
    return [(c.name, c.ok) for c in rep.checks]


def test_flow_splitting_check_matches_pair_loop(zoo):
    # the composable-arrow check decides what composing every pair of flows
    # decided, on valid groupoids and on groupoids with one composite changed
    # or dropped, which a library caller can pass in (`invhol flows` rejects them)
    cases = [esn_forward(S) for S in zoo.values()] + [
        i2_times_chain2(),
        oracles.disjoint_union(
            oracles.connected_groupoid(1, Z2), oracles.connected_groupoid(2, [[0]])),
        oracles.disjoint_union(esn_forward(zoo["I2"]), oracles.connected_groupoid(2, Z2)),
    ]
    for G in cases:
        assert flow_outcome(check_flow_monoid_structure, G) == flow_outcome(
            oracles.flow_monoid_structure_by_pairs, G)
        assert check_flow_monoid_structure(G).ok
    kinds = set()
    for name, S in zoo.items():
        G = esn_forward(S)
        rng = random.Random(f"flows {name}")
        for _ in range(20):
            changed, dropped = dict(G.compose), dict(G.compose)
            changed[rng.choice(sorted(changed))] = rng.randrange(G.n)
            del dropped[rng.choice(sorted(dropped))]
            for compose in (changed, dropped):
                H = OrderedGroupoid(G.dom, G.ran, G.inv, compose, G.leq, names=G.names)
                got = flow_outcome(check_flow_monoid_structure, H)
                assert got == flow_outcome(oracles.flow_monoid_structure_by_pairs, H), name
                if isinstance(got, str):
                    kinds.add(got)
                else:
                    kinds.add("pass" if all(ok for _, ok in got) else "fail")
                    assert ("component_product_iso", True) in got
    assert kinds == {"pass", "fail", "KeyError"}


def test_flow_splitting_check_composes_no_whole_groupoid_flows(monkeypatch):
    # the pair loop composed all 64^2 pairs of I2 x chain2's flows; the check
    # composes flows only inside components, for the wreath lines
    from invhol import groupoid as gp

    G = i2_times_chain2()
    real, calls = gp.flow_compose, []

    def counted(H, t, s):
        calls.append(H is G)
        return real(H, t, s)

    monkeypatch.setattr(gp, "flow_compose", counted)
    assert check_flow_monoid_structure(G).ok
    assert len(enumerate_flows(G)) == 64
    assert calls and not any(calls)
