import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invhol import core, io
from invhol.errors import NotHeapPreserving, SearchBudgetExceeded
from invhol.heap import (
    _forcing_plan,
    bijective_heap_maps,
    enumerate_sha,
    heap,
    is_heap_preserving,
    sha_embed,
    verify_sha_embedding,
    verify_sha_monoid_iso,
)
from invhol.holomorph import hol_identity, holomorph_units

import oracles

SHA_COUNTS = {"trivial": 1, "Z2": 4, "Z3": 9, "chain2": 3, "clifford4": 12, "I2": 23}


def test_heap_examples(zoo):
    for S in zoo.values():
        for a in range(S.size):
            assert heap(S, a, a, a) == a
            r = S.mul[S.inv[a]][a]
            assert heap(S, a, r, r) == a
    Z5 = zoo["Z5"]
    assert heap(Z5, 1, 2, 4) == 3


def test_sha_counts(zoo):
    for name, count in SHA_COUNTS.items():
        assert len(enumerate_sha(zoo[name])) == count, name


def test_sha_matches_brute_force(zoo):
    for name in ["trivial", "Z2", "Z3", "chain2", "chain3", "clifford4"]:
        S = zoo[name]
        brute = sorted(oracles.ordered_heap_maps_by_filter(S))
        assert enumerate_sha(S) == brute, name


def test_sha_matches_schedule_reference(zoo):
    # the forced search returns exactly the element-order search's list, in
    # the same order, on the zoo and on relabelled I2 x chain2 and I3
    I2xC2 = core.direct_product(
        core.build_symmetric_inverse_monoid(2), core.chain_semilattice(2))
    I3 = core.build_symmetric_inverse_monoid(3)
    cases = list(zoo.items())
    cases += [("I2xchain2", S) for S in oracles.seeded_relabellings(I2xC2, "I2xchain2", 4)]
    cases += [("I3", S) for S in oracles.seeded_relabellings(I3, "I3", 4)]
    for name, S in cases:
        got = enumerate_sha(S)
        assert got == oracles.ordered_heap_maps_by_schedule(S), name


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(oracles.inverse_subsemigroups(max_points=3, cap=6))
def test_sha_matches_brute_force_on_random_inverse_subsemigroups(S):
    assert enumerate_sha(S) == oracles.ordered_heap_maps_by_filter(S)


def _heap_maps_are_ordered(S):
    """a <= b iff a = <a, a, b>, so a map preserving the heap is ordered:
    the search without order pairs finds exactly the ordered heap maps."""
    leq = S.natural_order().leq
    assert all(
        leq(a, b) == (heap(S, a, a, b) == a) for a in range(S.size) for b in range(S.size)
    )
    heap_maps = oracles.ordered_heap_maps_by_schedule(S, check_order=False)
    assert heap_maps == oracles.ordered_heap_maps_by_schedule(S)


def test_heap_maps_are_ordered(zoo):
    # why sha_embed and verify_sha_monoid_iso test no order pairs
    for S in zoo.values():
        _heap_maps_are_ordered(S)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(oracles.inverse_subsemigroups(max_points=3, cap=6))
def test_heap_maps_are_ordered_on_random_inverse_subsemigroups(S):
    _heap_maps_are_ordered(S)


def test_sha_matches_brute_force_on_brandt_semigroup():
    B12 = oracles.inverse_subsemigroup(2, [(2, 0)])
    assert B12.size == 5 and B12.zero is not None
    assert enumerate_sha(B12) == oracles.ordered_heap_maps_by_filter(B12)


def _i3(relabelling=0):
    """I3, or its relabelling by seeded_permutation(34, "I3", relabelling)."""
    I3 = core.build_symmetric_inverse_monoid(3)
    if relabelling:
        return oracles.relabelled(I3, oracles.seeded_permutation(I3.size, "I3", relabelling))
    return I3


@pytest.mark.parametrize("name, total, count", [
    ("I2", 102, 23), ("diamond", 64, 25), ("I3", 4679, 301), ("I3/1", 9569, 301),
    ("I3/2", 7916, 301), ("I3/3", 8126, 301), ("I3/4", 12842, 301),
])
def test_sha_node_totals(zoo, name, total, count):
    # the root plus every partial vector that passes its level; I2 is read
    # from data/i2.json, the table behind the CLI's budget cases, and I3/k
    # is I3 relabelled by seed k
    if name == "I2":
        S = io.read_semigroup(Path(__file__).resolve().parents[1] / "data" / "i2.json")
    elif name.startswith("I3"):
        S = _i3(int(name[3:] or 0))
    else:
        S = zoo[name]
    assert len(enumerate_sha(S, budget=total)) == count
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_sha(S, budget=total - 1)
    assert (exc.value.nodes, exc.value.budget) == (total, total - 1)


@pytest.mark.parametrize("budget, nodes", [(100, 174), (2000, 2080)])
def test_sha_budget_stop_reports_the_nodes_counted(budget, nodes):
    # one block of partial vectors can take the count well past the budget;
    # the error carries the count at the end of that block, so a budget one
    # below it stops there too and a budget equal to it gets past it
    S = _i3()
    for b in (budget, nodes - 1):
        with pytest.raises(SearchBudgetExceeded) as exc:
            enumerate_sha(S, budget=b)
        assert (exc.value.nodes, exc.value.found, exc.value.budget) == (nodes, 0, b)
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_sha(S, budget=nodes)
    assert exc.value.nodes > nodes


def test_sha_on_i4_within_a_budget():
    # I4 (209 elements, 33 branching positions) cannot be searched to the end
    # in tier-1; its first 1,500 nodes find the 10 lexicographically
    # smallest heap maps
    S = core.build_symmetric_inverse_monoid(4)
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_sha(S, budget=1500)
    assert (exc.value.nodes, exc.value.found) == (1501, 10)


def test_plan_checks_each_generator_middle_triple_once(zoo):
    # the plan's triples are those (a, g, c) with g a branching position, each
    # once, with its heap value, at the level of its last-placed member; in a
    # level the triples where the level's element occurs twice or more come
    # first, each part in (a, g, c) order.  On I3 that is 34^2 * 15 = 17,340
    # triples where the cube has 39,304
    for name, S in dict(zoo, I3=_i3(), **{"I3/1": _i3(1)}).items():
        n = S.size
        order, witnesses, pairs, triples, heap_flat = _forcing_plan(S)
        assert heap_flat.tolist() == [
            heap(S, a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        G = [x for x, w in zip(order, witnesses) if w is None]
        rank = {x: k for k, x in enumerate(order)}
        got = []
        for k, level in enumerate(triples):
            level = list(zip(*(x.tolist() for x in level)))
            repeated = [(a, g, c, h).count(order[k]) >= 2 for a, g, c, h in level]
            assert repeated == sorted(repeated, reverse=True), (name, k)
            for part in (True, False):
                ours = [t for t, r in zip(level, repeated) if r == part]
                assert ours == sorted(ours), (name, k)
            for a, g, c, h in level:
                assert h == heap(S, a, g, c) and max(rank[x] for x in (a, g, c, h)) == k
            got += [t[:3] for t in level]
        assert sorted(got) == [(a, g, c) for a in range(n) for g in sorted(G) for c in range(n)]
        if name == "I3":
            assert (len(G), len(got)) == (15, 17340)


def _maps_to_test(S, rng):
    """Every heap map of S, 20 random maps, and up to 20 heap maps with one
    value bent."""
    sha = enumerate_sha(S)
    maps = sha + [tuple(rng.choices(range(S.size), k=S.size)) for _ in range(20)]
    for eta in rng.sample(sha, min(20, len(sha))):
        bent = list(eta)
        bent[rng.randrange(S.size)] = rng.randrange(S.size)
        maps.append(tuple(bent))
    return maps


def _generator_middles_decide(S, rng):
    """The branching positions generate S under <a,b,c>, and a map preserves
    <a, g, c> for every a, c and every branching position g iff it preserves
    the heap; returns the verdicts seen."""
    order, witnesses = _forcing_plan(S)[:2]
    G = [x for x, w in zip(order, witnesses) if w is None]
    assert oracles.heap_closure_by_loops(S, G) == set(range(S.size))
    verdicts = set()
    for eta in _maps_to_test(S, rng):
        want = oracles.heap_preserving_by_loops(S, eta)
        assert oracles.heap_preserving_by_loops(S, eta, middles=G) == want, eta
        verdicts.add(want)
    return verdicts


def test_generator_middles_decide_heap_preservation(zoo):
    rng = random.Random("generator middles")
    verdicts = set()
    for S in dict(zoo, I3=_i3()).values():
        verdicts |= _generator_middles_decide(S, rng)
    assert verdicts == {True, False}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(oracles.inverse_subsemigroups(max_points=3, cap=6), st.randoms(use_true_random=False))
def test_generator_middles_decide_heap_preservation_on_random_inverse_subsemigroups(S, rng):
    _generator_middles_decide(S, rng)


def test_sha_memory_on_i3():
    """The plan holds O(n^3) int32 entries and every gather of the search
    is a block of at most core.BLOCK_ENTRIES: on I3 (34 elements) the whole
    search peaks below 4 MB."""
    S = core.build_symmetric_inverse_monoid(3)
    S.natural_order()
    tracemalloc.start()
    try:
        assert len(enumerate_sha(S)) == 301
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 4, peak


def test_identity_always_in_sha(zoo):
    for S in zoo.values():
        if S.size <= 7:
            assert tuple(range(S.size)) in set(enumerate_sha(S))


def test_sha_embed_identity(zoo):
    S = zoo["I2"]
    h = sha_embed(S, tuple(range(S.size)))
    assert h == hol_identity(S)


def test_sha_embed_translation_on_z3(zoo):
    S = zoo["Z3"]
    eta = tuple(S.mul[x][1] for x in range(3))
    h = sha_embed(S, eta)
    assert h.alpha == (0, 1, 2)
    assert h.tau == (1,)


def test_sha_embed_rejects_non_heap_map(zoo):
    S = zoo["Z3"]
    with pytest.raises(NotHeapPreserving):
        sha_embed(S, (0, 0, 1))


def test_embedding_reports(zoo):
    for name in ["trivial", "Z2", "Z3", "chain2", "clifford4", "I2"]:
        rep = verify_sha_embedding(zoo[name])
        assert rep.ok, f"{name}: {rep.render()}"


def test_monoid_isomorphism_reports(zoo):
    for name in ["trivial", "Z2", "Z3", "chain2", "chain3", "diamond",
                 "clifford4", "I2"]:
        rep = verify_sha_monoid_iso(zoo[name])
        assert rep.ok, f"{name}: {rep.render()}"


def test_group_sha_is_endomorphism_pairs(zoo):
    for name in ["Z2", "Z3", "Z4", "S3"]:
        S = zoo[name]
        endos = oracles.endomorphisms_by_filter(S)
        assert len(enumerate_sha(S)) == len(endos) * S.size, name


def test_bijective_heap_maps_match_holomorph_units(zoo):
    for name in ["Z2", "Z3", "Z4"]:
        S = zoo[name]
        sha = enumerate_sha(S)
        bij = bijective_heap_maps(sha)
        units = holomorph_units(S)
        assert len(bij) == len(units), name
        # each bijective map embeds onto a unit
        embedded = {sha_embed(S, m) for m in bij}
        assert embedded == set(units), name


def test_constant_maps_preserve_heap(zoo):
    # any constant map trivially preserves the ternary operation
    for name in ["Z3", "I2", "clifford4"]:
        S = zoo[name]
        for c in range(S.size):
            assert is_heap_preserving(S, (c,) * S.size)


def test_heap_preservation_gather_matches_triple_loop(zoo):
    # every heap map, random maps, and heap maps with one value bent, on the
    # zoo and I3
    rng = random.Random("heap gather")
    verdicts = set()
    for name, S in dict(zoo, I3=_i3()).items():
        for eta in _maps_to_test(S, rng):
            got = is_heap_preserving(S, eta)
            assert got == oracles.heap_preserving_by_loops(S, eta), (name, eta)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_heap_preservation_gather_over_several_row_blocks():
    # I3 x chain2 has 68 elements, so the gather takes its rows a in blocks of
    # 14; relabelled so that the rows where the identity with 0 sent to 1
    # fails come last, that map fails in no row of the first two blocks
    S = core.direct_product(core.build_symmetric_inverse_monoid(3), core.chain_semilattice(2))
    n = S.size
    bent = (1,) + tuple(range(1, n))
    failing = [a for a in range(n) if any(
        bent[heap(S, a, b, c)] != heap(S, bent[a], bent[b], bent[c])
        for b in range(n) for c in range(n))]
    order = [a for a in range(n) if a not in failing] + failing
    assert order.index(failing[0]) >= 28
    p = [order.index(a) for a in range(n)]
    T = oracles.relabelled(S, p)
    ident = tuple(range(n))
    maps = [ident, (0,) * n, (n - 1,) * n, tuple(p[bent[order[a]]] for a in range(n))]
    for i in (0, n // 2, n - 1):
        maps.append(ident[:i] + ((i + 1) % n,) + ident[i + 1:])
    got = [is_heap_preserving(T, eta) for eta in maps]
    assert got == [oracles.heap_preserving_by_loops(T, eta) for eta in maps]
    assert got[:4] == [True, True, True, False]


def test_phi_formula(zoo):
    S = zoo["I2"]
    for eta in enumerate_sha(S):
        phi = sha_embed(S, eta).alpha
        for a in range(S.size):
            e = S.mul[S.inv[a]][a]
            assert phi[e] == S.mul[eta[e]][S.inv[eta[e]]]

