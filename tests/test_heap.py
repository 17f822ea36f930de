import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from invhol import core, io
from invhol.errors import NotHeapPreserving, SearchBudgetExceeded
from invhol.heap import (
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
    cases += [("I3", S) for S in oracles.seeded_relabellings(I3, "I3", 1)]
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


@pytest.mark.parametrize("name, total, count", [("I2", 102, 23), ("diamond", 64, 25)])
def test_sha_node_totals(zoo, name, total, count):
    # the root plus every partial vector that passes its level; I2 is read
    # from data/i2.json, the table behind the CLI's budget cases
    if name == "I2":
        S = io.read_semigroup(Path(__file__).resolve().parents[1] / "data" / "i2.json")
    else:
        S = zoo[name]
    assert len(enumerate_sha(S, budget=total)) == count
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_sha(S, budget=total - 1)
    assert (exc.value.nodes, exc.value.budget) == (total, total - 1)


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


def test_phi_formula(zoo):
    S = zoo["I2"]
    for eta in enumerate_sha(S):
        phi = sha_embed(S, eta).alpha
        for a in range(S.size):
            e = S.mul[S.inv[a]][a]
            assert phi[e] == S.mul[eta[e]][S.inv[eta[e]]]

