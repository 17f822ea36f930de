import pytest

from invhol.errors import NotHeapPreserving
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
        assert [m.eta for m in enumerate_sha(S)] == brute, name


def test_identity_always_in_sha(zoo):
    for S in zoo.values():
        if S.size <= 7:
            assert tuple(range(S.size)) in {m.eta for m in enumerate_sha(S)}


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
    for m in enumerate_sha(S):
        for a in range(S.size):
            e = S.mul[S.inv[a]][a]
            lhs = m.phi[e]
            rhs = S.mul[m.eta[e]][S.inv[m.eta[e]]]
            assert lhs == rhs

