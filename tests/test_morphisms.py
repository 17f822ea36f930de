from itertools import product

import pytest

from invhol import core
from invhol.catalog import two_chain_clifford, z2_with_zero_clifford
from invhol.errors import NotSemilatticeOfGroups, SearchBudgetExceeded
from invhol.heap import enumerate_sha
from invhol.morphisms import (
    enumerate_endomorphisms,
    enumerate_premorphisms,
    is_endomorphism,
    is_premorphism,
    sog_premorphism_data,
    verify_premorphism_laws,
)

import oracles

PREM_COUNTS = {
    "trivial": 1,
    "Z2": 2,
    "Z3": 3,
    "Z4": 4,
    "Z5": 5,
    "Z6": 6,
    "V4": 16,
    "S3": 10,
    "chain2": 3,
    "chain3": 10,
    "chain4": 35,
    "diamond": 36,
    "I1": 3,
    "I2": 20,
    "clifford4": 6,
    "clifford3": 4,
}


def test_identity_is_premorphism(zoo):
    for S in zoo.values():
        assert is_premorphism(S, S, range(S.size), diagnostics=True)


def test_constant_to_zero_is_premorphism(zoo):
    for name in ["chain2", "I2", "clifford3"]:
        S = zoo[name]
        theta = [S.zero] * S.size
        assert is_premorphism(S, S, theta, diagnostics=True)


def test_transposition_on_z2_is_not_premorphism(zoo):
    S = zoo["Z2"]
    assert not is_premorphism(S, S, (1, 0))


def test_constant_maps_to_idempotents_are_premorphisms(zoo):
    for S in zoo.values():
        for e in S.idempotents:
            assert is_premorphism(S, S, (e,) * S.size)


def test_enumeration_counts(zoo):
    for name, count in PREM_COUNTS.items():
        assert len(enumerate_premorphisms(zoo[name])) == count, name


def test_enumeration_matches_naive_filter(zoo):
    for name in ["trivial", "Z2", "Z3", "chain2", "chain3", "clifford4", "diamond"]:
        S = zoo[name]
        dfs = enumerate_premorphisms(S)
        assert dfs == sorted(oracles.premorphisms_by_filter(S)), name


def test_enumeration_order_is_lexicographic(zoo):
    for name in ["chain3", "clifford4"]:
        thetas = enumerate_premorphisms(zoo[name])
        assert thetas == sorted(thetas)


def test_two_chain_premorphisms_explicit(zoo):
    thetas = set(enumerate_premorphisms(zoo["chain2"]))
    assert thetas == {(0, 1), (0, 0), (1, 1)}


def test_group_premorphisms_are_endomorphisms(zoo):
    for name in ["Z2", "Z3", "Z4", "V4", "S3"]:
        S = zoo[name]
        prems = enumerate_premorphisms(S)
        assert all(is_endomorphism(S, t) for t in prems), name
        assert prems == sorted(oracles.endomorphisms_by_filter(S))


def test_premorphism_laws(zoo):
    for name, S in zoo.items():
        rep = verify_premorphism_laws(S)
        assert rep.ok, f"{name}: {rep.render()}"


def test_is_endomorphism_basic(zoo):
    S = zoo["I2"]
    assert is_endomorphism(S, tuple(range(S.size)))
    nonidem = next(a for a in range(S.size) if not S.is_idempotent[a])
    assert not is_endomorphism(S, (nonidem,) * S.size)


def test_endomorphisms_subset_of_premorphisms(zoo):
    for name in ["chain3", "diamond", "I2", "clifford4"]:
        S = zoo[name]
        prems = set(enumerate_premorphisms(S))
        endos = set(enumerate_endomorphisms(S))
        assert endos <= prems <= set(oracles.ordered_maps_by_filter(S)), name


def test_chain2_map_predicates(zoo):
    S = zoo["chain2"]
    ordered = oracles.ordered_maps_by_filter(S)
    assert (0, 0) in ordered and is_premorphism(S, S, (0, 0)) and is_endomorphism(S, (0, 0))
    assert (1, 0) not in ordered and not is_premorphism(S, S, (1, 0))


def test_endomorphisms_match_filter_oracle(zoo):
    for name, S in zoo.items():
        if S.size <= 6:
            endos = enumerate_endomorphisms(S)
            assert endos == oracles.endomorphisms_by_filter(S), name


@pytest.mark.parametrize(
    "search",
    [enumerate_premorphisms, enumerate_endomorphisms, enumerate_sha],
    ids=["premorphisms", "endomorphisms", "sha"],
)
def test_search_budget(zoo, search):
    # the search stops on the first node past the budget
    for budget in [1, 10, 50]:
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(zoo["I2"], budget=budget)
        assert (exc.value.nodes, exc.value.budget) == (budget + 1, budget)


def _i2_times_chain2():
    return core.direct_product(core.build_symmetric_inverse_monoid(2), core.chain_semilattice(2))


def test_searches_match_element_order_search(zoo):
    # idempotents first, then each element with its inverse, finds exactly
    # the maps of the element-order reference, in the same order
    cases = dict(zoo, I2xchain2=_i2_times_chain2())
    for name, S in cases.items():
        assert enumerate_premorphisms(S) == oracles.premorphisms_by_element_order(S), name
        assert enumerate_endomorphisms(S) == oracles.endomorphisms_by_element_order(S), name
    assert len(enumerate_premorphisms(cases["I2xchain2"])) == 1130


def _moved(vecs, p):
    """The value vectors vecs carried across the relabelling p, sorted."""
    back = sorted(range(len(p)), key=p.__getitem__)
    return sorted(tuple(p[theta[a]] for a in back) for theta in vecs)


# the element-order search is heavy-tailed in the labelling: on the other
# relabellings of these six it takes from seconds to minutes
@pytest.mark.parametrize("name, build, degree, compared, counts", [
    ("I3", core.build_symmetric_inverse_monoid, 3, (6,), (191, 54)),
    ("S4", core.symmetric_group, 4, (1, 2, 4), (58, 58)),
], ids=["I3", "S4"])
def test_relabelled_searches_match_element_order_search(name, build, degree, compared, counts):
    # on six seeded relabellings the search finds the catalogue labelling's
    # maps carried across, and where the element-order search finishes, its
    # maps: this pins the catalogue labelling's maps to the reference too
    S = build(degree)
    prems, endos = enumerate_premorphisms(S), enumerate_endomorphisms(S)
    assert (len(prems), len(endos)) == counts
    for seed in range(1, 7):
        p = oracles.seeded_permutation(S.size, name, seed)
        T = oracles.relabelled(S, p)
        assert enumerate_premorphisms(T) == _moved(prems, p), seed
        assert enumerate_endomorphisms(T) == _moved(endos, p), seed
        if seed in compared:
            assert oracles.premorphisms_by_element_order(T) == _moved(prems, p), seed
            assert oracles.endomorphisms_by_element_order(T) == _moved(endos, p), seed


def test_i3_search_fits_a_budget_the_element_order_exhausts():
    # 46,916 nodes; the element-order search has found 20 of the 191 by then
    S = core.build_symmetric_inverse_monoid(3)
    assert len(enumerate_premorphisms(S, budget=50_000)) == 191
    with pytest.raises(SearchBudgetExceeded) as exc:
        oracles.premorphisms_by_element_order(S, budget=50_000)
    assert exc.value.found < 191


def test_sog_identity_premorphism():
    sog = two_chain_clifford()
    S = sog.semigroup
    data = sog_premorphism_data(sog, tuple(range(S.size)))
    assert data.lam == (0, 1)
    assert all(data.phi[e] == tuple(range(2)) for e in range(2))
    assert data.sigma == tuple(range(S.size))


def test_sog_collapse_premorphism():
    sog = two_chain_clifford()
    S = sog.semigroup
    # push the top group onto the bottom one along the linking map
    theta = [0] * S.size
    for g in range(2):
        theta[sog.element(0, g)] = sog.element(1, sog.linking[(0, 1)][g])
        theta[sog.element(1, g)] = sog.element(1, g)
    assert is_premorphism(S, S, theta)
    data = sog_premorphism_data(sog, tuple(theta))
    assert data.lam == (1, 1)


def test_sog_data_for_every_premorphism():
    for sog in [two_chain_clifford(), z2_with_zero_clifford()]:
        S = sog.semigroup
        for m in enumerate_premorphisms(S):
            data = sog_premorphism_data(sog, m)
            k = sog.num_components
            for e in range(k):
                for f in range(k):
                    if sog.spec.leq[f][e]:
                        assert sog.spec.leq[data.lam[f]][data.lam[e]]


def test_sog_rejects_plain_semigroup(zoo):
    with pytest.raises(NotSemilatticeOfGroups):
        sog_premorphism_data(zoo["Z2"], (0, 1))


def _order_preserving_maps(leq, k):
    for lam in product(range(k), repeat=k):
        if all(
            leq[lam[f]][lam[e]]
            for e in range(k)
            for f in range(k)
            if leq[f][e]
        ):
            yield lam


def _group_homs(table_a, table_b):
    na, nb = len(table_a), len(table_b)
    for phi in product(range(nb), repeat=na):
        if all(
            phi[table_a[g][h]] == table_b[phi[g]][phi[h]]
            for g in range(na)
            for h in range(na)
        ):
            yield phi


def test_premorphism_count_matches_pair_data_oracle():
    """Premorphisms of a semilattice of groups are exactly the compatible
    (lambda, phi) pairs, counted independently."""
    for sog in [two_chain_clifford(), z2_with_zero_clifford()]:
        S = sog.semigroup
        spec = sog.spec
        k = sog.num_components
        count = 0
        for lam in _order_preserving_maps(spec.leq, k):
            for phis in product(
                *[
                    list(_group_homs(spec.group_tables[e], spec.group_tables[lam[e]]))
                    for e in range(k)
                ]
            ):
                ok = True
                for e in range(k):
                    for f in range(k):
                        if spec.leq[f][e]:
                            for g in range(len(spec.group_tables[e])):
                                lhs = sog.linking[(lam[e], lam[f])][phis[e][g]]
                                rhs = phis[f][sog.linking[(e, f)][g]]
                                if lhs != rhs:
                                    ok = False
                                    break
                            if not ok:
                                break
                    if not ok:
                        break
                if ok:
                    count += 1
        assert count == len(enumerate_premorphisms(S))
