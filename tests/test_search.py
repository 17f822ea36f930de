import random

import pytest

from invhol.errors import SearchBudgetExceeded
from invhol.heap import enumerate_sha
from invhol.morphisms import enumerate_endomorphisms, enumerate_premorphisms
from invhol.search import assert_transformation_monoid, backtrack

import oracles


def _increasing(vec, k):
    return k == 0 or vec[k - 1] < vec[k]


def test_backtrack_follows_candidate_order():
    assert backtrack([[2, 0, 1], [2, 1]], _increasing) == [(0, 2), (0, 1), (1, 2)]


def test_backtrack_counts_one_node_per_call():
    # depth first: root, 0, (0,1), (0,2), 1, (1,2), 2 -- seven nodes, and
    # all three vectors are found before the seventh
    assert len(backtrack([range(3), range(3)], _increasing, budget=7)) == 3
    with pytest.raises(SearchBudgetExceeded) as exc:
        backtrack([range(3), range(3)], _increasing, budget=6)
    assert (exc.value.nodes, exc.value.found, exc.value.budget) == (7, 3, 6)


def test_backtrack_empty_candidates_and_no_positions():
    assert backtrack([range(2), []], _increasing) == []
    assert backtrack([], _increasing) == [()]


def test_transformation_monoid_assertion():
    assert_transformation_monoid([(0, 1), (0, 0), (1, 1)], "maps")
    with pytest.raises(AssertionError, match="identity"):
        assert_transformation_monoid([(0, 0), (1, 1)], "maps")
    with pytest.raises(AssertionError, match="closed"):
        assert_transformation_monoid([(0, 1, 2), (1, 2, 2)], "maps")


def _transformation_monoids(zoo):
    for name, S in zoo.items():
        yield f"Prem({name})", "premorphisms", enumerate_premorphisms(S)
        yield f"End({name})", "endomorphisms", enumerate_endomorphisms(S)
        yield f"Sha({name})", "heap maps", enumerate_sha(S)


def test_transformation_monoid_assertion_matches_loop_oracle(zoo):
    # on the zoo's Prem, End and Sha, and on shuffled copies with one seeded
    # non-identity map dropped: the row-key closure check fails exactly when
    # the pair loop does, and on the same first pair (t1, t2)
    failed = 0
    for label, what, vecs in _transformation_monoids(zoo):
        assert oracles.closure_failure_by_loops(vecs) is None, label
        assert_transformation_monoid(vecs, what)
        rng = random.Random(label)
        others = [v for v in vecs if v != tuple(range(len(v)))]
        for drop in rng.sample(others, min(2, len(others))):
            rest = rng.sample([v for v in vecs if v != drop], len(vecs) - 1)
            w = oracles.closure_failure_by_loops(rest)
            if w is None:
                assert_transformation_monoid(rest, what)
                continue
            with pytest.raises(AssertionError) as exc:
                assert_transformation_monoid(rest, what)
            assert str(exc.value) == (
                f"{what} not closed under composition: {w[0]} then {w[1]}"), label
            failed += 1
    assert failed >= 20, failed
