import random

import numpy as np
import pytest

from invhol.errors import SearchBudgetExceeded
from invhol.heap import enumerate_sha
from invhol.morphisms import enumerate_endomorphisms, enumerate_premorphisms
from invhol.search import assert_transformation_monoid, backtrack, row_lookup

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


def test_backtrack_calls_candidates_on_the_partial_vector():
    # position 1 takes the values above position 0's
    above = [range(3), lambda vec: range(vec[0] + 1, 3)]
    assert backtrack(above, lambda vec, k: True) == [(0, 1), (0, 2), (1, 2)]


def _lowest_rows(table):
    lowest = {}
    for i, row in enumerate(table.tolist()):
        lowest.setdefault(tuple(row), i)
    return lowest


def test_row_lookup_matches_dict_oracle():
    # random tables with duplicate rows, widths 1-40 and values below n; the
    # last case needs several folds (209 values in each of 34 columns).
    # Queries: every row, random rows, and rows of the table with one entry
    # set to -1 or to one past its column's largest value
    rng = np.random.default_rng(20261019)
    cases = [(int(rng.integers(1, 41)), int(rng.choice([2, 3, 7, 30]))) for _ in range(80)]
    for width, n in cases + [(34, 209), (1, 209), (40, 2)]:
        distinct = rng.integers(0, n, (int(rng.integers(1, 30)), width))
        table = distinct[rng.integers(0, len(distinct), int(rng.integers(1, 60)))].astype(np.int32)
        outside = np.repeat(table[:6], 2, axis=0)
        at = np.arange(len(outside)), rng.integers(0, width, len(outside))
        outside[at] = np.where(at[0] % 2, table.max(axis=0)[at[1]] + 1, -1)
        queries = np.vstack([table, rng.integers(0, n, (30, width)), outside])
        lowest = _lowest_rows(table)
        lookup = row_lookup(table)
        assert lookup(queries).tolist() == [lowest.get(tuple(q), -1) for q in queries.tolist()]
        assert (lookup(outside) == -1).all()
        assert lookup(np.empty((0, width), np.int32)).tolist() == []
    assert row_lookup(np.empty((0, 3), np.int32))(np.zeros((2, 3), np.int32)).tolist() == [-1, -1]
    # 256 values in 12 columns: one code over more than 7 of them would wrap
    # past 2^64 and lose the first column, the only one these rows differ in
    table = np.zeros((256, 12), np.int32)
    table[:, 0], table[:, -1] = np.arange(256), 255
    assert row_lookup(table)(table[::-1]).tolist() == list(range(255, -1, -1))


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
