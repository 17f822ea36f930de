import pytest

from invhol.errors import SearchBudgetExceeded
from invhol.search import assert_transformation_monoid, backtrack


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
