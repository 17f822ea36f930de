"""The backtracking search behind the enumerations of value vectors, and
the row-key lookup for sets of them.

Premorphisms, endomorphisms and the tau halves of holomorph pairs are
vectors chosen position by position from candidate lists, pruned by a check
at the position just assigned.  The ordered heap maps are found by a forced
numpy search in heap.py instead, which counts its nodes the same way.
"""

import numpy as np

from .errors import SearchBudgetExceeded


def backtrack(candidates, ok_at, budget=None):
    """Every vector v with v[k] in candidates[k] and ok_at(v, k) true at each k.

    ok_at(v, k) sees v[0..k] assigned and must test only those entries.
    Vectors come back as tuples in the order the candidate lists give.  One
    node is counted per call of the recursion, the root and each complete
    vector included; past `budget` nodes SearchBudgetExceeded is raised with
    the nodes visited and the vectors found so far.
    """
    n = len(candidates)
    vec = [None] * n
    out = []
    nodes = 0

    def rec(k):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(nodes, len(out), budget)
        if k == n:
            out.append(tuple(vec))
            return
        for v in candidates[k]:
            vec[k] = v
            if ok_at(vec, k):
                rec(k + 1)

    rec(0)
    return out


def row_lookup(table):
    """A function taking each row of a query matrix to the index of an equal
    row of `table`, or to -1.  Keys are the rows' big-endian int32 bytes as
    np.void, which sort lexicographically; rows need not come sorted."""
    def keys(rows):
        rows = np.ascontiguousarray(rows, ">i4")
        return rows.view(np.dtype((np.void, 4 * rows.shape[1])))[:, 0]

    order = np.argsort(keys(table), kind="stable")
    ordered = keys(table)[order]

    def lookup(queries):
        at = order[np.searchsorted(ordered, keys(queries)).clip(max=len(order) - 1)]
        return np.where((table[at] == queries).all(axis=1), at, -1)

    return lookup


def assert_transformation_monoid(vecs, what):
    """Assert the self-maps `vecs` (value vectors) hold the identity and are
    closed under composition: row j of P[:, P[i]] is vecs[i] then vecs[j]."""
    assert vecs and tuple(range(len(vecs[0]))) in vecs, (
        f"identity map is not among the {what}")
    P = np.array(vecs, np.int32)
    lookup = row_lookup(P)
    for i, t1 in enumerate(vecs):
        row = lookup(P[:, P[i]])  # -1 marks a missing composite
        assert row.min() >= 0, (
            f"{what} not closed under composition: {t1} then {vecs[row.argmin()]}")
