"""The backtracking search behind the enumerations of value vectors, and
the integer-keyed row lookup for sets of them.

Premorphisms, endomorphisms and the tau halves of holomorph pairs are
vectors chosen position by position from candidate lists, pruned by a check
at the position just assigned.  The ordered heap maps are found by a forced
numpy search in heap.py instead, which counts its nodes the same way.
"""

import numpy as np

from .core import hits, row_blocks
from .errors import SearchBudgetExceeded

# a fold takes in columns while its codes stay below this bound
CODE_LIMIT = 1 << 62


def backtrack(candidates, ok_at, budget=None):
    """Every vector v with v[k] in candidates[k] and ok_at(v, k) true at each k.

    A callable candidates[k] is called with v, v[0..k-1] assigned, and
    returns the values to try there.  ok_at(v, k) sees v[0..k] assigned and
    must test only those entries.  Vectors come back as tuples in the order
    the candidates give.  One node is counted per call of the recursion, the
    root and each complete vector included; past `budget` nodes
    SearchBudgetExceeded is raised with the nodes visited and the vectors
    found so far.
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
        values = candidates[k]
        for v in values(vec) if callable(values) else values:
            vec[k] = v
            if ok_at(vec, k):
                rec(k + 1)

    rec(0)
    return out


def row_lookup(table):
    """A function taking each row of a query matrix to the index of the
    lowest equal row of `table`, or to -1.

    A row's key is an int64 code folded from its columns a few at a time,
    each column a digit over the range from 0, or the table's least value
    if lower, to its largest.  After each fold the code is replaced by its
    rank among the table's distinct codes, so the next fold starts below
    the number of distinct rows.  A query whose code no row has, or with a
    value outside that range, maps to -1.
    """
    table = np.asarray(table)
    rows, width = table.shape
    if rows == 0:
        return lambda queries: np.full(len(queries), -1, np.intp)
    lo, hi = int(table.min(initial=0)), int(table.max(initial=0))
    radix = hi - lo + 1

    def fold(code, matrix, start, stop):
        """code, in place, followed by the digits of the matrix's columns
        start..stop-1."""
        for column in matrix[:, start:stop].T:
            code *= radix
            code += column
        code -= lo * sum(radix ** j for j in range(stop - start))
        return code

    folds = []  # (first column, stop column, distinct codes)
    code, distinct, start = np.zeros(rows, np.int64), 1, 0
    while True:
        stop = start + 1
        while stop < width and distinct * radix ** (stop + 1 - start) <= CODE_LIMIT:
            stop += 1
        stop = min(stop, width)
        codes, first, code = _distinct(fold(code, table, start, stop))
        folds.append((start, stop, codes))
        distinct, start = len(codes), stop
        if stop == width:
            break

    def lookup(queries):
        queries = np.asarray(queries)
        miss = np.zeros(len(queries), bool)
        if queries.size and (queries.min() < lo or queries.max() > hi):
            for column in queries.T:
                miss |= (column < lo) | (column > hi)
        code = np.zeros(len(queries), np.int64)
        for start, stop, codes in folds:
            # a missed row's code may wrap around; it is -1 whatever it is
            rank = np.searchsorted(codes, fold(code, queries, start, stop))
            np.minimum(rank, len(codes) - 1, out=rank)
            miss |= codes[rank] != code
            code = rank
        found = first[code]
        found[miss] = -1
        return found

    return lookup


def _distinct(code):
    """The distinct values of ``code`` in increasing order, the index of the
    first entry equal to each, and the rank of each entry among them (what
    np.unique returns, without the numpy.ma import it makes)."""
    order = np.argsort(code, kind="stable")
    ordered = code[order]
    new = np.ones(len(code), bool)
    new[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(len(code), np.intp)
    rank[order] = np.cumsum(new) - 1
    return ordered[new], order[new], rank


def composite_rows(P):
    """For each block of rows of the value vectors P, the block and C with
    C[i, j] the row of P equal to row i then row j, P[j][P[i]], or -1 where
    no row of P is."""
    k, n = P.shape
    lookup = row_lookup(P)
    for rows in row_blocks(k, k * n):
        yield rows, lookup(P[:, P[rows]].reshape(-1, n)).reshape(k, -1).T


def assert_transformation_monoid(vecs, what):
    """Assert the self-maps `vecs` (value vectors) hold the identity and are
    closed under composition."""
    assert vecs and tuple(range(len(vecs[0]))) in vecs, (
        f"identity map is not among the {what}")
    for rows, C in composite_rows(np.array(vecs, np.int32)):
        for i, j in hits(C < 0):
            raise AssertionError(f"{what} not closed under composition: "
                                 f"{vecs[rows.start + i]} then {vecs[j]}")
