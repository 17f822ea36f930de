"""The one backtracking search behind every enumeration of value vectors.

Premorphisms, endomorphisms, ordered heap maps and the tau halves of
holomorph pairs are all vectors chosen position by position from candidate
lists, pruned by a check at the position just assigned.
"""

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


def assert_transformation_monoid(vecs, what):
    """Assert the self-maps `vecs` (value vectors) hold the identity and are
    closed under composition."""
    found = set(vecs)
    assert vecs and tuple(range(len(vecs[0]))) in found, (
        f"identity map is not among the {what}"
    )
    for t1 in vecs:
        for t2 in vecs:
            assert tuple(map(t2.__getitem__, t1)) in found, (
                f"{what} not closed under composition: {t1} then {t2}"
            )
