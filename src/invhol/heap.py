"""The ternary heap operation <a,b,c> = a b^-1 c and the monoid of ordered
self-maps preserving it, with its embedding into the holomorph.
"""

import numpy as np

from .core import replay, row_blocks
from .errors import NotHeapPreserving, SearchBudgetExceeded
from .holomorph import (
    HolElement,
    alpha_ids,
    hol_action,
    hol_diamond,
    hol_from_mon,
    is_valid_hol,
    mon_diamond,
    mon_from_hol,
    mon_hol,
    pair_arrays,
    pair_diamonds,
    tau_positions,
)
from .morphisms import DEFAULT_NODE_BUDGET, is_endomorphism, is_premorphism
from .report import CheckReport
from .search import assert_transformation_monoid, composite_rows


def heap(S, a, b, c):
    return S.mul[S.mul[a][S.inv[b]]][c]


def is_heap_preserving(S, eta):
    """eta(a b^-1 c) == eta(a) eta(b)^-1 eta(c) for every triple, one gather
    of the table per block of rows a."""
    M, I, e = S.mul_array, S.inv_array, np.asarray(eta, np.intp)
    ab, hab = M[:, I], M[e][:, I[e]]
    return all(
        (e[M[ab[rows]]] == M[hab[rows]][:, :, e]).all()
        for rows in row_blocks(S.size, S.size * S.size)
    )


def _forcing_plan(S):
    """The order in which enumerate_sha places the elements, and what each
    level checks.

    The smallest unplaced element is a branching position; the placed set is
    then closed under <a,b,c>, each newly reached element appended in
    ascending order as a derived position with its first witness (a, b, c)
    among the elements placed before it.  Every heap triple (a, b, c, h) and
    every strict order pair a < b is checked at the level of its last-placed
    member.  Returns (order, witnesses, pairs, triples): witnesses[k] is None
    at a branching level, pairs[k] is (A, B) and triples[k] is (A, B, C, H),
    arrays of element indices.
    """
    n = S.size
    mul = S.mul_array.astype(np.int32)
    H = mul[mul[:, S.inv_array]]                    # H[a, b, c] = <a, b, c>
    placed = np.zeros(n, bool)
    order, witnesses = [], []
    while len(order) < n:
        order.append(int(placed.argmin()))
        witnesses.append(None)
        placed[order[-1]] = True
        while True:
            P = placed.nonzero()[0]
            reached = H[P][:, P][:, :, P].ravel()
            new = np.zeros(n, bool)
            new[reached] = True
            new &= ~placed
            if not new.any():
                break
            k = len(P)
            for h in new.nonzero()[0].tolist():
                i = int((reached == h).argmax())
                order.append(h)
                witnesses.append((int(P[i // (k * k)]), int(P[i // k % k]), int(P[i % k])))
            placed |= new

    rank = np.empty(n, np.int32)
    rank[order] = np.arange(n)

    def by_level(levels):
        """The indices of `levels`, grouped by level and ascending within one."""
        by = levels.argsort(kind="stable")
        bounds = levels[by].searchsorted(np.arange(n + 1)).tolist()
        return [by[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    levels = np.maximum(np.maximum(rank[:, None], rank)[:, :, None], rank)
    np.maximum(levels, rank[H], out=levels)
    triples = [
        tuple(x.astype(np.int32) for x in (t // (n * n), t // n % n, t % n, H.ravel()[t]))
        for t in by_level(levels.ravel())
    ]
    lo, hi = (S.natural_order().array & (np.arange(n)[:, None] != np.arange(n))).nonzero()
    pairs = [(lo[i], hi[i]) for i in by_level(np.maximum(rank[lo], rank[hi]))]
    return order, witnesses, pairs, triples


def enumerate_sha(S, budget=DEFAULT_NODE_BUDGET):
    """All ordered heap-preserving self-maps as value vectors, in
    lexicographic order.

    Once eta(a), eta(b) and eta(c) are fixed, eta(<a,b,c>) is forced, so the
    search branches only on the branching positions of _forcing_plan and
    fills each derived position with one gather.  It runs depth first over
    blocks of partial vectors (int32 rows indexed by element, at most
    core.BLOCK_ENTRIES entries per gather); a level keeps the rows that pass
    its order pairs and then its heap triples, the triples tested in slices
    of 16, 32, 64, ... so that most wrong rows die on a short prefix.

    The branching positions ascend and every element below one is placed
    before it, so the blocks, each branched in value order, come out in
    lexicographic order without a sort.  One node is counted for the root and
    one for each partial vector that passes its level, as search.backtrack
    counts; past `budget` nodes SearchBudgetExceeded is raised with the
    vectors found so far.  The result is asserted to be a monoid.
    """
    n = S.size
    mul = S.mul_array.astype(np.int32)
    # flat gathers: mul[Q[x, y], z] is mul_flat[Qn[x * n + y] + z]
    mul_flat = mul.ravel()
    Qn = (mul[:, S.inv_array] * n).ravel()
    leq = S.natural_order().array
    order, witnesses, pairs, triples = _forcing_plan(S)
    values = np.arange(n, dtype=np.int32)
    found = []
    nodes = 0

    def heap_of(R, a, b, c):
        """<R[:, a], R[:, b], R[:, c]> for each row of R."""
        return mul_flat[Qn[R[:, a] * n + R[:, b]] + R[:, c]]

    def keep(R, width, ok):
        """The rows of R on which ok holds, tested a row block at a time."""
        mask = np.empty(len(R), bool)
        for rows in row_blocks(len(R), width):
            mask[rows] = ok(R[rows])
        return R[mask]

    def passing(R, k):
        # a <= b iff a = <a, a, b>, so the order pairs are implied by the
        # triples; they go first as the cheaper filter
        A, B = pairs[k]
        if len(A):
            R = keep(R, len(A), lambda X: leq[X[:, A], X[:, B]].all(axis=1))
        A, B, C, Hs = triples[k]
        lo, step = 0, 16
        while lo < len(A) and len(R):
            cut = slice(lo, lo + step)
            a, b, c, h = A[cut], B[cut], C[cut], Hs[cut]
            R = keep(R, len(a), lambda X: (heap_of(X, a, b, c) == X[:, h]).all(axis=1))
            lo, step = lo + step, 2 * step
        return R

    def visit(R):
        nonlocal nodes
        nodes += len(R)
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(budget + 1, sum(map(len, found)), budget)

    def branch(R, pos):
        """Each row of R once with every value at pos, in value order."""
        X = R.repeat(n, axis=0)
        X.reshape(-1, n, n)[:, :, pos] = values
        return X

    def descend(k, R):
        if not len(R):
            return
        if k == n:
            found.append(R)
            return
        if witnesses[k] is None:
            blocks = (branch(R[rows], order[k]) for rows in row_blocks(len(R), n * n))
        else:
            R[:, order[k]] = heap_of(R, *witnesses[k])
            blocks = [R]
        for X in blocks:
            X = passing(X, k)
            visit(X)
            descend(k + 1, X)

    root = np.zeros((1, n), np.int32)
    visit(root)
    descend(0, root)
    vecs = [tuple(row) for row in np.concatenate(found).tolist()]
    assert_transformation_monoid(vecs, "heap maps")
    return vecs


def sha_embed(S, eta):
    """eta -> (phi_eta, eta restricted to idempotents), landing in Hol(S).

    Raises NotHeapPreserving unless eta preserves the heap; such a map is
    ordered, because a <= b iff a = <a, a, b>.  Asserts the holomorph
    invariants of the image and that the holomorph action of the image
    reproduces eta pointwise.
    """
    eta = tuple(eta)
    if not is_heap_preserving(S, eta):
        raise NotHeapPreserving(f"map {eta} is not an ordered heap map")
    return embed(S, eta)


def embed(S, eta):
    """sha_embed of a map already known to preserve the heap, such as one of
    enumerate_sha: phi_eta is a -> eta(a) eta(a^-1 a)^-1."""
    mul, inv = S.mul, S.inv
    phi = tuple(mul[eta[a]][inv[eta[mul[inv[a]][a]]]] for a in range(S.size))
    h = HolElement(phi, tuple(eta[e] for e in S.idempotents))
    assert is_premorphism(S, S, h.alpha), "phi of a heap map must be premorphic"
    assert is_valid_hol(S, h.alpha, h.tau)
    for s in range(S.size):
        assert hol_action(S, s, h) == eta[s], (
            f"action of the embedded pair disagrees with the map at {s}"
        )
    return h


def bijective_heap_maps(sha):
    return [eta for eta in sha if len(set(eta)) == len(eta)]


def multiplicative_failures(S, sha, by_eta, A, T, R, diamond, witness):
    """The pairs (e1, e2) of ``sha``, in loop order, where by_eta of the
    composite e1 then e2 is not diamond(S, by_eta of e1, by_eta of e2), as
    ``witness`` texts; a composite outside ``sha`` raises KeyError.  A sweep
    flags the e1 to replay the loop at: composite j of i is C[i, j] of
    composite_rows, and its image, row j of the alphas A beside the rest T,
    keyed by alpha_ids, must be that of pair_diamonds with R."""
    n, k = S.size, len(sha)
    mul = S.mul_array.astype(np.int32)
    ids, alpha = alpha_ids(A)
    keyed = np.column_stack([ids, T])
    flagged = np.zeros(k, bool)
    for rows, C in composite_rows(np.array(sha, np.int32).reshape(k, n)):
        diamonds = pair_diamonds(mul, R, A, T, ids, alpha, rows).transpose(1, 0, 2)
        flagged[rows] = ((C < 0) | (keyed[C] != diamonds).any(axis=2)).any(axis=1)

    def failures(i):
        e1 = sha[i]
        for e2 in sha:
            if by_eta[tuple(e2[a] for a in e1)] != diamond(S, by_eta[e1], by_eta[e2]):
                yield witness.format(e1, e2)

    return replay(flagged, failures)


def verify_sha_embedding(S, sha=None, by_eta=None):
    """The embedding into the holomorph is injective and multiplicative."""
    rep = CheckReport(f"heap monoid embedding on {S!r}")
    if sha is None:
        sha = enumerate_sha(S)
    rep.add("sha_count", True, detail=f"|heap monoid| = {len(sha)}")
    by_eta = by_eta or {eta: embed(S, eta) for eta in sha}
    images = {}

    def injectivity_failures():
        for eta in sha:
            h = by_eta[eta]
            if h in images:
                yield f"maps {images[h]} and {eta} share an image"
            images[h] = eta

    rep.first_failure("embedding_injective", injectivity_failures())

    rep.first_failure("embedding_multiplicative", multiplicative_failures(
        S, sha, by_eta, *pair_arrays(S, [by_eta[eta] for eta in sha]),
        tau_positions(S), hol_diamond, "embedding not multiplicative at ({},{})"))

    mul, inv = S.mul, S.inv

    def range_idempotent_failures():
        for eta in sha:
            phi = by_eta[eta].alpha
            for a in range(S.size):
                e = mul[inv[a]][a]
                if phi[e] != mul[eta[e]][inv[eta[e]]]:
                    yield f"range-idempotent identity fails for {eta} at {a}"

    rep.first_failure("phi_on_range_idempotents", range_idempotent_failures())
    return rep


def verify_sha_monoid_iso(M, sha=None, mon=None, by_eta=None):
    """For an inverse monoid, the heap monoid is exactly the submonoid of
    compressed holomorph pairs whose first component is an endomorphism."""
    rep = CheckReport(f"heap monoid vs endomorphism pairs on {M!r}")
    if M.identity is None:
        rep.add("is_monoid", False, "no identity element")
        return rep
    if sha is None:
        sha = enumerate_sha(M)
    if mon is None:
        mon = mon_hol(M)
    sub = [a for a in mon if is_endomorphism(M, a.alpha)]
    rep.add(
        "counts",
        len(sub) == len(sha),
        None if len(sub) == len(sha) else f"|End x M| = {len(sub)} vs |Sha| = {len(sha)}",
        detail=f"{len(sha)} heap maps, {len(sub)} endomorphism pairs",
    )

    # forward: every heap map embeds onto an endomorphism pair
    by_eta = {eta: mon_from_hol(M, by_eta[eta] if by_eta else embed(M, eta)) for eta in sha}
    sub_set = set(sub)
    image = set()

    def forward_failures():
        for eta in sha:
            a = by_eta[eta]
            if not is_endomorphism(M, a.alpha):
                yield f"embedded pair of {eta} has non-endomorphism first component"
            elif a not in sub_set:
                yield f"embedded pair of {eta} missing from the submonoid"
            image.add(a)

    rep.first_failure("image_in_submonoid", forward_failures())

    # backward: every endomorphism pair acts as a heap map
    def backward_failures():
        for a in sub:
            h = hol_from_mon(M, a)
            eta = tuple(hol_action(M, s, h) for s in range(M.size))
            # a heap-preserving map is ordered: a <= b iff a = <a, a, b>
            if not is_heap_preserving(M, eta):
                yield f"pair {a} does not act as an ordered heap map"
            elif a not in image:
                yield f"pair {a} is not hit by the embedding"

    rep.first_failure("submonoid_in_image", backward_failures())

    # the bijection is an isomorphism of monoids
    pairs = np.array([by_eta[eta].alpha + (by_eta[eta].m,) for eta in sha], np.int32)
    rep.first_failure("monoid_isomorphism", multiplicative_failures(
        M, sha, by_eta, *np.hsplit(pairs.reshape(len(sha), M.size + 1), [M.size]),
        np.zeros(M.size, np.intp), mon_diamond, "not multiplicative at ({},{})"))
    return rep
