"""The ternary heap operation <a,b,c> = a b^-1 c and the monoid of ordered
self-maps preserving it, with its embedding into the holomorph.
"""

from .errors import NotHeapPreserving
from .holomorph import (
    HolElement,
    hol_action,
    hol_diamond,
    hol_from_mon,
    is_valid_hol,
    mon_diamond,
    mon_from_hol,
    mon_hol,
)
from .morphisms import DEFAULT_NODE_BUDGET, is_endomorphism, is_ordered_map, is_premorphism
from .report import CheckReport
from .search import assert_transformation_monoid, backtrack


def heap(S, a, b, c):
    return S.mul[S.mul[a][S.inv[b]]][c]


def is_heap_preserving(S, eta):
    mul, inv = S.mul, S.inv
    n = S.size
    for a in range(n):
        for b in range(n):
            ab = mul[a][inv[b]]
            hab = mul[eta[a]][inv[eta[b]]]
            for c in range(n):
                if eta[mul[ab][c]] != mul[hab][eta[c]]:
                    return False
    return True


class HeapMap:
    """An ordered heap-preserving self-map with its holomorph components."""

    def __init__(self, S, eta):
        self.S = S
        self.eta = tuple(eta)

    @property
    def phi(self):
        mul, inv = self.S.mul, self.S.inv
        return tuple(
            mul[self.eta[a]][inv[self.eta[mul[inv[a]][a]]]]
            for a in range(self.S.size)
        )

    @property
    def tau(self):
        return tuple(self.eta[e] for e in self.S.idempotents)

    def __eq__(self, other):
        return isinstance(other, HeapMap) and self.eta == other.eta

    def __hash__(self):
        return hash(self.eta)

    def __repr__(self):
        return f"HeapMap{self.eta}"


def _heap_check_schedule(S):
    """Triples (a,b,c) grouped by the level at which they become checkable
    (all of a, b, c and the heap value assigned)."""
    sched = [[] for _ in range(S.size)]
    for a in range(S.size):
        for b in range(S.size):
            for c in range(S.size):
                h = heap(S, a, b, c)
                sched[max(a, b, c, h)].append((a, b, c, h))
    return sched


def enumerate_sha(S, budget=DEFAULT_NODE_BUDGET):
    """All ordered heap-preserving self-maps, lexicographic by value vector.

    Depth-first over assignments in element order; a triple is checked as
    soon as its three arguments and its value are assigned, an order pair as
    soon as both sides are.  The result is asserted to be a monoid.
    """
    n = S.size
    mul, inv = S.mul, S.inv
    leq = S.natural_order().leq
    sched = _heap_check_schedule(S)
    order_pairs = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b and leq(a, b):
                order_pairs[max(a, b)].append((a, b))

    def ok_at(eta, k):
        for a, b in order_pairs[k]:
            if not leq(eta[a], eta[b]):
                return False
        for a, b, c, h in sched[k]:
            if eta[h] != mul[mul[eta[a]][inv[eta[b]]]][eta[c]]:
                return False
        return True

    vecs = backtrack([range(n)] * n, ok_at, budget)
    assert_transformation_monoid(vecs, "heap maps")
    return [HeapMap(S, eta) for eta in vecs]


def sha_embed(S, eta):
    """eta -> (phi_eta, eta restricted to idempotents), landing in Hol(S).

    Raises NotHeapPreserving unless eta is ordered and preserves the heap.
    Asserts the holomorph invariants of the image and that the holomorph
    action of the image reproduces eta pointwise.
    """
    if isinstance(eta, HeapMap):
        hm = eta
    else:
        eta = tuple(eta)
        if not (is_ordered_map(S, eta) and is_heap_preserving(S, eta)):
            raise NotHeapPreserving(f"map {eta} is not an ordered heap map")
        hm = HeapMap(S, eta)
    h = HolElement(hm.phi, hm.tau)
    assert is_premorphism(S, S, h.alpha), "phi of a heap map must be premorphic"
    assert is_valid_hol(S, h.alpha, h.tau)
    for s in range(S.size):
        assert hol_action(S, s, h) == hm.eta[s], (
            f"action of the embedded pair disagrees with the map at {s}"
        )
    return h


def bijective_heap_maps(sha):
    return [m for m in sha if len(set(m.eta)) == len(m.eta)]


def verify_sha_embedding(S, sha=None):
    """The embedding into the holomorph is injective and multiplicative."""
    rep = CheckReport(f"heap monoid embedding on {S!r}")
    if sha is None:
        sha = enumerate_sha(S)
    rep.add("sha_count", True, detail=f"|heap monoid| = {len(sha)}")
    by_eta = {m.eta: sha_embed(S, m) for m in sha}
    images = {}

    def injectivity_failures():
        for m in sha:
            h = by_eta[m.eta]
            if h in images:
                yield f"maps {images[h]} and {m.eta} share an image"
            images[h] = m.eta

    rep.first_failure("embedding_injective", injectivity_failures())

    rep.first_failure("embedding_multiplicative", (
        f"embedding not multiplicative at ({m1.eta},{m2.eta})"
        for m1 in sha
        for m2 in sha
        if by_eta[tuple(m2.eta[m1.eta[a]] for a in range(S.size))]
        != hol_diamond(S, by_eta[m1.eta], by_eta[m2.eta])
    ))

    mul, inv = S.mul, S.inv

    def range_idempotent_failures():
        for m in sha:
            phi = m.phi
            for a in range(S.size):
                e = mul[inv[a]][a]
                if phi[e] != mul[m.eta[e]][inv[m.eta[e]]]:
                    yield f"range-idempotent identity fails for {m.eta} at {a}"

    rep.first_failure("phi_on_range_idempotents", range_idempotent_failures())
    return rep


def verify_sha_monoid_iso(M, sha=None, mon=None):
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
    by_eta = {m.eta: mon_from_hol(M, sha_embed(M, m)) for m in sha}
    sub_set = set(sub)
    image = set()

    def forward_failures():
        for m in sha:
            a = by_eta[m.eta]
            if not is_endomorphism(M, a.alpha):
                yield f"embedded pair of {m.eta} has non-endomorphism first component"
            elif a not in sub_set:
                yield f"embedded pair of {m.eta} missing from the submonoid"
            image.add(a)

    rep.first_failure("image_in_submonoid", forward_failures())

    # backward: every endomorphism pair acts as a heap map
    def backward_failures():
        for a in sub:
            h = hol_from_mon(M, a)
            eta = tuple(hol_action(M, s, h) for s in range(M.size))
            if not (is_ordered_map(M, eta) and is_heap_preserving(M, eta)):
                yield f"pair {a} does not act as an ordered heap map"
            elif a not in image:
                yield f"pair {a} is not hit by the embedding"

    rep.first_failure("submonoid_in_image", backward_failures())

    # the bijection is an isomorphism of monoids
    rep.first_failure("monoid_isomorphism", (
        f"not multiplicative at ({m1.eta},{m2.eta})"
        for m1 in sha
        for m2 in sha
        if by_eta[tuple(m2.eta[m1.eta[x]] for x in range(M.size))]
        != mon_diamond(M, by_eta[m1.eta], by_eta[m2.eta])
    ))
    return rep
