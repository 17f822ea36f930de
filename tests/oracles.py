"""Independent brute-force oracles used to pin expected values.

The searches here enumerate the raw function space and filter by the
defining property directly, bypassing the library's pruned searches; the
plain loops, the heap-preservation triple loop, the element-order
premorphism and heap searches, the flow pair loops with the explicit wreath
table, the interning polycyclic window sweep, the polycyclic endo, functor
and heap sweeps on strings, the functor check's composite objects, the
bicyclic checks' scalar loops and the order-first functor classifier are the
code that the library's numpy sweeps and gathers, inductive-groupoid order,
forced heap search, composable-arrow flow checks, word-code sweeps,
composition helper, pair-array sweeps and one-member comparison replaced,
kept as references.
A hypothesis strategy draws random inverse subsemigroups of I_n.
"""

import operator
import random
import re
from functools import lru_cache
from itertools import permutations, product
from string import ascii_lowercase
from types import SimpleNamespace

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from invhol.core import build_from_table, first_nonassociative
from invhol.errors import (
    NotAssociative,
    NotBelowDomain,
    NotIdempotent,
    NotInductive,
    NotInverse,
    ParseError,
)
from invhol.groupoid import (
    DEFAULT_FLOW_CAP,
    OrderedGroupoid,
    component_subgroupoid,
    connected_components,
    enumerate_flows,
    flow_compose,
    verify_ordered_groupoid,
)
from invhol.heap import embed, enumerate_sha
from invhol.holomorph import (
    HolElement,
    enumerate_holomorph,
    hol_action,
    hol_diamond,
    hol_from_mon,
    hol_groupoid_compose,
    hol_identity,
    is_valid_hol,
    mon_diamond,
    mon_from_hol,
    mon_hol,
    target_premorphism,
)
from invhol.io import _dump, _load
from invhol.morphisms import is_endomorphism
from invhol.errors import NotSuffixPreserving, WindowExceeded
from invhol.report import CheckReport
from invhol.search import backtrack
from invhol.polycyclic import (
    AffineNat,
    AffineWordMap,
    Classification,
    _encode,
    _inv,
    _mul,
    bicyclic_endo,
    bicyclic_inv,
    bicyclic_mul,
    bicyclic_to_poly,
    is_suffix_code,
    letters,
    pair_leq,
    poly_window,
    rewrite_mul,
    word_leq,
    words_upto,
)


def all_self_maps(n):
    return product(range(n), repeat=n)


def is_multiplicative_map(S, theta):
    return all(
        theta[S.mul[a][b]] == S.mul[theta[a]][theta[b]]
        for a in range(S.size)
        for b in range(S.size)
    )


def _function_space(n):
    """Every self-map of range(n) as a row, rows in lexicographic order."""
    return np.indices((n,) * n, np.int8).reshape(n, -1).T


def self_maps_where(S, holds):
    """Every self-map t of S, as tuples in lexicographic order, with
    holds(t(ab), t(a) t(b)) true at every (a, b): the whole function space
    as one array, filtered by one numpy comparison per (a, b)."""
    n, mul = S.size, S.mul_array
    T = _function_space(n)
    for a in range(n):
        for b in range(n):
            T = T[holds(T[:, mul[a, b]], mul[T[:, a], T[:, b]])]
    return list(map(tuple, T.tolist()))


def ordered_maps_by_filter(S):
    """Every self-map t of S with a <= b implying t(a) <= t(b), as tuples in
    lexicographic order, filtered as self_maps_where does."""
    leq = S.natural_order().array
    T = _function_space(S.size)
    for a, b in zip(*leq.nonzero()):
        T = T[leq[T[:, a], T[:, b]]]
    return list(map(tuple, T.tolist()))


def premorphisms_by_filter(S):
    leq = S.natural_order().array
    return self_maps_where(S, lambda ab, a_b: leq[ab, a_b])


def automorphisms_by_filter(S):
    """All bijections that are multiplicative, found from raw permutations."""
    out = []
    for p in permutations(range(S.size)):
        if is_multiplicative_map(S, p):
            out.append(p)
    return out


def endomorphisms_by_filter(S):
    return self_maps_where(S, lambda ab, a_b: ab == a_b)


def first_nonassociative_by_loops(elems, product):
    """The first index triple (i, j, k), in lexicographic order, with
    (x_i x_j) x_k != x_i (x_j x_k), by a plain triple loop over the products."""
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            for k, z in enumerate(elems):
                if product(product(x, y), z) != product(x, product(y, z)):
                    return (i, j, k)
    return None


def closure_under_products(mul, gens):
    """Every element that products of two reached elements reach from
    ``gens``, by a plain loop until nothing new is reached."""
    reached = set(gens)
    while new := {mul[a][b] for a in reached for b in reached} - reached:
        reached |= new
    return reached


def holomorph_pairs_by_filter(S):
    """Every holomorph pair (alpha, tau), sorted, with tau listed over
    S.idempotents: each map from premorphisms_by_filter times every map
    E -> S with (e tau)(e tau)^-1 = e alpha at each idempotent e (a
    condition on each value alone, so the values are drawn from the
    elements that meet it), kept when e <= f implies e tau <= f tau."""
    leq = S.natural_order().leq
    E = S.idempotents
    out = []
    for alpha in premorphisms_by_filter(S):
        domain = [[t for t in range(S.size) if S.mul[t][S.inv[t]] == alpha[e]] for e in E]
        for tau in product(*domain):
            if all(
                leq(tau[i], tau[j])
                for i, e in enumerate(E)
                for j, f in enumerate(E)
                if leq(e, f)
            ):
                out.append((alpha, tau))
    return sorted(out)


def relabelled(S, p):
    """S with element a moved to position p[a]: the product of p[a] and
    p[b] is p[ab]."""
    n = S.size
    names, mul = [None] * n, [[0] * n for _ in range(n)]
    for a in range(n):
        names[p[a]] = S.names[a]
        for b in range(n):
            mul[p[a]][p[b]] = p[S.mul[a][b]]
    return build_from_table(names, mul)


def seeded_permutation(n, name, seed):
    """The permutation of range(n) that random.Random(f"{name}/{seed}") shuffles."""
    p = list(range(n))
    random.Random(f"{name}/{seed}").shuffle(p)
    return p


def seeded_relabellings(S, name, count):
    """`count` relabelled copies of S, the i-th (from 1) by
    seeded_permutation(S.size, name, i)."""
    for seed in range(1, count + 1):
        yield relabelled(S, seeded_permutation(S.size, name, seed))


def hol_table_by_diamonds(S, hol):
    """The diamond table of the pairs `hol`, one hol_diamond call per entry:
    entry (i, j) is the position of hol[i] <> hol[j] in `hol`, -1 where that
    diamond is not in the list."""
    index = {h: i for i, h in enumerate(hol)}
    return np.array(
        [[index.get(hol_diamond(S, a, b), -1) for b in hol] for a in hol], np.int32
    ).reshape(len(hol), len(hol))


def closure_failure_by_loops(vecs):
    """The first pair (t1, t2) of value vectors, t1 in the outer loop, whose
    composite t1 then t2 is not in `vecs`, or None."""
    found = set(vecs)
    for t1 in vecs:
        for t2 in vecs:
            if tuple(t2[a] for a in t1) not in found:
                return t1, t2
    return None


def holomorph_units_by_definition(S, table):
    """The pairs i with some j such that i <> j and j <> i are both the
    identity pair, reading the diamond table entry by entry."""
    D = table.diamond.tolist()
    e = table.index[hol_identity(S)]
    n = len(table.pairs)
    return [
        table.pairs[i]
        for i in range(n)
        if any(D[i][j] == e and D[j][i] == e for j in range(n))
    ]


def monoid_action_witness(S, table):
    """The first (s, i, j), in that loop order, with
    s <| (pairs[i] <> pairs[j]) != (s <| pairs[i]) <| pairs[j], the product
    read from the table and each action computed by hol_action; as the
    report's witness text, or None."""
    hol, D = table.pairs, table.diamond.tolist()
    for s in range(S.size):
        for i in range(len(hol)):
            for j in range(len(hol)):
                if hol_action(S, s, hol[D[i][j]]) != hol_action(
                    S, hol_action(S, s, hol[i]), hol[j]
                ):
                    return f"action property fails at s={s}, pair ({i},{j})"
    return None


def tau_recovery_witness(S, hol):
    """The first pair h, in list order, and idempotent e, in S.idempotents
    order, with e tau != (e alpha)(m tau) for m the first maximal idempotent
    above e; as the report's witness text, or None."""
    leq = S.natural_order().leq
    E, pos = S.idempotents, S.idempotent_position
    maximal = [e for e in E if not any(leq(e, f) and e != f for f in E)]
    for h in hol:
        for e in E:
            m = next(m for m in maximal if leq(e, m))
            if S.mul[h.alpha[e]][h.tau[pos[m]]] != h.tau[pos[e]]:
                return f"tau of {h} not recovered at idempotent {e}"
    return None


def interchange_sweep(S, table):
    """The interchange law by a plain loop: over composable pairs (i, j),
    then (k, l), each in row order, compare the diamond of the two groupoid
    composites with the groupoid composite of the two diamonds, the
    composites found by hol_groupoid_compose.  Returns the first failing
    quadruple as the report's witness text (or None) and the number of
    quadruples checked up to and including it."""
    hol, D = table.pairs, table.diamond.tolist()
    gcomp = {}
    for i, h in enumerate(hol):
        for j, g in enumerate(hol):
            c = hol_groupoid_compose(S, h, g)
            if c is not None:
                gcomp[i, j] = table.index[c]
    checked = 0
    for (i, j), ij in gcomp.items():
        for (k, l), kl in gcomp.items():
            checked += 1
            right = gcomp.get((D[i][k], D[j][l]))
            if right is None or D[ij][kl] != right:
                return f"quadruple ({i},{j},{k},{l})", checked
    return None, checked


def hol_inverse_arrow(S, h):
    """The groupoid inverse of h: the pointwise-inverted transformation,
    based at the target functor of h."""
    beta = target_premorphism(S, h)
    return HolElement(beta, tuple(S.inv[t] for t in h.tau))


def mon_hol_report_by_loops(M, hol=None, mon=None):
    """holomorph.verify_mon_hol by pair loops over the list ``hol``: every
    compressed pair is expanded once and every compressed diamond computed
    once, and each Hol diamond is computed by hol_diamond."""
    rep = CheckReport(f"inverse-monoid holomorph form on {M!r}")
    if hol is None:
        hol = enumerate_holomorph(M)
    if mon is None:
        mon = mon_hol(M)
    rep.add(
        "counts_match",
        len(hol) == len(mon),
        None if len(hol) == len(mon) else f"{len(hol)} != {len(mon)}",
        detail=f"{len(mon)} compressed pairs",
    )

    # a diamond that lands in mon is stored as that element, not a copy
    expanded, diamonds = {}, {}
    interned = {a: a for a in mon}

    def expand(a):
        if a not in expanded:
            expanded[a] = hol_from_mon(M, a)
        return expanded[a]

    def diamond(a, b):
        if (a, b) not in diamonds:
            d = mon_diamond(M, a, b)
            diamonds[a, b] = interned.setdefault(d, d)
        return diamonds[a, b]

    hol_set = set(hol)

    def bijection_failures():
        for a in mon:
            h = expand(a)
            if h not in hol_set or not is_valid_hol(M, h.alpha, h.tau):
                yield f"expansion of {a} is not a holomorph pair"
            elif mon_from_hol(M, h) != a:
                yield f"round trip fails at {a}"
        for h in hol:
            if expand(mon_from_hol(M, h)) != h:
                yield f"tau of {h} is not determined by its identity value"

    rep.first_failure("bijection", bijection_failures())

    rep.first_failure("diamonds_agree", (
        f"diamonds disagree at ({a},{b})"
        for a in mon
        for b in mon
        if expand(diamond(a, b)) != hol_diamond(M, expand(a), expand(b))
    ))

    bad = first_nonassociative(mon, diamond)
    rep.add("compressed_diamond_associative", bad is None,
            bad and "associativity fails at ({},{},{})".format(*(mon[i] for i in bad)))

    rep.first_failure("actions_agree", (
        f"actions disagree at t={t}, {a}"
        for t in range(M.size)
        for a in mon
        if M.mul[a.alpha[t]][a.m] != hol_action(M, t, expand(a))
    ))
    return rep


def sha_embedding_report_by_loops(S, sha=None):
    """heap.verify_sha_embedding with every pair of maps compared by one
    hol_diamond call."""
    rep = CheckReport(f"heap monoid embedding on {S!r}")
    if sha is None:
        sha = enumerate_sha(S)
    rep.add("sha_count", True, detail=f"|heap monoid| = {len(sha)}")
    by_eta = {eta: embed(S, eta) for eta in sha}
    images = {}

    def injectivity_failures():
        for eta in sha:
            h = by_eta[eta]
            if h in images:
                yield f"maps {images[h]} and {eta} share an image"
            images[h] = eta

    rep.first_failure("embedding_injective", injectivity_failures())

    rep.first_failure("embedding_multiplicative", (
        f"embedding not multiplicative at ({e1},{e2})"
        for e1 in sha
        for e2 in sha
        if by_eta[tuple(e2[e1[a]] for a in range(S.size))]
        != hol_diamond(S, by_eta[e1], by_eta[e2])
    ))

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


def heap_preserving_by_loops(S, eta, middles=None):
    """heap.is_heap_preserving by a loop over every triple (a, b, c), or
    over those whose middle b is in `middles`."""
    mul, inv = S.mul, S.inv
    n = S.size
    for a in range(n):
        for b in range(n) if middles is None else middles:
            ab = mul[a][inv[b]]
            hab = mul[eta[a]][inv[eta[b]]]
            for c in range(n):
                if eta[mul[ab][c]] != mul[hab][eta[c]]:
                    return False
    return True


def heap_closure_by_loops(S, gens):
    """The elements of S reached from `gens` by <a,b,c> = a b^-1 c."""
    mul, inv = S.mul, S.inv
    reached = set(gens)
    while True:
        new = {mul[mul[a][inv[b]]][c] for a in reached for b in reached for c in reached}
        if new <= reached:
            return reached
        reached |= new


def sha_monoid_iso_report_by_loops(M, sha=None, mon=None):
    """heap.verify_sha_monoid_iso with every pair of maps compared by one
    mon_diamond call."""
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
    by_eta = {eta: mon_from_hol(M, embed(M, eta)) for eta in sha}
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

    def backward_failures():
        for a in sub:
            h = hol_from_mon(M, a)
            eta = tuple(hol_action(M, s, h) for s in range(M.size))
            if not heap_preserving_by_loops(M, eta):
                yield f"pair {a} does not act as an ordered heap map"
            elif a not in image:
                yield f"pair {a} is not hit by the embedding"

    rep.first_failure("submonoid_in_image", backward_failures())

    rep.first_failure("monoid_isomorphism", (
        f"not multiplicative at ({e1},{e2})"
        for e1 in sha
        for e2 in sha
        if by_eta[tuple(e2[e1[x]] for x in range(M.size))]
        != mon_diamond(M, by_eta[e1], by_eta[e2])
    ))
    return rep


def maps_by_products_in_element_order(S, rel, budget=None):
    """Value vectors theta with rel((ab)theta, a.theta b.theta) for all a, b,
    lexicographic, by a depth-first search over the elements in index order
    that tries every value at every position: a pair is checked at the level
    where the last of a, b and ab is assigned.  The library searched so
    for premorphisms and endomorphisms before it followed the inductive
    groupoid."""
    n = S.size
    mul = S.mul
    sched = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            sched[max(a, b, ab)].append((a, b, ab))

    def ok_at(theta, k):
        for a, b, ab in sched[k]:
            if not rel(theta[ab], mul[theta[a]][theta[b]]):
                return False
        return True

    return backtrack([range(n)] * n, ok_at, budget)


def premorphisms_by_element_order(S, budget=None):
    return maps_by_products_in_element_order(S, S.natural_order().leq, budget)


def endomorphisms_by_element_order(S, budget=None):
    return maps_by_products_in_element_order(S, operator.eq, budget)


def ordered_heap_maps_by_filter(S):
    leq = S.natural_order().leq
    out = []
    for t in all_self_maps(S.size):
        if not all(
            leq(t[a], t[b]) for a in range(S.size) for b in range(S.size) if leq(a, b)
        ):
            continue
        ok = True
        for a in range(S.size):
            for b in range(S.size):
                for c in range(S.size):
                    h = S.mul[S.mul[a][S.inv[b]]][c]
                    if t[h] != S.mul[S.mul[t[a]][S.inv[t[b]]]][t[c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(t)
    return out


def ordered_heap_maps_by_schedule(S, check_order=True):
    """The ordered heap maps as value vectors in lexicographic order, by a
    depth-first search over the elements in index order, trying every value
    at every position: a triple (a, b, c) is checked, one at a time, as soon
    as a, b, c and <a,b,c> are assigned, an order pair as soon as both
    sides are.  With check_order=False the order pairs are skipped and the
    search returns every heap-preserving map."""
    n = S.size
    mul, inv = S.mul, S.inv
    leq = S.natural_order().leq
    triples = [[] for _ in range(n)]
    order_pairs = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if check_order and a != b and leq(a, b):
                order_pairs[max(a, b)].append((a, b))
            for c in range(n):
                h = mul[mul[a][inv[b]]][c]
                triples[max(a, b, c, h)].append((a, b, c, h))

    def ok_at(eta, k):
        for a, b in order_pairs[k]:
            if not leq(eta[a], eta[b]):
                return False
        for a, b, c, h in triples[k]:
            if eta[h] != mul[mul[eta[a]][inv[eta[b]]]][eta[c]]:
                return False
        return True

    return backtrack([range(n)] * n, ok_at)


def _heap(a, b, c):
    """The heap value <a, b, c> = a b^-1 c of raw polycyclic pairs."""
    return _mul(_mul(a, _inv(b)), c)


def efun_element_image(fn, x):
    """The self-map of the polycyclic monoid induced by an ordered function
    on idempotents: (u,v) -> (u fn, v fn) and 0 -> the idempotent at 0 fn."""
    if x is None:
        z = fn.zero_image
        return None if z is None else (z, z)
    fu, fv = fn.word_image(x[0]), fn.word_image(x[1])
    if fu is None or fv is None:
        return None
    return (fu, fv)


def constant_pair_zero_preservation(n, L, param_len):
    """Whether each constant holomorph pair preserves the zero-valued heap
    instances of the n-generator polycyclic monoid, by brute force.

    Elements are pairs of words (u, v) standing for u^-1 v, or None for zero;
    the window holds zero and every pair with components of length <= L.
    The pair (c_(w,s), m = (s,t)) is built from its definition: theta sends
    0 to (w,w) and every nonzero x to (s,s), and acts by x -> theta(x) m.
    Only the raw pair product and inverse are taken from the library; both
    are validated against the rewriting rules by acceptance criterion 7.
    Returns {(w, s, t): preserved} over all words w, s, t of length
    <= param_len with s a suffix of w.
    """
    def words(length):
        return [
            "".join(p)
            for k in range(length + 1)
            for p in product(ascii_lowercase[:n], repeat=k)
        ]

    elems = [None] + [(u, v) for u in words(L) for v in words(L)]
    zero_triples = [
        (a, b, c)
        for a in elems
        for b in elems
        for c in elems
        if _mul(_mul(a, _inv(b)), c) is None
    ]
    params = words(param_len)
    out = {}
    for w in params:
        for s in params:
            if not w.endswith(s):
                continue
            for t in params:
                def act(x):
                    theta = (w, w) if x is None else (s, s)
                    return _mul(theta, (s, t))

                zero_image = act(None)
                out[(w, s, t)] = all(
                    zero_image == _mul(_mul(act(a), _inv(act(b))), act(c))
                    for a, b, c in zero_triples
                )
    return out


_CONST_PAIR_WITNESS = re.compile(
    r"\(c_\('(\w*)','(\w*)'\), \('(\w*)','(\w*)'\)\): zero instances (preserved|broken)"
)


def constant_pair_witness(text):
    """(w, s, t, "preserved" or "broken") from a constant-pair witness of the
    polycyclic heap report, "(c_(w,s), (s,t)): zero instances ...", or None
    when the text is not one."""
    found = _CONST_PAIR_WITNESS.match(text or "")
    if found is None or found[2] != found[3]:
        return None
    return found[1], found[2], found[4], found[5]


def window_table(fn, n, L):
    """An ordered function on idempotents as a table on the words of length <= L."""
    return {u: fn.word_image(u) for u in words_upto(n, L)}


def classify_ordered_functor_order_first(n, L, zero_image, table):
    """classify_ordered_functor as a pass over every pair of window points
    for an order violation, then a bespoke check for each family: the
    reference for the library's one-member comparison."""
    ws = words_upto(n, L)
    for u in ws:
        if u not in table:
            raise WindowExceeded(f"candidate is missing the word {u!r}")

    def value(x):
        return zero_image if x is None else table[x]

    points = [None, *ws]
    for x in points:
        for y in points:
            if word_leq(x, y) and not word_leq(value(x), value(y)):
                return Classification(
                    "not_ordered_functor",
                    witness=f"order violated: {x!r} <= {y!r} but images "
                    f"{value(x)!r} !<= {value(y)!r}",
                )

    if zero_image is None:
        if all(table[u] is None for u in ws):
            return Classification("constant_zero")
        if any(table[u] is None for u in ws):
            nz = next(u for u in ws if table[u] is not None)
            z = next(u for u in ws if table[u] is None)
            return Classification(
                "not_ordered_functor",
                witness=f"{z!r} maps to zero but {nz!r} does not",
            )
        if L < 1:
            return Classification(
                "not_ordered_functor", witness="window too small to fit letter images"
            )
        root = table[""]
        images = []
        for ch in letters(n):
            img = table[ch]
            if not img.endswith(root):
                return Classification(
                    "not_ordered_functor",
                    witness=f"image of {ch!r} does not end with the image of the empty word",
                )
            images.append(img[: len(img) - len(root)])
        cand = AffineWordMap(n, tuple(images), root)
        for u in ws:
            if cand.word_image(u) != table[u]:
                return Classification(
                    "not_ordered_functor",
                    witness=f"letter images do not reproduce the value at {u!r}",
                )
        return Classification("affine", sigma=tuple(images), w=root)

    # nonzero image at zero forces a constant on words
    t = table[""]
    if t is None or any(table[u] != t for u in ws):
        bad = next((u for u in ws if table[u] != t), "")
        return Classification(
            "not_ordered_functor",
            witness=f"zero maps to {zero_image!r} but word values are not constant "
            f"(at {bad!r})",
        )
    if not zero_image.endswith(t):
        return Classification(
            "not_ordered_functor",
            witness=f"value at zero {zero_image!r} is not below the constant {t!r}",
        )
    return Classification("constant_pair", w=zero_image, t=t)


def apply_nat(f, x):
    """The affine map x -> x k + p of an AffineNat, on one natural number."""
    return x * f.k + f.p


def hol_pair_tau(fn, m, e):
    """The transformation part at idempotent e, rebuilt from the compressed
    form: e tau = (e alpha) m."""
    return _mul(efun_element_image(fn, e), m)


def hol_pair_action_tau_form(fn, m):
    """x -> (x alpha) ((x^-1 x) tau), the uncompressed action formula."""

    def act(x):
        e = None if x is None else _mul(_inv(x), x)
        return _mul(efun_element_image(fn, x), hol_pair_tau(fn, m, e))

    return act


def heap_split_by_triples(act, elems):
    """The heap split of polycyclic._heap_failures by one pass over every
    triple of the window, each heap value and each action image computed
    afresh: (all nonzero-valued instances preserved, all zero-valued
    preserved, first witnesses)."""
    ok_nz, ok_z = True, True
    w_nz = w_z = None
    for a in elems:
        for b in elems:
            for c in elems:
                val = _heap(a, b, c)
                lhs = act(val)
                rhs = _heap(act(a), act(b), act(c))
                if val is None:
                    if lhs != rhs and ok_z:
                        ok_z, w_z = False, f"<{a},{b},{c}> = 0: {lhs} vs {rhs}"
                else:
                    if lhs != rhs and ok_nz:
                        ok_nz, w_nz = False, f"<{a},{b},{c}> = {val}: {lhs} vs {rhs}"
    return ok_nz, ok_z, w_nz, w_z


def induced_premorphism_failures_by_pairs(fn, n, L):
    """polycyclic._induced_failures by one pass over every pair of the
    element window, each product and image computed afresh."""
    elems = poly_window(n, L)
    for x in elems:
        for y in elems:
            lhs = efun_element_image(fn, _mul(x, y))
            rhs = _mul(efun_element_image(fn, x), efun_element_image(fn, y))
            if not pair_leq(lhs, rhs):
                yield f"inequality fails at {x},{y}"


# ---------------------------------------------------------------------------
# the polycyclic window sweeps on strings: the references for the endo,
# functor and heap sweeps on word codes


def word_meet(x, y):
    """Meet in the suffix order: the lower of two comparable words, else zero."""
    if x is None or y is None:
        return None
    if x.endswith(y):
        return x
    if y.endswith(x):
        return y
    return None


def endo_classification_report(n, sigma_images, w, L):
    """polycyclic.endo_classification_check with its meets taken on strings,
    each word's image derived afresh for every pair."""
    af = AffineWordMap(n, tuple(sigma_images), w)
    rep = CheckReport(
        f"endomorphism test for letters->{tuple(sigma_images)} translation {w!r}, "
        f"n={n}, window L={L}"
    )
    ws = words_upto(n, L)
    points = [None, *ws]

    def meet_failures():
        for x in points:
            for y in points:
                lhs_arg = word_meet(x, y)
                lhs = None if lhs_arg is None else af.word_image(lhs_arg)
                rhs = word_meet(af.word_image(x) if x is not None else None,
                                af.word_image(y) if y is not None else None)
                if lhs != rhs:
                    yield f"meet mismatch at ({x!r},{y!r}): {lhs!r} vs {rhs!r}"

    witness = next(meet_failures(), None)
    meet_ok = witness is None
    images = [af.word_image(u) for u in ws]
    injective = len(set(images)) == len(images)
    code = is_suffix_code(sigma_images)
    agree = meet_ok == (injective and code)
    rep.add(
        "meet_preserving_iff_injective_suffix_code",
        agree,
        None
        if agree
        else f"meets {'preserved' if meet_ok else 'broken'} but injective={injective}, "
        f"suffix_code={code}; {witness}",
        detail=f"meets {'preserved' if meet_ok else 'not preserved'}; "
        f"injective={injective}, suffix_code={code}",
    )
    if witness and not agree:
        rep.note(witness)
    return rep


def window_values(elems, op, arity):
    """Every value of op on `arity` elements of a window, computed once per
    window: (points, rows), where points lists the elements and then each
    value that leaves the window, and rows holds each argument tuple with
    its value as positions in points, in lexicographic order."""
    points = list(elems)
    index = {x: i for i, x in enumerate(points)}
    rows = []
    for args in product(range(len(elems)), repeat=arity):
        val = op(*[elems[i] for i in args])
        pos = index.get(val)
        if pos is None:
            pos = index[val] = len(points)
            points.append(val)
        rows.append((*args, pos))
    return tuple(points), tuple(rows)


def efun_equal_on_window(f, g, n, L):
    if f.zero_image != g.zero_image:
        return False
    return all(f.word_image(u) == g.word_image(u) for u in words_upto(n, L))


def compose_efuns(f, g):
    """Apply f, then g, as a concrete function on window points."""

    def word_image(u):
        m = f.word_image(u)
        return g.zero_image if m is None else g.word_image(m)

    z = f.zero_image
    return SimpleNamespace(n=f.n, word_image=word_image,
                           zero_image=g.zero_image if z is None else g.word_image(z))


def composes_to_by_efuns(f, g, want, n, L):
    """polycyclic._composes_to through a composite object."""
    return efun_equal_on_window(compose_efuns(f, g), want, n, L)


@lru_cache(maxsize=None)
def _product_window(n, L):
    return window_values(poly_window(n, L), _mul, 2)


def induced_premorphism_failures(fn, n, L):
    """polycyclic._induced_failures on strings: the products of the element
    window are computed once per window and the map once per point."""
    points, products = _product_window(n, L)
    image = [efun_element_image(fn, x) for x in points]
    for x, y, xy in products:
        if not pair_leq(image[xy], _mul(image[x], image[y])):
            yield f"inequality fails at {points[x]},{points[y]}"


def hol_pair_action(fn, m):
    """x -> (x fn) m, the action of a holomorph pair in compressed form."""

    def act(x):
        return _mul(efun_element_image(fn, x), m)

    return act


def heap_window(n, L):
    """polycyclic._heap_window on strings: (points, nonzero, zero, heap),
    the rows of window_values(elems, _heap, 3) split into the nonzero-valued
    and the zero-valued instances, and a memoised _heap that the maps of one
    window share for their image side."""
    points, rows = window_values(poly_window(n, L), _heap, 3)
    nonzero = tuple(row for row in rows if points[row[3]] is not None)
    zero = tuple(row for row in rows if points[row[3]] is None)
    return points, nonzero, zero, lru_cache(maxsize=None)(_heap)


def heap_failures(fn, m, window):
    """polycyclic._heap_failures on strings: the first failing nonzero-valued
    and zero-valued instance of a heap_window, with the action evaluated
    once per point."""
    points, nonzero, zero, heap = window
    image = [hol_pair_action(fn, m)(x) for x in points]

    def first_failure(instances):
        for a, b, c, d in instances:
            lhs, rhs = image[d], heap(image[a], image[b], image[c])
            if lhs != rhs:
                value = 0 if points[d] is None else points[d]
                return f"<{points[a]},{points[b]},{points[c]}> = {value}: {lhs} vs {rhs}"
        return None

    return first_failure(nonzero), first_failure(zero)


def bent_codes(efun, n, K, at, image):
    """An ordered function's codes(K), over n letters, with the value at the
    word `at`, or at the zero when `at` is None, replaced by `image`."""
    zero, table, top = efun
    code = -1 if image is None else int(_encode([image], n)[0][0])
    if at is None:
        zero = code
    elif len(at) <= K:
        table = table.copy()
        table[words_upto(n, K).index(at)] = code
    return zero, table, max(top, len(image or ""))


class BentFunction:
    """An ordered function on idempotents with its value at one word, or at
    the zero when `at` is None, replaced by `image` (None for the zero);
    alike on strings and on word codes, so that a bent input reaches the
    string references and the code sweeps the same way."""

    def __init__(self, fn, at, image):
        self.fn, self.at, self.image, self.n = fn, at, image, fn.n

    def word_image(self, u):
        return self.image if u == self.at else self.fn.word_image(u)

    @property
    def zero_image(self):
        return self.image if self.at is None else self.fn.zero_image

    def codes(self, K):
        return bent_codes(self.fn.codes(K), self.n, K, self.at, self.image)

    def __repr__(self):
        return f"Bent({self.fn!r}, {self.at!r} -> {self.image!r})"


def bicyclic_report_by_loops(window=6, param=4):
    """polycyclic.verify_bicyclic by scalar loops over the window's pairs:
    the pair products are interned by window_values, and each
    endomorphism's images are computed once per parameter."""
    rep = CheckReport(f"bicyclic monoid, window {window}, parameters up to {param}")
    pairs = [(i, j) for i in range(window + 1) for j in range(window + 1)]

    def formula_failures():
        for x in pairs:
            for y in pairs:
                via_words = rewrite_mul(bicyclic_to_poly(x), bicyclic_to_poly(y))
                got = bicyclic_mul(x, y)
                if via_words != bicyclic_to_poly(got):
                    yield f"{x} * {y}: pair formula {got} vs rewriting {via_words}"

    rep.first_failure("pair_formula_matches_rewriting", formula_failures())

    rep.first_failure("identity", (
        "identity (0,0) fails"
        for x in pairs
        if bicyclic_mul((0, 0), x) != x or bicyclic_mul(x, (0, 0)) != x
    ))

    params = [(k, p) for k in range(param + 1) for p in range(param + 1)]

    points, products = window_values(pairs, bicyclic_mul, 2)

    def multiplicativity_failures():
        for k, p in params:
            nu = bicyclic_endo(k, p)
            image = [nu.apply_pair(x) for x in points]
            for x, y, xy in products:
                if image[xy] != bicyclic_mul(image[x], image[y]):
                    yield f"(k,p)=({k},{p}) not multiplicative at {points[x]},{points[y]}"

    rep.first_failure("endomorphism_family_multiplicative", multiplicativity_failures())

    # generator image a -> a^-p a^(p+k) reproduces the formula through powers;
    # the identity pair (0,0) stands for the word a a^-1, not an empty product
    def power_failures():
        for k, p in params:
            nu = bicyclic_endo(k, p)
            gen = (p, p + k)
            for i, j in pairs:
                if i == j == 0:
                    acc = bicyclic_mul(gen, bicyclic_inv(gen))
                else:
                    acc = None
                    for _ in range(i):
                        step = bicyclic_inv(gen)
                        acc = step if acc is None else bicyclic_mul(acc, step)
                    for _ in range(j):
                        acc = gen if acc is None else bicyclic_mul(acc, gen)
                if acc != nu.apply_pair((i, j)):
                    yield f"(k,p)=({k},{p}): power evaluation differs at ({i},{j})"

    rep.first_failure("formula_matches_generator_powers", power_failures())

    def composition_failures():
        for k, p in params:
            nu = bicyclic_endo(k, p)
            image = [nu.apply_pair(x) for x in pairs]
            for k2, p2 in params:
                nu2 = bicyclic_endo(k2, p2)
                comp = nu.compose(nu2)
                if comp != AffineNat(k * k2, p * k2 + p2):
                    yield f"affine composition fails at ({k},{p}),({k2},{p2})"
                for x, x_nu in zip(pairs, image):
                    if comp.apply_pair(x) != nu2.apply_pair(x_nu):
                        yield f"composite map wrong at {x}"

    rep.first_failure("family_composes_as_affine_maps", composition_failures())
    return rep


def bicyclic_hol_report_by_loops(param=4, window=6):
    """polycyclic.bicyclic_hol_check by scalar loops over the free parts
    (m, m2) and the window's pairs."""
    rep = CheckReport(f"bicyclic holomorph, parameters up to {param}, window {window}")
    params = [(k, p) for k in range(param + 1) for p in range(param + 1)]

    def validity_failures():
        for k, p in params:
            nu = bicyclic_endo(k, p)
            top = nu.apply_pair((0, 0))
            for l in range(window + 1):
                for m in range(window + 1):
                    valid = bicyclic_mul((l, m), bicyclic_inv((l, m))) == top
                    if valid != (l == p):
                        yield f"(k,p)=({k},{p}): pair ({l},{m}) validity is {valid}"

    rep.first_failure("transformation_part_forces_l_eq_p", validity_failures())

    def diamond(e1, e2):
        (a1, m1), (a2, m2) = e1, e2
        return (a1.compose(a2), bicyclic_mul(a2.apply_pair(m1), m2))

    def semidirect_failures():
        for k, p in params:
            a1 = bicyclic_endo(k, p)
            for k2, p2 in params:
                a2 = bicyclic_endo(k2, p2)
                for m in range(window + 1):
                    for m2 in range(window + 1):
                        comp_alpha, comp_m = diamond((a1, (p, m)), (a2, (p2, m2)))
                        want_alpha = AffineNat(k * k2, p * k2 + p2)
                        want_m = (p * k2 + p2, m * k2 + m2)
                        if comp_alpha != want_alpha or comp_m != want_m:
                            yield (
                                f"composition of ((k,p),m)=(({k},{p}),{m}) and "
                                f"(({k2},{p2}),{m2}) gave {comp_alpha},{comp_m}"
                            )

    rep.first_failure("diamond_matches_semidirect_product", semidirect_failures())
    rep.note("free part composes as m k' + m'; the translation p' cancels")

    ident = (bicyclic_endo(1, 0), (0, 0))

    def identity_failures():
        for k, p, m in product(range(param + 1), repeat=3):
            e = (bicyclic_endo(k, p), (p, m))
            if diamond(ident, e) != e or diamond(e, ident) != e:
                yield "identity pair does not compose neutrally"
        # translations compose additively
        for m, m2 in product(range(param + 1), repeat=2):
            got = diamond((bicyclic_endo(1, 0), (0, m)), (bicyclic_endo(1, 0), (0, m2)))
            if got != (bicyclic_endo(1, 0), (0, m + m2)):
                yield "identity pair does not compose neutrally"

    rep.first_failure("identity_pair_neutral", identity_failures())

    small = [(k, p) for k in range(3) for p in range(3)]
    pairs_w = [(i, j) for i in range(window + 1) for j in range(window + 1)]

    def action_failures():
        for k, p in small:
            a = bicyclic_endo(k, p)
            for m in range(3):
                for k2, p2 in small:
                    b = bicyclic_endo(k2, p2)
                    for m2 in range(3):
                        ca, cm = diamond((a, (p, m)), (b, (p2, m2)))
                        for x in pairs_w:
                            lhs = bicyclic_mul(ca.apply_pair(x), cm)
                            step = bicyclic_mul(a.apply_pair(x), (p, m))
                            rhs = bicyclic_mul(b.apply_pair(step), (p2, m2))
                            if lhs != rhs:
                                yield f"action law fails at x={x}"

    rep.first_failure("action_law", action_failures())
    return rep


def rewrite_by_middle(x, y):
    """polycyclic.rewrite_mul of u^-1 v and p^-1 q through their middle
    v p^-1 alone: when ("", v) (p, "") rewrites to (p', v'), the product is
    (p' u, v' q), and the zero when the middle is.  The scalar form of the
    identity that verify_poly_window and verify_bicyclic rest on."""
    if x is None or y is None:
        return None
    (u, v), (p, q) = x, y
    middle = rewrite_mul(("", v), (p, ""))
    return middle and (middle[0] + u, middle[1] + q)


def rescan_rewrite_mul(x, y):
    """polycyclic.rewrite_mul by rescanning the signed-letter sequence from
    its start after every rewrite, until no rule  z z^-1 -> 1  or
    z w^-1 -> 0 (z != w)  matches."""
    if x is None or y is None:
        return None
    seq = []
    for u, v in (x, y):
        seq.extend((ch, -1) for ch in reversed(u))
        seq.extend((ch, +1) for ch in v)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            (c1, s1), (c2, s2) = seq[i], seq[i + 1]
            if s1 == +1 and s2 == -1:
                if c1 != c2:
                    return None
                del seq[i : i + 2]
                changed = True
                break
    u = []
    v = []
    for ch, s in seq:
        if s == -1:
            if v:
                raise AssertionError("rewriting left a malformed word")
            u.append(ch)
        else:
            v.append(ch)
    return ("".join(reversed(u)), "".join(v))


def poly_window_report_by_interning(n, L):
    """polycyclic.verify_poly_window with associativity decided by
    core.first_nonassociative, which interns every product it meets through
    _mul, instead of on pair codes."""
    rep = CheckReport(f"polycyclic arithmetic, n={n}, window L={L}")
    elems = poly_window(n, L)
    rep.add("window", True, detail=f"{len(elems)} elements, components up to length {L}")

    rep.first_failure("matches_rewriting", (
        f"{x} * {y}: table {_mul(x, y)} vs rewriting {rescan_rewrite_mul(x, y)}"
        for x in elems
        for y in elems
        if _mul(x, y) != rescan_rewrite_mul(x, y)
    ))

    bad = first_nonassociative(elems, _mul)
    rep.add("associative_on_window", bad is None,
            bad and "associativity fails at ({},{},{})".format(*(elems[i] for i in bad)))

    rep.first_failure("inverses", (
        f"inverse laws fail at {x}"
        for x in elems
        if _mul(_mul(x, _inv(x)), x) != x or _inv(_inv(x)) != x
    ))

    rep.first_failure("idempotents_are_diagonal", (
        f"idempotence of {x} is {_mul(x, x) == x}"
        for x in elems
        if (_mul(x, x) == x) != (x is None or x[0] == x[1])
    ))

    rep.first_failure("natural_order_is_suffix_order", (
        f"order disagreement at ({x},{y})"
        for x in elems
        for y in elems
        if (_mul(_mul(x, _inv(x)), y) == x) != pair_leq(x, y)
    ))
    return rep


@lru_cache(maxsize=None)
def words_by_length(n, L):
    """All words of length <= L over the first n letters, in length-lex order."""
    out = [""]
    for k in range(1, L + 1):
        out.extend("".join(w) for w in product(ascii_lowercase[:n], repeat=k))
    return tuple(out)


class DictSuffixMap:
    """A suffix-preserving map stored as a dict from word to image, every
    result validated: the reference for polycyclic.SuffixMap."""

    def __init__(self, n, L, table):
        self.n = n
        self.L = L
        self.table = image = dict(table)
        self._transfers = {}
        words = words_by_length(n, L)
        missing = next((u for u in words if u not in image), None)
        if missing is not None:
            raise WindowExceeded(f"map is missing the word {missing!r} inside its window")
        for u in words[1:]:  # every word but the empty one, which comes first
            if not image[u].endswith(image[u[1:]]):
                raise NotSuffixPreserving(
                    f"image of {u!r} does not end with the image of {u[1:]!r}"
                )

    def apply(self, u):
        if len(u) > self.L:
            raise WindowExceeded(f"word {u!r} is outside window {self.L}")
        return self.table[u]

    def transfer(self, u):
        """The transfer of u, built and validated once per map and word, as
        verify_zappa keeps the transfers it takes again."""
        if len(u) > self.L:
            raise WindowExceeded(f"word {u!r} is outside window {self.L}")
        if u not in self._transfers:
            base = self.table[u]
            out = {}
            for p in words_by_length(self.n, self.L - len(u)):
                img = self.table[p + u]
                out[p] = img[: len(img) - len(base)]
            self._transfers[u] = DictSuffixMap(self.n, self.L - len(u), out)
        return self._transfers[u]

    def compose(self, other, L_out=None):
        if L_out is None:
            # the words come in length order: the first image past the other
            # map's window ends the composite's window below its word
            past = (u for u in words_by_length(self.n, self.L) if len(self.table[u]) > other.L)
            L_out = len(next(past, "?" * (self.L + 1))) - 1
        if L_out < 0:
            raise WindowExceeded("composition has an empty window")
        out = {}
        for u in words_by_length(self.n, L_out):
            mid = self.table[u]
            if len(mid) > other.L:
                raise WindowExceeded(
                    f"intermediate image {mid!r} is outside window {other.L}"
                )
            out[u] = other.table[mid]
        return DictSuffixMap(self.n, L_out, out)

    def agrees_with(self, other, L=None):
        if L is None:
            L = min(self.L, other.L)
        return all(self.table[u] == other.table[u] for u in words_by_length(self.n, L))

    @staticmethod
    def identity(n, L):
        return DictSuffixMap(n, L, {u: u for u in words_by_length(n, L)})

    @staticmethod
    def right_translation(n, L, w):
        return DictSuffixMap(n, L, {u: u + w for u in words_by_length(n, L)})

    @staticmethod
    def constant(n, L, t):
        return DictSuffixMap(n, L, {u: t for u in words_by_length(n, L)})

    @staticmethod
    def from_affine(n, L, images, w):
        fn = AffineWordMap(n, tuple(images), w)
        return DictSuffixMap(n, L, {u: fn.word_image(u) for u in words_by_length(n, L)})

    @staticmethod
    def random(n, L, rng):
        """The root image has up to 2 letters, and each step glues on up to 1."""
        alphabet = ascii_lowercase[:n]
        table = {"": "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))}
        for k in range(1, L + 1):
            for u in words_by_length(n, k):
                if len(u) == k:
                    snippet = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 1)))
                    table[u] = snippet + table[u[1:]]
        return DictSuffixMap(n, L, table)


# ---------------------------------------------------------------------------
# the table layer by plain loops: the references for the numpy sweeps of
# core.InverseSemigroup, core.NaturalOrder, core.verify_semigroup_properties,
# groupoid.verify_ordered_groupoid and groupoid.esn_back


def inverse_semigroup_scans(names, mul):
    """What the InverseSemigroup constructor derives from a table, by
    exhaustive scans: {"inv", "idempotents", "identity", "zero"}, or the
    constructor's exception for a table that is not an inverse semigroup."""
    n = len(mul)
    if n == 0:
        raise ValueError("multiplication table is empty")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    if len(names) != n:
        raise ValueError("names and table size disagree")
    for row in mul:
        if len(row) != n:
            raise ValueError("multiplication table is not square")
        for v in row:
            if not (isinstance(v, int) and 0 <= v < n):
                raise ValueError(f"table entry {v!r} out of range")
    witness = first_nonassociative_by_loops(range(n), lambda a, b: mul[a][b])
    if witness is not None:
        raise NotAssociative(*witness)
    inv = []
    for a in range(n):
        cands = [
            b
            for b in range(n)
            if mul[mul[a][b]][a] == a and mul[mul[b][a]][b] == b
        ]
        if len(cands) != 1:
            raise NotInverse(f"element {a} ({names[a]}) has {len(cands)} inverses: {cands}")
        inv.append(cands[0])
    idempotents = [a for a in range(n) if mul[a][a] == a]
    for i, e in enumerate(idempotents):
        for f in idempotents[i + 1:]:
            if mul[e][f] != mul[f][e]:
                raise NotInverse(f"idempotents {e} and {f} do not commute")
    identity = next(
        (e for e in range(n) if all(mul[e][a] == a and mul[a][e] == a for a in range(n))),
        None,
    )
    zero = next(
        (z for z in range(n) if all(mul[z][a] == z and mul[a][z] == z for a in range(n))),
        None,
    )
    return {"inv": inv, "idempotents": idempotents, "identity": identity, "zero": zero}


def natural_order_by_loops(S, diagnostics=True):
    """The table of a <= b iff a = a a^-1 b over S.mul and S.inv; with
    diagnostics, the AssertionError naming the first pair (a, b) at which
    a = b a^-1 a, a = be and a = eb (e idempotent) do not all agree with it."""
    n = S.size
    mul, inv = S.mul, S.inv
    table = [[mul[mul[a][inv[a]]][b] == a for b in range(n)] for a in range(n)]
    if diagnostics:
        E = S.idempotents
        for a in range(n):
            for b in range(n):
                c1 = table[a][b]
                c2 = mul[b][mul[inv[a]][a]] == a
                c3 = any(mul[b][e] == a for e in E)
                c4 = any(mul[e][b] == a for e in E)
                if not (c1 == c2 == c3 == c4):
                    raise AssertionError(
                        f"natural-order characterisations disagree at "
                        f"({a},{b}): {c1},{c2},{c3},{c4}"
                    )
    return table


def meet_idempotents_by_scan(S, e, f, table):
    """The product of two idempotents, checked to be their glb in `table`."""
    if not S.is_idempotent[e]:
        raise NotIdempotent(f"element {e} ({S.names[e]}) is not idempotent")
    if not S.is_idempotent[f]:
        raise NotIdempotent(f"element {f} ({S.names[f]}) is not idempotent")
    m = S.mul[e][f]
    assert table[m][e] and table[m][f], "product of idempotents is not a lower bound"
    for h in S.idempotents:
        if table[h][e] and table[h][f] and not table[h][m]:
            raise AssertionError(f"idempotent product {m} is not the glb of {e},{f}")
    return m


def semigroup_properties_by_loops(S):
    """verify_semigroup_properties by generators over every element, pair and
    pair of order pairs, reading the order from S.natural_order().table."""
    rep = CheckReport(f"inverse semigroup properties on {S!r}")
    n = S.size
    mul, inv = S.mul, S.inv

    rep.first_failure("regularity_and_involution", (
        f"a={a}"
        for a in range(n)
        if mul[mul[a][inv[a]]][a] != a or inv[inv[a]] != a
    ))
    try:
        natural_order_by_loops(S, diagnostics=True)
        rep.add("order_characterisations_agree", True)
    except AssertionError as exc:
        rep.add("order_characterisations_agree", False, str(exc))
    table = S.natural_order().table

    def leq(a, b):
        return table[a][b]

    rep.first_failure("order_compatible_with_inversion", (
        f"{a}<={b}"
        for a in range(n)
        for b in range(n)
        if leq(a, b) and not leq(inv[a], inv[b])
    ))
    pairs = [(a, b) for a in range(n) for b in range(n) if leq(a, b)]
    rep.first_failure("order_compatible_with_multiplication", (
        f"{a1}<={a2}, {b1}<={b2}"
        for a1, a2 in pairs
        for b1, b2 in pairs
        if not leq(mul[a1][b1], mul[a2][b2])
    ))
    rep.first_failure("elements_below_their_squares_are_idempotent", (
        f"x={x}"
        for x in range(n)
        if leq(x, mul[x][x]) and mul[x][x] != x
    ))

    def meet(e, f):
        return meet_idempotents_by_scan(S, e, f, table)

    def meet_failures():
        for e in S.idempotents:
            for f in S.idempotents:
                if mul[e][f] != mul[f][e]:
                    yield f"({e},{f}) do not commute"
                try:
                    m1 = meet(e, f)
                except AssertionError as exc:
                    yield str(exc)
                    return
                for g in S.idempotents:
                    if meet(m1, g) != meet(e, meet(f, g)):
                        yield f"meet not associative at ({e},{f},{g})"

    rep.first_failure("idempotent_meets", meet_failures())
    return rep


def connected_groupoid(num_objects, group_table, trivial_order=True):
    """The connected groupoid on the given objects with the given local group:
    arrows (x, k, y) composing by (x,k,y)(y,l,z) = (x, kl, z)."""
    m = num_objects
    k = len(group_table)
    arrows = [(x, g, y) for x in range(m) for g in range(k) for y in range(m)]
    index = {a: i for i, a in enumerate(arrows)}
    eg = next(g for g in range(k) if all(group_table[g][h] == h for h in range(k)))
    ginv = [next(h for h in range(k) if group_table[g][h] == eg) for g in range(k)]
    dom = [index[(x, eg, x)] for (x, g, y) in arrows]
    ran = [index[(y, eg, y)] for (x, g, y) in arrows]
    inv = [index[(y, ginv[g], x)] for (x, g, y) in arrows]
    compose = {}
    for (x, g, y) in arrows:
        for (y2, h, z) in arrows:
            if y == y2:
                compose[(index[(x, g, y)], index[(y2, h, z)])] = index[(x, group_table[g][h], z)]
    n = len(arrows)
    leq = [[i == j for j in range(n)] for i in range(n)]
    names = [f"({x},{g},{y})" for (x, g, y) in arrows]
    G = OrderedGroupoid(dom, ran, inv, compose, leq, names=names)
    assert verify_ordered_groupoid(G).ok
    return G


def disjoint_union(G1, G2):
    off = G1.n
    dom = G1.dom + [x + off for x in G2.dom]
    ran = G1.ran + [x + off for x in G2.ran]
    inv = G1.inv + [x + off for x in G2.inv]
    compose = dict(G1.compose)
    compose.update({(g + off, h + off): k + off for (g, h), k in G2.compose.items()})
    n = G1.n + G2.n
    leq = [[False] * n for _ in range(n)]
    for a in range(G1.n):
        for b in range(G1.n):
            leq[a][b] = G1.leq[a][b]
    for a in range(G2.n):
        for b in range(G2.n):
            leq[a + off][b + off] = G2.leq[a][b]
    names = list(G1.names) + [f"{x}'" for x in G2.names]
    return OrderedGroupoid(dom, ran, inv, compose, leq, names=names)


def write_theta(path, theta):
    _dump({"theta": list(theta)}, path)


def read_theta(path):
    obj = _load(path)
    if not isinstance(obj, dict) or "theta" not in obj:
        raise ParseError(f"{path}: expected an object with a \"theta\" vector")
    return tuple(obj["theta"])


def restriction_by_scan(G, x, g):
    """The unique arrow below g with domain x, by a scan over every arrow."""
    if not (G.is_identity[x] and G.leq[x][G.dom[g]]):
        raise NotBelowDomain(f"identity {x} is not below the domain of arrow {g}")
    cands = [h for h in range(G.n) if G.dom[h] == x and G.leq[h][g]]
    if len(cands) != 1:
        raise NotBelowDomain(f"no unique restriction of {g} to {x}")
    return cands[0]


def ordered_groupoid_axioms_by_loops(G):
    """verify_ordered_groupoid by generators over every arrow, pair, triple
    and pair of order pairs, reading G.compose, G.leq and the endpoints."""
    rep = CheckReport(f"ordered groupoid axioms on {G!r}")
    n = G.n

    def endpoint_failures():
        for g in range(n):
            if not (G.is_identity[G.dom[g]] and G.is_identity[G.ran[g]]):
                yield f"arrow {g} has non-identity endpoint"
            if G.inv[G.inv[g]] != g or G.dom[G.inv[g]] != G.ran[g] or G.ran[G.inv[g]] != G.dom[g]:
                yield f"inverse of arrow {g} is malformed"

    rep.first_failure("endpoints_and_inverses", endpoint_failures())
    rep.first_failure("composition_domain", (
        f"composability of ({g},{h}) disagrees with range/domain"
        for g in range(n)
        for h in range(n)
        if ((g, h) in G.compose) != (G.ran[g] == G.dom[h])
    ))

    def law_failures():
        for g in range(n):
            gd, gr = G.dom[g], G.ran[g]
            if G.compose.get((gd, g)) != g or G.compose.get((g, gr)) != g:
                yield f"identity laws fail at arrow {g}"
            if G.compose.get((g, G.inv[g])) != gd or G.compose.get((G.inv[g], g)) != gr:
                yield f"inverse laws fail at arrow {g}"

    rep.first_failure("identity_and_inverse_laws", law_failures())

    def associativity_failures():
        for (g, h), gh in G.compose.items():
            if G.dom[gh] != G.dom[g] or G.ran[gh] != G.ran[h]:
                yield f"endpoints of composite ({g},{h}) are wrong"
            for k in range(n):
                if (h, k) in G.compose:
                    # both sides must exist and agree
                    lhs = G.compose.get((gh, k))
                    rhs = G.compose.get((g, G.compose[(h, k)]))
                    if lhs is None or rhs is None or lhs != rhs:
                        yield f"associativity fails at ({g},{h},{k})"

    rep.first_failure("associativity", associativity_failures())

    def order_failures():
        for a in range(n):
            if not G.leq[a][a]:
                yield f"order not reflexive at {a}"
            for b in range(n):
                if G.leq[a][b] and G.leq[b][a] and a != b:
                    yield f"order not antisymmetric at ({a},{b})"
                if G.leq[a][b]:
                    for c in range(n):
                        if G.leq[b][c] and not G.leq[a][c]:
                            yield f"order not transitive at ({a},{b},{c})"

    rep.first_failure("partial_order", order_failures())
    rep.first_failure("OG1_inversion_ordered", (
        f"OG1 fails at {g}<={h}"
        for g in range(n)
        for h in range(n)
        if G.leq[g][h] and not G.leq[G.inv[g]][G.inv[h]]
    ))
    pairs = [(a, b) for a in range(n) for b in range(n) if G.leq[a][b]]
    rep.first_failure("OG2_composition_ordered", (
        f"OG2 fails at {g1}<={g2}, {h1}<={h2}"
        for g1, g2 in pairs
        for h1, h2 in pairs
        if (g1, h1) in G.compose and (g2, h2) in G.compose
        if not G.leq[G.compose[(g1, h1)]][G.compose[(g2, h2)]]
    ))

    def restriction_failures():
        for g in range(n):
            for x in G.identities:
                if G.leq[x][G.dom[g]]:
                    cands = [h for h in range(n) if G.dom[h] == x and G.leq[h][g]]
                    if len(cands) != 1:
                        yield f"OG3: {len(cands)} restrictions of {g} to {x}: {cands}"

    rep.first_failure("OG3_unique_restriction", restriction_failures())

    def corestriction_failures():
        if not rep.ok:
            return
        for g in range(n):
            for y in G.identities:
                if G.leq[y][G.ran[g]]:
                    co = G.inv[restriction_by_scan(G, y, G.inv[g])]
                    if not (G.ran[co] == y and G.leq[co][g]):
                        yield f"OG3*: derived corestriction of {g} to {y} is wrong"
                    others = [h for h in range(n) if G.ran[h] == y and G.leq[h][g]]
                    if others != [co]:
                        yield f"OG3*: corestriction of {g} to {y} not unique"

    rep.first_failure("OG3star_corestriction", corestriction_failures())
    rep.first_failure("identities_downward_closed", (
        f"non-identity {g} below identity {x}"
        for x in G.identities
        for g in range(n)
        if G.leq[g][x] and not G.is_identity[g]
    ))
    return rep


def meet_identities_by_scan(G, x, y):
    """The first identity below x and y that every such identity is below."""
    lower = [z for z in G.identities if G.leq[z][x] and G.leq[z][y]]
    for z in lower:
        if all(G.leq[w][z] for w in lower):
            return z
    return None


def pseudoproduct_by_scans(G, a, b):
    """(a|l)(l|b) for the meet l of ran(a) and dom(b), each part by a scan;
    None without a meet, KeyError when the two parts do not compose."""
    ell = meet_identities_by_scan(G, G.ran[a], G.dom[b])
    if ell is None:
        return None
    co = G.inv[restriction_by_scan(G, ell, G.inv[a])]
    return G.compose[(co, restriction_by_scan(G, ell, b))]


def esn_back_by_loops(G, cap=None):
    """esn_back with every meet and every pseudoproduct found by a scan."""
    for x in G.identities:
        for y in G.identities:
            if meet_identities_by_scan(G, x, y) is None:
                raise NotInductive(x, y)
    mul = [[pseudoproduct_by_scans(G, a, b) for b in range(G.n)] for a in range(G.n)]
    return build_from_table(G.names, mul, cap=cap)


def wreath_product(group_table, m):
    """The wreath product of a group with the full transformation monoid on m
    points: elements (lam, theta) with lam: X -> L and theta: X -> X.

    Returns (elements, mul_table) with elements in canonical sorted order.
    """
    k = len(group_table)
    elems = sorted(
        (lam, theta)
        for lam in product(range(k), repeat=m)
        for theta in product(range(m), repeat=m)
    )
    index = {e: i for i, e in enumerate(elems)}

    def mul(e1, e2):
        lam1, th1 = e1
        lam2, th2 = e2
        theta = tuple(th2[th1[x]] for x in range(m))
        lam = tuple(group_table[lam1[x]][lam2[th1[x]]] for x in range(m))
        return (lam, theta)

    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return elems, table


def flow_monoid_structure_by_pairs(G, cap=DEFAULT_FLOW_CAP):
    """check_flow_monoid_structure deciding component_product_iso by
    composing every pair of whole-groupoid flows and comparing the split
    composite with the componentwise composites, and each wreath line by
    composing every pair of the component's flows against the explicit
    wreath_product table."""
    rep = CheckReport(f"flow monoid structure on {G!r}")
    flows = enumerate_flows(G, cap=cap)
    rep.add("flow_count", True, detail=f"|flows| = {len(flows)}")

    comps = connected_components(G)
    keeps = [[g for g in range(G.n) if G.dom[g] in c] for c in comps]
    subs = [component_subgroupoid(G, keep) for keep in keeps]
    sub_flows = [enumerate_flows(Gi, cap=cap) for Gi in subs]
    expected = 1
    for fl in sub_flows:
        expected *= len(fl)
    rep.add(
        "component_product_count",
        len(flows) == expected,
        None if len(flows) == expected else f"{len(flows)} != {expected}",
        detail=f"{len(flows)} flows over {len(comps)} component(s)",
    )

    pos = {x: i for i, x in enumerate(G.identities)}
    arrow_maps = [{g: i for i, g in enumerate(keep)} for keep in keeps]

    def split(t):
        return tuple(tuple(amap[t[pos[x]]] for x in c) for c, amap in zip(comps, arrow_maps))

    def splitting_failures():
        seen, splits = set(), {}
        for t in flows:
            s = splits[t] = split(t)
            if s in seen:
                yield f"splitting map not injective at flow {t}"
            seen.add(s)
        for t in flows:
            for s in flows:
                lhs = split(flow_compose(G, t, s))
                rhs = tuple(
                    flow_compose(Gi, a, b)
                    for Gi, a, b in zip(subs, splits[t], splits[s])
                )
                if lhs != rhs:
                    yield f"splitting map not multiplicative at ({t},{s})"

    rep.first_failure("component_product_iso", splitting_failures())

    for ci, (Gi, fl) in enumerate(zip(subs, sub_flows)):
        label = f"component_{ci}_wreath_iso"
        m = len(Gi.identities)
        base = Gi.identities[0]
        local = [g for g in range(Gi.n) if Gi.dom[g] == base and Gi.ran[g] == base]
        lidx = {g: i for i, g in enumerate(local)}
        ltable = [[lidx[Gi.compose[(a, b)]] for b in local] for a in local]
        connect = {}
        for y in Gi.identities:
            cands = [g for g in range(Gi.n) if Gi.dom[g] == base and Gi.ran[g] == y]
            if not cands:
                rep.add(label, False, f"object {y} not reachable from base {base}")
                break
            connect[y] = min(cands)
        else:
            welems, wtable = wreath_product(ltable, m)
            windex = {e: i for i, e in enumerate(welems)}
            gpos = {x: i for i, x in enumerate(Gi.identities)}

            def to_wreath(t):
                theta = tuple(gpos[Gi.ran[g]] for g in t)
                lam = tuple(
                    lidx[Gi.compose[(Gi.compose[(connect[Gi.identities[x]], t[x])],
                                     Gi.inv[connect[Gi.ran[t[x]]]])]]
                    for x in range(m)
                )
                return (lam, theta)

            def wreath_failures():
                if len(fl) != len(welems):
                    yield f"sizes differ: {len(fl)} flows vs {len(welems)} wreath elements"
                    return
                images, seen = {}, set()
                for t in fl:
                    e = to_wreath(t)
                    if e in seen:
                        yield f"candidate map not injective at flow {t}"
                    seen.add(e)
                    images[t] = windex[e]
                for t in fl:
                    for s in fl:
                        if images[flow_compose(Gi, t, s)] != wtable[images[t]][images[s]]:
                            yield f"candidate map not multiplicative at ({t},{s})"

            w = next(wreath_failures(), None)
            rep.add(label, w is None, w,
                    detail=None if w else f"|flows| = {len(fl)} = |L|^{m} * {m}^{m}")
    return rep


def inverse_subsemigroup(n, gens, cap=20):
    """The inverse subsemigroup of I_n generated by the partial bijections
    `gens` and their inverses, or None past `cap` elements.

    A partial bijection is a length-n tuple whose i-th entry is the image of
    point i+1, 0 where undefined; products compose left to right, as in
    core.build_symmetric_inverse_monoid.  Elements are sorted and named in
    that one-line notation.
    """
    def compose(f, g):
        return tuple(g[x - 1] if x else 0 for x in f)

    def inverse(f):
        out = [0] * n
        for i, x in enumerate(f):
            if x:
                out[x - 1] = i + 1
        return tuple(out)

    elems = set(gens) | {inverse(g) for g in gens}
    frontier = list(elems)
    while frontier:
        new = {compose(a, b) for a in frontier for b in elems}
        new |= {compose(b, a) for a in frontier for b in elems}
        frontier = list(new - elems)
        elems |= new
        if len(elems) > cap:
            return None
    elems = sorted(elems)
    index = {f: i for i, f in enumerate(elems)}
    names = ["".join("-" if x == 0 else str(x) for x in f) or "()" for f in elems]
    return build_from_table(names, [[index[compose(a, b)] for b in elems] for a in elems])


@st.composite
def partial_bijections(draw, n):
    points = list(range(1, n + 1))
    domain = draw(st.lists(st.sampled_from(points), unique=True, max_size=n))
    image = draw(st.permutations(points))[: len(domain)]
    t = [0] * n
    for d, i in zip(domain, image):
        t[d - 1] = i
    return tuple(t)


@st.composite
def inverse_subsemigroups(draw, max_points=4, cap=20):
    """A hypothesis strategy: inverse_subsemigroup of I_n, n <= max_points,
    from one to three drawn partial bijections, of at most `cap` elements."""
    n = draw(st.integers(1, max_points))
    gens = draw(st.lists(partial_bijections(n), min_size=1, max_size=3))
    S = inverse_subsemigroup(n, gens, cap)
    assume(S is not None)
    return S
