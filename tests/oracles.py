"""Independent brute-force oracles used to pin expected values.

Everything here enumerates the raw function space and filters by the defining
property directly, bypassing the library's pruned searches.
"""

import re
from itertools import permutations, product
from string import ascii_lowercase

import numpy as np

from invhol.core import build_from_table
from invhol.holomorph import (
    hol_action,
    hol_diamond,
    hol_groupoid_compose,
    hol_identity,
)
from invhol.errors import NotSuffixPreserving, WindowExceeded
from invhol.polycyclic import AffineWordMap, _inv, _mul


def all_self_maps(n):
    return product(range(n), repeat=n)


def is_multiplicative_map(S, theta):
    return all(
        theta[S.mul[a][b]] == S.mul[theta[a]][theta[b]]
        for a in range(S.size)
        for b in range(S.size)
    )


def premorphisms_by_filter(S):
    leq = S.natural_order().leq
    out = []
    for t in all_self_maps(S.size):
        if all(
            leq(t[S.mul[a][b]], S.mul[t[a]][t[b]])
            for a in range(S.size)
            for b in range(S.size)
        ):
            out.append(t)
    return out


def automorphisms_by_filter(S):
    """All bijections that are multiplicative, found from raw permutations."""
    out = []
    for p in permutations(range(S.size)):
        if is_multiplicative_map(S, p):
            out.append(p)
    return out


def endomorphisms_by_filter(S):
    return [t for t in all_self_maps(S.size) if is_multiplicative_map(S, t)]


def first_nonassociative_by_loops(elems, product):
    """The first index triple (i, j, k), in lexicographic order, with
    (x_i x_j) x_k != x_i (x_j x_k), by a plain triple loop over the products."""
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            for k, z in enumerate(elems):
                if product(product(x, y), z) != product(x, product(y, z)):
                    return (i, j, k)
    return None


def holomorph_pairs_by_filter(S):
    """Every holomorph pair (alpha, tau), sorted, with tau listed over
    S.idempotents: each map from premorphisms_by_filter times every map
    E -> S, kept when (e tau)(e tau)^-1 = e alpha at each idempotent e and
    e <= f implies e tau <= f tau."""
    leq = S.natural_order().leq
    E = S.idempotents
    out = []
    for alpha in premorphisms_by_filter(S):
        for tau in product(range(S.size), repeat=len(E)):
            if all(
                S.mul[tau[i]][S.inv[tau[i]]] == alpha[e] for i, e in enumerate(E)
            ) and all(
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


def words_by_length(n, L):
    """All words of length <= L over the first n letters, in length-lex order."""
    out = [""]
    for k in range(1, L + 1):
        out.extend("".join(w) for w in product(ascii_lowercase[:n], repeat=k))
    return out


class DictSuffixMap:
    """A suffix-preserving map stored as a dict from word to image, every
    result validated: the reference for polycyclic.SuffixMap."""

    def __init__(self, n, L, table):
        self.n = n
        self.L = L
        self.table = dict(table)
        for u in words_by_length(n, L):
            if u not in self.table:
                raise WindowExceeded(f"map is missing the word {u!r} inside its window")
        for u in words_by_length(n, L):
            if len(u) >= 1:
                rest = u[1:]
                if not self.table[u].endswith(self.table[rest]):
                    raise NotSuffixPreserving(
                        f"image of {u!r} does not end with the image of {rest!r}"
                    )

    def apply(self, u):
        if len(u) > self.L:
            raise WindowExceeded(f"word {u!r} is outside window {self.L}")
        return self.table[u]

    def transfer(self, u):
        if len(u) > self.L:
            raise WindowExceeded(f"word {u!r} is outside window {self.L}")
        base = self.table[u]
        out = {}
        for p in words_by_length(self.n, self.L - len(u)):
            img = self.table[p + u]
            out[p] = img[: len(img) - len(base)]
        return DictSuffixMap(self.n, self.L - len(u), out)

    def compose(self, other, L_out=None):
        if L_out is None:
            L_out = self.L
            for u in words_by_length(self.n, self.L):
                if len(u) <= L_out and len(self.table[u]) > other.L:
                    L_out = len(u) - 1
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
    def random(n, L, rng, root_len=2, snippet_len=1):
        alphabet = ascii_lowercase[:n]
        table = {"": "".join(rng.choice(alphabet) for _ in range(rng.randint(0, root_len)))}
        for k in range(1, L + 1):
            for u in words_by_length(n, k):
                if len(u) == k:
                    snippet = "".join(
                        rng.choice(alphabet) for _ in range(rng.randint(0, snippet_len))
                    )
                    table[u] = snippet + table[u[1:]]
        return DictSuffixMap(n, L, table)
