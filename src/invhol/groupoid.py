"""Ordered groupoids: axioms, restrictions, pseudoproduct, the semigroup
conversions both ways, and flow monoids.

Arrows are integer indices with domain/range given as identity-arrow indices.
Partial composition is stored as a dict keyed by composable pairs and as an
n x n array of composites (-1 where a pair does not compose).  The partial
order is a boolean table, kept both as lists and as an array.  Instances are
immutable after validation and safe to share.
"""

from functools import cached_property
from itertools import product

import numpy as np

from .core import build_from_table, first_hits, hits, replay, row_blocks
from .errors import NotBelowDomain, NotInductive, SizeCap
from .report import CheckReport

DEFAULT_FLOW_CAP = 10**6


def _check_indices(values, n, what):
    for v in values:
        if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
            raise ValueError(f"{what} {v!r} out of range")


class OrderedGroupoid:
    def __init__(self, dom, ran, inv, compose, leq, names=None):
        n = len(dom)
        self.n = n
        self.dom = list(dom)
        self.ran = list(ran)
        self.inv = list(inv)
        self.compose = dict(compose)
        self.leq = [list(map(bool, row)) for row in leq]
        self.names = [str(x) for x in names] if names else [f"g{i}" for i in range(n)]
        if len(self.ran) != n or len(self.inv) != n:
            raise ValueError("arrow data disagree in length")
        _check_indices(self.dom + self.ran, n, "endpoint")
        _check_indices(self.inv, n, "inverse")
        _check_indices([x for pair in self.compose for x in pair], n, "composable arrow")
        _check_indices(self.compose.values(), n, "composite")

        # the tables that the axiom checks, restrictions and pseudoproducts read
        self.dom_array = np.array(self.dom, np.intp)
        self.ran_array = np.array(self.ran, np.intp)
        self.inv_array = np.array(self.inv, np.intp)
        self.leq_array = np.array(self.leq, bool).reshape(n, n)
        self.composite = np.zeros((n, n), np.intp) - 1
        pairs = np.array(list(self.compose), np.intp).reshape(-1, 2)
        self.composite[pairs[:, 0], pairs[:, 1]] = list(self.compose.values())
        ar = np.arange(n)
        is_identity = (
            (self.dom_array == ar) & (self.ran_array == ar) & (self.composite[ar, ar] == ar)
        )
        self.is_identity = is_identity.tolist()
        self.identity_array = is_identity.nonzero()[0]
        self.identities = self.identity_array.tolist()
        # position of each identity in self.identities, -1 for other arrows
        self.identity_pos = np.zeros(n, np.intp) - 1
        self.identity_pos[self.identity_array] = np.arange(len(self.identities))
        self.identity_index = {x: i for i, x in enumerate(self.identities)}  # the same, as a dict

    @cached_property
    def restrictions(self):
        """restrictions[i, g]: the unique arrow below g whose domain is the
        i-th identity, or -1 where that identity is not below dom(g) or the
        arrow is not unique."""
        ids, dom, L = self.identity_array, self.dom_array, self.leq_array.astype(np.float32)
        at = (dom == ids[:, None]).astype(np.float32)  # at[i, h]: dom(h) is the i-th identity
        count, total = at @ L, (at * np.arange(self.n, dtype=np.float32)) @ L
        out = total.astype(np.intp)
        out[~(self.leq_array[ids][:, dom] & (count == 1))] = -1
        return out

    @cached_property
    def meets(self):
        """meets[i, j]: the meet of the i-th and j-th identities among the
        identities, or -1 where they have none."""
        return _glbs(self, self.identity_array, self.identity_array)

    def star(self, x):
        """Arrows with domain x."""
        return [g for g in range(self.n) if self.dom[g] == x]

    def __repr__(self):
        return f"<ordered groupoid, {self.n} arrows, {len(self.identities)} identities>"


def _glbs(G, xs, ys):
    """[i, j] -> the first identity z below xs[i] and ys[j] that every such
    identity is below, or -1."""
    ids, xs, ys = G.identity_array, np.array(xs, np.intp), np.array(ys, np.intp)
    out = np.zeros((len(xs), len(ys)), np.intp) - 1
    if not len(ids):
        return out
    below = G.leq_array[ids]                                # below[z, v]: z <= v
    not_above = (~below[:, ids]).T.astype(np.float32)       # [z, w]: not w <= z
    for rows in row_blocks(len(xs), len(ids) * len(ys)):
        # lower[z, (i, j)]: z below xs[i] and ys[j], a block of rows i at a time
        lower = (below[:, xs[rows], None] & below[:, None, ys]).reshape(len(ids), -1)
        glb = lower & (not_above @ lower == 0)
        has = glb.any(axis=0)
        out[rows].reshape(-1)[has] = ids[glb.argmax(axis=0)[has]]
    return out


def verify_ordered_groupoid(G):
    """Check every groupoid and order axiom; failures carry a witness.

    Each axiom is decided by one sweep over the arrays; on a failure the
    per-arrow loop body runs from the first flagged arrow to name the witness.
    """
    rep = CheckReport(f"ordered groupoid axioms on {G!r}")
    n = G.n
    dom, ran, inv = G.dom_array, G.ran_array, G.inv_array
    L, C, ar = G.leq_array, G.composite, np.arange(n)
    ids, is_id = G.identity_array, np.array(G.is_identity, bool)

    def endpoint_failures(g):
        if not (G.is_identity[G.dom[g]] and G.is_identity[G.ran[g]]):
            yield f"arrow {g} has non-identity endpoint"
        if G.inv[G.inv[g]] != g or G.dom[G.inv[g]] != G.ran[g] or G.ran[G.inv[g]] != G.dom[g]:
            yield f"inverse of arrow {g} is malformed"

    rep.first_failure("endpoints_and_inverses", replay(
        ~(is_id[dom] & is_id[ran]) | (inv[inv] != ar) | (dom[inv] != ran) | (ran[inv] != dom),
        endpoint_failures,
    ))

    rep.first_failure("composition_domain", (
        f"composability of ({g},{h}) disagrees with range/domain"
        for g, h in hits((C >= 0) != (ran[:, None] == dom))
    ))

    def law_failures(g):
        gd, gr = G.dom[g], G.ran[g]
        if G.compose.get((gd, g)) != g or G.compose.get((g, gr)) != g:
            yield f"identity laws fail at arrow {g}"
        if G.compose.get((g, G.inv[g])) != gd or G.compose.get((G.inv[g], g)) != gr:
            yield f"inverse laws fail at arrow {g}"

    rep.first_failure("identity_and_inverse_laws", replay(
        (C[dom, ar] != ar) | (C[ar, ran] != ar) | (C[ar, inv] != dom) | (C[inv, ar] != ran),
        law_failures,
    ))

    # composable pairs in the dict's order, each against every third arrow
    items = list(G.compose.items())
    pairs = np.array([pair for pair, _ in items], np.intp).reshape(-1, 2)
    first, second = pairs[:, 0], pairs[:, 1]
    both = np.array([gh for _, gh in items], np.intp)
    flags = (dom[both] != dom[first]) | (ran[both] != ran[second])
    for rows in row_blocks(len(items), n):
        hk = C[second[rows]]
        lhs, rhs = C[both[rows]], C[first[rows, None], hk]
        flags[rows] |= ((hk >= 0) & ((lhs < 0) | (rhs < 0) | (lhs != rhs))).any(axis=1)

    def associativity_failures(i):
        (g, h), gh = items[i]
        if G.dom[gh] != G.dom[g] or G.ran[gh] != G.ran[h]:
            yield f"endpoints of composite ({g},{h}) are wrong"
        for k in range(n):
            if (h, k) in G.compose:
                # a missing composite on either side fails, as in the sweep
                lhs = G.compose.get((gh, k))
                if lhs is None or lhs != G.compose.get((g, G.compose[(h, k)])):
                    yield f"associativity fails at ({g},{h},{k})"

    rep.first_failure("associativity", replay(flags, associativity_failures))

    def order_failures(a):
        if not G.leq[a][a]:
            yield f"order not reflexive at {a}"
        for b in range(n):
            if G.leq[a][b] and G.leq[b][a] and a != b:
                yield f"order not antisymmetric at ({a},{b})"
            if G.leq[a][b]:
                for c in range(n):
                    if G.leq[b][c] and not G.leq[a][c]:
                        yield f"order not transitive at ({a},{b},{c})"

    Lf = L.astype(np.float32)
    rep.first_failure("partial_order", replay(
        ~L[ar, ar]
        | (L & L.T & (ar[:, None] != ar)).any(axis=1)
        | ((Lf @ Lf > 0) & ~L).any(axis=1),
        order_failures,
    ))

    rep.first_failure("OG1_inversion_ordered", (
        f"OG1 fails at {g}<={h}"
        for g, h in hits(L & ~L[inv][:, inv])
    ))

    P1, P2 = L.nonzero()

    def og2_mask(rows):
        gh1, gh2 = C[P1[rows]][:, P1], C[P2[rows]][:, P2]
        fails = (gh1 >= 0) & (gh2 >= 0)
        fails[fails] = ~L[gh1[fails], gh2[fails]]
        return fails

    rep.first_failure("OG2_composition_ordered", (
        f"OG2 fails at {P1[p]}<={P2[p]}, {P1[q]}<={P2[q]}"
        for p, q in first_hits(len(P1), len(P1), og2_mask)
    ))

    def restriction_failures(g):
        for x in G.identities:
            if G.leq[x][G.dom[g]]:
                cands = [h for h in range(n) if G.dom[h] == x and G.leq[h][g]]
                if len(cands) != 1:
                    yield f"OG3: {len(cands)} restrictions of {g} to {x}: {cands}"

    R = G.restrictions
    rep.first_failure("OG3_unique_restriction", replay(
        (L[ids][:, dom] & (R < 0)).any(axis=0), restriction_failures
    ))

    # OG3* follows from endpoints, OG1 and OG3 (Lawson, Inverse Semigroups,
    # ch. 4), so it passes without the sweep that tests/oracles.py keeps.  For
    # an identity y <= ran g = dom g^-1, OG3 gives one restriction (y|g^-1);
    # its inverse ends at y and, by OG1, lies below g.  By OG1 again, k ->
    # k^-1 maps the corestrictions of g to y onto the restrictions of g^-1 to
    # y, of which OG3 allows exactly one.
    rep.add("OG3star_corestriction", True)

    rep.first_failure("identities_downward_closed", (
        f"non-identity {g} below identity {G.identities[x]}"
        for x, g in hits(L[:, ids].T & ~is_id)
    ))
    return rep


def restriction(G, x, g):
    """The unique arrow (x|g) below g with domain x."""
    if not (G.is_identity[x] and G.leq[x][G.dom[g]]):
        raise NotBelowDomain(f"identity {x} is not below the domain of arrow {g}")
    h = int(G.restrictions[G.identity_pos[x], g])
    if h < 0:
        raise NotBelowDomain(f"no unique restriction of {g} to {x}")
    return h


def corestriction(G, g, y):
    """The unique arrow (g|y) below g with range y, via (y|g^-1)^-1."""
    return G.inv[restriction(G, y, G.inv[g])]


def meet_identities(G, x, y):
    """Greatest lower bound of two identities, or None when absent."""
    i, j = G.identity_pos[x], G.identity_pos[y]
    z = G.meets[i, j] if i >= 0 and j >= 0 else _glbs(G, [x], [y])[0, 0]
    return None if z < 0 else int(z)


def pseudoproduct(G, a, b):
    """(a|l)(l|b) where l is the meet of ran(a) and dom(b); None if no meet."""
    ell = meet_identities(G, G.ran[a], G.dom[b])
    if ell is None:
        return None
    pair = (corestriction(G, a, ell), restriction(G, ell, b))
    ab = int(G.composite[pair])
    if ab < 0:
        raise KeyError(pair)
    return ab


# ---------------------------------------------------------------------------
# the semigroup <-> groupoid conversions


def esn_forward(S):
    """The ordered groupoid carried by an inverse semigroup.

    Arrows are the elements; composition ab is defined exactly when
    a^-1 a = b b^-1; the order is the natural partial order.
    """
    M, I, ar = S.mul_array, S.inv_array, np.arange(S.size)
    dom, ran = M[ar, I], M[I, ar]
    g, h = (ran[:, None] == dom).nonzero()
    compose = dict(zip(zip(g.tolist(), h.tolist()), M[g, h].tolist()))
    return OrderedGroupoid(
        dom.tolist(), ran.tolist(), S.inv, compose, S.natural_order().table, names=S.names
    )


def esn_back(G, cap=None):
    """Recover an inverse semigroup from an inductive ordered groupoid.

    Multiplication is the pseudoproduct; requires every pair of identities
    to have a meet.  The table is read from the meet, restriction and
    composite tables at once; pairs it cannot settle there (an endpoint that
    is not an identity, a missing restriction or composite) go through
    pseudoproduct one by one, in row order, which raises where it must.
    """
    missing = next(hits(G.meets < 0), None)
    if missing is not None:
        raise NotInductive(*(G.identities[i] for i in missing))
    n = G.n
    unsettled = ~np.zeros((n, n), bool)
    ab = np.zeros((n, n), np.intp) - 1
    if G.identities:  # with none, every pair is unsettled and has no meet
        R, pos, inv = G.restrictions, G.identity_pos, G.inv_array
        x, y = pos[G.ran_array][:, None], pos[G.dom_array]
        ell = pos[G.meets[x, y]]                # position of ran(a) ^ dom(b)
        to_inverse = R[ell, inv[:, None]]       # (l | a^-1), whose inverse is (a | l)
        to_b = R[ell, np.arange(n)]             # (l | b)
        ab = G.composite[inv[to_inverse], to_b]
        unsettled = (x < 0) | (y < 0) | (to_inverse < 0) | (to_b < 0) | (ab < 0)
    mul = ab.tolist()
    for a, b in hits(unsettled):
        mul[a][b] = pseudoproduct(G, a, b)
    return build_from_table(G.names, mul, cap=cap)


# ---------------------------------------------------------------------------
# flows


def identity_flow(G):
    return tuple(G.identities)


def flow_compose(G, t, s):
    """Pointwise x -> (x t) ((x t) ran) s."""
    pos, ran, compose = G.identity_index, G.ran, G.compose
    return tuple(compose[(g, s[pos[ran[g]]])] for g in t)


def enumerate_flows(G, cap=DEFAULT_FLOW_CAP):
    """All maps sending each identity to an arrow starting there."""
    stars = [G.star(x) for x in G.identities]
    total = 1
    for st in stars:
        total *= len(st)
        if cap is not None and total > cap:
            raise SizeCap(total, cap)
    return [tuple(t) for t in product(*stars)]


def ordered_flows(G, flows=None, cap=DEFAULT_FLOW_CAP):
    """Flows that are order preserving on identities.  On an ordered
    groupoid they form a monoid: for identities x <= y, t(x) <= t(y) gives
    ran t(x) <= ran t(y) by OG1 and OG2, so s(ran t(x)) <= s(ran t(y)), and
    OG2 orders the composites."""
    if flows is None:
        flows = enumerate_flows(G, cap=cap)
    ids = G.identities
    below = [(i, j) for i, x in enumerate(ids) for j, y in enumerate(ids) if G.leq[x][y]]
    return [t for t in flows if all(G.leq[t[i]][t[j]] for i, j in below)]


# ---------------------------------------------------------------------------
# flow monoid structure: components and wreath products


def connected_components(G):
    """Partition of the identities by arrow connectivity, each sorted."""
    parent = {x: x for x in G.identities}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in range(G.n):
        a, b = find(G.dom[g]), find(G.ran[g])
        if a != b:
            parent[a] = b
    comps = {}
    for x in G.identities:
        comps.setdefault(find(x), []).append(x)
    return sorted(sorted(c) for c in comps.values())


def component_subgroupoid(G, keep):
    """The full subgroupoid on the arrows ``keep``, those starting at one set
    of identities, reindexed densely in that order."""
    new = {g: i for i, g in enumerate(keep)}
    dom = [new[G.dom[g]] for g in keep]
    ran = [new[G.ran[g]] for g in keep]
    inv = [new[G.inv[g]] for g in keep]
    compose = {
        (new[g], new[h]): new[k]
        for (g, h), k in G.compose.items()
        if g in new and h in new
    }
    leq = [[G.leq[a][b] for b in keep] for a in keep]
    names = [G.names[g] for g in keep]
    return OrderedGroupoid(dom, ran, inv, compose, leq, names=names)


def check_flow_monoid_structure(G, cap=DEFAULT_FLOW_CAP):
    """Decompose the flow monoid by connected components and verify that each
    connected piece is the wreath product L wr T_m of its local group L with
    the full transformation monoid on its m objects, on composable arrows:
    no wreath table is built and no two flows are composed."""
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

    # the splitting map must be a bijective homomorphism onto the product
    pos = G.identity_index
    arrow_maps = [{g: i for i, g in enumerate(keep)} for keep in keeps]

    def splitting_failures():
        seen = set()
        for t in flows:
            s = tuple(tuple(amap[t[pos[x]]] for x in c) for c, amap in zip(comps, arrow_maps))
            if s in seen:
                yield f"splitting map not injective at flow {t}"
            seen.add(s)
        # coordinate x of the composite of flows t, s is t[x] composed with s
        # at ran t[x], both in x's component, and each composable pair there
        # occurs so because each star holds its identity: the split is
        # multiplicative iff each component composes its arrows as G does.  A
        # pair G does not compose raises KeyError, as composing the flows would.
        for amap, Gi in zip(arrow_maps, subs):
            for g in amap:
                for h in G.star(G.ran[g]):
                    if Gi.compose.get((amap[g], amap[h])) != amap[G.compose[(g, h)]]:
                        yield f"splitting map not multiplicative at arrows ({g},{h})"

    rep.first_failure("component_product_iso", splitting_failures())

    for ci, (Gi, fl) in enumerate(zip(subs, sub_flows)):
        label = f"component_{ci}_wreath_iso"
        C, m, base = Gi.compose, len(Gi.identities), Gi.identities[0]
        local = [g for g in Gi.star(base) if Gi.ran[g] == base]
        lidx = {g: i for i, g in enumerate(local)}
        ltable = [[lidx[C[(a, b)]] for b in local] for a in local]
        connect = {}  # the first arrow from base to each object
        for g in Gi.star(base):
            connect.setdefault(Gi.ran[g], g)
        missing = [y for y in Gi.identities if y not in connect]
        if missing:
            rep.add(label, False, f"object {missing[0]} not reachable from base {base}")
            continue

        # t -> (lam, theta) is coordinatewise: coordinate x of t is that of its
        # arrow g = t(x), the local element c_dom(g) g c_ran(g)^-1 and the
        # position of ran g.  An arrow whose local element is undefined gets
        # none, so the first flow holding it raises KeyError.
        coord = [{} for _ in range(m)]  # coord[x][g] for g in the x-th star
        for g in range(Gi.n):
            lam = lidx.get(C.get((C.get((connect[Gi.dom[g]], g)), Gi.inv[connect[Gi.ran[g]]])))
            if lam is not None:
                coord[Gi.identity_index[Gi.dom[g]]][g] = (lam, Gi.identity_index[Gi.ran[g]])

        def wreath_failures():
            size = len(local) ** m * m ** m
            if len(fl) != size:
                yield f"sizes differ: {len(fl)} flows vs {size} wreath elements"
                return
            seen = set()
            for t in fl:
                e = tuple(cx[g] for cx, g in zip(coord, t))
                if e in seen:
                    yield f"candidate map not injective at flow {t}"
                seen.add(e)
            # coordinate x of t s is that of the composable pair (t(x), s(y)),
            # y = ran t(x), and each composable pair occurs so because each
            # star holds its identity: the map is multiplicative iff every gh
            # has coordinate (lam(g) lam(h), theta(h)).  A gh outside the star
            # of dom g raises KeyError, as the composite flow is then no flow.
            for cx in coord:
                for g, (lam, y) in cx.items():
                    for h, (mu, z) in coord[y].items():
                        if cx[C[(g, h)]] != (ltable[lam][mu], z):
                            yield f"candidate map not multiplicative at arrows ({g},{h})"

        # the size identity is only claimed when the map is an isomorphism
        w = next(wreath_failures(), None)
        rep.add(label, w is None, w,
                detail=None if w else f"|flows| = {len(fl)} = |L|^{m} * {m}^{m}")
    return rep
