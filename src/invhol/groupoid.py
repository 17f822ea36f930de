"""Ordered groupoids: axioms, restrictions, pseudoproduct, the semigroup
conversions both ways, and flow monoids.

Arrows are integer indices with domain/range given as identity-arrow indices.
Partial composition is stored sparsely as a dict keyed by composable pairs.
The partial order is a boolean table.  Instances are immutable after
validation and safe to share.
"""

from itertools import product

from .core import build_from_table
from .errors import NotBelowDomain, NotInductive, SizeCap
from .report import CheckReport

DEFAULT_FLOW_CAP = 10**6


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
        self.is_identity = [
            self.dom[g] == g and self.ran[g] == g and self.compose.get((g, g)) == g
            for g in range(n)
        ]
        self.identities = [g for g in range(n) if self.is_identity[g]]
        self._restriction = None

    def star(self, x):
        """Arrows with domain x."""
        return [g for g in range(self.n) if self.dom[g] == x]

    def _restriction_index(self):
        if self._restriction is None:
            idx = {}
            for g in range(self.n):
                for x in self.identities:
                    if self.leq[x][self.dom[g]]:
                        cands = [
                            h
                            for h in range(self.n)
                            if self.dom[h] == x and self.leq[h][g]
                        ]
                        if len(cands) == 1:
                            idx[(x, g)] = cands[0]
            self._restriction = idx
        return self._restriction

    def __repr__(self):
        return f"<ordered groupoid, {self.n} arrows, {len(self.identities)} identities>"


def verify_ordered_groupoid(G):
    """Check every groupoid and order axiom; failures carry a witness."""
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
                    if G.compose[(gh, k)] != G.compose[(g, G.compose[(h, k)])]:
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
                    co = G.inv[restriction(G, y, G.inv[g])]
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


def restriction(G, x, g):
    """The unique arrow (x|g) below g with domain x."""
    if not (G.is_identity[x] and G.leq[x][G.dom[g]]):
        raise NotBelowDomain(f"identity {x} is not below the domain of arrow {g}")
    idx = G._restriction_index()
    if (x, g) not in idx:
        raise NotBelowDomain(f"no unique restriction of {g} to {x}")
    return idx[(x, g)]


def corestriction(G, g, y):
    """The unique arrow (g|y) below g with range y, via (y|g^-1)^-1."""
    return G.inv[restriction(G, y, G.inv[g])]


def meet_identities(G, x, y):
    """Greatest lower bound of two identities, or None when absent."""
    lower = [z for z in G.identities if G.leq[z][x] and G.leq[z][y]]
    for z in lower:
        if all(G.leq[w][z] for w in lower):
            return z
    return None


def pseudoproduct(G, a, b):
    """(a|l)(l|b) where l is the meet of ran(a) and dom(b); None if no meet."""
    ell = meet_identities(G, G.ran[a], G.dom[b])
    if ell is None:
        return None
    return G.compose[(corestriction(G, a, ell), restriction(G, ell, b))]


# ---------------------------------------------------------------------------
# the semigroup <-> groupoid conversions


def esn_forward(S):
    """The ordered groupoid carried by an inverse semigroup.

    Arrows are the elements; composition ab is defined exactly when
    a^-1 a = b b^-1; the order is the natural partial order.
    """
    n = S.size
    mul, inv = S.mul, S.inv
    dom = [mul[a][inv[a]] for a in range(n)]
    ran = [mul[inv[a]][a] for a in range(n)]
    compose = {
        (a, b): mul[a][b] for a in range(n) for b in range(n) if ran[a] == dom[b]
    }
    order = S.natural_order()
    leq = [[order.leq(a, b) for b in range(n)] for a in range(n)]
    return OrderedGroupoid(dom, ran, inv, compose, leq, names=S.names)


def esn_back(G, cap=None):
    """Recover an inverse semigroup from an inductive ordered groupoid.

    Multiplication is the pseudoproduct; requires every pair of identities
    to have a meet.
    """
    for x in G.identities:
        for y in G.identities:
            if meet_identities(G, x, y) is None:
                raise NotInductive(x, y)
    n = G.n
    mul = [[pseudoproduct(G, a, b) for b in range(n)] for a in range(n)]
    return build_from_table(G.names, mul, cap=cap)


# ---------------------------------------------------------------------------
# flows


def identity_flow(G):
    return tuple(G.identities)


def flow_compose(G, t, s):
    """Pointwise x -> (x t) ((x t) ran) s."""
    pos = {x: i for i, x in enumerate(G.identities)}
    return tuple(
        G.compose[(g, s[pos[G.ran[g]]])] for g in t
    )


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
    """Flows that are order preserving on identities; closed under composition."""
    if flows is None:
        flows = enumerate_flows(G, cap=cap)
    idx = list(G.identities)
    out = []
    for t in flows:
        if all(
            G.leq[t[i]][t[j]]
            for i in range(len(idx))
            for j in range(len(idx))
            if G.leq[idx[i]][idx[j]]
        ):
            out.append(t)
    chosen = set(out)
    assert identity_flow(G) in chosen
    for t in out:
        for s in out:
            assert flow_compose(G, t, s) in chosen, (
                "ordered flows are not closed under composition"
            )
    return out


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


def component_subgroupoid(G, comp):
    """The full subgroupoid on a set of identities, reindexed densely."""
    keep = [g for g in range(G.n) if G.dom[g] in comp]
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


def check_flow_monoid_structure(G, cap=DEFAULT_FLOW_CAP):
    """Decompose the flow monoid by connected components and verify each
    connected piece against the explicit wreath product."""
    rep = CheckReport(f"flow monoid structure on {G!r}")
    flows = enumerate_flows(G, cap=cap)
    rep.add("flow_count", True, detail=f"|flows| = {len(flows)}")

    comps = connected_components(G)
    subs = [component_subgroupoid(G, c) for c in comps]
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
    pos = {x: i for i, x in enumerate(G.identities)}
    arrow_maps = []
    for c, Gi in zip(comps, subs):
        keep = [g for g in range(G.n) if G.dom[g] in c]
        arrow_maps.append({g: i for i, g in enumerate(keep)})

    def split(t):
        parts = []
        for c, amap in zip(comps, arrow_maps):
            parts.append(tuple(amap[t[pos[x]]] for x in c))
        return tuple(parts)

    def splitting_failures():
        seen = set()
        for t in flows:
            s = split(t)
            if s in seen:
                yield f"splitting map not injective at flow {t}"
            seen.add(s)
        for t in flows:
            for s in flows:
                lhs = split(flow_compose(G, t, s))
                rhs = tuple(
                    flow_compose(Gi, a, b)
                    for Gi, a, b in zip(subs, split(t), split(s))
                )
                if lhs != rhs:
                    yield f"splitting map not multiplicative at ({t},{s})"

    rep.first_failure("component_product_iso", splitting_failures())

    for ci, (c, Gi, fl) in enumerate(zip(comps, subs, sub_flows)):
        label = f"component_{ci}_wreath_iso"
        m = len(Gi.identities)
        base = Gi.identities[0]
        local = [g for g in range(Gi.n) if Gi.dom[g] == base and Gi.ran[g] == base]
        lidx = {g: i for i, g in enumerate(local)}
        ltable = [[lidx[Gi.compose[(a, b)]] for b in local] for a in local]
        connect = {}
        ok = True
        for y in Gi.identities:
            cands = [g for g in range(Gi.n) if Gi.dom[g] == base and Gi.ran[g] == y]
            if not cands:
                rep.add(label, False, f"object {y} not reachable from base {base}")
                ok = False
                break
            connect[y] = min(cands)
        if not ok:
            continue

        welems, wtable = wreath_product(ltable, m)
        windex = {e: i for i, e in enumerate(welems)}
        gpos = {x: i for i, x in enumerate(Gi.identities)}

        def to_wreath(t):
            theta = tuple(gpos[Gi.ran[g]] for g in t)
            lam = tuple(
                lidx[
                    Gi.compose[(
                        Gi.compose[(connect[Gi.identities[x]], t[x])],
                        Gi.inv[connect[Gi.ran[t[x]]]],
                    )]
                ]
                for x in range(m)
            )
            return (lam, theta)

        def wreath_failures():
            if len(fl) != len(welems):
                yield f"sizes differ: {len(fl)} flows vs {len(welems)} wreath elements"
                return
            images = {}
            for t in fl:
                e = to_wreath(t)
                if e in images:
                    yield f"candidate map not injective at flow {t}"
                images[t] = windex[e]
            for t in fl:
                for s in fl:
                    if images[flow_compose(Gi, t, s)] != wtable[images[t]][images[s]]:
                        yield f"candidate map not multiplicative at ({t},{s})"

        # the size identity is only claimed when the explicit map is an isomorphism
        w = next(wreath_failures(), None)
        rep.add(label, w is None, w,
                detail=None if w else f"|flows| = {len(fl)} = |L|^{m} * {m}^{m}")
    return rep


# ---------------------------------------------------------------------------
# small groupoid builders


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
