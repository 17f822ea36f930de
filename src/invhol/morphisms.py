"""Premorphisms and endomorphisms of finite inverse semigroups.

A premorphism is a map with (ab)t <= at bt for all a,b in the natural
partial order.  A self-map is its value vector, the tuple (0t, 1t, ...).
Premorphisms are not determined by generator images, so enumeration is a
depth-first sweep over full value vectors with early pruning, in the order
of the inductive groupoid: idempotents, then each element with its inverse.
Output order is lexicographic on the value vector.
"""

from dataclasses import dataclass, field

from .errors import NotSemilatticeOfGroups
from .core import SemilatticeOfGroups, build_semilattice_of_groups, SemilatticeOfGroupsSpec
from .report import CheckReport
from .search import assert_transformation_monoid, backtrack

DEFAULT_NODE_BUDGET = 10**8


def is_premorphism(S, T, theta, diagnostics=False):
    """True iff (ab)theta <= a.theta b.theta for all pairs.

    With diagnostics on, also asserts the equivalence with "ordered and
    multiplicative on pairs with a^-1 a = b b^-1".
    """
    theta = tuple(theta)
    leq = T.natural_order().leq
    mul_s, mul_t = S.mul, T.mul
    elems = range(S.size)
    result = all(
        leq(theta[mul_s[a][b]], mul_t[theta[a]][theta[b]]) for a in elems for b in elems
    )
    if diagnostics:
        leq_s = S.natural_order().leq
        alt = all(
            leq(theta[a], theta[b]) for a in elems for b in elems if leq_s(a, b)
        ) and all(
            theta[mul_s[a][b]] == mul_t[theta[a]][theta[b]]
            for a in elems
            for b in elems
            if mul_s[S.inv[a]][a] == mul_s[b][S.inv[b]]
        )
        assert alt == result, f"premorphism characterisations disagree on {theta}"
    return result


def is_endomorphism(S, theta):
    mul = S.mul
    return all(
        theta[mul[a][b]] == mul[theta[a]][theta[b]]
        for a in range(S.size)
        for b in range(S.size)
    )


def _maps_by_products(S, rel, budget):
    """Value vectors theta with rel[(ab)theta][a.theta b.theta] for all a, b,
    lexicographic; rel is a table of bools indexed by two elements of S.

    Such a theta, for the natural order as for equality, is an ordered
    functor of the inductive groupoid: it maps E into E, a^-1 to
    (a theta)^-1 and a a^-1 to (a theta)(a theta)^-1 (Lawson, Inverse
    Semigroups, ch. 4; McAlister and Reilly 1977).  So the idempotents are
    assigned first, from E, and then each pair {a, a^-1}: a takes the
    elements x with x x^-1 = (a a^-1)theta and x^-1 x = (a^-1 a)theta, and
    a^-1 is forced to the inverse of a's value.  A triple (a, b, ab) is
    checked where the last of a, b and ab is assigned; the vectors are
    sorted once at the end.
    """
    n = S.size
    mul, inv = S.mul, S.inv
    order = list(S.idempotents)
    for a in range(n):
        if not S.is_idempotent[a] and a <= inv[a]:
            order += [a] if a == inv[a] else [a, inv[a]]
    pos = [0] * n
    for k, a in enumerate(order):
        pos[a] = k
    by_ends = {}
    for x in range(n):
        by_ends.setdefault((mul[x][inv[x]], mul[inv[x]][x]), []).append(x)

    def candidates(a):
        if S.is_idempotent[a]:
            return S.idempotents
        if a > inv[a]:
            return lambda theta, k=pos[inv[a]]: (inv[theta[k]],)
        d, r = pos[mul[a][inv[a]]], pos[mul[inv[a]][a]]
        return lambda theta: by_ends.get((theta[d], theta[r]), ())

    sched = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            sched[max(pos[a], pos[b], pos[ab])].append((pos[a], pos[b], pos[ab]))

    def ok_at(theta, k):
        for a, b, ab in sched[k]:
            if not rel[theta[ab]][mul[theta[a]][theta[b]]]:
                return False
        return True

    found = backtrack([candidates(a) for a in order], ok_at, budget)
    return sorted(tuple(v[k] for k in pos) for v in found)


def enumerate_premorphisms(S, budget=DEFAULT_NODE_BUDGET):
    """All premorphic self-maps of S as value vectors, in lexicographic order.

    Closure under composition and presence of the identity are asserted
    (Prem(S) is a monoid).  Raises SearchBudgetExceeded past the node budget.
    """
    vecs = _maps_by_products(S, S.natural_order().table, budget)
    assert_transformation_monoid(vecs, "premorphisms")
    return vecs


def enumerate_endomorphisms(S, budget=DEFAULT_NODE_BUDGET):
    """All endomorphisms of S as value vectors, in lexicographic order: the
    same search as for premorphisms with equality in place of the natural
    order."""
    eq = [[a == b for b in range(S.size)] for a in range(S.size)]
    vecs = _maps_by_products(S, eq, budget)
    assert_transformation_monoid(vecs, "endomorphisms")
    return vecs


def verify_premorphism_laws(S, prems=None, budget=DEFAULT_NODE_BUDGET):
    """Check the derived laws for every enumerated premorphism of S.

    (i) idempotents map to idempotents; (ii) inverses are preserved;
    (iii) (s s^-1)t = st (st)^-1; (iv) products split whenever a^-1 a and
    b b^-1 are comparable; (v) the ordered+multiplicative characterisation
    agrees with the defining inequality on all self-maps enumerated.
    """
    if prems is None:
        prems = enumerate_premorphisms(S, budget=budget)
    rep = CheckReport(f"premorphism laws on {S!r} ({len(prems)} premorphisms)")
    mul, inv = S.mul, S.inv
    leq = S.natural_order().leq

    rep.first_failure("idempotents_map_to_idempotents", (
        f"theta={t}, e={e}"
        for t in prems
        for e in S.idempotents
        if not S.is_idempotent[t[e]]
    ))
    rep.first_failure("inverses_preserved", (
        f"theta={t}, a={a}"
        for t in prems
        for a in range(S.size)
        if t[inv[a]] != inv[t[a]]
    ))
    rep.first_failure("range_idempotent_formula", (
        f"theta={t}, s={a}"
        for t in prems
        for a in range(S.size)
        if t[mul[a][inv[a]]] != mul[t[a]][inv[t[a]]]
    ))
    ran = [mul[inv[a]][a] for a in range(S.size)]
    dom = [mul[b][inv[b]] for b in range(S.size)]
    comparable = [
        (a, b)
        for a in range(S.size)
        for b in range(S.size)
        if leq(ran[a], dom[b]) or leq(dom[b], ran[a])
    ]
    rep.first_failure("products_split_when_comparable", (
        f"theta={t}, a={a}, b={b}"
        for t in prems
        for a, b in comparable
        if t[mul[a][b]] != mul[t[a]][t[b]]
    ))
    rep.first_failure("ordered_multiplicative_equivalence", (
        f"theta={t}" for t in prems if not is_premorphism(S, S, t, diagnostics=True)
    ))
    return rep


@dataclass
class SogPremorphismData:
    """A premorphism of a semilattice of groups in (lambda, phi) form.

    lam maps component indices downward-compatibly; phi[e] is the group
    homomorphism from the group at e to the group at lam[e]; sigma is the
    induced idempotent-separating homomorphism into the re-linked structure.
    """

    lam: tuple
    phi: dict
    relinked: object = field(repr=False)
    sigma: tuple = field(repr=False)


def sog_premorphism_data(sog, theta):
    """Decompose a premorphism of a semilattice of groups into (lambda, phi).

    Verifies that lambda is order preserving, every phi_e is a group
    homomorphism, the linking squares commute, and that the induced map into
    the re-linked semilattice of groups is multiplicative.
    """
    if not isinstance(sog, SemilatticeOfGroups):
        raise NotSemilatticeOfGroups(
            "argument must come from build_semilattice_of_groups"
        )
    S = sog.semigroup
    theta = tuple(theta)
    if not is_premorphism(S, S, theta):
        raise ValueError("map is not a premorphism")
    spec = sog.spec
    k = sog.num_components

    parts = sog.parts
    lam = tuple(parts[theta[sog.idempotent_of_component(e)]][0] for e in range(k))
    # sog.linking has a map for each pair e >= f, and for no other pair
    for e, f in sog.linking:
        assert spec.leq[lam[f]][lam[e]], f"lambda is not order preserving at {e}>={f}"

    phi = {}
    for e in range(k):
        images = [parts[theta[sog.element(e, g)]] for g in range(len(spec.group_tables[e]))]
        assert all(x == lam[e] for x, _ in images), (
            f"theta does not map component {e} into component {lam[e]}"
        )
        phi[e] = tuple(h for _, h in images)
        te, tl = spec.group_tables[e], spec.group_tables[lam[e]]
        for g in range(len(te)):
            for h in range(len(te)):
                assert phi[e][te[g][h]] == tl[phi[e][g]][phi[e][h]], (
                    f"phi_{e} is not a homomorphism"
                )
    for (e, f), link in sog.linking.items():
        for g in range(len(spec.group_tables[e])):
            lhs = sog.linking[(lam[e], lam[f])][phi[e][g]]
            rhs = phi[f][link[g]]
            assert lhs == rhs, f"compatibility square fails at {e}>={f}, g={g}"

    relink = {(e, f): list(sog.linking[(lam[e], lam[f])]) for e, f in sog.linking}
    relinked = build_semilattice_of_groups(
        SemilatticeOfGroupsSpec(
            leq=spec.leq,
            group_tables=[spec.group_tables[lam[e]] for e in range(k)],
            linking=relink,
        )
    )
    U = relinked.semigroup
    sigma = tuple(relinked.element(e, phi[e][g]) for e, g in parts)
    for a in range(S.size):
        for b in range(S.size):
            assert sigma[S.mul[a][b]] == U.mul[sigma[a]][sigma[b]], (
                f"induced map is not multiplicative at ({a},{b})"
            )
    return SogPremorphismData(lam=lam, phi=phi, relinked=relinked, sigma=sigma)
