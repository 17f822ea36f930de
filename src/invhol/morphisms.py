"""Ordered maps, premorphisms and endomorphisms of finite inverse semigroups.

A premorphism is a map with (ab)t <= at bt for all a,b in the natural
partial order.  Premorphisms are not determined by generator images, so
enumeration is a depth-first sweep over full value vectors with early
pruning; output order is lexicographic on the value vector.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import NotSemilatticeOfGroups, SearchBudgetExceeded
from .core import SemilatticeOfGroups, build_semilattice_of_groups, SemilatticeOfGroupsSpec

DEFAULT_NODE_BUDGET = 10**8


class ElementMap:
    """A total self-map of a semigroup's element set with cached predicates."""

    def __init__(self, source, target, theta):
        theta = tuple(theta)
        if len(theta) != source.size or any(not 0 <= v < target.size for v in theta):
            raise ValueError("map is not a total map into the target")
        self.source = source
        self.target = target
        self.theta = theta
        self._flags = {}

    def __call__(self, a):
        return self.theta[a]

    def __eq__(self, other):
        return (
            isinstance(other, ElementMap)
            and self.theta == other.theta
            and self.source is other.source
            and self.target is other.target
        )

    def __hash__(self):
        return hash(self.theta)

    def _cached(self, key, fn):
        if key not in self._flags:
            self._flags[key] = fn(self.source, self.target, self.theta)
        return self._flags[key]

    @property
    def is_ordered(self):
        return self._cached("ordered", _is_ordered)

    @property
    def is_premorphism(self):
        return self._cached("premorphism", _is_premorphism)

    @property
    def is_endomorphism(self):
        return self._cached("endomorphism", _is_multiplicative)

    def __repr__(self):
        return f"ElementMap{self.theta}"


def _is_ordered(S, T, theta):
    leq_s = S.natural_order().leq
    leq_t = T.natural_order().leq
    return all(
        leq_t(theta[a], theta[b])
        for a in range(S.size)
        for b in range(S.size)
        if leq_s(a, b)
    )


def _is_premorphism(S, T, theta):
    leq = T.natural_order().leq
    mul_s, mul_t = S.mul, T.mul
    return all(
        leq(theta[mul_s[a][b]], mul_t[theta[a]][theta[b]])
        for a in range(S.size)
        for b in range(S.size)
    )


def _is_multiplicative(S, T, theta):
    mul_s, mul_t = S.mul, T.mul
    return all(
        theta[mul_s[a][b]] == mul_t[theta[a]][theta[b]]
        for a in range(S.size)
        for b in range(S.size)
    )


def is_premorphism(S, T, theta, diagnostics=False):
    """True iff (ab)theta <= a.theta b.theta for all pairs.

    With diagnostics on, also asserts the equivalence with "ordered and
    multiplicative on pairs with a^-1 a = b b^-1".
    """
    theta = tuple(theta)
    result = _is_premorphism(S, T, theta)
    if diagnostics:
        alt = _is_ordered(S, T, theta) and all(
            theta[S.mul[a][b]] == T.mul[theta[a]][theta[b]]
            for a in range(S.size)
            for b in range(S.size)
            if S.mul[S.inv[a]][a] == S.mul[b][S.inv[b]]
        )
        assert alt == result, f"premorphism characterisations disagree on {theta}"
    return result


def is_endomorphism(S, theta):
    return _is_multiplicative(S, S, tuple(theta))


def is_ordered_map(S, theta):
    return _is_ordered(S, S, tuple(theta))


def _premorphism_check_schedule(S):
    """For each level k, the pairs (a,b) that become checkable at k.

    A pair is checkable once a, b and ab are all assigned; assignment runs
    in element-index order.
    """
    sched = [[] for _ in range(S.size)]
    for a in range(S.size):
        for b in range(S.size):
            k = max(a, b, S.mul[a][b])
            sched[k].append((a, b))
    return sched


def _dfs_premorphisms(S, sched, prefix, budget, counter):
    """Yield all premorphism value vectors extending `prefix`, in lex order."""
    n = S.size
    leq = S.natural_order().leq
    mul = S.mul
    theta = list(prefix) + [0] * (n - len(prefix))
    out = []

    def ok_at(k):
        for a, b in sched[k]:
            if not leq(theta[mul[a][b]], mul[theta[a]][theta[b]]):
                return False
        return True

    def rec(k):
        counter[0] += 1
        if counter[0] > budget:
            raise SearchBudgetExceeded(counter[0], len(out), budget)
        if k == n:
            out.append(tuple(theta))
            return
        for v in range(n):
            theta[k] = v
            if ok_at(k):
                rec(k + 1)

    start = len(prefix)
    if start > 0:
        # the caller fixed a prefix; re-check its levels before descending
        for k in range(start):
            if not ok_at(k):
                return []
    rec(start)
    return out


def _premorphism_branch(args):
    # top-level so it can cross a process boundary; returns the branch's
    # value vectors and the nodes it visited
    S, first, budget = args
    sched = _premorphism_check_schedule(S)
    counter = [0]
    return _dfs_premorphisms(S, sched, [first], budget, counter), counter[0]


def enumerate_premorphisms(S, budget=DEFAULT_NODE_BUDGET, jobs=1):
    """All premorphic self-maps of S, lexicographic by value vector.

    Closure under composition and presence of the identity are asserted
    (Prem(S) is a monoid).  Raises SearchBudgetExceeded past the node budget.
    """
    sched = _premorphism_check_schedule(S)
    if jobs > 1 and S.size > 1:
        # each branch is one subtree of the serial root, so the serial search
        # overruns exactly when 1 + (nodes of all branches) > budget; a branch
        # past budget - 1 nodes alone overruns and stops early
        vecs = []
        nodes = 1
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            args = [(S, v, budget - 1) for v in range(S.size)]
            try:
                for branch, branch_nodes in pool.map(_premorphism_branch, args):
                    vecs.extend(branch)
                    nodes += branch_nodes
            except SearchBudgetExceeded as exc:
                raise SearchBudgetExceeded(
                    nodes + exc.nodes, len(vecs) + exc.found, budget
                ) from None
        if nodes > budget:
            raise SearchBudgetExceeded(nodes, len(vecs), budget)
        vecs.sort()
    else:
        vecs = _dfs_premorphisms(S, sched, [], budget, [0])

    found = set(vecs)
    ident = tuple(range(S.size))
    assert ident in found, "identity map is not among the premorphisms"
    for t1 in vecs:
        for t2 in vecs:
            comp = tuple(t2[t1[a]] for a in range(S.size))
            assert comp in found, (
                f"premorphisms not closed under composition: {t1} then {t2}"
            )
    return [ElementMap(S, S, t) for t in vecs]


def enumerate_endomorphisms(S, budget=DEFAULT_NODE_BUDGET):
    """Endomorphisms, filtered from the premorphism enumeration."""
    return [m for m in enumerate_premorphisms(S, budget=budget) if m.is_endomorphism]


def verify_premorphism_laws(S, prems=None, budget=DEFAULT_NODE_BUDGET):
    """Check the derived laws for every enumerated premorphism of S.

    (i) idempotents map to idempotents; (ii) inverses are preserved;
    (iii) (s s^-1)t = st (st)^-1; (iv) products split whenever a^-1 a and
    b b^-1 are comparable; (v) the ordered+multiplicative characterisation
    agrees with the defining inequality on all self-maps enumerated.
    """
    from .report import CheckReport

    if prems is None:
        prems = enumerate_premorphisms(S, budget=budget)
    rep = CheckReport(f"premorphism laws on {S!r} ({len(prems)} premorphisms)")
    mul, inv = S.mul, S.inv
    leq = S.natural_order().leq

    w_idem = w_inv = w_range = w_split = w_equiv = None
    for m in prems:
        t = m.theta
        for e in S.idempotents:
            if w_idem is None and not S.is_idempotent[t[e]]:
                w_idem = f"theta={t}, e={e}"
        for a in range(S.size):
            if w_inv is None and t[inv[a]] != inv[t[a]]:
                w_inv = f"theta={t}, a={a}"
            if w_range is None and t[mul[a][inv[a]]] != mul[t[a]][inv[t[a]]]:
                w_range = f"theta={t}, s={a}"
            for b in range(S.size):
                ra, db = mul[inv[a]][a], mul[b][inv[b]]
                if leq(ra, db) or leq(db, ra):
                    if w_split is None and t[mul[a][b]] != mul[t[a]][t[b]]:
                        w_split = f"theta={t}, a={a}, b={b}"
        if w_equiv is None and not is_premorphism(S, S, t, diagnostics=True):
            w_equiv = f"theta={t}"
    rep.add("idempotents_map_to_idempotents", w_idem is None, w_idem)
    rep.add("inverses_preserved", w_inv is None, w_inv)
    rep.add("range_idempotent_formula", w_range is None, w_range)
    rep.add("products_split_when_comparable", w_split is None, w_split)
    rep.add("ordered_multiplicative_equivalence", w_equiv is None, w_equiv)
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
    theta = tuple(theta.theta if isinstance(theta, ElementMap) else theta)
    if not is_premorphism(S, S, theta):
        raise ValueError("map is not a premorphism")
    spec = sog.spec
    k = sog.num_components

    lam = []
    for e in range(k):
        ide = sog.idempotent_of_component(e)
        lam.append(sog.component_of(theta[ide]))
    lam = tuple(lam)
    for e in range(k):
        for f in range(k):
            if spec.leq[f][e]:
                assert spec.leq[lam[f]][lam[e]], (
                    f"lambda is not order preserving at {e}>={f}"
                )

    phi = {}
    for e in range(k):
        images = []
        for g in range(len(spec.group_tables[e])):
            a = sog.element(e, g)
            assert sog.component_of(theta[a]) == lam[e], (
                f"theta does not map component {e} into component {lam[e]}"
            )
            images.append(sog.group_element_of(theta[a]))
        phi[e] = tuple(images)
        te, tl = spec.group_tables[e], spec.group_tables[lam[e]]
        for g in range(len(te)):
            for h in range(len(te)):
                assert phi[e][te[g][h]] == tl[phi[e][g]][phi[e][h]], (
                    f"phi_{e} is not a homomorphism"
                )
    for e in range(k):
        for f in range(k):
            if spec.leq[f][e]:
                for g in range(len(spec.group_tables[e])):
                    lhs = sog.linking[(lam[e], lam[f])][phi[e][g]]
                    rhs = phi[f][sog.linking[(e, f)][g]]
                    assert lhs == rhs, (
                        f"compatibility square fails at {e}>={f}, g={g}"
                    )

    relink = {}
    for e in range(k):
        for f in range(k):
            if spec.leq[f][e]:
                relink[(e, f)] = list(sog.linking[(lam[e], lam[f])])
    relinked = build_semilattice_of_groups(
        SemilatticeOfGroupsSpec(
            leq=spec.leq,
            group_tables=[spec.group_tables[lam[e]] for e in range(k)],
            linking=relink,
        )
    )
    U = relinked.semigroup
    sigma = tuple(
        relinked.element(sog.component_of(a), phi[sog.component_of(a)][sog.group_element_of(a)])
        for a in range(S.size)
    )
    for a in range(S.size):
        for b in range(S.size):
            assert sigma[S.mul[a][b]] == U.mul[sigma[a]][sigma[b]], (
                f"induced map is not multiplicative at ({a},{b})"
            )
    return SogPremorphismData(lam=lam, phi=phi, relinked=relinked, sigma=sigma)
