"""The holomorph of an inverse semigroup.

An element is a pair (alpha, tau): alpha a premorphic self-map and tau an
order-preserving assignment of an element to each idempotent e with
(e tau)(e tau)^-1 = e alpha.  The pairs form a monoid under the diamond
composition and simultaneously a groupoid under natural-transformation
composition; the two operations satisfy the interchange law.

enumerate_holomorph returns the full set of pairs.  For a group this set is
End(G) x G; its group of invertible elements (holomorph_units) is the
classical holomorph Aut(G) x| G, and that is the count the reports quote as
the holomorph order of a group.
"""

from dataclasses import dataclass

import numpy as np

from .core import first_nonassociative, first_nonassociative_table
from .errors import NotMonoid, SizeCap
from .morphisms import ElementMap, enumerate_premorphisms
from .report import CheckReport
from .search import backtrack, row_lookup

DEFAULT_TAU_CAP = 10**6


@dataclass(frozen=True)
class HolElement:
    alpha: tuple  # value vector of the premorphism
    tau: tuple    # one element per idempotent, in S.idempotents order


@dataclass(frozen=True)
class MonHolElement:
    alpha: tuple
    m: int


@dataclass(frozen=True, eq=False)
class HolTable:
    pairs: list          # the holomorph pairs; row i is pairs[i]
    index: dict          # pair -> row
    diamond: np.ndarray  # int32, |pairs| x |pairs|


def is_valid_hol(S, alpha, tau):
    """Domain condition (e tau)(e tau)^-1 = e alpha plus tau ordered."""
    mul, inv = S.mul, S.inv
    E = S.idempotents
    for i, e in enumerate(E):
        if mul[tau[i]][inv[tau[i]]] != alpha[e]:
            return False
    leq = S.natural_order().leq
    for i, e in enumerate(E):
        for j, f in enumerate(E):
            if leq(e, f) and not leq(tau[i], tau[j]):
                return False
    return True


def hol_identity(S):
    return HolElement(tuple(range(S.size)), tuple(S.idempotents))


def hol_diamond(S, h1, h2):
    """(alpha, tau) <> (beta, sigma) = (alpha beta, e -> (e tau)beta ((e tau)^-1 (e tau))sigma)."""
    mul, inv = S.mul, S.inv
    pos = S.idempotent_position
    alpha = tuple(h2.alpha[h1.alpha[a]] for a in range(S.size))
    tau = []
    for i, e in enumerate(S.idempotents):
        t = h1.tau[i]
        r = mul[inv[t]][t]
        tau.append(mul[h2.alpha[t]][h2.tau[pos[r]]])
    out = HolElement(alpha, tuple(tau))
    assert is_valid_hol(S, out.alpha, out.tau), "diamond left the holomorph"
    return out


def target_premorphism(S, h):
    """The functor the transformation part of h points at:
    s -> ((s s^-1) tau)^-1 (s alpha) ((s^-1 s) tau)."""
    mul, inv = S.mul, S.inv
    pos = S.idempotent_position
    beta = []
    for s in range(S.size):
        td = h.tau[pos[mul[s][inv[s]]]]
        tr = h.tau[pos[mul[inv[s]][s]]]
        beta.append(mul[mul[inv[td]][h.alpha[s]]][tr])
    return tuple(beta)


def hol_groupoid_compose(S, h1, h2):
    """Defined when the target of h1 is the source functor of h2; the
    transformation parts then multiply pointwise.  Returns None if undefined."""
    if target_premorphism(S, h1) != h2.alpha:
        return None
    mul = S.mul
    tau = tuple(mul[a][b] for a, b in zip(h1.tau, h2.tau))
    out = HolElement(h1.alpha, tau)
    assert is_valid_hol(S, out.alpha, out.tau)
    return out


def hol_inverse_arrow(S, h):
    """The groupoid inverse of h: the pointwise-inverted transformation,
    based at the target functor of h."""
    beta = target_premorphism(S, h)
    return HolElement(beta, tuple(S.inv[t] for t in h.tau))


def hol_action(S, s, h):
    """s <| (alpha, tau) = s alpha ((s^-1 s) tau)."""
    pos = S.idempotent_position
    return S.mul[h.alpha[s]][h.tau[pos[S.mul[S.inv[s]][s]]]]


def enumerate_holomorph(S, prems=None, budget=None, tau_cap=DEFAULT_TAU_CAP):
    """All pairs (alpha, tau) satisfying the holomorph conditions.

    For each premorphism the tau candidates at idempotent e are the elements
    t with t t^-1 = e alpha; the sweep assigns idempotents in order and
    prunes on the order condition.  Raises SizeCap once the pairs found
    exceed tau_cap.  Output is sorted by (alpha, tau).
    """
    if prems is None:
        prems = enumerate_premorphisms(S) if budget is None else enumerate_premorphisms(S, budget=budget)
    mul, inv = S.mul, S.inv
    E = S.idempotents
    leq = S.natural_order().leq
    rclass = {e: [t for t in range(S.size) if mul[t][inv[t]] == e] for e in E}
    # tau must be ordered: against each earlier idempotent below or above e
    below = [[j for j in range(i) if leq(E[j], E[i])] for i in range(len(E))]
    above = [[j for j in range(i) if leq(E[i], E[j])] for i in range(len(E))]

    def ok_at(tau, i):
        t = tau[i]
        for j in below[i]:
            if not leq(tau[j], t):
                return False
        for j in above[i]:
            if not leq(t, tau[j]):
                return False
        return True

    out = []
    for m in prems:
        alpha = m.theta if isinstance(m, ElementMap) else tuple(m)
        taus = backtrack([rclass[alpha[e]] for e in E], ok_at)
        out.extend(HolElement(alpha, tau) for tau in taus)
        if len(out) > tau_cap:
            raise SizeCap(len(out), tau_cap)
    out.sort(key=lambda h: (h.alpha, h.tau))
    return out


def hol_table(S, hol=None):
    """The diamond multiplication table of Hol(S): diamond[i, j] is the row
    of pairs[i] <> pairs[j], rows in the order of ``hol``.  Row i is one
    gather, alpha A[:, A[i]] and tau mul[A[:, t], T[:, R[t]]] with t = T[i]
    and R[t] the position of t^-1 t, looked up among the pairs."""
    if hol is None:
        hol = enumerate_holomorph(S)
    n = len(hol)
    mul = np.array(S.mul, np.int32)
    A = np.array([h.alpha for h in hol], np.int32).reshape(n, S.size)
    T = np.array([h.tau for h in hol], np.int32).reshape(n, len(S.idempotents))
    R = np.array([S.idempotent_position[S.mul[S.inv[t]][t]] for t in range(S.size)])
    lookup = row_lookup(np.hstack([A, T]))
    D = np.empty((n, n), np.int32)
    for i, t in enumerate(T):
        D[i] = lookup(np.hstack([A[:, A[i]], mul[A[:, t], T[:, R[t]]]]))
        if D[i].min() < 0:  # -1 marks the first diamond not among the pairs
            raise AssertionError(f"diamond of pairs {i} and {D[i].argmin()} left the holomorph")
    return HolTable(hol, {h: i for i, h in enumerate(hol)}, D)


def holomorph_units(S, table=None):
    """Invertible elements of (Hol, diamond): the classical holomorph when S
    is a group."""
    if table is None:
        table = hol_table(S)
    D = table.diamond
    e = table.index[hol_identity(S)]
    return [table.pairs[i] for i in np.flatnonzero(((D == e) & (D.T == e)).any(axis=1))]


def verify_hol_monoid(S, table=None):
    """Diamond is associative with (id, e -> e) as two-sided identity; the
    action by alpha then tau is a genuine monoid action; tau is recoverable
    from its values on maximal idempotents."""
    rep = CheckReport(f"holomorph monoid laws on {S!r}")
    if table is None:
        table = hol_table(S)
    hol, D = table.pairs, table.diamond
    n = len(hol)
    rep.add("element_count", True, detail=f"|pairs| = {n}")

    def identity_failures():
        e = table.index.get(hol_identity(S))
        if e is None:
            yield "identity pair is missing"
            return
        rows = np.arange(n)
        for i in np.flatnonzero((D[e] != rows) | (D[:, e] != rows)):
            yield f"identity law fails at {hol[i]}"

    rep.first_failure("two_sided_identity", identity_failures())

    bad = first_nonassociative_table(D)
    rep.add("diamond_associative", bad is None,
            bad and "associativity fails at ({},{},{})".format(*bad))

    # act[i, s] = s <| pairs[i]; the law (s <| i) <| j = s <| (i <> j), one s at a time
    act = np.array([[hol_action(S, s, h) for s in range(S.size)] for h in hol], np.int32)

    def action_failures():
        for s in range(S.size):
            for i, j in np.argwhere(act[D, s] != act.T[act[:, s]])[:1]:
                yield f"action property fails at s={s}, pair ({i},{j})"

    rep.first_failure("monoid_action", action_failures())

    # tau is pinned down by its values at maximal idempotents via restriction
    leq = S.natural_order().leq
    E = S.idempotents
    pos = S.idempotent_position
    maximal = [e for e in E if not any(leq(e, f) and e != f for f in E)]

    def restriction_failures():
        for h in hol:
            for e in E:
                ms = [m for m in maximal if leq(e, m)]
                if not ms:
                    yield f"idempotent {e} below no maximal idempotent"
                elif S.mul[h.alpha[e]][h.tau[pos[ms[0]]]] != h.tau[pos[e]]:
                    yield f"tau of {h} not recovered at idempotent {e}"

    rep.first_failure("tau_from_maximal_idempotents", restriction_failures())
    return rep


def verify_interchange(S, table=None):
    """Both compositions interact by the interchange law on every quadruple
    whose two groupoid composites are defined."""
    rep = CheckReport(f"interchange law on {S!r}")
    if table is None:
        table = hol_table(S)
    hol, D = table.pairs, table.diamond
    by_alpha = {}
    for j, h in enumerate(hol):
        by_alpha.setdefault(h.alpha, []).append(j)
    # comp[i, j] = row of the groupoid composite of pairs i and j, -1 if undefined
    comp = np.full(D.shape, -1, np.int32)
    for i, h in enumerate(hol):
        for j in by_alpha.get(target_premorphism(S, h), ()):
            comp[i, j] = table.index[hol_groupoid_compose(S, h, hol[j])]
    composable = np.argwhere(comp >= 0)
    rep.add("composable_pairs", True, detail=f"{len(composable)} composable pairs")

    # one row of quadruples (i, j, k, l) per composable (i, j), over every
    # (k, l); where the two diamonds do not compose, -1 fails the comparison
    K, L = composable.T
    KL = comp[K, L]
    w, checked = None, 0
    for i, j in composable.tolist():
        bad = np.flatnonzero(D[comp[i, j], KL] != comp[D[i, K], D[j, L]])
        if bad.size:
            t = int(bad[0])
            checked += t + 1
            w = f"quadruple ({i},{j},{K[t]},{L[t]})"
            break
        checked += len(KL)
    rep.add("interchange_law", w is None, w, detail=f"{checked} quadruple(s) checked")
    return rep


# ---------------------------------------------------------------------------
# the inverse-monoid form


def mon_hol(M, prems=None):
    """Pairs (alpha, m) with m m^-1 = 1 alpha, the compressed form of the
    holomorph available when M has an identity."""
    if M.identity is None:
        raise NotMonoid("structure has no identity element")
    if prems is None:
        prems = enumerate_premorphisms(M)
    mul, inv = M.mul, M.inv
    out = []
    for p in prems:
        alpha = p.theta
        top = alpha[M.identity]
        for m in range(M.size):
            if mul[m][inv[m]] == top:
                out.append(MonHolElement(alpha, m))
    out.sort(key=lambda h: (h.alpha, h.m))
    return out


def mon_diamond(M, a, b):
    """(alpha, m) <> (beta, n) = (alpha beta, (m beta) n)."""
    alpha = tuple(b.alpha[a.alpha[x]] for x in range(M.size))
    return MonHolElement(alpha, M.mul[b.alpha[a.m]][b.m])


def mon_action(M, t, a):
    return M.mul[a.alpha[t]][a.m]


def mon_from_hol(M, h):
    return MonHolElement(h.alpha, h.tau[M.idempotent_position[M.identity]])


def hol_from_mon(M, a):
    tau = tuple(M.mul[a.alpha[e]][a.m] for e in M.idempotents)
    return HolElement(a.alpha, tau)


def verify_mon_hol(M, hol=None, mon=None):
    """The compressed pairs biject with the full pairs, the diamonds agree
    under the bijection, and the compressed diamond is associative."""
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

    # each pair is expanded once and each compressed diamond computed once;
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
        if mon_action(M, t, a) != hol_action(M, t, expand(a))
    ))
    return rep
