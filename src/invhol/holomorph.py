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
from functools import partial
from itertools import chain

import numpy as np

from .core import (
    DEFAULT_SIZE_CAP, first_nonassociative, first_nonassociative_table, hits, replay, row_blocks,
)
from .errors import NotMonoid, SizeCap
from .morphisms import DEFAULT_NODE_BUDGET, enumerate_premorphisms
from .report import CheckReport
from .search import backtrack, composite_rows, row_lookup


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


def hol_action(S, s, h):
    """s <| (alpha, tau) = s alpha ((s^-1 s) tau)."""
    pos = S.idempotent_position
    return S.mul[h.alpha[s]][h.tau[pos[S.mul[S.inv[s]][s]]]]


def enumerate_holomorph(S, prems=None, budget=DEFAULT_NODE_BUDGET, tau_cap=DEFAULT_SIZE_CAP):
    """All pairs (alpha, tau) satisfying the holomorph conditions.

    For each premorphism alpha of ``prems`` (value vectors; by default
    enumerate_premorphisms(S, budget)) the tau candidates at idempotent e
    are the elements t with t t^-1 = e alpha; the sweep assigns idempotents
    in order and prunes on the order condition.  Raises SizeCap once the pairs found
    exceed tau_cap.  Output is sorted by (alpha, tau).
    """
    if prems is None:
        prems = enumerate_premorphisms(S, budget=budget)
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
    for alpha in prems:
        taus = backtrack([rclass[alpha[e]] for e in E], ok_at)
        out.extend(HolElement(alpha, tau) for tau in taus)
        if len(out) > tau_cap:
            raise SizeCap(len(out), tau_cap)
    out.sort(key=lambda h: (h.alpha, h.tau))
    return out


def alpha_ids(A):
    """ids[i] = the position of the row A[i] among the distinct rows of A,
    and the composition table of those distinct rows: C[u, v] is the id of
    alpha u then alpha v, -1 where that composite is not among them."""
    first = row_lookup(A)(A)
    is_first = first == np.arange(len(A))
    distinct = A[is_first]
    C = np.empty((len(distinct), len(distinct)), np.int32)
    for rows, block in composite_rows(distinct):
        C[rows] = block
    return (np.cumsum(is_first) - 1)[first], C


def pair_diamonds(mul, R, A, T, ids, C, rows):
    """Pair i <> pair j for each i in ``rows`` and every j, keyed as (alpha
    id, rest), in an array (len(A), len(rows), 1 + width) indexed [j, i].
    Pair i is alpha A[i], with id ids[i] in the composition table C of
    alpha_ids, beside the row T[i]; the diamond's alpha id is C[ids[i],
    ids[j]] and the rest is mul[A[j, t], T[j, R[t]]] with t = T[i].  Over
    Hol, T holds tau and R[t] is the position of t^-1 t; over the
    compressed pairs, T is the column m and R is zero, which gives
    (m beta) n."""
    t = T[rows]
    alpha = C[ids[rows][None, :], ids[:, None]]
    return np.concatenate([alpha[:, :, None], mul[A[:, t], T[:, R[t]]]], axis=2)


def diamond_table(mul, R, A, T):
    """D[i, j] = the row of pair i <> pair j among the pairs (A, T), or -1
    where that diamond is not one of them: the (alpha id, T) rows of
    pair_diamonds looked up a block of rows at a time."""
    n, width = len(A), 1 + T.shape[1]
    ids, C = alpha_ids(A)
    lookup = row_lookup(np.column_stack([ids, T]))
    D = np.empty((n, n), np.int32)
    for rows in row_blocks(n, n * width):
        keys = pair_diamonds(mul, R, A, T, ids, C, rows).reshape(-1, width)
        D[rows] = lookup(keys).reshape(n, -1).T
    return D


def tau_positions(S):
    """R[t] = the position of t^-1 t among the idempotents."""
    return np.array([S.idempotent_position[S.mul[S.inv[t]][t]] for t in range(S.size)])


def hol_table(S, hol=None):
    """The diamond multiplication table of Hol(S): diamond[i, j] is the row
    of pairs[i] <> pairs[j], rows in the order of ``hol``, filled by
    diamond_table."""
    if hol is None:
        hol = enumerate_holomorph(S)
    n = len(hol)
    A = np.array([h.alpha for h in hol], np.int32).reshape(n, S.size)
    T = np.array([h.tau for h in hol], np.int32).reshape(n, len(S.idempotents))
    D = diamond_table(S.mul_array.astype(np.int32), tau_positions(S), A, T)
    for i, j in hits(D < 0):  # -1 marks a diamond not among the pairs
        raise AssertionError(f"diamond of pairs {i} and {j} left the holomorph")
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
    for alpha in prems:
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


def mon_from_hol(M, h):
    return MonHolElement(h.alpha, h.tau[M.idempotent_position[M.identity]])


def hol_from_mon(M, a):
    tau = tuple(M.mul[a.alpha[e]][a.m] for e in M.idempotents)
    return HolElement(a.alpha, tau)


def verify_mon_hol(M, table=None, mon=None):
    """The compressed pairs biject with the full pairs, the diamonds agree
    under the bijection, and the compressed diamond is associative.

    Array sweeps decide each line: the expansions of the compressed pairs,
    looked up among the pairs of the Hol table, give one permutation pi
    (-1 where not found), and diamond_table fills the compressed table Dm.
    A flagged row replays the pair loop, so witnesses and errors are its."""
    rep = CheckReport(f"inverse-monoid holomorph form on {M!r}")
    if table is None:
        table = hol_table(M)
    if mon is None:
        mon = mon_hol(M)
    hol, D = table.pairs, table.diamond
    rep.add(
        "counts_match",
        len(hol) == len(mon),
        None if len(hol) == len(mon) else f"{len(hol)} != {len(mon)}",
        detail=f"{len(mon)} compressed pairs",
    )

    n, E = M.size, np.array(M.idempotents)
    mul = M.mul_array.astype(np.int32)
    MA = np.array([a.alpha for a in mon], np.int32).reshape(len(mon), n)
    m = np.array([a.m for a in mon], np.int32)
    X = np.hstack([MA, mul[MA[:, E], m[:, None]]])  # row i is hol_from_mon(mon[i])
    H = np.array([h.alpha + h.tau for h in hol], np.int32).reshape(len(hol), X.shape[1])
    pi = row_lookup(H)(X)

    # an expansion is a valid pair of the table giving back its m at the
    # identity; each pair is the expansion of its value at the identity
    tau, Htau = X[:, n:], H[:, n:]
    leq = M.natural_order().array
    lo, hi = leq[np.ix_(E, E)].nonzero()
    valid = (mul[tau, M.inv_array[tau]] == MA[:, E]).all(axis=1)
    expansion_bad = (pi < 0) | ~valid | ~leq[tau[:, lo], tau[:, hi]].all(axis=1)
    expansion_bad |= mul[MA[:, M.identity], m] != m
    tau_bad = (mul[H[:, E], Htau[:, M.idempotent_position[M.identity], None]] != Htau).any(axis=1)

    def expansion_failures(i):
        a = mon[i]
        h = hol_from_mon(M, a)
        if h not in table.index or not is_valid_hol(M, h.alpha, h.tau):
            yield f"expansion of {a} is not a holomorph pair"
        elif mon_from_hol(M, h) != a:
            yield f"round trip fails at {a}"

    def tau_failures(i):
        h = hol[i]
        if hol_from_mon(M, mon_from_hol(M, h)) != h:
            yield f"tau of {h} is not determined by its identity value"

    rep.first_failure("bijection", chain(
        replay(expansion_bad, expansion_failures), replay(tau_bad, tau_failures)))

    # pi[Dm] == D[pi][:, pi] where every index is found; a -1 flags its row
    Dm = diamond_table(mul, np.zeros(n, np.intp), MA, m[:, None])
    image = np.append(pi, -1)[Dm]
    found = (image >= 0) & (pi >= 0)[:, None] & (pi >= 0)

    def diamond_failures(i):
        a = mon[i]
        for b in mon:
            if hol_from_mon(M, mon_diamond(M, a, b)) != hol_diamond(
                    M, hol_from_mon(M, a), hol_from_mon(M, b)):
                yield f"diamonds disagree at ({a},{b})"

    rep.first_failure("diamonds_agree", replay(
        ~(found & (image == D[pi][:, pi])).all(axis=1), diamond_failures))

    # with every product in mon and mon distinct, Dm holds the ids that
    # first_nonassociative would intern; otherwise intern them as it does
    if (Dm >= 0).all() and len(set(mon)) == len(mon):
        bad = first_nonassociative_table(Dm)
    else:
        bad = first_nonassociative(mon, partial(mon_diamond, M))
    rep.add("compressed_diamond_associative", bad is None,
            bad and "associativity fails at ({},{},{})".format(*(mon[i] for i in bad)))

    # t acts on (alpha, m) as (t alpha) m, and on its expansion as hol_action
    disagree = mul[MA, m[:, None]] != mul[MA, tau[:, tau_positions(M)]]
    rep.first_failure("actions_agree", (
        f"actions disagree at t={t}, {mon[i]}" for t, i in hits(disagree.T)))
    return rep
