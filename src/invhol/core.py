"""Finite inverse semigroups as validated multiplication tables.

Elements are dense integer indices 0..size-1 with an optional name per
element.  All derived data (inverses, idempotents, identity, zero, natural
partial order) is computed eagerly at construction and the structure is
immutable afterwards, so instances are safe to share between workers.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from .errors import (
    LinkingIncompatible,
    NotAssociative,
    NotIdempotent,
    NotInverse,
    SizeCap,
)
from .report import CheckReport

DEFAULT_SIZE_CAP = 5000
# below this size the natural order is cross-checked through all four
# equivalent characterisations at construction time
DIAGNOSTIC_SIZE = 300


def first_nonassociative(elems, product):
    """The lexicographically first index triple (i, j, k) with
    (x_i x_j) x_k != x_i (x_j x_k) over ``elems``, or None.

    Products are interned to integer ids, each distinct value once in
    first-seen order, so a repeated element or a product that leaves
    ``elems`` (as on a window of an infinite monoid) still compares by
    value; the sweep then runs one vectorised row at a time.
    """
    ids = {e: i for i, e in enumerate(dict.fromkeys(elems))}
    distinct = len(ids)

    def table(xs, ys):
        flat = (
            ids.setdefault(product(x, y), len(ids))
            for x in xs
            for y in ys
        )
        size = len(xs) * len(ys)
        return np.fromiter(flat, np.int64, count=size).reshape(len(xs), len(ys))

    m1 = table(elems, elems)
    mid = list(ids)         # the distinct elems, then the products that leave them
    if distinct == len(mid) == len(m1):
        return first_nonassociative_table(m1)
    # rows of `left` and columns of `right` run over every id
    return first_nonassociative_table(m1, table(mid, elems), table(elems, mid))


def first_nonassociative_table(m1, left=None, right=None):
    """first_nonassociative over a table of product ids, one vectorised row
    per left factor; `left` and `right` extend it to ids outside it."""
    if left is None:
        left = right = m1
    for i in range(len(m1)):
        lhs = left[m1[i, :], :]          # lhs[j,k] = (x_i x_j) x_k
        rhs = right[i, m1]               # rhs[j,k] = x_i (x_j x_k)
        differ = lhs != rhs
        if differ.any():
            return (i, *next(hits(differ)))
    return None


# The sweeps below keep to array methods, operators and indexing: in a
# freshly started or forked process each further numpy function costs a
# first call of 0.1-0.3 ms, which small tables would feel.


def hits(mask):
    """The True entries of a 2-D boolean array as (row, column) pairs of ints,
    in row-major order."""
    rows, cols = mask.nonzero()
    return zip(rows.tolist(), cols.tolist())


def replay(flagged, witnesses):
    """The witnesses of each flagged row in row order.  A vectorised sweep
    flags every row that fails (or raises); ``witnesses(r)`` is the loop
    body for row r, run only there, so the first witness and its text are
    those of the full loop."""
    for r in flagged.nonzero()[0].tolist():
        yield from witnesses(r)


# entries per block of a row-chunked sweep: an int64 temporary of 64k entries
# is 0.5 MB, and a block still holds enough work to amortise its numpy calls
BLOCK_ENTRIES = 1 << 16


def row_blocks(rows, width, entries=BLOCK_ENTRIES):
    """Slices of ``rows`` rows each at most ``entries`` // ``width`` long, so
    a sweep over rows x width pairs keeps its temporaries small."""
    step = max(1, entries // max(width, 1))
    return [slice(start, min(rows, start + step)) for start in range(0, rows, step)]


def first_hits(rows, width, mask_of, entries=BLOCK_ENTRIES):
    """The True entries (r, c) of a rows x width boolean matrix in row-major
    order, each block of rows computed by mask_of(block) only when reached."""
    for block in row_blocks(rows, width, entries):
        for r, c in hits(mask_of(block)):
            yield block.start + r, c


class InverseSemigroup:
    """A finite inverse semigroup given by its multiplication table.

    Construct through :func:`build_from_table` or one of the builders; the
    constructor itself trusts nothing and validates every axiom.
    """

    def __init__(self, names, mul, cap=DEFAULT_SIZE_CAP):
        n = len(mul)
        if n == 0:
            raise ValueError("multiplication table is empty")
        if cap is not None and n > cap:
            raise SizeCap(n, cap)
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
        self.size = n
        self.names = [str(x) for x in names]
        self.mul = [list(row) for row in mul]
        # the same table as an array, for the vectorised sweeps; the lists
        # stay for the searches, which index them element by element
        M = self.mul_array = np.array(self.mul, np.intp)

        witness = first_nonassociative_table(M)
        if witness is not None:
            raise NotAssociative(*witness)

        # b is an inverse of a iff a b a = a and b a b = b: is_inv[a, b]
        ar = np.arange(n)
        is_inv = (M[M, ar[:, None]] == ar[:, None]) & (M[M.T, ar] == ar)
        counts = is_inv.sum(axis=1)
        if (counts != 1).any():
            a = int((counts != 1).argmax())
            cands = is_inv[a].nonzero()[0].tolist()
            raise NotInverse(
                f"element {a} ({self.names[a]}) has {len(cands)} inverses: {cands}"
            )
        self.inv_array = is_inv.argmax(axis=1)
        self.inv = self.inv_array.tolist()

        self.is_idempotent = (M[ar, ar] == ar).tolist()
        self.idempotents = [a for a in range(n) if self.is_idempotent[a]]
        self.idempotent_position = {e: i for i, e in enumerate(self.idempotents)}
        # idempotents need no check that they commute: every element has
        # exactly one inverse, and a regular semigroup with unique inverses
        # has commuting idempotents

        def first_or_none(mask):
            return int(mask.argmax()) if mask.any() else None

        rows_fixed, cols_fixed = M == ar[:, None], M == ar
        # e a = a and a e = a for every a; z a = z and a z = z for every a
        self.identity = first_or_none(cols_fixed.all(axis=1) & rows_fixed.all(axis=0))
        self.zero = first_or_none(rows_fixed.all(axis=1) & cols_fixed.all(axis=0))

        self._order = None

    def natural_order(self):
        if self._order is None:
            self._order = NaturalOrder(self, diagnostics=self.size <= DIAGNOSTIC_SIZE)
        return self._order

    def __repr__(self):
        kind = "monoid" if self.identity is not None else "semigroup"
        return f"<inverse {kind}, {self.size} elements>"


class NaturalOrder:
    """The natural partial order a <= b iff a = a a^-1 b.

    With diagnostics on, all four equivalent characterisations are computed
    and asserted to agree:  a = a a^-1 b,  a = b a^-1 a,  exists idempotent e
    with a = be,  exists idempotent e with a = eb.  ``table`` holds the order
    as lists of bools, ``array`` as a boolean array.
    """

    def __init__(self, S, diagnostics=True):
        M, inv, ar = S.mul_array, S.inv_array, np.arange(S.size)
        col = ar[:, None]
        leq = M[M[ar, inv]] == col                    # a a^-1 b == a
        if diagnostics:
            E = np.array(S.idempotents, np.intp)
            c2 = M[:, M[inv, ar]].T == col            # b a^-1 a == a
            c3 = np.zeros(leq.shape, bool)
            c3[M[:, E], col] = True                   # a = b e
            c4 = np.zeros(leq.shape, bool)
            c4[M[E, :], ar] = True                    # a = e b
            bad = next(hits((leq != c2) | (c2 != c3) | (c3 != c4)), None)
            if bad is not None:
                found = ",".join(str(bool(c[bad])) for c in (leq, c2, c3, c4))
                raise AssertionError(
                    f"natural-order characterisations disagree at "
                    f"({bad[0]},{bad[1]}): {found}"
                )
        self.array = leq
        self.table = leq.tolist()

    def leq(self, a, b):
        return self.table[a][b]


def build_from_table(names, mul_table, cap=DEFAULT_SIZE_CAP):
    """Validate a multiplication table and return an InverseSemigroup."""
    return InverseSemigroup(names, mul_table, cap=cap)


def verify_semigroup_properties(S):
    """Invariant report for a constructed semigroup: order characterisations,
    order compatibility, the squares law, and idempotent meets."""
    rep = CheckReport(f"inverse semigroup properties on {S!r}")
    mul = S.mul
    M, I, ar = S.mul_array, S.inv_array, np.arange(S.size)

    rep.first_failure("regularity_and_involution", (
        f"a={a}"
        for a in ((M[M[ar, I], ar] != ar) | (I[I] != ar)).nonzero()[0].tolist()
    ))

    try:
        NaturalOrder(S, diagnostics=True)
        rep.add("order_characterisations_agree", True)
    except AssertionError as exc:
        rep.add("order_characterisations_agree", False, str(exc))

    L = S.natural_order().array
    rep.first_failure("order_compatible_with_inversion", (
        f"{a}<={b}" for a, b in hits(L & ~L[I][:, I])
    ))

    # every pair of order pairs (a1 <= a2, b1 <= b2), a block of rows at a time
    P1, P2 = L.nonzero()
    rep.first_failure("order_compatible_with_multiplication", (
        f"{P1[p]}<={P2[p]}, {P1[q]}<={P2[q]}"
        for p, q in first_hits(
            len(P1), len(P1), lambda rows: ~L[M[P1[rows]][:, P1], M[P2[rows]][:, P2]]
        )
    ))

    sq = M[ar, ar]
    rep.first_failure("elements_below_their_squares_are_idempotent", (
        f"x={x}" for x in (L[ar, sq] & (sq != ar)).nonzero()[0].tolist()
    ))

    def meet_failures(e):
        for f in S.idempotents:
            if mul[e][f] != mul[f][e]:
                yield f"({e},{f}) do not commute"
            try:
                m1 = meet_idempotents(S, e, f)
            except AssertionError as exc:
                yield str(exc)
                return
            for g in S.idempotents:
                if meet_idempotents(S, m1, g) != meet_idempotents(
                    S, e, meet_idempotents(S, f, g)
                ):
                    yield f"meet not associative at ({e},{f},{g})"

    rep.first_failure("idempotent_meets", replay(_meet_flags(S, L), meet_failures))
    return rep


def _meet_flags(S, L):
    """For each element e, whether the idempotent-meet loop at row e (over
    idempotents f, g) yields a witness or raises: e f != f e, a product that is
    not idempotent, a product of idempotents that is not their glb in L, or
    (e f) g != e (f g).  Rows that are not idempotents stay unflagged; a fault
    that every row meets (a pair f, g whose meet fails) flags every row."""
    M = S.mul_array
    E = np.array(S.idempotents, np.intp)
    is_idem = np.array(S.is_idempotent)
    EE = M[E][:, E]                          # EE[i, j] = e_i e_j
    below = L[E][:, E]                       # below[h, i]: e_h <= e_i
    is_glb = L[EE, E] & L[EE, E[:, None]]    # the product is a lower bound
    for i in range(len(E)):
        # an idempotent h below e_i and e_j but not below their product
        lower = below[:, [i]] & below
        is_glb[i] &= ~(lower & ~L[E[:, None], EE[i]]).any(axis=0)
    flags = np.zeros(S.size, bool)
    if not (is_glb.all() and is_idem[EE].all()):
        flags[E] = True
        return flags
    for i, e in enumerate(E):
        # (e f) g against e (f g), each product read from the table
        flags[e] = (EE[i] != EE[:, i]).any() or (
            M[EE[i][:, None], E] != M[e, EE]).any()
    return flags


def meet_idempotents(S, e, f):
    """Meet of two idempotents, computed as their product and checked as glb."""
    if not S.is_idempotent[e]:
        raise NotIdempotent(f"element {e} ({S.names[e]}) is not idempotent")
    if not S.is_idempotent[f]:
        raise NotIdempotent(f"element {f} ({S.names[f]}) is not idempotent")
    m = S.mul[e][f]
    leq = S.natural_order().leq
    assert leq(m, e) and leq(m, f), "product of idempotents is not a lower bound"
    for h in S.idempotents:
        if leq(h, e) and leq(h, f) and not leq(h, m):
            raise AssertionError(f"idempotent product {m} is not the glb of {e},{f}")
    return m


# ---------------------------------------------------------------------------
# builders


def _pbij_name(t):
    # one-line notation over the base set: image digit per point, '-' if unset
    return "".join("-" if v == 0 else str(v) for v in t) if t else "()"


def symmetric_inverse_monoid_size(n):
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def build_symmetric_inverse_monoid(n, cap=DEFAULT_SIZE_CAP):
    """Partial bijections on {1..n} under left-to-right composition.

    Each element is encoded as a length-n tuple whose i-th entry is the image
    of point i+1, with 0 for "undefined"; names use that one-line notation.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    predicted = symmetric_inverse_monoid_size(n)
    if cap is not None and predicted > cap:
        raise SizeCap(predicted, cap)
    maps = []
    points = list(range(1, n + 1))
    for k in range(n + 1):
        for dom in combinations(points, k):
            for img in permutations(points, k):
                t = [0] * n
                for d, i in zip(dom, img):
                    t[d - 1] = i
                maps.append(tuple(t))
    maps.sort()
    index = {t: i for i, t in enumerate(maps)}

    def compose(f, g):
        # right action: point x goes through f, then g
        return tuple(g[f[x] - 1] if f[x] != 0 else 0 for x in range(n))

    mul = [[index[compose(f, g)] for g in maps] for f in maps]
    return build_from_table([_pbij_name(t) for t in maps], mul, cap=cap)


@dataclass
class SemilatticeOfGroupsSpec:
    """Input data for a semilattice of groups.

    ``leq[e][f]`` is True iff e <= f in the semilattice E; ``group_tables[e]``
    is the multiplication table of the group sitting at e; ``linking[(e, f)]``
    (for f <= e) maps elements of the group at e down to the group at f.
    Identity links (e, e) may be omitted.
    """

    leq: list
    group_tables: list
    linking: dict = field(default_factory=dict)


def _meet_table_from_leq(leq):
    k = len(leq)
    for e in range(k):
        if not leq[e][e]:
            raise ValueError("order table is not reflexive")
        for f in range(k):
            if leq[e][f] and leq[f][e] and e != f:
                raise ValueError("order table is not antisymmetric")
            if leq[e][f]:
                for g in range(k):
                    if leq[f][g] and not leq[e][g]:
                        raise ValueError("order table is not transitive")
    meet = [[None] * k for _ in range(k)]
    for e in range(k):
        for f in range(k):
            lower = [h for h in range(k) if leq[h][e] and leq[h][f]]
            glbs = [h for h in lower if all(leq[x][h] for x in lower)]
            if len(glbs) != 1:
                raise ValueError(f"order is not a meet-semilattice at pair ({e},{f})")
            meet[e][f] = glbs[0]
    return meet


class SemilatticeOfGroups:
    """A Clifford semigroup built from a SemilatticeOfGroupsSpec.

    Keeps the construction data alongside the validated semigroup so that
    premorphisms can be decomposed back into (lambda, phi) form.
    """

    def __init__(self, spec, semigroup, meet, offsets, linking):
        self.spec = spec
        self.semigroup = semigroup
        self.meet = meet
        self.offsets = offsets
        self.linking = linking
        self.num_components = len(spec.group_tables)

    def component_of(self, a):
        for e in range(self.num_components - 1, -1, -1):
            if a >= self.offsets[e]:
                return e
        raise ValueError(a)

    def group_element_of(self, a):
        return a - self.offsets[self.component_of(a)]

    def element(self, e, g):
        return self.offsets[e] + g

    def group_identity(self, e):
        table = self.spec.group_tables[e]
        for i in range(len(table)):
            if all(table[i][j] == j for j in range(len(table))):
                return i
        raise ValueError(f"group at {e} has no identity")

    def idempotent_of_component(self, e):
        return self.element(e, self.group_identity(e))


def build_semilattice_of_groups(spec, cap=DEFAULT_SIZE_CAP):
    """Assemble a semilattice of groups into a validated inverse semigroup.

    The product of g over x and h over y lands in the component at the meet
    x^y by pushing both arguments down along the linking maps.  Linking maps
    must be homomorphisms and compose correctly down chains.
    """
    k = len(spec.group_tables)
    if len(spec.leq) != k:
        raise ValueError("order table and group list disagree in size")
    meet = _meet_table_from_leq(spec.leq)

    linking = {}
    for e in range(k):
        ge = len(spec.group_tables[e])
        linking[(e, e)] = list(spec.linking.get((e, e), range(ge)))
    for (e, f), m in spec.linking.items():
        if e == f:
            continue
        if not spec.leq[f][e]:
            raise LinkingIncompatible(f"linking map given for non-pair {e}>={f}")
        linking[(e, f)] = list(m)
    for e in range(k):
        for f in range(k):
            if spec.leq[f][e] and (e, f) not in linking:
                raise LinkingIncompatible(f"missing linking map for {e}>={f}")

    for (e, f), m in linking.items():
        te, tf = spec.group_tables[e], spec.group_tables[f]
        if len(m) != len(te):
            raise LinkingIncompatible(f"linking map {e}->{f} has wrong domain size")
        for g in range(len(te)):
            for h in range(len(te)):
                if m[te[g][h]] != tf[m[g]][m[h]]:
                    raise LinkingIncompatible(
                        f"linking map {e}->{f} is not a homomorphism at ({g},{h})"
                    )
    if any(linking[(e, e)][g] != g for e in range(k) for g in range(len(spec.group_tables[e]))):
        raise LinkingIncompatible("identity linking map is not the identity")
    for e in range(k):
        for f in range(k):
            for g in range(k):
                if spec.leq[g][f] and spec.leq[f][e]:
                    down = [linking[(f, g)][x] for x in linking[(e, f)]]
                    if down != linking[(e, g)]:
                        raise LinkingIncompatible(
                            f"linking maps do not compose along chain {e}>={f}>={g}"
                        )

    offsets = []
    total = 0
    for e in range(k):
        offsets.append(total)
        total += len(spec.group_tables[e])
    if cap is not None and total > cap:
        raise SizeCap(total, cap)

    names = []
    for e in range(k):
        for g in range(len(spec.group_tables[e])):
            names.append(f"g{g}@e{e}")

    def comp(a):
        for e in range(k - 1, -1, -1):
            if a >= offsets[e]:
                return e, a - offsets[e]
        raise ValueError(a)

    mul = [[0] * total for _ in range(total)]
    for a in range(total):
        x, g = comp(a)
        for b in range(total):
            y, h = comp(b)
            m = meet[x][y]
            gm = linking[(x, m)][g]
            hm = linking[(y, m)][h]
            mul[a][b] = offsets[m] + spec.group_tables[m][gm][hm]

    S = build_from_table(names, mul, cap=cap)
    sog = SemilatticeOfGroups(spec, S, meet, offsets, linking)

    # the natural order must pair every element exactly with its images
    # under the downward linking maps
    leq = S.natural_order().leq
    for a in range(total):
        x, g = comp(a)
        expected = {
            offsets[f] + linking[(x, f)][g] for f in range(k) if spec.leq[f][x]
        }
        actual = {b for b in range(total) if leq(b, a)}
        assert actual == expected, (
            f"natural order of element {a} disagrees with linking images"
        )
    return sog


# --- small builders used throughout tests and the CLI ---


def cyclic_group(n, cap=DEFAULT_SIZE_CAP):
    names = [str(i) for i in range(n)]
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return build_from_table(names, mul, cap=cap)


def trivial_semigroup():
    return cyclic_group(1)


def symmetric_group(n, cap=DEFAULT_SIZE_CAP):
    perms = sorted(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        # right action, consistent with partial bijections
        return tuple(q[p[x] - 1] for x in range(n))

    mul = [[index[compose(p, q)] for q in perms] for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return build_from_table(names, mul, cap=cap)


def direct_product(A, B, cap=DEFAULT_SIZE_CAP):
    pairs = [(a, b) for a in range(A.size) for b in range(B.size)]
    index = {p: i for i, p in enumerate(pairs)}
    mul = [
        [index[(A.mul[a1][a2], B.mul[b1][b2])] for (a2, b2) in pairs]
        for (a1, b1) in pairs
    ]
    names = [f"{A.names[a]}|{B.names[b]}" for a, b in pairs]
    return build_from_table(names, mul, cap=cap)


def chain_semilattice(k, cap=DEFAULT_SIZE_CAP):
    """Chain e0 > e1 > ... > e(k-1); meet is the lower (larger index) element."""
    names = [f"e{i}" for i in range(k)]
    mul = [[max(i, j) for j in range(k)] for i in range(k)]
    return build_from_table(names, mul, cap=cap)


def diamond_semilattice(cap=DEFAULT_SIZE_CAP):
    """Four elements: top > x, y > bottom with x ^ y = bottom."""
    top, x, y, bot = 0, 1, 2, 3
    meet = {
        (top, top): top, (top, x): x, (top, y): y, (top, bot): bot,
        (x, x): x, (x, y): bot, (x, bot): bot,
        (y, y): y, (y, bot): bot,
        (bot, bot): bot,
    }
    mul = [[meet[(min(i, j), max(i, j))] for j in range(4)] for i in range(4)]
    return build_from_table(["top", "x", "y", "bot"], mul, cap=cap)
