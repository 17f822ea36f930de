"""Symbolic arithmetic in bicyclic and polycyclic monoids.

Nonzero elements of the n-generator polycyclic monoid are pairs of words
(u, v) standing for u^-1 v; the zero element is represented by None at the
raw-pair level and by PolyElement(n, None) at the API level.  "Suffix" always
means a trailing segment under left concatenation: w = p + u makes u a suffix
of w and puts w below u in the order.  All claims about the infinite monoid
are checked on explicit length windows; every report states its window.
"""

import re
import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import DEFAULT_SIZE_CAP, first_nonassociative_table, row_blocks
from .errors import AlphabetMismatch, ParseError, SizeCap, WindowExceeded, NotSuffixPreserving
from .report import CheckReport
from .search import distinct_values

ALPHABET = string.ascii_lowercase


def letters(n):
    if not 1 <= n <= 26:
        raise ValueError("alphabet size must be between 1 and 26")
    return ALPHABET[:n]


@lru_cache(maxsize=None)
def words_upto(n, L):
    """All words of length <= L, ordered by length then lexicographically."""
    out = [""]
    for k in range(1, L + 1):
        out.extend("".join(w) for w in product(letters(n), repeat=k))
    return tuple(out)


@lru_cache(maxsize=None)
def _word_ranks(n, L):
    """Each word of length <= L to its position in words_upto(n, L), its
    length-lex rank; the rank of a word does not depend on L."""
    return {u: i for i, u in enumerate(words_upto(n, L))}


def _first_rank(n, k):
    """The rank of the first word of length k: the number of shorter words."""
    return k if n == 1 else (n**k - 1) // (n - 1)


# ---------------------------------------------------------------------------
# raw pair arithmetic (None is the zero element)


def _mul(x, y):
    if x is None or y is None:
        return None
    u, v = x
    p, q = y
    if v.endswith(p):
        return (u, v[: len(v) - len(p)] + q)
    if p.endswith(v):
        return (p[: len(p) - len(v)] + u, q)
    return None


def _inv(x):
    return None if x is None else (x[1], x[0])


def _heap(a, b, c):
    return _mul(_mul(a, _inv(b)), c)


def word_leq(x, y):
    """Suffix order on E: x <= y iff x = p + y; the zero (None) lies below all."""
    if x is None:
        return True
    if y is None:
        return False
    return x.endswith(y)


def word_meet(x, y):
    """Meet in the suffix order: the lower of two comparable words, else zero."""
    if x is None or y is None:
        return None
    if x.endswith(y):
        return x
    if y.endswith(x):
        return y
    return None


def pair_leq(x, y):
    """(pu, pv) <= (u, v): both components extended by the same prefix."""
    if x is None:
        return True
    if y is None:
        return False
    (u1, v1), (u2, v2) = x, y
    if not (u1.endswith(u2) and v1.endswith(v2)):
        return False
    return u1[: len(u1) - len(u2)] == v1[: len(v1) - len(v2)]


def rewrite_mul(x, y):
    """Multiply two normal forms by free rewriting over the presentation.

    The concatenation u^-1 v p^-1 q is written as a signed-letter sequence
    and the rules  z z^-1 -> 1  and  z w^-1 -> 0 (z != w)  are applied until
    none matches; the survivor must be a block of inverses followed by a
    block of plain letters.
    """
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


@dataclass(frozen=True)
class PolyElement:
    """An element of the polycyclic monoid on n letters; pair None is zero."""

    n: int
    pair: tuple | None

    def is_zero(self):
        return self.pair is None

    def inv(self):
        return PolyElement(self.n, _inv(self.pair))

    def __mul__(self, other):
        return poly_mul(self, other)

    def __str__(self):
        return format_poly(self)


def poly(n, u, v):
    for w in (u, v):
        for ch in w:
            if ch not in letters(n):
                raise AlphabetMismatch(f"letter {ch!r} outside alphabet of size {n}")
    return PolyElement(n, (u, v))


def poly_zero(n):
    return PolyElement(n, None)


def poly_one(n):
    return PolyElement(n, ("", ""))


def poly_mul(x, y):
    if x.n != y.n:
        raise AlphabetMismatch(f"alphabet sizes differ: {x.n} vs {y.n}")
    return PolyElement(x.n, _mul(x.pair, y.pair))


def poly_leq(x, y):
    if x.n != y.n:
        raise AlphabetMismatch(f"alphabet sizes differ: {x.n} vs {y.n}")
    return pair_leq(x.pair, y.pair)


def format_poly(x):
    if x.pair is None:
        return "0"
    u, v = x.pair
    if not u and not v:
        return "1"
    if not u:
        return v
    if not v:
        return f"({u})^-1"
    return f"({u})^-1 {v}"


def poly_window(n, L):
    """The zero element followed by all pairs with components of length <= L."""
    ws = words_upto(n, L)
    return [None] + [(u, v) for u in ws for v in ws]


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


# ---------------------------------------------------------------------------
# window products on integer codes
#
# A word is its length and its value in base n (letter a is digit 0), so its
# length-lex rank is _first_rank(n, length) + value.  Elements are digit
# arrays (zero, |u|, u, |v|, v): a boolean zero flag, then each word's length
# and value, with the zero element's words empty.  A pair's key is
# rank(u) * radix + rank(v), or -1 for the zero.

# entries per block of a code table: each entry takes some twenty temporaries,
# which at this size stay small and in cache (twice as fast as 64k blocks)
CODE_BLOCK_ENTRIES = 1 << 14


def _code_radix(n, L):
    """The number of words of length <= 3L, the most that a window element
    times a product of two has in a component: the radix of the pair keys.
    Raises WindowExceeded when a key could leave int64."""
    radix = _first_rank(n, 3 * L + 1)
    if radix * radix > 2**63:
        raise WindowExceeded(f"pair codes of window L={L} over {n} letters overflow int64")
    return radix


def _pair_code(n, L):
    """The key of a raw pair with components of length <= 3L, as
    _window_codes(n, L) numbers it."""
    ranks, radix = _word_ranks(n, 3 * L), _code_radix(n, L)
    return lambda x: -1 if x is None else ranks[x[0]] * radix + ranks[x[1]]


def _window_digits(n, L):
    """The digit arrays of poly_window(n, L), element by element."""
    words = [(k, v) for k in range(L + 1) for v in range(n**k)]
    cols = np.array([(0, 0, 0, 0)] + [(*u, *v) for u in words for v in words]).T
    zero = np.zeros(len(words) ** 2 + 1, bool)
    zero[0] = True
    return (zero, *cols)


def _digit_mul(x, y, powers):
    """_mul on digit arrays, elementwise under broadcasting.  Every entry is
    a valid word, also where the product is zero, so its rank is in range."""
    xz, ul, uv, vl, vv = x
    yz, pl, pv, ql, qv = y
    longer = vl >= pl                   # v must end with p, else p with v
    prefix, suffix = np.divmod(np.where(longer, vv, pv), powers[np.minimum(vl, pl)])
    zero = xz | yz | (suffix != np.where(longer, pv, vv))
    cut = abs(vl - pl)                  # the length of that prefix
    shorter = ~longer
    # (u, prefix q) when v is the longer word, else (prefix u, q)
    return (
        zero,
        cut * shorter + ul, prefix * shorter * powers[ul] + uv,
        cut * longer + ql, prefix * longer * powers[ql] + qv,
    )


def _digit_codes(x, first, radix):
    """The pair keys of digit arrays."""
    zero, ul, uv, vl, vv = x
    codes = (first[ul] + uv) * radix + first[vl] + vv
    codes[zero] = -1
    return codes


def _window_codes(n, L, cap=None):
    """The associativity sweep of poly_window(n, L) on pair keys: (ids,
    codes, left, right) for first_nonassociative_table.  ids[i, j] numbers
    x_i x_j among the distinct products of two window elements, codes[d] is
    the key of product d, left[d, k] the key of product d times x_k and
    right[i, d] that of x_i times product d.  Keys compare equal exactly when
    the pairs do, so the first failing triple is that of the scalar sweep.
    Raises SizeCap past cap window elements before any table is built, and
    past cap distinct products before left and right are."""
    size = _first_rank(n, L + 1) ** 2 + 1
    if cap is not None and size > cap:
        raise SizeCap(size, cap)
    radix = _code_radix(n, L)
    powers = np.array([n**k for k in range(3 * L + 1)])
    first = np.array([_first_rank(n, k) for k in range(3 * L + 1)])
    elems = _window_digits(n, L)

    def table(xs, ys):
        out = np.empty((len(xs[0]), len(ys[0])), np.int64)
        for rows in row_blocks(*out.shape, CODE_BLOCK_ENTRIES):
            block = _digit_mul(tuple(a[rows, None] for a in xs), ys, powers)
            out[rows] = _digit_codes(block, first, radix)
        return out

    codes, picked, ids = distinct_values(table(elems, elems).ravel())
    if cap is not None and len(codes) > cap:
        raise SizeCap(len(codes), cap)
    mids = _digit_mul(*(tuple(a[k] for a in elems) for k in divmod(picked, size)), powers)
    return ids.reshape(size, size), codes, table(mids, elems), table(elems, mids)


def verify_poly_window(n, L, cap=DEFAULT_SIZE_CAP):
    """Normal-form multiplication against the rewriting rules on a window,
    plus associativity, inverses, idempotents and the order comparison.
    Associativity is decided on pair keys (_window_codes), whose products of
    two window elements are checked against _mul here; the other lines read
    those products.  Past cap elements or distinct products of two, raises
    SizeCap before taking any product one pair at a time."""
    rep = CheckReport(f"polycyclic arithmetic, n={n}, window L={L}")
    ids, codes, left, right = _window_codes(n, L, cap)
    elems = poly_window(n, L)
    rep.add("window", True, detail=f"{len(elems)} elements, components up to length {L}")

    products = [_mul(x, y) for x in elems for y in elems]
    rep.first_failure("matches_rewriting", (
        f"{x} * {y}: table {xy} vs rewriting {rewrite_mul(x, y)}"
        for (x, y), xy in zip(product(elems, elems), products)
        if xy != rewrite_mul(x, y)
    ))

    if codes[ids].ravel().tolist() != list(map(_pair_code(n, L), products)):
        raise AssertionError(f"pair codes disagree with _mul on window n={n}, L={L}")
    bad = first_nonassociative_table(ids, left, right)
    rep.add("associative_on_window", bad is None,
            bad and "associativity fails at ({},{},{})".format(*(elems[i] for i in bad)))

    # rows[i][j] = x_i x_j; x x^-1 is (u, u) or the zero, a window element,
    # and left_unit[i] is its row, x_i x_i^-1 times each window element
    rows = [products[i:i + len(elems)] for i in range(0, len(products), len(elems))]
    index = {x: i for i, x in enumerate(elems)}
    left_unit = [rows[index[rows[i][index[_inv(x)]]]] for i, x in enumerate(elems)]

    rep.first_failure("inverses", (
        f"inverse laws fail at {x}"
        for i, x in enumerate(elems)
        if left_unit[i][i] != x or _inv(_inv(x)) != x
    ))

    rep.first_failure("idempotents_are_diagonal", (
        f"idempotence of {x} is {rows[i][i] == x}"
        for i, x in enumerate(elems)
        if (rows[i][i] == x) != (x is None or x[0] == x[1])
    ))

    # the defining order (via a = a a^-1 b) agrees with suffix comparison
    rep.first_failure("natural_order_is_suffix_order", (
        f"order disagreement at ({x},{y})"
        for i, x in enumerate(elems)
        for y, xy in zip(elems, left_unit[i])
        if (xy == x) != pair_leq(x, y)
    ))
    return rep


# ---------------------------------------------------------------------------
# the bicyclic monoid: pairs of naturals, a^-i a^j


def bicyclic_mul(x, y):
    (i, j), (k, l) = x, y
    m = max(j, k)
    return (i + m - j, l + m - k)


def bicyclic_inv(x):
    return (x[1], x[0])


def bicyclic_to_poly(x):
    return ("a" * x[0], "a" * x[1])


@dataclass(frozen=True)
class AffineNat:
    """x -> x*k + p on the naturals; also the endomorphism sending the
    generator to a^-p a^(p+k)."""

    k: int
    p: int

    def apply_pair(self, x):
        i, j = x
        return (i * self.k + self.p, j * self.k + self.p)

    def compose(self, other):
        return AffineNat(self.k * other.k, self.p * other.k + other.p)


def bicyclic_endo(k, p):
    if k < 0 or p < 0:
        raise ValueError("parameters must be nonnegative")
    return AffineNat(k, p)


def verify_bicyclic(window=6, param=4):
    """The pair formula, the endomorphism family and its affine composition,
    all validated against single-letter polycyclic rewriting.  The pair
    products are computed once, and each endomorphism's images once per
    parameter."""
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


def bicyclic_hol_check(param=4, window=6):
    """Holomorph pairs of the bicyclic monoid, parameters up to `param` and
    element components up to `window`.

    A pair couples the endomorphism x -> xk+p with a monoid element (l, m);
    the domain condition forces l = p with m free.  The diamond composition,
    evaluated generically in bicyclic arithmetic, must match the semidirect
    composition law; the action law is spot-checked on a smaller sweep.
    Each endomorphism is built once per parameter, outside the sweeps over
    the free parts.
    """
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


# ---------------------------------------------------------------------------
# ordered functions on the idempotents of the polycyclic monoid


@dataclass(frozen=True)
class ConstZero:
    n: int

    def word_image(self, u):
        return None

    @property
    def zero_image(self):
        return None


@dataclass(frozen=True)
class ConstPair:
    """0 -> w and every word -> t, with t a suffix of w."""

    n: int
    w: str
    t: str

    def __post_init__(self):
        if not self.w.endswith(self.t):
            raise ValueError("the word image at zero must lie below the constant")

    def word_image(self, u):
        return self.t

    @property
    def zero_image(self):
        return self.w


@dataclass(frozen=True)
class AffineWordMap:
    """u -> (u sigma) w for an endomorphism sigma given by letter images."""

    n: int
    images: tuple
    w: str

    def word_image(self, u):
        return "".join(self.images[letters(self.n).index(ch)] for ch in u) + self.w

    @property
    def zero_image(self):
        return None


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


def efun_equal_on_window(f, g, n, L):
    if f.zero_image != g.zero_image:
        return False
    return all(f.word_image(u) == g.word_image(u) for u in words_upto(n, L))


def compose_efuns(f, g):
    """Apply f, then g, as a concrete function on window points."""

    class _Composite:
        def __init__(self):
            self.n = f.n

        def word_image(self, u):
            m = f.word_image(u)
            return g.zero_image if m is None else g.word_image(m)

        @property
        def zero_image(self):
            z = f.zero_image
            return g.zero_image if z is None else g.word_image(z)

    return _Composite()


def classify_ordered_functor(n, L, zero_image, table):
    """Sort a window-restricted candidate into the constant-zero, constant
    pair, or affine families, or reject it with a witness.

    ``table`` maps every word of length <= L to a word or None; zero_image is
    the candidate value at the zero idempotent (None for zero).  Windowed
    order violations and family misfits are both rejections.
    """
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


@dataclass(frozen=True)
class Classification:
    kind: str
    sigma: tuple | None = None
    w: str | None = None
    t: str | None = None
    witness: str | None = None


def induced_premorphism_failures(fn, window):
    """Where the element map of an ordered function breaks the premorphism
    inequality on an element window, given as window_values(elems, _mul, 2):
    the image of a product must lie below the product of the images.  The
    map is evaluated once per point."""
    points, products = window
    image = [efun_element_image(fn, x) for x in points]
    for x, y, xy in products:
        if not pair_leq(image[xy], _mul(image[x], image[y])):
            yield f"inequality fails at {points[x]},{points[y]}"


def ideal_check_families(n, param_len):
    """The parameters (w, t) of the constant pairs and the affine maps that
    premorphism_ideal_check composes."""
    ws = words_upto(n, param_len)
    cs = [(w, t) for w in ws for t in ws if w.endswith(t)]
    sigmas = [tuple(letters(n)), tuple("" for _ in range(n))]
    if n >= 2:
        sigmas.append(("aa", "ba") + tuple(letters(n))[2:])
        sigmas.append(("ab", "b") + tuple(letters(n))[2:])
    else:
        sigmas.append(("aa",))
    trans = ["", "a"] + (["ba"] if n >= 2 else [])
    affs = [AffineWordMap(n, imgs, w) for imgs in sigmas for w in trans]
    return cs, affs


def premorphism_ideal_check(n=2, L=3):
    """Composition laws of the constant families and their interaction with
    the affine maps, checked extensionally on the window, plus the induced
    premorphism inequality for representatives of every type; the element
    window's products are computed once for all representatives."""
    param_len, elem_len = 2, 2
    rep = CheckReport(
        f"ordered-function composition laws, n={n}, window L={L}, "
        f"parameters up to length {param_len}"
    )
    cs, affs = ideal_check_families(n, param_len)

    rep.first_failure("constant_then_constant", (
        f"c({w1!r},{t1!r}) then c({w2!r},{t2!r})"
        for w1, t1 in cs
        for w2, t2 in cs
        if not efun_equal_on_window(
            compose_efuns(ConstPair(n, w1, t1), ConstPair(n, w2, t2)),
            ConstPair(n, t2, t2), n, L,
        )
    ))

    rep.first_failure("constant_then_affine", (
        f"c({w1!r},{t1!r}) then affine {af}"
        for w1, t1 in cs
        for af in affs
        if not efun_equal_on_window(
            compose_efuns(ConstPair(n, w1, t1), af),
            ConstPair(n, af.word_image(w1), af.word_image(t1)), n, L,
        )
    ))

    rep.first_failure("affine_then_constant", (
        f"affine {af} then c({w1!r},{t1!r})"
        for w1, t1 in cs
        for af in affs
        if not efun_equal_on_window(
            compose_efuns(af, ConstPair(n, w1, t1)), ConstPair(n, w1, t1), n, L
        )
    ))

    z = ConstZero(n)

    def zero_failures():
        for fn in [z] + affs + [ConstPair(n, a, b) for a, b in cs]:
            if not efun_equal_on_window(compose_efuns(fn, z), z, n, L):
                yield f"{fn} then zero map"
        for af in affs:
            if not efun_equal_on_window(compose_efuns(z, af), z, n, L):
                yield f"zero map then affine {af}"
        for a, b in cs:
            got = compose_efuns(z, ConstPair(n, a, b))
            if not efun_equal_on_window(got, ConstPair(n, a, a), n, L):
                yield f"zero map then c({a!r},{b!r}) is not c({a!r},{a!r})"

    rep.first_failure("zero_map_composition", zero_failures())
    rep.note("the zero map absorbs on the right; composing it into a constant "
             "pair yields the constant at that pair's zero value")

    window = window_values(poly_window(n, elem_len), _mul, 2)
    rep.first_failure("induced_maps_are_premorphic", (
        f"{fn}: {bad}"
        for fn in [z] + [ConstPair(n, a, b) for a, b in cs] + affs
        for bad in induced_premorphism_failures(fn, window)
    ), detail=f"element window {elem_len}")
    return rep


# ---------------------------------------------------------------------------
# suffix codes and the endomorphism characterisation


def is_suffix_code(words):
    """No word in the set is a proper suffix of another word in the set."""
    ws = sorted(set(words), key=len)
    for i, u in enumerate(ws):
        for v in ws[i + 1 :]:
            if len(v) > len(u) and v.endswith(u):
                return False
    return True


def endo_classification_check(n, sigma_images, w, L):
    """Meet preservation on the window against injectivity plus the suffix
    code condition, in both directions, for the affine map (u sigma) w."""
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
                if x is None or y is None:
                    lhs = None
                rhs = word_meet(af.word_image(x) if x is not None else None,
                                af.word_image(y) if y is not None else None)
                if lhs != rhs:
                    yield f"meet mismatch at ({x!r},{y!r}): {lhs!r} vs {rhs!r}"

    witness = next(meet_failures(), None)
    meet_ok = witness is None

    images = ["".join(tuple(sigma_images)[letters(n).index(ch)] for ch in u) for u in ws]
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


def endo_sweep(n, L):
    """endo_classification_check on every letter map with images up to
    length 2 and no translation; the sweep line names the first map whose
    check fails."""
    ws = words_upto(n, 2)
    rep = CheckReport(
        f"endomorphism characterisation sweep, n={n}, window L={L}, "
        f"letter images up to length 2"
    )
    rep.first_failure("sweep", (
        f"letters->{images}: {sub.failures()[0].witness}"
        for images in product(ws, repeat=n)
        if not (sub := endo_classification_check(n, images, "", L)).ok
    ), detail=f"{len(ws) ** n} letter maps")
    return rep


# ---------------------------------------------------------------------------
# heap behaviour of the holomorph element types


def _hol_pair_action(fn, m):
    """x -> (x fn) m, the action of a holomorph pair in compressed form."""

    def act(x):
        return _mul(efun_element_image(fn, x), m)

    return act


def _valid_hol_pair(fn, m):
    top = efun_element_image(fn, ("", ""))
    return _mul(m, _inv(m)) == top


def heap_window(elems):
    """The heap instances of an element window, computed once per window:
    (points, nonzero, zero), the rows of window_values(elems, _heap, 3)
    split into the nonzero-valued and the zero-valued instances."""
    points, rows = window_values(elems, _heap, 3)
    nonzero = tuple(row for row in rows if points[row[3]] is not None)
    zero = tuple(row for row in rows if points[row[3]] is None)
    return points, nonzero, zero


def heap_split(act, window, heap=_heap):
    """Whether act preserves every nonzero-valued and every zero-valued heap
    instance of a heap_window, with the first failing instance of each
    kind: (ok_nz, ok_z, w_nz, w_z).

    act is evaluated once per point of the window; ``heap`` computes the
    image side <a act, b act, c act>, and a memoised _heap lets the maps of
    one check share it."""
    points, nonzero, zero = window
    image = [act(x) for x in points]

    def first_failure(instances):
        for a, b, c, d in instances:
            lhs, rhs = image[d], heap(image[a], image[b], image[c])
            if lhs != rhs:
                value = 0 if points[d] is None else points[d]
                return f"<{points[a]},{points[b]},{points[c]}> = {value}: {lhs} vs {rhs}"
        return None

    w_nz, w_z = first_failure(nonzero), first_failure(zero)
    return w_nz is None, w_z is None, w_nz, w_z


def heap_type_check_polycyclic(n=2, L=1, param_len=2):
    """Heap behaviour of the three holomorph element families on a window.

    For each representative pair the action map is built generically and
    every heap instance over the element window is compared both ways.  The
    heap values are computed once for the window and the image-side heap
    values are shared between the maps (``heap_split``).  The
    constant-pair family is tested against the stated boundary
    "zero-valued instances survive exactly when w = s = t"; the observed
    boundary is reported alongside.

    Under this encoding the stated boundary is false, so its line fails and
    the report exits with a failure: with w = p s, zero goes to
    (w,w)(s,t) = (w, p t) while a zero-valued instance on nonzero arguments
    goes to (s,t), and these agree exactly when w = s, whatever t is.  The
    line's witness is a pair with w = s != t that preserves zero instances,
    and the note confirms the observed boundary w = s.
    """
    rep = CheckReport(
        f"holomorph element heap behaviour, n={n}, element window L={L}, "
        f"parameters up to length {param_len}"
    )
    elems = poly_window(n, L)
    window = heap_window(elems)
    rep.add("window", True, detail=f"{len(elems)} elements, {len(elems) ** 3} heap instances")
    heap = lru_cache(maxsize=None)(_heap)

    zact = _hol_pair_action(ConstZero(n), None)
    ok_nz, ok_z, w_nz, w_z = heap_split(zact, window, heap)
    rep.add("zero_pair_preserves_heap", ok_nz and ok_z, w_nz or w_z)

    ws = words_upto(n, param_len)
    creps = [
        (w, s, t)
        for w in ws
        for s in ws
        if w.endswith(s)
        for t in ws
    ]
    w_nonzero = None
    stated_w = None
    observed = []
    for (w, s, t) in creps:
        fn = ConstPair(n, w, s)
        m = (s, t)
        assert _valid_hol_pair(fn, m)
        act = _hol_pair_action(fn, m)
        ok_nz, ok_z, wit_nz, wit_z = heap_split(act, window, heap)
        if not ok_nz and w_nonzero is None:
            w_nonzero = f"(c_({w!r},{s!r}), ({s!r},{t!r})): {wit_nz}"
        stated = w == s == t
        if ok_z != stated and stated_w is None:
            stated_w = (
                f"(c_({w!r},{s!r}), ({s!r},{t!r})): zero instances "
                f"{'preserved' if ok_z else 'broken'} but w=s=t is {stated}"
            )
        observed.append(((w, s, t), ok_z))
    rep.add("constant_pairs_preserve_nonzero_instances", w_nonzero is None, w_nonzero)
    rep.add("constant_pair_zero_iff_w_eq_s_eq_t", stated_w is None, stated_w)
    boundary = all(ok == (w == s) for (w, s, t), ok in observed)
    rep.note(
        "observed boundary on this window: zero-valued instances are preserved "
        f"exactly when w = s ({'confirmed' if boundary else 'not confirmed'}); "
        "such pairs act as constant maps"
    )

    w = None
    for wd in ws:
        fn = ConstPair(n, wd, wd)
        m = (wd, wd)
        act = _hol_pair_action(fn, m)
        act2 = _hol_pair_action(ConstPair(n, "", ""), m)
        if any(act(x) != act2(x) for x in elems):
            w = f"w={wd!r}"
            break
    rep.add("diagonal_constant_acts_as_translation", w is None, w)

    pad = tuple(letters(n))[2:]  # letters past 'b' map to themselves
    sig_reps = [
        tuple(letters(n)),
        ("aa", "ba") + pad if n >= 2 else ("aa",),
        ("ab", "b") + pad if n >= 2 else ("a",),
        ("b", "a") + pad if n >= 2 else ("",),
    ]
    w = None
    for images in sig_reps:
        for u in ["", "a"]:
            for v in ["", "b"[: n - 1] or "a"]:
                fn = AffineWordMap(n, images, u)
                m = (fn.word_image(""), v)
                if not _valid_hol_pair(fn, m):
                    continue
                act = _hol_pair_action(fn, m)
                ok_nz, ok_z, wit_nz, wit_z = heap_split(act, window, heap)
                preserved = ok_nz and ok_z
                # the verdict comes from inj_code; the benchmark's answers pin
                # how many of these sweeps run (endo_maps_checked)
                endo = endo_classification_check(n, images, u, max(L + 1, 2))
                inj_code = is_suffix_code(images) and len(
                    {fn.word_image(x) for x in words_upto(n, max(L + 1, 2))}
                ) == len(words_upto(n, max(L + 1, 2)))
                if preserved != inj_code:
                    w = (
                        f"affine letters->{images}, translation {u!r}, m=({u!r},{v!r}): "
                        f"heap {'preserved' if preserved else 'broken'} but "
                        f"endomorphism condition is {inj_code}"
                    )
                    break
            if w:
                break
        if w:
            break
    rep.add("affine_pairs_heap_iff_endomorphism", w is None, w)
    return rep


# ---------------------------------------------------------------------------
# suffix-preserving maps and the twisted product


def _outside_window(u, L):
    return WindowExceeded(f"word {u!r} is outside window {L}")


@lru_cache(maxsize=None)
def _rank_tables(m, k):
    """(first, powers) over m letters for lengths 0..k: the rank of the first
    word of each length and m to each power, as int64 arrays.  Raises
    WindowExceeded when some word of length k has a rank past int64."""
    if _first_rank(m, k + 1) > 2**63:
        raise WindowExceeded(f"image codes of length {k} over {m} letters overflow int64")
    return (np.array([_first_rank(m, j) for j in range(k + 1)], np.int64),
            np.array([m**j for j in range(k + 1)], np.int64))


def _image_base(n, images):
    """The number of letters the codes of images rank over: n, or more where
    an image uses a later letter."""
    used = set().union(*images)
    if used <= set(letters(n)):
        return n
    if not used <= set(ALPHABET):
        bad = next(ch for img in images for ch in img if ch not in ALPHABET)
        raise AlphabetMismatch(f"letter {bad!r} outside alphabet of size {len(ALPHABET)}")
    return 1 + max(map(ALPHABET.index, used))


# the letters as the digits of int(word, m): "a" is 0
_LETTER_DIGITS = str.maketrans(ALPHABET, "0123456789abcdefghijklmnop")


def _encode(words, m):
    """(codes, lens): the length-lex ranks over m letters of words that use
    no later letter, and their lengths."""
    lens = np.array(list(map(len, words)), np.int64)
    first, _ = _rank_tables(m, int(lens.max()))
    if m == 1:
        return first[lens], lens
    lex = [int(w.translate(_LETTER_DIGITS), m) if w else 0 for w in words]
    return first[lens] + np.array(lex, np.int64), lens


def _decode(code, length, m):
    """The word of the given length whose length-lex rank over m letters is code."""
    lex = int(code) - _first_rank(m, int(length))
    out = []
    for _ in range(length):
        lex, d = divmod(lex, m)
        out.append(ALPHABET[d])
    return "".join(reversed(out))


def _recode(codes, lens, m, to):
    """Codes over m letters as codes over `to` letters, and the mask of the
    words that use no letter past the first `to` (the others code as junk)."""
    top = int(lens.max())
    lex = codes - _rank_tables(m, top)[0][lens]
    out = _rank_tables(to, top)[0][lens]
    ok, place = np.ones(len(codes), bool), 1
    for _ in range(top):
        lex, d = np.divmod(lex, m)
        ok &= d < to
        out += np.where(d < to, d, 0) * place
        place *= to
    return out, ok


@lru_cache(maxsize=None)
def _transfer_index(n, L, m, lex):
    """The ranks of p + u for the words p of window L - m in rank order, u
    the word of length m and lex rank lex.  For |p| = k that is the rank of
    the first word of length k + m plus lex(p) n^m + lex, so each length k is
    one strided range."""
    return np.concatenate([
        np.arange(n**k, dtype=np.int64) * n**m + (_first_rank(n, k + m) + lex)
        for k in range(L - m + 1)
    ])


def _length_of_rank(n, r):
    """The length of the word of length-lex rank r over n letters."""
    k = 0
    while _first_rank(n, k + 1) <= r:
        k += 1
    return k


class SuffixMap:
    """A suffix-preserving self-map of the free monoid, stored on a window.

    The defining property: the image of p + u always ends with the image of
    u.  The prefix-transfer of u sends p to the left-over prefix of the image
    of p + u after the image of u is removed.

    The images of the words of the window, indexed by the words' length-lex
    ranks, are two int64 arrays: ``codes``, each image's length-lex rank
    over ``base`` letters (the rank _word_ranks gives it; ``base`` is n
    unless the images use later letters), and ``lens``, each image's length.
    Only maps built from raw data are validated: the constructor, ``random``
    and ``from_affine``.  The results of ``identity``,
    ``right_translation``, ``constant``, ``transfer`` and ``compose`` are
    suffix-preserving by construction.  An image whose code would leave
    int64 raises WindowExceeded.
    """

    def __init__(self, n, L, table):
        ws = words_upto(n, L)
        for u in ws:
            if u not in table:
                raise WindowExceeded(f"map is missing the word {u!r} inside its window")
        images = [table[u] for u in ws]
        ranks = _word_ranks(n, L)
        for u, img in zip(ws[1:], images[1:]):
            rest = u[1:]
            if not img.endswith(images[ranks[rest]]):
                raise NotSuffixPreserving(
                    f"image of {u!r} does not end with the image of {rest!r}"
                )
        base = _image_base(n, images)
        self.n, self.L, self.base = n, L, base
        self.codes, self.lens = _encode(images, base)

    @classmethod
    def _trusted(cls, n, L, codes, lens, base):
        """A map from its image codes in rank order, not validated."""
        sm = cls.__new__(cls)
        sm.n, sm.L, sm.codes, sm.lens, sm.base = n, L, codes, lens, base
        return sm

    def _rank(self, u):
        r = _word_ranks(self.n, self.L).get(u)
        if r is None:
            if len(u) > self.L:
                raise _outside_window(u, self.L)
            bad = next(ch for ch in u if ch not in letters(self.n))
            raise AlphabetMismatch(f"letter {bad!r} outside alphabet of size {self.n}")
        return r

    def _image(self, r):
        return _decode(self.codes[r], self.lens[r], self.base)

    def apply(self, u):
        return self._image(self._rank(u))

    def transfer(self, u):
        """The prefix-transfer map of u, on the shrunken window: the images
        of the words p + u, each with the image of u cut off its end.  A word
        of length l and rank c over m letters loses its last k letters as the
        word of rank first(l - k) + (c - first(l)) // m^k."""
        r = self._rank(u)
        n, m = self.n, len(u)
        idx = _transfer_index(n, self.L, m, r - _first_rank(n, m))
        codes, lens, cut = self.codes[idx], self.lens[idx], int(self.lens[r])
        if cut:
            first, powers = _rank_tables(self.base, int(lens.max()))
            codes = first[lens - cut] + (codes - first[lens]) // powers[cut]
            lens = lens - cut
        return SuffixMap._trusted(n, self.L - m, codes, lens, self.base)

    def compose(self, other, L_out=None):
        """Apply self, then other; the result lives on the largest window on
        which every intermediate image fits inside the other map's window."""
        over = self.lens > other.L
        if L_out is None:
            # one less than the length of the first word whose image leaves
            # the other map's window
            i = int(over.argmax())
            L_out = _length_of_rank(self.n, i) - 1 if over[i] else self.L
        if L_out < 0:
            raise WindowExceeded("composition has an empty window")
        k = _first_rank(self.n, L_out + 1)
        mids, bad = self.codes[:k], over[:k]
        if self.base != other.n:
            # the intermediate images as ranks over the other map's letters
            fits = ~bad
            mids, ok = _recode(mids * fits, self.lens[:k] * fits, self.base, other.n)
            bad = bad | ~ok
        if bad.any():
            mid = self._image(int(bad.argmax()))
            if len(mid) > other.L:
                raise WindowExceeded(
                    f"intermediate image {mid!r} is outside window {other.L}"
                )
            other._rank(mid)  # raises AlphabetMismatch
        if L_out > self.L:
            raise _outside_window(letters(self.n)[0] * (self.L + 1), self.L)
        return SuffixMap._trusted(self.n, L_out, other.codes[mids], other.lens[mids], other.base)

    def agrees_with(self, other, L=None):
        if self.n != other.n:
            raise AlphabetMismatch(f"alphabet sizes differ: {self.n} vs {other.n}")
        low = min(self.L, other.L)
        if L is None:
            L = low
        if L > low:
            raise _outside_window(letters(self.n)[0] * (low + 1), low)
        k = _first_rank(self.n, max(L, 0) + 1)  # the empty word even below 0
        # compare on the smaller base, where an image over more letters
        # either has a code or uses a letter the other map's images do not
        small, large = sorted((self, other), key=lambda sm: sm.base)
        codes, ok = large.codes[:k], True
        if large.base != small.base:
            codes, ok = _recode(codes, large.lens[:k], large.base, small.base)
            ok = bool(ok.all())
        return ok and np.array_equal(small.codes[:k], codes)

    @staticmethod
    def identity(n, L):
        lens = np.repeat(np.arange(L + 1, dtype=np.int64), [n**k for k in range(L + 1)])
        return SuffixMap._trusted(n, L, np.arange(len(lens), dtype=np.int64), lens, n)

    @staticmethod
    def right_translation(n, L, w):
        """u -> u + w: over m letters, the rank of u + w is that of the first
        word of its length plus lex(u) m^|w| + lex(w)."""
        m = _image_base(n, [w])
        ident = SuffixMap.identity(n, L)
        codes, lens = ident.codes, ident.lens
        if m != n:
            codes, _ = _recode(codes, lens, n, m)
        first, powers = _rank_tables(m, L + len(w))
        (code,), _ = _encode([w], m)
        lex = (codes - first[lens]) * powers[len(w)] + (code - first[len(w)])
        return SuffixMap._trusted(n, L, first[lens + len(w)] + lex, lens + len(w), m)

    @staticmethod
    def constant(n, L, t):
        m = _image_base(n, [t])
        (code,), (length,) = _encode([t], m)
        size = _first_rank(n, L + 1)
        return SuffixMap._trusted(
            n, L, np.full(size, code, np.int64), np.full(size, length, np.int64), m
        )

    @staticmethod
    def from_affine(n, L, images, w):
        fn = AffineWordMap(n, tuple(images), w)
        return SuffixMap(n, L, {u: fn.word_image(u) for u in words_upto(n, L)})

    @staticmethod
    def random(n, L, rng, root_len=2, snippet_len=1):
        """Build a random suffix-preserving map down the word tree: the image
        of x + u is an arbitrary prefix glued onto the image of u."""
        table = {"": "".join(rng.choice(letters(n)) for _ in range(rng.randint(0, root_len)))}
        for u in words_upto(n, L)[1:]:
            snippet = "".join(
                rng.choice(letters(n)) for _ in range(rng.randint(0, snippet_len))
            )
            table[u] = snippet + table[u[1:]]
        return SuffixMap(n, L, table)

    def __repr__(self):
        return f"<suffix map on {self.n} letters, window {self.L}>"


def zappa_compose(pair1, pair2):
    """(phi, u)(psi, v) = (phi then (u-transfer of psi), (u psi) v)."""
    phi, u = pair1
    psi, v = pair2
    return (phi.compose(psi.transfer(u)), psi.apply(u) + v)


def verify_zappa(n=2, L=3, samples=6, seed=0, cap=DEFAULT_SIZE_CAP):
    """The transfer identities, the product splitting law, associativity of
    the twisted product, and the collapse homomorphism onto suffix maps,
    on randomly sampled suffix maps plus translations and constants.  Work
    that does not depend on the innermost loop variables is done once per
    call: the transfers of each sampled map, the twisted products of two
    sampled pairs, each right translation and each sampled pair's collapse.
    Raises SizeCap before any map is built when the store window has more
    than cap words."""
    import random as _random

    store = L + 6
    size = _first_rank(n, store + 1)  # len(words_upto(n, store))
    if cap is not None and size > cap:
        raise SizeCap(size, cap)
    rng = _random.Random(seed)
    rep = CheckReport(
        f"twisted product of suffix maps, n={n}, window L={L}, "
        f"store {store}, samples {samples}, seed {seed}"
    )
    maps = [SuffixMap.identity(n, store), SuffixMap.right_translation(n, store, "a")]
    if n >= 2:
        maps.append(
            SuffixMap.from_affine(n, store, ("ba", "b") + tuple(letters(n))[2:], "a")
        )
        maps.append(SuffixMap.constant(n, store, "ab"))
    for _ in range(samples):
        maps.append(SuffixMap.random(n, store, rng))
    words = [u for u in words_upto(n, 2) if u]

    rep.first_failure("transfer_splits_concatenation", (
        f"u={u!r}, v={v!r} on {phi}"
        for phi in maps
        for u in words
        for v in words
        if not phi.transfer(u + v).agrees_with(phi.transfer(v).transfer(u), L)
    ))

    def composite_transfer_failures():
        transfer = lru_cache(maxsize=None)(SuffixMap.transfer)
        for phi in maps:
            for psi in maps:
                prod = phi.compose(psi)
                for u in words:
                    lhs = prod.transfer(u)
                    rhs = transfer(phi, u).compose(psi.transfer(phi.apply(u)))
                    if not lhs.agrees_with(rhs, min(L, lhs.L, rhs.L)):
                        yield f"u={u!r} on {phi}, {psi}"

    rep.first_failure("transfer_of_composite", composite_transfer_failures())

    def action_failures():
        for phi in maps:
            for psi in maps:
                prod = phi.compose(psi)
                for u in words_upto(n, min(L, prod.L)):
                    if prod.apply(u) != psi.apply(phi.apply(u)):
                        yield f"u={u!r}"

    rep.first_failure("action_associates", action_failures())

    rep.first_failure("image_of_product_splits", (
        f"u={u!r}, v={v!r}"
        for phi in maps
        for u in words
        for v in words
        if len(v + u) <= phi.L
        if phi.apply(u + v) != phi.transfer(v).apply(u) + phi.apply(v)
    ))

    def associativity_failures():
        twisted = lru_cache(maxsize=None)(zappa_compose)
        for phi, psi, chi in product(maps[:4], repeat=3):
            for u, v, x in product(words[:2], repeat=3):
                try:
                    l1 = zappa_compose(twisted((phi, u), (psi, v)), (chi, x))
                    l2 = zappa_compose((phi, u), twisted((psi, v), (chi, x)))
                except WindowExceeded:
                    continue
                if l1[1] != l2[1] or not l1[0].agrees_with(
                    l2[0], min(L, l1[0].L, l2[0].L)
                ):
                    yield f"({phi},{u!r}),({psi},{v!r}),({chi},{x!r})"

    rep.first_failure("twisted_product_associative", associativity_failures())

    rep.first_failure("translations_transfer_trivially", (
        f"v={v!r}, w={trans!r}"
        for v in words
        for trans in ["", "a", "ab"[: min(2, n)]]
        if not SuffixMap.right_translation(n, store, trans).transfer(v).agrees_with(
            SuffixMap.identity(n, store - len(v)), L
        )
    ))

    def collapse_failures():
        @lru_cache(maxsize=None)
        def rho(w):
            return SuffixMap.right_translation(n, store, w)

        @lru_cache(maxsize=None)
        def collapse(phi, u):  # phi then the right translation by u
            return phi.compose(rho(u))

        for phi, psi in product(maps[:5], repeat=2):
            for u, v in product(words, repeat=2):
                try:
                    zphi, zword = zappa_compose((phi, u), (psi, v))
                    mu_prod = zphi.compose(rho(zword))
                    mu_left = collapse(phi, u)
                    mu_right = collapse(psi, v)
                    both = mu_left.compose(mu_right)
                except WindowExceeded:
                    continue
                if not mu_prod.agrees_with(both, min(L, mu_prod.L, both.L)):
                    yield f"({phi},{u!r}) ({psi},{v!r})"

    rep.first_failure("collapse_map_multiplicative", collapse_failures())
    return rep


# ---------------------------------------------------------------------------
# expression parsing for the command line


def parse_poly_expression(text, n):
    """Evaluate an expression over words, "0", "1", "^-1" and "*".

    Juxtaposed atoms multiply, as does "*"; parentheses group.  Returns a
    PolyElement.
    """
    # whitespace separates; group 1 is a token, group 2 a character that
    # starts none
    tokens = []
    for m in re.finditer(rf"\s+|(\^-1|[()*01]|[{letters(n)}]+)|(.)", text, re.S):
        if m[2]:
            raise ParseError(f"bad character {m[2]!r} at position {m.start()}")
        if m[1]:
            tokens.append(m[1])
    tokens.append(None)
    # the product so far of each open group, innermost last; None before the
    # group's first factor
    groups, acc, i = [], None, 0
    while True:
        t = tokens[i]
        i += 1
        if t is None:
            raise ParseError("unexpected end of expression")
        if t in (")", "*", "^-1"):
            raise ParseError(f"unexpected token {t!r}")
        if t == "(":
            groups.append(acc)
            acc = None
            continue
        val = poly_zero(n) if t == "0" else poly_one(n) if t == "1" else poly(n, "", t)
        # multiply the factor in, and close each group that ends after it
        while True:
            if tokens[i] == "^-1":
                i += 1
                val = val.inv()
            # "*" and juxtaposition are the same associative product
            acc = val if acc is None else poly_mul(acc, val)
            if tokens[i] not in (None, ")"):
                if tokens[i] == "*":
                    i += 1
                break
            if not groups:
                if tokens[i] is not None:
                    raise ParseError(f"trailing input at token {i}: {tokens[i]!r}")
                return acc
            if tokens[i] is None:
                raise ParseError("missing closing parenthesis")
            i += 1
            val, acc = acc, groups.pop()
