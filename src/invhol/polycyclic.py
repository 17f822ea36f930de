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

from .core import DEFAULT_SIZE_CAP, first_hits, first_nonassociative_table, row_blocks
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


def word_leq(x, y):
    """Suffix order on E: x <= y iff x = p + y; the zero (None) lies below all."""
    if x is None:
        return True
    if y is None:
        return False
    return x.endswith(y)


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

    The signed letters of the concatenation u^-1 v p^-1 q are reduced left
    to right on a stack: an inverse letter meeting a plain one on top applies
    z z^-1 -> 1  or  z w^-1 -> 0 (z != w).  An inverse letter is pushed only
    onto a stack of inverses, so the stack is held as its two blocks: the
    inverses, then the plain letters.
    """
    if x is None or y is None:
        return None
    inverses, letters = [], []
    for u, v in (x, y):
        for ch in reversed(u):
            if not letters:
                inverses.append(ch)
            elif letters.pop() != ch:
                return None
        letters.extend(v)
    return ("".join(reversed(inverses)), "".join(letters))


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


def _check_letters(n, words):
    """Raise AlphabetMismatch at the first letter of the words outside the
    alphabet of size n, the only one the word codes know."""
    if not set().union(*words) <= set(letters(n)):
        bad = next(ch for w in words for ch in w if ch not in letters(n))
        raise AlphabetMismatch(f"letter {bad!r} outside alphabet of size {n}")


def _check_same_n(x, y):
    if x.n != y.n:
        raise AlphabetMismatch(f"alphabet sizes differ: {x.n} vs {y.n}")


def poly(n, u, v):
    _check_letters(n, (u, v))
    return PolyElement(n, (u, v))


def poly_zero(n):
    return PolyElement(n, None)


def poly_one(n):
    return PolyElement(n, ("", ""))


def poly_mul(x, y):
    _check_same_n(x, y)
    return PolyElement(x.n, _mul(x.pair, y.pair))


def poly_leq(x, y):
    _check_same_n(x, y)
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


# ---------------------------------------------------------------------------
# int64 word codes
#
# A word over the n letters of the monoid is coded by its shortlex rank: the
# number of shorter words plus its value in base n, letter a being digit 0,
# so the words of words_upto(n, L) are the codes 0 .. _first_rank(n, L + 1) - 1
# in order.  Every map on words is a self-map of these words, so n is the
# only alphabet the codes know, and _encode rejects any other letter.  A
# word of length l and code c has the value c - first[l], and it ends with
# the word of length k and code d exactly when that value mod n^k is
# d - first[k]; suffix tests, cuts, concatenation and the product and order
# of pairs are array arithmetic.  A pair (u, v) is two code arrays, the zero
# element coded as u = v = -1.  The functions on code arrays take the tables
# (first, powers) of _rank_tables(n, k), and k must cover every length they
# meet: for two pairs, the sum of their longest components, which keeps even
# the entries they mask inside the tables.

# entries per block of a code table: each entry takes some twenty temporaries,
# which at this size stay small and in cache (twice as fast as 64k blocks)
CODE_BLOCK_ENTRIES = 1 << 14


@lru_cache(maxsize=None)
def _rank_tables(n, k):
    """(first, powers) over n letters for lengths 0..k: the code of the first
    word of each length and n to each power, as int64 arrays.  Raises
    WindowExceeded when some word of length k has a code past int64."""
    if _first_rank(n, k + 1) > 2**63:
        raise WindowExceeded(f"image codes of length {k} over {n} letters overflow int64")
    return (np.array([_first_rank(n, j) for j in range(k + 1)], np.int64),
            np.array([n**j for j in range(k + 1)], np.int64))


def _lengths(codes, tables):
    """The length of each word code; 0 for the code -1."""
    return tables[0][1:].searchsorted(codes, "right")


# the letters as the digits of int(word, n): "a" is 0
_LETTER_DIGITS = str.maketrans(ALPHABET, "0123456789abcdefghijklmnop")


def _encode(words, n):
    """(codes, lens): the codes of words over n letters, and their lengths.
    Every word from outside enters the codes here, so a letter outside the
    alphabet raises AlphabetMismatch before int() could misread it."""
    _check_letters(n, words)
    lens = np.array(list(map(len, words)), np.int64)
    first, _ = _rank_tables(n, int(lens.max()))
    if n == 1:
        return first[lens], lens
    lex = [int(w.translate(_LETTER_DIGITS), n) if w else 0 for w in words]
    return first[lens] + np.array(lex, np.int64), lens


def _decode(code, n, k=None):
    """The word whose code over n letters is code, of length k when that is
    known; None for -1."""
    if code < 0:
        return None
    if k is None:
        k = 0
        while _first_rank(n, k + 1) <= code:
            k += 1
    lex = int(code) - _first_rank(n, int(k))
    return "".join(ALPHABET[lex // n**i % n] for i in reversed(range(k)))


def _decode_pair(u, v, n):
    """The raw pair of two codes over n letters; None for the zero."""
    return None if u < 0 else (_decode(u, n), _decode(v, n))


def _ends_with(x, xl, y, yl, tables):
    """Whether each word x (of length xl) ends with the word y."""
    first, powers = tables
    return (xl >= yl) & ((x - first[xl]) % powers[yl] == y - first[yl])


def _cut(x, xl, k, tables):
    """The codes of the words x with their last k letters cut off (xl >= k)."""
    first, powers = tables
    return first[xl - k] + (x - first[xl]) // powers[k]


def _concat(x, xl, y, yl, tables):
    """The codes of the words x + y."""
    first, powers = tables
    return first[xl + yl] + (x - first[xl]) * powers[yl] + y - first[yl]


def _pair_mul(x, y, tables):
    """_mul on pair codes, elementwise under broadcasting."""
    (u, v), (p, q) = x, y
    first, powers = tables
    vl, pl = _lengths(v, tables), _lengths(p, tables)
    longer = vl >= pl                   # v must end with p, else p with v
    k, cut = np.minimum(vl, pl), abs(vl - pl)
    # the longer word is a prefix of length cut and then a tail of length k
    prefix, tail = np.divmod(np.where(longer, v, p) - first[cut + k], powers[k])
    ok = (tail == np.where(longer, p, v) - first[k]) & (u >= 0) & (p >= 0)
    # the prefix goes onto q when v is the longer word, else onto u
    rest = np.where(longer, q, u)
    rl = _lengths(rest, tables)
    joined = first[cut + rl] + prefix * powers[rl] + rest - first[rl]
    return (np.where(ok, np.where(longer, u, joined), -1),
            np.where(ok, np.where(longer, joined, q), -1))


def _meet(x, xl, y, yl, tables):
    """The meet of words in the suffix order: the lower of two comparable
    words, else -1, the zero."""
    return np.where(_ends_with(x, xl, y, yl, tables), x,
                    np.where(_ends_with(y, yl, x, xl, tables), y, -1))


def _pair_leq(x, y, tables):
    """pair_leq on pair codes, elementwise under broadcasting."""
    (u1, v1), (u2, v2) = x, y
    ul1, vl1, ul2, vl2 = (_lengths(w, tables) for w in (u1, v1, u2, v2))
    same = (_ends_with(u1, ul1, u2, ul2, tables) & _ends_with(v1, vl1, v2, vl2, tables)
            & (_cut(u1, ul1, ul2, tables) == _cut(v1, vl1, vl2, tables)))
    return (u1 < 0) | ((u2 >= 0) & same)


def _affine_codes(K, images, w, n):
    """The codes over n letters of the words (u sigma) w, sigma sending the
    i-th letter to images[i], for the words u of length <= K in shortlex
    order: each length is the one before it followed by a letter, one
    broadcast against the letter images."""
    tables = _rank_tables(n, K * max(map(len, images)) + len(w))
    sig, sigl = _encode(images, n)
    codes, lens = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    for _ in range(K):
        codes.append(_concat(codes[-1][:, None], lens[-1][:, None], sig, sigl, tables).ravel())
        lens.append((lens[-1][:, None] + sigl).ravel())
    (wc,), (wl,) = _encode([w], n)
    return _concat(np.concatenate(codes), np.concatenate(lens), wc, wl, tables)


@lru_cache(maxsize=None)
def _suffixed(n, L, r, k):
    """The codes of the words p + u over n letters, p running over the words
    of length <= L in order and u the word of code r and length k; cached,
    as verify_zappa transfers by the same few words many times."""
    tables = _rank_tables(n, L + k)
    p = np.arange(_first_rank(n, L + 1))
    return _concat(p, _lengths(p, tables), r, k, tables)


def _window_pairs(n, L):
    """The pair codes of poly_window(n, L), element by element."""
    s = _first_rank(n, L + 1)
    return tuple(np.concatenate(([-1], w)) for w in np.divmod(np.arange(s * s), s))


def _code_radix(n, L):
    """The number of words of length <= 3L, the most that a window element
    times a product of two has in a component: the radix of the pair keys.
    Raises WindowExceeded when a key could leave int64."""
    radix = _first_rank(n, 3 * L + 1)
    if radix * radix > 2**63:
        raise WindowExceeded(f"pair codes of window L={L} over {n} letters overflow int64")
    return radix


def _key_pairs(keys, radix):
    """The pair codes (u, v) of pair keys u * radix + v, and of the zero's -1."""
    u, v = np.divmod(keys, radix)
    return u, np.where(u < 0, -1, v)


def _window_codes(n, L, cap=None):
    """The associativity sweep of poly_window(n, L) on pair keys: (ids,
    codes, left, right) for first_nonassociative_table.  A pair's key is
    u * radix + v, or -1 for the zero.  ids[i, j] numbers x_i x_j among the
    distinct products of two window elements, codes[d] is the key of
    product d, left[d, k] the key of product d times x_k and right[i, d]
    that of x_i times product d.  Keys compare equal exactly when the pairs
    do, so the first failing triple is that of the scalar sweep.  Raises
    SizeCap past cap window elements before any table is built, and past
    cap distinct products before left and right are."""
    size = _first_rank(n, L + 1) ** 2 + 1
    if cap is not None and size > cap:
        raise SizeCap(size, cap)
    radix = _code_radix(n, L)
    tables = _rank_tables(n, 3 * L)
    u, v = _window_pairs(n, L)
    elems = np.where(u < 0, -1, u * radix + v)

    def table(xs, ys):
        out = np.empty((len(xs), len(ys)), np.int64)
        for rows in row_blocks(*out.shape, CODE_BLOCK_ENTRIES):
            p, q = _pair_mul(_key_pairs(xs[rows, None], radix), _key_pairs(ys, radix), tables)
            out[rows] = np.where(p < 0, -1, p * radix + q)
        return out

    codes, _, ids = distinct_values(table(elems, elems).ravel())
    if cap is not None and len(codes) > cap:
        raise SizeCap(len(codes), cap)
    return ids.reshape(size, size), codes, table(codes, elems), table(elems, codes)


def verify_poly_window(n, L, cap=DEFAULT_SIZE_CAP):
    """Normal-form multiplication against the rewriting rules on a window,
    plus associativity, inverses, idempotents and the order comparison.
    Every line reads the pair keys of _window_codes: matches_rewriting
    compares its products of two window elements with the rewriting of
    their middle words, and the inverse, idempotent and order lines look
    them up.  Past cap elements or distinct products of two, raises SizeCap
    before any product is taken."""
    rep = CheckReport(f"polycyclic arithmetic, n={n}, window L={L}")
    ids, codes, left, right = _window_codes(n, L, cap)
    elems = poly_window(n, L)
    size, s, radix = len(elems), _first_rank(n, L + 1), _code_radix(n, L)
    rep.add("window", True, detail=f"{size} elements, components up to length {L}")
    (u, v), at = _window_pairs(n, L), np.arange(size)
    tables = _rank_tables(n, 3 * L)

    # rewriting u^-1 v p^-1 q cancels letters only in its middle v p^-1: when
    # ("", v) (p, "") rewrites to (p', v'), the product is (p' u, v' q), and
    # the zero when the middle is; so each of the s * s middles is rewritten
    # once.  The sweep's blocks are a quarter of the usual: at full size
    # their temporaries raised the peak RSS of `poly --check arith` 0.4 MB.
    middles = [rewrite_mul(("", b), (c, "")) for b, c in product(words_upto(n, L), repeat=2)]
    (mp, mpl), (mv, mvl) = (_encode([m[k] if m else "" for m in middles], n) for k in (0, 1))
    mp[[m is None for m in middles]] = -1
    ul, vl = _lengths(u, tables), _lengths(v, tables)

    def rewritten(i, j):
        """The keys of x_i x_j by the rewriting of its middle."""
        m = np.maximum(v[i], 0) * s + np.maximum(u[j], 0)
        p = _concat(mp[m], mpl[m], u[i], ul[i], tables)
        q = _concat(mv[m], mvl[m], v[j], vl[j], tables)
        return np.where(np.minimum(np.minimum(u[i], u[j]), mp[m]) < 0, -1, p * radix + q)

    rep.first_failure("matches_rewriting", (
        f"{elems[i]} * {elems[j]}: table {_decode_pair(*_key_pairs(codes[ids[i, j]], radix), n)}"
        f" vs rewriting {_decode_pair(*_key_pairs(rewritten(i, j), radix), n)}"
        for i, j in first_hits(size, size, lambda r: codes[ids[r]] != rewritten(at[r, None], at),
                               CODE_BLOCK_ENTRIES // 4)
    ))

    bad = first_nonassociative_table(ids, left, right)
    rep.add("associative_on_window", bad is None,
            bad and "associativity fails at ({},{},{})".format(*(elems[i] for i in bad)))

    # element i is (u, v) = divmod(i - 1, s) and its inverse (v, u) is
    # element inv[i]; x_i x_i^-1, (u, u) or the zero, is element unit[i],
    # whose row of ids holds it times each window element
    keys = np.where(u < 0, -1, u * radix + v)
    inv = np.where(u < 0, 0, 1 + v * s + u)
    eu, ev = _key_pairs(codes[ids[at, inv]], radix)
    unit = np.where(eu < 0, 0, 1 + eu * s + ev)

    rep.first_failure("inverses", (
        f"inverse laws fail at {elems[i]}"
        for i in ((codes[ids[unit, at]] != keys) | (inv[inv] != at)).nonzero()[0].tolist()
    ))

    idempotent = codes[ids[at, at]] == keys
    rep.first_failure("idempotents_are_diagonal", (
        f"idempotence of {elems[i]} is {bool(idempotent[i])}"
        for i in (idempotent != ((u < 0) | (u == v))).nonzero()[0].tolist()
    ))

    # the defining order (via a = a a^-1 b) agrees with suffix comparison
    def order_differs(rows):
        below = codes[ids[unit[rows]]] == keys[rows, None]
        return below != _pair_leq((u[rows, None], v[rows, None]), (u, v), tables)

    rep.first_failure("natural_order_is_suffix_order", (
        f"order disagreement at ({elems[i]},{elems[j]})"
        for i, j in first_hits(size, size, order_differs, CODE_BLOCK_ENTRIES)
    ))
    return rep


# ---------------------------------------------------------------------------
# the bicyclic monoid: pairs of naturals, a^-i a^j.  It is P_1, and (i, j) is
# the one-letter pair code (a^i, a^j), since the shortlex code of a^i is i.
# The pair formulas act elementwise, on ints or on arrays of components, so
# the checks sweep the window's pairs as two arrays and decode a witness.


def bicyclic_mul(x, y):
    (i, j), (k, l) = x, y
    d = k - j
    return (i + d * (d > 0), l - d * (d < 0))


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


def _differ(x, y):
    """The flat positions, in row-major order, where two pair arrays differ."""
    return np.flatnonzero((x[0] != y[0]) | (x[1] != y[1]))


def verify_bicyclic(window=6, param=4):
    """The pair formula, the endomorphism family and its affine composition,
    all validated against single-letter polycyclic rewriting.  The formula
    is compared, as arrays, with the rewritten middle a^j a^-k of each
    product, and the family's lines compare the window's pairs, or their
    products, as arrays, once per parameter pair."""
    rep = CheckReport(f"bicyclic monoid, window {window}, parameters up to {param}")
    pairs = [(i, j) for i in range(window + 1) for j in range(window + 1)]
    grid = tuple(np.array(pairs).T)  # the pairs as two component arrays

    # (i, j)(k, l) rewrites as its middle a^j a^-k, the pair (j, k), does: to
    # (p' a^i, v' a^l) when the middle gives (p', v'), and to the zero with it
    mids = [rewrite_mul(("", "a" * j), ("a" * k, "")) for j, k in pairs]
    mp, mv = (np.array([len(m[s]) if m else 0 for m in mids]) for s in (0, 1))
    off = np.array([not m or m != bicyclic_to_poly((len(m[0]), len(m[1]))) for m in mids])
    rows = (grid[0][:, None], grid[1][:, None])
    products, at = bicyclic_mul(rows, grid), rows[1] * (window + 1) + grid[0]
    differs = off[at] | (products[0] != rows[0] + mp[at]) | (products[1] != mv[at] + grid[1])

    def witness(a, b):
        (i, j), (k, l) = pairs[a], pairs[b]
        m = mids[j * (window + 1) + k]
        return (f"{pairs[a]} * {pairs[b]}: pair formula {bicyclic_mul(pairs[a], pairs[b])}"
                f" vs rewriting {m and (m[0] + 'a' * i, m[1] + 'a' * l)}")

    rep.first_failure("pair_formula_matches_rewriting", (
        witness(*divmod(t, len(pairs))) for t in np.flatnonzero(differs).tolist()
    ))

    rep.first_failure("identity", (
        "identity (0,0) fails"
        for x in pairs
        if bicyclic_mul((0, 0), x) != x or bicyclic_mul(x, (0, 0)) != x
    ))

    params = [(k, p) for k in range(param + 1) for p in range(param + 1)]

    def multiplicativity_failures():
        for k, p in params:
            nu = bicyclic_endo(k, p)
            images = bicyclic_mul(nu.apply_pair(rows), nu.apply_pair(grid))
            for t in _differ(nu.apply_pair(products), images):
                a, b = divmod(t, len(pairs))
                yield f"(k,p)=({k},{p}) not multiplicative at {pairs[a]},{pairs[b]}"

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
            image = nu.apply_pair(grid)
            for k2, p2 in params:
                nu2 = bicyclic_endo(k2, p2)
                comp = nu.compose(nu2)
                if comp != AffineNat(k * k2, p * k2 + p2):
                    yield f"affine composition fails at ({k},{p}),({k2},{p2})"
                for t in _differ(comp.apply_pair(grid), nu2.apply_pair(image)):
                    yield f"composite map wrong at {pairs[t]}"

    rep.first_failure("family_composes_as_affine_maps", composition_failures())
    return rep


def bicyclic_hol_check(param=4, window=6):
    """Holomorph pairs of the bicyclic monoid, parameters up to `param` and
    element components up to `window`.

    A pair couples the endomorphism x -> xk+p with a monoid element (l, m);
    the domain condition forces l = p with m free.  The diamond composition,
    evaluated generically in bicyclic arithmetic, must match the semidirect
    composition law; the action law is spot-checked on a smaller sweep.
    The validity and semidirect lines compare all (l, m), or all free parts
    (m, m2), as arrays per parameter pair; the action law all x and m2.
    """
    rep = CheckReport(f"bicyclic holomorph, parameters up to {param}, window {window}")
    params = [(k, p) for k in range(param + 1) for p in range(param + 1)]
    pairs = [(i, j) for i in range(window + 1) for j in range(window + 1)]
    grid = tuple(np.array(pairs).T)  # the pairs as two component arrays

    def validity_failures():
        tops = bicyclic_mul(grid, bicyclic_inv(grid))
        for k, p in params:
            top = bicyclic_endo(k, p).apply_pair((0, 0))
            valid = (tops[0] == top[0]) & (tops[1] == top[1])
            for t in np.flatnonzero(valid != (grid[0] == p)):
                l, m = pairs[t]
                yield f"(k,p)=({k},{p}): pair ({l},{m}) validity is {bool(valid[t])}"

    rep.first_failure("transformation_part_forces_l_eq_p", validity_failures())

    def diamond(e1, e2):
        (a1, m1), (a2, m2) = e1, e2
        return (a1.compose(a2), bicyclic_mul(a2.apply_pair(m1), m2))

    def semidirect_failures():
        for k, p in params:
            a1 = bicyclic_endo(k, p)
            for k2, p2 in params:
                a2 = bicyclic_endo(k2, p2)
                alpha, ms = diamond((a1, (p, grid[0])), (a2, (p2, grid[1])))
                want_m = (p * k2 + p2, grid[0] * k2 + grid[1])
                flagged = (range(len(pairs)) if alpha != AffineNat(k * k2, p * k2 + p2)
                           else _differ(ms, want_m))
                for t in flagged:
                    m, m2 = pairs[t]
                    comp_alpha, comp_m = diamond((a1, (p, m)), (a2, (p2, m2)))
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
    m2 = np.arange(3)[:, None]

    def action_failures():
        for k, p in small:
            a = bicyclic_endo(k, p)
            image = a.apply_pair(grid)
            for m in range(3):
                step = bicyclic_mul(image, (p, m))
                for k2, p2 in small:
                    b = bicyclic_endo(k2, p2)
                    ca, cm = diamond((a, (p, m)), (b, (p2, m2)))
                    lhs = bicyclic_mul(ca.apply_pair(grid), cm)
                    rhs = bicyclic_mul(b.apply_pair(step), (p2, m2))
                    for t in _differ(lhs, rhs):
                        yield f"action law fails at x={pairs[t % len(pairs)]}"

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

    def codes(self, K):
        """(zero, images, top): the image of the zero and the images of the
        words of length <= K in shortlex order, as codes over n letters with
        -1 for the zero, and the length of the longest image."""
        return -1, np.full(_first_rank(self.n, K + 1), -1, np.int64), 0


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

    def codes(self, K):
        """As ConstZero.codes."""
        (w, t), _ = _encode([self.w, self.t], self.n)
        return w, np.full(_first_rank(self.n, K + 1), t, np.int64), len(self.w)


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

    def codes(self, K):
        """As ConstZero.codes."""
        codes = _affine_codes(K, self.images, self.w, self.n)
        return -1, codes, K * max(map(len, self.images)) + len(self.w)


def _efun_pairs(efun, x):
    """The self-map of the polycyclic monoid induced by an ordered function
    on idempotents, (u, v) -> (u fn, v fn) and 0 -> the idempotent at 0 fn,
    on pair codes: for efun = fn.codes(K) and components up to length K."""
    zero, table, _ = efun
    u, v = x
    fu, fv = table[u], table[v]
    nonzero = (u >= 0) & (fu >= 0) & (fv >= 0)
    at_zero = np.where(u < 0, zero, -1)
    return np.where(nonzero, fu, at_zero), np.where(nonzero, fv, at_zero)


def _composes_to(f, g, want, n, L):
    """Whether f then g agrees with `want` at the zero and on the words of
    window L; a function maps the zero, and each word it sends to the zero,
    to its zero_image."""

    def image(fn, u):
        return fn.zero_image if u is None else fn.word_image(u)

    return all(image(g, image(f, u)) == image(want, u) for u in [None, *words_upto(n, L)])


def classify_ordered_functor(n, L, zero_image, table):
    """Sort a window-restricted candidate into the constant-zero, constant
    pair, or affine families, or reject it with a witness.

    ``table`` maps every word of length <= L to a word or None; zero_image is
    the candidate value at the zero idempotent (None for zero).  The values
    at the zero, at the empty word and at the letters name the one family
    member the candidate can be, and it is accepted iff that member agrees
    with it on every window word.  Every member is an ordered functor, so an
    order violation is a rejection too.
    """
    ws = words_upto(n, L)
    for u in ws:
        if u not in table:
            raise WindowExceeded(f"candidate is missing the word {u!r}")
    root = table[""]
    tops = [table[ch] for ch in letters(n)] if L else []  # letters lie outside window 0
    member = None
    if zero_image is not None:
        if root is not None and zero_image.endswith(root):
            member = ConstPair(n, zero_image, root)
            found = Classification("constant_pair", w=zero_image, t=root)
    elif root is None:
        member, found = ConstZero(n), Classification("constant_zero")
    elif tops and all(top is not None and top.endswith(root) for top in tops):
        images = tuple(top[: len(top) - len(root)] for top in tops)
        member = AffineWordMap(n, images, root)
        found = Classification("affine", sigma=images, w=root)
    if member is None:
        return Classification(
            "not_ordered_functor",
            witness=f"no family member takes the values {zero_image!r} at the zero, "
            f"{root!r} at '' and {tops} at the letters",
        )
    bad = next((u for u in ws if member.word_image(u) != table[u]), None)
    if bad is not None:
        return Classification(
            "not_ordered_functor",
            witness=f"{member}, the one member these values name, maps {bad!r} to "
            f"{member.word_image(bad)!r}, not {table[bad]!r}",
        )
    return found


@dataclass(frozen=True)
class Classification:
    kind: str
    sigma: tuple | None = None
    w: str | None = None
    t: str | None = None
    witness: str | None = None


def _induced_failures(fn, n, L):
    """Where the element map of an ordered function breaks the premorphism
    inequality on poly_window(n, L), in order: the image of a product must
    lie below the product of the images.  Swept on pair codes, one block of
    rows at a time."""
    u, v = _window_pairs(n, L)
    efun = fn.codes(2 * L)
    domain, tables = _rank_tables(n, 2 * L), _rank_tables(n, 2 * efun[2])

    def broken(rows):
        x, y = (u[rows, None], v[rows, None]), (u, v)
        lhs = _efun_pairs(efun, _pair_mul(x, y, domain))
        rhs = _pair_mul(_efun_pairs(efun, x), _efun_pairs(efun, y), tables)
        return ~_pair_leq(lhs, rhs, tables)

    for i, j in first_hits(len(u), len(u), broken, CODE_BLOCK_ENTRIES):
        yield f"inequality fails at {_decode_pair(u[i], v[i], n)},{_decode_pair(u[j], v[j], n)}"


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


def premorphism_ideal_check(n=2, L=3, cap=DEFAULT_SIZE_CAP):
    """Composition laws of the constant families and their interaction with
    the affine maps, checked extensionally on the window, plus the induced
    premorphism inequality for representatives of every type on an element
    window.  Raises SizeCap before any sweep past cap words in the window or
    cap elements in the element window."""
    param_len, elem_len = 2, 2
    for size in (_first_rank(n, L + 1), _first_rank(n, elem_len + 1) ** 2 + 1):
        if cap is not None and size > cap:
            raise SizeCap(size, cap)
    rep = CheckReport(
        f"ordered-function composition laws, n={n}, window L={L}, "
        f"parameters up to length {param_len}"
    )
    cs, affs = ideal_check_families(n, param_len)

    rep.first_failure("constant_then_constant", (
        f"c({w1!r},{t1!r}) then c({w2!r},{t2!r})"
        for w1, t1 in cs
        for w2, t2 in cs
        if not _composes_to(ConstPair(n, w1, t1), ConstPair(n, w2, t2), ConstPair(n, t2, t2), n, L)
    ))

    rep.first_failure("constant_then_affine", (
        f"c({w1!r},{t1!r}) then affine {af}"
        for w1, t1 in cs
        for af in affs
        if not _composes_to(ConstPair(n, w1, t1), af,
                            ConstPair(n, af.word_image(w1), af.word_image(t1)), n, L)
    ))

    rep.first_failure("affine_then_constant", (
        f"affine {af} then c({w1!r},{t1!r})"
        for w1, t1 in cs
        for af in affs
        if not _composes_to(af, ConstPair(n, w1, t1), ConstPair(n, w1, t1), n, L)
    ))

    z = ConstZero(n)

    def zero_failures():
        for fn in [z] + affs + [ConstPair(n, a, b) for a, b in cs]:
            if not _composes_to(fn, z, z, n, L):
                yield f"{fn} then zero map"
        for af in affs:
            if not _composes_to(z, af, z, n, L):
                yield f"zero map then affine {af}"
        for a, b in cs:
            if not _composes_to(z, ConstPair(n, a, b), ConstPair(n, a, a), n, L):
                yield f"zero map then c({a!r},{b!r}) is not c({a!r},{a!r})"

    rep.first_failure("zero_map_composition", zero_failures())
    rep.note("the zero map absorbs on the right; composing it into a constant "
             "pair yields the constant at that pair's zero value")

    rep.first_failure("induced_maps_are_premorphic", (
        f"{fn}: {bad}"
        for fn in [z] + [ConstPair(n, a, b) for a, b in cs] + affs
        for bad in _induced_failures(fn, n, elem_len)
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
    code condition, in both directions, for the affine map (u sigma) w.
    The meets are compared on word codes, one block of rows at a time."""
    sigma_images = tuple(sigma_images)
    rep = CheckReport(
        f"endomorphism test for letters->{sigma_images} translation {w!r}, "
        f"n={n}, window L={L}"
    )
    _, images, top = AffineWordMap(n, sigma_images, w).codes(L)
    domain, tables = _rank_tables(n, L), _rank_tables(n, top)
    words = np.arange(len(images))
    wl, il = _lengths(words, domain), _lengths(images, tables)

    def meets(rows):
        """The image of each meet and the meet of the images, for the words
        of the rows against every word; the meets with the zero agree."""
        lhs = _meet(words[rows, None], wl[rows, None], words, wl, domain)
        rhs = _meet(images[rows, None], il[rows, None], images, il, tables)
        return np.where(lhs < 0, -1, images[lhs]), rhs

    def differ(rows):
        lhs, rhs = meets(rows)
        return lhs != rhs

    def meet_failures():
        for i, j in first_hits(len(words), len(words), differ, CODE_BLOCK_ENTRIES):
            lhs, rhs = (_decode(c[0, j], n) for c in meets(slice(i, i + 1)))
            yield f"meet mismatch at ({_decode(i, n)!r},{_decode(j, n)!r}): {lhs!r} vs {rhs!r}"

    witness = next(meet_failures(), None)
    meet_ok = witness is None

    injective = len(distinct_values(images)[0]) == len(images)
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


def endo_sweep(n, L, cap=DEFAULT_SIZE_CAP):
    """endo_classification_check on every letter map with images up to
    length 2 and no translation; the sweep line names the first map whose
    check fails.  Raises SizeCap before the sweep past cap letter maps or
    cap words in the window."""
    for size in (_first_rank(n, 3) ** n, _first_rank(n, L + 1)):
        if cap is not None and size > cap:
            raise SizeCap(size, cap)
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


def _valid_hol_pair(fn, m):
    """Whether m m^-1 is the image (e, e) of the identity, e the image of
    the empty word, or the zero when e is."""
    e = fn.word_image("")
    return _mul(m, _inv(m)) == (None if e is None else (e, e))


def _hol_act(fn, m, K):
    """x -> (x fn) m, the action of a holomorph pair in compressed form, on
    pair codes with components up to length K: (act, tables), the tables
    covering the heap value of three images."""
    efun = fn.codes(K)
    top, mu, mv = efun[2], -1, -1
    if m is not None:
        (mu, mv), _ = _encode(m, fn.n)
        top += max(map(len, m))
    tables = _rank_tables(fn.n, 3 * top)
    return (lambda u, v: _pair_mul(_efun_pairs(efun, (u, v)), (mu, mv), tables)), tables


def _heap_window(n, L):
    """The heap instances of poly_window(n, L), computed once per window:
    (n, L, pairs, points, index), the window's pair codes, the distinct
    values a b^-1 c of its instances as pair codes, and the position among
    them of each instance's value, as an array indexed [a, b, c]."""
    u, v = _window_pairs(n, L)
    size, tables, radix = len(u), _rank_tables(n, 3 * L), _code_radix(n, L)
    keys = np.empty((size, size, size), np.int64)
    for rows in row_blocks(size, size * size, CODE_BLOCK_ENTRIES):
        abu, abv = _pair_mul((u[rows, None], v[rows, None]), (v, u), tables)
        hu, hv = _pair_mul((abu[..., None], abv[..., None]), (u, v), tables)
        keys[rows] = np.where(hu < 0, -1, hu * radix + hv)
    points, _, index = distinct_values(keys.ravel())
    return n, L, (u, v), _key_pairs(points, radix), index.reshape(keys.shape)


def _heap_failures(fn, m, window):
    """The first nonzero-valued and the first zero-valued heap instance of a
    _heap_window that the action of the holomorph pair (fn, m) breaks, as
    witnesses, or None where it preserves every one: (w_nz, w_z).  The
    action is taken once per window element and per heap value, and the
    instances are swept on pair codes, one block at a time."""
    n, L, (u, v), (pu, pv), index = window
    act, tables = _hol_act(fn, m, 3 * L)
    (fu, fv), (iu, iv) = act(u, v), act(pu, pv)
    at = np.arange(len(u))

    def sides(a, b, c):
        """The image of <a, b, c> and the heap value of the images."""
        abu, abv = _pair_mul((fu[a], fv[a]), (fv[b], fu[b]), tables)
        d = index[a, b, c]
        return (iu[d], iv[d]), _pair_mul((abu, abv), (fu[c], fv[c]), tables)

    broken = np.empty(index.shape, bool)
    for rows in row_blocks(len(u), len(u) ** 2, CODE_BLOCK_ENTRIES):
        (lu, lv), (ru, rv) = sides(at[rows, None, None], at[:, None], at)
        broken[rows] = (lu != ru) | (lv != rv)

    def witness(mask):
        if not mask.any():
            return None
        a, b, c = (int(i) for i in np.unravel_index(mask.argmax(), mask.shape))
        value = _decode_pair(pu[index[a, b, c]], pv[index[a, b, c]], n) or 0
        lhs, rhs = (_decode_pair(*x, n) for x in sides(a, b, c))
        a, b, c = (_decode_pair(u[i], v[i], n) for i in (a, b, c))
        return f"<{a},{b},{c}> = {value}: {lhs} vs {rhs}"

    zero = pu[index] < 0
    return witness(broken & ~zero), witness(broken & zero)


def heap_type_check_polycyclic(n=2, L=1, param_len=2, cap=DEFAULT_SIZE_CAP):
    """Heap behaviour of the three holomorph element families on a window.

    For each representative pair the action map is built generically and
    every heap instance over the element window is compared both ways.  The
    heap values are computed once for the window (``_heap_window``) and each
    action is swept on pair codes (``_heap_failures``).  The
    constant-pair family is tested against the stated boundary
    "zero-valued instances survive exactly when w = s = t"; the observed
    boundary is reported alongside.  Raises SizeCap before any sweep past
    cap heap instances.

    Under this encoding the stated boundary is false, so its line fails and
    the report exits with a failure: with w = p s, zero goes to
    (w,w)(s,t) = (w, p t) while a zero-valued instance on nonzero arguments
    goes to (s,t), and these agree exactly when w = s, whatever t is.  The
    line's witness is a pair with w = s != t that preserves zero instances,
    and the note confirms the observed boundary w = s.
    """
    size = _first_rank(n, L + 1) ** 2 + 1
    if cap is not None and size**3 > cap:
        raise SizeCap(size**3, cap)
    rep = CheckReport(
        f"holomorph element heap behaviour, n={n}, element window L={L}, "
        f"parameters up to length {param_len}"
    )
    window = _heap_window(n, L)
    rep.add("window", True, detail=f"{size} elements, {size ** 3} heap instances")

    w_nz, w_z = _heap_failures(ConstZero(n), None, window)
    rep.add("zero_pair_preserves_heap", w_nz is None and w_z is None, w_nz or w_z)

    ws = words_upto(n, param_len)
    # each constant pair (c_(w,s), (s,t)) to its two witnesses
    creps = {}
    for w, s, t in ((w, s, t) for w in ws for s in ws if w.endswith(s) for t in ws):
        assert _valid_hol_pair(ConstPair(n, w, s), (s, t))
        creps[w, s, t] = _heap_failures(ConstPair(n, w, s), (s, t), window)
    rep.first_failure("constant_pairs_preserve_nonzero_instances", (
        f"(c_({w!r},{s!r}), ({s!r},{t!r})): {wit_nz}"
        for (w, s, t), (wit_nz, _) in creps.items()
        if wit_nz is not None
    ))
    rep.first_failure("constant_pair_zero_iff_w_eq_s_eq_t", (
        f"(c_({w!r},{s!r}), ({s!r},{t!r})): zero instances "
        f"{'preserved' if wit_z is None else 'broken'} but w=s=t is {w == s == t}"
        for (w, s, t), (_, wit_z) in creps.items()
        if (wit_z is None) != (w == s == t)
    ))
    boundary = all((wit_z is None) == (w == s) for (w, s, t), (_, wit_z) in creps.items())
    rep.note(
        "observed boundary on this window: zero-valued instances are preserved "
        f"exactly when w = s ({'confirmed' if boundary else 'not confirmed'}); "
        "such pairs act as constant maps"
    )

    elems = _window_pairs(n, L)
    rep.first_failure("diagonal_constant_acts_as_translation", (
        f"w={wd!r}"
        for wd in ws
        if any((a != b).any() for a, b in zip(
            _hol_act(ConstPair(n, wd, wd), (wd, wd), L)[0](*elems),
            _hol_act(ConstPair(n, "", ""), (wd, wd), L)[0](*elems)))
    ))

    pad = tuple(letters(n))[2:]  # letters past 'b' map to themselves
    sig_reps = [
        tuple(letters(n)),
        ("aa", "ba") + pad if n >= 2 else ("aa",),
        ("ab", "b") + pad if n >= 2 else ("a",),
        ("b", "a") + pad if n >= 2 else ("",),
    ]
    endo_len = max(L + 1, 2)

    def affine_failures():
        for images, u, v in product(sig_reps, ["", "a"], ["", "b"[: n - 1] or "a"]):
            fn = AffineWordMap(n, images, u)
            m = (fn.word_image(""), v)
            if not _valid_hol_pair(fn, m):
                continue
            preserved = _heap_failures(fn, m, window) == (None, None)
            # the verdict comes from inj_code; the benchmark's answers pin
            # how many of these sweeps run (endo_maps_checked)
            endo_classification_check(n, images, u, endo_len)
            codes = fn.codes(endo_len)[1]
            inj_code = is_suffix_code(images) and len(distinct_values(codes)[0]) == len(codes)
            if preserved != inj_code:
                yield (
                    f"affine letters->{images}, translation {u!r}, m=({u!r},{v!r}): "
                    f"heap {'preserved' if preserved else 'broken'} but "
                    f"endomorphism condition is {inj_code}"
                )

    rep.first_failure("affine_pairs_heap_iff_endomorphism", affine_failures())
    return rep


# ---------------------------------------------------------------------------
# suffix-preserving maps and the twisted product


def _outside_window(u, L):
    return WindowExceeded(f"word {u!r} is outside window {L}")


class SuffixMap:
    """A suffix-preserving self-map of the free monoid, stored on a window.

    The defining property: the image of p + u always ends with the image of
    u.  The prefix-transfer of u sends p to the left-over prefix of the image
    of p + u after the image of u is removed.

    The images of the words of the window, indexed by the words' length-lex
    ranks, are two int64 arrays: ``codes``, each image's length-lex rank
    over the n letters (the rank _word_ranks gives it), and ``lens``, each
    image's length.  Only maps built from raw data are validated: the
    constructor, ``random`` and ``from_affine``.  The results of
    ``identity``, ``right_translation``, ``constant``, ``transfer`` and
    ``compose`` are suffix-preserving by construction.  An image with a
    letter outside the n letters raises AlphabetMismatch, and one whose code
    would leave int64 raises WindowExceeded.
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
        self.n, self.L = n, L
        self.codes, self.lens = _encode(images, n)

    @classmethod
    def _trusted(cls, n, L, codes, lens):
        """A map from its image codes in rank order, not validated."""
        sm = cls.__new__(cls)
        sm.n, sm.L, sm.codes, sm.lens = n, L, codes, lens
        return sm

    def _rank(self, u):
        r = _word_ranks(self.n, self.L).get(u)
        if r is None:
            if len(u) > self.L:
                raise _outside_window(u, self.L)
            _check_letters(self.n, [u])  # short enough, so a letter is foreign
        return r

    def _image(self, r):
        return _decode(self.codes[r], self.n, self.lens[r])

    def apply(self, u):
        return self._image(self._rank(u))

    def transfer(self, u):
        """The prefix-transfer map of u, on the shrunken window: the images
        of the words p + u, each with the image of u cut off its end."""
        r = self._rank(u)
        n, k = self.n, len(u)
        idx = _suffixed(n, self.L - k, r, k)
        codes, lens, cut = self.codes[idx], self.lens[idx], int(self.lens[r])
        if cut:
            codes = _cut(codes, lens, cut, _rank_tables(n, int(lens.max())))
            lens = lens - cut
        return SuffixMap._trusted(n, self.L - k, codes, lens)

    def compose(self, other):
        """Apply self, then other; the result lives on the largest window on
        which every intermediate image fits inside the other map's window.
        Both maps must be on the same alphabet."""
        _check_same_n(self, other)
        # one less than the length of the first word whose image leaves the
        # other map's window
        over = self.lens > other.L
        i = int(over.argmax())
        L_out = int(_lengths(i, _rank_tables(self.n, self.L))) - 1 if over[i] else self.L
        if L_out < 0:
            raise WindowExceeded("composition has an empty window")
        mids = self.codes[:_first_rank(self.n, L_out + 1)]
        return SuffixMap._trusted(self.n, L_out, other.codes[mids], other.lens[mids])

    def agrees_with(self, other, L=None):
        _check_same_n(self, other)
        low = min(self.L, other.L)
        if L is None:
            L = low
        if L > low:
            raise _outside_window(letters(self.n)[0] * (low + 1), low)
        k = _first_rank(self.n, max(L, 0) + 1)  # the empty word even below 0
        return np.array_equal(self.codes[:k], other.codes[:k])

    @staticmethod
    def identity(n, L):
        lens = np.repeat(np.arange(L + 1, dtype=np.int64), [n**k for k in range(L + 1)])
        return SuffixMap._trusted(n, L, np.arange(len(lens), dtype=np.int64), lens)

    @staticmethod
    def right_translation(n, L, w):
        """u -> u + w."""
        ident = SuffixMap.identity(n, L)
        (code,), (k,) = _encode([w], n)
        codes = _concat(ident.codes, ident.lens, code, k, _rank_tables(n, L + len(w)))
        return SuffixMap._trusted(n, L, codes, ident.lens + k)

    @staticmethod
    def constant(n, L, t):
        (code,), (length,) = _encode([t], n)
        size = _first_rank(n, L + 1)
        return SuffixMap._trusted(
            n, L, np.full(size, code, np.int64), np.full(size, length, np.int64)
        )

    @staticmethod
    def from_affine(n, L, images, w):
        fn = AffineWordMap(n, tuple(images), w)
        return SuffixMap(n, L, {u: fn.word_image(u) for u in words_upto(n, L)})

    @staticmethod
    def random(n, L, rng):
        """Build a random suffix-preserving map down the word tree: the image
        of the empty word has up to 2 letters, and the image of x + u is up
        to one letter glued onto the image of u."""
        table = {"": "".join(rng.choice(letters(n)) for _ in range(rng.randint(0, 2)))}
        for u in words_upto(n, L)[1:]:
            snippet = "".join(rng.choice(letters(n)) for _ in range(rng.randint(0, 1)))
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

    def twisted_failures():
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

    rep.first_failure("twisted_product_associative", twisted_failures())

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
