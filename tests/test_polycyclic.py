import random
from itertools import product

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invhol import polycyclic as P
from invhol.core import first_nonassociative, first_nonassociative_table
from invhol.errors import (
    AlphabetMismatch,
    NotSuffixPreserving,
    ParseError,
    WindowExceeded,
)

import oracles

words2 = st.text(alphabet="ab", max_size=5)


def test_poly_mul_examples():
    assert P.poly_mul(P.poly(2, "", "ab"), P.poly(2, "b", "a")).pair == ("", "aa")
    assert P.poly_mul(P.poly(2, "", "a"), P.poly(2, "b", "")).is_zero()
    # (u,v)(v,q) = (u,q)
    assert P.poly_mul(P.poly(2, "ab", "ba"), P.poly(2, "ba", "b")).pair == ("ab", "b")
    one = P.poly_one(2)
    x = P.poly(2, "ab", "a")
    assert P.poly_mul(one, x) == x and P.poly_mul(x, one) == x
    assert P.poly_mul(P.poly_zero(2), x).is_zero()


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        P.poly_mul(P.poly(1, "a", ""), P.poly(2, "b", ""))
    with pytest.raises(AlphabetMismatch):
        P.poly(1, "ab", "")


@given(words2, words2, words2, words2)
@settings(max_examples=300, deadline=None)
def test_poly_mul_matches_rewriting(u, v, p, q):
    assert P._mul((u, v), (p, q)) == P.rewrite_mul((u, v), (p, q))


@pytest.mark.parametrize("n, L", [(2, 3), (1, 6), (3, 2)])
def test_rewrite_mul_matches_rescanning_reference(n, L):
    """The one-pass stack reduction gives the rescanning reference's product
    on every pair of the window, zero included."""
    elems = P.poly_window(n, L)
    for x in elems:
        for y in elems:
            assert P.rewrite_mul(x, y) == oracles.rescan_rewrite_mul(x, y), (x, y)


@pytest.mark.parametrize("n, L", [(2, 3), (3, 2), (1, 6), (2, 1)])
def test_rewriting_is_decided_by_the_middle_word(n, L):
    """rewrite_mul of u^-1 v and p^-1 q is the rewriting of the middle
    v p^-1 with u put before and q after, zero included: the identity on
    which verify_poly_window builds its rewriting keys."""
    elems = P.poly_window(n, L)
    for x in elems:
        for y in elems:
            assert oracles.rewrite_by_middle(x, y) == P.rewrite_mul(x, y), (x, y)


def test_bicyclic_rewriting_is_decided_by_the_middle_word():
    """The same identity on the one-letter pairs of window 6, whose 49
    middles a^j a^-k verify_bicyclic rewrites."""
    pairs = [P.bicyclic_to_poly((i, j)) for i in range(7) for j in range(7)]
    for x in pairs:
        for y in pairs:
            assert oracles.rewrite_by_middle(x, y) == P.rewrite_mul(x, y), (x, y)


@given(words2, words2, words2, words2, words2, words2)
@settings(max_examples=300, deadline=None)
def test_poly_mul_associative(u1, v1, u2, v2, u3, v3):
    x, y, z = (u1, v1), (u2, v2), (u3, v3)
    assert P._mul(P._mul(x, y), z) == P._mul(x, P._mul(y, z))


@given(words2, words2)
@settings(max_examples=100, deadline=None)
def test_inverse_laws(u, v):
    x = (u, v)
    assert P._mul(P._mul(x, P._inv(x)), x) == x
    assert P._inv(P._inv(x)) == x


def test_window_report_small():
    rep = P.verify_poly_window(2, 2)
    assert rep.ok, rep.render()


CODE_WINDOWS = [(1, 6), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def _code_pairs(n, L, codes):
    """The raw pairs that keys of _window_codes(n, L) stand for."""
    words = P.words_upto(n, 3 * L)
    radix = len(words)
    return [None if c < 0 else (words[c // radix], words[c % radix]) for c in codes.tolist()]


def _pair_code(n, L):
    """The key of a raw pair with components of length <= 3L, as
    _window_codes(n, L) numbers it."""
    ranks, radix = P._word_ranks(n, 3 * L), P._code_radix(n, L)
    return lambda x: -1 if x is None else ranks[x[0]] * radix + ranks[x[1]]


@pytest.mark.parametrize("n, L", CODE_WINDOWS)
def test_window_codes_match_mul(n, L):
    """The key tables hold _mul's value on every pair that interning
    products through _mul would evaluate: two window elements, and each
    distinct such product times a window element, on either side.  This is
    where the scalar _mul, PolyElement's product, is checked against the
    word-code layer."""
    elems = P.poly_window(n, L)
    code = _pair_code(n, L)
    ids, codes, left, right = P._window_codes(n, L)
    mids = _code_pairs(n, L, codes)
    assert list(map(code, mids)) == codes.tolist()
    assert (codes[1:] > codes[:-1]).all()
    products = [[P._mul(x, y) for y in elems] for x in elems]
    assert codes[ids].tolist() == [list(map(code, row)) for row in products]
    # every window element is x * 1, so the distinct products are exactly
    # the ids that interning gives out before its outer tables
    assert set(mids) == set(elems).union(*products)
    assert left.tolist() == [[code(P._mul(m, y)) for y in elems] for m in mids]
    assert right.tolist() == [[code(P._mul(x, m)) for m in mids] for x in elems]


@pytest.mark.parametrize("n, L", CODE_WINDOWS)
def test_window_report_matches_interning_report(n, L):
    want = oracles.poly_window_report_by_interning(n, L).lines()
    assert P.verify_poly_window(n, L).lines() == want


def test_bent_window_code_gives_the_interning_witness():
    """One entry of the product-times-element table bent, on a product that
    lies outside the window: the sweep finds the witness that interning
    finds when _mul is bent at the same pair."""
    n, L = 2, 2
    elems = P.poly_window(n, L)
    window = set(elems)
    code = _pair_code(n, L)
    ids, codes, left, right = P._window_codes(n, L)
    assert first_nonassociative_table(ids, left, right) is None
    mids = _code_pairs(n, L, codes)
    outside = [d for d, m in enumerate(mids) if m not in window]
    pick = random.Random(18)
    for _ in range(12):
        d, k = pick.choice(outside), pick.randrange(len(elems))
        wrong = pick.choice([m for m in mids if code(m) != left[d, k]])
        bent_left = left.copy()
        bent_left[d, k] = code(wrong)

        def bent(x, y, at=(mids[d], elems[k]), wrong=wrong):
            return wrong if (x, y) == at else P._mul(x, y)

        got = first_nonassociative_table(ids, bent_left, right)
        assert got is not None
        assert got == first_nonassociative(elems, bent)


def test_window_codes_are_checked_against_mul(monkeypatch):
    """verify_poly_window compares the codes of two window elements' products
    with the rewriting of their middle words: a rewriting bent at one middle
    fails the matches_rewriting line at the first product that carries it,
    the table's product being _mul's and the rewriting's the bent middle's."""
    rewrite = P.rewrite_mul
    middle = (("", "a"), ("a", ""))

    def bent(p, q):
        return ("", "b") if (p, q) == middle else rewrite(p, q)

    monkeypatch.setattr(P, "rewrite_mul", bent)
    elems = P.poly_window(2, 1)
    x, y = next((x, y) for x in elems[1:] for y in elems[1:] if (x[1], y[0]) == ("a", "a"))
    check = P.verify_poly_window(2, 1).checks[1]
    assert check.name == "matches_rewriting" and not check.ok
    want = (x[0], "b" + y[1])
    assert check.witness == f"{x} * {y}: table {P._mul(x, y)} vs rewriting {want}"


def test_rewriting_witness_is_put_together_from_the_middle(monkeypatch):
    """With rewrite_mul bent at the middle ("", "a") ("a", "") and the table
    bent to agree on that product itself, the first product whose table and
    rewriting differ is the next that carries the middle, and its witness
    is the rewriting put together from the bent middle, not a rewriting of
    the whole product."""
    rewrite, window_codes = P.rewrite_mul, P._window_codes
    middle, wrong = (("", "a"), ("a", "")), ("", "b")
    at = P.poly_window(2, 1).index

    def bent(p, q):
        return wrong if (p, q) == middle else rewrite(p, q)

    def bent_codes(n, L, cap=None):
        ids, codes, left, right = window_codes(n, L, cap)
        ids = ids.copy()
        ids[at(middle[0]), at(middle[1])] = ids[at(("", "")), at(wrong)]
        return ids, codes, left, right

    monkeypatch.setattr(P, "rewrite_mul", bent)
    monkeypatch.setattr(P, "_window_codes", bent_codes)
    check = P.verify_poly_window(2, 1).checks[1]
    x, y = ("", "a"), ("a", "a")
    assert check.name == "matches_rewriting" and not check.ok
    assert check.witness == f"{x} * {y}: table {P._mul(x, y)} vs rewriting ('', 'ba')"


def test_window_code_radix_guard(monkeypatch):
    """The keys of window L over n letters reach radix**2 - 1 with radix the
    number of words of length <= 3L; past int64 the code builder refuses
    before it builds any window."""
    assert P._code_radix(2, 10) == 2**31 - 1
    with pytest.raises(WindowExceeded):
        P._code_radix(2, 11)

    def never(*args):
        raise AssertionError("built a window")

    monkeypatch.setattr(P, "poly_window", never)
    monkeypatch.setattr(P, "_window_pairs", never)
    monkeypatch.setattr(P, "words_upto", never)
    with pytest.raises(WindowExceeded):
        P._window_codes(26, 5)


def test_suffix_order_examples():
    assert P.word_leq("a", "a")
    assert P.word_leq("ba", "a")
    assert not P.word_leq("a", "ba")
    assert P.word_leq(None, "a") and not P.word_leq("a", None)
    assert P.pair_leq(("ba", "bb"), ("a", "b"))
    assert not P.pair_leq(("ba", "ab"), ("a", "b"))
    assert P.poly_leq(P.poly(2, "ba", "bb"), P.poly(2, "a", "b"))


def test_restriction_formula_on_pairs():
    # multiplying by the lower idempotent restricts: (pu,pu)(u,v) = (pu,pv)
    for p in ["", "a", "b", "ab"]:
        for u in ["", "a", "ba"]:
            for v in ["", "b", "ab"]:
                got = P._mul((p + u, p + u), (u, v))
                assert got == (p + u, p + v)


def test_idempotents_and_meets():
    for u in ["", "a", "ab"]:
        assert P._mul((u, u), (u, u)) == (u, u)
    # the meet on word codes, as the string meet of the reference
    words = P.words_upto(2, 3)
    tables = P._rank_tables(2, 3)
    codes = np.arange(len(words))
    lens = P._lengths(codes, tables)
    meets = P._meet(codes[:, None], lens[:, None], codes, lens, tables)
    assert [[P._decode(c, 2) for c in row] for row in meets.tolist()] == [
        [oracles.word_meet(x, y) for y in words] for x in words]
    assert oracles.word_meet("ba", "a") == "ba"
    assert oracles.word_meet("a", "b") is None
    assert oracles.word_meet(None, "a") is None


def test_bicyclic_examples():
    assert P.bicyclic_mul((0, 0), (3, 5)) == (3, 5)
    assert P.bicyclic_mul((1, 2), (1, 3)) == (1, 4)
    assert P.bicyclic_mul((0, 1), (2, 0)) == (1, 0)
    nu = P.bicyclic_endo(1, 0)
    assert all(nu.apply_pair((i, j)) == (i, j) for i in range(4) for j in range(4))
    assert P.bicyclic_endo(2, 1).apply_pair((1, 2)) == (3, 5)
    assert P.bicyclic_endo(0, 1).apply_pair((2, 3)) == (1, 1)


def test_bicyclic_reports():
    rep = P.verify_bicyclic(6, 4)
    assert rep.ok, rep.render()
    rep = P.bicyclic_hol_check(4, 6)
    assert rep.ok, rep.render()


def test_bicyclic_mul_on_arrays_is_the_scalar_formula():
    """On component arrays the product is max(j, k)'s formula at every pair
    of pairs, element by element, and on ints it stays in ints."""
    args = list(product(product(range(5), repeat=2), repeat=2))
    x, y = (tuple(np.array([a[side] for a in args]).T) for side in (0, 1))
    got = P.bicyclic_mul(x, y)
    for t, ((i, j), (k, l)) in enumerate(args):
        m = max(j, k)
        want = (i + m - j, l + m - k)
        assert (got[0][t], got[1][t]) == want
        scalar = P.bicyclic_mul((i, j), (k, l))
        assert scalar == want and all(type(c) is int for c in scalar)


def _bend_bicyclic(monkeypatch, kind, where):
    """Bend one value of the bicyclic formulas, alike on ints and on arrays:
    bicyclic_mul at one argument pair, or AffineNat.apply_pair for one
    (k, p) at one point, by adding 1 to the first component; or
    AffineNat.compose for one (k, p), by adding 1 to the translation."""
    if kind == "mul":
        (x0, y0), mul = where, P.bicyclic_mul

        def bent(x, y):
            i, j = mul(x, y)
            return i + ((x[0] == x0[0]) & (x[1] == x0[1]) & (y[0] == y0[0]) & (y[1] == y0[1])), j

        monkeypatch.setattr(P, "bicyclic_mul", bent)
        monkeypatch.setattr(oracles, "bicyclic_mul", bent)
    elif kind == "apply_pair":
        (kp, (i0, j0)), apply_pair = where, P.AffineNat.apply_pair

        def bent(self, x):
            i, j = apply_pair(self, x)
            return i + (((self.k, self.p) == kp) & (x[0] == i0) & (x[1] == j0)), j

        monkeypatch.setattr(P.AffineNat, "apply_pair", bent)
    else:
        compose = P.AffineNat.compose

        def bent(self, other):
            c = compose(self, other)
            return P.AffineNat(c.k, c.p + ((self.k, self.p) == where))

        monkeypatch.setattr(P.AffineNat, "compose", bent)


def _bicyclic_reports(window=6, param=4):
    return [P.verify_bicyclic(window, param).to_dict(),
            P.bicyclic_hol_check(param, window).to_dict()]


BICYCLIC_BENDS = [
    ("mul", ((0, 0), (2, 3))), ("mul", ((2, 2), (1, 2))), ("mul", ((4, 4), (4, 4))),
    ("apply_pair", ((2, 1), (0, 0))), ("apply_pair", ((1, 2), (2, 5))),
    ("compose", (1, 0)), ("compose", (2, 3)),
]


@pytest.mark.parametrize("window, param", [(6, 4), (2, 1), (3, 5), (0, 0)])
def test_bicyclic_checks_match_scalar_loops(window, param):
    assert _bicyclic_reports(window, param) == [
        oracles.bicyclic_report_by_loops(window, param).to_dict(),
        oracles.bicyclic_hol_report_by_loops(param, window).to_dict(),
    ]


@pytest.mark.parametrize("kind, where", BICYCLIC_BENDS)
def test_bent_bicyclic_checks_match_scalar_loops(monkeypatch, kind, where):
    """A bent formula fails lines of both checks; the witnesses are those of
    the scalar loops, which meet the same bend."""
    _bend_bicyclic(monkeypatch, kind, where)
    got = _bicyclic_reports()
    assert got == [oracles.bicyclic_report_by_loops().to_dict(),
                   oracles.bicyclic_hol_report_by_loops().to_dict()]
    assert not all(rep["ok"] for rep in got)


@pytest.mark.parametrize("wrong", [None, ("", "b"), ("a", "a")])
def test_bent_bicyclic_rewriting_matches_scalar_loops(monkeypatch, wrong):
    """rewrite_mul bent at the middle a^2 a^-1, which is also the product
    (0,2)(1,0), the first that carries it: the pair formula line fails
    there with the witness of the scalar loops, which rewrite every pair."""
    rewrite, at = P.rewrite_mul, (("", "aa"), ("a", ""))

    def bent(x, y):
        return wrong if (x, y) == at else rewrite(x, y)

    monkeypatch.setattr(P, "rewrite_mul", bent)
    monkeypatch.setattr(oracles, "rewrite_mul", bent)
    got = P.verify_bicyclic().to_dict()
    assert got == oracles.bicyclic_report_by_loops().to_dict()
    assert got["checks"][0]["name"] == "pair_formula_matches_rewriting"
    assert not got["checks"][0]["ok"]


def test_every_bicyclic_line_fails_under_some_bend(monkeypatch):
    lines = {c["name"] for rep in _bicyclic_reports() for c in rep["checks"]}
    failed = set()
    for kind, where in BICYCLIC_BENDS:
        with monkeypatch.context() as m:
            _bend_bicyclic(m, kind, where)
            failed |= {c["name"] for rep in _bicyclic_reports()
                       for c in rep["checks"] if not c["ok"]}
    assert len(lines) == 9 and failed == lines


def test_affine_nat_composition():
    f = P.bicyclic_endo(2, 1)
    g = P.bicyclic_endo(3, 2)
    assert f.compose(g) == P.AffineNat(6, 5)
    for x in range(10):
        assert oracles.apply_nat(f.compose(g), x) == oracles.apply_nat(g, oracles.apply_nat(f, x))


def test_classify_constant_zero():
    table = oracles.window_table(P.ConstZero(2), 2, 3)
    got = P.classify_ordered_functor(2, 3, None, table)
    assert got.kind == "constant_zero"


def test_classify_constant_pair():
    fn = P.ConstPair(2, "ba", "a")
    got = P.classify_ordered_functor(2, 3, "ba", oracles.window_table(fn, 2, 3))
    assert got.kind == "constant_pair" and (got.w, got.t) == ("ba", "a")


def test_classify_affine():
    fn = P.AffineWordMap(2, ("aa", "ba"), "b")
    got = P.classify_ordered_functor(2, 3, None, oracles.window_table(fn, 2, 3))
    assert got.kind == "affine"
    assert got.sigma == ("aa", "ba") and got.w == "b"


def test_classify_identity_is_affine():
    fn = P.AffineWordMap(2, ("a", "b"), "")
    got = P.classify_ordered_functor(2, 3, None, oracles.window_table(fn, 2, 3))
    assert got.kind == "affine" and got.sigma == ("a", "b") and got.w == ""


def test_classify_rejections():
    fn = P.AffineWordMap(2, ("aa", "ba"), "b")
    table = oracles.window_table(fn, 2, 3)
    table["ba"] = "a"
    got = P.classify_ordered_functor(2, 3, None, table)
    assert got.kind == "not_ordered_functor" and got.witness

    # zero going to a word forces constancy on words
    fn2 = P.ConstPair(2, "a", "a")
    table2 = oracles.window_table(fn2, 2, 3)
    table2["bb"] = "ba"
    got2 = P.classify_ordered_functor(2, 3, "a", table2)
    assert got2.kind == "not_ordered_functor"

    # mixed zero values among words
    table3 = {u: None for u in P.words_upto(2, 3)}
    table3[""] = "a"
    got3 = P.classify_ordered_functor(2, 3, None, table3)
    assert got3.kind == "not_ordered_functor"


def test_constant_pair_requires_suffix():
    with pytest.raises(ValueError):
        P.ConstPair(2, "a", "b")


def _random_word(rng, n, top=2):
    return "".join(rng.choice(P.letters(n)) for _ in range(rng.randint(0, top)))


def _functor_candidate(rng, n, L):
    """A seeded (zero image, table) on window L: a family member, a member
    with its value at one point (the zero or a word) redrawn, or a random
    table.  A redrawn value is the zero, a random word, or the old value
    with a letter put in front."""
    w = _random_word(rng, n)
    fn = rng.choice([
        P.ConstZero(n),
        P.ConstPair(n, w, w[rng.randint(0, len(w)):]),
        P.AffineWordMap(n, tuple(_random_word(rng, n) for _ in range(n)), _random_word(rng, n)),
    ])
    zero, table = fn.zero_image, oracles.window_table(fn, n, L)

    def redraw(old):
        return rng.choice([None, _random_word(rng, n, 3), rng.choice(P.letters(n)) + (old or "")])

    draw = rng.randrange(3)
    if draw == 1:
        point = rng.choice([None, *table])
        if point is None:
            zero = redraw(zero)
        else:
            table[point] = redraw(table[point])
    elif draw == 2:
        zero, table = redraw(None), {u: redraw(None) for u in table}
    return zero, table


def test_classification_matches_order_first_reference():
    """The one-member comparison gives the order-first reference's kind and
    parameters on 10,800 seeded candidates, and a witness on every
    rejection."""
    rng = random.Random(27)
    kinds = set()
    for n in [1, 2, 3]:
        for L in range(4):
            for _ in range(900):
                zero, table = _functor_candidate(rng, n, L)
                got = P.classify_ordered_functor(n, L, zero, table)
                want = oracles.classify_ordered_functor_order_first(n, L, zero, table)
                assert (got.kind, got.sigma, got.w, got.t) == (
                    want.kind, want.sigma, want.w, want.t), (n, L, zero, table)
                assert bool(got.witness) == (got.kind == "not_ordered_functor")
                kinds.add(got.kind)
    assert kinds == {"constant_zero", "constant_pair", "affine", "not_ordered_functor"}


def test_ideal_check():
    rep = P.premorphism_ideal_check(2, 3)
    assert rep.ok, rep.render()


def test_induced_premorphism_failures_match_pair_loop():
    """Every failure, in order, for the 30 maps of the ideal check and for a
    corrupted map that reverses words, so is not ordered."""

    class Reversing:
        n, zero_image = 2, None

        def word_image(self, u):
            return u[::-1]

        def codes(self, K):
            images = [u[::-1] for u in P.words_upto(2, K)]
            return -1, P._encode(images, 2)[0], K

    cs, affs = P.ideal_check_families(2, 2)
    fns = [P.ConstZero(2)] + [P.ConstPair(2, w, t) for w, t in cs] + affs + [Reversing()]
    assert len(fns) == 31
    for fn in fns:
        got = list(P._induced_failures(fn, 2, 2))
        assert got == list(oracles.induced_premorphism_failures_by_pairs(fn, 2, 2)), fn
        assert got == list(oracles.induced_premorphism_failures(fn, 2, 2)), fn
    assert len(got) > 1


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, staticmethod(counted) if isinstance(owner, type) else counted)
    return calls


def test_heap_check_work(monkeypatch):
    """The heap values are computed once per window, on pair codes; the
    only scalar products left are the validity tests of the 119 constant
    pairs and the 16 affine representatives (35,001 products when the heap
    values were taken on strings, 1,088,275 when each map recomputed them).
    The 16 affine representatives each still run endo_classification_check,
    which the benchmark pins."""
    muls = _counting(monkeypatch, P, "_mul")
    endos = _counting(monkeypatch, P, "endo_classification_check")
    P.heap_type_check_polycyclic(2, 1, 2)
    assert len(muls) == 119 + 16
    assert len(endos) == 16


def test_poly_window_work(monkeypatch):
    """Every line reads the pair codes of the window's products, and
    matches_rewriting rewrites only their middle words, so
    verify_poly_window(2, 3) rewrites each of the 15 * 15 middles once and
    takes no scalar product.  Rewriting each of the 51,076 products made
    51,076 rewrites; interning every product through _mul made 1,825,854
    products."""
    muls = _counting(monkeypatch, P, "_mul")
    rewrites = _counting(monkeypatch, P, "rewrite_mul")
    assert P.verify_poly_window(2, 3).ok
    assert len(rewrites) == 225 and not muls


def test_bicyclic_work(monkeypatch):
    """verify_bicyclic(6, 4) rewrites each of its 49 middles a^j a^-k once,
    where rewriting every pair of the window made 2,401 rewrites."""
    rewrites = _counting(monkeypatch, P, "rewrite_mul")
    assert P.verify_bicyclic(6, 4).ok
    assert len(rewrites) == 49


def test_zappa_translation_work(monkeypatch):
    """collapse_failures builds each right translation once per word."""
    built = _counting(monkeypatch, P.SuffixMap, "right_translation")
    assert P.verify_zappa(2, 3, samples=6, seed=3).ok
    assert len(built) <= 100


def test_suffix_codes():
    assert P.is_suffix_code(["a", "b"])
    assert not P.is_suffix_code(["ab", "b"])
    assert P.is_suffix_code(["aa", "ba"])
    assert not P.is_suffix_code(["a", "ba"])
    assert P.is_suffix_code(["ab"])
    # the empty word is a suffix of everything
    assert not P.is_suffix_code(["", "a"])


def test_endo_classification_examples():
    r = P.endo_classification_check(2, ("a", "b"), "", 3)
    assert r.ok
    r = P.endo_classification_check(2, ("ab", "b"), "", 3)
    assert r.ok  # the equivalence holds: not a code and meets break
    r = P.endo_classification_check(2, ("aa", "ba"), "", 3)
    assert r.ok


def test_endo_classification_sweep_small():
    for images in [("a", "a"), ("", "b"), ("ba", "a"), ("b", "a"), ("bb", "ab")]:
        for w in ["", "a"]:
            rep = P.endo_classification_check(2, images, w, 3)
            assert rep.ok, rep.render()


def test_heap_type_check_lines():
    rep = P.heap_type_check_polycyclic(2, 1, 2)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["zero_pair_preserves_heap"].ok
    assert by_name["constant_pairs_preserve_nonzero_instances"].ok
    assert by_name["diagonal_constant_acts_as_translation"].ok
    assert by_name["affine_pairs_heap_iff_endomorphism"].ok
    # the stated boundary w=s=t does not survive brute force: pairs with
    # w = s but t different act as constant maps and preserve everything
    boundary = by_name["constant_pair_zero_iff_w_eq_s_eq_t"]
    assert not boundary.ok
    w, s, t, verdict = oracles.constant_pair_witness(boundary.witness)
    assert w == s != t and verdict == "preserved"
    assert any("exactly when w = s (confirmed)" in note for note in rep.notes)


def _bend_every(monkeypatch, cls, at, image):
    """Bend every map of the class at one word, or at the zero when `at` is
    None, on strings and on codes alike."""
    word_image, codes = cls.word_image, cls.codes
    if at is None:
        monkeypatch.setattr(cls, "zero_image", property(lambda self: image))
    monkeypatch.setattr(cls, "word_image", lambda self, u: image if u == at else word_image(self, u))
    monkeypatch.setattr(
        cls, "codes", lambda self, K: oracles.bent_codes(codes(self, K), self.n, K, at, image))


@pytest.mark.parametrize("n, L", [(1, 3), (2, 3), (3, 2)])
def test_endo_check_matches_string_reference(n, L):
    """Every letter map with images up to length 2, untranslated and
    translated: the same report as the meets taken on strings."""
    for images in product(P.words_upto(n, 2), repeat=n):
        for w in ["", "a"]:
            want = oracles.endo_classification_report(n, images, w, L).to_dict()
            assert P.endo_classification_check(n, images, w, L).to_dict() == want, (images, w)


@pytest.mark.parametrize("at, image", [("ab", "b"), ("b", "aab"), ("", "a")])
def test_bent_endo_check_matches_string_reference(monkeypatch, at, image):
    """A bent image breaks meets or injectivity; the witnesses and notes are
    the string reference's."""
    _bend_every(monkeypatch, P.AffineWordMap, at, image)
    failed = 0
    for images in product(P.words_upto(2, 2), repeat=2):
        got = P.endo_classification_check(2, images, "", 3).to_dict()
        assert got == oracles.endo_classification_report(2, images, "", 3).to_dict(), images
        failed += not got["ok"]
    assert failed
    sweep = P.endo_sweep(2, 3)
    assert not sweep.ok and sweep.checks[0].witness


def _with_string_sweeps(monkeypatch, check):
    """The report of check() with the functor and heap sweeps on strings and
    the functor check's compositions through composite objects."""
    with monkeypatch.context() as m:
        m.setattr(P, "_composes_to", oracles.composes_to_by_efuns)
        m.setattr(P, "_induced_failures", oracles.induced_premorphism_failures)
        m.setattr(P, "_heap_window", oracles.heap_window)
        m.setattr(P, "_heap_failures", oracles.heap_failures)
        return check().to_dict()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_functor_and_heap_checks_match_string_sweeps(monkeypatch, n):
    for check in [lambda: P.premorphism_ideal_check(n, 3),
                  lambda: P.heap_type_check_polycyclic(n, 1, 2)]:
        assert check().to_dict() == _with_string_sweeps(monkeypatch, check)


CHECKS = {
    "functors": lambda: P.premorphism_ideal_check(2, 2),
    "heap": lambda: P.heap_type_check_polycyclic(2, 1, 2),
}


# the composition lines of the functor check build constant pairs from the
# affine maps' images, so only the constant maps are bent there
@pytest.mark.parametrize("check, cls, at, image", [
    ("functors", P.ConstPair, "b", "ab"), ("functors", P.ConstZero, None, ""),
    ("heap", P.AffineWordMap, "a", "b"), ("heap", P.AffineWordMap, "b", None),
    ("heap", P.ConstPair, None, None), ("heap", P.ConstPair, "a", "b"),
])
def test_bent_functor_and_heap_checks_match_string_sweeps(monkeypatch, check, cls, at, image):
    """Bent maps break the premorphism inequality and heap instances; the
    witnesses are those of the string sweeps."""
    unbent = CHECKS[check]().to_dict()
    _bend_every(monkeypatch, cls, at, image)
    got = CHECKS[check]().to_dict()
    assert got == _with_string_sweeps(monkeypatch, CHECKS[check])
    assert got != unbent


def test_a_bent_constant_pair_fails_every_composition_line(monkeypatch):
    _bend_every(monkeypatch, P.ConstPair, "b", "ab")
    failed = {c.name for c in CHECKS["functors"]().failures()}
    assert {"constant_then_constant", "constant_then_affine", "affine_then_constant",
            "zero_map_composition"} <= failed


def test_bent_induced_failures_match_string_sweep():
    """Every failure, in order, of maps bent at a word or at the zero."""
    fns = [P.ConstZero(2), P.ConstPair(2, "ab", "b"), P.AffineWordMap(2, ("aa", "ba"), "a")]
    bends = [(None, ""), (None, None), ("b", "a"), ("ab", None), ("", "bb")]
    failed = 0
    for fn in fns:
        for at, image in bends:
            bent = oracles.BentFunction(fn, at, image)
            got = list(P._induced_failures(bent, 2, 2))
            assert got == list(oracles.induced_premorphism_failures(bent, 2, 2)), bent
            failed += bool(got)
    assert failed > 5


def _heap_check_pairs(n, param_len):
    """The (fn, m) pairs whose actions heap_type_check_polycyclic splits:
    the zero pair, every constant pair, and every valid affine representative."""
    yield P.ConstZero(n), None
    ws = P.words_upto(n, param_len)
    for w in ws:
        for s in ws:
            if w.endswith(s):
                for t in ws:
                    yield P.ConstPair(n, w, s), (s, t)
    pad = tuple(P.letters(n))[2:]
    for images in [tuple(P.letters(n)), ("aa", "ba") + pad, ("ab", "b") + pad,
                   ("b", "a") + pad]:
        for u in ["", "a"]:
            for v in ["", "b"]:
                fn = P.AffineWordMap(n, images, u)
                m = (fn.word_image(""), v)
                if P._valid_hol_pair(fn, m):
                    yield fn, m


def _corrupted_pairs(n):
    """The identity pair with its map bent: the zero sent to the identity
    element, the word 'a' sent to 'b', and the word '' sent to the zero."""
    ident = P.AffineWordMap(n, tuple(P.letters(n)), "")
    bends = [(None, ""), ("a", "b"), ("", None)]
    return [(oracles.BentFunction(ident, at, image), ("", "")) for at, image in bends]


def _heap_split(fn, m, n, L):
    """The split of _heap_failures on the window, as heap_split_by_triples
    gives it: (ok_nz, ok_z, w_nz, w_z)."""
    w_nz, w_z = P._heap_failures(fn, m, P._heap_window(n, L))
    return w_nz is None, w_z is None, w_nz, w_z


@pytest.mark.parametrize("n, L, param_len, count", [(2, 1, 2, 136), (3, 1, 1, 45)])
def test_heap_split_matches_triple_loop(n, L, param_len, count):
    """_heap_failures on pair codes gives exactly the per-triple loop's
    verdicts and witnesses for every map of the heap check (at three
    letters, every map with parameters up to length 1) and for bent maps,
    which make the zero-valued and the nonzero-valued branch fail."""
    elems = P.poly_window(n, L)
    pairs = list(_heap_check_pairs(n, param_len))
    assert len(pairs) == count
    splits = []
    for fn, m in pairs + _corrupted_pairs(n):
        got = _heap_split(fn, m, n, L)
        assert got == oracles.heap_split_by_triples(oracles.hol_pair_action(fn, m), elems)
        splits.append(got)
    zero_moved, a_moved, empty_lost = splits[-3:]
    assert zero_moved[:2] == (True, False)
    assert a_moved[:2] == (False, False) and not empty_lost[0]
    assert any(ok_nz and not ok_z for ok_nz, ok_z, _, _ in splits[:count])


def test_heap_split_matches_triple_loop_on_larger_window():
    """At element window 2 (125,000 instances, in nine blocks) for the zero
    pair, a constant pair with w = s != t, a non-injective affine pair and a
    bent map."""
    elems = P.poly_window(2, 2)
    pairs = [(P.ConstZero(2), None), (P.ConstPair(2, "a", "a"), ("a", "b")),
             (P.AffineWordMap(2, ("ab", "b"), ""), ("", "b"))] + _corrupted_pairs(2)[1:2]
    for fn, m in pairs:
        want = oracles.heap_split_by_triples(oracles.hol_pair_action(fn, m), elems)
        assert _heap_split(fn, m, 2, 2) == want


def _code_action(fn, m, K=2):
    """The action of _hol_act on raw pairs with components up to length K."""
    act, _ = P._hol_act(fn, m, K)

    def on(x):
        u, v = (-1, -1) if x is None else P._encode(x, fn.n)[0]
        return P._decode_pair(*(int(c) for c in act(np.int64(u), np.int64(v))), fn.n)

    return on


def test_heap_action_values():
    # nonzero elements all land on the transformation part's element
    fn = P.ConstPair(2, "ba", "a")
    act = _code_action(fn, ("a", "b"))
    assert act(("b", "ab")) == ("a", "b")
    assert act(("", "")) == ("a", "b")
    # the zero element lands on the restriction of that element below w
    assert act(None) == ("ba", "bb")


def _hol_pair_reps(n):
    ws = P.words_upto(n, 2)
    for w in ws:
        for s in ws:
            if w.endswith(s):
                for t in ws:
                    yield P.ConstPair(n, w, s), (s, t)
    for images in [("a", "b"), ("aa", "ba"), ("ab", "b"), ("", "b")]:
        for u in ["", "a"]:
            fn = P.AffineWordMap(n, images, u)
            for v in ["", "b", "ab"]:
                yield fn, (fn.word_image(""), v)
    yield P.ConstZero(n), None


def test_compressed_and_full_action_agree():
    # (x alpha) m coincides with (x alpha)((x^-1 x) tau) where e tau = (e alpha) m
    elems = P.poly_window(2, 2)
    for fn, m in _hol_pair_reps(2):
        if m is not None and not P._valid_hol_pair(fn, m):
            continue
        short = _code_action(fn, m)
        full = oracles.hol_pair_action_tau_form(fn, m)
        for x in elems:
            assert short(x) == full(x), (fn, m, x)


def test_transformation_part_invariants():
    # e tau has source idempotent e alpha, and tau is ordered on the window
    idems = [None] + [(u, u) for u in P.words_upto(2, 2)]
    for fn, m in _hol_pair_reps(2):
        if m is None or not P._valid_hol_pair(fn, m):
            continue
        tau = {e: oracles.hol_pair_tau(fn, m, e) for e in idems}
        for e in idems:
            lhs = P._mul(tau[e], P._inv(tau[e]))
            assert lhs == oracles.efun_element_image(fn, e), (fn, m, e)
        for e in idems:
            for f in idems:
                if P.pair_leq(e, f):
                    assert P.pair_leq(tau[e], tau[f]), (fn, m, e, f)


def test_suffix_map_basics():
    sm = P.SuffixMap.identity(2, 3)
    assert sm.apply("ab") == "ab"
    t = sm.transfer("b")
    assert t.apply("a") == "a"
    rho = P.SuffixMap.right_translation(2, 3, "a")
    assert rho.apply("b") == "ba"
    assert rho.transfer("b").agrees_with(P.SuffixMap.identity(2, 2))
    with pytest.raises(WindowExceeded):
        sm.apply("aaaa")


def test_suffix_map_validation():
    table = {u: u for u in P.words_upto(2, 2)}
    table["ab"] = "a"  # image no longer ends with the image of "b"
    with pytest.raises(NotSuffixPreserving):
        P.SuffixMap(2, 2, table)
    with pytest.raises(WindowExceeded):
        P.SuffixMap(2, 2, {"": ""})
    # broken at two words, listed last first: the first in length-lex order is named
    table = {u: u for u in reversed(P.words_upto(2, 3))}
    table["aab"] = "b"  # should end with the image "ab" of "ab"
    table["bb"] = "a"  # should end with the image "b" of "b"
    bb_first = "^image of 'bb' does not end with the image of 'b'$"
    with pytest.raises(NotSuffixPreserving, match=bb_first):
        P.SuffixMap(2, 3, table)
    missing_ab = "^map is missing the word 'ab' inside its window$"
    with pytest.raises(WindowExceeded, match=missing_ab):
        P.SuffixMap(2, 2, {u: u for u in P.words_upto(2, 2) if u != "ab"})


def test_only_raw_data_is_validated(monkeypatch):
    """The constructor checks a raw table; maps derived from valid maps
    are suffix-preserving by construction and skip it."""
    built = []
    validate = P.SuffixMap.__init__

    def counting(self, n, L, table):
        built.append(L)
        validate(self, n, L, table)

    monkeypatch.setattr(P.SuffixMap, "__init__", counting)
    phi = P.SuffixMap.random(2, 4, random.Random(3))
    psi = P.SuffixMap.from_affine(2, 4, ("ba", "b"), "a")
    assert built == [4, 4]
    ident = P.SuffixMap.identity(2, 4)
    P.SuffixMap.right_translation(2, 4, "a").compose(P.SuffixMap.constant(2, 4, "b"))
    phi.transfer("ab").compose(psi).agrees_with(ident, 0)
    assert built == [4, 4]


def test_suffix_map_window_errors():
    small, large = P.SuffixMap.identity(2, 3), P.SuffixMap.identity(2, 5)
    for a, b in [(small, large), (large, small)]:
        with pytest.raises(WindowExceeded, match="^word 'aaaa' is outside window 3$"):
            a.agrees_with(b, 4)
        assert a.agrees_with(b, 3)
    # the composite keeps the words whose images fit the other window
    assert small.compose(large).L == large.compose(small).L == 3
    assert small.compose(large).agrees_with(small)
    with pytest.raises(WindowExceeded, match="^composition has an empty window$"):
        P.SuffixMap.constant(2, 3, "aaaa").compose(small)


def test_suffix_map_alphabet_errors():
    sm = P.SuffixMap.identity(2, 3)
    for word in ["c", "abc", "ca"]:
        with pytest.raises(AlphabetMismatch, match="^letter 'c' outside alphabet of size 2$"):
            sm.apply(word)
        with pytest.raises(AlphabetMismatch, match="^letter 'c' outside alphabet of size 2$"):
            sm.transfer(word)
    with pytest.raises(WindowExceeded):
        sm.apply("cccc")  # the window is checked first
    with pytest.raises(AlphabetMismatch):
        sm.agrees_with(P.SuffixMap.identity(3, 3))
    with pytest.raises(AlphabetMismatch, match="^alphabet sizes differ: 2 vs 1$"):
        sm.compose(P.SuffixMap.identity(1, 3))


def _suffix_preserving(sm):
    return all(sm.apply(u).endswith(sm.apply(u[1:])) for u in P.words_upto(sm.n, sm.L)[1:])


def _outcome(call):
    """A call's result, a map as (window, images in length-lex order), or
    the error it raised."""
    try:
        got = call()
    except WindowExceeded as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, P.SuffixMap):
        assert _suffix_preserving(got)
        return got.L, tuple(map(got.apply, P.words_upto(got.n, got.L)))
    if isinstance(got, oracles.DictSuffixMap):
        return got.L, tuple(got.table[u] for u in oracles.words_by_length(got.n, got.L))
    return got


def _map_pairs(n):
    """The same maps on windows 0-5, as SuffixMap and as the dict oracle:
    two seeded random maps, the identity, two translations, a constant and
    an affine map on each window."""
    last = P.letters(n)[-1]
    for L in range(6):
        for seed in range(2):
            yield (
                P.SuffixMap.random(n, L, random.Random(100 * n + 10 * L + seed)),
                oracles.DictSuffixMap.random(n, L, random.Random(100 * n + 10 * L + seed)),
            )
        yield P.SuffixMap.identity(n, L), oracles.DictSuffixMap.identity(n, L)
        for w in ["a", last + "a"]:
            yield (
                P.SuffixMap.right_translation(n, L, w),
                oracles.DictSuffixMap.right_translation(n, L, w),
            )
        yield P.SuffixMap.constant(n, L, last), oracles.DictSuffixMap.constant(n, L, last)
        images = [ch + "a" for ch in P.letters(n)]
        yield (
            P.SuffixMap.from_affine(n, L, images, last),
            oracles.DictSuffixMap.from_affine(n, L, images, last),
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_suffix_map_matches_dict_oracle(n):
    pairs = list(_map_pairs(n))
    for new, old in pairs:
        outside = ["a" * (new.L + 1), P.letters(n)[-1] * (new.L + 2)]
        for u in [*P.words_upto(n, new.L), *outside]:
            for op in ["apply", "transfer"]:
                want = _outcome(lambda: getattr(old, op)(u))
                assert _outcome(lambda: getattr(new, op)(u)) == want, (new, op, u)
        for new2, old2 in pairs:
            for L in [None, *range(min(new.L, new2.L) + 1)]:
                assert new.agrees_with(new2, L) == old.agrees_with(old2, L), (new, new2, L)
            got = _outcome(lambda: new.compose(new2))
            assert got == _outcome(lambda: old.compose(old2)), (new, new2)


def test_foreign_letters_and_mixed_alphabets_are_rejected():
    """Words are coded over the monoid's own n letters only: an image with
    a later letter, or one outside the alphabet altogether, raises
    AlphabetMismatch wherever it enters, and maps on different alphabets
    do not compose."""
    entries = [
        lambda n, w: P.SuffixMap(n, 2, {u: u + w for u in P.words_upto(n, 2)}),
        lambda n, w: P.SuffixMap.constant(n, 2, w),
        lambda n, w: P.SuffixMap.right_translation(n, 2, w),
        lambda n, w: P.SuffixMap.from_affine(n, 2, [w] * n, ""),
        lambda n, w: P.SuffixMap.from_affine(n, 2, P.letters(n), w),
        lambda n, w: P.ConstPair(n, w, "").codes(2),
        lambda n, w: P.ConstPair(n, w, w).codes(2),
        lambda n, w: P.AffineWordMap(n, (w,) * n, "").codes(2),
        lambda n, w: P.AffineWordMap(n, tuple(P.letters(n)), w).codes(2),
        lambda n, w: P.poly(n, "", w),
    ]
    # a later letter, and a capital, which int() would misread as a digit
    # over 12 or 26 letters
    for n, w, bad in [(1, "ab", "b"), (2, "c", "c"), (2, "aA", "A"), (12, "aA", "A"),
                      (26, "aA", "A")]:
        for enter in entries:
            with pytest.raises(AlphabetMismatch,
                               match=f"^letter '{bad}' outside alphabet of size {n}$"):
                enter(n, w)
            enter(n, P.letters(n)[-1])  # the last letter of the alphabet passes
    one, two = P.SuffixMap.right_translation(1, 4, "a"), P.SuffixMap.identity(2, 6)
    for a, b in [(one, two), (two, one)]:
        with pytest.raises(AlphabetMismatch,
                           match=f"^alphabet sizes differ: {a.n} vs {b.n}$"):
            a.compose(b)
        with pytest.raises(AlphabetMismatch,
                           match=f"^alphabet sizes differ: {a.n} vs {b.n}$"):
            a.agrees_with(b)


def test_suffix_map_codes_never_wrap():
    # every word of 62 letters over two has an int64 code, "b" * 63 none:
    # the map that would hold a word of 63 letters raises where the dict
    # oracle holds strings
    long = "b" * 62
    old = oracles.DictSuffixMap.constant(2, 2, long)
    assert P.SuffixMap.constant(2, 2, long).apply("ab") == old.apply("ab") == long
    assert P.SuffixMap.right_translation(2, 2, long[2:]).apply("ab") == "ab" + long[2:]
    overflow = "^image codes of length 63 over 2 letters overflow int64$"
    for build in [
        lambda: P.SuffixMap.constant(2, 2, long + "a"),
        lambda: P.SuffixMap.right_translation(2, 1, long),
        lambda: P.SuffixMap(2, 1, {"": "a" * 62, "a": "a" * 63, "b": "b" + "a" * 62}),
    ]:
        with pytest.raises(WindowExceeded, match=overflow):
            build()
    assert oracles.DictSuffixMap.right_translation(2, 1, long).apply("b") == "b" + long


@pytest.mark.parametrize("n,L,seeds", [
    (1, 3, range(5)), (2, 2, range(5)), (2, 3, range(5)),
    # one seed: the reference builds and validates some 18,000 maps on the
    # 3,280 words of store window 7 per seed, about 5 s
    (3, 1, range(1)),
])
def test_zappa_report_matches_dict_oracle(monkeypatch, n, L, seeds):
    # the whole check with the dict reference in place of SuffixMap
    for seed in seeds:
        want = P.verify_zappa(n, L, seed=seed).to_dict()
        with monkeypatch.context() as m:
            m.setattr(P, "SuffixMap", oracles.DictSuffixMap)
            assert P.verify_zappa(n, L, seed=seed).to_dict() == want, seed


def test_random_suffix_maps_are_valid():
    rng = random.Random(7)
    for _ in range(10):
        sm = P.SuffixMap.random(2, 4, rng)
        for u in P.words_upto(2, 4):
            for cut in range(len(u) + 1):
                assert sm.apply(u).endswith(sm.apply(u[cut:]))


def test_zappa_compose_word_part():
    phi = P.SuffixMap.identity(2, 6)
    rho = P.SuffixMap.right_translation(2, 6, "b")
    comp, word = P.zappa_compose((phi, "a"), (rho, "b"))
    # the word part is (u psi) v; the map part collapses to the identity
    # because translations transfer trivially
    assert word == "ab" + "b"
    assert comp.agrees_with(P.SuffixMap.identity(2, comp.L))


def test_zappa_report():
    rep = P.verify_zappa(2, 3, samples=4, seed=1)
    assert rep.ok, rep.render()


def test_zappa_report_n1():
    rep = P.verify_zappa(1, 3, samples=3, seed=2)
    assert rep.ok, rep.render()


def test_parse_and_format():
    assert str(P.parse_poly_expression("(ab)^-1 a * b^-1 1", 2)) == "0"
    assert str(P.parse_poly_expression("a b", 2)) == "ab"
    assert str(P.parse_poly_expression("(a)^-1 b", 2)) == "(a)^-1 b"
    # a a^-1 collapses to the identity; a^-1 a is a proper idempotent
    assert str(P.parse_poly_expression("a a^-1", 2)) == "1"
    assert str(P.parse_poly_expression("a^-1 a", 2)) == "(a)^-1 a"
    assert str(P.parse_poly_expression("0 * a", 2)) == "0"
    x = P.parse_poly_expression("(ab)^-1 ba", 2)
    assert P.parse_poly_expression(str(x), 2) == x


def test_parse_errors():
    for bad in ["c", "a^-2", "(a", "a)", "* a", "a *", "a ^-1 ^-1 ("]:
        with pytest.raises(ParseError):
            P.parse_poly_expression(bad, 2)


def test_format_examples():
    assert P.format_poly(P.poly_zero(2)) == "0"
    assert P.format_poly(P.poly_one(2)) == "1"
    assert P.format_poly(P.poly(2, "ab", "")) == "(ab)^-1"
    assert P.format_poly(P.poly(2, "", "ba")) == "ba"
