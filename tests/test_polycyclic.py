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
    with rewrite_mul's values: a rewriting bent at one pair fails the
    matches_rewriting line there, the table's product being _mul's."""
    rewrite = P.rewrite_mul
    x, y = ("a", ""), ("", "a")

    def bent(p, q):
        return ("", "b") if (p, q) == (x, y) else rewrite(p, q)

    monkeypatch.setattr(P, "rewrite_mul", bent)
    check = P.verify_poly_window(2, 1).checks[1]
    assert check.name == "matches_rewriting" and not check.ok
    assert check.witness == f"{x} * {y}: table {P._mul(x, y)} vs rewriting ('', 'b')"


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
            return 2, -1, P._encode(images, 2)[0], K

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
    """Every line reads the pair codes of the window's products, so
    verify_poly_window(2, 3) rewrites each of the 51,076 products of two
    window elements once and takes no scalar product.  Interning every
    product through _mul made 1,825,854."""
    muls = _counting(monkeypatch, P, "_mul")
    rewrites = _counting(monkeypatch, P, "rewrite_mul")
    assert P.verify_poly_window(2, 3).ok
    assert len(rewrites) == 51_076 and not muls


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
    """The report of check() with the functor and heap sweeps on strings."""
    with monkeypatch.context() as m:
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
    act, base, _ = P._hol_act(fn, m, K)

    def on(x):
        u, v = (-1, -1) if x is None else P._encode(x, fn.n)[0]
        return P._decode_pair(*(int(c) for c in act(np.int64(u), np.int64(v))), base)

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
    with pytest.raises(WindowExceeded, match="^word 'aaaa' is outside window 3$"):
        small.compose(large, 4)
    with pytest.raises(WindowExceeded, match="^composition has an empty window$"):
        small.compose(large, -1)
    assert small.compose(large, 3).agrees_with(small)
    # an intermediate image past the other window is met first, in word order
    with pytest.raises(WindowExceeded, match="^intermediate image 'aaaa' is outside window 3$"):
        large.compose(small, 5)


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
    # an image outside the other map's alphabet cannot be looked up there
    with pytest.raises(AlphabetMismatch, match="^letter 'b' outside alphabet of size 1$"):
        sm.compose(P.SuffixMap.identity(1, 3))


def _suffix_preserving(sm):
    return all(sm.apply(u).endswith(sm.apply(u[1:])) for u in P.words_upto(sm.n, sm.L)[1:])


def _outcome(call):
    """A call's result, a map as (window, images in length-lex order), or
    the error it raised."""
    try:
        got = call()
    except (WindowExceeded, KeyError) as exc:
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
            for L_out in [None, *range(-1, new.L + 2)]:
                got = _outcome(lambda: new.compose(new2, L_out))
                want = _outcome(lambda: old.compose(old2, L_out))
                if want[0] == "KeyError":  # the oracle's error past its window
                    assert got[0] == "WindowExceeded", (new, new2, L_out)
                else:
                    assert got == want, (new, new2, L_out)


def test_suffix_map_matches_dict_oracle_across_alphabets():
    # a map on one letter into maps on two: the composite's images are words
    # over two letters, though it is defined on words over one
    for into in ["identity", "right_translation", "random"]:
        def args():
            return {"identity": (), "right_translation": ("ba",),
                    "random": (random.Random(5),)}[into]
        new = P.SuffixMap.right_translation(1, 4, "a").compose(
            getattr(P.SuffixMap, into)(2, 6, *args()))
        old = oracles.DictSuffixMap.right_translation(1, 4, "a").compose(
            getattr(oracles.DictSuffixMap, into)(2, 6, *args()))
        assert _outcome(lambda: new) == _outcome(lambda: old), into
        for u in P.words_upto(1, new.L):
            assert _outcome(lambda: new.transfer(u)) == _outcome(lambda: old.transfer(u))
        assert new.agrees_with(new) and old.agrees_with(old)
    # the two-letter composite back into a map on one letter, as the oracle:
    # the first intermediate image with a "b" stops it
    two = P.SuffixMap.right_translation(1, 4, "a").compose(
        P.SuffixMap.right_translation(2, 6, "ba"))
    with pytest.raises(AlphabetMismatch, match="^letter 'b' outside alphabet of size 1$"):
        two.compose(P.SuffixMap.identity(1, 9))
    assert two.agrees_with(P.SuffixMap.right_translation(1, 4, "aba"))
    assert not two.agrees_with(P.SuffixMap.right_translation(1, 4, "aaa"))
    # images over one letter, coded over two, agree with the same images
    # coded over one
    one = P.SuffixMap.right_translation(1, 4, "a").compose(P.SuffixMap.identity(2, 6))
    assert one.agrees_with(P.SuffixMap.right_translation(1, 4, "a"))
    assert not one.agrees_with(P.SuffixMap.right_translation(1, 4, "aa"))
    # images past the domain's letters are coded over more letters
    table = {u: u + "c" for u in P.words_upto(2, 2)}
    new, old = P.SuffixMap(2, 2, table), oracles.DictSuffixMap(2, 2, table)
    assert _outcome(lambda: new) == _outcome(lambda: old)
    assert _outcome(lambda: new.compose(P.SuffixMap.identity(3, 3))) == _outcome(
        lambda: old.compose(oracles.DictSuffixMap.identity(3, 3)))
    with pytest.raises(AlphabetMismatch, match="^letter 'c' outside alphabet of size 2$"):
        new.compose(P.SuffixMap.identity(2, 3))
    with pytest.raises(AlphabetMismatch, match="^letter 'A' outside alphabet of size 26$"):
        P.SuffixMap.constant(2, 1, "aA")


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
