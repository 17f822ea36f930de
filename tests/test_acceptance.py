"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is exact; the brute-force oracles live in
oracles.py and recompute expectations independently of the library's pruned
searches.  Time budgets are asserted per criterion.
"""

import time
from itertools import product

from invhol import polycyclic as P
from invhol.groupoid import (
    check_flow_monoid_structure,
    enumerate_flows,
    esn_back,
    esn_forward,
)
from invhol.heap import enumerate_sha, verify_sha_monoid_iso
from invhol.holomorph import holomorph_units, verify_interchange
from invhol.morphisms import verify_premorphism_laws

import oracles

Z2_TABLE = [[0, 1], [1, 0]]


def _record(num, desc, ok, elapsed, budget):
    line = (
        f"acceptance criterion {num}: {'pass' if ok else 'FAIL'} - {desc} "
        f"[{elapsed:.1f}s of {budget}s]"
    )
    print(line)
    assert ok, line
    assert elapsed <= budget, f"criterion {num} exceeded its time budget: {line}"


def test_criterion_1_group_holomorph(zoo):
    t0 = time.time()
    expected = {"Z2": 2, "Z3": 6, "Z4": 8, "S3": 36}
    ok = True
    for name, count in expected.items():
        S = zoo[name]
        units = holomorph_units(S)
        auts = oracles.automorphisms_by_filter(S)
        ok = ok and len(units) == count == len(auts) * S.size
    _record(1, "holomorph units of small groups", ok, time.time() - t0, 10)


def test_criterion_2_heap_monoid(zoo):
    t0 = time.time()
    brute = oracles.ordered_heap_maps_by_filter(zoo["Z3"])
    ok = len(brute) == 9
    ok = ok and len(enumerate_sha(zoo["Z3"])) == 9
    for name in ["Z2", "Z3", "chain2", "I2"]:
        rep = verify_sha_monoid_iso(zoo[name])
        ok = ok and rep.ok
    _record(2, "heap monoid size and endomorphism-pair isomorphism", ok,
            time.time() - t0, 300)


def test_criterion_3_esn_round_trip(zoo):
    t0 = time.time()
    names = [
        "trivial", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3",
        "chain2", "chain3", "chain4", "diamond", "I2", "clifford4",
    ]
    ok = True
    for name in names:
        S = zoo[name]
        T = esn_back(esn_forward(S))
        ok = ok and T.mul == S.mul
    _record(3, "groupoid round trip is table-exact on all built examples", ok,
            time.time() - t0, 10)


def test_criterion_4_premorphism_laws(zoo):
    t0 = time.time()
    ok = True
    for name, S in zoo.items():
        rep = verify_premorphism_laws(S)
        ok = ok and rep.ok
    _record(4, "derived premorphism laws hold with zero violations", ok,
            time.time() - t0, 120)


def test_criterion_5_interchange(zoo):
    t0 = time.time()
    ok = True
    for name in ["Z3", "chain2", "I2"]:
        rep = verify_interchange(zoo[name])
        ok = ok and rep.ok
    _record(5, "interchange law over all composable quadruples", ok,
            time.time() - t0, 300)


def test_criterion_6_flow_monoid():
    t0 = time.time()
    G = oracles.connected_groupoid(2, Z2_TABLE)
    ok = len(enumerate_flows(G)) == 16
    rep = check_flow_monoid_structure(G)
    ok = ok and rep.ok
    by_name = {c.name: c.ok for c in rep.checks}
    ok = ok and by_name.get("component_0_wreath_iso", False)
    G2 = oracles.disjoint_union(
        oracles.connected_groupoid(1, Z2_TABLE), oracles.connected_groupoid(2, [[0]]))
    rep2 = check_flow_monoid_structure(G2)
    ok = ok and rep2.ok and len(enumerate_flows(G2)) == 8
    _record(6, "flow monoid is the wreath product, componentwise", ok,
            time.time() - t0, 10)


def test_criterion_7_polycyclic_oracle():
    t0 = time.time()
    rep2 = P.verify_poly_window(2, 3)
    rep1 = P.verify_poly_window(1, 6)
    ok = rep2.ok and rep1.ok
    _record(7, "normal-form product matches rewriting; associative on window", ok,
            time.time() - t0, 60)


def _classification_candidates(n, L):
    """Representatives of each family plus deliberate corruptions."""
    ws = P.words_upto(n, 2)
    yield P.ConstZero(n), "constant_zero", None
    for w in ws:
        for t in ws:
            if w.endswith(t):
                yield P.ConstPair(n, w, t), "constant_pair", (w, t)
    for images in product(ws, repeat=n):
        for trans in ["", "a"]:
            yield P.AffineWordMap(n, images, trans), "affine", (images, trans)


def test_criterion_8a_classification_trichotomy():
    t0 = time.time()
    n, L = 2, 3
    ok = True
    for fn, kind, params in _classification_candidates(n, L):
        table = oracles.window_table(fn, n, L)
        got = P.classify_ordered_functor(n, L, fn.zero_image, table)
        ok = ok and got.kind == kind
        if kind == "constant_pair":
            ok = ok and (got.w, got.t) == params
        if kind == "affine":
            ok = ok and (got.sigma, got.w) == params

    # corrupted candidates must be rejected with a witness
    base = oracles.window_table(P.AffineWordMap(n, ("aa", "ba"), "b"), n, L)
    corrupt1 = dict(base)
    corrupt1["ba"] = "a"
    corrupt2 = dict(base)
    corrupt2["bbb"] = None
    good_const = oracles.window_table(P.ConstPair(n, "ba", "a"), n, L)
    corrupt3 = dict(good_const)
    corrupt3["ab"] = "b"
    for zero_img, table in [(None, corrupt1), (None, corrupt2), ("ba", corrupt3)]:
        got = P.classify_ordered_functor(n, L, zero_img, table)
        ok = ok and got.kind == "not_ordered_functor" and bool(got.witness)
    _record("8a", "window candidates classify into the trichotomy or reject", ok,
            time.time() - t0, 300)


def test_criterion_8b_ideal_identities():
    t0 = time.time()
    rep = P.premorphism_ideal_check(2, 3)
    names = {c.name: c.ok for c in rep.checks}
    ok = (
        names["constant_then_constant"]
        and names["constant_then_affine"]
        and names["affine_then_constant"]
        and rep.ok
    )
    _record("8b", "constant-family composition identities hold exactly", ok,
            time.time() - t0, 300)


def test_criterion_8c_endo_both_directions():
    t0 = time.time()
    n, L = 2, 3
    ok = True
    ws = P.words_upto(n, 2)
    for images in product(ws, repeat=n):
        for w in ["", "a", "ba"]:
            rep = P.endo_classification_check(n, images, w, L)
            ok = ok and rep.ok
    _record("8c", "meet preservation iff injective with suffix-code letter images",
            ok, time.time() - t0, 300)


def test_criterion_8d_heap_types():
    # The stated boundary "zero-valued instances survive iff w = s = t" is
    # false under this encoding: 0 goes to (w,w)(s,t) and a zero-valued
    # instance with nonzero arguments to (s,t), which agree iff w = s.  The
    # report keeps the stated line as its refutation; this criterion pins the
    # boundary that brute force proves.
    t0 = time.time()
    rep = P.heap_type_check_polycyclic(2, 1, 2)
    by_name = {c.name: c for c in rep.checks}
    oracle = oracles.constant_pair_zero_preservation(2, 1, 2)
    ok = (
        by_name["zero_pair_preserves_heap"].ok
        and by_name["constant_pairs_preserve_nonzero_instances"].ok
        and by_name["diagonal_constant_acts_as_translation"].ok
    )
    ok = ok and len(oracle) == 119
    ok = ok and all(kept == (w == s) for (w, s, t), kept in oracle.items())
    ok = ok and any(w == s != t for (w, s, t) in oracle)
    ok = ok and any("exactly when w = s (confirmed)" in note for note in rep.notes)
    stated = by_name["constant_pair_zero_iff_w_eq_s_eq_t"]
    found = oracles.constant_pair_witness(stated.witness)
    ok = ok and not stated.ok and found is not None
    if found:
        w, s, t, verdict = found
        ok = ok and w == s != t and verdict == "preserved" and oracle[(w, s, t)]
    _record("8d", "heap behaviour of holomorph element types on the window", ok,
            time.time() - t0, 300)


def test_criterion_9_bicyclic():
    t0 = time.time()
    rep = P.verify_bicyclic(window=6, param=4)
    rep2 = P.bicyclic_hol_check(param=4, window=6)
    ok = rep.ok and rep2.ok
    _record(9, "bicyclic endomorphism formula and holomorph composition", ok,
            time.time() - t0, 10)
