import ast
import random
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from invhol import core
from invhol.catalog import two_chain_clifford, z2_with_zero_clifford
from invhol.core import (
    NaturalOrder,
    SemilatticeOfGroupsSpec,
    build_from_table,
    build_semilattice_of_groups,
    build_symmetric_inverse_monoid,
    first_nonassociative,
    meet_idempotents,
    verify_semigroup_properties,
)
from invhol.holomorph import hol_table
from invhol.errors import (
    LinkingIncompatible,
    NotAssociative,
    NotIdempotent,
    NotInverse,
    SizeCap,
)
from invhol.polycyclic import _mul, poly_window

import oracles


def test_trivial_table():
    S = build_from_table(["e"], [[0]])
    assert S.size == 1 and S.identity == 0 and S.zero == 0
    assert S.idempotents == [0]


def test_z2_table():
    S = build_from_table(["0", "1"], [[0, 1], [1, 0]])
    assert S.inv == [0, 1]
    assert S.idempotents == [0]
    assert S.identity == 0 and S.zero is None


def test_numpy_table_builds_the_same_semigroup():
    I2 = build_symmetric_inverse_monoid(2)
    S = build_from_table(I2.names, np.array(I2.mul))
    assert (S.mul, S.names, S.inv, S.idempotents, S.identity, S.zero) == (
        I2.mul, I2.names, I2.inv, I2.idempotents, I2.identity, I2.zero)
    assert all(type(v) is int for row in S.mul for v in row)
    # bools and floats are no indices, as Python values or numpy ones
    for bad in [True, 1.0, np.True_, np.float64(1)]:
        with pytest.raises(ValueError, match=f"^table entry {re.escape(repr(bad))} out of range$"):
            build_from_table(None, [[0, bad], [bad, 0]])


def test_not_associative_witness():
    # a*a = b but (a*a)*a = b*a = a while a*(a*a) = a*b = b
    with pytest.raises(NotAssociative) as exc:
        build_from_table(["a", "b"], [[1, 1], [0, 0]])
    assert len(exc.value.triple) == 3


def _table_product(mul):
    return lambda a, b: mul[a][b]


def test_first_nonassociative_matches_oracle_on_zoo(zoo):
    for S in zoo.values():
        product = _table_product(S.mul)
        assert first_nonassociative(range(S.size), product) is None
        assert oracles.first_nonassociative_by_loops(range(S.size), product) is None


def test_first_nonassociative_matches_oracle_on_corrupted_tables(zoo):
    mul = [row[:] for row in zoo["S3"].mul]
    mul[1][2] = 0
    assert first_nonassociative(range(6), _table_product(mul)) == (1, 1, 2)
    with pytest.raises(NotAssociative) as exc:
        build_from_table(zoo["S3"].names, mul)
    assert exc.value.triple == (1, 1, 2)

    # each corrupted table also on a shuffled element list with repeats, which
    # may miss elements that products reach
    failing = repeats_failing = 0
    for name, S in zoo.items():
        rng, pick = random.Random(name), random.Random(f"{name} repeats")
        for _ in range(5):
            mul = [row[:] for row in S.mul]
            mul[rng.randrange(S.size)][rng.randrange(S.size)] = rng.randrange(S.size)
            product = _table_product(mul)
            got = first_nonassociative(range(S.size), product)
            assert got == oracles.first_nonassociative_by_loops(range(S.size), product), name
            failing += got is not None
            elems = pick.choices(range(S.size), k=S.size + 2)
            got = first_nonassociative(elems, product)
            assert got == oracles.first_nonassociative_by_loops(elems, product), (name, elems)
            repeats_failing += got is not None
    assert failing > 40
    assert repeats_failing > 20, repeats_failing


def _ladder_structures():
    return {
        "I4": build_symmetric_inverse_monoid(4),
        "I3": build_symmetric_inverse_monoid(3),
        "S4": core.symmetric_group(4),
        "I2xchain2": core.direct_product(
            build_symmetric_inverse_monoid(2), core.chain_semilattice(2)),
    }


def test_greedy_generators_generate_the_table(zoo):
    for name, S in {**zoo, **_ladder_structures()}.items():
        for R in (S, *oracles.seeded_relabellings(S, name, 2)):
            gens = core.greedy_generators(R.mul_array)
            assert len(set(gens)) == len(gens), name
            assert oracles.closure_under_products(R.mul, gens) == set(range(R.size)), name
    # a chain's product is the smaller element, so no element is a product of others
    assert sorted(core.greedy_generators(zoo["chain4"].mul_array)) == [0, 1, 2, 3]


def _constructor_triple(mul):
    try:
        build_from_table(None, mul)
    except NotAssociative as exc:
        return exc.triple
    except NotInverse:
        pass
    return None


def test_light_test_agrees_with_the_row_sweep_above_one_block(zoo):
    # tables of more than 40 elements, where light_associative takes the greedy
    # generators; the sweep with left = right = the table is the row sweep alone
    I4 = build_symmetric_inverse_monoid(4)
    tables = {"I4": I4.mul_array}
    for i, R in enumerate(oracles.seeded_relabellings(I4, "I4", 3), 1):
        tables[f"I4/{i}"] = R.mul_array
    tables["I2xS3"] = core.direct_product(zoo["I2"], zoo["S3"]).mul_array
    for name in ("S3", "V4"):
        tables[f"Hol({name})"] = hol_table(zoo[name]).diamond
    draws = failing = 0
    for name, M in tables.items():
        n = len(M)
        assert n ** 3 > core.BLOCK_ENTRIES and core.light_associative(M), name
        assert core.first_nonassociative_table(M) is None
        rng = random.Random(name)
        for _ in range(4):
            bent = M.copy()
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                bent[i, j] = (bent[i, j] + rng.randrange(1, n)) % n
            want = core.first_nonassociative_table(bent, bent, bent)
            assert core.first_nonassociative_table(bent) == want, name
            assert _constructor_triple(bent.tolist()) == want, name
            if n <= 42:
                rows = bent.tolist()
                assert want == oracles.first_nonassociative_by_loops(
                    range(n), lambda a, b: rows[a][b]), name
            draws += 1
            failing += want is not None
    assert draws == 28 and failing > 24, failing

    # a corruption in row 0 of a large diamond table: the sweep stops at row 0
    D = hol_table(build_symmetric_inverse_monoid(3)).diamond
    assert len(D) == 1105 and core.light_associative(D)
    rng = random.Random("Hol(I3)")
    for _ in range(3):
        bent = D.copy()
        j = rng.randrange(len(D))
        bent[0, j] = (bent[0, j] + rng.randrange(1, len(D))) % len(D)
        want = core.first_nonassociative_table(bent, bent, bent)
        assert want is not None and want[0] == 0
        assert core.first_nonassociative_table(bent) == want


def test_first_nonassociative_interns_products_outside_the_window():
    elems = poly_window(2, 1)
    # ('', 'aa') lies outside the window but is a product of two elements in it
    assert _mul(("", "a"), ("", "a")) == ("", "aa")
    assert first_nonassociative(elems, _mul) is None
    assert oracles.first_nonassociative_by_loops(elems, _mul) is None

    def bent(x, y):
        # wrong only on a left factor that no window element equals
        return ("", "b") if x == ("", "aa") and y == ("a", "") else _mul(x, y)

    got = first_nonassociative(elems, bent)
    assert got is not None
    assert got == oracles.first_nonassociative_by_loops(elems, bent)


def test_null_semigroup_has_no_inverses():
    # a*a = b, everything else b: associative but a has no inverse
    with pytest.raises(NotInverse):
        build_from_table(["a", "b"], [[1, 1], [1, 1]])


def test_left_zero_semigroup_rejected():
    # regular, but inverses are not unique (equivalently idempotents clash)
    with pytest.raises(NotInverse):
        build_from_table(["a", "b"], [[0, 0], [1, 1]])


def test_unique_inverses_force_commuting_idempotents():
    # why the constructor does not check that idempotents commute: on every
    # associative table of up to 3 elements where each element has exactly
    # one inverse they do, and the right-zero band {e, f} with an identity
    # adjoined (ef = f, fe = e) is refused for e's two inverses
    checked = 0
    for n in (1, 2, 3):
        for flat in product(range(n), repeat=n * n):
            mul = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            witness = oracles.first_nonassociative_by_loops(range(n), lambda a, b: mul[a][b])
            if witness is not None:
                continue
            if any(
                sum(mul[mul[a][b]][a] == a and mul[mul[b][a]][b] == b for b in range(n)) != 1
                for a in range(n)
            ):
                continue
            idempotents = [e for e in range(n) if mul[e][e] == e]
            assert all(mul[e][f] == mul[f][e] for e in idempotents for f in idempotents), mul
            checked += 1
    assert checked == 29
    with pytest.raises(NotInverse, match=r"^element 1 \(e\) has 2 inverses: \[1, 2\]$"):
        build_from_table(["1", "e", "f"], [[0, 1, 2], [1, 1, 2], [2, 1, 2]])


def test_natural_order_reflexive(zoo):
    for S in zoo.values():
        for a in range(S.size):
            assert S.natural_order().leq(a, a)


def test_natural_order_two_chain(zoo):
    S = zoo["chain2"]
    one, e = 0, 1
    assert S.natural_order().leq(e, one)
    assert not S.natural_order().leq(one, e)


def test_natural_order_i2_partial_identity(zoo):
    S = zoo["I2"]
    full = S.identity
    partials = [e for e in S.idempotents if e not in (full, S.zero)]
    assert len(partials) == 2
    for e in partials:
        # evaluate e = e e^-1 1 directly
        assert S.mul[S.mul[e][S.inv[e]]][full] == e
        assert NaturalOrder(S, diagnostics=True).leq(e, full)


def test_meet_idempotents(zoo):
    S = zoo["chain2"]
    assert meet_idempotents(S, 0, 0) == 0
    assert meet_idempotents(S, 0, 1) == 1

    I2 = zoo["I2"]
    partials = [e for e in I2.idempotents if e not in (I2.identity, I2.zero)]
    assert meet_idempotents(I2, partials[0], partials[1]) == I2.zero

    with pytest.raises(NotIdempotent):
        nonidem = next(a for a in range(I2.size) if not I2.is_idempotent[a])
        meet_idempotents(I2, nonidem, I2.zero)


@pytest.mark.parametrize("n,size", [(0, 1), (1, 2), (2, 7)])
def test_symmetric_inverse_monoid_sizes(n, size):
    S = build_symmetric_inverse_monoid(n)
    assert S.size == size
    assert S.identity is not None and S.zero is not None


def test_symmetric_inverse_monoid_cap():
    with pytest.raises(SizeCap):
        build_symmetric_inverse_monoid(4, cap=100)


def test_size_cap_on_tables():
    with pytest.raises(SizeCap):
        build_from_table(None, [[(i + j) % 3 for j in range(3)] for i in range(3)], cap=2)


def test_two_chain_clifford_structure():
    sog = two_chain_clifford()
    S = sog.semigroup
    assert S.size == 4
    leq = S.natural_order().leq
    # each element of the top group sits above its image below
    for g in range(2):
        top = sog.element(0, g)
        bot = sog.element(1, sog.linking[(0, 1)][g])
        assert leq(bot, top) and not leq(top, bot)


def test_z2_with_zero_clifford():
    sog = z2_with_zero_clifford()
    S = sog.semigroup
    assert S.size == 3
    z = sog.element(1, 0)
    assert S.zero == z
    # the top component multiplies as the two-element group
    a, b = sog.element(0, 0), sog.element(0, 1)
    assert S.mul[b][b] == a


def test_single_group_over_point():
    spec = SemilatticeOfGroupsSpec(
        leq=[[True]],
        group_tables=[[[0, 1, 2], [1, 2, 0], [2, 0, 1]]],
    )
    S = build_semilattice_of_groups(spec).semigroup
    assert S.size == 3 and S.identity == 0


def test_linking_incompatible():
    # 3-chain with a non-composing chain of linking maps
    spec = SemilatticeOfGroupsSpec(
        leq=[[True, False, False], [True, True, False], [True, True, True]],
        group_tables=[[[0, 1], [1, 0]], [[0, 1], [1, 0]], [[0, 1], [1, 0]]],
        linking={(0, 1): [0, 1], (1, 2): [0, 1], (0, 2): [0, 0]},
    )
    with pytest.raises(LinkingIncompatible):
        build_semilattice_of_groups(spec)


def test_linking_must_be_homomorphism():
    spec = SemilatticeOfGroupsSpec(
        leq=[[True, False], [True, True]],
        group_tables=[[[0, 1], [1, 0]], [[0, 1], [1, 0]]],
        linking={(0, 1): [1, 0]},
    )
    with pytest.raises(LinkingIncompatible):
        build_semilattice_of_groups(spec)


def test_invariants_across_zoo(zoo):
    for name, S in zoo.items():
        rep = verify_semigroup_properties(S)
        assert rep.ok, f"{name}: {rep.render()}"


def test_inverse_involution(zoo):
    for S in zoo.values():
        for a in range(S.size):
            assert S.mul[S.mul[a][S.inv[a]]][a] == a
            assert S.inv[S.inv[a]] == a


def test_direct_product_klein():
    V = core.direct_product(core.cyclic_group(2), core.cyclic_group(2))
    assert V.size == 4
    assert all(V.mul[a][a] == V.identity for a in range(4))


def test_names_default_to_canonical_forms():
    I2 = build_symmetric_inverse_monoid(2)
    assert I2.names[I2.zero] == "--"
    assert I2.names[I2.identity] == "12"


def _replay_calls():
    """(module, top-level function, check line) for each call of core.replay
    in the package's source; the line is the name that the first_failure
    call taking it gives, or None."""
    calls = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            found = [c for c in ast.walk(node) if isinstance(c, ast.Call)]
            lines = {id(c.args[1]): c.args[0].value for c in found
                     if getattr(c.func, "attr", None) == "first_failure" and len(c.args) > 1}
            calls += [(path.stem, getattr(node, "name", None), lines.get(id(c)))
                      for c in found if getattr(c.func, "id", None) == "replay"]
    return calls


def test_only_loops_that_raise_midway_are_replayed():
    """A failing line names the first hit of its sweep; core.replay runs a
    loop body again only where that body calls code that may raise midway:
    meet_idempotents in idempotent_meets, hol_diamond in diamonds_agree."""
    assert _replay_calls() == [
        ("core", "verify_semigroup_properties", "idempotent_meets"),
        ("holomorph", "verify_mon_hol", "diamonds_agree"),
    ]
