import random

import pytest

from invhol import core
from invhol.catalog import two_chain_clifford, z2_with_zero_clifford
from invhol.core import (
    SemilatticeOfGroupsSpec,
    build_from_table,
    build_semilattice_of_groups,
    build_symmetric_inverse_monoid,
    first_nonassociative,
    meet_idempotents,
    natural_leq,
    verify_semigroup_properties,
)
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

    failing = 0
    for name, S in zoo.items():
        rng = random.Random(name)
        for _ in range(5):
            mul = [row[:] for row in S.mul]
            mul[rng.randrange(S.size)][rng.randrange(S.size)] = rng.randrange(S.size)
            product = _table_product(mul)
            got = first_nonassociative(range(S.size), product)
            assert got == oracles.first_nonassociative_by_loops(range(S.size), product), name
            failing += got is not None
    assert failing > 40


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


def test_natural_order_reflexive(zoo):
    for S in zoo.values():
        for a in range(S.size):
            assert natural_leq(S, a, a)


def test_natural_order_two_chain(zoo):
    S = zoo["chain2"]
    one, e = 0, 1
    assert natural_leq(S, e, one)
    assert not natural_leq(S, one, e)


def test_natural_order_i2_partial_identity(zoo):
    S = zoo["I2"]
    full = S.identity
    partials = [e for e in S.idempotents if e not in (full, S.zero)]
    assert len(partials) == 2
    for e in partials:
        # evaluate e = e e^-1 1 directly
        assert S.mul[S.mul[e][S.inv[e]]][full] == e
        assert natural_leq(S, e, full, diagnostics=True)


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
