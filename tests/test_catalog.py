"""Catalog families: exact tables, bounds, and declared structure data."""

import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg import (derivation_algebra, dump_algebra_json, leibniz_check,
                        squares_ideal, validate_levi)
from leibnizalg.catalog import (
    CatalogSpec,
    _semidirect,
    _sl2_action,
    build,
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)
from leibnizalg.core import SL2_TABLE


def test_every_member_is_leibniz_with_valid_levi():
    for label, alg, levi in standard_catalog():
        assert leibniz_check(alg) == (), label
        if levi is not None:
            validate_levi(alg, levi)


def test_dimensions():
    assert sl2()[0].dim == 3
    assert two_dim_solvable().dim == 2
    for m in (2, 3, 5):
        assert simple_sl2_leibniz(m)[0].dim == m + 4
    for m in (1, 2, 3):
        assert semisimple_pair(m)[0].dim == 2 * (m + 4)
    assert direct_sum_sample(2)[0].dim == 13


def test_sl2_table():
    alg, levi = sl2()
    e, f, h = 0, 1, 2

    def bracket(i, j):
        return alg.product(alg.basis_vector(i), alg.basis_vector(j))

    assert bracket(e, h) == (F(2), F(0), F(0))
    assert bracket(h, e) == (F(-2), F(0), F(0))
    assert bracket(h, f) == (F(0), F(2), F(0))
    assert bracket(f, h) == (F(0), F(-2), F(0))
    assert bracket(e, f) == (F(0), F(0), F(1))
    assert bracket(f, e) == (F(0), F(0), F(-1))
    assert squares_ideal(alg).dim == 0
    assert levi.sl2_triples == ((0, 1, 2),)


def test_two_dim_solvable_table():
    alg = two_dim_solvable()
    assert alg.table_items() == [((0, 0), ((1, F(1)),))]


def test_simple_family_spot_values():
    alg, _ = simple_sl2_leibniz(2)
    # index map: e=0 f=1 h=2 x0=3 x1=4 x2=5
    assert alg.c(5, 0) == ((4, F(-2)),)       # x2 lowered by e: -2*(3-2) = -2
    assert alg.c(3, 1) == ((4, F(1)),)        # x0 raised by f
    assert alg.c(4, 2) == ()                  # middle weight is zero
    assert alg.c(3, 2) == ((3, F(2)),)        # x0 has weight 2
    alg3, _ = simple_sl2_leibniz(3)
    assert alg3.c(3, 2) == ((3, F(3)),)       # weight m at the top
    assert alg3.c(0, 1) == ((2, F(1)),)
    assert alg3.c(1, 0) == ((2, F(-1)),)


def test_simple_family_basis_names():
    alg, levi = simple_sl2_leibniz(2)
    assert alg.basis_names == ("e", "f", "h", "x0", "x1", "x2")
    assert levi.g_indices == (0, 1, 2)
    assert levi.i_indices == (3, 4, 5)


def test_simple_family_m_bounds():
    with pytest.raises(ValueError):
        simple_sl2_leibniz(0)
    with pytest.raises(ValueError):
        simple_sl2_leibniz(1)
    alg, _ = simple_sl2_leibniz(1, allow_uncertified=True)
    assert "uncertified" in alg.name
    assert alg.dim == 5
    assert leibniz_check(alg) == ()


def test_pair_family_spot_values():
    m = 2
    alg, levi = semisimple_pair(m)
    # index map: e1..h2 = 0..5, x0_1..x2_1 = 6..8, x0_2..x2_2 = 9..11
    assert alg.c(7, 2) == ()                  # middle weight zero for m=2, k=1
    assert alg.c(6, 3) == ((9, F(1)),)        # first column pushed to second
    assert alg.c(9, 5) == ((9, F(1)),)        # second column weight +1
    assert alg.c(6, 5) == ((6, F(-1)),)       # first column weight -1
    assert alg.c(9, 4) == ((6, F(-1)),)       # second column pulled back
    assert alg.c(9, 3) == ()                  # top of the doublet killed
    assert alg.c(8, 0) == ((7, F(-2)),)       # lowering within column 1
    assert alg.c(11, 0) == ((10, F(-2)),)     # same action on column 2
    assert levi.sl2_triples == ((0, 1, 2), (3, 4, 5))


def test_pair_family_basis_names():
    alg, _ = semisimple_pair(1)
    assert alg.basis_names == (
        "e1", "f1", "h1", "e2", "f2", "h2", "x0_1", "x1_1", "x0_2", "x1_2")


def test_pair_family_m_bound():
    with pytest.raises(ValueError):
        semisimple_pair(0)
    assert semisimple_pair(1)[0].dim == 10


def test_catalog_request_validation():
    with pytest.raises(ValueError):
        CatalogSpec("nonsense")
    alg, levi = build(CatalogSpec("simple", 3))
    assert alg.dim == 7 and levi is not None
    alg, levi = build(CatalogSpec("two_dim_solvable"))
    assert levi is None
    alg, levi = build(CatalogSpec("direct_sum", 2))
    assert alg.dim == 13
    with pytest.raises(ValueError):
        build(CatalogSpec("simple", 1))
    alg, _ = build(CatalogSpec("simple", 1), allow_uncertified=True)
    assert alg.dim == 5


def test_direct_sum_sample_structure():
    total, levi = direct_sum_sample(2)
    assert levi is not None
    assert len(levi.sl2_triples) == 2
    assert squares_ideal(total).dim == 7


# sha256 of dump_algebra_json for each family member, taken when every
# family still wrote its sl2 module actions by hand
TABLE_HASHES = {
    ("simple", 1): "10323f694c6a36368dc2eca1b939f830c527edcc4c2845b7f32cc82db0ba2b94",
    ("simple", 2): "dc2ab8de944857edcf9f99b5b0f4f0172e74545ac9be9ad8bcae5fc8b68b9a61",
    ("simple", 3): "ebd8512ba79625b0f6a2576144c0dd07d774f44d3dc87e42f1feda194cea78cb",
    ("simple", 4): "d92afadc515d8c9adb0d55ea08801758e0284a6dc8caed3c01ba17c90589081a",
    ("simple", 5): "6d12f75f125aa0aef67a4395848c9ab711dae71b1beeee8939749d65f08f2a58",
    ("simple", 6): "f1dfaf5683c4aa596ace99274e2725aaddb30fa6a32ad95ce92f3758f46a6b61",
    ("simple", 7): "4359cf7e7abbf01667785394b277ae7df2abebcc7d07fdb82212432dd0f87f02",
    ("simple", 8): "e6a35e0994e9ca60aeb4ba49070f27cc7c0919742a9dd0272765b5285212cdef",
    ("pair", 1): "5cecd7d0bdc25e0dd5342debbbf8a7c9c23ebc0ab99f85f2a38130e8d5de6fa3",
    ("pair", 2): "f618027024a2841084dbf2a88f9bc568d52ab10a77758510cf8fad20177d2f36",
    ("pair", 3): "cd5650385e5d52577ff8b5d5acb4d8d41484421d22882f8477eb7e6717dbeaf5",
    ("pair", 4): "31a66d44840c188e1fdfda173056d962b616c75e335a18dbf2de03907c5f8001",
    ("pair", 5): "69c4e4c876c009779cae847cded620c1e5a21d47bfe52901d5bc68ff68548988",
    ("pair", 6): "cf7bed78e45bd2ca94b090ae31c9d954362653c44b90b711a1b982e308a2f856",
    ("pair", 7): "e3e28c3edeed6206341837fca3b4bc44283945a3ccbdffad07417d376b1773cc",
    ("pair", 8): "13ef5bbf69cacc10b1910c062c5d75a4668b6a10d3fde303f9da6bd91d71b0fe",
    ("direct_sum", 2): "767b730e62559c401bb8a0cf21b2d4fbefaa02a6a8a833cef541b3749fcc70a0",
    ("direct_sum", 3): "b8d8a49ea7f95603b63c7dd80af343f911c2cf5a8e89574ac5ccca829893873e",
    ("direct_sum", 4): "b06c314fa019dce5022cf44a3dd15eeb097d48691b51c1f5d17a65ca3d7d9e45",
}


@pytest.mark.parametrize("family, m", list(TABLE_HASHES))
def test_family_tables_are_byte_identical(family, m):
    alg, levi = build(CatalogSpec(family, m), allow_uncertified=(m == 1))
    text = dump_algebra_json(alg, levi)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_HASHES[family, m]


@given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
@settings(max_examples=30)
def test_sl2_module_derivation_count(weights):
    # sl2 ⋉ (V(m_1) ⊕ ... ⊕ V(m_r)) is Leibniz, and its derivations are
    # R(sl2) ⊕ End_sl2(V) ⊕ Hom_sl2(sl2, V): by Schur's lemma
    # 3 + Σ mult(V(m))² + mult(V(2)), the adjoint sl2 being V(2)
    dim_v = sum(m + 1 for m in weights)
    names = ("e", "f", "h") + tuple(f"x{v}" for v in range(dim_v))
    alg = _semidirect(SL2_TABLE, _sl2_action(weights), names, "sl2_module")
    assert leibniz_check(alg) == ()
    mult = {m: weights.count(m) for m in set(weights)}
    want = 3 + sum(k * k for k in mult.values()) + mult.get(2, 0)
    assert derivation_algebra(alg).dim == want
