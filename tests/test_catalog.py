"""Catalog families: exact tables, bounds, and declared structure data."""

from fractions import Fraction as F

import pytest

from leibnizalg import leibniz_check, squares_ideal, validate_levi
from leibnizalg.catalog import (
    CatalogSpec,
    build,
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)


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
