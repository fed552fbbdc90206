"""Property-based checks: invariance under change of basis, identities that
must hold for every member of the bundled catalog, and serialization
stability under randomly generated inputs."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from leibnizalg import (
    Matrix,
    Subspace,
    centroid,
    derivation_algebra,
    dump_algebra_json,
    graded_parts,
    is_derivation,
    leibniz_check,
    load_algebra_json,
    quotient_algebra,
    solvable_radical,
    squares_ideal,
)
from leibnizalg.core import Algebra
from leibnizalg.catalog import (
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)


SMALL_ALGEBRAS = [
    ("sl2", lambda: sl2()[0]),
    ("two_dim_solvable", two_dim_solvable),
    ("simple_m2", lambda: simple_sl2_leibniz(2)[0]),
]

WITH_LEVI = [entry for entry in standard_catalog() if entry[2] is not None]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
small_rationals = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])


def identity_matrix(n):
    return Matrix.from_rows(
        [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)])


def shear(n, i, j, c):
    rows = [[F(1) if r == s else F(0) for s in range(n)] for r in range(n)]
    rows[i][j] = c
    return Matrix.from_rows(rows)


def conjugate(alg, shears):
    """Rewrite the table in the basis P e_0, ..., P e_{n-1}."""
    n = alg.dim
    p = identity_matrix(n)
    pinv = identity_matrix(n)
    for i, j, c in shears:
        p = p.mul(shear(n, i, j, c))
        pinv = shear(n, i, j, -c).mul(pinv)
    cols = [p.apply(alg.basis_vector(i)) for i in range(n)]
    products = {}
    for i in range(n):
        for j in range(n):
            w = pinv.apply(alg.product(cols[i], cols[j]))
            entries = [(k, c) for k, c in enumerate(w) if c != 0]
            if entries:
                products[(i, j)] = entries
    return Algebra(n, products)


shear_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), small_rationals),
    min_size=1, max_size=3).filter(
        lambda ls: all(i != j for i, j, _ in ls))


@st.composite
def algebra_and_shears(draw):
    _, maker = draw(st.sampled_from(SMALL_ALGEBRAS))
    alg = maker()
    raw = draw(shear_lists)
    shears = [(i % alg.dim, j % alg.dim, c) for i, j, c in raw]
    shears = [(i, j, c) for i, j, c in shears if i != j]
    return alg, shears


@given(algebra_and_shears())
@settings(max_examples=40)
def test_change_of_basis_preserves_invariants(pair):
    alg, shears = pair
    if not shears:
        return
    moved = conjugate(alg, shears)
    assert leibniz_check(moved) == ()
    assert squares_ideal(moved).dim == squares_ideal(alg).dim
    assert solvable_radical(moved).dim == solvable_radical(alg).dim
    assert derivation_algebra(moved).dim == derivation_algebra(alg).dim


@given(st.sampled_from(SMALL_ALGEBRAS), st.data())
@settings(max_examples=40)
def test_right_multiplications_are_derivations(entry, data):
    _, maker = entry
    alg = maker()
    z = tuple(data.draw(rationals) for _ in range(alg.dim))
    assert is_derivation(alg, alg.right_mult(z))


@given(st.sampled_from(SMALL_ALGEBRAS), st.data())
@settings(max_examples=30)
def test_derivation_predicate_matches_span(entry, data):
    _, maker = entry
    alg = maker()
    der = derivation_algebra(alg)
    coeffs = [data.draw(small_rationals) for _ in der.maps]
    combo = None
    for c, m in zip(coeffs, der.maps):
        scaled = m.scale(c)
        combo = scaled if combo is None else combo + scaled
    assert is_derivation(alg, combo)
    assert der.span.contains(combo.flatten())
    # perturb one entry off the span
    rows = [list(r) for r in combo.data]
    rows[0][0] += F(1, 3)
    bumped = Matrix.from_rows(rows)
    assert is_derivation(alg, bumped) == der.span.contains(bumped.flatten())


def commutes_with_multiplications(alg, m):
    mults = [mult(alg.basis_vector(i)) for i in range(alg.dim)
             for mult in (alg.right_mult, alg.left_mult)]
    return all(m.mul(x) == x.mul(m) for x in mults)


@given(st.sampled_from(SMALL_ALGEBRAS), st.data())
@settings(max_examples=30)
def test_centroid_predicate_matches_span(entry, data):
    _, maker = entry
    alg = maker()
    cents = centroid(alg)
    assert all(commutes_with_multiplications(alg, c) for c in cents)
    combo = None
    for c in cents:
        scaled = c.scale(data.draw(small_rationals))
        combo = scaled if combo is None else combo + scaled
    assert commutes_with_multiplications(alg, combo)
    rows = [list(r) for r in combo.data]
    rows[0][alg.dim - 1] += F(1, 3)
    bumped = Matrix.from_rows(rows)
    span = Subspace.from_vectors(alg.dim ** 2, [c.flatten() for c in cents])
    assert commutes_with_multiplications(alg, bumped) == span.contains(bumped.flatten())


@given(st.sampled_from(WITH_LEVI), st.data())
@settings(max_examples=25)
def test_no_lowering_block_for_any_derivation(entry, data):
    _, alg, levi = entry
    der = derivation_algebra(alg)
    coeffs = [data.draw(small_rationals) for _ in der.maps]
    combo = None
    for c, m in zip(coeffs, der.maps):
        scaled = m.scale(c)
        combo = scaled if combo is None else combo + scaled
    assert graded_parts(levi, combo).lowering.is_zero()


@given(st.sampled_from([entry for entry in standard_catalog()]), st.data())
@settings(max_examples=25)
def test_squares_absorb_products_from_the_left(entry, data):
    _, alg, _levi = entry
    sq = squares_ideal(alg)
    if sq.dim == 0:
        return
    x = tuple(data.draw(rationals) for _ in range(alg.dim))
    coeffs = [data.draw(small_rationals) for _ in range(sq.dim)]
    s = tuple(
        sum((c * v[k] for c, v in zip(coeffs, sq.basis.data)), F(0))
        for k in range(alg.dim))
    assert all(c == 0 for c in alg.product(x, s))
    # and the ideal is closed under multiplying from the right
    assert sq.contains(alg.product(s, x))


def test_quotient_by_squares_is_lie_catalog_wide():
    for _, alg, _levi in standard_catalog():
        q = quotient_algebra(alg, squares_ideal(alg))
        assert q.algebra.is_lie()


def test_radical_contains_squares_and_is_solvable():
    for _, alg, _levi in standard_catalog():
        rad = solvable_radical(alg)
        assert rad.contains_subspace(squares_ideal(alg))
        # restrict the product to the radical and run the derived series
        assert is_solvable_on(alg, rad)


def is_solvable_on(alg, sub):
    span = sub
    while True:
        prods = []
        for u in span.basis.data:
            for v in span.basis.data:
                w = alg.product(u, v)
                if any(c != 0 for c in w):
                    prods.append(w)
        from leibnizalg import Subspace
        nxt = Subspace.from_vectors(alg.dim, prods)
        if nxt.dim == 0:
            return True
        if nxt.dim >= span.dim:
            return False
        span = nxt


@given(algebra_and_shears())
@settings(max_examples=20)
def test_serialization_round_trip_random_tables(pair):
    alg, shears = pair
    moved = conjugate(alg, shears) if shears else alg
    text = dump_algebra_json(moved, None)
    back, levi = load_algebra_json(text)
    assert levi is None
    assert back == moved
    assert dump_algebra_json(back, None) == text
