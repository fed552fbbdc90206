"""Property-based checks: invariance under change of basis, identities that
must hold for every member of the bundled catalog, and serialization
stability under randomly generated inputs."""

import random
from fractions import Fraction as F

import sympy
from hypothesis import given, settings, strategies as st

from leibnizalg import (
    Matrix,
    Sl2Triple,
    Subspace,
    centroid,
    derivation_algebra,
    derived_subalgebra,
    dump_algebra_json,
    graded_parts,
    highest_weight_vectors,
    irreducible_decomposition_sl2,
    is_derivation,
    leibniz_check,
    load_algebra_json,
    quotient_algebra,
    solvable_radical,
    squares_ideal,
    weight_decomposition,
)
from leibnizalg import catalog, core, eigen
from leibnizalg.core import SL2_TABLE, Algebra, LeviDatum
from leibnizalg.eigen import charpoly
from leibnizalg.catalog import (
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)
from reference import conjugate, dense_basis, shear_product


SMALL_ALGEBRAS = [
    ("sl2", lambda: sl2()[0]),
    ("two_dim_solvable", two_dim_solvable),
    ("simple_m2", lambda: simple_sl2_leibniz(2)[0]),
]

WITH_LEVI = [entry for entry in standard_catalog() if entry[2] is not None]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
small_rationals = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])


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


def dense(row, n):
    return tuple(row.get(k, F(0)) for k in range(n))


@given(algebra_and_shears(), st.data())
@settings(max_examples=30)
def test_sparse_products_match_dense_products(pair, data):
    # sheared tables are denser than the catalog's; the drawn subspace is
    # seldom an ideal
    alg, shears = pair
    moved = conjugate(alg, shears) if shears else alg
    n = moved.dim
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2)])
    sub = Subspace.from_vectors(n, data.draw(st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3)))
    basis = [moved.basis_vector(j) for j in range(n)]
    zero = (F(0),) * n
    den = moved._den
    # each basis vector v alone: the yielded j ascend, their products are
    # D·s times the dense ones (D the table's denominator, s the scale of
    # v's integer row), and every pair (v, e_j) not yielded has zero
    # products on both sides; together that is every pair's products
    each = []
    for p, row in sub.pivot_rows.items():
        v = dense(row, n)
        scale = den * sub.rows[p][p]
        raw = list(core._basis_products(moved, Subspace(n, {p: sub.rows[p]})))
        assert all(type(x) is int for _, r, l in raw for x in [*r.values(), *l.values()])
        yielded = [(j, dense(r, n), dense(l, n)) for j, r, l in raw]
        js = [j for j, _, _ in yielded]
        assert js == sorted(set(js))
        assert yielded == [(j, tuple(scale * x for x in moved.product(v, basis[j])),
                            tuple(scale * x for x in moved.product(basis[j], v)))
                           for j in js]
        assert all(moved.product(v, e) == zero == moved.product(e, v)
                   for j, e in enumerate(basis) if j not in js)
        each.extend(yielded)
    # the whole subspace yields the same, basis vector by basis vector
    assert [(j, dense(r, n), dense(l, n))
            for j, r, l in core._basis_products(moved, sub)] == each
    for s, rows in ((None, basis), (sub, dense_basis(sub).data)):
        assert derived_subalgebra(moved, s) == Subspace.from_vectors(
            n, [moved.product(u, v) for u in rows for v in rows])


def sl2_on(weights):
    """sl2 ⋉ (V(m_1) ⊕ V(m_2) ⊕ ...) on basis (e, f, h, x_0, x_1, ...)."""
    n = 3 + sum(m + 1 for m in weights)
    names = ("e", "f", "h") + tuple(f"x{k}" for k in range(n - 3))
    alg = catalog._semidirect(SL2_TABLE, catalog._sl2_action(weights), names,
                              "sl2_on_" + "_".join(f"v{m}" for m in weights))
    return alg, LeviDatum((0, 1, 2), tuple(range(3, n)), ((0, 1, 2),))


SL2_MODULES = [
    ("simple_m2", lambda: simple_sl2_leibniz(2)),
    ("simple_m3", lambda: simple_sl2_leibniz(3)),
    ("simple_m4", lambda: simple_sl2_leibniz(4)),
    ("pair_m1", lambda: semisimple_pair(1)),
    # two components share a highest weight, so weights 1 and -1 each
    # hold vectors of three chains
    ("v1_v1_v3", lambda: sl2_on((1, 1, 3))),
]


def coupled_sl2_on(weights):
    """``sl2_on(weights)`` in the basis P e_k, where the shears add the top
    of each other summand into the column of the first summand's top t:
    the first summand's highest-weight vector has coordinates e_t minus
    the other tops, so the RREF row of ker e led by t is the sum of one
    highest-weight vector per summand and mixes every weight."""
    alg, levi = sl2_on(weights)
    tops = [3 + sum(m + 1 for m in weights[:k]) for k in range(len(weights))]
    return conjugate(alg, [(top, tops[0], F(1)) for top in tops[1:]]), levi


# 1-4 random highest weights in 1..5, repeats allowed
random_sl2_modules = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda weights: (f"coupled_sl2_on{tuple(weights)}",
                     lambda: coupled_sl2_on(tuple(weights))))


def sympy_action(alg, sub, g):
    """v -> [v, g] on sub as a sympy matrix, in the coordinates of sub's
    RREF basis, where a vector of sub has its entries at the pivot columns
    as coordinates."""
    basis = dense_basis(sub).data
    pivots = sub.pivot_cols()
    images = [alg.product(v, g) for v in basis]
    assert all(sub.contains(image) for image in images)
    return sympy.Matrix(len(basis), len(basis), lambda r, c: sympy.Rational(
        images[c][pivots[r]].numerator, images[c][pivots[r]].denominator))


def sympy_span(alg, sub, vectors):
    """The span of sympy coordinate vectors of sub, in ambient coordinates."""
    basis = dense_basis(sub).data
    return Subspace.from_vectors(alg.dim, [
        tuple(sum((F(int(x.p), int(x.q)) * v[k] for x, v in zip(vec, basis)), F(0))
              for k in range(alg.dim)) for vec in vectors])


def sympy_weight_spaces(alg, sub, t):
    """{eigenvalue: eigenspace} of v -> [v, h] on sub, from sympy's
    eigenvectors of the action."""
    return {F(int(lam.p), int(lam.q)): sympy_span(alg, sub, vectors)
            for lam, _, vectors in sympy_action(alg, sub, t.h).eigenvects()}


def sympy_highest_weight_spaces(alg, sub, t, weights):
    """{w: the vectors of sub killed by e and of h-weight w} for each w
    among weights with such a vector, from sympy's nullspace of the e- and
    (h - w)-actions stacked."""
    e, h = sympy_action(alg, sub, t.e), sympy_action(alg, sub, t.h)
    spaces = {}
    for w in weights:
        vectors = e.col_join(h - w * sympy.eye(sub.dim)).nullspace()
        if vectors:
            spaces[w] = sympy_span(alg, sub, vectors)
    return spaces


@given(st.one_of(st.sampled_from(SL2_MODULES), random_sl2_modules), st.data())
@settings(max_examples=30)
def test_highest_weights_survive_change_of_basis(entry, data):
    # shears that mix the semisimple part into the ideal make the weight
    # operator non-diagonal on the squares ideal
    _, maker = entry
    alg, levi = maker()
    n = alg.dim
    index = st.integers(0, n - 1)
    shears = data.draw(st.lists(
        st.tuples(index, index, small_rationals).filter(lambda s: s[0] != s[1]),
        min_size=1, max_size=4))
    moved = conjugate(alg, shears)
    _, pinv = shear_product(n, shears)
    sq, moved_sq = squares_ideal(alg), squares_ideal(moved)
    for indices in levi.sl2_triples:
        t = Sl2Triple.from_indices(n, indices)
        moved_t = Sl2Triple(pinv.apply(t.e), pinv.apply(t.f), pinv.apply(t.h))
        dec = irreducible_decomposition_sl2(alg, sq, t)
        moved_dec = irreducible_decomposition_sl2(moved, moved_sq, moved_t)
        assert moved_dec.highest_weights == dec.highest_weights
        spaces = weight_decomposition(moved, moved_sq, moved_t)
        assert spaces.complete
        assert dict(spaces.pairs) == sympy_weight_spaces(moved, moved_sq, moved_t)
        highest = highest_weight_vectors(moved, moved_sq, moved_t)
        by_weight = {}
        for hw in highest:
            by_weight.setdefault(hw.weight, []).append(hw.vector)
        assert {w: Subspace.from_vectors(n, vectors)
                for w, vectors in by_weight.items()} == \
            sympy_highest_weight_spaces(moved, moved_sq, moved_t, spaces.weights())
        for hw in highest:
            assert not any(moved.product(hw.vector, moved_t.e))
            assert moved.product(hw.vector, moved_t.h) == \
                tuple(hw.weight * x for x in hw.vector)
        for comp in moved_dec.components:
            for v in dense_basis(comp).data:
                for g in (moved_t.e, moved_t.f, moved_t.h):
                    assert comp.contains(moved.product(v, g))


def test_weights_on_a_mixed_basis_take_no_charpoly_above_1x1(monkeypatch):
    # 60 shears among the squares ideal's indices leave the triple where it
    # is and fill h's action on the ideal; the weights come from the
    # lowering chains and the highest weight from the f-string of the line
    # ker e, so no eigenproblem is solved
    alg, levi = simple_sl2_leibniz(24)
    rng = random.Random(1)
    shears = []
    for _ in range(60):
        i, j = rng.sample(levi.i_indices, 2)
        shears.append((i, j, rng.choice([F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])))
    moved = conjugate(alg, shears)
    t = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    shapes = []

    def counted(m):
        shapes.append(m.shape())
        return charpoly(m)

    monkeypatch.setattr(eigen, "charpoly", counted)
    spaces = weight_decomposition(moved, squares_ideal(moved), t)
    assert spaces.complete and spaces.weights() == tuple(range(-24, 25, 2))
    assert shapes == []


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
        sum((c * v[k] for c, v in zip(coeffs, dense_basis(sq).data)), F(0))
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
        rows = dense_basis(span).data
        for u in rows:
            for v in rows:
                w = alg.product(u, v)
                if any(c != 0 for c in w):
                    prods.append(w)
        nxt = Subspace.from_vectors(alg.dim, prods)
        assert derived_subalgebra(alg, span) == nxt
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
