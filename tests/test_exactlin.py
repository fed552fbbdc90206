"""Tests for the exact rational linear algebra kernel.

Fixed expected values were produced by hand elimination; the randomized
properties cross-check against sympy, an independent implementation.
"""

import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leibnizalg import (
    Sl2Triple,
    eigen,
    highest_weight_vectors,
    irreducible_decomposition_sl2,
    is_simple_certified,
    squares_ideal,
    weight_decomposition,
)
from leibnizalg.exactlin import (
    Matrix,
    SparseRref,
    Subspace,
    format_rational,
    kernel_of_constraints,
    nullspace,
    parse_rational,
    solve,
)
from leibnizalg.catalog import simple_sl2_leibniz
from leibnizalg.core import kernel_maps
from leibnizalg.eigen import _rational_roots, _root_bound, charpoly, rational_eigen
from reference import dense_basis

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r, max_size=r).map(Matrix.from_rows)))


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in m.data for x in row])


# ------------------------------------------------------------- rationals

def test_parse_and_format_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(5) == F(5)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-6, 3)) == "-2"
    assert format_rational(F(0)) == "0"


@given(rationals)
def test_format_parse_identity(q):
    assert parse_rational(format_rational(F(q))) == q


# ------------------------------------------------------------------ rref
# A subspace's basis is the RREF of its spanning vectors with zero rows dropped.

def rref_of(m: Matrix) -> Subspace:
    return Subspace.from_vectors(m.cols, m.data)


def test_rref_rank_deficient():
    r = rref_of(Matrix.from_rows([[2, 4], [1, 2]]))
    assert dense_basis(r) == Matrix.from_rows([[1, 2]])
    assert r.dim == 1
    assert r.pivot_cols() == (0,)


def test_rref_identity_fixed():
    m = Matrix.identity(3)
    r = rref_of(m)
    assert dense_basis(r) == m and r.dim == 3 and r.pivot_cols() == (0, 1, 2)


def test_rref_generic_invertible():
    # hand elimination: [[1,2],[3,4]] -> [[1,0],[0,1]]
    r = rref_of(Matrix.from_rows([[1, 2], [3, 4]]))
    assert dense_basis(r) == Matrix.identity(2)
    assert r.dim == 2


@given(matrices())
@settings(max_examples=60)
def test_rref_idempotent(m):
    once = rref_of(m)
    assert rref_of(dense_basis(once)) == once


@given(matrices())
@settings(max_examples=60)
def test_rref_matches_sympy(m):
    ours = rref_of(m)
    sym_reduced, sym_pivots = to_sympy(m).rref()
    assert to_sympy(dense_basis(ours)) == sym_reduced[:len(sym_pivots), :]
    assert ours.pivot_cols() == tuple(sym_pivots)
    # the sparse entry point, given every entry (explicit zeros included)
    # plus the negated first row and the sum of the first and last rows,
    # which cancel during elimination without changing the span
    first, last = m.data[0], m.data[-1]
    rows = [dict(enumerate(r)) for r in m.data]
    rows.append({c: -x for c, x in enumerate(first)})
    rows.append({c: x + y for c, (x, y) in enumerate(zip(first, last))})
    assert Subspace.span(m.cols, rows) == ours


# ------------------------------------------------------------- nullspace

def test_nullspace_line():
    ns = nullspace(Matrix.from_rows([[1, 1]]))
    assert dense_basis(ns) == Matrix.from_rows([[1, -1]])


def test_nullspace_dependent_rows():
    ns = nullspace(Matrix.from_rows([[1, 2], [2, 4]]))
    assert ns.dim == 1
    assert dense_basis(ns) == Matrix.from_rows([[1, F(-1, 2)]])


def test_nullspace_trivial():
    assert nullspace(Matrix.identity(4)).dim == 0


@given(matrices())
@settings(max_examples=60)
def test_rank_nullity(m):
    assert rref_of(m).dim + nullspace(m).dim == m.cols


@given(matrices())
@settings(max_examples=60)
def test_nullspace_vectors_annihilate(m):
    ns = nullspace(m)
    for v in dense_basis(ns).data:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_of_constraints_matches_dense():
    rows = [{0: F(1), 2: F(-1)}, {1: F(2), 2: F(2)}]
    dense = Matrix.from_rows([[1, 0, -1], [0, 2, 2]])
    assert dense_basis(kernel_of_constraints(rows, 3)) == dense_basis(nullspace(dense))


@pytest.mark.parametrize("rows", [[{5: 1}], [{0: 1, 5: 1}], [{-1: F(1, 2)}]])
def test_kernel_of_constraints_rejects_columns_outside_the_unknowns(rows):
    # {5: 1} alone once gave the whole space back, {0: 1, 5: 1} a KeyError
    with pytest.raises(ValueError, match="outside the ambient space"):
        kernel_of_constraints(rows, 3)


def assert_indexes(eng: SparseRref):
    """holders[c] is exactly the set of stored rows with an entry at the
    non-pivot column c, and no other column has a key; pinned is exactly
    the set of pivots whose stored row is a unit row."""
    expected: dict[int, set[int]] = {}
    for p, row in eng.pivots.items():
        for c in row:
            if c != p:
                expected.setdefault(c, set()).add(p)
    assert eng.holders == expected
    assert eng.pinned == {p for p, row in eng.pivots.items() if len(row) == 1}
    assert all(abs(eng.pivots[p][p]) == 1 for p in eng.pinned)


def assert_rref_matches_sympy(eng: SparseRref, ncols: int, rows) -> None:
    dense = sympy.Matrix([[sympy.Rational(F(row.get(c, 0))) for c in range(ncols)]
                          for row in rows])
    reduced, pivots = dense.rref()
    expected = [(p, {c: F(int(x.p), int(x.q)) for c, x in enumerate(reduced.row(i)) if x})
                for i, p in enumerate(pivots)]
    assert [(p, {c: F(v, row[p]) for c, v in row.items()})
            for p, row in sorted(eng.pivots.items())] == expected


entries = st.one_of(st.integers(-4, 4), rationals)


@st.composite
def sparse_systems(draw):
    """(ncols, rows): sparse rows with int and Fraction entries, explicit
    zeros, and rows that repeat or combine earlier ones."""
    ncols = draw(st.integers(1, 8))
    rows: list[dict[int, object]] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "combine"]))
        if kind == "fresh" or not rows:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=4))
            rows.append({c: draw(entries) for c in cols})
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entries), draw(entries)
            rows.append({c: a * r1.get(c, 0) + b * r2.get(c, 0)
                         for c in r1.keys() | r2.keys()})
    return ncols, rows


@given(sparse_systems())
@settings(max_examples=150)
def test_sparse_rref_matches_sympy_and_keeps_its_index(system):
    ncols, rows = system
    eng = SparseRref(ncols)
    for row in rows:
        eng.add_row(row)
        assert_indexes(eng)
    assert_rref_matches_sympy(eng, ncols, rows)


@pytest.mark.parametrize("rows, pinned, kernel_dim", [
    # an explicit zero says nothing about its column
    ([{0: 0}, {1: 0, 2: 3}], {2}, 2),
    # a unit row after rows holding its column: deleting the column leaves
    # both of them unit rows
    ([{0: 2, 2: 1}, {1: F(1, 3), 2: -1}, {2: F(-5, 7)}], {0, 1, 2}, 0),
    # the earlier pivot reduces the second row to one entry; the third row
    # holds only pinned columns and is dropped before any arithmetic
    ([{0: 1, 1: 1}, {0: 2, 1: 2, 2: -4}, {2: 3, 1: 0}], {2}, 1),
    # a unit pivot arriving after a row whose other entries are pinned
    ([{1: 1}, {0: 1, 1: 2, 2: 1}, {2: F(1, 2), 1: 5}], {0, 1, 2}, 0),
])
def test_sparse_rref_pins_the_columns_unit_rows_force_to_zero(rows, pinned, kernel_dim):
    eng = SparseRref(3)
    for row in rows:
        eng.add_row(row)
        assert_indexes(eng)
    assert eng.pinned == pinned
    assert len(eng.kernel_rows()) == kernel_dim
    assert_rref_matches_sympy(eng, 3, rows)


@st.composite
def presolve_systems(draw):
    """(ncols, rows): sparse integer rows with explicit zeros, rows whose
    entries cancel at a shared column, and unit rows {c: x}, each column's
    drawn once or more and placed before, between or after the rows that
    hold c; and a cut that splits the rows into two streams."""
    ncols = draw(st.integers(1, 8))
    rows: list[dict[int, int]] = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            shared = sorted(r1.keys() & r2.keys())
            if shared:  # a cancelling combination keeps c as an explicit zero
                c = draw(st.sampled_from(shared))
                a, b = r2[c], -r1[c]
                rows.append({k: a * r1.get(k, 0) + b * r2.get(k, 0)
                             for k in r1.keys() | r2.keys()})
                continue
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=4))
        rows.append({c: draw(st.integers(-4, 4)) for c in cols})
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for _ in range(draw(st.integers(1, 3))):
            rows.insert(draw(st.integers(0, len(rows))),
                        {c: draw(st.integers(-3, 3).filter(bool))})
    return ncols, rows, draw(st.integers(0, len(rows)))


@given(presolve_systems())
@settings(max_examples=150)
def test_presolve_keeps_the_kernel_and_the_indexes(system):
    # extend pins each one-term row's column as it arrives and holds the
    # other rows until the stream ends; the kernel is sympy's.  A second
    # stream meets the first one's stored rows, where a one-term row at a
    # pivot that is not pinned must be eliminated
    ncols, rows, cut = system
    eng = SparseRref(ncols)
    eng.extend(rows[:cut])
    assert_indexes(eng)
    eng.extend(rows[cut:])
    assert_indexes(eng)
    assert_rref_matches_sympy(eng, ncols, rows)
    dense = sympy.Matrix(len(rows), ncols, [row.get(c, 0) for row in rows
                                            for c in range(ncols)])
    null = dense.nullspace()
    expected = {}
    if null:
        reduced, pivots = sympy.Matrix.hstack(*null).T.rref()
        expected = {p: {c: F(int(x.p), int(x.q)) for c, x in enumerate(reduced.row(i)) if x}
                    for i, p in enumerate(pivots)}
    assert Subspace.span(ncols, eng.kernel_rows()).pivot_rows == expected


# ----------------------------------------------------------------- solve

def test_solve_identity():
    b = (F(1), F(2), F(3))
    assert solve(Matrix.identity(3), b) == b


def test_solve_underdetermined_zeros_free_vars():
    assert solve(Matrix.from_rows([[1, 1]]), [F(2)]) == (F(2), F(0))


def test_solve_inconsistent():
    assert solve(Matrix.from_rows([[1], [1]]), [F(1), F(2)]) is None


@given(matrices(), st.data())
@settings(max_examples=60)
def test_solve_exactness(m, data):
    x = tuple(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b


# ------------------------------------------------------------- subspaces

def test_subspace_membership():
    s = Subspace.from_vectors(2, [(F(1), F(1))])
    assert s.contains((F(2), F(2)))
    assert not s.contains((F(1), F(0)))


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace.from_vectors(3, [(2, 2, 2), (0, 0, -5)])
    assert a == b


def subspaces(ambient):
    return st.lists(
        st.lists(rationals, min_size=ambient, max_size=ambient),
        min_size=0, max_size=ambient + 1,
    ).map(lambda vs: Subspace.from_vectors(ambient, vs))


@given(subspaces(5))
@settings(max_examples=40)
def test_sum_with_self_is_identity(u):
    assert u.sum(u) == u


def dense_residue(s: Subspace, v) -> tuple:
    """Reference reduction: every dense RREF row in turn, read at its pivot
    and subtracted across the whole vector."""
    residue = [F(x) for x in v]
    for row in dense_basis(s).data:
        p = next(c for c, x in enumerate(row) if x)
        t = residue[p]
        if t:
            residue = [a - t * b for a, b in zip(residue, row)]
    return tuple(residue)


entries = st.one_of(rationals, st.integers(-9, 9))


@given(subspaces(5), st.data())
@settings(max_examples=60)
def test_residue_matches_dense_reference(s, data):
    coeffs = data.draw(st.lists(entries, min_size=s.dim, max_size=s.dim))
    inside = tuple(sum((c * row[k] for c, row in zip(coeffs, dense_basis(s).data)), F(0))
                   for k in range(5))
    outside = tuple(data.draw(st.lists(entries, min_size=5, max_size=5)))
    for v in (inside, outside):
        r = s.residue(v)
        assert r == dense_residue(s, v)
        # the sparse form, given explicit zeros; inside, every entry cancels
        assert s.reduce(dict(enumerate(v))) == {c: x for c, x in enumerate(r) if x}
        assert all(r[p] == 0 for p in s.pivot_cols())
        assert s.contains(v) == (not any(r))
    assert s.contains(inside)


big_entries = st.one_of(
    entries,
    st.integers(2 ** 64, 2 ** 80).flatmap(lambda b: st.sampled_from([b, -b])),
    st.builds(F, st.integers(-2 ** 80, 2 ** 80), st.integers(2 ** 64, 2 ** 80)))


def row_forms(v):
    """A dense vector as sparse rows: with every zero explicit, with none,
    and (scaled by its denominators' lcm) with int entries."""
    den = math.lcm(*(F(x).denominator for x in v))
    return [dict(enumerate(v)), {c: x for c, x in enumerate(v) if x},
            {c: int(x * den) for c, x in enumerate(v) if x}]


@given(st.lists(st.lists(big_entries, min_size=5, max_size=5), max_size=6),
       st.data())
@settings(max_examples=80)
def test_holds_agrees_with_reduce(vectors, data):
    s = Subspace.from_vectors(5, vectors)
    coeffs = data.draw(st.lists(big_entries, min_size=s.dim, max_size=s.dim))
    inside = [sum((c * row[k] for c, row in zip(coeffs, dense_basis(s).data)), F(0))
              for k in range(5)]
    nudged = list(inside)
    nudged[data.draw(st.integers(0, 4))] += data.draw(big_entries)
    outside = data.draw(st.lists(big_entries, min_size=5, max_size=5))
    for v in (inside, nudged, outside, [0] * 5):
        for row in row_forms(v):
            assert s.holds(row) == (not s.reduce(row))
    assert all(map(s.holds, row_forms(inside)))
    assert s.holds({})
    assert s.contains_subspace(Subspace.from_vectors(5, [inside]))


def assert_canonical(s: Subspace) -> None:
    """The stored form: pivots ascending, int entries, each row primitive
    with a positive lead at its pivot and zeros at the other pivots; the
    view ``pivot_rows`` is each row divided by its lead."""
    assert list(s.rows) == sorted(s.rows)
    for p, row in s.rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1
        assert row.keys() & s.rows.keys() == {p}
    assert s.pivot_rows == {p: {c: F(v, row[p]) for c, v in row.items()}
                            for p, row in s.rows.items()}


@given(st.lists(st.lists(big_entries, min_size=5, max_size=5), max_size=6),
       st.sampled_from([0, 1, 2]), st.data())
@settings(max_examples=80)
def test_every_constructor_stores_canonical_integer_rows(vectors, form, data):
    # rows as Fractions with explicit zeros, without zeros, or as ints
    s = Subspace.span(5, (row_forms(v)[form] for v in vectors))
    cols = data.draw(st.lists(st.integers(0, 4), max_size=6))
    built = [s, s.sum(data.draw(subspaces(5))),
             Subspace.coordinate(5, cols), Subspace.zero(5), Subspace.full(5),
             kernel_of_constraints((row_forms(v)[form] for v in vectors), 5)]
    for space in built:
        assert_canonical(space)


def test_span_rejects_columns_outside_the_ambient_space():
    for row in ({3: F(1)}, {-1: F(2)}, {0: F(1), 5: F(1)}):
        with pytest.raises(ValueError, match="outside the ambient space"):
            Subspace.span(3, [row])


@given(st.lists(st.integers(0, 5), max_size=8))
def test_coordinate_is_the_span_of_its_unit_rows(cols):
    assert Subspace.coordinate(6, cols) == Subspace.span(6, [{c: F(1)} for c in cols])
    assert Subspace.coordinate(6, range(6)) == Subspace.full(6)


def test_coordinate_rejects_columns_outside_the_ambient_space():
    for cols in ([3], [-1], [0, 5]):
        with pytest.raises(ValueError) as from_span:
            Subspace.span(3, [{c: F(1)} for c in cols])
        with pytest.raises(ValueError) as direct:
            Subspace.coordinate(3, cols)
        assert str(direct.value) == str(from_span.value)


def test_coordinate_runs_no_elimination(monkeypatch):
    built = []
    engine_init = SparseRref.__init__

    def counted(self, ncols):
        built.append(ncols)
        engine_init(self, ncols)

    monkeypatch.setattr(SparseRref, "__init__", counted)
    assert Subspace.coordinate(4, [3, 1]) == Subspace(4, {1: {1: 1}, 3: {3: 1}})
    assert built == []
    Subspace.span(4, [{0: F(1)}])
    assert built == [4]


def test_weights_span_once_per_weight_space(monkeypatch):
    # one span per weight space, plus a constant: four for
    # highest_weight_vectors (e's kernel, and at the one weight the kernels
    # of h - 16 and of f^16 on it and the span of the weight's vectors),
    # the one component and the chains' total for the weights, and the four
    # again for highest_weight_vectors
    alg, levi = simple_sl2_leibniz(16)
    sq = squares_ideal(alg)
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    calls = []
    span = Subspace.span

    def counted(ambient_dim, rows):
        calls.append(ambient_dim)
        return span(ambient_dim, rows)

    monkeypatch.setattr(Subspace, "span", staticmethod(counted))
    weights = weight_decomposition(alg, sq, triple).weights()
    highest = highest_weight_vectors(alg, sq, triple)
    assert len(weights) == 17 and [hw.weight for hw in highest] == [16]
    assert len(calls) == len(weights) + 10


def test_residue_rejects_wrong_length():
    s = Subspace.from_vectors(3, [(1, 0, 1)])
    with pytest.raises(ValueError):
        s.residue((F(1), F(0)))
    with pytest.raises(ValueError):
        s.residue((1, 0, 1, 0))


# ---------------------------------------------------------------- eigen

def test_charpoly_companion_values():
    # det(xI - m) for [[0,-1],[1,0]] is x^2 + 1
    assert charpoly(Matrix.from_rows([[0, -1], [1, 0]])) == (F(1), F(0), F(1))
    assert charpoly(Matrix.identity(2)) == (F(1), F(-2), F(1))


@given(matrices(4, 4).filter(lambda m: m.rows == m.cols))
@settings(max_examples=40)
def test_charpoly_matches_sympy(m):
    x = sympy.Symbol("x")
    sym = sympy.Poly(to_sympy(m).charpoly(x), x).all_coeffs()
    ours = [sympy.Rational(c.numerator, c.denominator) for c in charpoly(m)]
    assert ours == sym


def square_matrices(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix.from_rows)


def poly_from(*factors):
    """Descending Fraction coefficients of a product of coefficient lists."""
    out = [F(1)]
    for f in factors:
        prod = [F(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def linear(root):
    """q·x - p for the root p/q."""
    root = F(root)
    return [F(root.denominator), F(-root.numerator)]


def test_rational_roots_double_root():
    # the double root 2 is a bisection midpoint; without the square-free
    # part every Sturm polynomial vanishes there and the root 3 is lost
    p = poly_from(linear(2), linear(2), linear(3), linear(-1))
    assert _rational_roots(p) == [F(-1), F(2), F(3)]


def test_rational_roots_zero_of_multiplicity_three():
    assert _rational_roots(poly_from([1, 0, 0, 0], linear(5))) == [F(0), F(5)]
    assert _rational_roots([F(1), F(0), F(0), F(0)]) == [F(0)]


def test_rational_roots_none_rational():
    assert _rational_roots([F(1), F(0), F(1)]) == []
    assert _rational_roots([F(1), F(0), F(-2)]) == []
    assert _rational_roots([F(7)]) == []


def test_rational_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        _rational_roots([F(0), F(0)])


def test_rational_roots_non_monic_lead():
    # (7x + 3)(12x - 5)(x^2 + x + 1), scaled by 1/6: lead 14 after clearing
    p = [c / 6 for c in poly_from(linear(F(-3, 7)), linear(F(5, 12)), [1, 1, 1])]
    assert _rational_roots(p) == [F(-3, 7), F(5, 12)]


def test_rational_roots_huge():
    big = 10 ** 25
    p = poly_from(linear(big), linear(-big), linear(F(1, 3)), [1, 0, 3])
    assert _rational_roots(p) == [F(-big), F(1, 3), F(big)]


def test_rational_roots_on_a_bisection_midpoint():
    # the root bound is a power of two 2^k > 8, so bisection from
    # (-2^k, 2^k] meets the midpoints 2^(k-1), ..., 8, 4 and -2^(k-1), ...,
    # -8 while intervals are still wider than 1 = 1/lead^2
    p = poly_from(linear(4), linear(-8), [1, 0, 5])
    bound = _root_bound([int(c) for c in p])
    assert bound > 8 and bound & (bound - 1) == 0
    assert _rational_roots(p) == [F(-8), F(4)]
    assert _rational_roots(linear(4)) == [F(4)]


def test_rational_roots_next_to_an_irrational_root():
    # 1414213/10^6 lies within 1e-6 of sqrt(2), a root of x^2 - 2
    near = F(1414213, 10 ** 6)
    assert abs(near ** 2 - 2) < F(2, 10 ** 6)
    p = poly_from(linear(near), [1, 0, -2])
    assert _rational_roots(p) == [near]


root_numerators = st.integers(10 ** 6, 10 ** 8).flatmap(
    lambda n: st.sampled_from([n, -n]))
big_roots = st.builds(F, root_numerators, st.integers(1, 50))


@given(st.lists(big_roots, min_size=5, max_size=7),
       st.integers(0, 2),
       st.tuples(st.integers(1, 9), st.integers(-20, 20), st.integers(-50, 50)))
@settings(max_examples=60)
def test_rational_roots_match_sympy(roots, repeats, quad):
    a, b, c = quad
    disc = b * b - 4 * a * c
    assume(c != 0 and (disc < 0 or math.isqrt(disc) ** 2 != disc))
    coeffs = poly_from(*(linear(r) for r in roots + roots[:repeats]), [a, b, c])
    assert len(str(abs(coeffs[-1].numerator))) >= 30
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(q.numerator, q.denominator) for q in coeffs], x)
    expected = sorted(F(int(r.p), int(r.q)) for r in sympy.roots(poly, filter="Q"))
    assert expected == sorted(set(roots))
    assert _rational_roots(coeffs) == expected


def test_rational_eigen_diagonal():
    ed = rational_eigen(Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]]))
    assert [lam for lam, _ in ed.pairs] == [F(-2), F(0), F(2)]
    assert all(space.dim == 1 for _, space in ed.pairs)
    assert ed.complete


def test_rational_eigen_identity():
    ed = rational_eigen(Matrix.identity(3))
    assert len(ed.pairs) == 1
    lam, space = ed.pairs[0]
    assert lam == 1 and space.dim == 3 and ed.complete


def test_rational_eigen_rotation_incomplete():
    ed = rational_eigen(Matrix.from_rows([[0, -1], [1, 0]]))
    assert ed.pairs == () and not ed.complete


def test_rational_eigen_jordan_incomplete():
    ed = rational_eigen(Matrix.from_rows([[1, 1], [0, 1]]))
    assert len(ed.pairs) == 1 and ed.pairs[0][1].dim == 1
    assert not ed.complete


def test_rational_eigen_fractional_eigenvalue():
    ed = rational_eigen(Matrix.from_rows([[F(1, 2), 0], [1, F(-3, 4)]]))
    assert [lam for lam, _ in ed.pairs] == [F(-3, 4), F(1, 2)]
    assert ed.complete


@given(st.integers(2, 4).flatmap(square_matrices))
@settings(max_examples=40)
def test_eigenvectors_are_eigenvectors(m):
    ed = rational_eigen(m)
    for lam, space in ed.pairs:
        for v in dense_basis(space).data:
            assert m.apply(v) == tuple(lam * x for x in v)


@given(st.integers(2, 4).flatmap(square_matrices))
@settings(max_examples=40)
def test_eigenvalues_match_sympy_rational_roots(m):
    ours = {lam for lam, _ in rational_eigen(m).pairs}
    sym = {
        sympy.Rational(r)
        for r in to_sympy(m).eigenvals()
        if r.is_rational
    }
    sym = {F(int(r.p), int(r.q)) for r in sym}
    assert ours == sym


# ------------------------------------------- Berkowitz on sparse integer rows
# charpoly clears one denominator for the whole matrix, multiplies only
# nonzero entries and ends a step once its vector has vanished; each case
# below drives one of those branches and is checked against sympy.

def assert_eigen_matches_sympy(m: Matrix):
    """charpoly is sympy's, and rational_eigen has exactly sympy's rational
    eigenvalues, ascending, with the same eigenspaces."""
    x = sympy.Symbol("x")
    sm = to_sympy(m)
    poly = sympy.Poly(sm.charpoly(x), x)
    assert [sympy.Rational(c.numerator, c.denominator)
            for c in charpoly(m)] == poly.all_coeffs()
    spaces = {}
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            lam = -b / a
            vecs = (sm - lam * sympy.eye(m.rows)).nullspace()
            spaces[F(int(lam.p), int(lam.q))] = Subspace.from_vectors(
                m.rows, [[F(int(c.p), int(c.q)) for c in v] for v in vecs])
    ed = rational_eigen(m)
    assert [lam for lam, _ in ed.pairs] == sorted(spaces)
    assert dict(ed.pairs) == spaces
    assert ed.complete == (sum(s.dim for s in spaces.values()) == m.rows)


def test_charpoly_clears_one_denominator_for_the_whole_matrix():
    # (x - 1/2)(x - 3); making each row primitive on its own would turn
    # diag(1/2, 3) into the identity, whose polynomial is (x - 1)^2
    m = Matrix.from_rows([[F(1, 2), 0], [0, 3]])
    assert charpoly(m) == (F(1), F(-7, 2), F(3, 2))
    assert_eigen_matches_sympy(m)


@given(st.lists(rationals, min_size=1, max_size=10))
@settings(max_examples=25)
def test_berkowitz_diagonal_matches_sympy(diag):
    n = len(diag)
    assert_eigen_matches_sympy(Matrix.from_rows(
        [[d if r == c else 0 for c in range(n)] for r, d in enumerate(diag)]))


@st.composite
def permuted_block_triangular(draw):
    """P·A·P^T for A block upper triangular (dense diagonal blocks of size
    1-3, sparse blocks above) and P a permutation."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    a = [[draw(rationals) if block[r] == block[c]
          or (block[r] < block[c] and draw(st.booleans())) else F(0)
          for c in range(n)] for r in range(n)]
    perm = draw(st.permutations(range(n)))
    return Matrix.from_rows([[a[perm[r]][perm[c]] for c in range(n)]
                             for r in range(n)])


@given(permuted_block_triangular())
@settings(max_examples=25)
def test_berkowitz_permuted_block_triangular_matches_sympy(m):
    assert_eigen_matches_sympy(m)


def test_berkowitz_vector_vanishing_mid_step():
    # at the last step c = e_1 and the leading block is the nilpotent shift,
    # so B_3·c = e_0 and B_3^2·c = 0 before the Toeplitz column is full
    m = Matrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [1, 2, 3, 5]])
    assert_eigen_matches_sympy(m)


@st.composite
def sparse_square_matrices(draw):
    n = draw(st.integers(6, 10))
    return Matrix.from_rows([[draw(rationals) if draw(st.integers(0, 4)) == 0
                              else F(0) for _ in range(n)] for _ in range(n)])


@given(sparse_square_matrices())
@settings(max_examples=20)
def test_berkowitz_sparse_matches_sympy(m):
    assert_eigen_matches_sympy(m)


mixed_denominators = st.builds(
    F, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 12]))


@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.lists(mixed_denominators, min_size=n, max_size=n),
    min_size=n, max_size=n).map(Matrix.from_rows)))
@settings(max_examples=25)
def test_berkowitz_mixed_denominators_match_sympy(m):
    assert_eigen_matches_sympy(m)


@pytest.mark.parametrize("m, seed", [(2, 1), (4, 2), (6, 3)])
def test_berkowitz_conjugated_weight_operator(m, seed):
    # h acting on the squares ideal of simple_sl2_leibniz(m) is diagonal;
    # a dense random change of basis P^-1·H·P leaves no zero to skip
    alg, levi = simple_sl2_leibniz(m)
    ideal = levi.i_indices
    rh = alg.right_mult(alg.basis_vector(levi.sl2_triples[0][2]))
    weight_op = to_sympy(Matrix.from_rows(
        [[rh.data[r][c] for c in ideal] for r in ideal]))
    rng = random.Random(seed)
    k = len(ideal)
    p = sympy.zeros(k, k)
    while p.det() == 0:
        p = sympy.Matrix(k, k, lambda r, c: sympy.Rational(
            rng.randint(-5, 5), rng.randint(1, 3)))
    conj = p.inv() * weight_op * p
    dense = Matrix.from_rows([[F(int(x.p), int(x.q)) for x in conj.row(r)]
                              for r in range(k)])
    assert_eigen_matches_sympy(dense)
    ed = rational_eigen(dense)
    assert [lam for lam, _ in ed.pairs] == list(range(-m, m + 1, 2))
    assert ed.complete


# ---------------------------- eigenspaces of block triangular matrices
# blocks that share an eigenvalue, or a Jordan pair split across two 1×1
# blocks, are where a per-block eigen solver would go wrong; sympy is the
# reference.

@st.composite
def block_triangular(draw):
    """P·B·P^T for B block upper triangular and P a permutation.

    Unlike ``permuted_block_triangular``'s random entries, the diagonal
    blocks come from a small pool: the scalars 0, 1 or 2 (so two blocks
    can share an eigenvalue, and an entry above two 1s is a Jordan pair
    split across two 1×1 blocks), the rotation [[0, -1], [1, 0]] (no
    rational eigenvalue) or a 2×2 over {0, 1, 2}.  Entries above the
    blocks are sparse, so a 0 block can leave a zero row or column."""
    small = st.sampled_from([F(0), F(1), F(2)])
    blocks = draw(st.lists(st.one_of(
        small.map(lambda d: [[d]]),
        st.just([[F(0), F(-1)], [F(1), F(0)]]),
        st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2)),
        min_size=1, max_size=5))
    which = [b for b, blk in enumerate(blocks) for _ in blk]
    n = len(which)
    a = [[F(0)] * n for _ in range(n)]
    start = 0
    for blk in blocks:
        for r, row in enumerate(blk):
            a[start + r][start:start + len(blk)] = row
        start += len(blk)
    for r in range(n):
        for c in range(n):
            if which[r] < which[c] and draw(st.integers(0, 2)) == 0:
                a[r][c] = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(3)]))
    perm = draw(st.permutations(range(n)))
    return Matrix.from_rows([[a[perm[r]][perm[c]] for c in range(n)]
                             for r in range(n)])


JORDAN_SPLIT = Matrix.from_rows([[1, 0], [1, 1]])
SHARED_COUPLED = Matrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 0, 1]])
SHARED_APART = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
ROTATION_ABOVE = Matrix.from_rows([[0, -1, 1], [1, 0, 0], [0, 0, 2]])
ZERO_ROW_AND_COLUMN = Matrix.from_rows([[0, 0, 0], [1, 2, 0], [0, 0, 0]])


@given(block_triangular())
@example(JORDAN_SPLIT)
@example(SHARED_COUPLED)
@example(SHARED_APART)
@example(ROTATION_ABOVE)
@example(ZERO_ROW_AND_COLUMN)
@settings(max_examples=60)
def test_block_eigen_matches_sympy(m):
    assert_eigen_matches_sympy(m)


@pytest.mark.parametrize("m, dims, complete", [
    # 1 -> 1 across two 1×1 blocks: one eigenvector, not two
    (JORDAN_SPLIT, {1: 1}, False),
    # 1 is an eigenvalue of the swap block and of the 1×1 block it reaches
    (SHARED_COUPLED, {-1: 1, 1: 1}, False),
    (SHARED_APART, {-1: 1, 1: 2}, True),
    # the rotation block adds no eigenvalue but reaches the block of 2
    (ROTATION_ABOVE, {2: 1}, False),
    (ZERO_ROW_AND_COLUMN, {0: 2, 2: 1}, True),
])
def test_block_eigen_named_cases(m, dims, complete):
    ed = rational_eigen(m)
    assert {lam: space.dim for lam, space in ed.pairs} == dims
    assert ed.complete == complete
    for lam, space in ed.pairs:
        for v in dense_basis(space).data:
            assert m.apply(v) == tuple(lam * x for x in v)


def test_sl2_takes_no_charpoly_and_eigen_takes_one_per_matrix(monkeypatch):
    # the weights, the decomposition and the simplicity verdict of the
    # simple family's squares ideal read integer kernels and f-strings; a
    # dense matrix takes one characteristic polynomial, of itself
    seen = []

    def counted(m):
        seen.append(m)
        return charpoly(m)

    monkeypatch.setattr(eigen, "charpoly", counted)
    alg, levi = simple_sl2_leibniz(16)
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    sq = squares_ideal(alg)
    spaces = weight_decomposition(alg, sq, triple)
    assert spaces.weights() == tuple(range(-16, 17, 2))
    assert irreducible_decomposition_sl2(alg, sq, triple).highest_weights == (16,)
    assert is_simple_certified(alg, levi).verdict == "yes"
    assert seen == []
    dense = Matrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    assert_eigen_matches_sympy(dense)
    assert seen == [dense]


def test_matrix_flatten_round_trip():
    # a leading 1 keeps the flattening its own RREF row
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 0]])
    assert m.flatten() == tuple(F(x) for x in (1, 2, 3, 4, 5, 6, 7, 8, 0))
    span = Subspace.span(9, [dict(enumerate(m.flatten()))])
    assert kernel_maps(span, 3) == (m,)


def test_matrix_mul_apply_agree():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    v = (F(5), F(7))
    assert a.mul(b).apply(v) == a.apply(b.apply(v))
