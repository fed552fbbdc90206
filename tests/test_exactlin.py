"""Tests for the exact rational linear algebra kernel.

Fixed expected values were produced by hand elimination; the randomized
properties cross-check against sympy, an independent implementation.
"""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibnizalg.exactlin import (
    Matrix,
    Subspace,
    charpoly,
    format_rational,
    kernel_of_constraints,
    nullspace,
    parse_rational,
    rational_eigen,
    rref,
    solve,
)
from leibnizalg.exactlin import _rational_roots, _root_bound

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

def test_rref_rank_deficient():
    r = rref(Matrix.from_rows([[2, 4], [1, 2]]))
    assert r.reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert r.rank == 1
    assert r.pivots == (0,)


def test_rref_identity_fixed():
    m = Matrix.identity(3)
    r = rref(m)
    assert r.reduced == m and r.rank == 3 and r.pivots == (0, 1, 2)


def test_rref_generic_invertible():
    # hand elimination: [[1,2],[3,4]] -> [[1,0],[0,1]]
    r = rref(Matrix.from_rows([[1, 2], [3, 4]]))
    assert r.reduced == Matrix.identity(2)
    assert r.rank == 2


@given(matrices())
@settings(max_examples=60)
def test_rref_idempotent(m):
    once = rref(m).reduced
    assert rref(once).reduced == once


@given(matrices())
@settings(max_examples=60)
def test_rref_matches_sympy(m):
    ours = rref(m)
    sym_reduced, sym_pivots = to_sympy(m).rref()
    assert to_sympy(ours.reduced) == sym_reduced
    assert ours.pivots == tuple(sym_pivots)


# ------------------------------------------------------------- nullspace

def test_nullspace_line():
    ns = nullspace(Matrix.from_rows([[1, 1]]))
    assert ns.basis == Matrix.from_rows([[1, -1]])


def test_nullspace_dependent_rows():
    ns = nullspace(Matrix.from_rows([[1, 2], [2, 4]]))
    assert ns.dim == 1
    assert ns.basis == Matrix.from_rows([[1, F(-1, 2)]])


def test_nullspace_trivial():
    assert nullspace(Matrix.identity(4)).dim == 0


@given(matrices())
@settings(max_examples=60)
def test_rank_nullity(m):
    assert rref(m).rank + nullspace(m).dim == m.cols


@given(matrices())
@settings(max_examples=60)
def test_nullspace_vectors_annihilate(m):
    ns = nullspace(m)
    for v in ns.basis.data:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_of_constraints_matches_dense():
    rows = [{0: F(1), 2: F(-1)}, {1: F(2), 2: F(2)}]
    dense = Matrix.from_rows([[1, 0, -1], [0, 2, 2]])
    assert kernel_of_constraints(rows, 3).basis == nullspace(dense).basis


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


def test_subspace_coords_of():
    s = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 2)])
    v = (F(3), F(-1), F(1))
    coords = s.coords_of(v)
    assert coords == (F(3), F(-1))
    assert s.coords_of((F(0), F(0), F(1))) is None


def subspaces(ambient):
    return st.lists(
        st.lists(rationals, min_size=ambient, max_size=ambient),
        min_size=0, max_size=ambient + 1,
    ).map(lambda vs: Subspace.from_vectors(ambient, vs))


@given(subspaces(4), subspaces(4))
@settings(max_examples=60)
def test_grassmann_identity(u, v):
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


@given(subspaces(4), subspaces(4))
@settings(max_examples=60)
def test_intersection_contained_in_both(u, v):
    w = u.intersect(v)
    for r in w.basis.data:
        assert u.contains(r) and v.contains(r)


@given(subspaces(5))
@settings(max_examples=40)
def test_sum_with_self_is_identity(u):
    assert u.sum(u) == u


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
        shifted = m - Matrix.identity(m.rows).scale(lam)
        for v in space.basis.data:
            assert all(x == 0 for x in shifted.apply(v))


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


def test_matrix_flatten_round_trip():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert Matrix.from_flat(m.flatten(), 2, 3) == m


def test_matrix_mul_apply_agree():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    v = (F(5), F(7))
    assert a.mul(b).apply(v) == a.apply(b.apply(v))
