"""Derivation algebras: exact kernels, grading, the inner + module-map +
raising-map split, and block analysis of the middle part."""

from fractions import Fraction as F

import pytest
import sympy

from leibnizalg import (
    LoweringBlockNonZero,
    Matrix,
    NoInnerMatch,
    StructureError,
    check_module_endomorphism,
    derivation_algebra,
    graded_parts,
    ideal_endo_blocks,
    inner_derivation_span,
    irreducible_decomposition_sl2,
    is_derivation,
    outer_candidates,
    outer_report,
    raising_map_report,
    scalar_of,
    split_all,
    split_derivation,
    squares_ideal,
)
from leibnizalg.catalog import (
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)
from leibnizalg.core import Algebra
from leibnizalg.sl2 import Sl2Triple


EXPECTED_DIMS = {
    # label -> (dim Der, dim inner)
    "sl2": (3, 3),
    "two_dim_solvable": (2, 1),
    "simple_m2": (5, 3),
    "simple_m3": (4, 3),
    "simple_m4": (4, 3),
    "pair_m1": (7, 6),
    "pair_m2": (7, 6),
    "direct_sum_m2_m3": (9, 6),
}


def catalog_by_name():
    return {label: (alg, levi) for label, alg, levi in standard_catalog()}


def test_dimension_table():
    seen = catalog_by_name()
    for name, (dim_der, dim_inner) in EXPECTED_DIMS.items():
        alg, _ = seen[name]
        rep = outer_report(alg)
        assert (rep.dim_der, rep.dim_inner) == (dim_der, dim_inner), name
        assert rep.dim_outer == dim_der - dim_inner


def sympy_derivation_dim(alg):
    """Dense nullspace of the full derivation constraint system."""
    n = alg.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = {}
                for l, c in alg.c(i, j):
                    row[k * n + l] = row.get(k * n + l, F(0)) + c
                for l in range(n):
                    for kk, c in alg.c(l, j):
                        if kk == k:
                            row[l * n + i] = row.get(l * n + i, F(0)) - c
                    for kk, c in alg.c(i, l):
                        if kk == k:
                            row[l * n + j] = row.get(l * n + j, F(0)) - c
                dense = [F(0)] * (n * n)
                for pos, val in row.items():
                    dense[pos] = val
                rows.append(dense)
    m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                       for v in r] for r in rows])
    return len(m.nullspace())


@pytest.mark.parametrize("maker", [sl2, two_dim_solvable,
                                   lambda: simple_sl2_leibniz(2)])
def test_dims_against_dense_oracle(maker):
    out = maker()
    alg = out[0] if isinstance(out, tuple) else out
    assert derivation_algebra(alg).dim == sympy_derivation_dim(alg)


def test_two_dim_solvable_derivations_explicit():
    # [b,a] = 0, [a,a] = b forces d(a) = s*a + t*b, d(b) = 2s*b
    alg = two_dim_solvable()
    basis = derivation_algebra(alg)
    for s, t in [(F(1), F(0)), (F(0), F(1)), (F(2), F(-3))]:
        mat = Matrix.from_rows([[s, F(0)], [t, 2 * s]])
        assert is_derivation(alg, mat)
        assert basis.span.contains(mat.flatten())
    bad = Matrix.from_rows([[F(1), F(0)], [F(0), F(1)]])
    assert not is_derivation(alg, bad)


def test_basis_maps_are_derivations():
    for _, alg, _levi in standard_catalog():
        for mat in derivation_algebra(alg).maps:
            assert is_derivation(alg, mat)


def test_matrix_unit_fails_on_sl2():
    alg, _ = sl2()
    e00 = Matrix.from_rows([[F(1), F(0), F(0)],
                            [F(0), F(0), F(0)],
                            [F(0), F(0), F(0)]])
    assert not is_derivation(alg, e00)


def test_inner_span_inside_derivations():
    for _, alg, _levi in standard_catalog():
        der = derivation_algebra(alg)
        assert der.span.contains_subspace(inner_derivation_span(alg))


def test_membership_matches_predicate():
    alg, _ = simple_sl2_leibniz(2)
    der = derivation_algebra(alg)
    inside = der.maps[0]
    assert is_derivation(alg, inside) == der.span.contains(inside.flatten())
    outside = Matrix.from_rows(
        [[F(1)] + [F(0)] * 5] + [[F(0)] * 6 for _ in range(5)])
    assert is_derivation(alg, outside) == der.span.contains(outside.flatten())
    assert not is_derivation(alg, outside)


# ----------------------------------------------------------------- grading

def test_graded_parts_reassemble():
    for _, alg, levi in standard_catalog():
        if levi is None:
            continue
        for mat in derivation_algebra(alg).maps:
            parts = graded_parts(levi, mat)
            total = parts.diagonal + parts.raising + parts.lowering
            assert total == mat
            assert parts.lowering.is_zero()


def test_lowering_detector():
    alg, levi = simple_sl2_leibniz(2)
    bad = Matrix.from_rows([r[:] for r in
                            [[F(0)] * 6 for _ in range(6)]])
    rows = [[F(0)] * 6 for _ in range(6)]
    rows[0][3] = F(1)  # sends the module's top vector into the sl2 block
    bad = Matrix.from_rows(rows)
    with pytest.raises(LoweringBlockNonZero):
        split_derivation(alg, levi, bad)


# ------------------------------------------------------------------- split

def test_split_reconstructs_catalog_wide():
    for _, alg, levi in standard_catalog():
        if levi is None:
            continue
        survey = split_all(alg, levi)
        sq = squares_ideal(alg)
        for mat, split in zip(survey.basis.maps, survey.splits):
            rebuilt = (alg.right_mult(split.inner_element)
                       + split.ideal_endo + split.raising_map)
            assert rebuilt == mat
            assert check_module_endomorphism(alg, split.ideal_endo)
            # the raising part must kill the whole ideal
            for v in sq.basis.data:
                assert all(c == 0 for c in split.raising_map.apply(v))


def test_module_endomorphism_check_rejects_a_changed_entry():
    alg, levi = semisimple_pair(1)
    first = levi.i_indices[0]
    for split in split_all(alg, levi).splits:
        endo = split.ideal_endo
        assert check_module_endomorphism(alg, endo)
        rows = [list(r) for r in endo.data]
        rows[first][first] += 1
        assert not check_module_endomorphism(alg, Matrix.from_rows(rows))


def test_split_of_inner_is_inner():
    alg, levi = simple_sl2_leibniz(3)
    g = (F(2), F(-1), F(3), F(0), F(0), F(0), F(0))
    split = split_derivation(alg, levi, alg.right_mult(g))
    assert split.inner_element == g
    assert split.ideal_endo.is_zero()
    assert split.raising_map.is_zero()


def test_split_shift_by_inner():
    alg, levi = simple_sl2_leibniz(2)
    d = derivation_algebra(alg).maps[-1]
    g = (F(1), F(2), F(0), F(0), F(0), F(0))
    base = split_derivation(alg, levi, d)
    shifted = split_derivation(alg, levi, d + alg.right_mult(g))
    assert shifted.inner_element == tuple(
        a + b for a, b in zip(base.inner_element, g))
    assert shifted.ideal_endo == base.ideal_endo
    assert shifted.raising_map == base.raising_map


def test_simple_m2_raising_line():
    # the unique outer direction acts on (e,f,h) by
    #   e -> 2*scale*x0,  f -> scale*x2,  h -> 2*scale*x1
    alg, levi = simple_sl2_leibniz(2)
    survey = split_all(alg, levi)
    nonzero = [s.raising_map for s in survey.splits
               if not s.raising_map.is_zero()]
    assert len(nonzero) == 1
    delta = nonzero[0]
    scale = delta.data[3][0] / 2  # row x0, column e
    assert scale != 0
    x0, x1, x2 = (alg.basis_vector(3), alg.basis_vector(4),
                  alg.basis_vector(5))
    scaled = {0: tuple(2 * scale * c for c in x0),
              1: tuple(scale * c for c in x2),
              2: tuple(2 * scale * c for c in x1)}
    for col, want in scaled.items():
        assert delta.apply(alg.basis_vector(col)) == want


def test_no_inner_match_for_trace_map():
    # scalar-on-sl2 map: restricts to a multiple of the identity on the
    # Levi block, never matches a right multiplication (those are traceless)
    alg, levi = sl2()
    ident = Matrix.from_rows([[F(1), F(0), F(0)],
                              [F(0), F(1), F(0)],
                              [F(0), F(0), F(1)]])
    with pytest.raises(NoInnerMatch):
        split_derivation(alg, levi, ident)


# ---------------------------------------------------------- middle blocks

def pair_components(alg, levi):
    t = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    return irreducible_decomposition_sl2(
        alg, squares_ideal(alg), t).components


def test_pair_outer_scalars_equal():
    for m in (1, 2, 3):
        alg, levi = semisimple_pair(m)
        comps = pair_components(alg, levi)
        cands = outer_candidates(alg)
        assert len(cands) == 1
        split = split_derivation(alg, levi, cands[0])
        rep = ideal_endo_blocks(alg, split.ideal_endo, comps)
        assert rep.offdiag_all_zero
        first, second = rep.scalars
        assert first is not None and second is not None
        assert first == second  # both columns scale identically
        assert first != 0


def test_identity_on_ideal_blocks():
    alg, levi = semisimple_pair(1)
    comps = pair_components(alg, levi)
    n = alg.dim
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(6, n):
        rows[i][i] = F(1)
    rep = ideal_endo_blocks(alg, Matrix.from_rows(rows), comps)
    assert rep.offdiag_all_zero
    assert rep.scalars == (F(1), F(1))


def test_column_swap_has_offdiagonal_blocks():
    alg, levi = semisimple_pair(1)
    comps = pair_components(alg, levi)
    n = alg.dim
    rows = [[F(0)] * n for _ in range(n)]
    for k in range(2):
        rows[6 + k][8 + k] = F(1)
        rows[8 + k][6 + k] = F(1)
    rep = ideal_endo_blocks(alg, Matrix.from_rows(rows), comps)
    assert not rep.offdiag_all_zero
    assert rep.scalars == (F(0), F(0))


def test_scalar_of_recognizer():
    ident2 = Matrix.from_rows([[F(3), F(0)], [F(0), F(3)]])
    assert scalar_of(ident2) == F(3)
    assert scalar_of(Matrix.from_rows([[F(0), F(0)], [F(0), F(0)]])) == F(0)
    assert scalar_of(Matrix.from_rows([[F(1), F(0)], [F(0), F(2)]])) is None
    assert scalar_of(Matrix.from_rows([[F(1), F(0), F(0)],
                                       [F(0), F(1), F(0)]])) is None


# ------------------------------------------------------------ raising maps

def test_raising_classifications():
    alg, levi = sl2()
    zero = Matrix.from_rows([[F(0)] * 3 for _ in range(3)])
    rep = raising_map_report(alg, levi, zero)
    assert rep.classification == "zero"
    assert rep.violations == ()

    salg, slevi = simple_sl2_leibniz(2)
    survey = split_all(salg, slevi)
    nonzero = [s.raising_map for s in survey.splits
               if not s.raising_map.is_zero()][0]
    rep = raising_map_report(salg, slevi, nonzero)
    assert rep.classification == "equals_squares_ideal"
    assert rep.violations == ()
    assert rep.image_span == squares_ideal(salg)


def test_raising_violation_detected():
    # send e to x0 and nothing else: the one-sided identity
    # raising([x,y]) = [raising(x), y] fails exactly on (e,f) and (h,e)
    alg, levi = simple_sl2_leibniz(2)
    rows = [[F(0)] * 6 for _ in range(6)]
    rows[3][0] = F(1)
    fabricated = Matrix.from_rows(rows)
    rep = raising_map_report(alg, levi, fabricated)
    assert rep.classification == "other"
    assert rep.violations == ((0, 1), (2, 0))


# ----------------------------------------------------------------- outer

def test_outer_candidate_counts():
    for name, (dim_der, dim_inner) in EXPECTED_DIMS.items():
        alg, _ = catalog_by_name()[name]
        cands = outer_candidates(alg)
        assert len(cands) == dim_der - dim_inner, name
        span = inner_derivation_span(alg)
        for mat in cands:
            assert not span.contains(mat.flatten())


def test_outer_report_raises_on_broken_table():
    # a non-Leibniz table can make some right multiplication fail to be a
    # derivation, leaving the inner span outside the kernel
    broken = Algebra(2, {(0, 1): [(0, F(1))], (1, 1): [(1, F(1))],
                         (0, 0): [(1, F(1))]}, ("p", "q"))
    with pytest.raises(StructureError):
        outer_report(broken)
