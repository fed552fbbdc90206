"""Derivation algebras: exact kernels, grading, the inner + module-map +
raising-map split, and block analysis of the middle part."""

import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from leibnizalg import (
    LoweringBlockNonZero,
    Matrix,
    NoInnerMatch,
    StructureError,
    centroid,
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
    _semidirect,
    _sl2_action,
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)
from leibnizalg import core, derivations, exactlin
from leibnizalg.core import (SL2_TABLE, Algebra, LeviDatum, ModuleError,
                             identity_rows, per_algebra)
from leibnizalg.derivations import DerivationBasis
from leibnizalg.sl2 import Sl2Triple
from reference import (conjugate, dense_basis, reference_endo_blocks,
                       reference_split)


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


BAD_SPLITS = {
    "uncovered": ((0, 1, 2), (3, 4)),
    "overlap": ((0, 1, 2, 3), (3, 4, 5)),
    "duplicate": ((0, 1, 2), (3, 4, 4, 5)),
}


@pytest.mark.parametrize("label", sorted(BAD_SPLITS))
@pytest.mark.parametrize("entry", ["graded_parts", "split_derivation"])
def test_split_must_partition_the_basis(label, entry):
    alg, _ = simple_sl2_leibniz(2)
    levi = LeviDatum(*BAD_SPLITS[label])
    d = derivation_algebra(alg).maps[0]
    with pytest.raises(ValueError, match="declared index sets do not partition the basis"):
        if entry == "graded_parts":
            graded_parts(levi, d)
        else:
            split_derivation(alg, levi, d)


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
            for v in dense_basis(sq).data:
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


# ------------------------------------------- the split against a reference

def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, StructureError) as exc:
        return type(exc), str(exc)


def assert_same_splits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.inner_element == w.inner_element
        assert g.ideal_endo == w.ideal_endo
        assert g.raising_map == w.raising_map
        assert g.derivation == w.derivation


def test_split_all_matches_the_reference_split_catalog_wide():
    for _, alg, levi in standard_catalog():
        if levi is None:
            continue
        want = [reference_split(alg, levi, m) for m in derivation_algebra(alg).maps]
        assert_same_splits(split_all(alg, levi).splits, want)


def sl2_module(weights):
    """sl2 ⋉ (V(m_1) ⊕ ... ⊕ V(m_r)) with its coordinate split; a
    trivial summand V(0) is declared in the ideal part all the same."""
    dim_v = sum(m + 1 for m in weights)
    names = ("e", "f", "h") + tuple(f"x{v}" for v in range(dim_v))
    alg = _semidirect(SL2_TABLE, _sl2_action(weights), names, "sl2_module")
    return alg, LeviDatum((0, 1, 2), tuple(range(3, 3 + dim_v)), ((0, 1, 2),))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_split_all_matches_the_reference_split_on_sl2_modules(weights):
    alg, levi = sl2_module(weights)
    maps = derivation_algebra(alg).maps
    assert_same_splits(split_all(alg, levi).splits,
                       [reference_split(alg, levi, m) for m in maps])
    # maps that are no derivations: a basis map plus a unit entry in the
    # lowering block, the complement block (which R(S) has to match), the
    # raising corner or the ideal block fails as the reference does
    n, g, ideal = alg.dim, levi.g_indices, levi.i_indices
    bumps = [(g[0], ideal[-1]), (g[-1], g[0]), (ideal[0], g[1]), (ideal[0], ideal[-1])]
    for m, (r, c) in zip(maps, bumps):
        columns = {k: dict(col) for k, col in m.columns.items()}
        columns.setdefault(c, {})[r] = columns.get(c, {}).get(r, F(0)) + 1
        bent = Matrix(n, n, columns)
        assert outcome(split_derivation, alg, levi, bent) == \
            outcome(reference_split, alg, levi, bent)


def fabricated_survey(monkeypatch, alg, maps):
    """split_all over maps in place of the derivation basis."""
    der = derivation_algebra(alg)
    monkeypatch.setattr(derivations, "derivation_algebra",
                        lambda _: DerivationBasis(alg, tuple(maps), der.span))


def test_split_all_raises_for_the_first_failing_map(monkeypatch):
    # maps 1 and 3 have no inner match (a scalar on sl2), or map 1 has a
    # lowering block: the first failing map in basis order decides the
    # error, as splitting the maps one by one does
    alg, levi = simple_sl2_leibniz(2)
    good = derivation_algebra(alg).maps
    n = alg.dim
    trace = Matrix(n, n, {c: {c: F(1)} for c in levi.g_indices})
    lowering = Matrix(n, n, {levi.i_indices[0]: {levi.g_indices[0]: F(1)}})
    cases = [
        ((good[0], trace, good[1], trace), NoInnerMatch),
        ((good[0], trace, good[1], lowering), NoInnerMatch),
        ((good[0], lowering, good[1], trace), LoweringBlockNonZero),
        ((trace, lowering), NoInnerMatch),
    ]
    for maps, error in cases:
        fabricated_survey(monkeypatch, alg, maps)
        with pytest.raises(error):
            split_all(alg, levi)
        for m in maps:
            assert outcome(split_derivation, alg, levi, m) == \
                outcome(reference_split, alg, levi, m)
    # the maps ahead of a failing one split as they do alone
    fabricated_survey(monkeypatch, alg, (good[0], good[1], trace))
    splits = []

    def recorded(*args):
        splits.append(split_derivation(*args))
        return splits[-1]

    monkeypatch.setattr(derivations, "split_derivation", recorded)
    with pytest.raises(NoInnerMatch):
        split_all(alg, levi)
    assert_same_splits(splits, [reference_split(alg, levi, m) for m in good[:2]])


def test_split_all_builds_two_engines_whatever_dim_der(monkeypatch):
    # one elimination serves the inner match of every map and one spans the
    # raising images; the derivation kernel's engines are not counted
    built = []
    init = exactlin.SparseRref.__init__

    def counted(self, ncols):
        built.append(ncols)
        init(self, ncols)

    monkeypatch.setattr(exactlin.SparseRref, "__init__", counted)
    dims = []
    for alg, levi in (direct_sum_sample(3), simple_sl2_leibniz(2),
                      semisimple_pair(2), simple_sl2_leibniz(12)):
        dims.append(derivation_algebra(alg).dim)
        built.clear()
        split_all(alg, levi)
        assert len(built) == 2, alg
    assert dims[0] == 8 and len(set(dims)) > 1


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


def sym(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                         for r in rows])


def test_ideal_endo_blocks_match_sympy_coordinates():
    # a map of the ideal into itself with distinct nonzero entries, so that
    # every block, diagonal or not, has its own values to get right
    alg, levi = semisimple_pair(2)
    comps = pair_components(alg, levi)
    n, ideal = alg.dim, levi.i_indices
    rows = [[F(0)] * n for _ in range(n)]
    for a, r in enumerate(ideal):
        for b, c in enumerate(ideal):
            rows[r][c] = F(len(ideal) * a + b + 1, 2)
    rep = ideal_endo_blocks(alg, Matrix.from_rows(rows), comps)
    # column t of coords: coordinates of the image of stacked vector t
    stacked = sym([v for comp in comps for v in dense_basis(comp).data]).T
    coords, params = stacked.gauss_jordan_solve(sym(rows) * stacked)
    assert params.shape[0] == 0
    offsets = [0, comps[0].dim, comps[0].dim + comps[1].dim]
    for i in range(2):
        for j in range(2):
            block = rep.blocks[i][j]
            assert block.shape() == (comps[i].dim, comps[j].dim)
            want = coords[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]
            assert sym(block.data) == want
            assert not block.is_zero()
    assert not rep.offdiag_all_zero
    assert rep.scalars == (None, None)


def test_ideal_endo_blocks_match_the_reference_on_every_catalog_split():
    # every split of every member with a decomposition, under each declared
    # triple: pair m's second triple splits the ideal into m + 1 doublets
    members = [(alg, levi) for _, alg, levi in standard_catalog() if levi is not None]
    members.append(semisimple_pair(3))
    compared = 0
    for alg, levi in members:
        splits = split_all(alg, levi).splits
        for raw in levi.sl2_triples:
            t = Sl2Triple.from_indices(alg.dim, raw)
            try:
                comps = irreducible_decomposition_sl2(alg, squares_ideal(alg), t).components
            except ModuleError:
                continue
            if raw == (3, 4, 5) and alg.name.startswith("semisimple_pair"):
                assert len(comps) == len(levi.i_indices) // 2
            for sp in splits:
                assert ideal_endo_blocks(alg, sp.ideal_endo, comps) == \
                    reference_endo_blocks(alg, sp.ideal_endo, comps)
                compared += 1
    assert compared >= 60


@pytest.mark.parametrize("triple", [0, 1])
def test_ideal_endo_blocks_match_the_reference_off_the_diagonal(triple):
    # a map of the ideal into itself with distinct entries and denominators,
    # so that every block has its own values; then the same map leaking
    # into the complement, and dependent components
    alg, levi = semisimple_pair(3)
    t = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[triple])
    comps = irreducible_decomposition_sl2(alg, squares_ideal(alg), t).components
    ideal = levi.i_indices
    columns = {c: {r: F((-1) ** a * (len(ideal) * a + b + 1), b + 2)
                   for a, r in enumerate(ideal)} for b, c in enumerate(ideal)}
    endo = Matrix(alg.dim, alg.dim, columns)
    rep = ideal_endo_blocks(alg, endo, comps)
    assert rep == reference_endo_blocks(alg, endo, comps)
    assert not rep.offdiag_all_zero
    columns[ideal[-1]][levi.g_indices[0]] = F(1)
    leak = Matrix(alg.dim, alg.dim, columns)
    with pytest.raises(ValueError, match="leaves the span") as got:
        ideal_endo_blocks(alg, leak, comps)
    with pytest.raises(ValueError) as want:
        reference_endo_blocks(alg, leak, comps)
    assert str(got.value) == str(want.value)
    twice = [comps[0], comps[1], comps[0]]
    assert outcome(ideal_endo_blocks, alg, endo, twice) == \
        outcome(reference_endo_blocks, alg, endo, twice)


def test_ideal_endo_blocks_rejects_dependent_components():
    alg, levi = semisimple_pair(1)
    comps = pair_components(alg, levi)
    with pytest.raises(ValueError, match="components are not independent"):
        ideal_endo_blocks(alg, Matrix.identity(alg.dim), [comps[0], comps[0]])


def test_ideal_endo_blocks_rejects_image_outside_components():
    alg, levi = semisimple_pair(1)
    comps = pair_components(alg, levi)
    n = alg.dim
    rows = [[F(0)] * n for _ in range(n)]
    for c in levi.i_indices:
        rows[levi.g_indices[0]][c] = F(1)  # sends the ideal into the complement
    with pytest.raises(ValueError, match="endomorphism image leaves the span "
                                         "of the components"):
        ideal_endo_blocks(alg, Matrix.from_rows(rows), comps)


WRONG_SHAPES = {
    "7x7 identity": Matrix.identity(7),
    "5x6 zero": Matrix.from_rows([[F(0)] * 6 for _ in range(5)]),
    "5x5 identity": Matrix.identity(5),
}


@pytest.mark.parametrize("label", sorted(WRONG_SHAPES))
def test_ideal_endo_blocks_rejects_a_map_of_the_wrong_shape(label):
    alg, levi = simple_sl2_leibniz(2)
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    comps = irreducible_decomposition_sl2(alg, squares_ideal(alg), triple).components
    with pytest.raises(ValueError, match="matrix shape does not match the "
                                         "algebra dimension"):
        ideal_endo_blocks(alg, WRONG_SHAPES[label], comps)


def test_component_span_is_built_once_per_decomposition(monkeypatch):
    # derive --decompose passes the same components for every split; the
    # tagged span is eliminated once, while the shape check and the image
    # check still run on every call
    from leibnizalg import derivations
    builds = []
    build = derivations._stacked_span.__wrapped__

    def counted(alg, components):
        builds.append(len(components))
        return build(alg, components)

    monkeypatch.setattr(derivations, "_stacked_span", per_algebra(counted))
    alg, levi = semisimple_pair(2)
    comps = pair_components(alg, levi)
    survey = split_all(alg, levi)
    reports = [ideal_endo_blocks(alg, sp.ideal_endo, comps)
               for sp in survey.splits]
    assert len(reports) == 7
    assert builds == [2]
    with pytest.raises(ValueError, match="matrix shape"):
        ideal_endo_blocks(alg, Matrix.identity(alg.dim + 1), comps)
    leak = Matrix(alg.dim, alg.dim, {
        c: {levi.g_indices[0]: F(1)} for c in levi.i_indices})
    with pytest.raises(ValueError, match="leaves the span"):
        ideal_endo_blocks(alg, leak, comps)
    assert builds == [2]
    # other components, or another algebra, get their own span
    ideal_endo_blocks(alg, survey.splits[0].ideal_endo, comps[::-1])
    other, other_levi = semisimple_pair(2)
    ideal_endo_blocks(other, survey.splits[0].ideal_endo,
                      pair_components(other, other_levi))
    assert builds == [2, 2, 2]


def test_split_checks_the_shape_before_the_partition():
    alg, levi = simple_sl2_leibniz(2)
    with pytest.raises(ValueError, match="matrix shape does not match the "
                                         "algebra dimension"):
        split_derivation(alg, levi, Matrix.identity(7))


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

    salg, slevi = simple_sl2_leibniz(2)
    survey = split_all(salg, slevi)
    nonzero = [s.raising_map for s in survey.splits
               if not s.raising_map.is_zero()][0]
    rep = raising_map_report(salg, slevi, nonzero)
    assert rep.classification == "equals_squares_ideal"
    assert rep.image_span == squares_ideal(salg)


def test_raising_violation_detected():
    # send e to x0 and nothing else: its image, the line of x0, is neither
    # zero nor the squares ideal (the split rejects this corner, below)
    alg, levi = simple_sl2_leibniz(2)
    rows = [[F(0)] * 6 for _ in range(6)]
    rows[3][0] = F(1)
    fabricated = Matrix.from_rows(rows)
    rep = raising_map_report(alg, levi, fabricated)
    assert rep.classification == "other"
    # each entry of the computed raising line's corner, raised by one in
    # turn: the split names the first complement pair, in row-major order,
    # where the identity fails on dense products
    line = next(s.raising_map for s in split_all(alg, levi).splits
                if not s.raising_map.is_zero())
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    for r in levi.i_indices:
        for c in levi.g_indices:
            rows = [list(row) for row in line.data]
            rows[r][c] += 1
            m = Matrix.from_rows(rows)
            want = tuple(
                (i, j) for i in levi.g_indices for j in levi.g_indices
                if m.apply(alg.product(e[i], e[j])) != alg.product(m.col(i), e[j]))
            assert want
            x, y = (alg.basis_names[i] for i in want[0])
            with pytest.raises(StructureError,
                               match=rf"identity at \({x}, {y}\)$"):
                split_derivation(alg, levi, m)


def test_split_rejects_a_raising_corner_that_is_no_derivation():
    # e -> x0 alone passes the lowering, inner-match and module checks (its
    # diagonal part is zero) but is no derivation; the split names the first
    # complement pair where the raising corner fails the identity, and its
    # residual: the image of h is zero, so it is -[x0, f] = -x1
    alg, levi = simple_sl2_leibniz(2)
    e, x0 = levi.g_indices[0], levi.i_indices[0]
    fabricated = Matrix(alg.dim, alg.dim, {e: {x0: F(1)}})
    assert not is_derivation(alg, fabricated)
    with pytest.raises(StructureError, match=r"^with residual \(0, 0, 0, 0, -1, 0\), "
                                             r"the raising corner fails the "
                                             r"derivation identity at \(e, f\)$"):
        split_derivation(alg, levi, fabricated)
    # the same corner added to a derivation is rejected as well
    der = derivation_algebra(alg).maps[0]
    noisy = Matrix.combination(alg.dim, alg.dim, [(F(1), der), (F(1), fabricated)])
    assert not is_derivation(alg, noisy)
    with pytest.raises(StructureError, match="raising corner fails"):
        split_derivation(alg, levi, noisy)


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


# ------------------------------------------------- the nullspace's rows


def rescaled_relabelled(alg: Algebra, scales) -> Algebra:
    """The same algebra on the basis f_a = s_a·e_(p(a)), p reversing the
    order and s cycling through scales, so its table mixes denominators."""
    n = alg.dim
    perm = list(reversed(range(n)))
    inv = {old: new for new, old in enumerate(perm)}
    s = [F(scales[a % len(scales)]) for a in range(n)]
    products = {}
    for (i, j), entries in alg.table_items():
        a, b = inv[i], inv[j]
        products[(a, b)] = [(inv[k], s[a] * s[b] * c / s[inv[k]]) for k, c in entries]
    return Algebra(n, products)


def sympy_kernel_rref(alg: Algebra, *sides: tuple[bool, bool]) -> list[tuple]:
    """RREF rows of the kernel of a dense system built from Algebra.product:
    for each (right, left) in sides and each basis triple (i, j, k), entry k
    of d([e_i, e_j]) - right·[d(e_i), e_j] - left·[e_i, d(e_j)] = 0, with
    unknown r·n + c the entry of d that takes e_c to e_r."""
    n = alg.dim
    e = [alg.basis_vector(i) for i in range(n)]
    prod = [[alg.product(e[i], e[j]) for j in range(n)] for i in range(n)]
    rows = set()
    for right, left in sides:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    row = [F(0)] * (n * n)
                    for r in range(n):
                        row[k * n + r] += prod[i][j][r]
                        if right:
                            row[r * n + i] -= prod[r][j][k]
                        if left:
                            row[r * n + j] -= prod[i][r][k]
                    if any(row):
                        rows.add(tuple(row))
    null = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).nullspace()
    reduced, pivots = sympy.Matrix.hstack(*null).T.rref()
    return [tuple(F(int(x.p), int(x.q)) for x in reduced.row(i))
            for i in range(len(pivots))]


def test_integer_identity_rows_keep_the_kernel():
    alg = rescaled_relabelled(semisimple_pair(2)[0], (F(1, 3), F(2, 5), F(7, 2)))
    assert len({c.denominator for _, entries in alg.table_items()
                for _, c in entries}) > 2
    for right, left in ((True, True), (True, False), (False, True)):
        for row in identity_rows(alg, right=right, left=left):
            assert all(type(v) is int for v in row.values())
    der = derivation_algebra(alg)
    assert der.dim == 7
    assert list(dense_basis(der.span).data) == sympy_kernel_rref(alg, (True, True))
    assert ([m.flatten() for m in centroid(alg)]
            == sympy_kernel_rref(alg, (True, False), (False, True)))


def test_sheared_kernel_matches_sympy(monkeypatch):
    # 3·dim shears e_i += c·e_j mix every coordinate, so the identity rows
    # are dense and a new row meets several stored rows with distinct leads
    # other than 1: the one reduction scales the row by the lcm of those
    # leads and subtracts each row once
    alg, _ = simple_sl2_leibniz(3)
    n, rng = alg.dim, random.Random(1)
    shears = [(*rng.sample(range(n), 2), F(rng.choice((-2, -1, 1, 2))))
              for _ in range(3 * n)]
    moved = conjugate(alg, shears)
    distinct = []
    reduce = exactlin._reduce

    def recorded(rows, acc):
        distinct.append(len({abs(rows[p][p]) for p in acc if p in rows} - {1}))
        return reduce(rows, acc)

    monkeypatch.setattr(exactlin, "_reduce", recorded)
    der = derivation_algebra.__wrapped__(moved)
    assert max(distinct) >= 3
    assert list(dense_basis(der.span).data) == sympy_kernel_rref(moved, (True, True))


def test_elimination_cost_follows_the_nonzeros(monkeypatch):
    # back-substitution rewrites exactly the stored rows that hold the new
    # pivot's column, each once, through the one row-writing helper
    writes = []
    store = exactlin.SparseRref._store

    def counted_store(eng, p, row):
        writes.append(p)
        store(eng, p, row)

    monkeypatch.setattr(exactlin.SparseRref, "_store", counted_store)
    alg, _ = simple_sl2_leibniz(8)
    eng = exactlin.SparseRref(alg.dim ** 2)
    for row in identity_rows(alg):
        held = {p: set(q) for p, q in eng.pivots.items()}
        writes.clear()
        eng.add_row(row)
        if writes:
            *rewritten, c = writes
            assert c not in held and c in eng.pivots
            assert sorted(rewritten) == sorted(p for p, cols in held.items() if c in cols)
        else:
            assert eng.pivots.keys() == held.keys()
    # an elimination step is a stored row read by the reduction of a new
    # row, or an _axpy back-substitution of a new pivot into a stored row.
    # The steps grow like dim**2.01 from m = 48 to m = 96 (481 + 3 529 =
    # 4 010 to 961 + 13 969 = 14 930); dim**2.5 leaves room for that and
    # fails a back-substitution or fill-in that grows like dim**3.  Pinned
    # columns are dropped before the reduction and a unit pivot deletes its
    # column with no _axpy: without pinned columns m = 96 took 81 766
    # _axpy calls, one per stored row read or rewritten
    reduce, axpy, calls = exactlin._reduce, exactlin._axpy, 0

    def counted_reduce(rows, acc):
        nonlocal calls
        calls += sum(p in rows for p in acc)
        return reduce(rows, acc)

    def counted_axpy(*args):
        nonlocal calls
        calls += 1
        return axpy(*args)

    monkeypatch.setattr(exactlin, "_reduce", counted_reduce)
    monkeypatch.setattr(exactlin, "_axpy", counted_axpy)
    counts = {}
    for m in (48, 96):
        alg, _ = simple_sl2_leibniz(m)
        start = calls
        derivation_algebra.__wrapped__(alg)
        counts[alg.dim] = calls - start
    (dim1, count1), (dim2, count2) = counts.items()
    assert count2 / count1 <= (dim2 / dim1) ** 2.5
    assert count2 < 20_000


def test_one_term_rows_pin_before_any_row_is_eliminated(monkeypatch):
    # at semisimple_pair(5) 1 600 of 2 360 identity rows have one term and
    # pin 268 unknowns; the other rows wait for every pin, and 195 of them
    # reach the elimination (463 when each row was eliminated on arrival):
    # add_row hands each of them to the one reduction, and a row with no
    # live entry never gets there
    cleared = 0
    reduce = exactlin._reduce

    def counted(rows, acc):
        nonlocal cleared
        cleared += 1
        return reduce(rows, acc)

    monkeypatch.setattr(exactlin, "_reduce", counted)
    alg, _ = semisimple_pair(5)
    der = derivation_algebra.__wrapped__(alg)
    assert der.dim == 7
    assert cleared <= 250
    # the builder leaves pinned columns out and yields no empty row
    everything = range(alg.dim ** 2)
    assert next(identity_rows(alg, pinned=set(everything)), None) is None
    some = set(everything[::3])

    def listed(rows):
        return sorted(tuple(sorted(row.items())) for row in rows if row)

    assert listed(identity_rows(alg, pinned=some)) == listed(
        {c: v for c, v in row.items() if c not in some} for row in identity_rows(alg))


def test_split_cost_follows_the_nonzeros(monkeypatch):
    # the identity check behind every split opens a residual only for the
    # pairs that a term reaches; its accumulator, a defaultdict, is replaced
    # by one that counts the openings.  Simple m = 48 and m = 96 open 288
    # and 576 pairs (10 816 and 40 000 when every basis pair was scanned);
    # dim**1.5 leaves room for that and fails a scan that grows like
    # dim**2.  No dense view is ever built.
    visits, dense = 0, 0
    view = exactlin.Matrix.data

    class Residuals(dict):
        def __missing__(self, pair):
            nonlocal visits
            visits += 1
            row = self[pair] = {}
            return row

    def counted_view(m):
        nonlocal dense
        dense += 1
        return view.fget(m)

    monkeypatch.setattr(core, "defaultdict", lambda factory: Residuals())
    monkeypatch.setattr(exactlin.Matrix, "data", property(counted_view))
    counts = {}
    for m in (48, 96):
        alg, levi = simple_sl2_leibniz(m)
        derivation_algebra(alg)  # the kernel's rows are not counted
        start = visits
        split_all(alg, levi)
        counts[alg.dim] = visits - start
    (dim1, count1), (dim2, count2) = counts.items()
    assert count2 / count1 <= (dim2 / dim1) ** 1.5
    assert count2 < 5_000
    assert dense == 0
