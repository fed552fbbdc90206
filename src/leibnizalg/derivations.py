"""Derivation algebras, their grading by a declared split, and the exact
decomposition of a derivation into an inner part, a module endomorphism of
the squares ideal, and a raising map.

The derivation space is the nullspace of a sparse linear system with n^2
unknowns (the matrix entries) and n^3 equations (the derivation identity
per basis pair and coordinate).  Each kernel row becomes a map stored as
sparse columns, and everything downstream runs on those columns, so a
derivation with about n nonzeros costs about n entries, not n^2: the
grading sorts nonzeros into blocks, the inner match solves a small sparse
system, and the module-endomorphism, complement and reconstruction checks
read only the columns some term occupies.  Everything is exact: splits
reconstruct their input matrix entry for entry.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .core import (Algebra, LeviDatum, StructureError, _accumulate,
                   _identity_kernel, _require_levi, identity_failures, kernel_maps,
                   per_algebra, squares_ideal)
from .exactlin import (
    Matrix,
    ONE,
    SparseRref,
    Subspace,
    Vec,
    ZERO,
    format_rational,
    value_type,
)


class LoweringBlockNonZero(StructureError):
    """A derivation moves the squares ideal back into the complement, which
    the grading argument rules out; the input data must be inconsistent."""


class NoInnerMatch(StructureError):
    """No right multiplication matches the diagonal part on the complement;
    the declared semisimple part cannot be valid."""


# ----------------------------------------------------------- the nullspace

@value_type
class DerivationBasis:
    """Canonical basis of the derivation algebra.

    maps are read off the reduced row echelon form of the flattened
    nullspace, so they are independent and reproducible; span holds the
    same data as a subspace of flattened matrices.
    """

    algebra: Algebra
    maps: tuple[Matrix, ...]
    span: Subspace

    @property
    def dim(self) -> int:
        return len(self.maps)


@per_algebra
def derivation_algebra(alg: Algebra) -> DerivationBasis:
    """Solve the derivation identity d([x,y]) = [d(x),y] + [x,d(y)] exactly."""
    span = _identity_kernel(alg, ((True, True),))
    return DerivationBasis(alg, kernel_maps(span, alg.dim), span)


def is_derivation(alg: Algebra, m: Matrix) -> bool:
    """Exact check of the derivation identity on all basis pairs."""
    return next(identity_failures(alg, m, left=True), None) is None


def inner_derivation_span(alg: Algebra) -> Subspace:
    """Flattened span of all right multiplications: entry (k, l) of R(e_j)
    lands at column k·n + l."""
    n = alg.dim
    rows: dict[int, dict[int, Fraction]] = {}
    for (l, j), entries in alg.table_items():
        for k, coeff in entries:
            rows.setdefault(j, {})[k * n + l] = coeff
    return Subspace.span(n * n, rows.values())


@value_type
class OuterReport:
    dim_der: int
    dim_inner: int

    @property
    def dim_outer(self) -> int:
        return self.dim_der - self.dim_inner


def outer_report(alg: Algebra) -> OuterReport:
    der = derivation_algebra(alg)
    inner = inner_derivation_span(alg)
    if not der.span.contains_subspace(inner):
        raise StructureError(
            "right multiplications fall outside the derivation space; "
            "the input violates the right Leibniz identity")
    return OuterReport(der.dim, inner.dim)


def outer_candidates(alg: Algebra) -> tuple[Matrix, ...]:
    """Representatives for a basis of derivations modulo inner ones.

    Greedy: keep each basis map that enlarges the inner span, so the result
    has exactly dim_outer members.  Adding inner derivations does not change
    the split invariants below, so these representatives are as informative
    as any in their classes.
    """
    der = derivation_algebra(alg)
    grown = inner_derivation_span(alg)
    picked: list[Matrix] = []
    for m, row in zip(der.maps, der.span.rows.values()):
        if not grown.holds(row):
            picked.append(m)
            grown = Subspace.span(grown.ambient_dim, [*grown.rows.values(), row])
    return tuple(picked)


# ----------------------------------------------------------------- grading

@value_type
class GradedParts:
    """Block split of a map by the complement-versus-ideal grading.

    diagonal keeps both homogeneous blocks, raising is the complement-to-
    ideal corner, lowering the ideal-to-complement corner; the three sum to
    the original matrix.
    """

    diagonal: Matrix
    raising: Matrix
    lowering: Matrix


def graded_parts(levi: LeviDatum, m: Matrix) -> GradedParts:
    _require_levi(levi)
    n = m.rows
    if m.cols != n:
        raise ValueError("grading requires a square matrix")
    if not levi.partitions(n):
        raise ValueError("declared index sets do not partition the basis")
    g_set = set(levi.g_indices)
    blocks: tuple[dict, dict, dict] = ({}, {}, {})  # diagonal, raising, lowering
    for c, col in m.columns.items():
        for r, v in col.items():
            if (r in g_set) == (c in g_set):
                block = blocks[0]
            elif c in g_set:
                block = blocks[1]
            else:
                block = blocks[2]
            block.setdefault(c, {})[r] = v
    return GradedParts(*(Matrix(n, n, b) for b in blocks))


# ------------------------------------------------------------------- split

@value_type
class DerivationSplit:
    """Exact decomposition d = (right multiplication by inner_element)
    + ideal_endo + raising_map."""

    inner_element: Vec
    ideal_endo: Matrix
    raising_map: Matrix
    derivation: Matrix


def _inner_match(alg: Algebra, g_list: Sequence[int],
                 diagonal: Matrix) -> dict[int, Fraction] | None:
    """Coordinates a_s (s in g_list) with [e_c, a] = diagonal(e_c) for
    every complement column c, free coordinates zero; None if there are
    none.

    Coordinate r of [e_c, e_s] is the coefficient of a_s in equation
    (c, r); column k = len(g_list) carries the right-hand side, so the
    system is consistent exactly when k is no pivot, and then the stored
    row of each pivot t holds its solution at k, times the row's lead."""
    k = len(g_list)
    eng = SparseRref(k + 1)
    cols = diagonal.columns
    for c in g_list:
        eqs: dict[int, dict[int, Fraction]] = {}
        for t, s in enumerate(g_list):
            for r, coeff in alg.c(c, s):
                eqs.setdefault(r, {})[t] = coeff
        for r, value in cols.get(c, {}).items():
            eqs.setdefault(r, {})[k] = value
        eng.extend(eqs.values())
    if k in eng.pivots:
        return None
    return {g_list[t]: Fraction(row[k], row[t])
            for t, row in eng.pivots.items() if k in row}


def split_derivation(alg: Algebra, levi: LeviDatum, m: Matrix) -> DerivationSplit:
    """Split a derivation along the declared grading.

    The diagonal part is matched by a right multiplication on the
    complement columns; the leftover is a module endomorphism of the ideal;
    the raising corner passes through unchanged, and must satisfy the
    derivation identity on the complement.  The three parts sum back to the
    input exactly or the function raises.  Every step reads the maps'
    sparse columns.
    """
    n = alg.dim
    if m.rows != n or m.cols != n:
        raise ValueError("matrix shape does not match the algebra dimension")
    parts = graded_parts(levi, m)
    if not parts.lowering.is_zero():
        raise LoweringBlockNonZero(
            "derivation maps the squares ideal outside itself")
    a = _inner_match(alg, levi.g_indices, parts.diagonal)
    if a is None:
        raise NoInnerMatch(
            "no right multiplication induces this map on the complement")
    inner_element = tuple(a.get(s, ZERO) for s in range(n))
    inner = alg.right_mult(inner_element)
    endo = Matrix.combination(n, n, [(ONE, parts.diagonal), (-ONE, inner)])
    if any(c in endo.columns for c in levi.g_indices):
        raise StructureError(
            "leftover diagonal part does not vanish on the complement")
    if not check_module_endomorphism(alg, endo):
        raise StructureError(
            "leftover diagonal part is not a module endomorphism of the ideal")
    # with the other two parts derivations, d is one exactly when the
    # raising corner is; pairs that touch the ideal vanish on both sides,
    # so the pruned scan visits complement pairs alone
    bad = next(identity_failures(alg, parts.raising, False), None)
    if bad is not None:
        i, j, residual = bad
        x, y = alg.basis_names[i], alg.basis_names[j]
        raise StructureError(
            f"with residual ({', '.join(map(format_rational, residual))}), "
            f"the raising corner fails the derivation identity at ({x}, {y})")
    rebuilt = Matrix.combination(
        n, n, [(ONE, inner), (ONE, endo), (ONE, parts.raising)])
    if rebuilt != m:
        raise StructureError("split does not reconstruct the derivation")
    return DerivationSplit(inner_element, endo, parts.raising, m)


def check_module_endomorphism(alg: Algebra, endo: Matrix) -> bool:
    """Does endo satisfy endo([x,y]) = [endo(x), y] on all basis pairs?"""
    return next(identity_failures(alg, endo, left=False), None) is None


# ---------------------------------------------------------- block analyses

@value_type
class EndoBlockReport:
    """Component-block structure of an ideal endomorphism.

    blocks[i][j] is the matrix of the map from component j into component
    i, in the canonical component bases; scalars[i] is the ratio when the
    diagonal block i is a scalar matrix, None otherwise.
    """

    blocks: tuple[tuple[Matrix, ...], ...]
    scalars: tuple[Fraction | None, ...]
    offdiag_all_zero: bool


def scalar_of(block: Matrix) -> Fraction | None:
    """The lambda with block = lambda * identity, if there is one."""
    if block.rows != block.cols or block.rows == 0:
        return None
    lam = block.columns.get(0, {}).get(0, ZERO)
    want = {c: {c: lam} for c in range(block.rows)} if lam else {}
    return lam if block.columns == want else None


@per_algebra
def _stacked_span(alg: Algebra, components: tuple[Subspace, ...],
                  ) -> tuple[list[dict[int, Fraction]], Subspace]:
    """The components' basis rows, stacked, and the span of each row t
    tagged with unit column n + t; ValueError unless they are
    independent."""
    n = alg.dim
    stacked = [v for comp in components for v in comp.pivot_rows.values()]
    tagged = Subspace.span(
        n + len(stacked), [{**v, n + t: ONE} for t, v in enumerate(stacked)])
    if any(p >= n for p in tagged.pivot_cols()):
        raise ValueError("components are not independent")
    return stacked, tagged


def ideal_endo_blocks(
    alg: Algebra, endo: Matrix, components: Sequence[Subspace],
) -> EndoBlockReport:
    """Express an endomorphism of the ideal in component-block form.

    The components must be independent.  One elimination serves every
    image, and every call with the same components: stacked component
    basis vector t is tagged with unit column n + t, so reducing
    (endo(v), 0) leaves zero in the first n columns exactly when endo(v)
    lies in the stacked span, and minus its stacked coordinates in the
    tail.  Images are summed over endo's sparse columns.
    """
    n = alg.dim
    if endo.rows != n or endo.cols != n:
        raise ValueError("matrix shape does not match the algebra dimension")
    if not components:
        return EndoBlockReport((), (), True)
    stacked, tagged = _stacked_span(alg, tuple(components))
    cols = endo.columns
    coords = []  # coords[t][u]: coordinate u of endo(stacked[t])
    for v in stacked:
        image: dict[int, Fraction] = {}
        for c, x in v.items():
            _accumulate(image, x, cols.get(c, {}).items())
        residue = tagged.reduce(image)
        if any(c < n for c in residue):
            raise ValueError(
                "endomorphism image leaves the span of the components")
        coords.append({c - n: -x for c, x in residue.items()})
    offsets = list(itertools.accumulate((c.dim for c in components), initial=0))
    blocks = tuple(
        tuple(
            Matrix(ci.dim, cj.dim, {
                col: {u - oi: x for u, x in coords[oj + col].items()
                      if oi <= u < oi + ci.dim}
                for col in range(cj.dim)})
            for cj, oj in zip(components, offsets))
        for ci, oi in zip(components, offsets))
    k = len(components)
    scalars = tuple(scalar_of(blocks[i][i]) for i in range(k))
    offdiag = all(
        blocks[i][j].is_zero() for i in range(k) for j in range(k) if i != j)
    return EndoBlockReport(blocks, scalars, offdiag)


@value_type
class RaisingReport:
    """Image of the raising corner of a derivation.

    classification is "zero", "equals_squares_ideal" (the image fills the
    ideal), or "other".  The corner's identity on complement pairs is
    checked by ``split_derivation``, which rejects a corner that fails it.
    """

    image_span: Subspace
    classification: str


def raising_map_report(alg: Algebra, levi: LeviDatum, raising: Matrix) -> RaisingReport:
    cols = raising.columns
    image = Subspace.span(
        alg.dim, [cols[c] for c in levi.g_indices if c in cols])
    if image.dim == 0:
        kind = "zero"
    elif image == squares_ideal(alg):
        kind = "equals_squares_ideal"
    else:
        kind = "other"
    return RaisingReport(image, kind)


# ------------------------------------------------------------ survey sweep

@value_type
class SplitSurvey:
    """Splits of every basis derivation plus the lumped raising image."""

    basis: DerivationBasis
    splits: tuple[DerivationSplit, ...]
    raising_total: Subspace


def split_all(alg: Algebra, levi: LeviDatum) -> SplitSurvey:
    _require_levi(levi)
    der = derivation_algebra(alg)
    splits = tuple(split_derivation(alg, levi, m) for m in der.maps)
    # a raising corner has complement columns only
    vectors = [col for s in splits for col in s.raising_map.columns.values()]
    return SplitSurvey(der, splits, Subspace.span(alg.dim, vectors))
