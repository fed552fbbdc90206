"""Derivation algebras, their grading by a declared split, and the exact
decomposition of a derivation into an inner part, a module endomorphism of
the squares ideal, and a raising map.

The derivation space is the nullspace of a sparse linear system with n^2
unknowns (the matrix entries) and n^3 equations (the derivation identity
per basis pair and coordinate).  Everything downstream of that nullspace is
exact: splits reconstruct their input matrix entry for entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (Algebra, LeviDatum, StructureError, identity_failures,
                   identity_rows, per_algebra, squares_ideal)
from .exactlin import (
    Matrix,
    ONE,
    Subspace,
    Vec,
    ZERO,
    kernel_of_constraints,
    solve,
)


class LoweringBlockNonZero(StructureError):
    """A derivation moves the squares ideal back into the complement, which
    the grading argument rules out; the input data must be inconsistent."""


class NoInnerMatch(StructureError):
    """No right multiplication matches the diagonal part on the complement;
    the declared semisimple part cannot be valid."""


# ----------------------------------------------------------- the nullspace

@dataclass(frozen=True)
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
    n = alg.dim
    span = kernel_of_constraints(identity_rows(alg), n * n)
    maps = tuple(Matrix.from_flat(v, n, n) for v in span.basis.data)
    return DerivationBasis(alg, maps, span)


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


@dataclass(frozen=True)
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
    for m in der.maps:
        flat = m.flatten()
        if not grown.contains(flat):
            picked.append(m)
            grown = grown.sum(Subspace.from_vectors(len(flat), [flat]))
    return tuple(picked)


# ----------------------------------------------------------------- grading

@dataclass(frozen=True)
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
    n = m.rows
    if m.cols != n:
        raise ValueError("grading requires a square matrix")
    if not levi.partitions(n):
        raise ValueError("declared index sets do not partition the basis")
    g_set = set(levi.g_indices)
    i_set = set(levi.i_indices)
    diag = [[ZERO] * n for _ in range(n)]
    raise_ = [[ZERO] * n for _ in range(n)]
    lower = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            v = m.data[r][c]
            if v == 0:
                continue
            if (r in g_set) == (c in g_set):
                diag[r][c] = v
            elif r in i_set:
                raise_[r][c] = v
            else:
                lower[r][c] = v

    def freeze(rows):
        return Matrix(n, n, tuple(tuple(row) for row in rows))

    return GradedParts(freeze(diag), freeze(raise_), freeze(lower))


# ------------------------------------------------------------------- split

@dataclass(frozen=True)
class DerivationSplit:
    """Exact decomposition d = (right multiplication by inner_element)
    + ideal_endo + raising_map."""

    inner_element: Vec
    ideal_endo: Matrix
    raising_map: Matrix
    derivation: Matrix


def split_derivation(alg: Algebra, levi: LeviDatum, m: Matrix) -> DerivationSplit:
    """Split a derivation along the declared grading.

    The diagonal part is matched by a right multiplication on the
    complement columns; the leftover is a module endomorphism of the ideal;
    the raising corner passes through unchanged.  The three parts sum back
    to the input exactly or the function raises.
    """
    n = alg.dim
    parts = graded_parts(levi, m)
    if not parts.lowering.is_zero():
        raise LoweringBlockNonZero(
            "derivation maps the squares ideal outside itself")
    g_list = list(levi.g_indices)
    coeff_rows = []
    rhs = []
    for c in g_list:
        # coefficient r of [e_c, e_s] is entry (r, c) of R(e_s)
        products = [dict(alg.c(c, s)) for s in g_list]
        for r in range(n):
            coeff_rows.append(tuple(p.get(r, ZERO) for p in products))
            rhs.append(parts.diagonal.data[r][c])
    a_coords = solve(Matrix(len(rhs), len(g_list), tuple(coeff_rows)), rhs)
    if a_coords is None:
        raise NoInnerMatch(
            "no right multiplication induces this map on the complement")
    a_full = [ZERO] * n
    for s, value in zip(g_list, a_coords):
        a_full[s] = value
    inner_element = tuple(a_full)
    inner = alg.right_mult(inner_element).data
    # the diagonal part minus R(a), subtracted at R(a)'s nonzero entries only
    endo_rows = [[d - i if i else d for d, i in zip(d_row, i_row)]
                 for d_row, i_row in zip(parts.diagonal.data, inner)]
    for c in g_list:
        for r in range(n):
            if endo_rows[r][c] != 0:
                raise StructureError(
                    "leftover diagonal part does not vanish on the complement")
    endo = Matrix(n, n, tuple(map(tuple, endo_rows)))
    if not check_module_endomorphism(alg, endo):
        raise StructureError(
            "leftover diagonal part is not a module endomorphism of the ideal")
    # entrywise inner + endo + raising == m, adding only where a term is nonzero
    for rows in zip(m.data, inner, endo.data, parts.raising.data):
        for w, i, e, x in zip(*rows):
            if (w or i or e or x) and i + e + x != w:
                raise StructureError("split does not reconstruct the derivation")
    return DerivationSplit(inner_element, endo, parts.raising, m)


def check_module_endomorphism(alg: Algebra, endo: Matrix) -> bool:
    """Does endo satisfy endo([x,y]) = [endo(x), y] on all basis pairs?"""
    return next(identity_failures(alg, endo, left=False), None) is None


# ---------------------------------------------------------- block analyses

@dataclass(frozen=True)
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
    lam = block.data[0][0]
    for r in range(block.rows):
        for c in range(block.cols):
            want = lam if r == c else ZERO
            if block.data[r][c] != want:
                return None
    return lam


def ideal_endo_blocks(
    alg: Algebra, endo: Matrix, components: Sequence[Subspace],
) -> EndoBlockReport:
    """Express an endomorphism of the ideal in component-block form.

    The components must be independent.  One elimination serves every
    image: stacked component basis vector t is tagged with unit column
    n + t, so reducing (endo(v), 0) leaves zero in the first n columns
    exactly when endo(v) lies in the stacked span, and minus its stacked
    coordinates in the tail.
    """
    n = alg.dim
    if not components:
        return EndoBlockReport((), (), True)
    stacked = [v for comp in components for v in comp.pivot_rows.values()]
    tagged = Subspace.span(
        n + len(stacked), [{**v, n + t: ONE} for t, v in enumerate(stacked)])
    if any(p >= n for p in tagged.pivot_cols()):
        raise ValueError("components are not independent")
    # the nonzero (row, entry) pairs of each column of endo
    cols = [[(r, row[c]) for r, row in enumerate(endo.data) if row[c]]
            for c in range(n)]
    coords = []  # coords[t][u]: coordinate u of endo(stacked[t])
    for v in stacked:
        image: dict[int, Fraction] = {}
        for c, x in v.items():
            for r, entry in cols[c]:
                image[r] = image.get(r, ZERO) + x * entry
        residue = tagged.reduce(image)
        if any(c < n for c in residue):
            raise ValueError(
                "endomorphism image leaves the span of the components")
        coords.append({c - n: -x for c, x in residue.items()})
    offsets = list(itertools.accumulate((c.dim for c in components), initial=0))
    blocks = tuple(
        tuple(
            Matrix(ci.dim, cj.dim, tuple(
                tuple(coords[oj + col].get(oi + row, ZERO) for col in range(cj.dim))
                for row in range(ci.dim)))
            for cj, oj in zip(components, offsets))
        for ci, oi in zip(components, offsets))
    k = len(components)
    scalars = tuple(scalar_of(blocks[i][i]) for i in range(k))
    offdiag = all(
        blocks[i][j].is_zero() for i in range(k) for j in range(k) if i != j)
    return EndoBlockReport(blocks, scalars, offdiag)


@dataclass(frozen=True)
class RaisingReport:
    """Image and identity diagnostics for the raising corner of a derivation.

    classification is "zero", "equals_squares_ideal" (the image fills the
    ideal), or "other"; violations lists complement basis pairs where the
    one-sided identity raising([x,y]) = [raising(x), y] fails.
    """

    image_span: Subspace
    violations: tuple[tuple[int, int], ...]
    classification: str


def raising_map_report(alg: Algebra, levi: LeviDatum, raising: Matrix) -> RaisingReport:
    bad = tuple(identity_failures(
        alg, raising, False, itertools.product(levi.g_indices, repeat=2)))
    image = Subspace.from_vectors(
        alg.dim, [raising.col(c) for c in levi.g_indices])
    if image.dim == 0:
        kind = "zero"
    elif image == squares_ideal(alg):
        kind = "equals_squares_ideal"
    else:
        kind = "other"
    return RaisingReport(image, bad, kind)


# ------------------------------------------------------------ survey sweep

@dataclass(frozen=True)
class SplitSurvey:
    """Splits of every basis derivation plus the lumped raising image."""

    basis: DerivationBasis
    splits: tuple[DerivationSplit, ...]
    raising_total: Subspace


def split_all(alg: Algebra, levi: LeviDatum) -> SplitSurvey:
    der = derivation_algebra(alg)
    splits = tuple(split_derivation(alg, levi, m) for m in der.maps)
    vectors = [s.raising_map.col(c) for s in splits for c in levi.g_indices]
    return SplitSurvey(der, splits, Subspace.from_vectors(alg.dim, vectors))
