"""Derivation algebras, their grading by a declared split, and the exact
decomposition of a derivation into an inner part, a module endomorphism of
the squares ideal, and a raising map.

The derivation space is the nullspace of a sparse linear system with n^2
unknowns (the matrix entries) and n^3 equations (the derivation identity
per basis pair and coordinate).  Everything downstream of that nullspace is
exact: splits reconstruct their input matrix entry for entry.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import Algebra, LeviDatum, StructureError, identity_rows, squares_ideal
from .exactlin import (
    Matrix,
    Subspace,
    Vec,
    ZERO,
    kernel_of_constraints,
    solve,
)


class LoweringBlockNonZero(Exception):
    """A derivation moves the squares ideal back into the complement, which
    the grading argument rules out; the input data must be inconsistent."""


class NoInnerMatch(Exception):
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


@functools.lru_cache(maxsize=None)
def derivation_algebra(alg: Algebra) -> DerivationBasis:
    """Solve the derivation identity d([x,y]) = [d(x),y] + [x,d(y)] exactly."""
    n = alg.dim
    rows = [row for _, _, pair_rows in identity_rows(alg) for row in pair_rows]
    span = kernel_of_constraints(rows, n * n)
    maps = tuple(Matrix.from_flat(v, n, n) for v in span.basis.data)
    return DerivationBasis(alg, maps, span)


def _failing_pairs(alg: Algebra, m: Matrix, left: bool,
                   pairs: Iterable[tuple[int, int]] | None = None,
                   ) -> Iterator[tuple[int, int]]:
    """Basis pairs (default: all, row-major) where m fails the identity:
    some row of ``identity_rows`` dotted with the nonzero entries of m is
    not zero.  left=False checks m([x,y]) = [m(x), y] alone."""
    if m.rows != alg.dim or m.cols != alg.dim:
        raise ValueError("matrix shape does not match the algebra dimension")
    nonzero = {col: v for col, v in enumerate(m.flatten()) if v}
    if not nonzero:
        return  # every row is linear, so the zero map satisfies all of them
    for i, j, rows in identity_rows(alg, pairs, left=left):
        if any(sum((c * nonzero[col] for col, c in row.items() if col in nonzero),
                   ZERO) for row in rows):
            yield i, j


def is_derivation(alg: Algebra, m: Matrix) -> bool:
    """Exact check of the derivation identity on all basis pairs."""
    return next(_failing_pairs(alg, m, left=True), None) is None


def inner_derivation_span(alg: Algebra) -> Subspace:
    """Flattened span of all right multiplications."""
    n = alg.dim
    vectors = [alg.right_mult(alg.basis_vector(i)).flatten() for i in range(n)]
    return Subspace.from_vectors(n * n, vectors)


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
    g_set = set(levi.g_indices)
    i_set = set(levi.i_indices)
    if g_set | i_set != set(range(n)):
        raise ValueError("declared split does not cover this dimension")
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
    basis_mults = [alg.right_mult(alg.basis_vector(s)) for s in g_list]
    coeff_rows = []
    rhs = []
    for c in g_list:
        for r in range(n):
            coeff_rows.append(tuple(bm.data[r][c] for bm in basis_mults))
            rhs.append(parts.diagonal.data[r][c])
    a_coords = solve(Matrix(len(rhs), len(g_list), tuple(coeff_rows)), rhs)
    if a_coords is None:
        raise NoInnerMatch(
            "no right multiplication induces this map on the complement")
    a_full = [ZERO] * n
    for s, value in zip(g_list, a_coords):
        a_full[s] = value
    inner_element = tuple(a_full)
    endo = parts.diagonal - alg.right_mult(inner_element)
    for c in g_list:
        for r in range(n):
            if endo.data[r][c] != 0:
                raise StructureError(
                    "leftover diagonal part does not vanish on the complement")
    if not check_module_endomorphism(alg, endo):
        raise StructureError(
            "leftover diagonal part is not a module endomorphism of the ideal")
    reconstructed = alg.right_mult(inner_element) + endo + parts.raising
    if reconstructed != m:
        raise StructureError("split does not reconstruct the derivation")
    return DerivationSplit(inner_element, endo, parts.raising, m)


def check_module_endomorphism(alg: Algebra, endo: Matrix) -> bool:
    """Does endo satisfy endo([x,y]) = [endo(x), y] on all basis pairs?"""
    return next(_failing_pairs(alg, endo, left=False), None) is None


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

    The components must be independent; vectors of each component basis are
    mapped by endo and re-expanded in the stacked component bases.
    """
    n = alg.dim
    if not components:
        return EndoBlockReport((), (), True)
    stacked = [v for comp in components for v in comp.basis.data]
    total = len(stacked)
    if Subspace.from_vectors(n, stacked).dim != total:
        raise ValueError("components are not independent")
    expand_matrix = Matrix(n, total, tuple(
        tuple(stacked[j][r] for j in range(total)) for r in range(n)))
    offsets = []
    at = 0
    for comp in components:
        offsets.append(at)
        at += comp.dim
    cells: list[list[list[list[Fraction]]]] = [
        [[[ZERO] * components[j].dim for _ in range(components[i].dim)]
         for j in range(len(components))]
        for i in range(len(components))
    ]
    for j, comp in enumerate(components):
        for col, v in enumerate(comp.basis.data):
            image = endo.apply(v)
            coords = solve(expand_matrix, image)
            if coords is None:
                raise ValueError(
                    "endomorphism image leaves the span of the components")
            for i, target in enumerate(components):
                base = offsets[i]
                for row in range(target.dim):
                    cells[i][j][row][col] = coords[base + row]
    blocks = tuple(
        tuple(
            Matrix(components[i].dim, components[j].dim,
                   tuple(tuple(r) for r in cells[i][j]))
            for j in range(len(components)))
        for i in range(len(components)))
    scalars = tuple(scalar_of(blocks[i][i]) for i in range(len(components)))
    offdiag = all(
        blocks[i][j].is_zero()
        for i in range(len(components))
        for j in range(len(components)) if i != j)
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
    bad = tuple(_failing_pairs(
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
