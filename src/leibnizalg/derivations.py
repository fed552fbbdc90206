"""Derivation algebras, their grading by a declared split, and the exact
decomposition of a derivation into an inner part, a module endomorphism of
the squares ideal, and a raising map.

The derivation space is the nullspace of a sparse linear system with n^2
unknowns (the matrix entries) and n^3 equations (the derivation identity
per basis pair and coordinate).  Each primitive kernel row is a map's
integer columns over its lead, and everything downstream runs on those
integers, so a derivation with about n nonzeros costs about n entries,
not n^2: the grading sorts nonzeros into blocks, the inner match of every
map reduces against one span eliminated per algebra and split, and the
module-endomorphism, complement and reconstruction checks read only the
columns some term occupies.  Everything is exact: splits reconstruct
their input matrix entry for entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (Algebra, LeviDatum, StructureError, _accumulate,
                   _identity_kernel, _require_levi, identity_failures, kernel_maps,
                   per_algebra, squares_ideal)
from .exactlin import (
    Matrix,
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
    lands at column k·n + l.  The rows are read off the integer table, so
    each is D·R(e_j) and no row is cleared."""
    n = alg.dim
    rows: dict[int, dict[int, int]] = {}
    for (l, j), entries in alg._ints.items():
        row = rows.setdefault(j, {})
        for k, coeff in entries:
            row[k * n + l] = coeff
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
    return GradedParts(*(Matrix(n, n, b, m.den) for b in _blocks(set(levi.g_indices), m)))


def _blocks(g_set: set[int], m: Matrix) -> tuple[dict, dict, dict]:
    """The integer columns of m's diagonal, raising and lowering blocks,
    over m's denominator."""
    blocks: tuple[dict, dict, dict] = ({}, {}, {})
    for c, col in m.columns.items():
        c_in = c in g_set
        for r, v in col.items():
            blocks[0 if (r in g_set) == c_in else 1 if c_in else 2].setdefault(c, {})[r] = v
    return blocks


# ------------------------------------------------------------------- split

@value_type
class DerivationSplit:
    """Exact decomposition d = (right multiplication by inner_element)
    + ideal_endo + raising_map."""

    inner_element: Vec
    ideal_endo: Matrix
    raising_map: Matrix
    derivation: Matrix


@per_algebra
def _inner_match_span(alg: Algebra, levi: LeviDatum) -> tuple[set[int], Subspace]:
    """The complement's indices and the span that solves the inner match
    of every map, eliminated once per algebra and split; LeviError or
    ValueError unless the split partitions the basis.

    Row t is D·R(e_s), s the t-th complement index, on the complement
    columns, flattened (entry (r, c) at c·n + r) and tagged with D at
    n² + k - 1 - t.  Reducing d's flattened complement columns leaves
    nothing below n² exactly when some a = Σ a_s e_s has [e_c, a] = d(e_c)
    for every complement c, and -a_s at s's tag; the tags run backwards, so
    if the R(e_s) are dependent the a_s a solve in basis order leaves free
    read 0."""
    _require_levi(levi)
    n = alg.dim
    if not levi.partitions(n):
        raise ValueError("declared index sets do not partition the basis")
    g_set = set(levi.g_indices)
    nn, k = n * n, len(levi.g_indices)
    rows = [{c * n + r: x for c, entries in alg._by_right.get(s, ()) if c in g_set
             for r, x in entries} | {nn + k - 1 - t: alg._den}
            for t, s in enumerate(levi.g_indices)]
    return g_set, Subspace.span(nn + k, rows)


def split_derivation(alg: Algebra, levi: LeviDatum, m: Matrix) -> DerivationSplit:
    """Split a derivation along the declared grading.

    The diagonal part is matched by a right multiplication R_a on the
    complement columns, by one reduction against ``_inner_match_span``;
    the leftover is a module endomorphism of the ideal; the raising corner
    passes through unchanged, and must satisfy the derivation identity on
    the complement.  The three parts sum back to the input exactly or the
    function raises.  Every step reads the maps' sparse integer columns,
    and R_a is ``alg.right_mult`` of ``inner_element``.
    """
    n = alg.dim
    if m.rows != n or m.cols != n:
        raise ValueError("matrix shape does not match the algebra dimension")
    g_set, match = _inner_match_span(alg, levi)
    diagonal, raising, lowering = _blocks(g_set, m)
    if lowering:
        raise LoweringBlockNonZero(
            "derivation maps the squares ideal outside itself")
    # the blocks hold m.den·m, so the match solves for m.den·a
    nn, g_list = n * n, levi.g_indices
    s, acc = match._eliminate({c * n + r: v for c, col in diagonal.items()
                               if c in g_set for r, v in col.items()})
    if any(v for c, v in acc.items() if c < nn):
        raise NoInnerMatch(
            "no right multiplication induces this map on the complement")
    a = [ZERO] * n
    for t, g in enumerate(g_list):
        if x := acc.get(nn + len(g_list) - 1 - t, 0):
            a[g] = Fraction(-x, s * m.den)
    right = alg.right_mult(a)
    raising_map = Matrix(n, n, raising, m.den)
    # with no lowering block, d less its raising corner is its diagonal part
    endo = Matrix.combination(n, n, [(1, m), (-1, raising_map), (-1, right)])
    if any(c in endo.columns for c in g_list):
        raise StructureError(
            "leftover diagonal part does not vanish on the complement")
    if not check_module_endomorphism(alg, endo):
        raise StructureError(
            "leftover diagonal part is not a module endomorphism of the ideal")
    # with the other two parts derivations, d is one exactly when the
    # raising corner is; pairs that touch the ideal vanish on both sides,
    # so the pruned scan visits complement pairs alone
    bad = next(identity_failures(alg, raising_map, False), None)
    if bad is not None:
        i, j, residual = bad
        x, y = alg.basis_names[i], alg.basis_names[j]
        raise StructureError(
            f"with residual ({', '.join(map(format_rational, residual))}), "
            f"the raising corner fails the derivation identity at ({x}, {y})")
    rebuilt = Matrix.combination(n, n, [(1, right), (1, endo), (1, raising_map)])
    if rebuilt != m:
        raise StructureError("split does not reconstruct the derivation")
    return DerivationSplit(tuple(a), endo, raising_map, m)


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
    lam = block.columns.get(0, {}).get(0, 0)
    want = {c: {c: lam} for c in range(block.rows)} if lam else {}
    return Fraction(lam, block.den) if block.columns == want else None


@per_algebra
def _stacked_span(alg: Algebra, components: tuple[Subspace, ...],
                  ) -> tuple[list, list[tuple[int, int]], Subspace]:
    """The components' basis vectors, stacked, each as (lead, its integer
    row), lead times its RREF row; the component of each and its place
    there; and the span of each vector t tagged with unit column n + t.
    ValueError unless the components are independent."""
    n = alg.dim
    stacked = [(row[p], row) for comp in components for p, row in comp.rows.items()]
    places = [(i, u) for i, comp in enumerate(components) for u in range(comp.dim)]
    tagged = Subspace.span(n + len(stacked), [
        {**row, n + t: lead} for t, (lead, row) in enumerate(stacked)])
    if any(p >= n for p in tagged.pivot_cols()):
        raise ValueError("components are not independent")
    return stacked, places, tagged


def ideal_endo_blocks(
    alg: Algebra, endo: Matrix, components: Sequence[Subspace],
) -> EndoBlockReport:
    """Express an endomorphism of the ideal in component-block form.

    The components must be independent subspaces of the algebra's
    space, or ValueError.  One elimination serves every
    image, and every call with the same components: stacked component
    basis vector t is tagged with unit column n + t, so reducing
    (endo(v), 0) leaves zero in the first n columns exactly when endo(v)
    lies in the stacked span, and minus its stacked coordinates in the
    tail.  Images are summed in integers over endo's stored columns, and
    each tail coordinate goes into its block over one common denominator;
    only a block with entries is built, and the zero blocks of one shape
    are one value.
    """
    n = alg.dim
    if endo.rows != n or endo.cols != n:
        raise ValueError("matrix shape does not match the algebra dimension")
    if any(comp.ambient_dim != n for comp in components):
        raise ValueError("component ambient dimension mismatch")
    if not components:
        return EndoBlockReport((), (), True)
    stacked, places, tagged = _stacked_span(alg, tuple(components))
    cols, den = endo.columns, endo.den
    # a multiple of every scale s·den·lead below, so every block's den
    common = den * math.lcm(*(row[p] for p, row in tagged.rows.items())) * math.lcm(
        *(lead for lead, _ in stacked))
    k = len(components)
    parts = [[{} for _ in range(k)] for _ in range(k)]  # the columns of each block
    for (lead, v), (j, col) in zip(stacked, places):
        image: dict[int, int] = {}  # den·lead·endo(v / lead)
        for c, x in v.items():
            _accumulate(image, x, cols.get(c, {}).items())
        if not image:  # endo kills v: its column is zero in every block
            continue
        s, acc = tagged._eliminate(image)
        if any(x for c, x in acc.items() if c < n):
            raise ValueError(
                "endomorphism image leaves the span of the components")
        f = common // (-s * den * lead)
        for u, x in acc.items():
            if x:
                i, row = places[u - n]
                parts[i][j].setdefault(col, {})[row] = f * x
    zeros: dict[tuple[int, int], Matrix] = {}  # Matrix is immutable, so shared

    def block(rows: int, cols: int, columns: dict) -> Matrix:
        if columns:
            return Matrix(rows, cols, columns, common)
        if (rows, cols) not in zeros:
            zeros[rows, cols] = Matrix(rows, cols, {})
        return zeros[rows, cols]

    blocks = tuple(
        tuple(block(ci.dim, cj.dim, parts[i][j]) for j, cj in enumerate(components))
        for i, ci in enumerate(components))
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
    _require_levi(levi)
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
    """The derivation basis and the split of each of its maps, in order."""

    basis: DerivationBasis
    splits: tuple[DerivationSplit, ...]


def split_all(alg: Algebra, levi: LeviDatum) -> SplitSurvey:
    """Split every map of the derivation basis, in order; one elimination
    serves the inner match of them all (``_inner_match_span``), and
    ``raising_map_report`` reads each split's raising image."""
    _require_levi(levi)
    der = derivation_algebra(alg)
    return SplitSurvey(der, tuple(split_derivation(alg, levi, m) for m in der.maps))
