"""Dense reference views, changes of basis and reference splits that only
the tests read.

The package keeps a subspace as its sparse integer RREF rows; the tests
compare it with dense rows and with sympy, so the dense view is built here.
The shears rewrite an algebra's table in a mixed basis, densely, through
``Algebra.product``.  ``reference_split`` and ``reference_endo_blocks``
split a derivation and block an ideal endomorphism the direct way, in
``Fraction`` arithmetic: one inner-match system per map, R_a from
``Algebra.right_mult``, and one reduction per image against a tagged span
built on each call.
"""

import itertools
from fractions import Fraction

from leibnizalg.core import Algebra, StructureError, identity_failures
from leibnizalg.derivations import (DerivationSplit, EndoBlockReport,
                                    LoweringBlockNonZero, NoInnerMatch,
                                    check_module_endomorphism, graded_parts,
                                    scalar_of)
from leibnizalg.exactlin import (ONE, ZERO, Matrix, SparseRref, Subspace,
                                 format_rational)


def dense_basis(space: Subspace) -> Matrix:
    """One RREF row per basis vector of space, with a leading 1, pivots
    ascending."""
    columns: dict[int, dict[int, Fraction]] = {}
    for r, row in enumerate(space.pivot_rows.values()):
        for c, x in row.items():
            columns.setdefault(c, {})[r] = x
    return Matrix(space.dim, space.ambient_dim, columns)


def shear_product(n, shears):
    """P, the product of the shears I + c·E_ij in order, and its inverse:
    multiplying P on the right by a shear adds c times its column i to its
    column j, and multiplying P^-1 on the left by the inverse shear
    subtracts c times its row j from its row i."""
    p = [[Fraction(1) if r == s else Fraction(0) for s in range(n)] for r in range(n)]
    pinv = [list(row) for row in p]
    for i, j, c in shears:
        for row in p:
            row[j] += c * row[i]
        pinv[i] = [a - c * b for a, b in zip(pinv[i], pinv[j])]
    return Matrix.from_rows(p), Matrix.from_rows(pinv)


def conjugate(alg, shears):
    """Rewrite the table in the basis P e_0, ..., P e_{n-1}."""
    n = alg.dim
    p, pinv = shear_product(n, shears)
    cols = [p.apply(alg.basis_vector(i)) for i in range(n)]
    products = {}
    for i in range(n):
        for j in range(n):
            w = pinv.apply(alg.product(cols[i], cols[j]))
            entries = [(k, c) for k, c in enumerate(w) if c != 0]
            if entries:
                products[(i, j)] = entries
    return Algebra(n, products)


def reference_inner_match(alg, g_list, diagonal):
    """Coordinates a_s (s in g_list) with [e_c, a] = diagonal(e_c) for
    every complement column c, free coordinates zero; None if there are
    none.  Column k = len(g_list) carries the right-hand side, so the
    system is consistent exactly when k is no pivot, and then the stored
    row of each pivot t holds its solution at k, times the row's lead."""
    k = len(g_list)
    eng = SparseRref(k + 1)
    cols = diagonal.columns
    for c in g_list:
        eqs = {}
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


def reference_split(alg, levi, m):
    """``split_derivation`` map by map: the same checks in the same order,
    with their errors and messages."""
    n = alg.dim
    if m.rows != n or m.cols != n:
        raise ValueError("matrix shape does not match the algebra dimension")
    parts = graded_parts(levi, m)
    if not parts.lowering.is_zero():
        raise LoweringBlockNonZero(
            "derivation maps the squares ideal outside itself")
    a = reference_inner_match(alg, levi.g_indices, parts.diagonal)
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


def reference_endo_blocks(alg, endo, components):
    """``ideal_endo_blocks`` in Fraction arithmetic: each image of a
    leading-1 component basis row is reduced against the tagged span of
    the stacked rows, and each block reads its rows off the coordinates."""
    n = alg.dim
    if endo.rows != n or endo.cols != n:
        raise ValueError("matrix shape does not match the algebra dimension")
    if not components:
        return EndoBlockReport((), (), True)
    stacked = [v for comp in components for v in comp.pivot_rows.values()]
    tagged = Subspace.span(
        n + len(stacked), [{**v, n + t: ONE} for t, v in enumerate(stacked)])
    if any(p >= n for p in tagged.pivot_cols()):
        raise ValueError("components are not independent")
    cols = endo.columns
    coords = []  # coords[t][u]: coordinate u of endo(stacked[t])
    for v in stacked:
        image = {}
        for c, x in v.items():
            for r, y in cols.get(c, {}).items():
                image[r] = image.get(r, 0) + x * y
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
