"""The solvable radical and the simplicity verdict.

The derived series, the Killing form and the solvable radical, the
centroid, the split of a radical-free Lie algebra into simple ideals, and
the three-valued simplicity verdict.  Everything here reads ``core``'s
squares ideal, quotient and identity kernels.  The package binds this
module lazily, so among the CLI commands only ``radical`` compiles it; the
eigen theory of the summand split (``eigen``) is imported when a split
first meets a centroid of more than one dimension.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Algebra,
    LeviDatum,
    ModuleError,
    Quotient,
    Sl2Triple,
    StructureError,
    _accumulate,
    _identity_kernel,
    _is_ideal,
    _product,
    ensure_leibniz,
    kernel_maps,
    per_algebra,
    squares_ideal,
    squares_quotient,
    validate_levi,
)
from .exactlin import Matrix, Subspace, ZERO, kernel_of_constraints, value_type


# ----------------------------------------------------------- derived series

def derived_subalgebra(alg: Algebra, sub: Subspace | None = None) -> Subspace:
    """Span of all products of elements of the given subspace (default: all).

    A basis vector u of sub with no coordinate in a row of the table
    multiplies every vector to zero from the left, and a v with no
    coordinate in a column does so from the right; only the products of
    the other pairs are formed, from the integer table and rows, which
    scale each product and keep the span."""
    if sub is None:  # the products of basis pairs are the table's entries
        return Subspace.span(alg.dim, map(dict, alg._ints.values()))
    rows = sub.rows.values()
    lefts = [u for u in rows if any(i in alg._by_left for i in u)]
    rights = [v for v in rows if any(j in alg._by_right for j in v)]
    return Subspace.span(alg.dim, (_product(alg, u, v)
                                   for u in lefts for v in rights))


def derived_series(alg: Algebra, start: Subspace | None = None) -> list[Subspace]:
    """Descending derived series until it stabilizes, first term included."""
    current = start if start is not None else Subspace.full(alg.dim)
    series = [current]
    while True:
        nxt = derived_subalgebra(alg, current)
        if nxt == current:
            return series
        series.append(nxt)
        current = nxt


# ------------------------------------------------------------ Killing form

def killing_form(alg: Algebra) -> Matrix:
    """Gram matrix of the trace form of composed multiplications, symmetric
    by construction; requires a Lie algebra."""
    if not alg.is_lie():
        raise StructureError("Killing form requested on a non-Lie algebra")
    n = alg.dim
    # mults[i][k][l] is entry (k, l) of right multiplication by e_i, the
    # coefficient of e_k in [e_l, e_i], so
    # tr(R_i R_j) = sum over k, l of mults[i][k][l] * mults[j][l][k]
    mults: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(n)]
    for (l, i), entries in alg.table_items():
        for k, coeff in entries:
            mults[i].setdefault(k, {})[l] = coeff
    gram: dict[int, dict[int, Fraction]] = {c: {} for c in range(n)}
    for i in range(n):
        for j in range(i, n):
            mj = mults[j]
            gram[j][i] = gram[i][j] = sum(
                (a * mj[l].get(k, ZERO) for k, row in mults[i].items()
                 for l, a in row.items() if l in mj), ZERO)
    return Matrix(n, n, gram)


# ---------------------------------------------------------------- radical

def _pullback(quo: Quotient, sub: Subspace) -> Subspace:
    """Preimage of a quotient subspace: the span of the ideal's rows and of
    sub's rows, quotient coordinate k relabelled as complement column k."""
    cols = quo.complement_cols
    return Subspace.span(quo.ideal.ambient_dim, [
        *quo.ideal.rows.values(),
        *({cols[k]: x for k, x in row.items()} for row in sub.rows.values())])


@per_algebra
def solvable_radical(alg: Algebra) -> Subspace:
    """Largest solvable ideal: the squares ideal plus the pullback of the
    quotient Lie algebra's radical (derived-subalgebra orthogonal complement
    with respect to the Killing form)."""
    ensure_leibniz(alg)
    quo = squares_quotient(alg)
    qalg = quo.algebra
    if not qalg.is_lie():
        raise StructureError("quotient by the squares ideal is not Lie")
    gram = killing_form(qalg)
    derived = derived_subalgebra(qalg)
    # gram is symmetric, so the functional of w is the w-combination of
    # columns; a multiple of w, its integer row, gives the same constraint
    constraint_rows = []
    for w in derived.rows.values():
        functional: dict[int, Fraction] = {}
        for k, x in w.items():
            _accumulate(functional, x, gram.columns.get(k, {}).items())
        constraint_rows.append(functional)
    rad = _pullback(quo, kernel_of_constraints(constraint_rows, qalg.dim))
    if derived_series(alg, rad)[-1].dim != 0:
        raise StructureError("radical candidate failed the solvability check")
    return rad


def is_semisimple(alg: Algebra) -> bool:
    """Semisimple here: the solvable radical is exactly the squares ideal."""
    return solvable_radical(alg) == squares_ideal(alg)


# ----------------------------------------------------------------- centroid

def centroid(alg: Algebra) -> tuple[Matrix, ...]:
    """Canonical basis of the maps commuting with all multiplications."""
    return kernel_maps(_identity_kernel(alg, ((True, False), (False, True))), alg.dim)



# ------------------------------------------------------------ simple parts

@value_type
class SummandSplit:
    """Simple-ideal decomposition attempt for a semisimple Lie algebra.

    ``determined`` is False when no centroid element in the deterministic
    candidate sweep had a complete rational eigen decomposition separating
    the summands; the split is then unresolved, not disproved.
    """

    summands: tuple[Subspace, ...]
    determined: bool


def simple_summands(alg: Algebra) -> SummandSplit:
    """Split a radical-free Lie algebra into ideals via centroid eigenspaces.

    The projections onto the simple ideals are independent centroid
    elements, so a centroid of Q·id leaves one summand, the whole algebra,
    and no eigenspace is computed."""
    if not alg.is_lie():
        raise StructureError("summand split requested on a non-Lie algebra")
    if solvable_radical(alg).dim != 0:
        raise StructureError("summand split requested with a nonzero radical")
    return _split_summands(alg)


def _split_summands(alg: Algebra) -> SummandSplit:
    """``simple_summands`` of a Lie algebra known to be radical free.

    The eigenspaces of c(t) = Σ t^p c_p, c_p the centroid basis, are
    ideals, so k = dim centroid of them need a split centroid (≅ Q^k).
    There every c(t) is diagonalizable over Q, so an incomplete one ends
    the sweep, and its eigenvalues on the k summands are distinct
    polynomials in t of degree < k, so some t ≤ 1 + (k-1)·k(k-1)/2
    separates them."""
    n = alg.dim
    cents = centroid(alg)
    k = len(cents)
    if k == 1:
        return SummandSplit((Subspace.full(n),), True)
    from .eigen import rational_eigen
    for t in range(1, 2 + (k - 1) * k * (k - 1) // 2):
        combo = Matrix.combination(
            n, n, ((t ** power, c) for power, c in enumerate(cents)))
        eigen = rational_eigen(combo)
        if not eigen.complete:
            break
        spaces = tuple(space for _, space in eigen.pairs)
        if len(spaces) == k and all(_is_ideal(alg, s) for s in spaces):
            return SummandSplit(spaces, True)
    return SummandSplit((), False)


# ------------------------------------------------------- simplicity verdict

@value_type
class SimplicityCertificate:
    """Three-valued simplicity verdict with supporting evidence.

    verdict is "yes", "no", or "unknown".  For "no", ``witness`` carries a
    proper two-sided ideal different from the squares ideal when one was
    found; ``detail`` explains the deciding fact in every case.
    """

    verdict: str
    witness: Subspace | None
    detail: str


def is_simple_certified(alg: Algebra, levi: LeviDatum) -> SimplicityCertificate:
    """Decide simplicity where the module theory allows, with certificates.

    Simple means: the only ideals are zero, the squares ideal, and the whole
    algebra, and the derived subalgebra differs from the squares ideal.
    A Lie input is the case of a zero squares ideal: it is simple when it
    is not abelian, has no radical and does not split.  ``validate_levi``
    checks the Leibniz identity through ``squares_ideal``.
    """
    validate_levi(alg, levi)
    n = alg.dim
    sq = squares_ideal(alg)
    derived = derived_subalgebra(alg)
    if derived == sq:
        return SimplicityCertificate(
            "no", None, "derived subalgebra equals the ideal of squares")
    rad = solvable_radical(alg)
    if rad != sq:
        # the derived subalgebra holds the squares and differs from them, so
        # it is nonzero
        witness = rad if rad.dim < n else derived if derived.dim < n else None
        return SimplicityCertificate(
            "no", witness, "solvable radical exceeds the ideal of squares")
    # the radical has proved the quotient Lie, and radical free as the
    # radical is the squares ideal
    quo = squares_quotient(alg)
    split = _split_summands(quo.algebra)
    if not split.determined:
        return SimplicityCertificate(
            "unknown", None, "quotient summand split unresolved")
    if len(split.summands) > 1:
        return SimplicityCertificate(
            "no", _pullback(quo, split.summands[0]),
            "quotient splits into multiple simple ideals")
    if sq.dim == 0:
        return SimplicityCertificate("yes", None, "simple as a Lie algebra")
    if len(levi.sl2_triples) == 1 and len(levi.g_indices) == 3:
        from .sl2 import irreducible_decomposition_sl2
        triple = Sl2Triple.from_indices(n, levi.sl2_triples[0])
        try:
            dec = irreducible_decomposition_sl2(alg, sq, triple)
        except ModuleError as exc:
            return SimplicityCertificate(
                "unknown", None, f"module decomposition failed: {exc}")
        if len(dec.components) == 1:
            return SimplicityCertificate(
                "yes", None,
                "radical-free quotient is one simple summand and the ideal of "
                "squares is an irreducible module over it")
        return SimplicityCertificate(
            "no", dec.components[0],
            "the ideal of squares, hence the algebra, has a proper submodule ideal")
    return SimplicityCertificate(
        "unknown", None,
        "module irreducibility undecided for this semisimple part")
