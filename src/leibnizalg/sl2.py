"""Right-module structure over sl2 subalgebras: weights, highest-weight
vectors, irreducible decomposition, and the paired-columns structure check.

The module convention throughout is the right action x . g = [x, g].  All
subspaces returned here live in the coordinates of the ambient algebra, so
results compose directly with the ideal and radical machinery.  The triple
type, its relation check and ``ModuleError`` live in ``core`` beside the
declared split they validate; this module imports them from there.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Algebra,
    LeviDatum,
    ModuleError,
    Sl2Triple,
    _product,
    _require_levi,
    check_sl2_triple,
    per_algebra,
    squares_ideal,
    squares_quotient,
)
from .exactlin import (
    Matrix,
    Subspace,
    Vec,
    ZERO,
    _cleared,
    _row_to_dict,
    format_rational,
    nullspace,
    rational_eigen,
    value_type,
)


# ----------------------------------------------------------------- weights

@value_type
class WeightSpaces:
    """Eigenspaces of the right action of h on an invariant subspace.

    ``complete`` is False when rational eigenvalues do not account for the
    whole space; the listed pairs are still exact.
    """

    pairs: tuple[tuple[Fraction, Subspace], ...]
    complete: bool

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.pairs)


def _restricted_action(alg: Algebra, sub: Subspace, g: dict[int, Fraction]) -> Matrix:
    """Matrix of v -> [v, g] on sub in its canonical basis coordinates.

    An image inside the RREF span is the sum of the basis rows weighted by
    its own entries at the pivot columns, so those entries are its
    coordinates: column c holds the image of basis row c, read through the
    position of each pivot column.  The image is formed from the integer
    table, row and g, and divided by their scales once."""
    gden, g = _cleared(g)
    den = alg._den * gden
    position = {p: r for r, p in enumerate(sub.rows)}
    columns = {}
    for c, (p, v) in enumerate(sub.rows.items()):
        image = _product(alg, v, g)
        if not sub.holds(image):
            raise ModuleError(
                "subspace is not invariant under the requested right action")
        scale = den * v[p]
        columns[c] = {position[q]: Fraction(x, scale)
                      for q, x in image.items() if x and q in position}
    return Matrix(sub.dim, sub.dim, columns)


def weight_decomposition(alg: Algebra, sub: Subspace, t: Sl2Triple) -> WeightSpaces:
    """Split an h-invariant subspace into rational weight spaces, ascending."""
    if sub.dim == 0:
        return WeightSpaces((), True)
    eigen = rational_eigen(_restricted_action(alg, sub, _row_to_dict(t.h)))
    return WeightSpaces(
        tuple((value, sub.lift(space)) for value, space in eigen.pairs),
        eigen.complete)


@value_type
class HighestWeightVector:
    weight: Fraction
    vector: Vec


def highest_weight_vectors(
    alg: Algebra, sub: Subspace, t: Sl2Triple,
) -> tuple[HighestWeightVector, ...]:
    """Weight vectors killed by the right e-action, highest weight first.

    These are the h-weight vectors of ker(e|sub), one dimension per
    irreducible component (Humphreys, *Introduction to Lie Algebras and
    Representation Theory*, §7.2).  ModuleError unless ``sub`` is invariant
    under the right e-action and the kernel's weights are all rational.
    Each weight space's basis is in ambient RREF, so within one weight the
    vectors ascend by leading index, as ``ModuleDecomposition`` promises.
    """
    kernel = nullspace(_restricted_action(alg, sub, _row_to_dict(t.e)))
    spaces = weight_decomposition(alg, sub.lift(kernel), t)
    if not spaces.complete:
        raise ModuleError("weight decomposition is incomplete over the rationals")
    return tuple(HighestWeightVector(
                     weight, tuple(row.get(c, ZERO) for c in range(alg.dim)))
                 for weight, space in reversed(spaces.pairs)
                 for row in space.pivot_rows.values())


# ----------------------------------------------------------- decomposition

@value_type
class ModuleDecomposition:
    """Direct-sum split into irreducible submodules.

    Component k has dimension highest_weights[k] + 1; components are
    ordered by descending highest weight, then by the leading coordinate of
    the generating highest-weight vector.
    """

    components: tuple[Subspace, ...]
    highest_weights: tuple[int, ...]


@per_algebra
def irreducible_decomposition_sl2(
    alg: Algebra, sub: Subspace, t: Sl2Triple,
) -> ModuleDecomposition:
    """Decompose an invariant subspace by spinning highest-weight vectors
    down with the right f-action, in integers: each chain vector is a
    multiple of the exact one, which leaves the spans as they are.  Kept per
    subspace and triple; a ModuleError is not kept, so each call raises it
    again."""
    f = _cleared(_row_to_dict(t.f))[1]
    components = []
    weights = []
    all_rows: list[dict[int, int]] = []
    for hw in highest_weight_vectors(alg, sub, t):
        if hw.weight.denominator != 1 or hw.weight < 0:
            raise ModuleError(
                f"highest weight {format_rational(hw.weight)} is not a "
                "non-negative integer; the action is not semisimple over Q")
        w = int(hw.weight)
        current = _cleared(_row_to_dict(hw.vector))[1]
        chain = [current]
        for _ in range(w):
            current = _product(alg, current, f)
            if not any(current.values()):
                raise ModuleError(
                    "lowering chain stopped before filling the expected "
                    f"{w + 1}-dimensional component")
            chain.append(current)
        if any(_product(alg, current, f).values()):
            raise ModuleError(
                "lowering chain exceeds the dimension allowed by its weight")
        comp = Subspace.span(sub.ambient_dim, chain)
        if comp.dim != w + 1:
            raise ModuleError("lowering chain vectors are linearly dependent")
        components.append(comp)
        weights.append(w)
        all_rows.extend(chain)
    total = Subspace.span(sub.ambient_dim, all_rows)
    if total != sub or sum(w + 1 for w in weights) != sub.dim:
        raise ModuleError(
            "highest-weight chains do not fill the subspace; the right "
            "action is not completely reducible over Q")
    return ModuleDecomposition(tuple(components), tuple(weights))


# ------------------------------------------------------ paired-column check

@value_type
class ConditionCheck:
    ok: bool
    message: str


@value_type
class PairStructureReport:
    """Structure probe for algebras built from two commuting sl2 blocks
    acting on a paired family of module columns.

    quotient_pair: the semisimple part is six-dimensional and splits as two
    commuting valid sl2 triples.
    equal_columns: the squares ideal is two irreducible components of equal
    dimension under the first triple.
    doublet_rows: the squares ideal splits into two-dimensional irreducible
    components under the second triple.
    """

    quotient_pair: ConditionCheck
    equal_columns: ConditionCheck
    doublet_rows: ConditionCheck

    def checks(self) -> tuple[tuple[str, ConditionCheck], ...]:
        """The three checks under their labels, in report order."""
        return (("quotient_pair", self.quotient_pair),
                ("equal_columns", self.equal_columns),
                ("doublet_rows", self.doublet_rows))

    def all_pass(self) -> bool:
        return all(check.ok for _, check in self.checks())

    def lines(self) -> tuple[str, ...]:
        return tuple(f"{label}: {'pass' if check.ok else 'FAIL'} "
                     f"({check.message})" for label, check in self.checks())


def pair_structure_report(alg: Algebra, levi: LeviDatum) -> PairStructureReport:
    _require_levi(levi)
    if len(levi.sl2_triples) != 2:
        raise ModuleError(
            "the paired-column structure check needs exactly two sl2 triples; "
            f"the declared split carries {len(levi.sl2_triples)}")
    t1, t2 = (Sl2Triple.from_indices(alg.dim, raw) for raw in levi.sl2_triples)
    return PairStructureReport(
        _check_quotient_pair(alg, levi, t1, t2),
        _check_shape(alg, t1, lambda d: len(d) == 2 and d[0] == d[1],
                     lambda d: "two irreducible components, each of "
                               f"dimension {d[0]}",
                     "two components of equal dimension"),
        _check_shape(alg, t2, lambda d: set(d) == {2},
                     lambda d: f"{len(d)} two-dimensional irreducible components",
                     "all components two-dimensional"))


def _check_quotient_pair(
    alg: Algebra, levi: LeviDatum, t1: Sl2Triple, t2: Sl2Triple,
) -> ConditionCheck:
    """The triples are unit vectors at the declared indices: independent
    when the six are distinct, commuting when no product links them."""
    if len(levi.g_indices) != 6:
        return ConditionCheck(
            False, f"semisimple part has dimension {len(levi.g_indices)}, not 6")
    for name, t in (("first", t1), ("second", t2)):
        bad = check_sl2_triple(alg, levi, t)
        if bad:
            return ConditionCheck(False, f"{name} triple invalid: {bad[0]}")
    first, second = levi.sl2_triples
    if len(set(first + second)) != 6:
        return ConditionCheck(False, "the two triples do not span independently")
    if any(alg.c(a, b) or alg.c(b, a) for a in first for b in second):
        return ConditionCheck(False, "the two sl2 blocks do not commute")
    quo = squares_quotient(alg)
    if quo.algebra.dim != 6:
        return ConditionCheck(
            False, f"quotient dimension is {quo.algebra.dim}, not 6")
    return ConditionCheck(True, "two commuting sl2 blocks span the quotient")


def _check_shape(alg: Algebra, t: Sl2Triple, fits, passed,
                 expected: str) -> ConditionCheck:
    """Do the squares ideal's component dimensions under t fit the shape?
    They always sum to the ideal's dimension."""
    try:
        dec = irreducible_decomposition_sl2(alg, squares_ideal(alg), t)
    except ModuleError as exc:
        return ConditionCheck(False, f"decomposition failed: {exc}")
    dims = tuple(c.dim for c in dec.components)
    if fits(dims):
        return ConditionCheck(True, passed(dims))
    return ConditionCheck(False, f"expected {expected}, found {dims}")
