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
    Subspace,
    Vec,
    ZERO,
    _axpy,
    _cleared,
    _row_to_dict,
    kernel_of_constraints,
    value_type,
)


# ----------------------------------------------------------------- weights

@value_type
class WeightSpaces:
    """Weight spaces of the right action of h on an sl2-submodule, weights
    ascending.

    ``complete`` is False, with no pairs, when the subspace is not a sum of
    lowering chains of h-weight vectors (see ``weight_decomposition``).
    """

    pairs: tuple[tuple[Fraction, Subspace], ...]
    complete: bool

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.pairs)


def weight_decomposition(alg: Algebra, sub: Subspace, t: Sl2Triple) -> WeightSpaces:
    """Split a subspace into its h-weight spaces, ascending.

    A finite-dimensional sl2-module is the direct sum of the lowering
    chains of its highest-weight vectors, and the chain of highest weight w
    holds one vector of each weight w, w - 2, ..., -w (Humphreys,
    *Introduction to Lie Algebras and Representation Theory*, §7.2).  So
    the weight spaces are spans of the chain vectors of
    ``irreducible_decomposition_sl2``, each checked against h with one
    product.  When the chains do not fill the subspace, or a chain vector
    is not a weight vector of its weight, the pairs are empty and
    ``complete`` is False; ModuleError if the subspace is not h-invariant.
    """
    hden, h = _cleared(_row_to_dict(t.h))
    scale = alg._den * hden
    rows: dict[int, list[dict[int, int]]] = {}
    try:
        for chain in _lowering_chains(alg, sub, t)[1]:
            for k, v in enumerate(chain):
                weight = len(chain) - 1 - 2 * k
                if ({c: x for c, x in _product(alg, v, h).items() if x}
                        != {c: weight * scale * x for c, x in v.items() if weight * x}):
                    raise ModuleError("a chain vector is not a weight vector")
                rows.setdefault(weight, []).append(v)
    except ModuleError:
        if not all(sub.holds(_product(alg, v, h)) for v in sub.rows.values()):
            raise ModuleError("subspace is not invariant under the right h-action")
        return WeightSpaces((), False)
    return WeightSpaces(
        tuple((Fraction(weight), Subspace.span(sub.ambient_dim, vectors))
              for weight, vectors in sorted(rows.items())),
        True)


@value_type
class HighestWeightVector:
    weight: Fraction
    vector: Vec


def _kernel_strings(strings: list[list[dict[int, int]]],
                    images: list[dict[int, int]]) -> list[list[dict[int, int]]]:
    """The kernel of the linear map that sends the head of strings[i] to
    images[i], as strings: one per row of ``kernel_of_constraints`` over
    the coefficients, that row's integer combination of the strings with
    trailing zeros dropped.  A combination of f-strings, each vector k
    scaled alike, is the f-string of the combined head; a row with one
    coefficient keeps its string."""
    constraints: dict[int, dict[int, int]] = {}
    for i, image in enumerate(images):
        for c, x in image.items():
            if x:
                constraints.setdefault(c, {})[i] = x
    kernel = []
    for coeffs in kernel_of_constraints(constraints.values(), len(strings)).rows.values():
        if len(coeffs) == 1:
            kernel.append(strings[next(iter(coeffs))])
            continue
        combo: list[dict[int, int]] = []
        for i, x in coeffs.items():
            for k, v in enumerate(strings[i]):
                if k == len(combo):
                    combo.append({})
                for c, y in v.items():
                    combo[k][c] = combo[k].get(c, 0) + x * y
        combo = [{c: y for c, y in v.items() if y} for v in combo]
        while not combo[-1]:
            combo.pop()
        kernel.append(combo)
    return kernel


def highest_weight_vectors(
    alg: Algebra, sub: Subspace, t: Sl2Triple,
) -> tuple[HighestWeightVector, ...]:
    """Weight vectors killed by the right e-action, highest weight first.

    In an sl2-module a vector of ker e has weight w exactly when its
    f-string v, v·f, v·f², ... has w + 1 vectors (Humphreys,
    *Introduction to Lie Algebras and Representation Theory*, §7.2), so
    the weights are read off integer kernels, with no eigenproblem.  K
    starts as ker e on ``sub``, one kernel over the coefficients of
    ``sub.rows``, and each of its rows carries its f-string, of at most
    dim ``sub`` vectors.  The longest string gives the top weight w; the
    vectors of weight w are the kernel of h - w on K, and K goes on as
    the kernel of f^w on K, whose strings are combinations of the ones
    already built.  ModuleError unless ``sub`` is invariant under the
    right e-action, every string ends within dim ``sub`` vectors, and at
    each w the vectors of weight w fill K modulo the kernel of f^w, so
    that together they fill ker e.  Then a vector u of weight w has
    u·f^w != 0 = u·f^(w+1).  Each weight's vectors are the ambient RREF
    rows of their span, so within one weight they ascend by leading
    index, as ``ModuleDecomposition`` promises.  ValueError for a
    subspace of another space than the algebra's.
    """
    if sub.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension mismatch")
    e, f = (_cleared(_row_to_dict(g))[1] for g in (t.e, t.f))
    hden, h = _cleared(_row_to_dict(t.h))
    scale = alg._den * hden
    rows = list(sub.rows.values())
    images = [_product(alg, v, e) for v in rows]
    if not all(map(sub.holds, images)):
        raise ModuleError("subspace is not invariant under the right e-action")
    kernel = _kernel_strings([[v] for v in rows], images)
    for string in kernel:
        while v := {c: x for c, x in _product(alg, string[-1], f).items() if x}:
            if len(string) == sub.dim:
                raise ModuleError(
                    "lowering chain exceeds the dimension allowed by its "
                    f"weight: f^{sub.dim} is not zero on a {sub.dim}-"
                    "dimensional subspace")
            string.append(v)
    spaces = []
    while kernel:
        w = max(map(len, kernel)) - 1
        top = _kernel_strings(kernel, [
            _axpy(1, _product(alg, s[0], h), -w * scale, s[0]) for s in kernel])
        rest = _kernel_strings(kernel, [s[w] if len(s) > w else {} for s in kernel])
        if len(top) < len(kernel) - len(rest):
            raise ModuleError(
                f"in ker e, weight {w} has dimension {len(top)} but lowering "
                f"chains of length {w + 1} need dimension "
                f"{len(kernel) - len(rest)}; the action is not semisimple over Q")
        spaces.append((w, Subspace.span(sub.ambient_dim, [s[0] for s in top])))
        kernel = rest
    return tuple(HighestWeightVector(
                     Fraction(w), tuple(row.get(c, ZERO) for c in range(alg.dim)))
                 for w, space in spaces for row in space.pivot_rows.values())


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
def _lowering_chains(
    alg: Algebra, sub: Subspace, t: Sl2Triple,
) -> tuple[ModuleDecomposition, tuple[tuple[dict[int, int], ...], ...]]:
    """The decomposition of an invariant subspace and, for each component,
    its lowering chain: a highest-weight vector spun down with the right
    f-action, in integers.  Each chain vector is a multiple of the exact
    one, which leaves the spans as they are.  ``highest_weight_vectors``
    gives a vector u of weight w only with u·f^w != 0 = u·f^(w+1), so its
    chain u, ..., u·f^w is linearly independent and needs no check.  Kept
    per subspace and triple for
    ``irreducible_decomposition_sl2`` and ``weight_decomposition``; a
    ModuleError is not kept, so each call raises it again."""
    f = _cleared(_row_to_dict(t.f))[1]
    components = []
    weights = []
    chains: list[tuple[dict[int, int], ...]] = []
    for hw in highest_weight_vectors(alg, sub, t):
        w = int(hw.weight)
        chain = [_cleared(_row_to_dict(hw.vector))[1]]
        for _ in range(w):
            chain.append(_product(alg, chain[-1], f))
        components.append(Subspace.span(sub.ambient_dim, chain))
        weights.append(w)
        chains.append(tuple(chain))
    total = Subspace.span(sub.ambient_dim, [v for chain in chains for v in chain])
    if total != sub or sum(w + 1 for w in weights) != sub.dim:
        raise ModuleError(
            "highest-weight chains do not fill the subspace; the right "
            "action is not completely reducible over Q")
    return ModuleDecomposition(tuple(components), tuple(weights)), tuple(chains)


def irreducible_decomposition_sl2(
    alg: Algebra, sub: Subspace, t: Sl2Triple,
) -> ModuleDecomposition:
    """Decompose an invariant subspace by spinning highest-weight vectors
    down with the right f-action (``_lowering_chains``).  Kept per subspace
    and triple; a ModuleError is not kept, so each call raises it again."""
    return _lowering_chains(alg, sub, t)[0]


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
