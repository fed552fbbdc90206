"""Right-module structure over sl2 subalgebras: weights, highest-weight
vectors, irreducible decomposition, and the paired-columns structure check.

The module convention throughout is the right action x . g = [x, g].  All
subspaces returned here live in the coordinates of the ambient algebra, so
results compose directly with the ideal and radical machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Algebra, LeviDatum, squares_ideal, squares_quotient
from .exactlin import (
    Matrix,
    Subspace,
    Vec,
    ZERO,
    format_rational,
    nullspace,
    rational_eigen,
    unit_vec,
    vec_is_zero,
    vec_scale,
)


class ModuleError(Exception):
    """The requested module-theoretic structure does not exist or cannot be
    certified for this input."""


@dataclass(frozen=True)
class Sl2Triple:
    """An sl2 triple (e, f, h) given in ambient coordinates."""

    e: Vec
    f: Vec
    h: Vec

    @staticmethod
    def from_indices(dim: int, indices: Sequence[int]) -> "Sl2Triple":
        ie, if_, ih = indices
        return Sl2Triple(unit_vec(dim, ie), unit_vec(dim, if_), unit_vec(dim, ih))


def check_sl2_triple(alg: Algebra, levi: LeviDatum, t: Sl2Triple) -> tuple[str, ...]:
    """Violated relations of the canonical sl2 presentation; empty means pass.

    The triple must be supported on the declared semisimple-part indices,
    and the six products [e,h]=2e, [h,e]=-2e, [h,f]=2f, [f,h]=-2f,
    [e,f]=h, [f,e]=-h must hold exactly.
    """
    problems = []
    g_set = set(levi.g_indices)
    for label, vec in (("e", t.e), ("f", t.f), ("h", t.h)):
        if len(vec) != alg.dim:
            return (f"vector {label} has the wrong length",)
        outside = [i for i, v in enumerate(vec) if v != 0 and i not in g_set]
        if outside:
            problems.append(
                f"vector {label} has support outside the semisimple part "
                f"at indices {outside}")
    expected = (
        ("[e,h] = 2e", t.e, t.h, vec_scale(Fraction(2), t.e)),
        ("[h,e] = -2e", t.h, t.e, vec_scale(Fraction(-2), t.e)),
        ("[h,f] = 2f", t.h, t.f, vec_scale(Fraction(2), t.f)),
        ("[f,h] = -2f", t.f, t.h, vec_scale(Fraction(-2), t.f)),
        ("[e,f] = h", t.e, t.f, t.h),
        ("[f,e] = -h", t.f, t.e, vec_scale(Fraction(-1), t.h)),
    )
    for label, x, y, want in expected:
        if alg.product(x, y) != want:
            problems.append(f"relation {label} fails")
    return tuple(problems)


# ----------------------------------------------------------------- weights

@dataclass(frozen=True)
class WeightSpaces:
    """Eigenspaces of the right action of h on an invariant subspace.

    ``complete`` is False when rational eigenvalues do not account for the
    whole space; the listed pairs are still exact.
    """

    pairs: tuple[tuple[Fraction, Subspace], ...]
    complete: bool

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.pairs)


def _restricted_action(alg: Algebra, sub: Subspace, g_vec: Vec) -> Matrix:
    """Matrix of v -> [v, g] on sub in its canonical basis coordinates."""
    d = sub.dim
    images = []
    for v in sub.basis.data:
        coords = sub.coords_of(alg.product(v, g_vec))
        if coords is None:
            raise ModuleError(
                "subspace is not invariant under the requested right action")
        images.append(coords)
    return Matrix(d, d, tuple(
        tuple(images[j][k] for j in range(d)) for k in range(d)))


def _to_ambient(sub: Subspace, coeffs: Sequence[Fraction]) -> Vec:
    out = [ZERO] * sub.ambient_dim
    for c, row in zip(coeffs, sub.basis.data):
        if c != 0:
            for i, entry in enumerate(row):
                if entry != 0:
                    out[i] += c * entry
    return tuple(out)


def weight_decomposition(alg: Algebra, sub: Subspace, t: Sl2Triple) -> WeightSpaces:
    """Split an h-invariant subspace into rational weight spaces, ascending."""
    if sub.dim == 0:
        return WeightSpaces((), True)
    action = _restricted_action(alg, sub, t.h)
    eigen = rational_eigen(action)
    pairs = []
    for value, space in eigen.pairs:
        ambient = Subspace.from_vectors(
            sub.ambient_dim, [_to_ambient(sub, v) for v in space.basis.data])
        pairs.append((value, ambient))
    return WeightSpaces(tuple(pairs), eigen.complete)


@dataclass(frozen=True)
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
    kernel = nullspace(_restricted_action(alg, sub, t.e))
    top = Subspace.from_vectors(
        sub.ambient_dim, [_to_ambient(sub, c) for c in kernel.basis.data])
    spaces = weight_decomposition(alg, top, t)
    if not spaces.complete:
        raise ModuleError("weight decomposition is incomplete over the rationals")
    return tuple(HighestWeightVector(weight, v)
                 for weight, space in reversed(spaces.pairs)
                 for v in space.basis.data)


# ----------------------------------------------------------- decomposition

@dataclass(frozen=True)
class ModuleDecomposition:
    """Direct-sum split into irreducible submodules.

    Component k has dimension highest_weights[k] + 1; components are
    ordered by descending highest weight, then by the leading coordinate of
    the generating highest-weight vector.
    """

    components: tuple[Subspace, ...]
    highest_weights: tuple[int, ...]


def irreducible_decomposition_sl2(
    alg: Algebra, sub: Subspace, t: Sl2Triple,
) -> ModuleDecomposition:
    """Decompose an invariant subspace by spinning highest-weight vectors
    down with the right f-action."""
    components = []
    weights = []
    all_vectors: list[Vec] = []
    for hw in highest_weight_vectors(alg, sub, t):
        if hw.weight.denominator != 1 or hw.weight < 0:
            raise ModuleError(
                f"highest weight {format_rational(hw.weight)} is not a "
                "non-negative integer; the action is not semisimple over Q")
        w = int(hw.weight)
        chain = [hw.vector]
        current = hw.vector
        for _ in range(w):
            current = alg.product(current, t.f)
            if vec_is_zero(current):
                raise ModuleError(
                    "lowering chain stopped before filling the expected "
                    f"{w + 1}-dimensional component")
            chain.append(current)
        beyond = alg.product(current, t.f)
        if not vec_is_zero(beyond):
            raise ModuleError(
                "lowering chain exceeds the dimension allowed by its weight")
        comp = Subspace.from_vectors(sub.ambient_dim, chain)
        if comp.dim != w + 1:
            raise ModuleError("lowering chain vectors are linearly dependent")
        components.append(comp)
        weights.append(w)
        all_vectors.extend(chain)
    total = Subspace.from_vectors(sub.ambient_dim, all_vectors)
    if total != sub or sum(w + 1 for w in weights) != sub.dim:
        raise ModuleError(
            "highest-weight chains do not fill the subspace; the right "
            "action is not completely reducible over Q")
    return ModuleDecomposition(tuple(components), tuple(weights))


# ------------------------------------------------------ paired-column check

@dataclass(frozen=True)
class ConditionCheck:
    ok: bool
    message: str


@dataclass(frozen=True)
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

    def all_pass(self) -> bool:
        return self.quotient_pair.ok and self.equal_columns.ok \
            and self.doublet_rows.ok

    def lines(self) -> tuple[str, ...]:
        out = []
        for label, check in (
            ("quotient_pair", self.quotient_pair),
            ("equal_columns", self.equal_columns),
            ("doublet_rows", self.doublet_rows),
        ):
            state = "pass" if check.ok else "FAIL"
            out.append(f"{label}: {state} ({check.message})")
        return tuple(out)


def pair_structure_report(alg: Algebra, levi: LeviDatum) -> PairStructureReport:
    if len(levi.sl2_triples) != 2:
        raise ModuleError(
            "the paired-column structure check needs exactly two sl2 triples; "
            f"the declared split carries {len(levi.sl2_triples)}")
    t1 = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    t2 = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[1])
    quotient_pair = _check_quotient_pair(alg, levi, t1, t2)
    ideal = squares_ideal(alg)
    equal_columns = _check_equal_columns(alg, ideal, t1)
    doublet_rows = _check_doublet_rows(alg, ideal, t2)
    return PairStructureReport(quotient_pair, equal_columns, doublet_rows)


def _check_quotient_pair(
    alg: Algebra, levi: LeviDatum, t1: Sl2Triple, t2: Sl2Triple,
) -> ConditionCheck:
    if len(levi.g_indices) != 6:
        return ConditionCheck(
            False, f"semisimple part has dimension {len(levi.g_indices)}, not 6")
    for name, t in (("first", t1), ("second", t2)):
        bad = check_sl2_triple(alg, levi, t)
        if bad:
            return ConditionCheck(False, f"{name} triple invalid: {bad[0]}")
    span = Subspace.from_vectors(
        alg.dim, [t1.e, t1.f, t1.h, t2.e, t2.f, t2.h])
    if span.dim != 6:
        return ConditionCheck(False, "the two triples do not span independently")
    for u in (t1.e, t1.f, t1.h):
        for v in (t2.e, t2.f, t2.h):
            if not vec_is_zero(alg.product(u, v)) \
                    or not vec_is_zero(alg.product(v, u)):
                return ConditionCheck(False, "the two sl2 blocks do not commute")
    quo = squares_quotient(alg)
    if quo.algebra.dim != 6:
        return ConditionCheck(
            False, f"quotient dimension is {quo.algebra.dim}, not 6")
    return ConditionCheck(True, "two commuting sl2 blocks span the quotient")


def _check_equal_columns(alg: Algebra, ideal: Subspace, t1: Sl2Triple) -> ConditionCheck:
    try:
        dec = irreducible_decomposition_sl2(alg, ideal, t1)
    except ModuleError as exc:
        return ConditionCheck(False, f"decomposition failed: {exc}")
    dims = tuple(c.dim for c in dec.components)
    if len(dims) == 2 and dims[0] == dims[1]:
        return ConditionCheck(
            True, f"two irreducible components, each of dimension {dims[0]}")
    return ConditionCheck(
        False, f"expected two components of equal dimension, found {dims}")


def _check_doublet_rows(alg: Algebra, ideal: Subspace, t2: Sl2Triple) -> ConditionCheck:
    try:
        dec = irreducible_decomposition_sl2(alg, ideal, t2)
    except ModuleError as exc:
        return ConditionCheck(False, f"decomposition failed: {exc}")
    dims = tuple(c.dim for c in dec.components)
    if dims and all(d == 2 for d in dims) and 2 * len(dims) == ideal.dim:
        return ConditionCheck(
            True, f"{len(dims)} two-dimensional irreducible components")
    return ConditionCheck(
        False, f"expected all components two-dimensional, found {dims}")
