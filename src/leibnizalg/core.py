"""Structure-constant algebras and their ideal / radical structure theory.

An :class:`Algebra` is a finite-dimensional algebra over the rationals given
by a sparse multiplication table on a fixed basis.  The functions in this
module assume (and where documented, verify) the right Leibniz identity

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

which makes every right multiplication a derivation and gives the span of
squares its special role: an abelian two-sided ideal annihilated by left
multiplication, with a Lie algebra as quotient.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .exactlin import (
    Matrix,
    Subspace,
    Vec,
    ZERO,
    format_rational,
    kernel_of_constraints,
    parse_rational,
    rational_eigen,
    unit_vec,
    vec_add,
    vec_is_zero,
)

TableEntry = tuple[int, Fraction]


class InvalidAlgebraError(Exception):
    """The multiplication table violates a required identity."""


class StructureError(Exception):
    """A structural fact that the theory guarantees failed to hold."""


class LeviError(Exception):
    """A declared semisimple-part/ideal split fails validation."""


class SchemaError(Exception):
    """A document does not conform to the algebra file format."""


class Algebra:
    """Finite-dimensional algebra by structure constants, exact over Q.

    ``products`` maps a basis index pair (i, j) to the coordinates of the
    product of basis vectors i and j; absent pairs multiply to zero.  The
    table is canonicalized on construction (coefficients merged, zeros
    dropped, entries sorted), so equal algebras compare equal.
    """

    __slots__ = ("dim", "name", "basis_names", "_table", "_by_left", "_key")

    def __init__(
        self,
        dim: int,
        products: Mapping[tuple[int, int], Iterable[tuple[int, object]]],
        basis_names: Sequence[str] | None = None,
        name: str = "",
    ):
        if dim < 0:
            raise ValueError("negative dimension")
        self.dim = dim
        self.name = name
        if basis_names is None:
            basis_names = tuple(f"b{i}" for i in range(dim))
        else:
            basis_names = tuple(str(s) for s in basis_names)
            if len(basis_names) != dim:
                raise ValueError("basis name count does not match the dimension")
        self.basis_names = basis_names
        table: dict[tuple[int, int], tuple[TableEntry, ...]] = {}
        for (i, j), entries in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i}, {j}) out of range")
            acc: dict[int, Fraction] = {}
            for k, coeff in entries:
                if not 0 <= k < dim:
                    raise ValueError(f"result index {k} out of range")
                acc[k] = acc.get(k, ZERO) + Fraction(coeff)
            cleaned = tuple(sorted((k, c) for k, c in acc.items() if c != 0))
            if cleaned:
                table[(i, j)] = cleaned
        self._table = table
        by_left: dict[int, list[tuple[int, tuple[TableEntry, ...]]]] = {}
        for (i, j), entries in sorted(table.items()):
            by_left.setdefault(i, []).append((j, entries))
        self._by_left = by_left
        self._key = (dim, basis_names, tuple(sorted(table.items())))

    # ------------------------------------------------------------ access

    def c(self, i: int, j: int) -> tuple[TableEntry, ...]:
        """Structure constants of the product of basis vectors i and j."""
        return self._table.get((i, j), ())

    def table_items(self):
        return sorted(self._table.items())

    def basis_vector(self, i: int) -> Vec:
        return unit_vec(self.dim, i)

    def bracket_basis(self, i: int, j: int) -> Vec:
        out = [ZERO] * self.dim
        for k, coeff in self.c(i, j):
            out[k] = coeff
        return tuple(out)

    def product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        """Bilinear extension of the table to arbitrary coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the dimension")
        out = [ZERO] * self.dim
        for i, row in self._by_left.items():
            xi = x[i]
            if xi == 0:
                continue
            for j, entries in row:
                a = xi * y[j]
                if a == 0:
                    continue
                for k, coeff in entries:
                    out[k] += a * coeff
        return tuple(out)

    def right_mult(self, z: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> [x, z] in the given basis."""
        if len(z) != self.dim:
            raise ValueError("vector length does not match the dimension")
        cols: list[list[Fraction]] = [[ZERO] * self.dim for _ in range(self.dim)]
        for (i, j), entries in self._table.items():
            zj = z[j]
            if zj == 0:
                continue
            for k, coeff in entries:
                cols[k][i] += zj * coeff
        return Matrix(self.dim, self.dim, tuple(tuple(r) for r in cols))

    def left_mult(self, z: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> [z, x] in the given basis."""
        if len(z) != self.dim:
            raise ValueError("vector length does not match the dimension")
        rows: list[list[Fraction]] = [[ZERO] * self.dim for _ in range(self.dim)]
        for (i, j), entries in self._table.items():
            zi = z[i]
            if zi == 0:
                continue
            for k, coeff in entries:
                rows[k][j] += zi * coeff
        return Matrix(self.dim, self.dim, tuple(tuple(r) for r in rows))

    def is_lie(self) -> bool:
        """Antisymmetry on basis pairs (with Leibniz this implies Jacobi)."""
        for i in range(self.dim):
            if self.c(i, i):
                return False
            for j in range(i + 1, self.dim):
                if not vec_is_zero(vec_add(self.bracket_basis(i, j),
                                           self.bracket_basis(j, i))):
                    return False
        return True

    def rename(self, name: str) -> "Algebra":
        return Algebra(self.dim, dict(self._table), self.basis_names, name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Algebra) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Algebra({label}, dim {self.dim})"


# ----------------------------------------------------------- declared split

@dataclass(frozen=True)
class LeviDatum:
    """Declared split of the basis into a semisimple part and the ideal part.

    ``g_indices`` span a subalgebra complementing the span of
    ``i_indices``, which must equal the ideal generated by squares.
    ``sl2_triples`` lists basis index triples (e, f, h) satisfying the
    canonical sl2 relations of this package's sign convention.
    """

    g_indices: tuple[int, ...]
    i_indices: tuple[int, ...]
    sl2_triples: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "g_indices", tuple(self.g_indices))
        object.__setattr__(self, "i_indices", tuple(self.i_indices))
        object.__setattr__(self, "sl2_triples",
                           tuple(tuple(t) for t in self.sl2_triples))


def validate_levi(alg: Algebra, levi: LeviDatum) -> None:
    """Raise LeviError unless the declared split holds for this algebra."""
    n = alg.dim
    g, i_part = set(levi.g_indices), set(levi.i_indices)
    if g & i_part or g | i_part != set(range(n)) or len(g) + len(i_part) != n:
        raise LeviError("declared index sets do not partition the basis")
    for a in levi.g_indices:
        for b in levi.g_indices:
            prod = alg.bracket_basis(a, b)
            if any(prod[t] != 0 for t in levi.i_indices):
                raise LeviError(
                    f"declared semisimple part is not a subalgebra: "
                    f"product of basis {a} and {b} leaves it")
    ideal_span = Subspace.coordinate(n, levi.i_indices)
    if ideal_span != squares_ideal(alg):
        raise LeviError("declared ideal indices do not span the ideal of squares")
    from .sl2 import Sl2Triple, check_sl2_triple
    for t in levi.sl2_triples:
        triple = Sl2Triple.from_indices(n, t)
        bad = check_sl2_triple(alg, levi, triple)
        if bad:
            raise LeviError(f"declared triple {t} fails the sl2 relations: {bad[0]}")


# -------------------------------------------------------------- identities

@functools.lru_cache(maxsize=None)
def leibniz_check(alg: Algebra) -> tuple[tuple[int, int, int, Vec], ...]:
    """Violating basis triples (i, j, k, residual) of the right Leibniz identity.

    Empty means the identity holds; by trilinearity checking basis triples
    is exhaustive.  The residual [e_i, [e_j, e_k]] - [[e_i, e_j], e_k]
    + [[e_i, e_k], e_j] is contracted from the table's nonzero entries.
    """
    n = alg.dim
    table = alg._table
    violations = []
    for i in range(n):
        for j in range(n):
            cij = table.get((i, j), ())
            for k in range(n):
                acc: dict[int, Fraction] = {}
                for l, a in table.get((j, k), ()):
                    for t, b in table.get((i, l), ()):
                        acc[t] = acc.get(t, ZERO) + a * b
                for l, a in cij:
                    for t, b in table.get((l, k), ()):
                        acc[t] = acc.get(t, ZERO) - a * b
                for l, a in table.get((i, k), ()):
                    for t, b in table.get((l, j), ()):
                        acc[t] = acc.get(t, ZERO) + a * b
                if any(acc.values()):
                    residual = tuple(acc.get(t, ZERO) for t in range(n))
                    violations.append((i, j, k, residual))
    return tuple(violations)


def ensure_leibniz(alg: Algebra) -> None:
    bad = leibniz_check(alg)
    if bad:
        i, j, k, res = bad[0]
        raise InvalidAlgebraError(
            f"right Leibniz identity fails on basis triple ({i}, {j}, {k}); "
            f"residual {tuple(format_rational(x) for x in res)}"
            + (f" and {len(bad) - 1} more" if len(bad) > 1 else ""))


# ------------------------------------------------------------------ ideals

@functools.lru_cache(maxsize=None)
def squares_ideal(alg: Algebra) -> Subspace:
    """Span of all squares [x, x], verified to be a left-annihilated ideal."""
    ensure_leibniz(alg)
    n = alg.dim
    gens = []
    for i in range(n):
        for j in range(i, n):
            gens.append(vec_add(alg.bracket_basis(i, j), alg.bracket_basis(j, i)))
    span = Subspace.from_vectors(n, gens)
    for v in span.basis.data:
        for j in range(n):
            ej = alg.basis_vector(j)
            if not span.contains(alg.product(v, ej)):
                raise StructureError(
                    "span of squares is not closed under right multiplication")
            if not vec_is_zero(alg.product(ej, v)):
                raise StructureError(
                    "left multiplication does not annihilate the span of squares")
    return span


def ideal_closure(alg: Algebra, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the given subspace."""
    if seed.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension mismatch")
    current = seed
    while True:
        gens = list(current.basis.data)
        for v in current.basis.data:
            for j in range(alg.dim):
                ej = alg.basis_vector(j)
                gens.append(alg.product(v, ej))
                gens.append(alg.product(ej, v))
        bigger = Subspace.from_vectors(alg.dim, gens)
        if bigger == current:
            return current
        current = bigger


def derived_subalgebra(alg: Algebra, sub: Subspace | None = None) -> Subspace:
    """Span of all products of elements of the given subspace (default: all)."""
    if sub is None:
        sub = Subspace.full(alg.dim)
    gens = [alg.product(u, v) for u in sub.basis.data for v in sub.basis.data]
    return Subspace.from_vectors(alg.dim, gens)


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


def is_solvable(alg: Algebra, start: Subspace | None = None) -> bool:
    return derived_series(alg, start)[-1].dim == 0


# ---------------------------------------------------------------- quotient

@dataclass(frozen=True)
class Quotient:
    """A quotient algebra together with the projection and a linear lift.

    The quotient basis is the set of standard basis vectors at the
    non-pivot columns of the ideal's RREF basis, so basis names carry over.
    """

    algebra: Algebra
    ideal: Subspace
    complement_cols: tuple[int, ...]
    _source_dim: int

    def project(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self._source_dim:
            raise ValueError("vector length does not match the source dimension")
        return _reduce_mod(self.ideal, v, self.complement_cols)

    def lift(self, w: Sequence[Fraction]) -> Vec:
        if len(w) != len(self.complement_cols):
            raise ValueError("vector length does not match the quotient dimension")
        out = [ZERO] * self._source_dim
        for value, c in zip(w, self.complement_cols):
            out[c] = Fraction(value)
        return tuple(out)


def _reduce_mod(ideal: Subspace, v: Sequence[Fraction],
                complement: tuple[int, ...]) -> Vec:
    residue = list(v)
    for pivot, row in zip(ideal.pivot_cols(), ideal.basis.data):
        t = residue[pivot]
        if t != 0:
            for c, entry in enumerate(row):
                if entry != 0:
                    residue[c] -= t * entry
    return tuple(residue[c] for c in complement)


def quotient_algebra(alg: Algebra, ideal: Subspace) -> Quotient:
    """Quotient by a verified two-sided ideal, on a complement basis."""
    n = alg.dim
    if ideal.ambient_dim != n:
        raise ValueError("ideal ambient dimension mismatch")
    for v in ideal.basis.data:
        for j in range(n):
            ej = alg.basis_vector(j)
            if not ideal.contains(alg.product(v, ej)) \
                    or not ideal.contains(alg.product(ej, v)):
                raise StructureError("subspace is not a two-sided ideal")
    pivots = set(ideal.pivot_cols())
    complement = tuple(c for c in range(n) if c not in pivots)
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for s, cs in enumerate(complement):
        for t, ct in enumerate(complement):
            image = _reduce_mod(ideal, alg.bracket_basis(cs, ct), complement)
            entries = [(k, coeff) for k, coeff in enumerate(image) if coeff != 0]
            if entries:
                products[(s, t)] = entries
    names = tuple(alg.basis_names[c] for c in complement)
    quotient_alg = Algebra(len(complement), products, names,
                           name=f"{alg.name}_quotient" if alg.name else "quotient")
    return Quotient(quotient_alg, ideal, complement, n)


# ------------------------------------------------------------ Killing form

@dataclass(frozen=True)
class BilinearForm:
    """Symmetric bilinear form by its Gram matrix on the basis."""

    gram: Matrix

    def __post_init__(self):
        if self.gram != self.gram.transpose():
            raise ValueError("Gram matrix is not symmetric")

    def value(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        inner = self.gram.apply(y)
        return sum((a * b for a, b in zip(x, inner)), ZERO)


def killing_form(alg: Algebra) -> BilinearForm:
    """Trace form of composed multiplications; requires a Lie algebra."""
    if not alg.is_lie():
        raise StructureError("Killing form requested on a non-Lie algebra")
    n = alg.dim
    mults = [alg.right_mult(alg.basis_vector(i)) for i in range(n)]
    gram = tuple(
        tuple(mults[i].mul(mults[j]).trace() for j in range(n))
        for i in range(n)
    )
    return BilinearForm(Matrix(n, n, gram))


# ---------------------------------------------------------------- radical

@functools.lru_cache(maxsize=None)
def solvable_radical(alg: Algebra) -> Subspace:
    """Largest solvable ideal: the squares ideal plus the pullback of the
    quotient Lie algebra's radical (derived-subalgebra orthogonal complement
    with respect to the Killing form)."""
    ensure_leibniz(alg)
    n = alg.dim
    sq = squares_ideal(alg)
    quo = quotient_algebra(alg, sq)
    qalg = quo.algebra
    if not qalg.is_lie():
        raise StructureError("quotient by the squares ideal is not Lie")
    gram = killing_form(qalg).gram
    derived = derived_subalgebra(qalg)
    constraint_rows = []
    for w in derived.basis.data:
        functional = gram.apply(w)
        constraint_rows.append({c: v for c, v in enumerate(functional) if v != 0})
    rad_q = kernel_of_constraints(constraint_rows, qalg.dim)
    vectors = list(sq.basis.data) + [quo.lift(v) for v in rad_q.basis.data]
    rad = Subspace.from_vectors(n, vectors)
    if derived_series(alg, rad)[-1].dim != 0:
        raise StructureError("radical candidate failed the solvability check")
    return rad


def is_semisimple(alg: Algebra) -> bool:
    """Semisimple here: the solvable radical is exactly the squares ideal."""
    return solvable_radical(alg) == squares_ideal(alg)


# ------------------------------------------------ identity rows, centroid

def _action_tables(alg: Algebra):
    """The table's nonzero entries regrouped by one factor and the result.

    Returns (right_by, left_by).  right_by[j][k] lists (l, c) with c the
    nonzero coefficient of basis k in [e_l, e_j], i.e. the nonzero entries
    (k, l) of the matrix of right multiplication by e_j.  left_by[i][k]
    lists (l, c) with c the nonzero coefficient of basis k in [e_i, e_l],
    the entries (k, l) of left multiplication by e_i.  Missing keys mean
    no such entries.
    """
    right_by: dict[int, dict[int, list[TableEntry]]] = {}
    left_by: dict[int, dict[int, list[TableEntry]]] = {}
    for (i, j), entries in alg.table_items():
        for k, coeff in entries:
            right_by.setdefault(j, {}).setdefault(k, []).append((i, coeff))
            left_by.setdefault(i, {}).setdefault(k, []).append((j, coeff))
    return right_by, left_by


def identity_rows(alg: Algebra, pairs: Iterable[tuple[int, int]] | None = None,
                  right: bool = True, left: bool = True,
                  ) -> Iterator[tuple[int, int, list[dict[int, Fraction]]]]:
    """Linear constraints on a map d at each basis pair (i, j).

    Yields (i, j, rows) for the given pairs (default: all, row-major).
    Row k, dotted with d flattened row-major, is coordinate k of
    d([e_i, e_j]) - [d(e_i), e_j] - [e_i, d(e_j)]; rows come by increasing
    k, empty ones left out.  right=False or left=False drops that side's
    term: both terms give derivations, the right term alone module maps,
    and each term alone one half of the centroid.
    """
    n = alg.dim
    right_by, left_by = _action_tables(alg)
    if pairs is None:
        pairs = itertools.product(range(n), repeat=2)
    for i, j in pairs:
        rows: dict[int, dict[int, Fraction]] = {}
        cij = alg.c(i, j)
        if cij:
            for k in range(n):
                rows[k] = {k * n + l: coeff for l, coeff in cij}
        sides = [(right_by.get(j, {}), i)] if right else []
        if left:
            sides.append((left_by.get(i, {}), j))
        for by_result, moved in sides:
            for k, entries in by_result.items():
                row = rows.setdefault(k, {})
                for l, coeff in entries:
                    col = l * n + moved
                    row[col] = row[col] - coeff if col in row else -coeff
        yield i, j, [rows[k] for k in sorted(rows)]


def centroid(alg: Algebra) -> tuple[Matrix, ...]:
    """Canonical basis of the maps commuting with all multiplications."""
    n = alg.dim
    rows = [row for right in (True, False)
            for _, _, pair_rows in identity_rows(alg, right=right, left=not right)
            for row in pair_rows]
    kernel = kernel_of_constraints(rows, n * n)
    return tuple(Matrix.from_flat(v, n, n) for v in kernel.basis.data)


# ------------------------------------------------------------ simple parts

@dataclass(frozen=True)
class SummandSplit:
    """Simple-ideal decomposition attempt for a semisimple Lie algebra.

    ``determined`` is False when no centroid element in the deterministic
    candidate sweep had a complete rational eigen decomposition separating
    the summands; the split is then unresolved, not disproved.
    """

    summands: tuple[Subspace, ...]
    determined: bool


_SWEEP_LIMIT = 20


def simple_summands(alg: Algebra) -> SummandSplit:
    """Split a radical-free Lie algebra into ideals via centroid eigenspaces."""
    if not alg.is_lie():
        raise StructureError("summand split requested on a non-Lie algebra")
    if solvable_radical(alg).dim != 0:
        raise StructureError("summand split requested with a nonzero radical")
    n = alg.dim
    cents = centroid(alg)
    want = len(cents)
    for t in range(1, _SWEEP_LIMIT + 1):
        cand = Matrix.zeros(n, n)
        weight = 1
        for c in cents:
            cand = cand + c.scale(Fraction(weight))
            weight *= t
        eigen = rational_eigen(cand)
        if not eigen.complete or len(eigen.pairs) != want:
            continue
        spaces = tuple(space for _, space in eigen.pairs)
        if all(_is_ideal(alg, s) for s in spaces):
            return SummandSplit(spaces, True)
    return SummandSplit((), False)


def _is_ideal(alg: Algebra, sub: Subspace) -> bool:
    for v in sub.basis.data:
        for j in range(alg.dim):
            ej = alg.basis_vector(j)
            if not sub.contains(alg.product(v, ej)):
                return False
            if not sub.contains(alg.product(ej, v)):
                return False
    return True


# ------------------------------------------------------- simplicity verdict

@dataclass(frozen=True)
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
    A Lie input (zero squares ideal) is judged as a Lie algebra.
    """
    validate_levi(alg, levi)
    ensure_leibniz(alg)
    n = alg.dim
    sq = squares_ideal(alg)

    if sq.dim == 0:
        rad = solvable_radical(alg)
        if rad.dim:
            witness = rad if rad.dim < n else _proper_derived_witness(alg)
            return SimplicityCertificate("no", witness, "nonzero solvable radical")
        split = simple_summands(alg)
        if not split.determined:
            return SimplicityCertificate(
                "unknown", None, "summand split unresolved by the centroid sweep")
        if len(split.summands) == 1:
            return SimplicityCertificate("yes", None, "simple as a Lie algebra")
        return SimplicityCertificate(
            "no", split.summands[0], "splits into multiple simple ideals")

    derived = derived_subalgebra(alg)
    if derived == sq:
        return SimplicityCertificate(
            "no", None, "derived subalgebra equals the ideal of squares")
    rad = solvable_radical(alg)
    if rad != sq:
        witness = rad if rad.dim < n else _proper_derived_witness(alg)
        return SimplicityCertificate(
            "no", witness, "solvable radical exceeds the ideal of squares")
    quo = quotient_algebra(alg, sq)
    split = simple_summands(quo.algebra)
    if not split.determined:
        return SimplicityCertificate(
            "unknown", None, "quotient summand split unresolved")
    if len(split.summands) > 1:
        lifted = list(sq.basis.data) + \
            [quo.lift(v) for v in split.summands[0].basis.data]
        witness = Subspace.from_vectors(n, lifted)
        return SimplicityCertificate(
            "no", witness, "quotient splits into multiple simple ideals")

    if len(levi.sl2_triples) == 1 and len(levi.g_indices) == 3:
        from .sl2 import ModuleError, Sl2Triple, irreducible_decomposition_sl2
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


def _proper_derived_witness(alg: Algebra) -> Subspace | None:
    derived = derived_subalgebra(alg)
    if 0 < derived.dim < alg.dim:
        return derived
    return None


# -------------------------------------------------------------- direct sum

def direct_sum_many(
    parts: Sequence[tuple[Algebra, LeviDatum | None]],
    name: str = "",
) -> tuple[Algebra, LeviDatum | None]:
    """Direct sum with block-offset indices; basis names get _1, _2, ... suffixes.

    The combined split datum exists only when every part supplies one.
    """
    if not parts:
        raise ValueError("empty direct sum")
    dim = sum(alg.dim for alg, _ in parts)
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    names: list[str] = []
    g_idx: list[int] = []
    i_idx: list[int] = []
    triples: list[tuple[int, int, int]] = []
    have_levis = all(levi is not None for _, levi in parts)
    offset = 0
    for count, (alg, levi) in enumerate(parts, start=1):
        for (i, j), entries in alg.table_items():
            products[(i + offset, j + offset)] = [
                (k + offset, coeff) for k, coeff in entries]
        names.extend(f"{s}_{count}" for s in alg.basis_names)
        if have_levis:
            assert levi is not None
            g_idx.extend(a + offset for a in levi.g_indices)
            i_idx.extend(a + offset for a in levi.i_indices)
            triples.extend(
                (a + offset, b + offset, c + offset) for a, b, c in levi.sl2_triples)
        offset += alg.dim
    if not name:
        name = "sum_" + "_".join(alg.name or "anon" for alg, _ in parts)
    total = Algebra(dim, products, tuple(names), name)
    combined = LeviDatum(tuple(g_idx), tuple(i_idx), tuple(triples)) \
        if have_levis else None
    return total, combined


def direct_sum(
    a: Algebra,
    b: Algebra,
    levi_a: LeviDatum | None = None,
    levi_b: LeviDatum | None = None,
) -> tuple[Algebra, LeviDatum | None]:
    return direct_sum_many([(a, levi_a), (b, levi_b)])


# ------------------------------------------------------------- file format

def algebra_to_json_dict(alg: Algebra, levi: LeviDatum | None = None) -> dict:
    products = []
    for (i, j), entries in alg.table_items():
        products.append({
            "left": i,
            "right": j,
            "result": [{"k": k, "c": format_rational(coeff)} for k, coeff in entries],
        })
    doc: dict = {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "products": products,
    }
    if levi is not None:
        block: dict = {
            "g": sorted(levi.g_indices),
            "i": sorted(levi.i_indices),
        }
        if levi.sl2_triples:
            block["sl2_triples"] = [list(t) for t in levi.sl2_triples]
        doc["levi"] = block
    return doc


def dump_algebra_json(alg: Algebra, levi: LeviDatum | None = None) -> str:
    """Canonical serialization: dumping, parsing and dumping again is
    byte-identical."""
    return json.dumps(algebra_to_json_dict(alg, levi), indent=2) + "\n"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def algebra_from_json_dict(doc: object) -> tuple[Algebra, LeviDatum | None]:
    _require(isinstance(doc, dict), "top-level value must be an object")
    assert isinstance(doc, dict)
    allowed = {"name", "dim", "basis", "products", "levi"}
    extra = set(doc) - allowed
    _require(not extra, f"unknown top-level keys: {sorted(extra)}")
    for key in ("name", "dim", "basis", "products"):
        _require(key in doc, f"missing required key: {key}")
    name = doc["name"]
    _require(isinstance(name, str), "name must be a string")
    dim = doc["dim"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
             "dim must be a non-negative integer")
    basis = doc["basis"]
    _require(isinstance(basis, list) and all(isinstance(s, str) for s in basis),
             "basis must be a list of strings")
    _require(len(basis) == dim, "basis length must equal dim")
    raw_products = doc["products"]
    _require(isinstance(raw_products, list), "products must be a list")
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for entry in raw_products:
        _require(isinstance(entry, dict), "each product must be an object")
        _require(set(entry) == {"left", "right", "result"},
                 "product entries need exactly left, right, result")
        i, j = entry["left"], entry["right"]
        for v in (i, j):
            _require(isinstance(v, int) and not isinstance(v, bool)
                     and 0 <= v < dim, "product indices must be basis indices")
        _require((i, j) not in products, f"duplicate product entry ({i}, {j})")
        result = entry["result"]
        _require(isinstance(result, list), "result must be a list")
        seen_k = set()
        coords = []
        for term in result:
            _require(isinstance(term, dict) and set(term) == {"k", "c"},
                     "result terms need exactly k and c")
            k = term["k"]
            _require(isinstance(k, int) and not isinstance(k, bool)
                     and 0 <= k < dim, "result index must be a basis index")
            _require(k not in seen_k, f"duplicate result index {k}")
            seen_k.add(k)
            _require(isinstance(term["c"], str), "coefficients must be strings")
            try:
                coeff = parse_rational(term["c"])
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad coefficient {term['c']!r}: {exc}") from exc
            coords.append((k, coeff))
        products[(i, j)] = coords
    levi = None
    if "levi" in doc:
        block = doc["levi"]
        _require(isinstance(block, dict), "levi must be an object")
        assert isinstance(block, dict)
        extra = set(block) - {"g", "i", "sl2_triples"}
        _require(not extra, f"unknown levi keys: {sorted(extra)}")
        _require("g" in block and "i" in block, "levi needs g and i index lists")
        for key in ("g", "i"):
            val = block[key]
            _require(isinstance(val, list)
                     and all(isinstance(x, int) and not isinstance(x, bool)
                             and 0 <= x < dim for x in val),
                     f"levi {key} must be a list of basis indices")
        triples = []
        if "sl2_triples" in block:
            raw = block["sl2_triples"]
            _require(isinstance(raw, list), "sl2_triples must be a list")
            for t in raw:
                _require(isinstance(t, list) and len(t) == 3
                         and all(isinstance(x, int) and not isinstance(x, bool)
                                 and 0 <= x < dim for x in t),
                         "each sl2 triple must be three basis indices")
                triples.append(tuple(t))
        levi = LeviDatum(tuple(block["g"]), tuple(block["i"]), tuple(triples))
    return Algebra(dim, products, tuple(basis), name), levi


def load_algebra_json(text: str) -> tuple[Algebra, LeviDatum | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return algebra_from_json_dict(doc)
