"""Structure-constant algebras, their identities, squares ideal and quotient.

An :class:`Algebra` is a finite-dimensional algebra over the rationals given
by a sparse multiplication table on a fixed basis.  The functions in this
module assume (and where documented, verify) the right Leibniz identity

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

which makes every right multiplication a derivation and gives the span of
squares its special role: an abelian two-sided ideal annihilated by left
multiplication, with a Lie algebra as quotient.

Every contraction of the structure constants reads the algebra's one
integer table, and ``_product`` returns D times a product; the table, its
indexes and its scale D are built here, and ``derivations``, ``radical``
and ``sl2`` read parts of them too.

This module holds what every CLI command runs: the table, the declared
split and its check, the identity check, the squares ideal and its
quotient, the identity rows that the derivation and centroid kernels
solve, and the JSON file format.  The radical, the centroid and the
simplicity verdict are the lazily loaded ``radical``, which only the
``radical`` command runs.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .exactlin import (
    Matrix,
    SparseRref,
    Subspace,
    Vec,
    ZERO,
    _cleared,
    _row_to_dict,
    format_rational,
    parse_rational,
    unit_vec,
    value_type,
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


class ModuleError(Exception):
    """The requested module-theoretic structure does not exist or cannot be
    certified for this input."""


class Algebra:
    """Finite-dimensional algebra by structure constants, exact over Q.

    ``products`` maps a basis index pair (i, j) to the coordinates of the
    product of basis vectors i and j; absent pairs multiply to zero.  The
    table is canonicalized on construction (coefficients merged, zeros
    dropped, entries sorted), so equal algebras compare equal.  It also
    builds ``_ints``, the table times D = ``_den``, the lcm of its
    denominators, with ``int`` entries, and its three ``_index`` indexes.
    ``_cache`` holds what ``per_algebra`` functions derive, so it dies with
    the algebra.
    """

    __slots__ = ("dim", "name", "basis_names", "_table", "_den", "_ints",
                 "_by_left", "_by_right", "_holding", "_key", "_cache")

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
        den = self._den = math.lcm(*(c.denominator for es in table.values() for _, c in es))
        self._ints = {pair: tuple((k, c.numerator * (den // c.denominator)) for k, c in es)
                      for pair, es in table.items()}
        self._by_left, self._by_right, self._holding = _index(self._ints, dim)
        self._key = (dim, basis_names, tuple(sorted(table.items())))
        self._cache: dict = {}

    # ------------------------------------------------------------ access

    def c(self, i: int, j: int) -> tuple[TableEntry, ...]:
        """Structure constants of the product of basis vectors i and j."""
        return self._table.get((i, j), ())

    def table_items(self):
        return sorted(self._table.items())

    def basis_vector(self, i: int) -> Vec:
        return unit_vec(self.dim, i)

    def product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        """Bilinear extension of the table to arbitrary coordinate vectors,
        summed over the exact table: the integer contractions' reference."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the dimension")
        out: dict[int, Fraction] = {}
        for (i, j), entries in self._table.items():
            if x[i] and y[j]:
                _accumulate(out, x[i] * y[j], entries)
        return tuple(out.get(k, ZERO) for k in range(self.dim))

    def right_mult(self, z: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> [x, z] in the given basis: column c is [e_c, z]."""
        return self._mult(self._by_right, z)

    def left_mult(self, z: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> [z, x] in the given basis: column c is [z, e_c]."""
        return self._mult(self._by_left, z)

    def _mult(self, index: Mapping, z: Sequence[Fraction]) -> Matrix:
        """Columns of x -> [x, z] (index ``_by_right``) or x -> [z, x]
        (``_by_left``): column c sums d·z_s times D times the product of
        e_c and e_s that index[s] lists, over z's nonzero coordinates s,
        over the denominator D·d, d the lcm of z's denominators."""
        if len(z) != self.dim:
            raise ValueError("vector length does not match the dimension")
        den, ints = _cleared(_row_to_dict(z))
        cols: dict[int, dict[int, int]] = {}
        for s, x in ints.items():
            for c, entries in index.get(s, ()):
                _accumulate(cols.setdefault(c, {}), x, entries)
        return Matrix(self.dim, self.dim, cols, self._den * den)

    def is_lie(self) -> bool:
        """Antisymmetry on basis pairs (with Leibniz this implies Jacobi)."""
        return next(_square_sums(self), None) is None

    def rename(self, name: str) -> "Algebra":
        return Algebra(self.dim, dict(self._table), self.basis_names, name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Algebra) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Algebra({label}, dim {self.dim})"


def _index(table: Mapping[tuple[int, int], tuple], n: int) -> tuple[dict, dict, dict]:
    """(by_left, by_right, holding) of an n-dimensional table: by_left[i]
    lists (j, entries of [e_i, e_j]) and by_right[j] (i, entries of
    [e_i, e_j]), each by ascending other index, and holding[l] the pairs
    whose product holds l, each as (i·n + j, coordinate l)."""
    by_left: dict[int, list[tuple[int, tuple]]] = {}
    by_right: dict[int, list[tuple[int, tuple]]] = {}
    holding: dict[int, list[tuple[int, int]]] = {}
    for (i, j), entries in sorted(table.items()):
        by_left.setdefault(i, []).append((j, entries))
        by_right.setdefault(j, []).append((i, entries))
        for l, x in entries:
            holding.setdefault(l, []).append((i * n + j, x))
    return by_left, by_right, holding


# ----------------------------------------------------------- declared split

# The sl2 sign convention on (e, f, h) = (0, 1, 2): [e,h] = 2e, [h,e] = -2e,
# [h,f] = 2f, [f,h] = -2f, [e,f] = h, [f,e] = -h; every other product zero.
SL2_TABLE = {
    (0, 2): ((0, 2),), (2, 0): ((0, -2),),
    (2, 1): ((1, 2),), (1, 2): ((1, -2),),
    (0, 1): ((2, 1),), (1, 0): ((2, -1),),
}


@value_type
class LeviDatum:
    """Declared split of the basis into a semisimple part and the ideal part.

    ``g_indices`` span a subalgebra complementing the span of
    ``i_indices``, which must equal the ideal generated by squares.
    ``sl2_triples`` lists basis index triples (e, f, h) satisfying the
    canonical sl2 relations of this package's sign convention,
    ``SL2_TABLE``.
    """

    g_indices: tuple[int, ...]
    i_indices: tuple[int, ...]
    sl2_triples: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "g_indices", tuple(self.g_indices))
        object.__setattr__(self, "i_indices", tuple(self.i_indices))
        object.__setattr__(self, "sl2_triples",
                           tuple(tuple(t) for t in self.sl2_triples))

    def partitions(self, n: int) -> bool:
        """Do the index lists together list 0, ..., n - 1 once each?"""
        return sorted(self.g_indices + self.i_indices) == list(range(n))


@value_type
class Sl2Triple:
    """An sl2 triple (e, f, h) given in ambient coordinates; the functions
    that use it read it as sparse rows."""

    e: Vec
    f: Vec
    h: Vec

    def __hash__(self) -> int:
        """Of the nonzero entries alone: a triple is a ``per_algebra`` key,
        hashed on every lookup, and its vectors are mostly zeros."""
        return hash(tuple((i, x) for v in (self.e, self.f, self.h)
                          for i, x in enumerate(v) if x))

    @staticmethod
    def from_indices(dim: int, indices: Sequence[int]) -> "Sl2Triple":
        """The basis vectors at a declared (e, f, h) index triple; LeviError
        unless it is three indices below dim."""
        if len(indices) != 3 or not all(0 <= i < dim for i in indices):
            raise LeviError(
                f"declared triple {tuple(indices)} is not three basis indices")
        ie, if_, ih = indices
        return Sl2Triple(unit_vec(dim, ie), unit_vec(dim, if_), unit_vec(dim, ih))


def check_sl2_triple(alg: Algebra, levi: LeviDatum, t: Sl2Triple) -> tuple[str, ...]:
    """Violated relations of the canonical sl2 presentation; empty means pass.

    The triple must be supported on the declared semisimple-part indices,
    and the six products of ``SL2_TABLE`` must hold exactly; failures are
    named in table order.
    """
    _require_levi(levi)
    problems = []
    g_set = set(levi.g_indices)
    rows = []
    names = "efh"
    for label, vec in zip(names, (t.e, t.f, t.h)):
        if len(vec) != alg.dim:
            return (f"vector {label} has the wrong length",)
        row = _row_to_dict(vec)
        outside = [i for i in row if i not in g_set]
        if outside:
            problems.append(
                f"vector {label} has support outside the semisimple part "
                f"at indices {outside}")
        rows.append(row)
    for (x, y), ((k, c),) in SL2_TABLE.items():
        residual = _product(alg, rows[x], rows[y])
        _accumulate(residual, -c * alg._den, rows[k].items())
        if any(residual.values()):
            scale = {1: "", -1: "-"}.get(c, str(c))
            problems.append(f"relation [{names[x]},{names[y]}] = "
                            f"{scale}{names[k]} fails")
    return tuple(problems)


def _require_levi(levi: LeviDatum | None) -> None:
    """LeviError for a missing datum, which ``direct_sum_many`` returns when
    a part has none, rather than an AttributeError further in."""
    if levi is None:
        raise LeviError("no declared split: this needs the semisimple-part "
                        "and ideal indices (a levi block)")


def validate_levi(alg: Algebra, levi: LeviDatum) -> None:
    """Raise LeviError unless the declared split holds for this algebra."""
    _require_levi(levi)
    n = alg.dim
    if not levi.partitions(n):
        raise LeviError("declared index sets do not partition the basis")
    i_part = set(levi.i_indices)
    for a in levi.g_indices:
        for b in levi.g_indices:
            if any(k in i_part for k, _ in alg.c(a, b)):
                raise LeviError(
                    f"declared semisimple part is not a subalgebra: "
                    f"product of basis {a} and {b} leaves it")
    ideal_span = Subspace.coordinate(n, levi.i_indices)
    if ideal_span != squares_ideal(alg):
        raise LeviError("declared ideal indices do not span the ideal of squares")
    for t in levi.sl2_triples:
        triple = Sl2Triple.from_indices(n, t)
        bad = check_sl2_triple(alg, levi, triple)
        if bad:
            raise LeviError(f"declared triple {t} fails the sl2 relations: {bad[0]}")


def per_algebra(fn):
    """Compute fn(alg, *args) once per algebra and hashable args, and keep it
    in ``alg._cache``; callers only read the result.  ``__wrapped__`` is the
    uncached function."""
    @functools.wraps(fn)
    def cached(alg: Algebra, *args):
        key = (fn, args)
        if key not in alg._cache:
            alg._cache[key] = fn(alg, *args)
        return alg._cache[key]
    return cached


# -------------------------------------------------------------- identities

@per_algebra
def leibniz_check(alg: Algebra) -> tuple[tuple[int, int, int, Vec], ...]:
    """Violating basis triples (i, j, k, residual) of the right Leibniz
    identity, row-major.

    Empty means the identity holds; by trilinearity checking basis triples
    is exhaustive.  The residual [e_i, [e_j, e_k]] - [[e_i, e_j], e_k]
    + [[e_i, e_k], e_j] is minus the derivation residual of the right
    multiplication R_k = [-, e_k] at (e_i, e_j): the identity at (i, j, k)
    says exactly that R_k is a derivation there.  So the triples are the
    failures of the identity check on each nonzero R_k, which adds each
    term once into the pair it reaches; a zero R_k leaves every term zero.
    The nonzero columns of D·R_k are the integer table's column k as it
    stands, so the check carries D twice and divides by D² at the end.
    """
    violations = []
    for k, column in alg._by_right.items():
        violations.extend((i, j, k, tuple(-x for x in residual))
                          for i, j, residual in _failures(alg, column, alg._den, True))
    return tuple(sorted(violations))


def ensure_leibniz(alg: Algebra) -> None:
    """Raise InvalidAlgebraError naming the first violating basis triple."""
    bad = leibniz_check(alg)
    if bad:
        i, j, k, res = bad[0]
        names = alg.basis_names
        raise InvalidAlgebraError(
            f"right Leibniz identity fails on ({names[i]}, {names[j]}, "
            f"{names[k]}) with residual ({', '.join(map(format_rational, res))})"
            + (f" and on {len(bad) - 1} more triples" if len(bad) > 1 else ""))


# ------------------------------------------------------------------ ideals

def _accumulate(acc: dict[int, Fraction], x: Fraction,
                entries: Iterable[TableEntry]) -> None:
    """acc += x·entries, entries being (index, coefficient) pairs; sums that
    cancel stay as explicit zeros, which ``Subspace.span`` and
    ``Subspace.reduce`` accept.  Integer inputs give integer sums."""
    for k, coeff in entries:
        acc[k] = acc.get(k, 0) + x * coeff


def _product(alg: Algebra, u: Mapping[int, Fraction],
             v: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """D·[u, v] for sparse rows, D the table's common denominator,
    contracted from the nonzero entries of the integer table; integer rows
    give an integer product."""
    out: dict[int, Fraction] = {}
    for i, x in u.items():
        for j, entries in alg._by_left.get(i, ()):
            y = v.get(j)
            if y:
                _accumulate(out, x * y, entries)
    return out


def _basis_products(alg: Algebra, sub: Subspace
                    ) -> Iterator[tuple[int, dict[int, int], dict[int, int]]]:
    """(j, D·s·[v, e_j], D·s·[e_j, v]) with sparse int rows, for each basis
    vector v of sub and each j, ascending, that a table entry [e_l, e_j] or
    [e_j, e_l] with l in v's support touches; D is the table's common
    denominator and s·v, s > 0, the integer row ``sub.rows`` holds for v.

    The one closure test behind every ideal check: sub is a two-sided ideal
    exactly when it contains both products of every pair, and both products
    are zero at every j not yielded.  Both images come from one pass over
    v's nonzero coordinates l, reading the integer table's entries
    [e_l, e_j] and [e_j, e_l].
    """
    by_left, by_right = alg._by_left, alg._by_right
    for v in sub.rows.values():
        right: dict[int, dict[int, int]] = {}
        left: dict[int, dict[int, int]] = {}
        for l, x in v.items():
            for j, entries in by_left.get(l, ()):
                _accumulate(right.setdefault(j, {}), x, entries)
            for j, entries in by_right.get(l, ()):
                _accumulate(left.setdefault(j, {}), x, entries)
        for j in sorted(right.keys() | left.keys()):
            yield j, right.get(j, {}), left.get(j, {})


def _square_sums(alg: Algebra) -> Iterator[dict[int, int]]:
    """Nonzero sums [e_i, e_j] + [e_j, e_i], i <= j, times the table's
    common denominator D, as sparse {k: int} maps merged from the integer
    table (2·[e_i, e_i] for i = j); they span the squares, and each is a
    difference of squares."""
    table = alg._ints
    for i, j in {(min(pair), max(pair)) for pair in table}:
        acc: dict[int, int] = {}
        _accumulate(acc, 1, table.get((i, j), ()) + table.get((j, i), ()))
        sums = {k: v for k, v in acc.items() if v}
        if sums:
            yield sums


def _is_ideal(alg: Algebra, sub: Subspace) -> bool:
    return all(sub.holds(right) and sub.holds(left)
               for _, right, left in _basis_products(alg, sub))


@per_algebra
def squares_ideal(alg: Algebra) -> Subspace:
    """Span of all squares [x, x], verified to be a left-annihilated ideal."""
    ensure_leibniz(alg)
    span = Subspace.span(alg.dim, _square_sums(alg))
    for _, right, left in _basis_products(alg, span):
        if not span.holds(right):
            raise StructureError(
                "span of squares is not closed under right multiplication")
        if any(left.values()):
            raise StructureError(
                "left multiplication does not annihilate the span of squares")
    return span


# ---------------------------------------------------------------- quotient

@value_type
class Quotient:
    """A quotient algebra with the ideal it divides out.

    The quotient basis is the set of standard basis vectors at the
    non-pivot columns of the ideal's RREF basis, so basis names carry over.
    """

    algebra: Algebra
    ideal: Subspace
    complement_cols: tuple[int, ...]


def quotient_algebra(alg: Algebra, ideal: Subspace) -> Quotient:
    """Quotient by a verified two-sided ideal, on a complement basis."""
    if ideal.ambient_dim != alg.dim:
        raise ValueError("ideal ambient dimension mismatch")
    if not _is_ideal(alg, ideal):
        raise StructureError("subspace is not a two-sided ideal")
    return _quotient_by(alg, ideal)


@per_algebra
def squares_quotient(alg: Algebra) -> Quotient:
    """Quotient by ``squares_ideal``, whose verified right closure and left
    annihilation already make it two-sided, so no closure test runs here.
    A zero ideal gives the algebra itself on every column, so the quotient
    shares its per-algebra cache."""
    sq = squares_ideal(alg)
    if not sq.dim:
        return Quotient(alg, sq, tuple(range(alg.dim)))
    return _quotient_by(alg, sq)


def _quotient_by(alg: Algebra, ideal: Subspace) -> Quotient:
    pivots = ideal.rows
    complement = tuple(c for c in range(alg.dim) if c not in pivots)
    index = {c: k for k, c in enumerate(complement)}
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (i, j), entries in alg.table_items():
        if i in index and j in index:
            # the residue is zero at every pivot, so it lives on the complement
            residue = ideal.reduce(dict(entries))
            if residue:
                products[(index[i], index[j])] = [
                    (index[c], x) for c, x in residue.items()]
    names = tuple(alg.basis_names[c] for c in complement)
    quotient_alg = Algebra(len(complement), products, names,
                           name=f"{alg.name}_quotient" if alg.name else "quotient")
    return Quotient(quotient_alg, ideal, complement)


# ----------------------------------------------------------- identity rows

def identity_rows(alg: Algebra, right: bool = True, left: bool = True,
                  pinned: Container[int] = frozenset()) -> Iterator[dict[int, int]]:
    """Integer linear rows whose kernel is the derivations: at each basis
    pair (i, j), row k dotted with a map d flattened row-major is D times
    coordinate k of d([e_i, e_j]) - [d(e_i), e_j] - [e_i, d(e_j)], where D
    is the table's common denominator (every term is linear in the table,
    so the kernel is the same).  right=False or left=False drops that
    side's term; each term alone gives one half of the centroid.
    Columns in ``pinned`` (unknowns known to be 0; the consumer may grow
    the set while it reads) are left out as rows are built, and an empty
    row is never yielded."""
    n = alg.dim
    table, by_left, by_right = alg._ints, alg._by_left, alg._by_right
    for i in range(n):
        for j in range(n):
            rows: dict[int, dict[int, int]] = {}
            cij = table.get((i, j))
            if cij:
                for k in range(n):
                    row = {col: coeff for l, coeff in cij
                           if (col := k * n + l) not in pinned}
                    if row:
                        rows[k] = row
            # [d(e_i), e_j] sums d_(l,i)·[e_l, e_j], [e_i, d(e_j)] d_(l,j)·[e_i, e_l]
            for factors, moved in ((by_right.get(j, ()) if right else (), i),
                                   (by_left.get(i, ()) if left else (), j)):
                for l, entries in factors:
                    col = l * n + moved  # where d_(l, moved) sits
                    if col in pinned:
                        continue
                    for k, coeff in entries:
                        row = rows.setdefault(k, {})
                        row[col] = row[col] - coeff if col in row else -coeff
            yield from rows.values()


def _identity_kernel(alg: Algebra, sides: Iterable[tuple[bool, bool]]) -> Subspace:
    """Kernel of the ``identity_rows`` of each (right, left) in sides; the
    rows read the engine's live pinned set as they are built."""
    ncols = alg.dim ** 2
    eng = SparseRref(ncols)
    eng.extend(row for right, left in sides
               for row in identity_rows(alg, right, left, eng.pinned))
    return Subspace.span(ncols, eng.kernel_rows())


def identity_failures(alg: Algebra, m: Matrix, left: bool,
                      ) -> Iterator[tuple[int, int, Vec]]:
    """Basis pairs (i, j), row-major, where the n×n map m fails the identity
    of identity_rows, each with its residual m([e_i, e_j]) - [m(e_i), e_j]
    - [e_i, m(e_j)]; left=False drops the last term and checks
    m([x,y]) = [m(x), y] alone.

    m's integer columns, den·m, are pushed through the integer table into
    one flat accumulator as they are stored (see ``_failures``); the
    residual is divided by D·den at the end."""
    n = alg.dim
    if m.rows != n or m.cols != n:
        raise ValueError("matrix shape does not match the algebra dimension")
    if not m.columns:  # the zero map satisfies the identity everywhere
        return
    yield from _failures(alg, ((c, col.items()) for c, col in m.columns.items()),
                         m.den, left)


def _failures(alg: Algebra, images: Iterable[tuple[int, Iterable[tuple[int, int]]]],
              den: int, left: bool) -> Iterator[tuple[int, int, Vec]]:
    """``identity_failures`` of the map whose nonzero columns c, times den,
    have the integer entries image, given as (c, image) pairs of (row,
    entry) pairs; the residual is divided by D·den.

    Push form, with one flat sparse accumulator (Gustavson, ACM TOMS 4,
    1978): each term, an entry m_(l,c) times a table factor, is added once
    into coordinate t of the residual of the one pair (i, j) it belongs
    to, keyed (i·n + j)·n + t.  m([e_i, e_j]) goes to each pair whose
    product holds c (``alg._holding``), [m(e_c), e_j] to (c, j) for each
    [e_l, e_j] in row l of the table, and, when left is set, [e_i, m(e_c)]
    to (i, c) for each [e_i, e_l] in column l.  A pair no term reaches has
    zero residual, so the pairs with a nonzero coordinate, sorted, are
    those of a scan over all pairs, in its order."""
    n = alg.dim
    by_left, by_right, holding = alg._by_left, alg._by_right, alg._holding
    acc: dict[int, int] = {}
    for c, image in images:
        for pair, x in holding.get(c, ()):
            base = pair * n
            for t, y in image:
                acc[base + t] = acc.get(base + t, 0) + x * y
        for l, x in image:
            for j, entries in by_left.get(l, ()):
                base = (c * n + j) * n
                for t, y in entries:
                    acc[base + t] = acc.get(base + t, 0) - x * y
            if left:
                for i, entries in by_right.get(l, ()):
                    base = (i * n + c) * n
                    for t, y in entries:
                        acc[base + t] = acc.get(base + t, 0) - x * y
    scale = alg._den * den
    for pair in sorted({key // n for key, v in acc.items() if v}):
        i, j = divmod(pair, n)
        yield i, j, tuple(Fraction(acc.get(pair * n + t, 0), scale) for t in range(n))


def kernel_maps(span: Subspace, n: int) -> tuple[Matrix, ...]:
    """The n×n maps whose row-major flattenings are span's RREF rows, built
    as sparse columns: index k holds entry (r, c) = divmod(k, n).  Each
    stored row is primitive, so it is the map's integer columns over its
    lead."""
    maps = []
    for p, row in span.rows.items():
        columns: dict[int, dict[int, int]] = {}
        for k, x in row.items():
            r, c = divmod(k, n)
            columns.setdefault(c, {})[r] = x
        maps.append(Matrix(n, n, columns, row[p]))
    return tuple(maps)


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


# the schema's pattern for "c"; parse_rational alone would also take
# "0.5", "1e3", " 2", "+1" and "1_0"
_COEFF_PATTERN = re.compile(r"-?[0-9]+(/[0-9]+)?")


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

    def is_index(x: object) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < dim
    raw_products = doc["products"]
    _require(isinstance(raw_products, list), "products must be a list")
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for entry in raw_products:
        _require(isinstance(entry, dict), "each product must be an object")
        _require(set(entry) == {"left", "right", "result"},
                 "product entries need exactly left, right, result")
        i, j = entry["left"], entry["right"]
        _require(is_index(i) and is_index(j), "product indices must be basis indices")
        _require((i, j) not in products, f"duplicate product entry ({i}, {j})")
        result = entry["result"]
        _require(isinstance(result, list), "result must be a list")
        seen_k = set()
        coords = []
        for term in result:
            _require(isinstance(term, dict) and set(term) == {"k", "c"},
                     "result terms need exactly k and c")
            k = term["k"]
            _require(is_index(k), "result index must be a basis index")
            _require(k not in seen_k, f"duplicate result index {k}")
            seen_k.add(k)
            _require(isinstance(term["c"], str), "coefficients must be strings")
            _require(_COEFF_PATTERN.fullmatch(term["c"]) is not None,
                     f"bad coefficient {term['c']!r}: not of the form p or p/q")
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
            _require(isinstance(val, list) and all(map(is_index, val)),
                     f"levi {key} must be a list of basis indices")
        triples = []
        if "sl2_triples" in block:
            raw = block["sl2_triples"]
            _require(isinstance(raw, list), "sl2_triples must be a list")
            for t in raw:
                _require(isinstance(t, list) and len(t) == 3 and all(map(is_index, t)),
                         "each sl2 triple must be three basis indices")
                triples.append(tuple(t))
        levi = LeviDatum(tuple(block["g"]), tuple(block["i"]), tuple(triples))
    return Algebra(dim, products, tuple(basis), name), levi


def load_algebra_json(text: str) -> tuple[Algebra, LeviDatum | None]:
    """Parse and validate an algebra file; SchemaError for text that is not
    JSON, including nesting too deep for the decoder and integer literals
    longer than the interpreter converts (a ValueError, as a
    ``JSONDecodeError`` is)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return algebra_from_json_dict(doc)


# The derived series, radical, centroid, summand split and simplicity verdict
# live in ``radical``.  perfbench/tracer.py wraps these four by their path in
# this module, so they resolve here too (PEP 562).
def __getattr__(name: str):
    if name in ("centroid", "is_simple_certified", "simple_summands",
                "solvable_radical"):
        from . import radical
        return getattr(radical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
