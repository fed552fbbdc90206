"""Exact linear algebra over the rationals.

Everything here is deterministic and exact.  Matrices hold
``fractions.Fraction`` entries, row reduction produces the unique reduced
row echelon form, and a subspace is identified with its canonical RREF
rows, each stored as a primitive integer row with a positive lead, so
equality of subspaces is literal equality of those rows.

The computations run on sparse integer rows.  The elimination engine,
``SparseRref``, takes rows with ``int`` or ``Fraction`` entries, clears
denominators in integer arithmetic (an ``int`` row is only copied),
reduces a row in one fraction-free pass and keeps each row primitive,
which keeps intermediate entries small.  A column-occurrence index over
its stored rows (Davis, *Direct Methods for Sparse Linear Systems*, 2006,
ch. 2-3; Gustavson, ACM TOMS 4, 1978) lets a new pivot reach only the rows
that hold its column, and a row with one term pins its unknown to zero
before any other row is eliminated (singleton presolve), so kernels of
large, very sparse constraint systems cost what their nonzeros cost; its
kernel rows are integer rows too.
The eigen theory (``charpoly``, ``rational_eigen``) is the module
``eigen``, which only the summand split loads; ``charpoly`` and
``rational_eigen`` still resolve here, for the benchmark's tracer.  A
``Subspace`` keeps the engine's rows, signs fixed, and leading-1
``Fraction`` rows only as the view ``pivot_rows``; ``Subspace.coordinate``
writes its unit rows directly.  A row is reduced modulo a subspace in
integers, by the engine's pass against ``rows``: ``Subspace.holds`` and
``Subspace.reduce`` share it, and only ``reduce`` divides, once per
entry; callers that need only a span multiply those rows too.
``Matrix`` is the value type that crosses the API.  Its one storage form
is sparse columns, and ``Matrix.row_dicts`` transposes them into the
sparse rows that ``nullspace``, ``solve`` and ``eigen`` read, so
every computation reads a map at the cost of its nonzeros; its dense rows
are a view for the reference alone.  ``solve`` and ``nullspace`` have no
caller in the package: ``solve`` stays as the reference the tests compare
against, and ``nullspace`` as the public kernel of a ``Matrix``.  Outside
values become Fractions at the edge, in ``parse_rational`` and
``Matrix.from_rows``; everything else takes entries as given (Fraction or
int) and never re-wraps an exact vector.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or "p" (or a plain int) into a canonical Fraction."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text.strip())


def format_rational(q: Fraction) -> str:
    """Canonical text form: "p" when the denominator is 1, else "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ------------------------------------------------------------ value types

def value_type(cls: type) -> type:
    """Make cls an immutable value type, as ``dataclass(frozen=True)`` would.

    The keys of the class's own annotations are its fields, in order, and
    class attributes of those names are their defaults.  The decorator
    installs ``__init__`` (positional or keyword arguments, then
    ``__post_init__`` if the class has one), ``__eq__`` (same class, equal
    fields), ``__hash__`` (of the field tuple), ``__repr__``
    (``Name(field=value, ...)``) and ``__setattr__``/``__delattr__``, which
    raise ``AttributeError``; a method the class body defines is kept.
    The methods are closures: defining a type compiles no source text, and
    the decorator imports nothing beyond ``operator``, which ``fractions``
    loads anyway.
    """
    own = vars(cls)
    fields = tuple(own.get("__annotations__", {}))
    defaults = {f: own[f] for f in fields if f in own}
    n = len(fields)
    name = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")
    setattr_ = object.__setattr__
    values = operator.attrgetter(*fields)

    def bind(args, kwargs):
        if len(args) > n or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() takes the arguments {', '.join(fields)}")
        bound = {**defaults, **dict(zip(fields, args)), **kwargs}
        missing = [f for f in fields if f not in bound]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return [bound[f] for f in fields]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for field, value in zip(fields, args):
            setattr_(self, field, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{name}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if own.get(method.__name__) is None:
            setattr(cls, method.__name__, method)
    return cls


# ---------------------------------------------------------------- vectors

def unit_vec(n: int, i: int) -> Vec:
    if not 0 <= i < n:
        raise IndexError(f"unit vector index {i} out of range for dimension {n}")
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(u, v)), ZERO)


# ---------------------------------------------------------------- matrices

class Matrix:
    """Immutable matrix of Fractions: the API's value type for maps.

    Stored as sparse columns, ``columns[c] = {row: nonzero}`` with no empty
    column and no zero entry, which the constructor takes directly (it
    drops zeros); ``from_rows`` is the entry point for dense input from
    outside.  Every computation reads the columns, or the sparse rows of
    ``row_dicts``, so a map costs what its nonzeros cost.  ``data`` (dense
    rows) is built on each read, for the dense reference alone: ``+``,
    ``scale``, ``mul``, ``apply``, ``flatten`` and ``dot`` stay as the
    reference the tests compare against.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int,
                 columns: Mapping[int, Mapping[int, Fraction]]):
        """The rows×cols matrix with entry (r, c) = columns[c][r]; absent
        keys and zero values are zero entries."""
        self.rows = rows
        self.cols = cols
        self.columns = {c: kept for c, col in columns.items()
                        if (kept := {r: x for r, x in col.items() if x})}

    @staticmethod
    def combination(rows: int, cols: int,
                    terms: Iterable[tuple[Fraction, "Matrix"]]) -> "Matrix":
        """Σ x·m over (x, m) in terms, summed over the union of the terms'
        column keys."""
        out: dict[int, dict[int, Fraction]] = {}
        for x, m in terms:
            if m.shape() != (rows, cols):
                raise ValueError(f"shape mismatch: {m.shape()} vs {(rows, cols)}")
            unit = x == 1
            for c, col in m.columns.items():
                acc = out.setdefault(c, {})
                for r, v in col.items():
                    if not unit:
                        v = x * v
                    acc[r] = acc[r] + v if r in acc else v
        return Matrix(rows, cols, out)

    def row_dicts(self) -> list[dict[int, Fraction]]:
        """Sparse rows, one {column: nonzero} dict per row, columns
        ascending; each call returns new dicts."""
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.rows)]
        for c in sorted(self.columns):
            for r, x in self.columns[c].items():
                rows[r][c] = x
        return rows

    @property
    def data(self) -> tuple[Vec, ...]:
        """Dense row tuples, built on each read for the dense reference and
        the tests; no computation reads them."""
        return tuple(tuple(row.get(c, ZERO) for c in range(self.cols))
                     for row in self.row_dicts())

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = [tuple(Fraction(x) for x in r) for r in rows]
        width = len(data[0]) if data else cols
        if width is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError("explicit column count disagrees with row width")
        return Matrix(len(data), width, {
            c: {r: row[c] for r, row in enumerate(data)} for c in range(width)})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, {i: {i: ONE} for i in range(n)})

    def col(self, j: int) -> Vec:
        col = self.columns.get(j, {})
        return tuple(col.get(r, ZERO) for r in range(self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")
        return Matrix.from_rows(tuple(tuple(a + b for a, b in zip(r, s))
                                      for r, s in zip(self.data, other.data)),
                                self.cols)

    def scale(self, c: Fraction) -> "Matrix":
        c = Fraction(c)
        return Matrix.from_rows(tuple(tuple(c * a for a in r) for r in self.data),
                                self.cols)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
        tcols = [other.col(j) for j in range(other.cols)]
        return Matrix.from_rows(tuple(tuple(dot(r, c) for c in tcols)
                                      for r in self.data), other.cols)

    def apply(self, v: Sequence[Fraction]) -> Vec:
        """m·v over the nonzero entries of v only."""
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.shape()} to a vector of length {len(v)}")
        support = [(c, x) for c, x in enumerate(v) if x]
        return tuple(sum((r[c] * x for c, x in support), ZERO) for r in self.data)

    def flatten(self) -> Vec:
        """Row-major flattening; entry (r, c) lands at index r*cols + c."""
        return tuple(x for r in self.data for x in r)

    def is_zero(self) -> bool:
        return not self.columns

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix)
                and self.shape() == other.shape()
                and self.columns == other.columns)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(
            (c, frozenset(col.items())) for c, col in self.columns.items())))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ------------------------------------------------- sparse elimination engine

def _cleared(frow: Mapping[int, Fraction | int]) -> tuple[int, dict[int, int]]:
    """(d, d·frow) for a sparse row, d the lcm of its denominators.

    Each entry is scaled as numerator·(d // denominator), so an ``int``
    row (denominators 1) is copied with no Fraction arithmetic."""
    den = math.lcm(*(v.denominator for v in frow.values()))
    return den, {c: v.numerator * (den // v.denominator) for c, v in frow.items()}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _reduce(rows: Mapping[int, dict[int, int]],
            acc: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(L, L times acc reduced modulo rows, the fully reduced rows by
    pivot) by fraction-free elimination (Bareiss, Math. Comp. 22, 1968):
    only the rows at acc's pivots are read, each subtracted once, and L > 0
    is the lcm of their leads.  acc, updated in place if L = 1, keeps zeros."""
    at = [(rows[p], p, t) for p, t in acc.items() if p in rows]
    lead = math.lcm(*(r[p] for r, p, _ in at))
    if lead > 1:
        acc = {c: lead * v for c, v in acc.items()}
    for r, p, t in at:
        f = t * (lead // r[p])
        for c, e in r.items():
            acc[c] = acc.get(c, 0) - f * e
    return lead, acc


def _axpy(a: int, r1: dict[int, int], b: int, r2: dict[int, int]) -> dict[int, int]:
    """a*r1 + b*r2 with zero entries dropped."""
    out = {c: a * v for c, v in r1.items()}
    for c, v in r2.items():
        s = out.get(c, 0) + b * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return out


class SparseRref:
    """Incremental reduced row echelon form over sparse integer rows.

    Pivot rows are kept fully reduced against one another, so each stored
    row touches only its own pivot column plus free columns, and
    ``add_row`` reduces a new row in the one pass of ``_reduce``, reading
    each stored row at the row's pivots once.  For systems whose kernel
    is small that keeps every stored row tiny regardless of how many
    input rows stream through.

    Rows come in with ``int`` or ``Fraction`` entries and are stored as
    primitive integer rows.  ``holders`` is the column-occurrence index of
    sparse elimination (T. A. Davis, *Direct Methods for Sparse Linear
    Systems*, SIAM 2006, ch. 2-3; F. G. Gustavson, "Two fast algorithms for
    sparse matrices", ACM TOMS 4, 1978): ``holders[c]`` is the set of pivot
    columns whose stored row has an entry at the non-pivot column c, and
    columns no row holds have no key.  A new pivot c is back-substituted
    into the rows of ``holders[c]`` alone, so the cost of a row follows the
    nonzeros it meets, not the rank.

    ``pinned`` holds the pivot columns whose stored row is a unit row
    {p: ±1}: the rows say x_p = 0.  Such a row never changes again, and
    reducing by it only deletes column p.  This is the singleton-row
    reduction of sparse presolve (E. D. Andersen and K. D. Andersen,
    "Presolving in linear programming", Math. Programming 71, 1995):
    ``add_row`` drops pinned columns before it clears denominators, and a
    new unit pivot c is back-substituted by deleting column c from the
    rows of ``holders[c]``.  ``extend`` pins the column of a row with one
    live entry at once, with no arithmetic, and holds each other row until
    the stream ends, so it is eliminated once every pin of the stream is
    known.  The shortcuts give the rows the arithmetic would give, up to
    sign, and the RREF does not depend on the order of the rows.
    ``_store`` is the one place a row is written and keeps both indexes in
    step.  ``pivots``, whose rows ``Subspace`` keeps as its stored form,
    and ``pinned`` are what callers read.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}
        self.holders: dict[int, set[int]] = {}
        self.pinned: set[int] = set()

    def _store(self, p: int, row: dict[int, int]) -> None:
        """Write the stored row of pivot p and update the holders of the
        columns it gains or loses, pinning p if the row is a unit row."""
        old = self.pivots.get(p, {})
        self.pivots[p] = row
        if len(row) == 1:
            self.pinned.add(p)
        holders = self.holders
        for c in old.keys() - row.keys():
            held = holders[c]
            held.remove(p)
            if not held:
                del holders[c]
        for c in row.keys() - old.keys() if old else row:
            if c != p:
                holders.setdefault(c, set()).add(p)

    def add_row(self, frow: Mapping[int, Fraction | int]) -> None:
        pinned = self.pinned
        frow = {c: v for c, v in frow.items() if v and c not in pinned}
        if not frow:
            return
        row = _reduce(self.pivots, _cleared(frow)[1])[1]
        row = {c: v for c, v in row.items() if v}
        if row:
            self._place(_primitive(row))

    def _place(self, row: dict[int, int]) -> None:
        """Store a reduced row under its leading column c after
        back-substituting it into the rows of ``holders[c]``."""
        c = min(row)
        lead = row[c]
        pivots = self.pivots
        for p in tuple(self.holders.get(c, ())):
            q = pivots[p]
            if len(row) == 1:  # x_c = 0, so the reduction deletes column c
                q = {col: v for col, v in q.items() if col != c}
            else:
                q = _axpy(lead, q, -q[c], row)
            self._store(p, _primitive(q))
        self._store(c, row)

    def extend(self, frows: Iterable[Mapping[int, Fraction | int]]) -> None:
        """Add the rows: one with a single live entry (nonzero, unpinned,
        at no pivot) pins its column at once; the others wait for the end
        of the stream."""
        pinned, pivots = self.pinned, self.pivots
        held = []
        for frow in frows:
            live = [c for c, v in frow.items() if v and c not in pinned]
            if len(live) == 1 and live[0] not in pivots:
                self._place({live[0]: 1})
            elif live:
                held.append(frow)
        for frow in held:
            self.add_row(frow)

    def _check_columns(self) -> None:
        # the stored rows span the input rows, so some stored row holds
        # every column an input row held
        cols = self.pivots.keys() | self.holders.keys()
        if cols and (min(cols) < 0 or max(cols) >= self.ncols):
            raise ValueError("spanning row has a column outside the ambient space")

    def kernel_rows(self) -> list[dict[int, int]]:
        """Basis of the solution set of (rows)·x = 0 as sparse integer rows,
        one per free column f: L at f and -v·L/lead at the pivot of each
        stored row with entry v at f, L the lcm of those rows' leads.  The
        rows holding f are ``holders[f]``; a unit row holds no free column."""
        self._check_columns()
        pivots, holders = self.pivots, self.holders
        kernel = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            held = sorted(holders.get(f, ()))
            lead = math.lcm(*(pivots[c][c] for c in held))
            row = {f: lead}
            for c in held:
                p = pivots[c]
                row[c] = -p[f] * (lead // p[c])
            kernel.append(row)
        return kernel


def _row_to_dict(row: Sequence[Fraction]) -> dict[int, Fraction]:
    return {c: v for c, v in enumerate(row) if v}


def nullspace(m: Matrix) -> "Subspace":
    return kernel_of_constraints(m.row_dicts(), m.cols)


def kernel_of_constraints(rows: Iterable[dict[int, Fraction]], ncols: int) -> "Subspace":
    """Kernel of a (possibly huge) sparse constraint system."""
    eng = SparseRref(ncols)
    eng.extend(rows)
    return Subspace.span(ncols, eng.kernel_rows())


def solve(a: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of a·x = b, free variables set to zero; None if none."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match the row count")
    eng = SparseRref(a.cols + 1)
    for row, rhs in zip(a.row_dicts(), b):
        if rhs != 0:
            row[a.cols] = Fraction(rhs)
        eng.add_row(row)
    if a.cols in eng.pivots:
        return None
    x = [ZERO] * a.cols
    for c, row in eng.pivots.items():
        if a.cols in row:
            x[c] = Fraction(row[a.cols], row[c])
    return tuple(x)


# ---------------------------------------------------------------- subspaces

@value_type
class Subspace:
    """A linear subspace identified by its canonical RREF basis.

    ``rows`` maps each pivot column, ascending, to its RREF row scaled to
    a primitive integer row with a positive lead, a unique form, so two
    values are equal exactly when they are the same subspace; the hash
    reads the pivot columns alone.  Callers only read ``rows``, and build
    values through ``span``, ``coordinate``, ``zero`` and ``full``.
    """

    ambient_dim: int
    rows: dict[int, dict[int, int]]

    @staticmethod
    def span(ambient_dim: int, rows: Iterable[Mapping[int, Fraction | int]]) -> "Subspace":
        """Span of sparse {column: value} rows; zero values may be present.
        The engine's rows are primitive, so each only has its sign fixed."""
        eng = SparseRref(ambient_dim)
        eng.extend(rows)
        eng._check_columns()
        return Subspace(ambient_dim, {
            c: row if row[c] > 0 else {k: -v for k, v in row.items()}
            for c, row in sorted(eng.pivots.items())})

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        vectors = list(vectors)
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("spanning vector has the wrong length")
        return Subspace.span(ambient_dim, map(_row_to_dict, vectors))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, {})

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.coordinate(ambient_dim, range(ambient_dim))

    @staticmethod
    def coordinate(ambient_dim: int, cols: Iterable[int]) -> "Subspace":
        """Span of the unit vectors at cols; unit rows are already RREF, so
        none is eliminated.  ValueError for a column outside [0, ambient_dim),
        as ``span`` raises."""
        cols = sorted(set(cols))
        if cols and (cols[0] < 0 or cols[-1] >= ambient_dim):
            raise ValueError("spanning row has a column outside the ambient space")
        return Subspace(ambient_dim, {c: {c: 1} for c in cols})

    @property
    def dim(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def pivot_rows(self) -> dict[int, dict[int, Fraction]]:
        """The RREF rows with leading 1, by pivot: each row divided by its
        lead."""
        return {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                for p, row in self.rows.items()}

    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(self.rows)

    def holds(self, row: Mapping[int, Fraction | int]) -> bool:
        """Does the row lie in the subspace?  ``not reduce(row)``, without
        leaving integers."""
        return not any(self._eliminate(row)[1].values())

    def reduce(self, row: Mapping[int, Fraction | int]) -> dict[int, Fraction]:
        """A sparse row reduced modulo the RREF basis, zeros dropped: zero at
        every pivot column, and empty exactly when the row lies in the
        subspace."""
        s, acc = self._eliminate(row)
        return {c: Fraction(v, s) for c, v in acc.items() if v}

    def _eliminate(self, row: Mapping[int, Fraction | int]) -> tuple[int, dict[int, int]]:
        """(s, s times the reduced row), s = d·L > 0: the row cleared by the
        lcm d of its denominators, then reduced by ``_reduce``."""
        den, acc = _cleared({c: v for c, v in row.items() if v})
        lead, acc = _reduce(self.rows, acc)
        return den * lead, acc

    def residue(self, v: Sequence[Fraction]) -> Vec:
        """Dense form of ``reduce``: zero at every pivot column, and zero
        everywhere exactly when v lies in the subspace."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector has the wrong length")
        r = self.reduce(_row_to_dict(v))
        return tuple(r.get(c, ZERO) for c in range(self.ambient_dim))

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not any(self.residue(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(map(self.holds, other.rows.values()))

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace.span(self.ambient_dim, [*self.rows.values(),
                                                *other.rows.values()])

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.pivot_cols()))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


# The eigen theory lives in ``eigen``.  perfbench/tracer.py wraps these two
# by their path in this module, so they resolve here too (PEP 562).
def __getattr__(name: str):
    if name in ("charpoly", "rational_eigen"):
        from . import eigen
        return getattr(eigen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
