"""Exact linear algebra over the rationals.

Everything here is deterministic and exact.  Matrices hold
``fractions.Fraction`` entries, row reduction produces the unique reduced
row echelon form, and a subspace is identified with its canonical RREF
rows, each stored as a primitive integer row with a positive lead, so
equality of subspaces is literal equality of those rows.

The computations run on sparse integer rows.  The elimination engine,
``SparseRref``, takes rows with ``int`` or ``Fraction`` entries, clears
denominators in integer arithmetic (an ``int`` row is only copied) and
keeps each row primitive, which keeps intermediate entries small.  A
column-occurrence index over its stored rows (Davis, *Direct Methods for
Sparse Linear Systems*, 2006, ch. 2-3; Gustavson, ACM TOMS 4, 1978) lets a
new pivot reach only the rows that hold its column, and a row with one
term pins its unknown to zero before any other row is eliminated
(singleton presolve), so kernels of large, very sparse constraint systems
cost what their nonzeros cost;
``charpoly`` clears one denominator for the whole matrix and runs
Berkowitz's recursion on the nonzero integer entries.  ``rational_eigen``
orders its matrix into block triangular form by the strongly connected
components of its nonzero pattern (Tarjan, SIAM J. Comput. 1, 1972; Duff
and Reid, ACM TOMS 4, 1978): only a block of size two or more takes a
``charpoly``, and each eigenspace is a kernel on the blocks that reach its
eigenvalue, so a diagonal matrix costs no elimination.  A ``Subspace``
keeps the engine's rows, signs fixed, and leading-1 ``Fraction`` rows only
as the view ``pivot_rows``.  A subspace's coordinates (coordinate k
weights its k-th RREF row) come back to ambient rows through
``Subspace.lift``, which eliminates nothing: the combinations of RREF rows
that an RREF coordinate basis names are RREF themselves.
``Subspace.coordinate`` writes its unit rows directly.  A row is reduced
modulo a subspace in integers: ``Subspace.holds`` and ``Subspace.reduce``
share one fraction-free elimination against ``rows``, and only ``reduce``
divides, once per entry; callers that need only a span multiply those
rows too.
``Matrix`` is the value type that crosses the API.  Its one storage form
is sparse columns, and ``Matrix.row_dicts`` transposes them into the
sparse rows that ``rational_eigen``, ``nullspace`` and ``solve`` read, so
every computation reads a map at the cost of its nonzeros; its dense rows
are a view for the reference alone.  ``solve`` has no caller in the
package and stays as the reference the tests compare against.  Outside
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


def _int_row(frow: Mapping[int, Fraction | int]) -> dict[int, int]:
    """Clear the denominators of a row with no zero entries; the row scale
    is irrelevant."""
    return _primitive(_cleared(frow)[1])


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


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
    row touches only its own pivot column plus free columns.  For systems
    whose kernel is small that keeps every stored row tiny regardless of
    how many input rows stream through.

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
        row = _int_row(frow)
        pivots = self.pivots
        # stored rows hold no other pivot column, so reducing by one pivot
        # leaves the row's entries at the others nonzero
        for c in sorted(row.keys() & pivots.keys()):
            p = pivots[c]
            row = _primitive(_axpy(p[c], row, -row[c], p))
        if row:
            self._place(row)

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

    def kernel_rows(self) -> list[dict[int, Fraction]]:
        """Basis of the solution set of (rows)·x = 0 as sparse rows, one per
        free column f: 1 at f, minus each pivot row's entry at f at its
        pivot.  A unit row has no entry at a free column, so it is skipped
        and no Fraction is built for it."""
        self._check_columns()
        pivots = self.pivots
        kernel = {f: {f: ONE} for f in range(self.ncols) if f not in pivots}
        for c in sorted(pivots.keys() - self.pinned):
            row = pivots[c]
            lead = row[c]
            for f, v in row.items():
                if f != c:
                    kernel[f][c] = Fraction(-v, lead)
        return list(kernel.values())


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
    values through ``span``, ``coordinate``, ``zero``, ``full`` and ``lift``.
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

    @functools.cached_property
    def basis(self) -> Matrix:
        """One RREF row per basis vector, pivots ascending."""
        columns: dict[int, dict[int, Fraction]] = {}
        for r, row in enumerate(self.pivot_rows.values()):
            for c, x in row.items():
                columns.setdefault(c, {})[r] = x
        return Matrix(self.dim, self.ambient_dim, columns)

    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(self.rows)

    def lift(self, coords: "Subspace") -> "Subspace":
        """The subspace of this one whose coordinates span ``coords``, where
        coordinate k weights the k-th leading-1 row.  No row is eliminated:
        a row of ``coords`` led by k lifts to a row that is 0 at the pivot
        columns of the other rows of ``coords``, so the lifted rows are
        already RREF.  It sums the integer rows, each times its coordinate
        and L / its lead (L the lcm of those leads), and is made primitive;
        a unit row {k: 1} lifts to the k-th row itself."""
        if coords.ambient_dim != self.dim:
            raise ValueError("coordinates do not match the subspace dimension")
        pivots, rows = self._positions
        lifted = {}
        for k, c in coords.rows.items():
            if len(c) == 1:
                lifted[pivots[k]] = rows[k]
                continue
            lead = math.lcm(*(rows[j][pivots[j]] for j in c))
            acc: dict[int, int] = {}
            for j, x in c.items():
                row = rows[j]
                f = x * (lead // row[pivots[j]])
                for col, y in row.items():
                    acc[col] = acc.get(col, 0) + f * y
            lifted[pivots[k]] = _primitive({col: v for col, v in acc.items() if v})
        return Subspace(self.ambient_dim, lifted)

    @functools.cached_property
    def _positions(self) -> tuple[tuple[int, ...], tuple[dict[int, int], ...]]:
        """The pivot columns and their rows by position, for ``lift``, which
        runs once per weight space on the same subspace."""
        return tuple(self.rows), tuple(self.rows.values())

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
        """(s, s times the reduced row), s = d·L > 0, by fraction-free
        elimination (Bareiss, Math. Comp. 22, 1968): the row cleared by the
        lcm d of its denominators, times L, the lcm of the leads of the
        stored rows at its pivots, less each of those rows times its entry
        and L / lead.  No stored row has an entry at another pivot, so only
        the rows at the row's own pivots are read; cancelled sums stay as
        zeros."""
        den, acc = _cleared({c: v for c, v in row.items() if v})
        rows = self.rows
        at = [(rows[p], p, t) for p, t in acc.items() if p in rows]
        lead = math.lcm(*(r[p] for r, p, _ in at))
        if lead > 1:
            acc = {c: lead * v for c, v in acc.items()}
        for r, p, t in at:
            f = t * (lead // r[p])
            for c, e in r.items():
                acc[c] = acc.get(c, 0) - f * e
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


# ------------------------------------------------------------- eigen theory

def charpoly(m: Matrix) -> tuple[Fraction, ...]:
    """Coefficients of det(x·I - m), monic, highest degree first.

    Berkowitz's division-free recursion (Inf. Process. Lett. 18, 1984) on
    sparse integer columns.  B = den·m, with den the lcm of every
    denominator, is integral, and coefficient i of det(x·I - B) is den**i
    times that of m: one common scale, not one per row.  Products skip
    zero entries, and a step stops once its row or vector has vanished, so
    each step of a triangular matrix is a linear factor.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    den = math.lcm(*(x.denominator for col in m.columns.values() for x in col.values()))
    # cols[j]: (i, entry (i, j) of B) for its nonzero entries, i ascending
    cols = [sorted((i, int(x * den)) for i, x in m.columns.get(j, {}).items())
            for j in range(m.cols)]
    rows: list[dict[int, int]] = [{} for _ in cols]  # the same entries by row
    for j, col in enumerate(cols):
        for i, b in col:
            rows[i][j] = b
    p = [1]  # det(x·I - B_k) for the leading k×k block B_k of B
    for k, col in enumerate(cols):
        # B_(k+1) = [[B_k, c], [r, a]]; the Toeplitz column 1, -a, -r·c,
        # -r·B_k·c, ... is zero after -a if r = 0, and from the first
        # vanished B_k^s·c on
        r = {j: b for j, b in rows[k].items() if j < k}
        t_col = [1, -rows[k].get(k, 0)]
        v = {i: x for i, x in col if i < k}
        while r and v and len(t_col) < k + 2:
            t_col.append(-sum(r[i] * x for i, x in v.items() if i in r))
            w: dict[int, int] = {}
            for t, x in v.items():
                for i, b in cols[t]:
                    if i >= k:
                        break
                    w[i] = w.get(i, 0) + b * x
            v = {i: x for i, x in w.items() if x}
        new_p = [0] * (k + 2)
        for d, td in enumerate(t_col):
            for j, pj in enumerate(p[:k + 2 - d]):
                new_p[d + j] += td * pj
        p = new_p
    return tuple(Fraction(c, den ** i) for i, c in enumerate(p))


def _primitive_poly(p: list[int]) -> list[int]:
    """Divide an integer polynomial by the (positive) gcd of its coefficients."""
    g = math.gcd(*p)
    return [v // g for v in p] if g > 1 else p


def _strip(p: list[int]) -> list[int]:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1)·a reduced modulo b."""
    r, n, lb = list(a), len(b), b[0]
    for _ in range(len(a) - n + 1):
        c = r[0]
        r = ([lb * x - c * y for x, y in zip(r[1:], b[1:])]
             + [lb * x for x in r[n:]])
    return _strip(r)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a in Z[x]."""
    q, r, n = [], list(a), len(b)
    for _ in range(len(a) - n + 1):
        c, rem = divmod(r[0], b[0])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q.append(c)
        r = [x - c * y for x, y in zip(r[1:], b[1:])] + r[n:]
    return q


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm sequence of p as primitive integer polynomials.

    Each step takes the negated pseudo-remainder times the sign that makes
    the multiplier lc^(δ+1) positive, so every element is a positive
    multiple of the classical Sturm remainder and sign variations agree.
    The last element is gcd(p, p') up to a constant factor.
    """
    d = len(p) - 1
    chain = [p, _primitive_poly([c * (d - i) for i, c in enumerate(p[:-1])])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _prem(a, b)
        if not r:
            break
        if b[0] < 0 and (len(a) - len(b)) % 2 == 0:
            r = [-x for x in r]
        chain.append(_primitive_poly([-x for x in r]))
    return chain


def _homogeneous_value(p: Sequence[int], num: int, den: int) -> int:
    """den^deg(p) · p(num/den); for den > 0 it has the sign of p(num/den)."""
    acc, dpow = p[0], 1
    for c in p[1:]:
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def _sign_variations(chain: list[list[int]], x: Fraction) -> int:
    count, prev = 0, 0
    for s in chain:
        v = _homogeneous_value(s, x.numerator, x.denominator)
        if v:
            if prev and (v > 0) != (prev > 0):
                count += 1
            prev = v
    return count


def _root_bound(p: list[int]) -> int:
    """A power of two strictly above every |root| of p (Fujiwara's bound).

    Fujiwara: |z| <= 2·max_k |a_k/a_0|^(1/k) for p = a_0 x^n + ... + a_n
    (the bound allows a_n halved; leaving it whole only enlarges it).  Bit
    lengths give a 2^e at least every k-th root, so every root lies
    strictly inside (-2^(e+2), 2^(e+2)).  Cauchy's 1 + max|a_k/a_0| would
    be as large as the constant term, which is huge for products of
    weights.
    """
    lead_bits = abs(p[0]).bit_length()
    e = 0
    for k, c in enumerate(p[1:], start=1):
        if c:
            excess = abs(c).bit_length() - lead_bits + 1
            e = max(e, -(-excess // k))
    return 1 << (e + 2)


def _rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero polynomial (descending coefficients).

    Exact root isolation followed by one exact test per interval
    (Collins & Akritas, "Polynomial real root isolation using Descarte's
    rule of signs", SYMSAC 1976, with Sturm sequences in place of
    Descartes' rule):

    1. clear denominators, make the polynomial primitive and strip the
       root 0 (reported when present);
    2. take the square-free part P = p / gcd(p, p') and its Sturm chain;
    3. bisect (-B, B], where B is a power of two above Fujiwara's root
       bound, counting the distinct roots in each half-open interval by
       the chain's sign variations; intervals with no root are dropped;
    4. once an interval is narrower than 1/L², L = |lead(P)|, it holds at
       most one rational root (whose denominator divides L), and that root
       must be its midpoint's best approximation with denominator <= L.
       That one candidate is kept only when P vanishes there exactly.

    With n = deg P and b the coefficient bit size, B and L have O(b) bits,
    so an interval is narrow after O(b) halvings and at most n intervals
    per level hold a root: O(n·b) bisections, each evaluating O(n) chain
    polynomials at a dyadic point.  The cost is polynomial in n and b; a
    search over the divisors of the constant term is exponential in b.
    """
    denlcm = math.lcm(*(q.denominator for q in coeffs))
    ints = _strip([int(q * denlcm) for q in coeffs])
    if not ints:
        raise ValueError("zero polynomial")
    roots = set()
    while ints[-1] == 0:
        ints.pop()
        roots.add(ZERO)
    if len(ints) == 1:
        return sorted(roots)
    p = _primitive_poly(ints)
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        p = _exact_quotient(p, _primitive_poly(chain[-1]))
        chain = _sturm_chain(p)
    lead = abs(p[0])
    narrow = Fraction(1, lead * lead)
    bound = Fraction(_root_bound(p))
    pending = [(-bound, bound,
                _sign_variations(chain, -bound), _sign_variations(chain, bound))]
    while pending:
        lo, hi, var_lo, var_hi = pending.pop()
        if var_lo == var_hi:
            continue
        mid = (lo + hi) / 2
        if hi - lo < narrow:
            # two distinct fractions with denominators <= lead differ by at
            # least 1/lead², so the root, within half that of mid, is the
            # best approximation limit_denominator(lead) returns
            cand = mid.limit_denominator(lead)
            if _homogeneous_value(p, cand.numerator, cand.denominator) == 0:
                roots.add(cand)
            continue
        var_mid = _sign_variations(chain, mid)
        pending.append((lo, mid, var_lo, var_mid))
        pending.append((mid, hi, var_mid, var_hi))
    return sorted(roots)


@value_type
class EigenDecomposition:
    """Rational eigenvalues with exact eigenspaces, eigenvalues ascending.

    ``complete`` is False when the eigenspaces do not fill the whole space,
    i.e. the matrix is not diagonalizable over the rationals (irrational or
    complex eigenvalues, or nontrivial Jordan structure).
    """

    pairs: tuple[tuple[Fraction, Subspace], ...]
    complete: bool


def _sccs(rows: Sequence[Mapping[int, Fraction]]) -> list[list[int]]:
    """Strongly connected components of the graph with an edge i -> j for
    each key j of rows[i], every component after all those it reaches.

    Tarjan's algorithm (SIAM J. Comput. 1, 1972) in O(n + nnz), with a
    stack of (vertex, edge iterator) frames in place of recursion.  A
    vertex whose component is out gets low n, which no min() then picks."""
    n = len(rows)
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    comps = []
    for root in range(n):
        if root in order:
            continue
        low[root] = order[root] = len(order)
        stack.append(root)
        frames = [(root, iter(rows[root]))]
        while frames:
            v, edges = frames[-1]
            for w in edges:
                if w not in order:
                    low[w] = order[w] = len(order)
                    stack.append(w)
                    frames.append((w, iter(rows[w])))
                    break
                low[v] = min(low[v], low[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        low[comp[-1]] = n
                    comps.append(comp)
    return comps


def rational_eigen(m: Matrix) -> EigenDecomposition:
    """Rational eigenvalues and eigenspaces of a square matrix, read off its
    block triangular form.

    The strongly connected components of the nonzero pattern (``_sccs``)
    are the diagonal blocks of a symmetric permutation of m to block
    triangular form, the first step of sparse direct solvers (I. S. Duff
    and J. K. Reid, "An implementation of Tarjan's algorithm for the block
    triangularization of a matrix", ACM TOMS 4, 1978).  The eigenvalues are
    those of the blocks: a 1×1 block's entry, else the rational roots of
    the block's ``charpoly``.  An eigenvector v for λ is zero on every
    block B that reaches no block with eigenvalue λ.  By induction over the
    blocks, successors first: B's successors reach no such block either,
    so v is zero on them, B's rows of (m - λ)·v = 0 say (B - λ)·v_B = 0,
    and B - λ is invertible.  So each eigenspace is the kernel of m - λ on
    the rows and columns of the blocks that reach λ, renumbered in
    ascending order (which keeps the RREF) and lifted back; on a diagonal
    matrix no row is eliminated.  ``complete`` is True when the
    eigenspaces fill the space.
    """
    if m.rows != m.cols:
        raise ValueError("eigen decomposition of a non-square matrix")
    n = m.rows
    rows = m.row_dicts()
    block: dict[int, int] = {}  # index -> position of its component
    reach: list[set[Fraction]] = []  # eigenvalues of the blocks each reaches
    support: dict[Fraction, list[int]] = {}  # eigenvalue -> indices reaching it
    for b, comp in enumerate(_sccs(rows)):
        block.update(dict.fromkeys(comp, b))
        if len(comp) == 1:
            lams = {Fraction(rows[comp[0]].get(comp[0], 0))}
        else:
            pos = {i: k for k, i in enumerate(sorted(comp))}
            lams = set(_rational_roots(charpoly(Matrix(len(pos), len(pos), {
                pos[c]: {pos[r]: x for r, x in m.columns.get(c, {}).items()
                         if r in pos} for c in pos}))))
        for s in {block[j] for i in comp for j in rows[i]} - {b}:
            lams |= reach[s]
        reach.append(lams)
        for lam in lams:
            support.setdefault(lam, []).extend(comp)
    pairs = []
    for lam in sorted(support):
        idx = sorted(support[lam])
        pos = {i: k for k, i in enumerate(idx)}
        shifted = ({**{pos[j]: x for j, x in rows[i].items() if j in pos},
                    pos[i]: rows[i].get(i, ZERO) - lam} for i in idx)
        pairs.append((lam, Subspace.coordinate(n, idx).lift(
            kernel_of_constraints(shifted, len(idx)))))
    return EigenDecomposition(tuple(pairs),
                              sum(space.dim for _, space in pairs) == n)
