"""Exact linear algebra over the rationals.

Everything here is deterministic and exact.  Matrices hold
``fractions.Fraction`` entries, row reduction produces the unique reduced
row echelon form, and a subspace is identified with its canonical RREF
basis, so equality of subspaces is literal equality of matrices.

The elimination engine works on sparse integer rows (denominators are
cleared, rows are kept primitive), which keeps intermediate entries small
and makes kernels of large, very sparse constraint systems cheap.  Dense
``Matrix`` inputs are converted on the way in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rational = Fraction
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


# ---------------------------------------------------------------- vectors

def as_vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    if not 0 <= i < n:
        raise IndexError(f"unit vector index {i} out of range for dimension {n}")
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(u, v)), ZERO)


# ---------------------------------------------------------------- matrices

class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[Vec, ...]):
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = tuple(as_vec(r) for r in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with row width")
            return Matrix(len(data), width, data)
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return Matrix(0, cols, ())

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        row = zero_vec(cols)
        return Matrix(rows, cols, tuple(row for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(unit_vec(n, i) for i in range(n)))

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(vec_add(a, b) for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(vec_sub(a, b) for a, b in zip(self.data, other.data)))

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      tuple(vec_scale(c, r) for r in self.data))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
        tcols = other.transpose().data
        return Matrix(self.rows, other.cols,
                      tuple(tuple(dot(r, c) for c in tcols) for r in self.data))

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.shape()} to a vector of length {len(v)}")
        return tuple(dot(r, v) for r in self.data)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), ZERO)

    def flatten(self) -> Vec:
        """Row-major flattening; entry (r, c) lands at index r*cols + c."""
        return tuple(x for r in self.data for x in r)

    @staticmethod
    def from_flat(flat: Sequence[Fraction], rows: int, cols: int) -> "Matrix":
        if len(flat) != rows * cols:
            raise ValueError("flat length does not match the requested shape")
        return Matrix(rows, cols,
                      tuple(as_vec(flat[r * cols:(r + 1) * cols]) for r in range(rows)))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _same_shape(self, other: "Matrix") -> None:
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix)
                and self.shape() == other.shape()
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ------------------------------------------------- sparse elimination engine

def _int_row(frow: dict[int, Fraction]) -> dict[int, int]:
    """Clear denominators and strip zeros; the row scale is irrelevant."""
    row = {c: v for c, v in frow.items() if v != 0}
    if not row:
        return {}
    denlcm = 1
    for v in row.values():
        denlcm = denlcm * v.denominator // math.gcd(denlcm, v.denominator)
    out = {c: int(v * denlcm) for c, v in row.items()}
    return _primitive(out)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


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
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}

    def add_row(self, frow: dict[int, Fraction]) -> None:
        row = _int_row(frow)
        while row:
            hit = row.keys() & self.pivots.keys()
            if not hit:
                break
            c = min(hit)
            p = self.pivots[c]
            row = _primitive(_axpy(p[c], row, -row[c], p))
        if not row:
            return
        c = min(row)
        for c2, q in self.pivots.items():
            if c in q:
                self.pivots[c2] = _primitive(_axpy(row[c], q, -q[c], row))
        self.pivots[c] = row

    def extend(self, frows: Iterable[dict[int, Fraction]]) -> None:
        for r in frows:
            self.add_row(r)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(sorted(self.pivots))

    def fraction_rows(self) -> list[tuple[int, dict[int, Fraction]]]:
        """(pivot column, leading-1 row) pairs, ordered by pivot column."""
        out = []
        for c in sorted(self.pivots):
            row = self.pivots[c]
            lead = row[c]
            out.append((c, {col: Fraction(v, lead) for col, v in row.items()}))
        return out

    def kernel_vectors(self) -> list[Vec]:
        """Basis of the solution set of (rows)·x = 0, one vector per free column."""
        frac = self.fraction_rows()
        pivot_set = set(self.pivots)
        vecs = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = [ZERO] * self.ncols
            v[f] = ONE
            for c, row in frac:
                coeff = row.get(f)
                if coeff is not None:
                    v[c] = -coeff
            vecs.append(tuple(v))
        return vecs


def _row_to_dict(row: Sequence[Fraction]) -> dict[int, Fraction]:
    return {c: v for c, v in enumerate(row) if v != 0}


@dataclass(frozen=True)
class RrefResult:
    reduced: Matrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, preserving the input shape."""
    eng = SparseRref(m.cols)
    for r in m.data:
        eng.add_row(_row_to_dict(r))
    rows = []
    for _, frow in eng.fraction_rows():
        rows.append(tuple(frow.get(c, ZERO) for c in range(m.cols)))
    while len(rows) < m.rows:
        rows.append(zero_vec(m.cols))
    return RrefResult(Matrix(m.rows, m.cols, tuple(rows)), eng.rank, eng.pivot_cols())


def nullspace(m: Matrix) -> "Subspace":
    eng = SparseRref(m.cols)
    for r in m.data:
        eng.add_row(_row_to_dict(r))
    return Subspace.from_vectors(m.cols, eng.kernel_vectors())


def kernel_of_constraints(rows: Iterable[dict[int, Fraction]], ncols: int) -> "Subspace":
    """Kernel of a (possibly huge) sparse constraint system."""
    eng = SparseRref(ncols)
    eng.extend(rows)
    return Subspace.from_vectors(ncols, eng.kernel_vectors())


def solve(a: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of a·x = b, free variables set to zero; None if none."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match the row count")
    eng = SparseRref(a.cols + 1)
    for r, rhs in zip(a.data, b):
        row = _row_to_dict(r)
        if rhs != 0:
            row[a.cols] = Fraction(rhs)
        eng.add_row(row)
    if a.cols in eng.pivots:
        return None
    x = [ZERO] * a.cols
    for c, frow in eng.fraction_rows():
        x[c] = frow.get(a.cols, ZERO)
    return tuple(x)


# ---------------------------------------------------------------- subspaces

@dataclass(frozen=True)
class Subspace:
    """A linear subspace identified by its canonical RREF basis.

    ``basis`` has one row per basis vector, no zero rows, in reduced row
    echelon form; two Subspace values are equal exactly when they are the
    same subspace.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        eng = SparseRref(ambient_dim)
        for v in vectors:
            v = as_vec(v)
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has the wrong length")
            eng.add_row(_row_to_dict(v))
        rows = tuple(tuple(frow.get(c, ZERO) for c in range(ambient_dim))
                     for _, frow in eng.fraction_rows())
        return Subspace(ambient_dim, Matrix(len(rows), ambient_dim, rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @staticmethod
    def coordinate(ambient_dim: int, cols: Iterable[int]) -> "Subspace":
        return Subspace.from_vectors(
            ambient_dim, [unit_vec(ambient_dim, c) for c in sorted(set(cols))])

    @property
    def dim(self) -> int:
        return self.basis.rows

    @functools.cached_property
    def _pivot_cols(self) -> tuple[int, ...]:
        # kept in the instance __dict__, outside the dataclass fields, so
        # equality and hashing still see only ambient_dim and basis
        out = []
        for r in self.basis.data:
            for c, v in enumerate(r):
                if v != 0:
                    out.append(c)
                    break
        return tuple(out)

    def pivot_cols(self) -> tuple[int, ...]:
        return self._pivot_cols

    def coords_of(self, v: Sequence[Fraction]) -> Vec | None:
        """Coefficients of v in the canonical basis, or None if v is outside."""
        v = as_vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector has the wrong length")
        coeffs = tuple(v[p] for p in self.pivot_cols())
        residue = list(v)
        for t, row in zip(coeffs, self.basis.data):
            if t != 0:
                for c, entry in enumerate(row):
                    if entry != 0:
                        residue[c] -= t * entry
        if any(x != 0 for x in residue):
            return None
        return coeffs

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coords_of(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.data)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace.from_vectors(
            self.ambient_dim, list(self.basis.data) + list(other.basis.data))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        du = self.dim
        stacked = Matrix.from_rows(
            [tuple(self.basis.data[t][r] for t in range(du))
             + tuple(-other.basis.data[s][r] for s in range(other.dim))
             for r in range(self.ambient_dim)],
            cols=du + other.dim)
        inter = []
        for coeffs in nullspace(stacked).basis.data:
            v = zero_vec(self.ambient_dim)
            for t in range(du):
                if coeffs[t] != 0:
                    v = vec_add(v, vec_scale(coeffs[t], self.basis.data[t]))
            inter.append(v)
        return Subspace.from_vectors(self.ambient_dim, inter)

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


# ------------------------------------------------------------- eigen theory

def charpoly(m: Matrix) -> tuple[Fraction, ...]:
    """Coefficients of det(x·I - m), monic, highest degree first.

    Division-free (Berkowitz) recursion, so intermediate values stay in the
    subring generated by the entries.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    p: list[Fraction] = [ONE]
    a_data = m.data
    for k in range(1, n + 1):
        a = a_data[k - 1][k - 1]
        r = a_data[k - 1][:k - 1]
        c = tuple(a_data[t][k - 1] for t in range(k - 1))
        sub = tuple(a_data[t][:k - 1] for t in range(k - 1))
        t_col: list[Fraction] = [ONE, -a]
        v = c
        for _ in range(k - 1):
            t_col.append(-dot(r, v))
            v = tuple(dot(row, v) for row in sub)
        new_p = []
        for i in range(k + 1):
            acc = ZERO
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc += t_col[i - j] * p[j]
            new_p.append(acc)
        p = new_p
    return tuple(p)


def _primitive_poly(p: list[int]) -> list[int]:
    """Divide an integer polynomial by the (positive) gcd of its coefficients."""
    g = 0
    for v in p:
        g = math.gcd(g, v)
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
    denlcm = 1
    for q in coeffs:
        denlcm = denlcm * q.denominator // math.gcd(denlcm, q.denominator)
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


@dataclass(frozen=True)
class EigenDecomposition:
    """Rational eigenvalues with exact eigenspaces, eigenvalues ascending.

    ``complete`` is False when the eigenspaces do not fill the whole space,
    i.e. the matrix is not diagonalizable over the rationals (irrational or
    complex eigenvalues, or nontrivial Jordan structure).
    """

    pairs: tuple[tuple[Fraction, Subspace], ...]
    complete: bool


def rational_eigen(m: Matrix) -> EigenDecomposition:
    if m.rows != m.cols:
        raise ValueError("eigen decomposition of a non-square matrix")
    n = m.rows
    if n == 0:
        return EigenDecomposition((), True)
    pairs = []
    total = 0
    for lam in _rational_roots(charpoly(m)):
        space = nullspace(m - Matrix.identity(n).scale(lam))
        pairs.append((lam, space))
        total += space.dim
    return EigenDecomposition(tuple(pairs), total == n)
