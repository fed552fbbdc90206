"""Rational eigenvalues and eigenspaces of a square matrix.

``charpoly`` runs Berkowitz's recursion on a matrix's stored integer
entries, over its one denominator; ``_rational_roots``
isolates the polynomial's real roots with a Sturm chain and keeps the
rational ones; ``rational_eigen`` pairs each root with one kernel.  The
package's one caller is the summand split in ``radical``, which imports
this module when it first runs, so no CLI command compiles it: the sl2
weights are read off integer kernels and f-strings, not an eigenproblem.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exactlin import Matrix, Subspace, ZERO, kernel_of_constraints, value_type


def charpoly(m: Matrix) -> tuple[Fraction, ...]:
    """Coefficients of det(x·I - m), monic, highest degree first.

    Berkowitz's division-free recursion (Inf. Process. Lett. 18, 1984) on
    sparse integer columns: m's stored columns are B = den·m, and
    coefficient i of det(x·I - B) is den**i times that of m, one common
    scale, not one per row.  Products skip
    zero entries, and a step stops once its row or vector has vanished, so
    each step of a triangular matrix is a linear factor.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    den = m.den
    # cols[j]: (i, entry (i, j) of B) for its nonzero entries, i ascending
    cols = [sorted(m.columns.get(j, {}).items()) for j in range(m.cols)]
    rows = m.row_dicts()  # the same entries by row
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


def rational_eigen(m: Matrix) -> EigenDecomposition:
    """Rational eigenvalues and eigenspaces of a square matrix: the rational
    roots of its ``charpoly``, each with the kernel of m - λ.  ``complete``
    is True when the eigenspaces fill the space.

    The package calls it in one place, on the centroid combinations of
    the summand split (``radical._split_summands``); the sl2 weights need no
    eigenproblem."""
    if m.rows != m.cols:
        raise ValueError("eigen decomposition of a non-square matrix")
    rows = m.row_dicts()  # den·m, so den·λ is the shift
    pairs = []
    for lam in _rational_roots(charpoly(m)):
        shift = m.den * lam
        shifted = ({**row, i: row.get(i, 0) - shift} for i, row in enumerate(rows))
        pairs.append((lam, kernel_of_constraints(shifted, m.rows)))
    return EigenDecomposition(tuple(pairs),
                              sum(space.dim for _, space in pairs) == m.rows)
