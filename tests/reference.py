"""Dense reference views and changes of basis that only the tests read.

The package keeps a subspace as its sparse integer RREF rows; the tests
compare it with dense rows and with sympy, so the dense view is built here.
The shears rewrite an algebra's table in a mixed basis, densely, through
``Algebra.product``.
"""

from fractions import Fraction

from leibnizalg.core import Algebra
from leibnizalg.exactlin import Matrix, Subspace


def dense_basis(space: Subspace) -> Matrix:
    """One RREF row per basis vector of space, with a leading 1, pivots
    ascending."""
    columns: dict[int, dict[int, Fraction]] = {}
    for r, row in enumerate(space.pivot_rows.values()):
        for c, x in row.items():
            columns.setdefault(c, {})[r] = x
    return Matrix(space.dim, space.ambient_dim, columns)


def shear_product(n, shears):
    """P, the product of the shears I + c·E_ij in order, and its inverse:
    multiplying P on the right by a shear adds c times its column i to its
    column j, and multiplying P^-1 on the left by the inverse shear
    subtracts c times its row j from its row i."""
    p = [[Fraction(1) if r == s else Fraction(0) for s in range(n)] for r in range(n)]
    pinv = [list(row) for row in p]
    for i, j, c in shears:
        for row in p:
            row[j] += c * row[i]
        pinv[i] = [a - c * b for a, b in zip(pinv[i], pinv[j])]
    return Matrix.from_rows(p), Matrix.from_rows(pinv)


def conjugate(alg, shears):
    """Rewrite the table in the basis P e_0, ..., P e_{n-1}."""
    n = alg.dim
    p, pinv = shear_product(n, shears)
    cols = [p.apply(alg.basis_vector(i)) for i in range(n)]
    products = {}
    for i in range(n):
        for j in range(n):
            w = pinv.apply(alg.product(cols[i], cols[j]))
            entries = [(k, c) for k, c in enumerate(w) if c != 0]
            if entries:
                products[(i, j)] = entries
    return Algebra(n, products)
