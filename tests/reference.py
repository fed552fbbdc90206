"""Dense reference views that only the tests read.

The package keeps a subspace as its sparse integer RREF rows; the tests
compare it with dense rows and with sympy, so the dense view is built here.
"""

from fractions import Fraction

from leibnizalg.exactlin import Matrix, Subspace


def dense_basis(space: Subspace) -> Matrix:
    """One RREF row per basis vector of space, with a leading 1, pivots
    ascending."""
    columns: dict[int, dict[int, Fraction]] = {}
    for r, row in enumerate(space.pivot_rows.values()):
        for c, x in row.items():
            columns.setdefault(c, {})[r] = x
    return Matrix(space.dim, space.ambient_dim, columns)
