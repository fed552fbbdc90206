"""Maps stored as sparse columns: the pruned identity check against a full
scan, the two ways of building a matrix against each other, and no dense
view read by any computation."""

import itertools
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from leibnizalg import (Matrix, Sl2Triple, derivation_algebra,
                        irreducible_decomposition_sl2, is_simple_certified,
                        solvable_radical, split_all, squares_ideal)
from leibnizalg.catalog import semisimple_pair, simple_sl2_leibniz, standard_catalog
from leibnizalg.core import Algebra, identity_failures


def mixed(alg):
    """alg in the basis e_i + e_(i+1) (the last vector kept), where most
    products have several entries."""
    n = alg.dim
    new = [tuple(F(k in (i, i + 1)) for k in range(n)) for i in range(n - 1)]
    new.append(alg.basis_vector(n - 1))

    def coords(w):  # y with w = y_0 new_0 + ... : y_k = w_k - y_(k-1)
        out, prev = [], F(0)
        for x in w:
            prev = x - prev
            out.append(prev)
        return out

    products = {(i, j): [(k, c) for k, c in
                         enumerate(coords(alg.product(new[i], new[j]))) if c]
                for i in range(n) for j in range(n)}
    return Algebra(n, products)


CATALOG = [(label, alg, levi) for label, alg, levi in standard_catalog()]
# the declared split is a coordinate split, so a mixed member has none
CATALOG += [(f"{label} mixed", mixed(alg), None) for label, alg, _ in CATALOG]

entries = st.sampled_from([F(-3), F(-1), F(-1, 2), F(1, 3), F(1), F(2)])


def reference_failures(alg, m, left):
    """Every pair (i, j), row-major, where m([x,y]) differs from [m(x), y]
    (+ [x, m(y)] when left is set), with the difference as its residual,
    evaluated densely with no pruning."""
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    images = [m.apply(v) for v in basis]
    out = []
    for i, j in itertools.product(range(n), repeat=2):
        want = alg.product(images[i], basis[j])
        if left:
            want = tuple(a + b for a, b in
                         zip(want, alg.product(basis[i], images[j])))
        got = m.apply(alg.product(basis[i], basis[j]))
        residual = tuple(a - b for a, b in zip(got, want))
        if any(residual):
            out.append((i, j, residual))
    return out


@st.composite
def sparse_columns(draw, n, rows=None, cols=None, max_entries=8):
    """{c: {r: value}} with a few entries at rows x cols (default all)."""
    rows = list(range(n)) if rows is None else list(rows)
    cols = list(range(n)) if cols is None else list(cols)
    out = {}
    if not rows or not cols:
        return out
    for _ in range(draw(st.integers(0, max_entries))):
        r = draw(st.sampled_from(rows))
        c = draw(st.sampled_from(cols))
        out.setdefault(c, {})[r] = draw(entries)
    return out


@st.composite
def algebra_and_map(draw):
    """A catalog member and a map on it: a derivation basis map, one with an
    entry changed, a raising corner (complement into ideal), or a random
    sparse map."""
    _, alg, levi = draw(st.sampled_from(CATALOG))
    n = alg.dim
    kind = draw(st.sampled_from(["derivation", "perturbed", "raising", "random"]))
    if kind in ("derivation", "perturbed"):
        m = draw(st.sampled_from(derivation_algebra(alg).maps))
        if kind == "derivation":
            return alg, m
        columns = {c: dict(col) for c, col in m.columns.items()}
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        col = columns.setdefault(c, {})
        col[r] = col.get(r, F(0)) + draw(entries)
        return alg, Matrix(n, n, columns)
    if kind == "raising" and levi is not None:
        columns = draw(sparse_columns(n, levi.i_indices, levi.g_indices))
    else:
        columns = draw(sparse_columns(n))
    return alg, Matrix(n, n, columns)


@given(algebra_and_map(), st.booleans())
@settings(max_examples=150)
def test_pruned_identity_check_matches_a_full_scan(case, left):
    alg, m = case
    assert list(identity_failures(alg, m, left)) == reference_failures(alg, m, left)


@st.composite
def dense_rows(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cell = st.one_of(st.just(F(0)), entries)
    return draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)), cols


@given(dense_rows())
@settings(max_examples=80)
def test_sparse_and_dense_construction_agree(case):
    rows, ncols = case
    nrows = len(rows)
    dense = Matrix.from_rows(rows, ncols)
    columns = {c: {r: row[c] for r, row in enumerate(rows)} for c in range(ncols)}
    sparse = Matrix(nrows, ncols, columns)  # zeros included
    # compared before either view is built on the other, then after
    for _ in range(2):
        assert sparse == dense and dense == sparse
        assert hash(sparse) == hash(dense)
        assert sparse.is_zero() == dense.is_zero()
        assert [sparse.col(c) for c in range(ncols)] == [
            dense.col(c) for c in range(ncols)]
        assert sparse.flatten() == dense.flatten()
        assert sparse.data == dense.data
    assert sparse.columns == dense.columns
    assert all(col and all(col.values()) for col in sparse.columns.values())


def test_no_computation_reads_a_dense_view(monkeypatch):
    # the sl2 actions, the charpoly and eigenspaces, the Killing form, the
    # radical and the splits all read sparse columns or rows
    reads = 0
    view = Matrix.data

    def counted_view(m):
        nonlocal reads
        reads += 1
        return view.fget(m)

    monkeypatch.setattr(Matrix, "data", property(counted_view))
    for (alg, levi), simple in ((simple_sl2_leibniz(16), "yes"),
                                (semisimple_pair(4), "no")):
        triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
        dec = irreducible_decomposition_sl2(alg, squares_ideal(alg), triple)
        assert dec.components
        assert is_simple_certified(alg, levi).verdict == simple
        assert solvable_radical(alg) == squares_ideal(alg)
        assert split_all(alg, levi).splits
    assert reads == 0
