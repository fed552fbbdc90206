"""Algebra core: identities, ideals, quotients, radicals, simplicity."""

import gc
import json
import random
import re
from fractions import Fraction as F
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from leibnizalg import (
    Algebra,
    InvalidAlgebraError,
    LeviDatum,
    LeviError,
    Matrix,
    Sl2Triple,
    SchemaError,
    StructureError,
    Subspace,
    SummandSplit,
    algebra_from_json_dict,
    centroid,
    derivation_algebra,
    derived_series,
    derived_subalgebra,
    direct_sum_many,
    dump_algebra_json,
    ensure_leibniz,
    irreducible_decomposition_sl2,
    is_semisimple,
    is_simple_certified,
    killing_form,
    leibniz_check,
    load_algebra_json,
    pair_structure_report,
    quotient_algebra,
    raising_map_report,
    rational_eigen,
    simple_summands,
    solvable_radical,
    split_all,
    squares_ideal,
    validate_levi,
    weight_decomposition,
)
from leibnizalg import core, eigen, radical
from leibnizalg.catalog import (
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)
from reference import dense_basis


# ----------------------------------------------------------- construction

def test_table_canonicalization_merges_duplicates():
    a = Algebra(2, {(0, 0): [(1, F(1)), (1, F(2))]})
    b = Algebra(2, {(0, 0): [(1, F(3))]})
    assert a == b
    assert hash(a) == hash(b)


def test_table_drops_zero_entries():
    a = Algebra(2, {(0, 0): [(1, F(1)), (1, F(-1))]})
    assert a == Algebra(2, {})
    assert a.c(0, 0) == ()


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        Algebra(2, {(0, 2): [(0, F(1))]})
    with pytest.raises(ValueError):
        Algebra(2, {(0, 0): [(5, F(1))]})
    with pytest.raises(ValueError):
        Algebra(2, {}, basis_names=("a",))


def test_product_bilinear_extension():
    alg = two_dim_solvable()
    x = (F(2), F(5))
    y = (F(3), F(-1))
    # only the a*a term contributes: [x, y] = 2*3*[a,a] = 6b
    assert alg.product(x, y) == (F(0), F(6))


def rescaled_ideal(alg, levi):
    """The same algebra on the basis whose a-th ideal vector, in the order
    of levi.i_indices, is scaled by 1/(a + 1): the constant of e_k in
    [e_i, e_j] becomes c·s_i·s_j / s_k, so the table gains denominators and
    the declared split still holds."""
    s = [F(1)] * alg.dim
    for a, i in enumerate(levi.i_indices):
        s[i] = F(1, a + 1)
    return Algebra(alg.dim, {(i, j): [(k, c * s[i] * s[j] / s[k]) for k, c in entries]
                             for (i, j), entries in alg.table_items()},
                   alg.basis_names, alg.name)


def test_right_and_left_mult_agree_with_product():
    # the scaled members have a common denominator D > 1, by which the
    # integer contractions divide at the end
    members = [(simple_sl2_leibniz(2), None)] + [
        ((rescaled_ideal(*member), member[1]), member)
        for member in (simple_sl2_leibniz(4), semisimple_pair(2))]
    for (alg, levi), plain in members:
        z = tuple(F(k + 1, 3) for k in range(alg.dim))
        rm = alg.right_mult(z)
        lm = alg.left_mult(z)
        for i in range(alg.dim):
            ei = alg.basis_vector(i)
            assert rm.apply(ei) == alg.product(ei, z)
            assert lm.apply(ei) == alg.product(z, ei)
        if plain is None:
            continue
        assert alg._den > 1
        validate_levi(alg, levi)
        assert leibniz_check(alg) == ()
        assert derivation_algebra(alg).dim == derivation_algebra(plain[0]).dim
        for raw in levi.sl2_triples:
            t = Sl2Triple.from_indices(alg.dim, raw)
            assert (irreducible_decomposition_sl2(alg, squares_ideal(alg), t).highest_weights
                    == irreducible_decomposition_sl2(
                        plain[0], squares_ideal(plain[0]), t).highest_weights)


def test_is_lie():
    assert sl2()[0].is_lie()
    assert not two_dim_solvable().is_lie()


def test_is_lie_exactly_when_squares_vanish():
    for _, alg, _ in standard_catalog():
        assert alg.is_lie() == (squares_ideal(alg).dim == 0)
        assert core.squares_quotient(alg).algebra.is_lie()


# -------------------------------------------------------------- identities

def test_leibniz_check_accepts_catalog():
    for _, alg, _ in standard_catalog():
        assert leibniz_check(alg) == ()


def dense_leibniz_violations(alg):
    """Reference for leibniz_check: every basis triple (i, j, k) with the
    residual [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j], computed
    from dense products."""
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    out = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                lhs = alg.product(e[i], alg.product(e[j], e[k]))
                rhs = [a - b for a, b in zip(alg.product(alg.product(e[i], e[j]), e[k]),
                                             alg.product(alg.product(e[i], e[k]), e[j]))]
                residual = tuple(a - b for a, b in zip(lhs, rhs))
                if any(residual):
                    out.append((i, j, k, residual))
    return tuple(out)


def test_leibniz_check_flags_violations():
    bad = Algebra(2, {(0, 0): [(1, F(1))], (1, 0): [(0, F(1))]})
    violations = leibniz_check(bad)
    assert violations == ((0, 1, 0, (F(0), F(1))), (1, 1, 0, (F(1), F(0))))
    assert violations == dense_leibniz_violations(bad)
    with pytest.raises(InvalidAlgebraError):
        ensure_leibniz(bad)
    # seeded random sparse tables, dims 1-5, most of them not Leibniz
    rng = random.Random(1412)
    failing = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        table = {pair: [(rng.randrange(n), F(rng.randint(-2, 2), rng.randint(1, 2)))
                        for _ in range(rng.randint(1, 2))]
                 for pair in rng.sample(pairs, rng.randint(1, min(len(pairs), 6)))}
        alg = Algebra(n, table)
        violations = leibniz_check(alg)
        assert violations == dense_leibniz_violations(alg)
        failing += bool(violations)
    assert failing > 30


# scales with non-unit denominators, as the benchmark's relabeled inputs use
SCALES = [F(p, q) * sign for p, q in ((1, 1), (2, 3), (3, 2), (5, 4), (1, 3), (2, 1))
          for sign in (1, -1)]


@st.composite
def rescaled_tables(draw):
    """A small catalog member in the basis s_i e_i, each s_i drawn from
    SCALES, so that its constants have non-unit denominators; about half
    the time one constant is then multiplied by another scale, which
    mostly breaks the identity and leaves residuals with denominators.
    Or, for supports that no catalog member has, a random sparse table
    with constants from SCALES."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        index = st.integers(0, n - 1)
        table = draw(st.dictionaries(
            st.tuples(index, index),
            st.lists(st.tuples(index, st.sampled_from(SCALES)), min_size=1, max_size=2),
            min_size=1, max_size=6))
        return Algebra(n, table)
    alg = draw(st.sampled_from([sl2()[0], two_dim_solvable(), simple_sl2_leibniz(2)[0],
                                semisimple_pair(1)[0]]))
    n = alg.dim
    s = draw(st.lists(st.sampled_from(SCALES), min_size=n, max_size=n))
    products = {(i, j): [(k, c * s[i] * s[j] / s[k]) for k, c in entries]
                for (i, j), entries in alg.table_items()}
    if draw(st.booleans()):
        pair = draw(st.sampled_from(sorted(products)))
        factor = draw(st.sampled_from(SCALES))
        products[pair] = [(k, c * factor) for k, c in products[pair]]
    return Algebra(n, products)


@given(rescaled_tables(), st.data())
@settings(max_examples=60)
def test_integer_contractions_match_the_fraction_oracles(alg, data):
    # leibniz_check, the squares' span and the derived subalgebra run on
    # the integer table; each equals its Fraction reference exactly
    n = alg.dim
    e = [alg.basis_vector(i) for i in range(n)]
    violations = leibniz_check(alg)
    assert violations == dense_leibniz_violations(alg)
    sums = Subspace.from_vectors(n, [
        tuple(a + b for a, b in zip(alg.product(e[i], e[j]), alg.product(e[j], e[i])))
        for i in range(n) for j in range(i, n)])
    assert Subspace.span(n, core._square_sums(alg)) == sums
    if not violations:
        assert squares_ideal(alg) == sums
    entry = st.sampled_from([F(0), F(0), F(1), F(-2, 3), F(5, 4)])
    sub = Subspace.from_vectors(n, data.draw(st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3)))
    for space, rows in ((sub, dense_basis(sub).data), (Subspace.full(n), e), (None, e)):
        assert derived_subalgebra(alg, space) == Subspace.from_vectors(
            n, [alg.product(u, v) for u in rows for v in rows])


def test_leibniz_check_residuals_after_one_changed_coefficient():
    alg, _ = semisimple_pair(1)
    table = dict(alg.table_items())
    assert table[(7, 0)] == ((6, F(-1)),)  # [x1_1, e1] = -x0_1
    table[(7, 0)] = ((6, F(-2)),)
    bad = Algebra(alg.dim, table, alg.basis_names)
    violations = leibniz_check(bad)
    assert [v[:3] for v in violations] == [
        (6, 0, 1), (6, 1, 0), (7, 0, 1), (7, 0, 3),
        (7, 1, 0), (7, 3, 0), (9, 0, 4), (9, 4, 0)]
    assert violations == dense_leibniz_violations(bad)


def test_identity_checks_visit_pairs_in_proportion_to_the_table(monkeypatch):
    # The identity check opens a residual for each pair that some term
    # reaches; its accumulator, a defaultdict, is replaced by one that
    # counts the openings.  On simple m = 48, 96 and 192 (150, 294 and 582
    # table entries), leibniz_check opens 450, 882 and 1746 pairs over all
    # right multiplications, and the identity on the ideal opens 144, 288
    # and 576.  A scan of every pair that a nonzero column could reach
    # visited 2695, 9991 and 38 407 for the identity, which grows like
    # dim**2 while the table grows like dim.
    visits = 0

    class Residuals(dict):
        def __missing__(self, pair):
            nonlocal visits
            visits += 1
            row = self[pair] = {}
            return row

    monkeypatch.setattr(core, "defaultdict", lambda factory: Residuals())
    for m in (48, 96, 192):
        alg, levi = simple_sl2_leibniz(m)
        entries = len(alg.table_items())
        start = visits
        assert leibniz_check.__wrapped__(alg) == ()
        checked = visits - start
        assert 0 < checked <= 3 * entries
        identity = Matrix(alg.dim, alg.dim, {c: {c: F(1)} for c in levi.i_indices})
        start = visits
        assert next(core.identity_failures(alg, identity, left=True), None) is None
        assert 0 < visits - start <= entries


def test_verification_reads_follow_the_table(monkeypatch):
    # The work of each verification pass, counted deterministically: every
    # lookup in the exact or integer table, every entry met while walking a
    # list of the integer table's three indexes, and every product the
    # closure tests reduce.  On simple m = 48, 96 and 192 (150, 294 and 582
    # entries) the passes cost about 9, 4, 1 and 1 per entry at every size
    # (18 for leibniz_check when each visited pair looked its terms up
    # again).
    # Walking the whole column by_right[j] at each visited pair cost
    # leibniz_check 168, 312 and 600 per entry, multiplying every pair of the radical's
    # basis cost solvable_radical 48, 96 and 192, and testing every j in
    # range(n) cost squares_ideal 21, 37 and 69: each grows like dim.
    work = 0

    class Entries(list):  # one row or column of an index
        def __iter__(self):
            nonlocal work
            for entry in list.__iter__(self):
                work += 1
                yield entry

    class Table(dict):
        def get(self, key, default=None):
            nonlocal work
            work += 1
            return dict.get(self, key, default)

        def items(self):
            nonlocal work
            for item in dict.items(self):
                work += 1
                yield item

        def values(self):
            return (entries for _, entries in self.items())

        def __iter__(self):
            return (pair for pair, _ in self.items())

    index, reduce = core._index, Subspace.reduce

    def counted_index(table, n):
        return tuple({k: Entries(entries) for k, entries in by.items()}
                     for by in index(table, n))

    def counted_reduce(self, row):
        nonlocal work
        work += 1
        return reduce(self, row)

    monkeypatch.setattr(core, "_index", counted_index)
    monkeypatch.setattr(Subspace, "reduce", counted_reduce)
    per_entry: dict[str, list[float]] = {}
    for m in (48, 96, 192):
        alg, levi = simple_sl2_leibniz(m)
        alg._table, alg._ints = Table(alg._table), Table(alg._ints)
        entries = len(alg.table_items())
        triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
        for name, stage in (
                ("leibniz_check", lambda: leibniz_check(alg)),
                ("squares_ideal", lambda: squares_ideal(alg)),
                ("solvable_radical", lambda: solvable_radical(alg)),
                ("weight_decomposition",
                 lambda: weight_decomposition(alg, squares_ideal(alg), triple))):
            start = work
            stage()
            per_entry.setdefault(name, []).append((work - start) / entries)
    for name, costs in per_entry.items():
        assert 0 < max(costs) <= 25, (name, costs)
        assert costs[-1] <= 1.1 * costs[0], (name, costs)


# ------------------------------------------------------------------ ideals

def test_squares_ideal_of_catalog():
    alg, _ = simple_sl2_leibniz(3)
    sq = squares_ideal(alg)
    assert sq.dim == 4
    assert sq == Subspace.coordinate(alg.dim, range(3, 7))
    assert squares_ideal(sl2()[0]).dim == 0
    assert squares_ideal(two_dim_solvable()).dim == 1


def test_squares_ideal_left_annihilated():
    alg, _ = semisimple_pair(1)
    sq = squares_ideal(alg)
    for v in dense_basis(sq).data:
        for j in range(alg.dim):
            assert alg.product(alg.basis_vector(j), v) == (F(0),) * alg.dim


def test_derived_series_two_dim_solvable():
    alg = two_dim_solvable()
    series = derived_series(alg)
    assert [s.dim for s in series] == [2, 1, 0]
    assert derived_series(sl2()[0])[-1].dim == 3


def test_derived_subalgebra_simple_is_whole():
    alg, _ = simple_sl2_leibniz(2)
    assert derived_subalgebra(alg).dim == alg.dim


def test_derived_subalgebra_matches_every_basis_pair_product():
    # seeded random sparse tables, dims 0-6, Leibniz or not: the derived
    # subalgebra of the whole algebra is the span of all n^2 products
    # [e_i, e_j]
    rng = random.Random(2207)
    for _ in range(60):
        n = rng.randint(0, 6)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        table = {pair: [(rng.randrange(n), F(rng.randint(-2, 2), rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 3))]
                 for pair in rng.sample(pairs, rng.randint(0, len(pairs)))}
        alg = Algebra(n, table)
        products = [alg.product(alg.basis_vector(i), alg.basis_vector(j))
                    for i, j in pairs]
        assert derived_subalgebra(alg) == Subspace.from_vectors(n, products)


def test_derived_subalgebra_of_a_non_ideal():
    # span(e, f) in sl2 is not an ideal; its products [e, f] = h and
    # [f, e] = -h span the line of h
    alg, _ = sl2()
    sub = Subspace.coordinate(3, (0, 1))
    with pytest.raises(StructureError):
        quotient_algebra(alg, sub)
    assert derived_subalgebra(alg, sub) == Subspace.coordinate(3, (2,))


# ---------------------------------------------------------------- quotient

def test_quotient_of_simple_is_sl2_table():
    alg, _ = simple_sl2_leibniz(2)
    quo = quotient_algebra(alg, squares_ideal(alg))
    ref, _ = sl2()
    assert quo.algebra.basis_names == ("e", "f", "h")
    assert quo.algebra.table_items() == ref.table_items()
    assert quo.algebra.is_lie()


def test_quotient_rejects_non_ideal():
    alg, _ = simple_sl2_leibniz(2)
    not_ideal = Subspace.from_vectors(alg.dim, [alg.basis_vector(0)])
    with pytest.raises(StructureError):
        quotient_algebra(alg, not_ideal)


@pytest.mark.parametrize("seed, closure", [(0, (0, 2)), (1, (1, 2))])
def test_ideal_checks_test_both_sides(seed, closure):
    # only product [a, b] = c: span(a) is closed under left multiplication
    # alone ([a, b] leaves it), span(b) under right multiplication alone
    alg = Algebra(3, {(0, 1): [(2, 1)]}, ("a", "b", "c"))
    assert leibniz_check(alg) == ()
    line = Subspace.coordinate(3, (seed,))
    with pytest.raises(StructureError, match="not a two-sided ideal"):
        quotient_algebra(alg, line)
    # the smallest ideal containing the line passes the same check
    quotient_algebra(alg, Subspace.coordinate(3, closure))


def test_quotient_by_squares_is_lie_for_catalog():
    for _, alg, _ in standard_catalog():
        quo = quotient_algebra(alg, squares_ideal(alg))
        assert quo.algebra.is_lie()


# ------------------------------------------------------------ Killing form

def test_killing_form_sl2_values():
    alg, _ = sl2()
    k = killing_form(alg)
    e, f, h = range(3)
    assert k.data[e][f] == F(-4)
    assert k.data[f][e] == F(-4)
    assert k.data[h][h] == F(8)
    assert k == Matrix.from_rows(
        [[0, -4, 0], [-4, 0, 0], [0, 0, 8]])


def squares_quotient_of(maker):
    alg, _ = maker()
    return quotient_algebra(alg, squares_ideal(alg)).algebra


KILLING_INPUTS = {
    "sl2": lambda: sl2()[0],
    "sl2_sum_sl2": lambda: direct_sum_many([(sl2()[0], None)] * 2)[0],
    "pair_m2_quotient": lambda: squares_quotient_of(lambda: semisimple_pair(2)),
    "direct_sum_m2_quotient": lambda: squares_quotient_of(
        lambda: direct_sum_sample(2)),
}


@pytest.mark.parametrize("label", sorted(KILLING_INPUTS))
def test_killing_form_matches_direct_trace(label):
    # independent oracle: trace of composed dense right multiplications
    alg = KILLING_INPUTS[label]()
    n = alg.dim
    k = killing_form(alg)
    for i in range(n):
        mi = alg.right_mult(alg.basis_vector(i))
        for j in range(n):
            composed = mi.mul(alg.right_mult(alg.basis_vector(j)))
            trace = sum((composed.data[t][t] for t in range(n)), F(0))
            assert k.data[i][j] == trace


def test_killing_form_requires_lie():
    with pytest.raises(StructureError):
        killing_form(two_dim_solvable())


# ---------------------------------------------------------------- radicals

def test_radical_dims():
    assert solvable_radical(sl2()[0]).dim == 0
    assert solvable_radical(two_dim_solvable()).dim == 2
    for m in (2, 3):
        alg, _ = simple_sl2_leibniz(m)
        assert solvable_radical(alg) == squares_ideal(alg)
    for m in (1, 2):
        alg, _ = semisimple_pair(m)
        assert solvable_radical(alg) == squares_ideal(alg)


def test_radical_is_solvable_and_contains_squares():
    for _, alg, _ in standard_catalog():
        rad = solvable_radical(alg)
        assert derived_series(alg, rad)[-1].dim == 0
        assert rad.contains_subspace(squares_ideal(alg))


def test_semisimple_verdicts():
    assert is_semisimple(sl2()[0])
    assert not is_semisimple(two_dim_solvable())
    assert is_semisimple(semisimple_pair(1)[0])
    assert is_semisimple(direct_sum_sample(2)[0])


def test_radical_of_mixed_sum():
    total, _ = direct_sum_many(
        [(simple_sl2_leibniz(2)[0], None), (two_dim_solvable(), None)])
    rad = solvable_radical(total)
    sq = squares_ideal(total)
    assert sq.dim == 4
    assert rad.dim == 5  # the squares plus the solvable summand's complement
    assert rad.contains_subspace(sq)
    assert not is_semisimple(total)


def test_squares_ideal_closure_runs_once_per_algebra(monkeypatch):
    # validate_levi, the radical, the simplicity verdict and the pair report
    # all need the squares ideal or its quotient; the closure test that
    # verifies that ideal runs once, inside squares_ideal
    seen = []
    original = core._basis_products

    def counting(alg, sub):
        seen.append(alg)
        return original(alg, sub)

    monkeypatch.setattr(core, "_basis_products", counting)
    alg, levi = semisimple_pair(2)
    validate_levi(alg, levi)
    solvable_radical(alg)
    is_simple_certified(alg, levi)
    pair_structure_report(alg, levi)
    assert sum(1 for a in seen if a is alg) == 1


def test_derived_data_is_freed_with_its_algebra():
    name = "freed_with_its_algebra"

    def analyse():
        alg, levi = semisimple_pair(1)
        alg = alg.rename(name)
        split_all(alg, levi)
        solvable_radical(alg)

    analyse()
    gc.collect()
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, Algebra) and obj.name == name]


# ---------------------------------------------------------------- centroid

def test_centroid_dims():
    assert len(centroid(sl2()[0])) == 1
    two, _ = direct_sum_many([(sl2()[0], None)] * 2)
    assert len(centroid(two)) == 2
    abelian = Algebra(3, {})
    assert len(centroid(abelian)) == 9


def test_centroid_elements_commute_with_multiplications():
    alg, _ = semisimple_pair(1)
    for c in centroid(alg):
        for i in range(alg.dim):
            for j in range(alg.dim):
                ei, ej = alg.basis_vector(i), alg.basis_vector(j)
                image = c.apply(alg.product(ei, ej))
                assert image == alg.product(c.apply(ei), ej)
                assert image == alg.product(ei, c.apply(ej))


def test_centroid_matches_dense_oracle():
    import sympy

    alg, _ = sl2()
    n = alg.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row1 = [0] * (n * n)
                row2 = [0] * (n * n)
                for l, coeff in alg.c(i, j):
                    row1[k * n + l] += coeff
                    row2[k * n + l] += coeff
                for l in range(n):
                    for kk, coeff in alg.c(l, j):
                        if kk == k:
                            row1[l * n + i] -= coeff
                    for kk, coeff in alg.c(i, l):
                        if kk == k:
                            row2[l * n + j] -= coeff
                rows.extend([row1, row2])
    null = sympy.Matrix(rows).nullspace()
    assert len(null) == len(centroid(alg)) == 1


# ----------------------------------------------------------- simple parts

def test_simple_summands_counts():
    one = simple_summands(sl2()[0])
    assert one.determined and len(one.summands) == 1
    two_alg, _ = direct_sum_many([(sl2()[0], None)] * 2)
    two = simple_summands(two_alg)
    assert two.determined and sorted(s.dim for s in two.summands) == [3, 3]
    three_alg, _ = direct_sum_many([(sl2()[0], None)] * 3)
    three = simple_summands(three_alg)
    assert three.determined and len(three.summands) == 3


def test_simple_summands_are_ideals_and_split():
    alg, _ = direct_sum_many([(sl2()[0], None)] * 2)
    split = simple_summands(alg)
    total = Subspace.zero(alg.dim)
    for s in split.summands:
        total = total.sum(s)
        for v in dense_basis(s).data:
            for j in range(alg.dim):
                assert s.contains(alg.product(v, alg.basis_vector(j)))
    assert total == Subspace.full(alg.dim)
    a, b = split.summands
    assert a.sum(b).dim == a.dim + b.dim


def test_simple_summands_requires_zero_radical():
    with pytest.raises(StructureError):
        simple_summands(two_dim_solvable())


def sweep_split(alg):
    """The centroid eigenspace sweep of simple_summands, run whatever the
    centroid's dimension, over a fixed 20 candidates: at least the bound
    1 + (k-1)·k(k-1)/2 of simple_summands for every k <= 4."""
    n, cents = alg.dim, centroid(alg)
    for t in range(1, 21):
        combo = Matrix.combination(n, n, ((F(t) ** p, c) for p, c in enumerate(cents)))
        dec = rational_eigen(combo)
        spaces = tuple(space for _, space in dec.pairs)
        if (dec.complete and len(spaces) == len(cents)
                and all(core._is_ideal(alg, s) for s in spaces)):
            return SummandSplit(spaces, True)
    return SummandSplit((), False)


def test_simple_summands_match_the_sweep_on_catalog_quotients():
    cases = [(name, core.squares_quotient(alg).algebra)
             for name, alg, _ in standard_catalog()]
    cases += [(f"sl2^{k}", direct_sum_many([sl2()] * k)[0]) for k in (1, 2, 3)]
    checked = set()
    for name, quo in cases:
        if solvable_radical(quo).dim == 0:
            assert simple_summands(quo) == sweep_split(quo), name
            checked.add(len(centroid(quo)))
    assert checked == {1, 2, 3}


def test_simple_summands_skip_the_eigenspaces_of_a_one_dimensional_centroid(
        monkeypatch):
    # a radical-free Lie algebra whose centroid is Q·id is simple: the
    # verdict on simple m = 16 takes no eigen decomposition (one at the
    # centroid sweep)
    calls = []
    original = eigen.rational_eigen

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(eigen, "rational_eigen", counted)
    cert = is_simple_certified(*simple_sl2_leibniz(16))
    assert cert.verdict == "yes"
    assert calls == []
    assert simple_summands(sl2()[0]) == SummandSplit((Subspace.full(3),), True)
    assert calls == []


def test_a_centroid_that_does_not_split_ends_the_sweep(monkeypatch):
    # sl2 over Q(√2), written over Q on e, f, h, √2e, √2f, √2h: simple over
    # Q with centroid Q(√2), dimension 2.  No centroid element has two
    # rational eigenspaces, so the first incomplete decomposition ends the
    # sweep (the fixed sweep of 20 candidates took 20)
    products = {}
    for (i, j), entries in core.SL2_TABLE.items():
        products[(i, j)] = [(k, c) for k, c in entries]
        products[(i, j + 3)] = products[(i + 3, j)] = [(k + 3, c) for k, c in entries]
        products[(i + 3, j + 3)] = [(k, 2 * c) for k, c in entries]
    alg = Algebra(6, products)
    assert alg.is_lie() and solvable_radical(alg).dim == 0
    assert len(centroid(alg)) == 2
    calls = []
    original = eigen.rational_eigen

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(eigen, "rational_eigen", counted)
    assert simple_summands(alg) == SummandSplit((), False)
    assert len(calls) == 1


# ------------------------------------------------------------- simplicity

def test_simple_certified_yes_for_simple_family():
    for m in (2, 3):
        alg, levi = simple_sl2_leibniz(m)
        cert = is_simple_certified(alg, levi)
        assert cert.verdict == "yes"


def test_simple_certified_yes_for_sl2():
    alg, levi = sl2()
    cert = is_simple_certified(alg, levi)
    assert (cert.verdict, cert.witness) == ("yes", None)


def test_simple_certified_no_for_pair_with_witness():
    alg, levi = semisimple_pair(1)
    cert = is_simple_certified(alg, levi)
    assert cert.verdict == "no"
    w = cert.witness
    assert w is not None
    sq = squares_ideal(alg)
    assert 0 < w.dim < alg.dim
    assert w != sq
    quotient_algebra(alg, w)  # oracle: raises unless w is a two-sided ideal


def test_simple_certified_no_for_direct_sum_with_witness():
    alg, levi = direct_sum_sample(2)
    cert = is_simple_certified(alg, levi)
    assert cert.verdict == "no"
    w = cert.witness
    assert w is not None and 0 < w.dim < alg.dim
    quotient_algebra(alg, w)
    assert w != squares_ideal(alg)


def test_simple_certified_no_for_solvable_lie():
    # one-dimensional Lie algebra: abelian, radical is everything
    alg = Algebra(1, {}, ("z",), name="line")
    levi = LeviDatum((0,), ())
    cert = is_simple_certified(alg, levi)
    assert (cert.verdict, cert.witness) == ("no", None)


def test_simple_certified_no_for_sl2_sum_with_a_summand_witness():
    # a Lie input: the squares ideal is zero and the witness is the first
    # simple summand, a proper ideal
    alg, levi = direct_sum_many([sl2()] * 2)
    assert levi.i_indices == ()
    cert = is_simple_certified(alg, levi)
    assert cert.verdict == "no"
    assert cert.witness == Subspace.coordinate(6, range(3))
    assert quotient_algebra(alg, cert.witness).algebra.dim == 3


def test_simple_certified_no_for_nonabelian_solvable_lie():
    # [x, y] = y: the radical is everything, so the witness is the derived
    # subalgebra span(y)
    alg = Algebra(2, {(0, 1): [(1, F(1))], (1, 0): [(1, F(-1))]}, ("x", "y"),
                  name="affine_lie")
    assert alg.is_lie()
    cert = is_simple_certified(alg, LeviDatum((0, 1), ()))
    assert cert.verdict == "no"
    assert cert.witness == Subspace.coordinate(2, [1])


# the modules whose globals serve the internal calls of the identity check
# and of the radical, where the run-counting tests patch them
COUNTED_HOMES = {"leibniz_check": core, "solvable_radical": radical}


def test_simple_certified_on_a_lie_input_shares_its_radical(monkeypatch):
    # the squares quotient of a Lie algebra is the algebra itself, so the
    # summand split reads the radical the verdict already computed: one run
    # each of the identity check and the radical on 8 copies of sl2 (two
    # each while the quotient was a fresh copy)
    runs = {"leibniz_check": 0, "solvable_radical": 0}

    def counted(name):
        fn = getattr(COUNTED_HOMES[name], name).__wrapped__

        def run(alg):
            runs[name] += 1
            return fn(alg)
        return core.per_algebra(run)

    for name, home in COUNTED_HOMES.items():
        monkeypatch.setattr(home, name, counted(name))
    alg, levi = direct_sum_many([sl2()] * 8)
    cert = is_simple_certified(alg, levi)
    assert (cert.verdict, cert.witness) == ("no", Subspace.coordinate(24, range(3)))
    assert cert.detail == "quotient splits into multiple simple ideals"
    assert runs == {"leibniz_check": 1, "solvable_radical": 1}
    quo = core.squares_quotient(alg)
    assert quo.algebra is alg and quo.complement_cols == tuple(range(24))


YES_MODULE = ("radical-free quotient is one simple summand and the ideal of "
              "squares is an irreducible module over it")
SPLITS = "quotient splits into multiple simple ideals"


def verdict_cases():
    """Every catalog member with a split, then sl2 sums and two small Lie
    algebras, each with its (verdict, witness columns, detail); every
    witness here is a coordinate subspace."""
    pinned = {
        "sl2": ("yes", None, "simple as a Lie algebra"),
        "simple_m2": ("yes", None, YES_MODULE),
        "simple_m3": ("yes", None, YES_MODULE),
        "simple_m4": ("yes", None, YES_MODULE),
        "pair_m1": ("no", (0, 1, 2, 6, 7, 8, 9), SPLITS),
        "pair_m2": ("no", (0, 1, 2, 6, 7, 8, 9, 10, 11), SPLITS),
        "direct_sum_m2_m3": ("no", (0, 1, 2, 3, 4, 5, 9, 10, 11, 12), SPLITS),
    }
    for name, alg, levi in standard_catalog():
        if levi is not None:
            yield pytest.param(alg, levi, pinned.pop(name), id=name)
    assert not pinned
    for copies in (2, 3):
        yield pytest.param(*direct_sum_many([sl2()] * copies),
                           ("no", (0, 1, 2), SPLITS), id=f"sl2_x{copies}")
    affine = Algebra(2, {(0, 1): [(1, F(1))], (1, 0): [(1, F(-1))]}, ("x", "y"))
    yield pytest.param(affine, LeviDatum((0, 1), ()),
                       ("no", (1,), "solvable radical exceeds the ideal of squares"),
                       id="affine_lie")
    yield pytest.param(Algebra(1, {}, ("z",)), LeviDatum((0,), ()),
                       ("no", None, "derived subalgebra equals the ideal of squares"),
                       id="line")


@pytest.mark.parametrize("alg, levi, want", verdict_cases())
def test_simple_certified_pins_verdict_witness_and_detail(alg, levi, want):
    verdict, cols, detail = want
    cert = is_simple_certified(alg, levi)
    witness = None if cols is None else Subspace.coordinate(alg.dim, cols)
    assert (cert.verdict, cert.witness, cert.detail) == (verdict, witness, detail)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: simple_sl2_leibniz(4), id="simple_m4"),
    pytest.param(lambda: semisimple_pair(2), id="pair_m2"),
])
def test_simple_certified_proves_nothing_twice_after_the_radical(make, monkeypatch):
    # the radical has proved that the squares quotient is Lie and radical
    # free, so the verdict runs the identity check and the radical on no
    # other algebra, the quotient included
    seen = []

    def recorded(name):
        fn = getattr(COUNTED_HOMES[name], name).__wrapped__

        def run(a):
            seen.append((name, a))
            return fn(a)
        return core.per_algebra(run)

    for name, home in COUNTED_HOMES.items():
        monkeypatch.setattr(home, name, recorded(name))
    alg, levi = make()
    solvable_radical(alg)
    is_simple_certified(alg, levi)
    assert [name for name, a in seen if a is not alg] == []
    assert sorted(name for name, _ in seen) == ["leibniz_check", "solvable_radical"]


def test_simple_certified_no_when_derived_equals_squares():
    # [c, a] = c: solvable, non-nilpotent, and the derived subalgebra is
    # exactly the squares ideal
    alg = Algebra(2, {(1, 0): [(1, F(1))]}, ("a", "c"), name="affine_line")
    assert leibniz_check(alg) == ()
    levi = LeviDatum((0,), (1,))
    cert = is_simple_certified(alg, levi)
    assert cert.verdict == "no"
    assert "derived" in cert.detail


# -------------------------------------------------------------- levi datum

def test_validate_levi_accepts_catalog():
    for _, alg, levi in standard_catalog():
        if levi is not None:
            validate_levi(alg, levi)


@pytest.mark.parametrize("levi", [
    pytest.param(LeviDatum((0, 1), (2, 3, 4, 5)), id="g_too_small"),
    # the index sets still cover the basis, but one index is listed twice
    pytest.param(LeviDatum((0, 1, 2, 0), (3, 4, 5)), id="g_duplicate"),
    pytest.param(LeviDatum((0, 1, 2), (3, 4, 5, 5)), id="i_duplicate"),
])
def test_validate_levi_rejects_bad_partition(levi):
    alg, _ = simple_sl2_leibniz(2)
    with pytest.raises(LeviError):
        validate_levi(alg, levi)


def test_validate_levi_rejects_wrong_ideal_span():
    alg, _ = simple_sl2_leibniz(2)
    with pytest.raises(LeviError):
        validate_levi(alg, LeviDatum((0, 1, 3), (2, 4, 5)))


def test_validate_levi_rejects_bad_triple():
    alg, _ = simple_sl2_leibniz(2)
    with pytest.raises(LeviError):
        validate_levi(alg, LeviDatum((0, 1, 2), (3, 4, 5), ((0, 2, 1),)))


@pytest.mark.parametrize("triple", [
    (0, 1, 99), (0, 1, -1), (0, 1), (0, 1, 2, 2)])
def test_validate_levi_rejects_malformed_triple(triple):
    # an index out of range or the wrong count is a bad declaration, named
    # as such, not an IndexError or ValueError from building the triple,
    # whether the split is validated or read by the pair report
    message = re.escape(f"declared triple {triple} is not three basis indices")
    alg, _ = simple_sl2_leibniz(2)
    with pytest.raises(LeviError, match=message):
        validate_levi(alg, LeviDatum((0, 1, 2), (3, 4, 5), (triple,)))
    pair, levi = semisimple_pair(1)
    with pytest.raises(LeviError, match=message):
        pair_structure_report(
            pair, LeviDatum(levi.g_indices, levi.i_indices, (triple, (3, 4, 5))))


@pytest.mark.parametrize("entry", [
    pytest.param(validate_levi, id="validate_levi"),
    pytest.param(is_simple_certified, id="is_simple_certified"),
    pytest.param(split_all, id="split_all"),
    pytest.param(pair_structure_report, id="pair_structure_report"),
    pytest.param(lambda alg, levi: raising_map_report(
        alg, levi, Matrix(alg.dim, alg.dim, {})), id="raising_map_report"),
    pytest.param(lambda alg, levi: core.check_sl2_triple(
        alg, levi, Sl2Triple.from_indices(alg.dim, (0, 1, 2))), id="check_sl2_triple"),
])
def test_a_missing_levi_datum_is_a_named_error(entry):
    # direct_sum_many returns no datum when a part has none, so a library
    # caller can pass None on; each entry point names the gap
    total, levi = direct_sum_many([semisimple_pair(1), (two_dim_solvable(), None)])
    assert levi is None
    with pytest.raises(LeviError, match="no declared split"):
        entry(total, levi)


# -------------------------------------------------------------- direct sum

def test_direct_sum_block_structure():
    a, la = simple_sl2_leibniz(2)
    b, lb = simple_sl2_leibniz(3)
    total, levi = direct_sum_many([(a, la), (b, lb)])
    assert total.dim == 13
    assert leibniz_check(total) == ()
    assert squares_ideal(total).dim == 7
    assert levi is not None
    validate_levi(total, levi)
    # cross products vanish
    for i in range(a.dim):
        for j in range(b.dim):
            assert total.c(i, a.dim + j) == ()
            assert total.c(a.dim + j, i) == ()
    # names carry summand suffixes
    assert total.basis_names[0] == "e_1"
    assert total.basis_names[a.dim] == "e_2"


def test_direct_sum_levi_none_when_missing():
    total, levi = direct_sum_many(
        [(sl2()[0], sl2()[1]), (two_dim_solvable(), None)])
    assert levi is None
    assert total.dim == 5


# ------------------------------------------------------------- file format

def test_json_round_trip_is_byte_identical():
    for _, alg, levi in standard_catalog():
        text = dump_algebra_json(alg, levi)
        alg2, levi2 = load_algebra_json(text)
        assert alg2 == alg
        assert levi2 == levi
        assert dump_algebra_json(alg2, levi2) == text


def test_json_rejects_duplicate_result_index():
    doc = {"name": "x", "dim": 2, "basis": ["a", "b"],
           "products": [{"left": 0, "right": 0,
                         "result": [{"k": 1, "c": "1"}, {"k": 1, "c": "2"}]}]}
    with pytest.raises(SchemaError):
        algebra_from_json_dict(doc)


def test_json_rejects_duplicate_product_pair():
    doc = {"name": "x", "dim": 2, "basis": ["a", "b"],
           "products": [
               {"left": 0, "right": 0, "result": [{"k": 1, "c": "1"}]},
               {"left": 0, "right": 0, "result": [{"k": 1, "c": "1"}]}]}
    with pytest.raises(SchemaError):
        algebra_from_json_dict(doc)


def test_json_rejects_unknown_keys_and_bad_values():
    base = {"name": "x", "dim": 1, "basis": ["a"], "products": []}
    with pytest.raises(SchemaError):
        algebra_from_json_dict({**base, "extra": 1})
    with pytest.raises(SchemaError):
        algebra_from_json_dict({**base, "dim": True})
    with pytest.raises(SchemaError):
        algebra_from_json_dict({**base, "basis": ["a", "b"]})
    with pytest.raises(SchemaError):
        algebra_from_json_dict({**base, "products": [
            {"left": 0, "right": 0, "result": [{"k": 0, "c": "1/0"}]}]})
    with pytest.raises(SchemaError):
        algebra_from_json_dict({**base, "products": [
            {"left": 0, "right": 0, "result": [{"k": 0, "c": "x"}]}]})
    with pytest.raises(SchemaError):
        algebra_from_json_dict("not a dict")


ALGEBRA_SCHEMA = json.loads(
    (resources.files("leibnizalg") / "schemas" / "algebra.schema.json").read_text())


@pytest.mark.parametrize("coeff, schema_ok, loads", [
    ("0.5", False, False),
    ("1e3", False, False),
    (" 2", False, False),
    ("+1", False, False),
    ("1_0", False, False),
    ("2/4", True, True),
    ("-3/5", True, True),
    ("7", True, True),
    ("1/0", True, False),  # matches the pattern, but the denominator is zero
])
def test_json_coefficients_follow_the_schema(coeff, schema_ok, loads):
    doc = {"name": "x", "dim": 1, "basis": ["a"], "products": [
        {"left": 0, "right": 0, "result": [{"k": 0, "c": coeff}]}]}
    assert jsonschema.Draft202012Validator(ALGEBRA_SCHEMA).is_valid(doc) == schema_ok
    if loads:
        alg, _ = load_algebra_json(json.dumps(doc))
        assert alg.product(alg.basis_vector(0), alg.basis_vector(0)) == (F(coeff),)
    else:
        with pytest.raises(SchemaError):
            load_algebra_json(json.dumps(doc))


def test_json_levi_block_round_trip():
    alg, levi = semisimple_pair(1)
    text = dump_algebra_json(alg, levi)
    _, levi2 = load_algebra_json(text)
    assert levi2 == levi


def test_json_missing_levi_loads_none():
    text = dump_algebra_json(two_dim_solvable())
    _, levi = load_algebra_json(text)
    assert levi is None
