"""Algebra core: identities, ideals, quotients, radicals, simplicity."""

from fractions import Fraction as F

import pytest

from leibnizalg import (
    Algebra,
    InvalidAlgebraError,
    LeviDatum,
    LeviError,
    Matrix,
    SchemaError,
    StructureError,
    Subspace,
    algebra_from_json_dict,
    centroid,
    derived_series,
    derived_subalgebra,
    direct_sum,
    direct_sum_many,
    dump_algebra_json,
    ensure_leibniz,
    ideal_closure,
    is_semisimple,
    is_simple_certified,
    is_solvable,
    killing_form,
    leibniz_check,
    load_algebra_json,
    quotient_algebra,
    simple_summands,
    solvable_radical,
    squares_ideal,
    validate_levi,
)
from leibnizalg.catalog import (
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
    two_dim_solvable,
)


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


def test_right_and_left_mult_agree_with_product():
    alg, _ = simple_sl2_leibniz(2)
    z = tuple(F(k + 1, 3) for k in range(alg.dim))
    rm = alg.right_mult(z)
    lm = alg.left_mult(z)
    for i in range(alg.dim):
        ei = alg.basis_vector(i)
        assert rm.apply(ei) == alg.product(ei, z)
        assert lm.apply(ei) == alg.product(z, ei)


def test_is_lie():
    assert sl2()[0].is_lie()
    assert not two_dim_solvable().is_lie()


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
    for v in sq.basis.data:
        for j in range(alg.dim):
            assert alg.product(alg.basis_vector(j), v) == (F(0),) * alg.dim


def test_ideal_closure_grows_to_invariant():
    alg, _ = simple_sl2_leibniz(2)
    seed = Subspace.from_vectors(alg.dim, [alg.basis_vector(5)])  # lowest vector
    closed = ideal_closure(alg, seed)
    assert closed == squares_ideal(alg)
    assert ideal_closure(alg, closed) == closed


def test_derived_series_two_dim_solvable():
    alg = two_dim_solvable()
    series = derived_series(alg)
    assert [s.dim for s in series] == [2, 1, 0]
    assert is_solvable(alg)
    assert not is_solvable(sl2()[0])


def test_derived_subalgebra_simple_is_whole():
    alg, _ = simple_sl2_leibniz(2)
    assert derived_subalgebra(alg).dim == alg.dim


# ---------------------------------------------------------------- quotient

def test_quotient_of_simple_is_sl2_table():
    alg, _ = simple_sl2_leibniz(2)
    quo = quotient_algebra(alg, squares_ideal(alg))
    ref, _ = sl2()
    assert quo.algebra.basis_names == ("e", "f", "h")
    assert quo.algebra.table_items() == ref.table_items()
    assert quo.algebra.is_lie()


def test_quotient_project_lift_round_trip():
    alg, _ = simple_sl2_leibniz(2)
    quo = quotient_algebra(alg, squares_ideal(alg))
    w = (F(1), F(-2), F(1, 3))
    assert quo.project(quo.lift(w)) == w
    # projection kills the ideal
    assert quo.project(alg.basis_vector(4)) == (F(0),) * 3


def test_quotient_rejects_non_ideal():
    alg, _ = simple_sl2_leibniz(2)
    not_ideal = Subspace.from_vectors(alg.dim, [alg.basis_vector(0)])
    with pytest.raises(StructureError):
        quotient_algebra(alg, not_ideal)


def test_quotient_by_squares_is_lie_for_catalog():
    for _, alg, _ in standard_catalog():
        quo = quotient_algebra(alg, squares_ideal(alg))
        assert quo.algebra.is_lie()


# ------------------------------------------------------------ Killing form

def test_killing_form_sl2_values():
    alg, _ = sl2()
    k = killing_form(alg)
    e, f, h = (alg.basis_vector(i) for i in range(3))
    assert k.value(e, f) == F(-4)
    assert k.value(f, e) == F(-4)
    assert k.value(h, h) == F(8)
    assert k.gram == Matrix.from_rows(
        [[0, -4, 0], [-4, 0, 0], [0, 0, 8]])


def test_killing_form_matches_direct_trace():
    # independent oracle: trace of composed right multiplications
    alg, _ = sl2()
    k = killing_form(alg)
    for i in range(3):
        for j in range(3):
            mi = alg.right_mult(alg.basis_vector(i))
            mj = alg.right_mult(alg.basis_vector(j))
            composed = mi.mul(mj)
            trace = sum((composed.data[t][t] for t in range(3)), F(0))
            assert k.value(alg.basis_vector(i), alg.basis_vector(j)) == trace


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
    total, _ = direct_sum(simple_sl2_leibniz(2)[0], two_dim_solvable())
    rad = solvable_radical(total)
    sq = squares_ideal(total)
    assert sq.dim == 4
    assert rad.dim == 5  # the squares plus the solvable summand's complement
    assert rad.contains_subspace(sq)
    assert not is_semisimple(total)


# ---------------------------------------------------------------- centroid

def test_centroid_dims():
    assert len(centroid(sl2()[0])) == 1
    two, _ = direct_sum(sl2()[0], sl2()[0])
    assert len(centroid(two)) == 2
    abelian = Algebra(3, {})
    assert len(centroid(abelian)) == 9


def test_centroid_elements_commute_with_multiplications():
    alg, _ = semisimple_pair(1)
    for c in centroid(alg):
        for i in range(alg.dim):
            for j in range(alg.dim):
                ei, ej = alg.basis_vector(i), alg.basis_vector(j)
                image = c.apply(alg.bracket_basis(i, j))
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
    two_alg, _ = direct_sum(sl2()[0], sl2()[0])
    two = simple_summands(two_alg)
    assert two.determined and sorted(s.dim for s in two.summands) == [3, 3]
    three_alg, _ = direct_sum_many([(sl2()[0], None)] * 3)
    three = simple_summands(three_alg)
    assert three.determined and len(three.summands) == 3


def test_simple_summands_are_ideals_and_split():
    alg, _ = direct_sum(sl2()[0], sl2()[0])
    split = simple_summands(alg)
    total = Subspace.zero(alg.dim)
    for s in split.summands:
        total = total.sum(s)
        for v in s.basis.data:
            for j in range(alg.dim):
                assert s.contains(alg.product(v, alg.basis_vector(j)))
    assert total == Subspace.full(alg.dim)
    a, b = split.summands
    assert a.intersect(b).dim == 0


def test_simple_summands_requires_zero_radical():
    with pytest.raises(StructureError):
        simple_summands(two_dim_solvable())


# ------------------------------------------------------------- simplicity

def test_simple_certified_yes_for_simple_family():
    for m in (2, 3):
        alg, levi = simple_sl2_leibniz(m)
        cert = is_simple_certified(alg, levi)
        assert cert.verdict == "yes"


def test_simple_certified_yes_for_sl2():
    alg, levi = sl2()
    assert is_simple_certified(alg, levi).verdict == "yes"


def test_simple_certified_no_for_pair_with_witness():
    alg, levi = semisimple_pair(1)
    cert = is_simple_certified(alg, levi)
    assert cert.verdict == "no"
    w = cert.witness
    assert w is not None
    sq = squares_ideal(alg)
    assert 0 < w.dim < alg.dim
    assert w != sq
    assert ideal_closure(alg, w) == w  # oracle: the witness is its own closure


def test_simple_certified_no_for_direct_sum_with_witness():
    alg, levi = direct_sum_sample(2)
    cert = is_simple_certified(alg, levi)
    assert cert.verdict == "no"
    w = cert.witness
    assert w is not None and 0 < w.dim < alg.dim
    assert ideal_closure(alg, w) == w
    assert w != squares_ideal(alg)


def test_simple_certified_no_for_solvable_lie():
    # one-dimensional Lie algebra: abelian, radical is everything
    alg = Algebra(1, {}, ("z",), name="line")
    levi = LeviDatum((0,), ())
    cert = is_simple_certified(alg, levi)
    assert cert.verdict == "no"


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


def test_validate_levi_rejects_bad_partition():
    alg, _ = simple_sl2_leibniz(2)
    with pytest.raises(LeviError):
        validate_levi(alg, LeviDatum((0, 1), (2, 3, 4, 5)))


def test_validate_levi_rejects_wrong_ideal_span():
    alg, _ = simple_sl2_leibniz(2)
    with pytest.raises(LeviError):
        validate_levi(alg, LeviDatum((0, 1, 3), (2, 4, 5)))


def test_validate_levi_rejects_bad_triple():
    alg, _ = simple_sl2_leibniz(2)
    with pytest.raises(LeviError):
        validate_levi(alg, LeviDatum((0, 1, 2), (3, 4, 5), ((0, 2, 1),)))


# -------------------------------------------------------------- direct sum

def test_direct_sum_block_structure():
    a, la = simple_sl2_leibniz(2)
    b, lb = simple_sl2_leibniz(3)
    total, levi = direct_sum(a, b, la, lb)
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
    total, levi = direct_sum(sl2()[0], two_dim_solvable(), sl2()[1], None)
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


def test_json_levi_block_round_trip():
    alg, levi = semisimple_pair(1)
    text = dump_algebra_json(alg, levi)
    _, levi2 = load_algebra_json(text)
    assert levi2 == levi


def test_json_missing_levi_loads_none():
    text = dump_algebra_json(two_dim_solvable())
    _, levi = load_algebra_json(text)
    assert levi is None
