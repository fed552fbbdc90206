"""Module structure over sl2 triples: weights, highest-weight spins,
irreducible decompositions, and the paired-column report."""

import random
from fractions import Fraction as F

import pytest

from leibnizalg import (
    Algebra,
    LeviDatum,
    ModuleError,
    Sl2Triple,
    Subspace,
    check_sl2_triple,
    highest_weight_vectors,
    irreducible_decomposition_sl2,
    is_simple_certified,
    leibniz_check,
    pair_structure_report,
    squares_ideal,
    weight_decomposition,
)
from leibnizalg import sl2 as sl2_module
from leibnizalg.catalog import (
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
)
from leibnizalg.cli import PASS, main as cli_main
from reference import dense_basis


def triple_of(alg, levi, which=0):
    return Sl2Triple.from_indices(alg.dim, levi.sl2_triples[which])


# ------------------------------------------------------------ triple check

def test_catalog_triples_pass():
    alg, levi = sl2()
    assert check_sl2_triple(alg, levi, triple_of(alg, levi)) == ()
    palg, plevi = semisimple_pair(2)
    assert check_sl2_triple(palg, plevi, triple_of(palg, plevi, 0)) == ()
    assert check_sl2_triple(palg, plevi, triple_of(palg, plevi, 1)) == ()


def test_scaled_h_fails():
    alg, levi = sl2()
    t = triple_of(alg, levi)
    scaled = Sl2Triple(t.e, t.f, tuple(2 * c for c in t.h))
    # doubling h breaks every relation; the labels come in table order
    assert check_sl2_triple(alg, levi, scaled) == (
        "relation [e,h] = 2e fails",
        "relation [h,e] = -2e fails",
        "relation [h,f] = 2f fails",
        "relation [f,h] = -2f fails",
        "relation [e,f] = h fails",
        "relation [f,e] = -h fails",
    )


def test_support_outside_semisimple_part_flagged():
    alg, levi = simple_sl2_leibniz(2)
    t = Sl2Triple.from_indices(alg.dim, (0, 1, 2))
    shifted = Sl2Triple(
        tuple(a + b for a, b in zip(t.e, (F(0),) * 3 + (F(1),) + (F(0),) * 2)),
        t.f, t.h)
    bad = check_sl2_triple(alg, levi, shifted)
    assert any("support" in msg for msg in bad)


# ---------------------------------------------------------------- weights

def test_weights_of_simple_family():
    alg, levi = simple_sl2_leibniz(2)
    ws = weight_decomposition(alg, squares_ideal(alg), triple_of(alg, levi))
    assert ws.complete
    assert ws.weights() == (F(-2), F(0), F(2))
    assert all(space.dim == 1 for _, space in ws.pairs)


def test_weights_of_pair_second_triple():
    alg, levi = semisimple_pair(1)
    ws = weight_decomposition(
        alg, squares_ideal(alg), triple_of(alg, levi, 1))
    assert ws.complete
    assert ws.weights() == (F(-1), F(1))
    assert all(space.dim == 2 for _, space in ws.pairs)


def test_weights_of_zero_module():
    alg, levi = sl2()
    ws = weight_decomposition(alg, squares_ideal(alg), triple_of(alg, levi))
    assert ws.pairs == () and ws.complete


def test_non_invariant_subspace_raises():
    alg, levi = sl2()
    span_ef = Subspace.from_vectors(
        3, [tuple(a + b for a, b in zip(alg.basis_vector(0),
                                        alg.basis_vector(1)))])
    with pytest.raises(ModuleError):
        weight_decomposition(alg, span_ef, triple_of(alg, levi))


def test_irrational_weights_reported_incomplete():
    # the h-action rotates the plane: eigenvalues are imaginary
    rot = Algebra(3, {(1, 0): [(2, F(1))], (2, 0): [(1, F(-1))]},
                  ("t", "u", "v"))
    plane = Subspace.coordinate(3, (1, 2))
    fake = Sl2Triple.from_indices(3, (1, 2, 0))
    ws = weight_decomposition(rot, plane, fake)
    assert not ws.complete
    with pytest.raises(ModuleError):
        highest_weight_vectors(rot, plane, fake)


# ---------------------------------------------------- highest weight spins

def test_single_highest_weight_line():
    for m in (2, 3):
        alg, levi = simple_sl2_leibniz(m)
        hws = highest_weight_vectors(
            alg, squares_ideal(alg), triple_of(alg, levi))
        assert len(hws) == 1
        assert hws[0].weight == F(m)
        assert hws[0].vector == alg.basis_vector(3)  # the top of the column


def test_two_copies_give_two_lines():
    # one sl2 acting identically on two columns: 3 + 2*(2+1) dimensions
    m = 2
    base, _ = simple_sl2_leibniz(m)
    products = {}
    for (i, j), entries in base.table_items():
        products[(i, j)] = list(entries)
        if i >= 3 and j < 3:  # replicate the module rows for the second copy
            products[(i + m + 1, j)] = [(k + m + 1, c) for k, c in entries]
    names = base.basis_names + tuple(f"y{k}" for k in range(m + 1))
    doubled = Algebra(base.dim + m + 1, products, names)
    from leibnizalg import leibniz_check
    assert leibniz_check(doubled) == ()
    sq = squares_ideal(doubled)
    assert sq.dim == 2 * (m + 1)
    t = Sl2Triple.from_indices(doubled.dim, (0, 1, 2))
    hws = highest_weight_vectors(doubled, sq, t)
    assert len(hws) == 2
    assert {hw.weight for hw in hws} == {F(m)}
    dec = irreducible_decomposition_sl2(doubled, sq, t)
    assert [c.dim for c in dec.components] == [m + 1, m + 1]


@pytest.mark.parametrize("ambient", [5, 7])
@pytest.mark.parametrize("entry", [highest_weight_vectors, weight_decomposition,
                                   irreducible_decomposition_sl2])
def test_a_subspace_of_another_space_is_rejected(entry, ambient):
    # the whole of Q^7 once read as "not completely reducible over Q"
    alg, levi = simple_sl2_leibniz(2)
    t = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    with pytest.raises(ValueError, match="subspace ambient dimension mismatch"):
        entry(alg, Subspace.full(ambient), t)


def test_e_non_invariant_subspace_raises():
    # span(f) is h-invariant, but [f, e] = -h leaves it: it is no sum of
    # lowering chains, so its weights are incomplete and none are listed
    alg, levi = sl2()
    span_f = Subspace.coordinate(3, (1,))
    t = triple_of(alg, levi)
    ws = weight_decomposition(alg, span_f, t)
    assert not ws.complete and ws.pairs == ()
    with pytest.raises(ModuleError, match="not invariant"):
        highest_weight_vectors(alg, span_f, t)


def test_chain_vector_of_the_wrong_weight_reported_incomplete():
    # the chain u, u·f = v fills span(u, v) and u has weight 1, but v has
    # weight 5 where an sl2-module puts -1: the chain is no weight basis
    E, F_, H, U, V = range(5)
    alg = Algebra(5, {(V, E): [(U, 1)], (U, F_): [(V, 1)],
                      (U, H): [(U, 1)], (V, H): [(V, 5)]})
    t = Sl2Triple.from_indices(5, (E, F_, H))
    sub = Subspace.coordinate(5, (U, V))
    assert irreducible_decomposition_sl2(alg, sub, t).highest_weights == (1,)
    ws = weight_decomposition(alg, sub, t)
    assert not ws.complete and ws.pairs == ()


def test_zero_module_no_lines():
    alg, levi = sl2()
    assert highest_weight_vectors(
        alg, squares_ideal(alg), triple_of(alg, levi)) == ()


# ----------------------------------------------------------- decomposition

def test_simple_family_single_component():
    for m in (2, 4):
        alg, levi = simple_sl2_leibniz(m)
        dec = irreducible_decomposition_sl2(
            alg, squares_ideal(alg), triple_of(alg, levi))
        assert len(dec.components) == 1
        assert dec.components[0].dim == m + 1
        assert dec.highest_weights == (m,)
        assert dec.components[0] == squares_ideal(alg)


def test_pair_components_under_both_triples():
    for m in (1, 2, 3):
        alg, levi = semisimple_pair(m)
        sq = squares_ideal(alg)
        dec1 = irreducible_decomposition_sl2(alg, sq, triple_of(alg, levi, 0))
        assert [c.dim for c in dec1.components] == [m + 1, m + 1]
        dec2 = irreducible_decomposition_sl2(alg, sq, triple_of(alg, levi, 1))
        assert [c.dim for c in dec2.components] == [2] * (m + 1)
        assert dec2.highest_weights == (1,) * (m + 1)


def test_components_are_action_invariant():
    alg, levi = semisimple_pair(2)
    sq = squares_ideal(alg)
    t = triple_of(alg, levi, 0)
    dec = irreducible_decomposition_sl2(alg, sq, t)
    for comp in dec.components:
        for v in dense_basis(comp).data:
            for g in (t.e, t.f, t.h):
                assert comp.contains(alg.product(v, g))


def test_component_weight_symmetry():
    alg, levi = simple_sl2_leibniz(3)
    sq = squares_ideal(alg)
    t = triple_of(alg, levi)
    dec = irreducible_decomposition_sl2(alg, sq, t)
    comp = dec.components[0]
    ws = weight_decomposition(alg, comp, t)
    w = dec.highest_weights[0]
    assert ws.weights() == tuple(F(k) for k in range(-w, w + 1, 2))


def test_climb_back_coefficients():
    # raising the k-th chain vector returns -k(w+1-k) times the previous one
    alg, levi = simple_sl2_leibniz(3)
    t = triple_of(alg, levi)
    hw = highest_weight_vectors(alg, squares_ideal(alg), t)[0]
    w = int(hw.weight)
    chain = [hw.vector]
    for _ in range(w):
        chain.append(alg.product(chain[-1], t.f))
    for k in range(1, w + 1):
        expected = tuple(F(-k * (w + 1 - k)) * c for c in chain[k - 1])
        assert alg.product(chain[k], t.e) == expected


def test_components_sorted_deterministically():
    alg, levi = direct_sum_sample(2)
    sq = squares_ideal(alg)
    dec = irreducible_decomposition_sl2(alg, sq, triple_of(alg, levi, 0))
    # first triple acts irreducibly on its own column and trivially on the
    # other summand's: highest weights descend
    assert dec.highest_weights == (2, 0, 0, 0, 0)
    leads = [min(i for i, x in enumerate(dense_basis(c).data[0]) if x != 0)
             for c in dec.components[1:]]
    assert leads == sorted(leads)


def test_decomposition_sums_to_subspace():
    alg, levi = semisimple_pair(2)
    sq = squares_ideal(alg)
    dec = irreducible_decomposition_sl2(alg, sq, triple_of(alg, levi, 1))
    total = Subspace.zero(alg.dim)
    for comp in dec.components:
        assert total.sum(comp).dim == total.dim + comp.dim
        total = total.sum(comp)
    assert total == sq


T, U, V = 0, 1, 2


@pytest.mark.parametrize("products, e, f, h, match", [
    pytest.param({(U, T): [(U, F(1, 2))]}, None, None, T,
                 "in ker e, weight 0 has dimension 1 but lowering chains of "
                 "length 1 need dimension 2",
                 id="weight_one_half"),
    pytest.param({(U, T): [(U, 1)]}, None, None, T,
                 "in ker e, weight 0 has dimension 1 but lowering chains of "
                 "length 1 need dimension 2",
                 id="short_chain"),
    pytest.param({(U, T): [(V, 1)]}, None, T, None,
                 "in ker e, weight 1 has dimension 0 but lowering chains of "
                 "length 2 need dimension 1",
                 id="long_chain"),
    pytest.param({(U, T): [(U, 1)]}, None, T, None,
                 "lowering chain exceeds the dimension allowed by its weight: "
                 "f\\^2 is not zero on a 2-dimensional subspace",
                 id="non_nilpotent_f"),
    pytest.param({(V, T): [(U, 1)]}, T, None, None,
                 "highest-weight chains do not fill the subspace",
                 id="chains_do_not_fill"),
])
def test_decomposition_error_paths(products, e, f, h, match):
    # tables on (t, u, v) acting on span(u, v), with t or zero as e, f, h;
    # in non_nilpotent_f u·f = u, so u's f-string never ends and stops at
    # the cap.  No table reaches a short or a dependent chain: a vector u
    # of weight w from highest_weight_vectors has u·f^w != 0 = u·f^(w+1),
    # and such a chain u, u·f, ..., u·f^w is linearly independent
    alg = Algebra(3, products, ("t", "u", "v"))

    def vec(i):
        return (F(0),) * 3 if i is None else alg.basis_vector(i)

    t = Sl2Triple(vec(e), vec(f), vec(h))
    with pytest.raises(ModuleError, match=match):
        irreducible_decomposition_sl2(alg, Subspace.coordinate(3, (U, V)), t)


def sweep_subspaces(n, rng):
    """Seeded coordinate subspaces and spans of small random vectors."""
    yield Subspace.full(n)
    for _ in range(12):
        yield Subspace.coordinate(n, rng.sample(range(n), rng.randint(1, n)))
    for _ in range(12):
        yield Subspace.from_vectors(n, [
            tuple(F(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 3))])


WITH_TRIPLES = [entry for entry in standard_catalog() if entry[2] is not None]


@pytest.mark.parametrize("name, alg, levi", WITH_TRIPLES,
                         ids=[entry[0] for entry in WITH_TRIPLES])
def test_decomposition_certified_or_refused(name, alg, levi):
    rng = random.Random(sum(map(ord, name)))
    successes = 0
    for which in range(len(levi.sl2_triples)):
        t = triple_of(alg, levi, which)
        for sub in [squares_ideal(alg), *sweep_subspaces(alg.dim, rng)]:
            try:
                dec = irreducible_decomposition_sl2(alg, sub, t)
            except ModuleError:
                continue
            successes += 1
            total = Subspace.zero(alg.dim)
            for comp, w in zip(dec.components, dec.highest_weights):
                assert comp.dim == w + 1
                for v in dense_basis(comp).data:
                    for g in (t.e, t.f, t.h):
                        assert comp.contains(alg.product(v, g))
                assert total.sum(comp).dim == total.dim + comp.dim
                total = total.sum(comp)
            assert total == sub
    assert successes >= len(levi.sl2_triples)  # the squares ideal at least


def count_highest_weight_runs(monkeypatch):
    """A list that gains one entry per run of highest_weight_vectors."""
    runs = []
    original = sl2_module.highest_weight_vectors

    def counting(alg, sub, t):
        runs.append(t)
        return original(alg, sub, t)

    monkeypatch.setattr(sl2_module, "highest_weight_vectors", counting)
    return runs


def test_modules_decomposes_each_pair_triple_once(monkeypatch, tmp_path, capsys):
    # the triple lines, the pair report's shape checks and nothing else
    # need the decompositions; each triple's is computed once
    path = tmp_path / "pair2.json"
    assert cli_main(["catalog", "pair", "--m", "2", "-o", str(path)]) == PASS
    runs = count_highest_weight_runs(monkeypatch)
    assert cli_main(["modules", str(path)]) == PASS
    assert "doublet_rows: pass" in capsys.readouterr().out
    assert len(runs) == 2


def test_simplicity_verdict_reads_the_decomposition(monkeypatch):
    runs = count_highest_weight_runs(monkeypatch)
    alg, levi = simple_sl2_leibniz(3)
    dec = irreducible_decomposition_sl2(
        alg, squares_ideal(alg), triple_of(alg, levi))
    assert is_simple_certified(alg, levi).verdict == "yes"
    assert irreducible_decomposition_sl2(
        alg, squares_ideal(alg), triple_of(alg, levi)) is dec
    assert len(runs) == 1


def test_failed_decomposition_raises_again(monkeypatch):
    runs = count_highest_weight_runs(monkeypatch)
    alg, _ = semisimple_pair(1)
    swapped = Sl2Triple.from_indices(alg.dim, (1, 0, 2))
    messages = []
    for _ in range(2):
        with pytest.raises(ModuleError) as err:
            irreducible_decomposition_sl2(alg, squares_ideal(alg), swapped)
        messages.append(str(err.value))
    assert messages == ["in ker e, weight 1 has dimension 0 but lowering "
                        "chains of length 2 need dimension 2; the action is "
                        "not semisimple over Q"] * 2
    assert len(runs) == 2


# ------------------------------------------------------------- pair report

def test_pair_report_passes_for_family():
    for m in (1, 2, 3):
        alg, levi = semisimple_pair(m)
        rep = pair_structure_report(alg, levi)
        assert rep.all_pass(), rep.lines()


def test_pair_report_needs_two_triples():
    alg, levi = simple_sl2_leibniz(2)
    with pytest.raises(ModuleError):
        pair_structure_report(alg, levi)


def test_pair_report_shape_failures_for_direct_sum():
    alg, levi = direct_sum_sample(2)
    rep = pair_structure_report(alg, levi)
    assert rep.quotient_pair.ok
    assert not rep.equal_columns.ok
    assert not rep.doublet_rows.ok
    assert not rep.all_pass()
    assert any("FAIL" in line for line in rep.lines())


def with_central_vector(alg):
    """alg plus one basis vector z that multiplies everything to zero."""
    return Algebra(alg.dim + 1, dict(alg.table_items()),
                   alg.basis_names + ("z",))


def sl3_with_two_triples():
    """sl3 on a basis holding two sl2 triples that do not commute.

    The matrix bracket XY - YX meets this package's sign convention on
    (e, -f, -h) for a standard triple (e, f, h), so the first six basis
    vectors are E12, -E21, E22 - E11, E23, -E32, E33 - E22; E13 and E31
    follow.  [E12, E23] = E13, so the two triples do not commute.
    """
    def unit(r, c, x=1):
        return {(r, c): F(x)}

    basis = [unit(0, 1), unit(1, 0, -1), {(1, 1): F(1), (0, 0): F(-1)},
             unit(1, 2), unit(2, 1, -1), {(2, 2): F(1), (1, 1): F(-1)},
             unit(0, 2), unit(2, 0)]

    def mul(x, y):
        out = {}
        for (r, k), a in x.items():
            for (k2, c), b in y.items():
                if k == k2:
                    out[(r, c)] = out.get((r, c), 0) + a * b
        return out

    def coords(m):
        # off-diagonal entries read off directly; the diagonal is
        # a (E22 - E11) + b (E33 - E22) with a = -m[0,0], b = m[2,2]
        signs = {(0, 1): (0, 1), (1, 0): (1, -1), (1, 2): (3, 1),
                 (2, 1): (4, -1), (0, 2): (6, 1), (2, 0): (7, 1)}
        out = [(k, s * m[rc]) for rc, (k, s) in signs.items() if m.get(rc)]
        return out + [(2, -m.get((0, 0), 0)), (5, m.get((2, 2), 0))]

    products = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            xy, yx = mul(x, y), mul(y, x)
            bracket = {rc: xy.get(rc, 0) - yx.get(rc, 0)
                       for rc in set(xy) | set(yx)}
            products[(i, j)] = coords(bracket)
    names = ("e1", "f1", "h1", "e2", "f2", "h2", "e13", "e31")
    return Algebra(8, products, names)


def pair_one():
    return semisimple_pair(1)


PAIR_REPORT_CASES = {
    "five_dim_semisimple_part": (
        pair_one, lambda alg, levi: LeviDatum(
            levi.g_indices[:5], levi.g_indices[5:] + levi.i_indices,
            levi.sl2_triples),
        ("quotient_pair: FAIL (semisimple part has dimension 5, not 6)",
         "equal_columns: pass (two irreducible components, each of "
         "dimension 2)",
         "doublet_rows: pass (2 two-dimensional irreducible components)")),
    "first_triple_invalid": (
        pair_one, lambda alg, levi: LeviDatum(
            levi.g_indices, levi.i_indices, ((0, 1, 5), (3, 4, 5))),
        ("quotient_pair: FAIL (first triple invalid: relation [e,h] = 2e "
         "fails)",
         "equal_columns: FAIL (decomposition failed: in ker e, weight 1 has "
         "dimension 1 but lowering chains of length 2 need dimension 2; the "
         "action is not semisimple over Q)",
         "doublet_rows: pass (2 two-dimensional irreducible components)")),
    "dependent_triples": (
        pair_one, lambda alg, levi: LeviDatum(
            levi.g_indices, levi.i_indices, ((0, 1, 2), (0, 1, 2))),
        # at m = 1 the first triple's two columns are doublets as well
        ("quotient_pair: FAIL (the two triples do not span independently)",
         "equal_columns: pass (two irreducible components, each of "
         "dimension 2)",
         "doublet_rows: pass (2 two-dimensional irreducible components)")),
    "extra_central_vector": (
        lambda: (with_central_vector(pair_one()[0]), pair_one()[1]),
        lambda alg, levi: levi,
        ("quotient_pair: FAIL (quotient dimension is 7, not 6)",
         "equal_columns: pass (two irreducible components, each of "
         "dimension 2)",
         "doublet_rows: pass (2 two-dimensional irreducible components)")),
    "swapped_e_and_f": (
        pair_one, lambda alg, levi: LeviDatum(
            levi.g_indices, levi.i_indices, ((1, 0, 2), (4, 3, 5))),
        ("quotient_pair: FAIL (first triple invalid: relation [e,h] = 2e "
         "fails)",
         "equal_columns: FAIL (decomposition failed: in ker e, weight 1 has "
         "dimension 0 but lowering chains of length 2 need dimension 2; the "
         "action is not semisimple over Q)",
         "doublet_rows: FAIL (decomposition failed: in ker e, weight 1 has "
         "dimension 0 but lowering chains of length 2 need dimension 2; the "
         "action is not semisimple over Q)")),
    "noncommuting_blocks": (
        lambda: (sl3_with_two_triples(), None),
        lambda alg, levi: LeviDatum(
            tuple(range(6)), (6, 7), ((0, 1, 2), (3, 4, 5))),
        ("quotient_pair: FAIL (the two sl2 blocks do not commute)",
         "equal_columns: FAIL (expected two components of equal dimension, "
         "found ())",
         "doublet_rows: FAIL (expected all components two-dimensional, "
         "found ())")),
}


@pytest.mark.parametrize("case", PAIR_REPORT_CASES)
def test_pair_report_messages(case):
    # hand-edited splits and tables reach each failure message of the
    # report; the report itself never validates the split
    make, edit, lines = PAIR_REPORT_CASES[case]
    alg, levi = make()
    assert pair_structure_report(alg, edit(alg, levi)).lines() == lines


def test_sl3_fixture_is_lie_with_valid_triples():
    alg = sl3_with_two_triples()
    levi = LeviDatum(tuple(range(6)), (6, 7), ((0, 1, 2), (3, 4, 5)))
    assert leibniz_check(alg) == ()
    assert alg.is_lie()
    for which in (0, 1):
        assert check_sl2_triple(alg, levi, triple_of(alg, levi, which)) == ()
