"""Acceptance battery.

One test per shipped claim, every comparison exact.  Each test prints a
single visible pass/fail line (bypassing capture) before asserting, so the
run log always carries the per-criterion outcome.  A failing criterion here
is a finding about the claim itself; the assert message states what was
computed instead, with maps written over the basis names.

Claims 2 and 3 pin the map the derivation identity allows, computed from
the catalog's structure tables.  The forms first stated for them (the m = 2
raising line with h -> scale*x1, and an outer pair map scaling the two
module columns by opposite signs) are kept as witnessed non-derivations:
each fails the identity at a named basis pair, (e, f) and (x0_1, e2), with
a named residual.
"""

import random
import time
from fractions import Fraction as F

from leibnizalg import (
    Matrix,
    Sl2Triple,
    derivation_algebra,
    graded_parts,
    inner_derivation_span,
    irreducible_decomposition_sl2,
    ideal_endo_blocks,
    is_derivation,
    is_semisimple,
    is_simple_certified,
    leibniz_check,
    outer_candidates,
    outer_report,
    pair_structure_report,
    quotient_algebra,
    solvable_radical,
    split_all,
    split_derivation,
    squares_ideal,
)
from leibnizalg.catalog import (
    direct_sum_sample,
    semisimple_pair,
    simple_sl2_leibniz,
    sl2,
    standard_catalog,
)


def announce(capsys, num, name, ok):
    with capsys.disabled():
        print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")


def projection_onto_ideal(alg, levi):
    n = alg.dim
    rows = [[F(0)] * n for _ in range(n)]
    for i in levi.i_indices:
        rows[i][i] = F(1)
    return Matrix.from_rows(rows)


def exceptional_raising_map(scale):
    # 6x6: e -> 2*scale*x0, f -> scale*x2, h -> 2*scale*x1 (rows 3..5 are x0,x1,x2)
    rows = [[F(0)] * 6 for _ in range(6)]
    rows[3][0] = 2 * scale
    rows[5][1] = scale
    rows[4][2] = 2 * scale
    return Matrix.from_rows(rows)


def stated_raising_map(scale):
    # the stated single-multiple form: as above but h -> scale*x1
    rows = [[F(0)] * 6 for _ in range(6)]
    rows[3][0] = 2 * scale
    rows[5][1] = scale
    rows[4][2] = scale
    return Matrix.from_rows(rows)


def opposite_column_map(alg, m):
    # the stated pair form: +1 on column 1, -1 on column 2, 0 on the complement
    rows = [[F(0)] * alg.dim for _ in range(alg.dim)]
    for k in range(m + 1):
        first = alg.basis_names.index(f"x{k}_1")
        second = alg.basis_names.index(f"x{k}_2")
        rows[first][first] = F(1)
        rows[second][second] = F(-1)
    return Matrix.from_rows(rows)


def derivation_residual(alg, mat, i, j):
    """d([b_i, b_j]) - [d(b_i), b_j] - [b_i, d(b_j)] at one basis pair."""
    bi, bj = alg.basis_vector(i), alg.basis_vector(j)
    lhs = mat.apply(alg.product(bi, bj))
    left = alg.product(mat.apply(bi), bj)
    right = alg.product(bi, mat.apply(bj))
    return tuple(a - b - c for a, b, c in zip(lhs, left, right))


def format_vector(alg, v):
    # coordinates over the basis names, e.g. "2*x1" or "-1/2*x0_2"
    terms = []
    for name, c in zip(alg.basis_names, v):
        if c == 0:
            continue
        coeff = "" if c == 1 else "-" if c == -1 else f"{c}*"
        terms.append(f"{coeff}{name}")
    return " + ".join(terms) or "0"


def format_map(alg, mat):
    # nonzero images only, e.g. "e -> 2*x0, f -> x2, h -> 2*x1"
    images = ((name, mat.apply(alg.basis_vector(i)))
              for i, name in enumerate(alg.basis_names))
    return ", ".join(f"{name} -> {format_vector(alg, v)}"
                     for name, v in images if any(v)) or "0"


def test_acceptance_1_simple_family_derivation_dims(capsys):
    t0 = time.monotonic()
    ok = True
    details = []
    for m in range(2, 9):
        alg, levi = simple_sl2_leibniz(m)
        rep = outer_report(alg)
        want_der = 5 if m == 2 else 4
        if (rep.dim_der, rep.dim_inner) != (want_der, 3):
            ok = False
            details.append((m, rep.dim_der, rep.dim_inner))
            continue
        # rebuild the same span from named maps: the three right
        # multiplications by the complement basis, the projection onto the
        # ideal, and for m = 2 the extra raising line
        spanning = [alg.right_mult(alg.basis_vector(g))
                    for g in levi.g_indices]
        spanning.append(projection_onto_ideal(alg, levi))
        if m == 2:
            spanning.append(exceptional_raising_map(F(1)))
        span = None
        from leibnizalg import Subspace
        flat = [mat.flatten() for mat in spanning]
        span = Subspace.from_vectors(alg.dim ** 2, flat)
        for mat in spanning:
            if not is_derivation(alg, mat):
                ok = False
        if span != derivation_algebra(alg).span:
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    announce(capsys, 1, "simple family derivation dimensions", ok)
    assert ok, f"dimension or spanning mismatch: {details}, {elapsed:.2f}s"
    assert elapsed < 5.0


def test_acceptance_2_exceptional_raising_line(capsys):
    alg, levi = simple_sl2_leibniz(2)
    raisings = []
    for cand in outer_candidates(alg):
        split = split_derivation(alg, levi, cand)
        if not split.raising_map.is_zero():
            raisings.append(split.raising_map)
    found_line = len(raisings) == 1
    ok = found_line
    if found_line:
        delta = raisings[0]
        scale = delta.data[3][0] / 2
        # the computed line, compared as a whole 6x6 map
        computed = exceptional_raising_map(scale)
        matches = scale != 0 and delta == computed
        # the stated form fails the identity at (e, f) with residual -scale*x1
        stated = stated_raising_map(scale)
        stated_fails = not is_derivation(alg, stated)
        names = alg.basis_names
        residual = derivation_residual(
            alg, stated, names.index("e"), names.index("f"))
        want_residual = tuple(
            -scale * c for c in alg.basis_vector(names.index("x1")))
        ok = matches and stated_fails and residual == want_residual
    announce(capsys, 2, "exceptional raising line at m = 2", ok)
    assert found_line, (
        f"expected exactly one raising line, found {len(raisings)}: "
        + "; ".join(format_map(alg, r) for r in raisings))
    assert matches, (
        f"computed raising line {format_map(alg, delta)}; expected "
        f"{format_map(alg, computed)} with a nonzero scale")
    assert stated_fails, (
        f"the stated form {format_map(alg, stated)} satisfies the "
        "derivation identity")
    assert residual == want_residual, (
        f"residual of the stated form {format_map(alg, stated)} at (e, f): "
        f"{format_vector(alg, residual)}; expected "
        f"{format_vector(alg, want_residual)}")


def test_acceptance_3_pair_family_structure(capsys):
    t0 = time.monotonic()
    ok = True
    scalar_rows = []
    stated_rows = []
    for m in range(1, 6):
        alg, levi = semisimple_pair(m)
        if leibniz_check(alg) != ():
            ok = False
        if not is_semisimple(alg):
            ok = False
        if not pair_structure_report(alg, levi).all_pass():
            ok = False
        rep = outer_report(alg)
        if (rep.dim_der, rep.dim_inner, rep.dim_outer) != (7, 6, 1):
            ok = False
        survey = split_all(alg, levi)
        if any(not s.raising_map.is_zero() for s in survey.splits):
            ok = False
        # the stated opposite-sign map fails the identity at (x0_1, e2)
        # with residual -2*x0_2
        stated = opposite_column_map(alg, m)
        names = alg.basis_names
        residual = derivation_residual(
            alg, stated, names.index("x0_1"), names.index("e2"))
        want_residual = tuple(
            -2 * c for c in alg.basis_vector(names.index("x0_2")))
        stated_rows.append((m, alg, stated, is_derivation(alg, stated),
                            residual, want_residual))
        cands = outer_candidates(alg)
        if len(cands) != 1:
            ok = False
            continue
        split = split_derivation(alg, levi, cands[0])
        t = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
        comps = irreducible_decomposition_sl2(
            alg, squares_ideal(alg), t).components
        blocks = ideal_endo_blocks(alg, split.ideal_endo, comps)
        if not blocks.offdiag_all_zero:
            ok = False
        scalar_rows.append((m, alg, split.ideal_endo, blocks.scalars))
    elapsed = time.monotonic() - t0
    # [xj_1, e2] = xj_2 carries column 1 onto column 2, so a map commuting
    # with the action has one scalar on both columns
    equal = all(
        s[0] is not None and s[0] == s[1] != 0
        for *_, s in scalar_rows)
    stated_ok = all(not is_der and residual == want
                    for *_, is_der, residual, want in stated_rows)
    announce(capsys, 3, "semisimple pair structure and outer scaling",
             ok and equal and stated_ok and elapsed < 60.0)
    assert elapsed < 60.0
    assert len(scalar_rows) == 5
    assert equal, (
        "the outer middle map should scale both module columns by one "
        "nonzero factor; computed: " + "; ".join(
            f"m = {m}: {format_map(alg, endo)}"
            for m, alg, endo, _s in scalar_rows))
    assert len(stated_rows) == 5
    for m, alg, stated, is_der, residual, want in stated_rows:
        assert not is_der, (
            f"m = {m}: the stated form {format_map(alg, stated)} satisfies "
            "the derivation identity")
        assert residual == want, (
            f"m = {m}: residual of the stated form at (x0_1, e2): "
            f"{format_vector(alg, residual)}; expected "
            f"{format_vector(alg, want)}")
    assert ok, "a structure, dimension or block check failed"


def test_acceptance_4_lie_baseline(capsys):
    alg, _levi = sl2()
    rep = outer_report(alg)
    rad = solvable_radical(alg)
    ok = (rep.dim_der, rep.dim_inner, rep.dim_outer) == (3, 3, 0) \
        and rad.dim == 0
    announce(capsys, 4, "inner-only derivations for the Lie baseline", ok)
    assert (rep.dim_der, rep.dim_inner, rep.dim_outer) == (3, 3, 0)
    assert rad.dim == 0


def test_acceptance_5_direct_sum_block_diagonal(capsys):
    alg, _levi = direct_sum_sample(2)
    first = range(0, 6)       # summand of the m = 2 member
    second = range(6, 13)     # summand of the m = 3 member
    der = derivation_algebra(alg)
    ok = der.dim == 9
    cross_zero = True
    for mat in der.maps:
        for r in first:
            for c in second:
                if mat.data[r][c] != 0:
                    cross_zero = False
        for r in second:
            for c in first:
                if mat.data[r][c] != 0:
                    cross_zero = False
    ok = ok and cross_zero
    announce(capsys, 5, "direct sums split derivations blockwise", ok)
    assert der.dim == 9, f"computed {der.dim}"
    assert cross_zero


def test_acceptance_6_structural_invariants(capsys):
    rng = random.Random(20260822)
    ok = True
    for _label, alg, levi in standard_catalog():
        sq = squares_ideal(alg)
        # the squares span is a two-sided ideal annihilating from the right
        for i in range(alg.dim):
            x = alg.basis_vector(i)
            for v in sq.basis.data:
                if not sq.contains(alg.product(v, x)):
                    ok = False
                if any(c != 0 for c in alg.product(x, v)):
                    ok = False
        der = derivation_algebra(alg)
        for mat in der.maps:
            if not is_derivation(alg, mat):
                ok = False
        for _ in range(5):
            z = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(alg.dim))
            if not is_derivation(alg, alg.right_mult(z)):
                ok = False
        if not quotient_algebra(alg, sq).algebra.is_lie():
            ok = False
        if levi is None:
            continue
        survey = split_all(alg, levi)
        for mat, split in zip(survey.basis.maps, survey.splits):
            parts = graded_parts(levi, mat)
            if not parts.lowering.is_zero():
                ok = False
            rebuilt = (alg.right_mult(split.inner_element)
                       + split.ideal_endo + split.raising_map)
            if rebuilt != mat:
                ok = False
    announce(capsys, 6, "structural invariants across the catalog", ok)
    assert ok


def test_acceptance_7_unequal_dimension_probe(capsys):
    findings = []
    ok = True
    for label, alg, levi in standard_catalog():
        if levi is None:
            continue
        dim_g = len(levi.g_indices)
        dim_i = len(levi.i_indices)
        if dim_g == dim_i:
            continue
        survey = split_all(alg, levi)
        nonzero = sum(1 for s in survey.splits
                      if not s.raising_map.is_zero())
        if nonzero == 0:
            continue
        verdict = is_simple_certified(alg, levi).verdict
        if verdict == "yes":
            ok = False
        findings.append((label, dim_g, dim_i, nonzero, verdict))
    announce(capsys, 7, "raising maps vanish off the equal-dimension case",
             ok)
    with capsys.disabled():
        for label, dim_g, dim_i, nonzero, verdict in findings:
            print(f"  finding: {label} (complement dim {dim_g}, ideal dim "
                  f"{dim_i}, simple: {verdict}) has {nonzero} basis "
                  "derivation(s) with a nonzero raising part")
    assert ok, f"simple instance with unequal dimensions and nonzero raising: {findings}"
    # the bundled direct sum is the known non-simple counterexample
    assert any(label == "direct_sum_m2_m3" for label, *_ in findings)
