"""Time bounds on the identity checks and the sl2 decomposition.

On ``semisimple_pair(12)`` (dim 32) the dense checks took 4.2 s
(``leibniz_check``) and 29.5 s (``split_all``) on a 2-CPU Xeon VM; the
sparse kernel takes 0.03 s and 0.15 s there.  ``leibniz_check`` of
``simple_sl2_leibniz(1000)`` took 7.1 s while it scanned the pairs of every
row; read as the failures of each right multiplication as a derivation, it
takes about 0.4 s.  On the same machine
``irreducible_decomposition_sl2`` of the squares ideal of
``simple_sl2_leibniz(m)`` ran past 60 s at m = 20 while the rational
eigenvalues of h were found by a divisor search of the charpoly's constant
term; with exact root isolation it took about 0.3 s at m = 20 and 0.5 s at
m = 24.  It then still solved the weight eigenproblem of the whole ideal:
7.9 s at m = 48, and 7.6 s for ``is_simple_certified``.  Taking the
highest weights from the kernel of e brings both to about 0.01 s and 0.2 s
at m = 48.  ``weight_decomposition`` of the whole m = 48 ideal, which lists
the weights for ``modules``, still took 6.4-6.8 s in the dense Berkowitz
``charpoly``; on sparse integer columns it took about 0.15 s, but 2.5 s at
m = 192 and 34 s at m = 384, since the charpoly and every weight's kernel
covered the whole ideal.  Read off the lowering chains of the
decomposition, with one product per chain vector to check its weight, it
takes about 0.01 s at m = 384, and since the highest weights are read off
the f-strings of ker e it needs no eigenproblem.  The
derivation nullspace of ``simple_sl2_leibniz(96)`` (dim 100, 10 000
unknowns) took 3.3-4.0 s while each new pivot probed every stored row;
with the column-occurrence index and integer rows from the table it took
about 0.5 s, and with the columns of unit rows pinned it takes 0.24-0.28
s.  The bound is loose on purpose, because the speed of a shared
machine varies.
"""

import time

import pytest

from leibnizalg import (
    Sl2Triple,
    derivation_algebra,
    irreducible_decomposition_sl2,
    is_simple_certified,
    leibniz_check,
    split_all,
    squares_ideal,
    weight_decomposition,
)
from leibnizalg.catalog import semisimple_pair, simple_sl2_leibniz

BOUND_S = 5.0


def timed(work):
    start = time.perf_counter()
    result = work()
    return result, time.perf_counter() - start


def test_leibniz_check_pair12_within_bound():
    alg, _ = semisimple_pair(12)
    # bypass the cache, which another test may have filled
    violations, seconds = timed(lambda: leibniz_check.__wrapped__(alg))
    assert violations == ()
    assert seconds < BOUND_S


def test_leibniz_check_simple_m1000_within_bound():
    alg, _ = simple_sl2_leibniz(1000)
    violations, seconds = timed(lambda: leibniz_check.__wrapped__(alg))
    assert violations == ()
    assert seconds < BOUND_S


def test_split_all_pair12_within_bound():
    alg, levi = semisimple_pair(12)
    survey, seconds = timed(lambda: split_all(alg, levi))
    assert len(survey.splits) == survey.basis.dim == 7
    assert seconds < BOUND_S


def test_derivation_nullspace_m96_within_bound():
    alg, _ = simple_sl2_leibniz(96)
    basis, seconds = timed(lambda: derivation_algebra.__wrapped__(alg))
    assert basis.dim == 4
    assert seconds < BOUND_S


@pytest.mark.parametrize("m", [20, 24, 48])
def test_sl2_decomposition_within_bound(m):
    alg, levi = simple_sl2_leibniz(m)
    sq = squares_ideal(alg)
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    dec, seconds = timed(lambda: irreducible_decomposition_sl2(alg, sq, triple))
    assert dec.highest_weights == (m,)
    assert seconds < BOUND_S


def test_simple_certified_m48_within_bound():
    alg, levi = simple_sl2_leibniz(48)
    cert, seconds = timed(lambda: is_simple_certified(alg, levi))
    assert cert.verdict == "yes"
    assert seconds < BOUND_S


def test_weight_decomposition_m48_within_bound():
    alg, levi = simple_sl2_leibniz(48)
    sq = squares_ideal(alg)
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    spaces, seconds = timed(lambda: weight_decomposition(alg, sq, triple))
    assert spaces.weights() == tuple(range(-48, 49, 2))
    assert spaces.complete
    assert seconds < BOUND_S


def test_weight_decomposition_m384_within_bound():
    alg, levi = simple_sl2_leibniz(384)
    sq = squares_ideal(alg)
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    spaces, seconds = timed(lambda: weight_decomposition(alg, sq, triple))
    assert spaces.weights() == tuple(range(-384, 385, 2))
    assert spaces.complete
    assert seconds < BOUND_S
