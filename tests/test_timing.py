"""Time bounds on the identity checks and the sl2 decomposition.

On ``semisimple_pair(12)`` (dim 32) the dense checks took 4.2 s
(``leibniz_check``) and 29.5 s (``split_all``) on a 2-CPU Xeon VM; the
sparse kernel takes 0.03 s and 0.15 s there.  On the same machine
``irreducible_decomposition_sl2`` of the squares ideal of
``simple_sl2_leibniz(m)`` ran past 60 s at m = 20 while the rational
eigenvalues of h were found by a divisor search of the charpoly's constant
term; with exact root isolation it takes about 0.3 s at m = 20 and 0.5 s at
m = 24.  The bound is loose on purpose, because the speed of a shared
machine varies.
"""

import time

import pytest

from leibnizalg import (
    Sl2Triple,
    irreducible_decomposition_sl2,
    leibniz_check,
    split_all,
    squares_ideal,
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


def test_split_all_pair12_within_bound():
    alg, levi = semisimple_pair(12)
    survey, seconds = timed(lambda: split_all(alg, levi))
    assert len(survey.splits) == survey.basis.dim == 7
    assert seconds < BOUND_S


@pytest.mark.parametrize("m", [20, 24])
def test_sl2_decomposition_within_bound(m):
    alg, levi = simple_sl2_leibniz(m)
    sq = squares_ideal(alg)
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    dec, seconds = timed(lambda: irreducible_decomposition_sl2(alg, sq, triple))
    assert dec.highest_weights == (m,)
    assert seconds < BOUND_S
