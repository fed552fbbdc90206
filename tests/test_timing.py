"""Time bounds on the identity checks at the largest ladder size.

On ``semisimple_pair(12)`` (dim 32) the dense checks took 4.2 s
(``leibniz_check``) and 29.5 s (``split_all``) on a 2-CPU Xeon VM; the
sparse kernel takes 0.03 s and 0.15 s there.  The bound is loose on
purpose, because the speed of a shared machine varies.
"""

import time

from leibnizalg import leibniz_check, split_all
from leibnizalg.catalog import semisimple_pair

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
