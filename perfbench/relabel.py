"""Seeded inputs that defeat the library's caches.

``leibniz_check``, ``squares_ideal``, ``solvable_radical`` and
``derivation_algebra`` are ``lru_cache``d and keyed by table equality, so a
benchmark that repeats an input would time a dictionary lookup.  Every op
therefore gets a monomial relabeling of its catalog member: a seeded basis
permutation plus nonzero rational scalings.  Scalings touch only ideal
basis vectors and the (e, f) pair of each declared sl2 triple (e by s, f by
1/s), so the declared triples keep their canonical relations and every
invariant the oracle checks is unchanged.  That scaling is an automorphism
of sl2 itself, so the bare sl2 has only its 3! basis permutations.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from leibnizalg import Algebra, LeviDatum, dump_algebra_json
from leibnizalg.catalog import CatalogSpec, build

MAX_DRAWS = 1000

SCALES = tuple(Fraction(sign * p, q) for sign in (1, -1)
               for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 3),
                            (3, 2), (5, 4)))


def split_label(label: str) -> tuple[str, int | None]:
    """Family and size of an input class label such as ``pair5``,
    ``simple16``, ``direct_sum2``, ``sl2`` or ``two_dim_solvable``."""
    if label in CatalogSpec.FAMILIES:
        return label, None
    family = label.rstrip("0123456789")
    return family, int(label[len(family):])


def catalog_member(label: str) -> tuple[Algebra, LeviDatum | None]:
    return build(CatalogSpec(*split_label(label)))


def relabel(alg: Algebra, levi: LeviDatum | None, rng: random.Random
            ) -> tuple[Algebra, LeviDatum | None]:
    """An isomorphic copy of (alg, levi) in a permuted, rescaled basis.

    New basis vector perm[i] is scale[i] times old basis vector i, so the
    product of old i and j, sum_k c b_k, becomes sum_k c s_i s_j / s_k on
    the new basis.  Without a declared split every vector may be scaled.
    """
    n = alg.dim
    scale = [Fraction(1)] * n
    if levi is None:
        free = range(n)
    else:
        free = levi.i_indices
        for e, f, _h in levi.sl2_triples:
            s = rng.choice(SCALES)
            scale[e], scale[f] = s, 1 / s
    for i in free:
        scale[i] = rng.choice(SCALES)
    perm = list(range(n))
    rng.shuffle(perm)
    products = {
        (perm[i], perm[j]): [(perm[k], c * scale[i] * scale[j] / scale[k])
                             for k, c in entries]
        for (i, j), entries in alg.table_items()}
    names = [""] * n
    for i, name in enumerate(alg.basis_names):
        names[perm[i]] = name
    new_alg = Algebra(n, products, names, alg.name)
    if levi is None:
        return new_alg, None
    new_levi = LeviDatum(
        tuple(sorted(perm[i] for i in levi.g_indices)),
        tuple(sorted(perm[i] for i in levi.i_indices)),
        tuple(tuple(perm[i] for i in t) for t in levi.sl2_triples))
    return new_alg, new_levi


class InputStream:
    """Fresh relabelings of catalog members, never equal to an earlier one.

    Equality is the library's: dimension, basis names and table.  The
    stream remembers a digest of each canonical serialization, not the
    algebra, so it keeps nothing alive that the library would not.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._bases: dict[str, tuple[Algebra, LeviDatum | None]] = {}
        self._seen: set[bytes] = set()

    def next(self, label: str) -> tuple[Algebra, LeviDatum | None]:
        if label not in self._bases:
            self._bases[label] = catalog_member(label)
        alg, levi = self._bases[label]
        for _ in range(MAX_DRAWS):
            new_alg, new_levi = relabel(alg, levi, self._rng)
            digest = hashlib.sha256(
                dump_algebra_json(new_alg).encode()).digest()
            if digest not in self._seen:
                self._seen.add(digest)
                return new_alg, new_levi
        raise RuntimeError(f"no fresh relabeling of {label} in "
                           f"{MAX_DRAWS} draws")
