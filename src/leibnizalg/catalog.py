"""Built-in algebra families with their declared structure data.

Each sl2 family is a semisimple Lie algebra S acting on a right module V,
built as S ⋉ V (Kinyon and Weinstein, Amer. J. Math. 123, 2001): S's Lie
table, [v, g] = v·g, and every other product zero.  Two of them are
parametric (one sl2 on an irreducible module column, two commuting sl2
copies on a pair of columns); small fixtures complete the list.  Basis order follows
the standard listing for each family so printed reports line up with hand
calculations.  ``direct_sum_many`` builds block direct sums, the
``direct_sum`` family among them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .core import SL2_TABLE, Algebra, LeviDatum
from .exactlin import value_type

Columns = dict[int, dict[int, int]]


@value_type
class CatalogSpec:
    """Request for a catalog member: family name plus size parameter."""

    family: str
    m: int | None = None

    FAMILIES = ("sl2", "simple", "pair", "two_dim_solvable", "direct_sum")

    def __post_init__(self):
        if self.family not in self.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {', '.join(self.FAMILIES)}")


def _semidirect(lie: Mapping, actions: Sequence[Columns],
                names: Sequence[str], name: str) -> Algebra:
    """S ⋉ V on basis (S, V): the Lie table of S on its len(actions) basis
    vectors, and [v, g] = v·g with column v of actions[g] (sparse columns
    {v: {w: coefficient}} in V's coordinates) the image v·g."""
    s = len(actions)
    products = dict(lie)
    for g, action in enumerate(actions):
        for v, image in action.items():
            products[(s + v, g)] = [(s + w, x) for w, x in image.items()]
    return Algebra(len(names), products, names, name=name)


def _sl2_action(weights: Sequence[int]) -> tuple[Columns, Columns, Columns]:
    """The right action of (e, f, h) on V(m_1) ⊕ V(m_2) ⊕ ...: on each
    column x_0, ..., x_m of highest weight m, x_k·e = -k(m + 1 - k) x_(k-1),
    x_k·f = x_(k+1) and x_k·h = (m - 2k) x_k."""
    basis = list(enumerate((m, k) for m in weights for k in range(m + 1)))
    e = {v: {v - 1: -k * (m + 1 - k)} for v, (m, k) in basis if k}
    f = {v: {v + 1: 1} for v, (m, k) in basis if k < m}
    h = {v: {v: m - 2 * k} for v, (m, k) in basis}
    return e, f, h


def sl2() -> tuple[Algebra, LeviDatum]:
    """The simple Lie algebra sl2 on basis (e, f, h)."""
    alg = _semidirect(SL2_TABLE, _sl2_action(()), ("e", "f", "h"), "sl2")
    return alg, LeviDatum((0, 1, 2), (), ((0, 1, 2),))


def two_dim_solvable() -> Algebra:
    """Minimal non-Lie fixture: only nonzero product is the square of the
    first basis vector."""
    return Algebra(2, {(0, 0): [(1, 1)]}, ("a", "b"), name="two_dim_solvable")


def simple_sl2_leibniz(m: int, allow_uncertified: bool = False) -> tuple[Algebra, LeviDatum]:
    """Simple Leibniz algebra of dimension m + 4: sl2 acting on one
    irreducible column of highest weight m.

    Basis (e, f, h, x_0, ..., x_m).  The family is stated for m >= 2;
    pass allow_uncertified to build the m = 1 member anyway (its name is
    tagged so downstream reports show its provisional status).
    """
    if m < 1:
        raise ValueError("the module parameter m must be at least 1")
    if m == 1 and not allow_uncertified:
        raise ValueError("m = 1 lies outside the certified range; "
                         "pass allow_uncertified (--force on the command "
                         "line) to build it anyway")
    names = ("e", "f", "h") + tuple(f"x{k}" for k in range(m + 1))
    tag = "_uncertified" if m == 1 else ""
    alg = _semidirect(SL2_TABLE, _sl2_action((m,)), names,
                      f"simple_sl2_leibniz_m{m}{tag}")
    levi = LeviDatum((0, 1, 2), tuple(range(3, m + 4)), ((0, 1, 2),))
    return alg, levi


def semisimple_pair(m: int) -> tuple[Algebra, LeviDatum]:
    """Semisimple Leibniz algebra of dimension 2(m + 4): two commuting sl2
    blocks, the first acting on two columns of highest weight m, the second
    pairing the columns into doublets.

    Basis (e1, f1, h1, e2, f2, h2, x0_1, ..., xm_1, x0_2, ..., xm_2).
    """
    if m < 1:
        raise ValueError("the module parameter m must be at least 1")
    d = m + 1  # x_k of the second column is d + k
    lie = {**SL2_TABLE, **{(i + 3, j + 3): [(k + 3, c) for k, c in entries]
                           for (i, j), entries in SL2_TABLE.items()}}
    doublet = ({k: {d + k: 1} for k in range(d)},  # e2: x_k_1 -> x_k_2
               {d + k: {k: -1} for k in range(d)},  # f2: x_k_2 -> -x_k_1
               {k: {k: 1 if k >= d else -1} for k in range(2 * d)})  # h2
    names = ("e1", "f1", "h1", "e2", "f2", "h2") \
        + tuple(f"x{k}_1" for k in range(d)) \
        + tuple(f"x{k}_2" for k in range(d))
    alg = _semidirect(lie, _sl2_action((m, m)) + doublet, names,
                      f"semisimple_pair_m{m}")
    levi = LeviDatum(tuple(range(6)), tuple(range(6, 2 * (m + 4))),
                     ((0, 1, 2), (3, 4, 5)))
    return alg, levi


def direct_sum_many(
    parts: Sequence[tuple[Algebra, LeviDatum | None]],
    name: str = "",
) -> tuple[Algebra, LeviDatum | None]:
    """Direct sum with block-offset indices; basis names get _1, _2, ... suffixes.

    The combined split datum exists only when every part supplies one.
    """
    if not parts:
        raise ValueError("empty direct sum")
    dim = sum(alg.dim for alg, _ in parts)
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    names: list[str] = []
    g_idx: list[int] = []
    i_idx: list[int] = []
    triples: list[tuple[int, int, int]] = []
    have_levis = all(levi is not None for _, levi in parts)
    offset = 0
    for count, (alg, levi) in enumerate(parts, start=1):
        for (i, j), entries in alg.table_items():
            products[(i + offset, j + offset)] = [
                (k + offset, coeff) for k, coeff in entries]
        names.extend(f"{s}_{count}" for s in alg.basis_names)
        if have_levis:
            assert levi is not None
            g_idx.extend(a + offset for a in levi.g_indices)
            i_idx.extend(a + offset for a in levi.i_indices)
            triples.extend(
                (a + offset, b + offset, c + offset) for a, b, c in levi.sl2_triples)
        offset += alg.dim
    if not name:
        name = "sum_" + "_".join(alg.name or "anon" for alg, _ in parts)
    total = Algebra(dim, products, tuple(names), name)
    combined = LeviDatum(tuple(g_idx), tuple(i_idx), tuple(triples)) \
        if have_levis else None
    return total, combined


def direct_sum_sample(m: int = 2, allow_uncertified: bool = False) -> tuple[Algebra, LeviDatum]:
    """Direct sum of the simple family members with parameters m and m + 1;
    allow_uncertified is passed on to both."""
    a, la = simple_sl2_leibniz(m, allow_uncertified=allow_uncertified)
    b, lb = simple_sl2_leibniz(m + 1, allow_uncertified=allow_uncertified)
    total, levi = direct_sum_many([(a, la), (b, lb)])
    assert levi is not None
    return total, levi


def build(spec: CatalogSpec, allow_uncertified: bool = False) -> tuple[Algebra, LeviDatum | None]:
    """Construct the requested member; the split datum is None only for
    fixtures that do not declare one."""
    if spec.family in ("sl2", "two_dim_solvable") and spec.m is not None:
        raise ValueError(f"family {spec.family} takes no parameter m")
    if spec.family == "sl2":
        return sl2()
    if spec.family == "two_dim_solvable":
        return two_dim_solvable(), None
    if spec.family == "simple":
        m = 2 if spec.m is None else spec.m
        return simple_sl2_leibniz(m, allow_uncertified=allow_uncertified)
    if spec.family == "pair":
        m = 1 if spec.m is None else spec.m
        return semisimple_pair(m)
    if spec.family == "direct_sum":
        m = 2 if spec.m is None else spec.m
        return direct_sum_sample(m, allow_uncertified=allow_uncertified)
    raise AssertionError("unreachable")


def standard_catalog() -> list[tuple[str, Algebra, LeviDatum | None]]:
    """The fixed list used by surveys and the exporter."""
    out: list[tuple[str, Algebra, LeviDatum | None]] = []
    alg, levi = sl2()
    out.append(("sl2", alg, levi))
    out.append(("two_dim_solvable", two_dim_solvable(), None))
    for m in (2, 3, 4):
        alg, levi = simple_sl2_leibniz(m)
        out.append((f"simple_m{m}", alg, levi))
    for m in (1, 2):
        alg, levi = semisimple_pair(m)
        out.append((f"pair_m{m}", alg, levi))
    alg, levi = direct_sum_sample(2)
    out.append(("direct_sum_m2_m3", alg, levi))
    return out
