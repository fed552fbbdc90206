"""Built-in algebra families with their declared structure data.

Two parametric families of right Leibniz algebras built over sl2 (one with a
single sl2 acting on an irreducible module column, one with two commuting
sl2 blocks acting on a pair of columns), plus small fixtures.  Basis order
follows the standard listing for each family so printed reports line up
with hand calculations.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Algebra, LeviDatum, direct_sum_many
from .exactlin import value_type

ONE = Fraction(1)


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


def _sl2_block(products, e: int, f: int, h: int) -> None:
    """Install one sl2 copy: [e,h]=2e, [h,f]=2f, [e,f]=h and the negatives."""
    products[(e, h)] = [(e, Fraction(2))]
    products[(h, e)] = [(e, Fraction(-2))]
    products[(h, f)] = [(f, Fraction(2))]
    products[(f, h)] = [(f, Fraction(-2))]
    products[(e, f)] = [(h, ONE)]
    products[(f, e)] = [(h, -ONE)]


def _sl2_column(products, m: int, x) -> None:
    """Install the right action of the sl2 copy (e, f, h) = (0, 1, 2) on one
    irreducible column x(0), ..., x(m) of highest weight m."""
    for k in range(1, m + 1):
        products[(x(k), 0)] = [(x(k - 1), Fraction(-k * (m + 1 - k)))]
    for k in range(m):
        products[(x(k), 1)] = [(x(k + 1), ONE)]
    for k in range(m + 1):
        coeff = Fraction(m - 2 * k)
        if coeff:
            products[(x(k), 2)] = [(x(k), coeff)]


def sl2() -> tuple[Algebra, LeviDatum]:
    """The simple Lie algebra sl2 on basis (e, f, h)."""
    products: dict = {}
    _sl2_block(products, 0, 1, 2)
    alg = Algebra(3, products, ("e", "f", "h"), name="sl2")
    return alg, LeviDatum((0, 1, 2), (), ((0, 1, 2),))


def two_dim_solvable() -> Algebra:
    """Minimal non-Lie fixture: only nonzero product is the square of the
    first basis vector."""
    return Algebra(2, {(0, 0): [(1, ONE)]}, ("a", "b"), name="two_dim_solvable")


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
                         "pass allow_uncertified to build it anyway")
    products: dict = {}
    _sl2_block(products, 0, 1, 2)
    _sl2_column(products, m, lambda k: 3 + k)
    names = ("e", "f", "h") + tuple(f"x{k}" for k in range(m + 1))
    tag = "_uncertified" if m == 1 else ""
    alg = Algebra(m + 4, products, names, name=f"simple_sl2_leibniz_m{m}{tag}")
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
    products: dict = {}
    _sl2_block(products, 0, 1, 2)
    _sl2_block(products, 3, 4, 5)

    def x(col: int, k: int) -> int:
        return 6 + (col - 1) * (m + 1) + k

    for col in (1, 2):
        _sl2_column(products, m, lambda k: x(col, k))
    for j in range(m + 1):
        products[(x(1, j), 3)] = [(x(2, j), ONE)]
        products[(x(2, j), 5)] = [(x(2, j), ONE)]
        products[(x(1, j), 5)] = [(x(1, j), -ONE)]
        products[(x(2, j), 4)] = [(x(1, j), -ONE)]
    names = ("e1", "f1", "h1", "e2", "f2", "h2") \
        + tuple(f"x{k}_1" for k in range(m + 1)) \
        + tuple(f"x{k}_2" for k in range(m + 1))
    alg = Algebra(2 * (m + 4), products, names, name=f"semisimple_pair_m{m}")
    levi = LeviDatum(
        (0, 1, 2, 3, 4, 5),
        tuple(range(6, 2 * (m + 4))),
        ((0, 1, 2), (3, 4, 5)),
    )
    return alg, levi


def direct_sum_sample(m: int = 2) -> tuple[Algebra, LeviDatum]:
    """Direct sum of the simple family members with parameters m and m + 1."""
    a, la = simple_sl2_leibniz(m)
    b, lb = simple_sl2_leibniz(m + 1)
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
        return direct_sum_sample(m)
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
