"""The package's value types: immutable records with field equality."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import leibnizalg
from leibnizalg import catalog, core, derivations, eigen, exactlin, radical, sl2
from leibnizalg.exactlin import Subspace, value_type

SPACE = Subspace.span(2, [{0: F(1), 1: F(2)}])

# type -> its fields, in order, and one sample value per field
TYPES = {
    core.LeviDatum: (("g_indices", "i_indices", "sl2_triples"),
                     ((0, 1, 2), (3,), ((0, 1, 2),))),
    core.Sl2Triple: (("e", "f", "h"), ((F(1), F(0)), (F(0), F(1)), (F(0), F(0)))),
    core.Quotient: (("algebra", "ideal", "complement_cols"), ("alg", SPACE, (1,))),
    radical.SummandSplit: (("summands", "determined"), ((SPACE,), True)),
    radical.SimplicityCertificate: (("verdict", "witness", "detail"),
                                    ("no", SPACE, "nonzero solvable radical")),
    exactlin.Subspace: (("ambient_dim", "rows"), (2, {0: {0: 1}})),
    eigen.EigenDecomposition: (("pairs", "complete"), (((F(2), SPACE),), False)),
    derivations.DerivationBasis: (("algebra", "maps", "span"), ("alg", (), SPACE)),
    derivations.OuterReport: (("dim_der", "dim_inner"), (7, 6)),
    derivations.GradedParts: (("diagonal", "raising", "lowering"), (1, 2, 3)),
    derivations.DerivationSplit: (
        ("inner_element", "ideal_endo", "raising_map", "derivation"),
        ((F(1), F(0)), "endo", "raising", "d")),
    derivations.EndoBlockReport: (("blocks", "scalars", "offdiag_all_zero"),
                                  ((), (F(1), None), True)),
    derivations.RaisingReport: (("image_span", "classification"), (SPACE, "other")),
    derivations.SplitSurvey: (("basis", "splits", "raising_total"),
                              ("basis", (), SPACE)),
    sl2.WeightSpaces: (("pairs", "complete"), (((F(-1), SPACE),), True)),
    sl2.HighestWeightVector: (("weight", "vector"), (F(2), (F(1), F(0)))),
    sl2.ModuleDecomposition: (("components", "highest_weights"), ((SPACE,), (0,))),
    sl2.ConditionCheck: (("ok", "message"), (True, "holds")),
    sl2.PairStructureReport: (("quotient_pair", "equal_columns", "doublet_rows"),
                              (1, 2, 3)),
    catalog.CatalogSpec: (("family", "m"), ("pair", 3)),
}


def test_every_value_type_is_listed():
    package = Path(leibnizalg.__file__).parent
    declared = {
        node.name for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "value_type"
                for d in node.decorator_list)}
    assert declared == {cls.__name__ for cls in TYPES}


@pytest.mark.parametrize("cls", list(TYPES), ids=lambda cls: cls.__name__)
def test_value_type_semantics(cls):
    fields, values = TYPES[cls]
    x = cls(*values)
    assert tuple(getattr(x, f) for f in fields) == values
    # equal fields: equal values, equal hashes (Subspace hashes its pivots,
    # Sl2Triple its nonzero entries)
    y = cls(*values)
    assert x == y and not x != y
    if cls not in (Subspace, core.Sl2Triple):
        assert hash(x) == hash(y) == hash(values)
    else:
        assert hash(x) == hash(y)
    # keyword and mixed construction
    assert cls(**dict(zip(fields, values))) == x
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == x
    # one field changed, or the same fields on another type: unequal
    assert x != cls(*values[:-1], "changed")
    clone = value_type(type(cls.__name__, (), {"__annotations__": dict.fromkeys(fields)}))
    assert x != clone(*values) and clone(*values) != x
    assert x != values
    # frozen: no field, and no new attribute, can be set or deleted
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, fields[0])
    assert tuple(getattr(x, f) for f in fields) == values
    # the dataclass repr, unless the class writes its own
    if "__repr__" not in cls.__dict__:
        assert repr(x) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    # argument errors name the type
    for args, kwargs in (((*values, None), {}), (values, {"nope": 1}),
                         (values[:1], {fields[0]: values[0]}), ((), {})):
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


def test_sl2_triple_hash_reads_the_nonzero_entries():
    # equal triples hash alike whatever zeros they hold or how their entries
    # are typed, and a zero entry is never hashed
    sparse = core.Sl2Triple.from_indices(4, (0, 1, 2))
    typed = core.Sl2Triple((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert sparse == typed and hash(sparse) == hash(typed)
    assert hash(sparse) != hash(core.Sl2Triple.from_indices(4, (1, 0, 2)))

    class Unhashable(F):
        def __hash__(self):
            raise AssertionError("a zero entry was hashed")

    zero = Unhashable(0)
    assert hash(core.Sl2Triple((F(1), zero), (zero, F(1)), (zero, zero))) == hash(
        core.Sl2Triple((F(1), F(0)), (F(0), F(1)), (F(0), F(0))))


def test_defaults_and_post_init_checks():
    assert core.LeviDatum((0,), (1,)).sl2_triples == ()
    assert catalog.CatalogSpec("sl2").m is None
    assert catalog.CatalogSpec(family="pair", m=2) == catalog.CatalogSpec("pair", 2)
    levi = core.LeviDatum([0, 1, 2], [3], [[0, 1, 2]])
    assert levi == core.LeviDatum((0, 1, 2), (3,), ((0, 1, 2),))
    assert (levi.g_indices, levi.i_indices, levi.sl2_triples) == (
        (0, 1, 2), (3,), ((0, 1, 2),))
    assert hash(levi) == hash(core.LeviDatum(g_indices=(0, 1, 2), i_indices=[3],
                                             sl2_triples=[(0, 1, 2)]))
    for kwargs in ({"family": "so3"}, {"family": "so3", "m": 2}):
        with pytest.raises(ValueError, match="unknown family 'so3'"):
            catalog.CatalogSpec(**kwargs)


def test_subspace_keeps_its_cached_basis_and_repr():
    space = Subspace.span(3, [{0: F(1), 2: F(1)}, {1: F(2)}])
    assert space.pivot_rows is space.pivot_rows
    assert space == Subspace.span(3, [{1: F(1)}, {0: F(2), 2: F(2)}])
    assert repr(space) == "Subspace(dim 2 of 3)"
