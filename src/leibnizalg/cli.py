"""Command-line front end.

Subcommands load an algebra file, run the exact analyses, and emit either
human-readable text or JSON reports.  Exit status is 0 for a clean pass, 1
for a mathematical failure (identity violation, invalid declared split,
undecidable module request), and 2 for I/O or schema problems.  Each
command imports only the layers it runs: ``check`` and ``radical`` need
neither ``derivations`` nor ``sl2``, ``modules`` needs ``sl2``,
``derive`` needs ``derivations`` (and ``sl2`` with ``--decompose``), and
only ``catalog`` needs ``catalog``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .core import (
    Algebra,
    InvalidAlgebraError,
    LeviDatum,
    LeviError,
    ModuleError,
    SchemaError,
    Sl2Triple,
    StructureError,
    _accumulate,
    _integer_table,
    _product,
    dump_algebra_json,
    ensure_leibniz,
    is_semisimple,
    load_algebra_json,
    solvable_radical,
    squares_ideal,
    squares_quotient,
    validate_levi,
)
from .exactlin import Vec, format_rational

PASS, MATH_FAIL, IO_FAIL = 0, 1, 2
SPOT_CHECKS = 25


def _load(path: str) -> tuple[Algebra, LeviDatum | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8 text: {exc}") from exc
    return load_algebra_json(text)


def _named(alg: Algebra, v: Vec) -> str:
    terms = []
    for i, c in enumerate(v):
        if c == 0:
            continue
        name = alg.basis_names[i]
        if c == 1:
            terms.append(name)
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{format_rational(c)}*{name}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _validate(alg: Algebra, levi: LeviDatum | None) -> list[str]:
    """Run the full check battery; raises on failure, returns report lines."""
    lines = []
    ensure_leibniz(alg)
    lines.append("leibniz identity: pass")
    sq = squares_ideal(alg)
    lines.append(f"squares ideal: dimension {sq.dim}, closed, left-annihilated")
    quo = squares_quotient(alg)
    if not quo.algebra.is_lie():
        raise StructureError("quotient by the squares ideal is not a Lie algebra")
    lines.append("quotient by squares ideal: Lie")
    if levi is not None:
        validate_levi(alg, levi)
        lines.append("declared split: valid")
    return lines


def _spot_check(alg: Algebra, seed: int) -> None:
    """Random rational triples through the identity; belt over the exhaustive
    basis check.

    Each drawn vector is scaled to integers by the lcm of its denominators
    and multiplied over the integer table (the table times its common
    denominator D).  Every term of [x,[y,z]] - [[x,y],z] + [[x,z],y] then
    scales by the same D²·sx·sy·sz, so the verdict is the exact one."""
    rng = random.Random(seed)
    _, _, by_left, _ = _integer_table(alg)

    def rand_row() -> dict[int, int]:
        drawn = [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.dim)]
        scale = math.lcm(*(q for _, q in drawn))
        return {i: p * (scale // q) for i, (p, q) in enumerate(drawn) if p}

    for _ in range(SPOT_CHECKS):
        x, y, z = rand_row(), rand_row(), rand_row()
        residual = _product(by_left, x, _product(by_left, y, z))
        for u, v, w, sign in ((x, y, z, -1), (x, z, y, 1)):
            _accumulate(residual, sign,
                        _product(by_left, _product(by_left, u, v), w).items())
        if any(residual.values()):
            raise InvalidAlgebraError(
                "random spot check found an identity violation")


def cmd_check(args: argparse.Namespace) -> int:
    alg, levi = _load(args.file)
    lines = _validate(alg, levi)
    _spot_check(alg, args.seed)
    lines.append(f"random spot checks: {SPOT_CHECKS} triples with seed {args.seed}: pass")
    if args.json:
        doc = {
            "command": "check",
            "algebra": {"name": alg.name, "dim": alg.dim,
                        "basis": list(alg.basis_names)},
            "leibniz": True,
            "squares_ideal_dim": squares_ideal(alg).dim,
            "quotient_is_lie": True,
            "levi_validated": levi is not None,
            "random_spot_checks": SPOT_CHECKS,
            "seed": args.seed,
            "passed": True,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"{alg.name or args.file}: dimension {alg.dim}")
        for line in lines:
            print("  " + line)
        print("check: pass")
    return PASS


def _components_for_scalars(alg: Algebra, levi: LeviDatum):
    from .sl2 import irreducible_decomposition_sl2
    if not levi.sl2_triples:
        return None
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    try:
        return irreducible_decomposition_sl2(alg, squares_ideal(alg), triple)
    except ModuleError:
        return None


def cmd_derive(args: argparse.Namespace) -> int:
    from .derivations import (ideal_endo_blocks, outer_report,
                              raising_map_report, split_all)
    alg, levi = _load(args.file)
    _validate(alg, levi)
    rep = outer_report(alg)
    doc = {
        "command": "derive",
        "algebra": {"name": alg.name, "dim": alg.dim,
                    "basis": list(alg.basis_names)},
        "dims": {"der": rep.dim_der, "inner": rep.dim_inner,
                 "outer": rep.dim_outer},
    }
    text = [f"{alg.name or args.file}: dimension {alg.dim}",
            f"dim Der = {rep.dim_der}, inner = {rep.dim_inner}, "
            f"outer = {rep.dim_outer}"]
    if args.decompose:
        if levi is None:
            print("derive --decompose needs a levi block in the input file",
                  file=sys.stderr)
            return IO_FAIL
        survey = split_all(alg, levi)
        dec = _components_for_scalars(alg, levi)
        split_docs = []
        for idx, sp in enumerate(survey.splits):
            entry: dict = {"index": idx,
                           "inner_element": _named(alg, sp.inner_element)}
            text.append(f"derivation basis {idx}:")
            text.append(f"  inner element a = {_named(alg, sp.inner_element)}")
            if dec is not None:
                blocks = ideal_endo_blocks(alg, sp.ideal_endo, dec.components)
                scalars = [None if s is None else format_rational(s)
                           for s in blocks.scalars]
                entry["ideal_endo"] = {
                    "scalars": scalars,
                    "offdiag_all_zero": blocks.offdiag_all_zero,
                }
                text.append(
                    "  ideal endomorphism scalars on components: "
                    + ", ".join(s if s is not None else "non-scalar"
                                for s in scalars)
                    + ("" if blocks.offdiag_all_zero
                       else " (nonzero off-diagonal blocks)"))
            else:
                entry["ideal_endo"] = None
                text.append("  ideal endomorphism: module decomposition unavailable")
            rr = raising_map_report(alg, levi, sp.raising_map)
            entry["raising"] = {"classification": rr.classification,
                                "image_dim": rr.image_span.dim}
            text.append(f"  raising map: {rr.classification} "
                        f"(image dimension {rr.image_span.dim})")
            split_docs.append(entry)
        doc["splits"] = split_docs
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text:
            print(line)
    return PASS


def cmd_radical(args: argparse.Namespace) -> int:
    alg, levi = _load(args.file)
    _validate(alg, levi)
    sq = squares_ideal(alg)
    rad = solvable_radical(alg)
    semi = is_semisimple(alg)
    if args.json:
        doc = {
            "command": "radical",
            "algebra": {"name": alg.name, "dim": alg.dim,
                        "basis": list(alg.basis_names)},
            "squares_ideal_dim": sq.dim,
            "radical_dim": rad.dim,
            "radical_equals_squares": rad == sq,
            "semisimple": semi,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"{alg.name or args.file}: dimension {alg.dim}")
        print(f"  squares ideal dimension: {sq.dim}")
        print(f"  solvable radical dimension: {rad.dim}")
        print(f"  semisimple (radical equals squares ideal): "
              f"{'yes' if semi else 'no'}")
    return PASS


def cmd_modules(args: argparse.Namespace) -> int:
    from .sl2 import (irreducible_decomposition_sl2, pair_structure_report,
                      weight_decomposition)
    alg, levi = _load(args.file)
    _validate(alg, levi)
    if levi is None or not levi.sl2_triples:
        print("modules needs a levi block with at least one sl2 triple",
              file=sys.stderr)
        return IO_FAIL
    sq = squares_ideal(alg)
    doc: dict = {
        "command": "modules",
        "algebra": {"name": alg.name, "dim": alg.dim,
                    "basis": list(alg.basis_names)},
        "triples": [],
    }
    text = [f"{alg.name or args.file}: squares ideal dimension {sq.dim}"]
    for idx, raw in enumerate(levi.sl2_triples):
        triple = Sl2Triple.from_indices(alg.dim, raw)
        ws = weight_decomposition(alg, sq, triple)
        weights = [format_rational(w) for w in ws.weights()]
        entry: dict = {"index": idx, "weights": weights,
                       "weights_complete": ws.complete}
        text.append(f"triple {idx} {tuple(raw)}: weights {', '.join(weights) or '-'}")
        try:
            dec = irreducible_decomposition_sl2(alg, sq, triple)
            entry["component_dims"] = [c.dim for c in dec.components]
            entry["highest_weights"] = list(dec.highest_weights)
            text.append(
                f"  irreducible components: "
                f"{entry['component_dims']} with highest weights "
                f"{entry['highest_weights']}")
        except ModuleError as exc:
            entry["component_dims"] = None
            entry["error"] = str(exc)
            text.append(f"  decomposition failed: {exc}")
        doc["triples"].append(entry)
    if len(levi.sl2_triples) == 2:
        rep = pair_structure_report(alg, levi)
        doc["pair_structure"] = {
            "quotient_pair": {"ok": rep.quotient_pair.ok,
                              "message": rep.quotient_pair.message},
            "equal_columns": {"ok": rep.equal_columns.ok,
                              "message": rep.equal_columns.message},
            "doublet_rows": {"ok": rep.doublet_rows.ok,
                             "message": rep.doublet_rows.message},
            "all_pass": rep.all_pass(),
        }
        text.append("paired-column structure:")
        text.extend("  " + line for line in rep.lines())
    else:
        doc["pair_structure"] = None
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text:
            print(line)
    return PASS


def cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import CatalogSpec, build
    try:
        alg, levi = build(CatalogSpec(args.family, args.m),
                          allow_uncertified=args.force)
    except ValueError as exc:
        print(f"catalog: {exc}", file=sys.stderr)
        return IO_FAIL
    payload = dump_algebra_json(alg, levi)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {alg.name} (dimension {alg.dim}) to {args.output}")
    else:
        sys.stdout.write(payload)
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact structure theory of finite-dimensional right "
                    "Leibniz algebras over the rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="validate an algebra file and its identities")
    p_check.add_argument("file")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for the random identity spot checks")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_derive = sub.add_parser(
        "derive", help="compute the derivation algebra and its split")
    p_derive.add_argument("file")
    p_derive.add_argument("--decompose", action="store_true",
                          help="split each basis derivation along the "
                               "declared grading")
    p_derive.add_argument("--json", action="store_true")
    p_derive.set_defaults(func=cmd_derive)

    p_radical = sub.add_parser(
        "radical", help="squares ideal, solvable radical, semisimplicity")
    p_radical.add_argument("file")
    p_radical.add_argument("--json", action="store_true")
    p_radical.set_defaults(func=cmd_radical)

    p_modules = sub.add_parser(
        "modules", help="weight and irreducible module structure of the "
                        "squares ideal")
    p_modules.add_argument("file")
    p_modules.add_argument("--json", action="store_true")
    p_modules.set_defaults(func=cmd_modules)

    p_catalog = sub.add_parser(
        "catalog", help="emit a built-in algebra as schema JSON")
    p_catalog.add_argument("family",
                           help="catalog family; an unknown name lists them")
    p_catalog.add_argument("--m", type=int, default=None,
                           help="module size parameter where applicable")
    p_catalog.add_argument("-o", "--output", default=None)
    p_catalog.add_argument("--force", action="store_true",
                           help="allow members outside the certified range")
    p_catalog.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_FAIL
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return IO_FAIL
    except (InvalidAlgebraError, StructureError, LeviError, ModuleError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
