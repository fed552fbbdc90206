"""Command-line front end.

Subcommands load an algebra file, run the exact analyses, and emit either
human-readable text or JSON reports.  Exit status is 0 for a clean pass, 1
for a mathematical failure (identity violation, invalid declared split,
undecidable module request), and 2 for I/O or schema problems and for
requests a command cannot serve (no levi block, an unknown catalog
member).

The four analysis commands (``check``, ``derive``, ``radical``,
``modules``) share one report path, ``_analysis``: it loads and validates
the file, starts the JSON doc with the ``command`` and ``algebra`` header,
runs the command's body, which adds its fields and returns its text
lines, and prints the doc under ``--json`` or the lines otherwise.  One
parser helper gives each of them ``file`` and ``--json``.  Each command
imports only the layers it runs, beside ``core`` and ``exactlin``:
``check`` needs no other, ``radical`` needs ``radical``, ``modules`` needs
``sl2``, ``derive`` needs ``derivations`` (and ``sl2`` with
``--decompose``), and only ``catalog`` needs ``catalog``.  No command
needs ``eigen``.
"""

from __future__ import annotations

import argparse
import functools
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
    _product,
    dump_algebra_json,
    ensure_leibniz,
    load_algebra_json,
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

    A vector's coordinates are p/q, p uniform in -6..6 and q in 1..4, its
    numerators and its denominators drawn by one ``rng.choices`` call each.
    Each drawn vector is scaled to integers by the lcm of its denominators
    and multiplied over the integer table (the table times its common
    denominator D).  Every term of [x,[y,z]] - [[x,y],z] + [[x,z],y] then
    scales by the same D²·sx·sy·sz, so the verdict is the exact one."""
    rng = random.Random(seed)

    def rand_row() -> dict[int, int]:
        nums = rng.choices(range(-6, 7), k=alg.dim)
        dens = rng.choices(range(1, 5), k=alg.dim)
        scale = math.lcm(*dens)
        return {i: p * (scale // q) for i, (p, q) in enumerate(zip(nums, dens)) if p}

    for _ in range(SPOT_CHECKS):
        x, y, z = rand_row(), rand_row(), rand_row()
        residual = _product(alg, x, _product(alg, y, z))
        for u, v, w, sign in ((x, y, z, -1), (x, z, y, 1)):
            _accumulate(residual, sign,
                        _product(alg, _product(alg, u, v), w).items())
        if any(residual.values()):
            raise InvalidAlgebraError(
                "random spot check found an identity violation")


class _Refusal(Exception):
    """A request the command cannot serve (no levi block, an unknown or
    out-of-range catalog member); ``main`` prints the message, exit 2."""


def _analysis(run):
    """The report path of the module docstring around one command body.

    ``run(args, alg, levi, doc, validation)`` gets the validation battery's
    lines, adds its fields to ``doc`` and returns its text lines; the first
    follows the algebra's name (or the file path)."""
    @functools.wraps(run)
    def command(args: argparse.Namespace) -> int:
        alg, levi = _load(args.file)
        validation = _validate(alg, levi)
        doc: dict = {"command": args.command,
                     "algebra": {"name": alg.name, "dim": alg.dim,
                                 "basis": list(alg.basis_names)}}
        text = run(args, alg, levi, doc, validation)
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"{alg.name or args.file}: {text[0]}", *text[1:], sep="\n")
        return PASS
    return command


@_analysis
def cmd_check(args, alg, levi, doc, validation):
    _spot_check(alg, args.seed)
    validation.append(f"random spot checks: {SPOT_CHECKS} triples with "
                      f"seed {args.seed}: pass")
    doc.update(leibniz=True, squares_ideal_dim=squares_ideal(alg).dim,
               quotient_is_lie=True, levi_validated=levi is not None,
               random_spot_checks=SPOT_CHECKS, seed=args.seed, passed=True)
    return [f"dimension {alg.dim}", *("  " + line for line in validation),
            "check: pass"]


def _components_for_scalars(alg: Algebra, levi: LeviDatum):
    from .sl2 import irreducible_decomposition_sl2
    if not levi.sl2_triples:
        return None
    triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    try:
        return irreducible_decomposition_sl2(alg, squares_ideal(alg), triple)
    except ModuleError:
        return None


@_analysis
def cmd_derive(args, alg, levi, doc, validation):
    from .derivations import (ideal_endo_blocks, outer_report,
                              raising_map_report, split_all)
    rep = outer_report(alg)
    doc["dims"] = {"der": rep.dim_der, "inner": rep.dim_inner,
                   "outer": rep.dim_outer}
    text = [f"dimension {alg.dim}",
            f"dim Der = {rep.dim_der}, inner = {rep.dim_inner}, "
            f"outer = {rep.dim_outer}"]
    if not args.decompose:
        return text
    if levi is None:
        raise _Refusal("derive --decompose needs a levi block in the input file")
    survey = split_all(alg, levi)
    dec = _components_for_scalars(alg, levi)
    doc["splits"] = []
    for idx, sp in enumerate(survey.splits):
        inner = _named(alg, sp.inner_element)
        entry: dict = {"index": idx, "inner_element": inner}
        text.append(f"derivation basis {idx}:")
        text.append(f"  inner element a = {inner}")
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
        doc["splits"].append(entry)
    return text


@_analysis
def cmd_radical(args, alg, levi, doc, validation):
    from .radical import is_semisimple, solvable_radical
    sq = squares_ideal(alg)
    rad = solvable_radical(alg)
    semi = is_semisimple(alg)
    doc.update(squares_ideal_dim=sq.dim, radical_dim=rad.dim,
               radical_equals_squares=rad == sq, semisimple=semi)
    return [f"dimension {alg.dim}",
            f"  squares ideal dimension: {sq.dim}",
            f"  solvable radical dimension: {rad.dim}",
            f"  semisimple (radical equals squares ideal): "
            f"{'yes' if semi else 'no'}"]


@_analysis
def cmd_modules(args, alg, levi, doc, validation):
    from .sl2 import (irreducible_decomposition_sl2, pair_structure_report,
                      weight_decomposition)
    if levi is None or not levi.sl2_triples:
        raise _Refusal("modules needs a levi block with at least one sl2 triple")
    sq = squares_ideal(alg)
    doc["triples"] = []
    text = [f"squares ideal dimension {sq.dim}"]
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
            **{label: {"ok": check.ok, "message": check.message}
               for label, check in rep.checks()},
            "all_pass": rep.all_pass(),
        }
        text.append("paired-column structure:")
        text.extend("  " + line for line in rep.lines())
    else:
        doc["pair_structure"] = None
    return text


def cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import CatalogSpec, build
    try:
        alg, levi = build(CatalogSpec(args.family, args.m),
                          allow_uncertified=args.force)
    except ValueError as exc:
        raise _Refusal(f"catalog: {exc}") from exc
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

    def report(name, command, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=command)
        return p

    p_check = report("check", cmd_check,
                     "validate an algebra file and its identities")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for the random identity spot checks")
    p_derive = report("derive", cmd_derive,
                      "compute the derivation algebra and its split")
    p_derive.add_argument("--decompose", action="store_true",
                          help="split each basis derivation along the "
                               "declared grading")
    report("radical", cmd_radical,
           "squares ideal, solvable radical, semisimplicity")
    report("modules", cmd_modules,
           "weight and irreducible module structure of the squares ideal")

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
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return IO_FAIL
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
