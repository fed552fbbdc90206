"""Closed-form invariants of the catalog families, and checks against them.

The values come from the repository's tests and README:

- simple m: dim Der 4 (5 at m = 2), inner 3, squares ideal m + 1, one
  component of highest weight m, simplicity verdict "yes", and no raising
  part off the equal-dimension case m = 2;
- pair m: dims (7, 6, 1), every raising part zero, pair-structure report
  all pass; its Lie quotient is sl2 + sl2, so the verdict is "no";
- direct_sum m: dim Der 9 at m = 2 and 8 for m >= 3, inner 6;
- sl2: Lie, dims (3, 3, 0), zero radical;
- two_dim_solvable: [a, a] = b, so Der has dimension 2 (inner 1), the
  squares ideal is span(b) and the whole algebra is its radical.

Every relabeling the benchmark feeds the program is isomorphic to its
catalog member, so these hold for every op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from relabel import split_label


@dataclass(frozen=True)
class Expected:
    der: int
    inner: int
    squares: int
    radical: int
    # highest weights per declared sl2 triple, in component order
    highest_weights: tuple[tuple[int, ...], ...]
    verdict: str | None = None
    raising_zero: bool = False
    pair_all_pass: bool | None = None

    @property
    def semisimple(self) -> bool:
        return self.radical == self.squares


def expected(label: str) -> Expected:
    family, m = split_label(label)
    if family == "sl2":
        return Expected(3, 3, 0, 0, ((),))
    if family == "two_dim_solvable":
        return Expected(2, 1, 1, 2, ())
    if family == "simple":
        return Expected(5 if m == 2 else 4, 3, m + 1, m + 1, ((m,),),
                        verdict="yes", raising_zero=m != 2)
    if family == "pair":
        return Expected(7, 6, 2 * (m + 1), 2 * (m + 1),
                        ((m, m), (1,) * (m + 1)), verdict="no",
                        raising_zero=True, pair_all_pass=True)
    if family == "direct_sum":
        sq = 2 * m + 3
        return Expected(9 if m == 2 else 8, 6, sq, sq,
                        ((m,) + (0,) * (m + 2), (m + 1,) + (0,) * (m + 1)),
                        pair_all_pass=False)
    raise ValueError(f"unknown input class {label!r}")


def weights_of(highest: tuple[int, ...]) -> list[Fraction]:
    """The distinct weights, ascending, of the sum of irreducibles with the
    given highest weights."""
    return sorted({Fraction(w - 2 * k) for w in highest for k in range(w + 1)})


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


# ------------------------------------------------------- CLI report checks

class ReportChecker:
    """Checks one CLI command's exit code and output against the oracle,
    and validates every ``--json`` report against the report schema."""

    def __init__(self, schema_path: Path):
        # Imported here, so that in-process workloads do not load it into
        # the process whose peak RSS they report.
        import jsonschema

        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft202012Validator(schema)

    def check(self, label: str, command: str, seed: int, code: int,
              stdout: str) -> list[str]:
        want = expected(label)
        problems: list[str] = []
        refused = label == "two_dim_solvable" and command in ("derive",
                                                              "modules")
        expect(problems, "exit code", code, 2 if refused else 0)
        if refused or problems:
            return problems
        if command == "check":
            if "check: pass" not in stdout \
                    or f"with seed {seed}: pass" not in stdout:
                problems.append("check output lacks its pass lines")
            return problems
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        problems.extend(f"schema: {err.message}"
                        for err in self._validator.iter_errors(doc))
        if problems:
            return problems
        expect(problems, "command", doc["command"], command)
        if command == "derive":
            dims = doc["dims"]
            expect(problems, "dims", (dims["der"], dims["inner"],
                                      dims["outer"]),
                   (want.der, want.inner, want.der - want.inner))
            splits = doc["splits"]
            expect(problems, "split count", len(splits), want.der)
            if want.raising_zero:
                expect(problems, "raising classifications",
                       {s["raising"]["classification"] for s in splits},
                       {"zero"})
        elif command == "radical":
            expect(problems, "radical report",
                   (doc["squares_ideal_dim"], doc["radical_dim"],
                    doc["radical_equals_squares"], doc["semisimple"]),
                   (want.squares, want.radical, want.semisimple,
                    want.semisimple))
        elif command == "modules":
            triples = doc["triples"]
            expect(problems, "highest weights",
                   tuple(tuple(t.get("highest_weights", ())) for t in triples),
                   want.highest_weights)
            expect(problems, "component dims",
                   [t.get("component_dims") for t in triples],
                   [[w + 1 for w in hw] for hw in want.highest_weights])
            expect(problems, "weights",
                   [sorted(Fraction(w) for w in t["weights"])
                    for t in triples],
                   [weights_of(hw) for hw in want.highest_weights])
            pair = doc["pair_structure"]
            expect(problems, "pair structure",
                   None if pair is None else pair["all_pass"],
                   want.pair_all_pass)
        return problems
