"""One-shot stage timings for the ROADMAP baseline rows.

Usage (from the repository root):

    python3 perfbench/ladder.py [--cap 60] [--out perfbench/LADDER.md]

Rows: ``semisimple_pair(m)`` for m = 8 and 12 (``leibniz_check``, the
derivation nullspace, ``split_all``) and ``simple_sl2_leibniz(m)`` for
m = 14, 16, 18 and 20 (``irreducible_decomposition_sl2`` of the squares
ideal).  Each stage runs once in its own interpreter, so no cache is
shared between stages, and is killed after ``--cap`` seconds; such a stage
reads "> cap".  Work a stage depends on but does not measure (the
derivation basis for ``split_all``, the squares ideal for the
decomposition) runs first, untimed.  This is not a benchmark workload: it
takes one sample per stage.
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

STAGES = (
    [("pair", m, stage) for m in (8, 12)
     for stage in ("leibniz_check", "nullspace", "split_all")]
    + [("simple", m, "decomposition") for m in (14, 16, 18, 20)])


def run_stage(family: str, m: int, stage: str) -> float:
    """Seconds for one stage, measured in this process."""
    sys.path.insert(0, str(SRC))
    from leibnizalg import (
        Sl2Triple,
        derivation_algebra,
        irreducible_decomposition_sl2,
        leibniz_check,
        split_all,
        squares_ideal,
    )
    from leibnizalg.catalog import semisimple_pair, simple_sl2_leibniz

    if family == "pair":
        alg, levi = semisimple_pair(m)
        if stage == "split_all":
            derivation_algebra(alg)
        work = {"leibniz_check": lambda: leibniz_check(alg),
                "nullspace": lambda: derivation_algebra(alg),
                "split_all": lambda: split_all(alg, levi)}[stage]
    else:
        alg, levi = simple_sl2_leibniz(m)
        sq = squares_ideal(alg)
        triple = Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])

        def work():
            return irreducible_decomposition_sl2(alg, sq, triple)
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cap", type=float, default=60.0,
                        help="seconds after which a stage is killed")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the table to this Markdown file")
    parser.add_argument("--stage", nargs=3, metavar=("FAMILY", "M", "STAGE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stage:
        family, m, stage = args.stage
        print(repr(run_stage(family, int(m), stage)))
        return 0
    lines = [
        "| input | dim | stage | seconds |",
        "|---|---|---|---|",
    ]
    print("\n".join(lines), flush=True)
    for family, m, stage in STAGES:
        dim = 2 * (m + 4) if family == "pair" else m + 4
        cmd = [sys.executable, __file__, "--stage", family, str(m), stage]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True, timeout=args.cap)
            shown = f"{float(proc.stdout):.3f}"
        except subprocess.TimeoutExpired:
            shown = f"> {args.cap:g} (killed)"
        name = "semisimple_pair" if family == "pair" else "simple_sl2_leibniz"
        lines.append(f"| `{name}({m})` | {dim} | `{stage}` | {shown} |")
        print(lines[-1], flush=True)
    if args.out:
        header = [
            "# ROADMAP ladder",
            "",
            f"Written by `python3 perfbench/ladder.py --cap {args.cap:g} "
            f"--out {args.out}`: one sample per stage, each in a fresh "
            f"interpreter, on Python {platform.python_version()}, "
            f"{cpu_model()}, {os.cpu_count()} CPUs.",
            "",
        ]
        args.out.write_text("\n".join(header + lines) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
