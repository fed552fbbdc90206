#!/usr/bin/env python3
"""Compare two checkouts op by op, in one process.

    python3 scripts/ab_ops.py PARENT_DIR CHANGE_DIR WORKLOAD ROUNDS

Each directory is a checkout of this repository (it has ``src/`` and
``perfbench/``).  The script imports both checkouts' ``leibnizalg`` and
``perfbench`` modules into this one process and builds the in-process
WORKLOAD (``sl2-modules`` or ``split-survey``) of each from the same seed,
so both see the same inputs.  Each round runs the workload's cycle once,
op by op, alternating the two checkouts on each op and which one goes
first.  Before each op the ``sys.modules`` entries of the checkout about to
run are put back, because the library imports some of its modules at call
time.

It prints, per input class, the median wall time of each side and their
ratio.  Then, weighing every class the same however often the cycle lists
it, as ``perfbench/run.py`` weighs a mix: the ratio of the mean class
medians (CHANGE / PARENT; below 1 means the change is faster) with the
ops/s gain it gives, and the median of the paired per-op ratios.  The last
line gives the quartiles of each side's ops/s per round (1 / the mean over
classes of the round's medians) and the number of rounds in which the
change had the higher ops/s.  Both sides run on one interpreter, one CPU
and the same heap, so machine noise that shifts whole processes cancels; a
run of a checkout against itself shows the spread that remains.  It exits with 1
when an op of either side fails its oracle.  This complements the
benchmark (``perfbench/run.py``), which times each checkout in its own
process.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
from pathlib import Path

SEED = 2718
WORKLOADS = ("sl2-modules", "split-survey")


def owned(name: str, stems: set[str]) -> bool:
    return name == "leibnizalg" or name.startswith("leibnizalg.") or name in stems


def load(checkout: Path, workload: str, workdir: Path):
    """The checkout's modules, as ``sys.modules`` entries, and its
    workload; the entries are taken out of ``sys.modules`` again."""
    bench = checkout / "perfbench"
    stems = {p.stem for p in bench.glob("*.py")}
    for name in [n for n in sys.modules if owned(n, stems)]:
        del sys.modules[name]
    sys.path[:0] = [str(checkout / "src"), str(bench)]
    try:
        workloads = importlib.import_module("workloads")
        made = workloads.make(workload, SEED, checkout / "src", workdir)
    finally:
        del sys.path[:2]
    modules = {n: m for n, m in sys.modules.items() if owned(n, stems)}
    for name in modules:
        del sys.modules[name]
    return modules, made


def run(side, label):
    modules, workload = side
    sys.modules.update(modules)
    try:
        return workload.run_op(label, None, None)
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("rounds", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [load(d.resolve(), args.workload, Path(tmp))
                 for d in (args.parent, args.change)]
        cycle = [label for label, _ in sides[0][1].cycle()]
        # walls[s][r][label]: side s's wall times of label's ops in round r
        walls: tuple[list[dict[str, list[float]]], ...] = ([], [])
        ratios, failed = [], 0
        for r in range(args.rounds):
            for s in (0, 1):
                walls[s].append({label: [] for label in cycle})
            for k, label in enumerate(cycle):
                order = (0, 1) if (r + k) % 2 == 0 else (1, 0)
                records = {s: run(sides[s], label) for s in order}
                for s, rec in records.items():
                    walls[s][r][label].append(rec.wall_s)
                    if not rec.ok:
                        failed += 1
                        print(f"side {s} failed on {label}: {rec.problems[0]}",
                              file=sys.stderr)
                ratios.append(records[1].wall_s / records[0].wall_s)
    medians = {label: [statistics.median(w for round_ in walls[s]
                                         for w in round_[label])
                       for s in (0, 1)] for label in walls[0][0]}
    print(f"{'class':<14}{'parent ms':>11}{'change ms':>11}{'ratio':>8}")
    for label, (ma, mb) in medians.items():
        print(f"{label:<14}{ma * 1e3:>11.3f}{mb * 1e3:>11.3f}{mb / ma:>8.3f}")
    pa, pb = (statistics.fmean(m[s] for m in medians.values()) for s in (0, 1))
    print(f"mean op time ratio {pb / pa:.3f} (ops/s {pa / pb - 1:+.1%}); "
          f"median per-op ratio {statistics.median(ratios):.3f} "
          f"over {len(ratios)} pairs")
    ops_per_s = [[1 / statistics.fmean(map(statistics.median, round_.values()))
                  for round_ in walls[s]] for s in (0, 1)]
    quartiles = [statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                 for v in ops_per_s]
    won = sum(b > a for a, b in zip(*ops_per_s))
    print("ops/s by round, quartiles: "
          + "; ".join(f"{side} {q[0]:.1f} {q[1]:.1f} {q[2]:.1f}"
                      for side, q in zip(("parent", "change"), quartiles))
          + f"; change won {won} of {args.rounds} rounds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
