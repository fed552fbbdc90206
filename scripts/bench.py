#!/usr/bin/env python3
"""Time the derivation kernel on a ladder of catalog sizes.

    python3 scripts/bench.py LABEL [--src CHECKOUT] [--k K] [--rung KIND:M ...]
                             [--out DIR]

Each rung (``pair:M`` is ``semisimple_pair(M)``, ``simple:M`` is
``simple_sl2_leibniz(M)``) runs in a child process of its own, with
``PYTHONDONTWRITEBYTECODE=1`` and the checkout's ``src/`` on the path.  The
child builds the algebra, then solves its derivation kernel K times with the
cache bypassed (``derivation_algebra.__wrapped__``), and reports the CPU
seconds of each run and its own peak RSS.  The file records, per rung, the
median of those CPU times and the peak RSS; for the machine, the Python
version, the CPU count and the median wall time of ``python -c pass``, so
that a slow machine can be told apart from a slow change.  A rung whose
child runs longer than ``CAP_S`` seconds is recorded as capped.

The result goes to ``BENCH_<LABEL>.json`` in DIR, by default the root of
this repository.  ``--src`` points at another checkout of the repository,
say an unpacked copy of a parent commit, whose code is timed instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNGS = ("pair:48", "simple:192", "simple:384", "simple:1000")
CAP_S = 600

CHILD = """
import json, resource, sys, time
from leibnizalg.catalog import semisimple_pair, simple_sl2_leibniz
from leibnizalg.derivations import derivation_algebra
kind, m, k = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
alg, _ = {"pair": semisimple_pair, "simple": simple_sl2_leibniz}[kind](m)
cpu = []
for _ in range(k):
    start = time.process_time()
    der = derivation_algebra.__wrapped__(alg)
    cpu.append(time.process_time() - start)
print(json.dumps({"dim": alg.dim, "der_dim": der.dim, "cpu_s_runs": cpu,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_rung(rung: str, k: int, env: dict[str, str]) -> dict:
    kind, m = rung.split(":")
    try:
        done = subprocess.run([sys.executable, "-c", CHILD, kind, m, str(k)],
                              capture_output=True, text=True, env=env, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return {"rung": rung, "capped_s": CAP_S}
    if done.returncode:
        raise SystemExit(f"rung {rung} failed:\n{done.stderr}")
    out = json.loads(done.stdout)
    return {"rung": rung, "dim": out["dim"], "unknowns": out["dim"] ** 2,
            "der_dim": out["der_dim"], "cpu_s": statistics.median(out["cpu_s_runs"]),
            "cpu_s_runs": out["cpu_s_runs"], "peak_rss_mb": round(out["peak_rss_mb"], 1)}


def python_start_s(runs: int = 5) -> float:
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--src", type=Path, default=ROOT,
                    help="checkout whose src/ is timed (default: this one)")
    ap.add_argument("--k", type=int, default=3, help="kernel runs per rung")
    ap.add_argument("--rung", action="append", dest="rungs",
                    help=f"KIND:M, repeatable (default: {' '.join(RUNGS)})")
    ap.add_argument("--out", type=Path, default=ROOT,
                    help="directory of the BENCH file (default: the repository root)")
    args = ap.parse_args(argv)
    env = child_env(args.src.resolve())
    result = {
        "label": args.label,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "python_c_pass_s": python_start_s(),
        "k": args.k,
        "rungs": [run_rung(rung, args.k, env) for rung in args.rungs or RUNGS],
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for rung in result["rungs"]:
        print(json.dumps(rung))
    return 0


if __name__ == "__main__":
    sys.exit(main())
