"""Benchmark for leibnizalg: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload split-survey --seed 1 \
        --seconds 30 --trace 0

The program is run from ``src/`` of the checkout the script sits in.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it also runs one traced cycle and reports the per-layer metrics instead.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit.  Per-op times and classes go to ``.perfbench-runs/records/``.  The
exit code is nonzero when any op failed or the checkout has no ``src/``.
See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from child import run_child
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
SETUP_LAUNCHES = 15
SETUP_TIMEOUT_S = 60


def setup_seconds() -> float:
    """Median time, in reference seconds, for a fresh interpreter to import
    the package and its CLI and exit; one untimed launch first fills the
    bytecode cache."""
    cmd = [sys.executable, "-c", "import leibnizalg, leibnizalg.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speedometer = Speedometer()
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        child = run_child(cmd, env, SETUP_TIMEOUT_S)
        if child.returncode != 0 or child.killed:
            raise RuntimeError(f"import failed: {child.stderr}")
        times.append(child.wall_s * speedometer.factor())
    return statistics.median(times[1:])


def class_median(records, cls: str, attr: str) -> tuple[float, int]:
    """Median of ``attr`` over the ops of one class, and how many there
    were.  An op's class is its CLI command, or its input class in
    process.  Where a class spans several op kinds (``check`` on each
    input class), it is the median of the kinds' medians, so that a run
    ending part way through a cycle does not tilt it towards the kinds at
    the start of the cycle."""
    by_kind: dict[tuple, list[float]] = {}
    for r in records:
        if (r.command or r.label) == cls:
            by_kind.setdefault((r.label, r.command), []).append(
                getattr(r, attr))
    return (statistics.median(statistics.median(v) for v in by_kind.values()),
            sum(len(v) for v in by_kind.values()))


def run_ops(workload, seconds: float, tracer=None):
    """Run ops in cycle order: one whole cycle, then on until ``seconds``
    have passed.  Returns the records and the workload's peak RSS in MB at
    the end of the first cycle, so that it does not depend on how many ops
    fit in the run."""
    cycle = workload.cycle()
    records = []
    peak_rss = 0.0
    speedometer = Speedometer()
    start = time.perf_counter()
    while len(records) < len(cycle) or time.perf_counter() - start < seconds:
        label, command = cycle[len(records) % len(cycle)]
        record = workload.run_op(label, command, tracer)
        record.speed = speedometer.factor()
        if not record.ok:
            print(f"FAILED {label} {command or ''}:\n"
                  + "\n".join(record.problems), file=sys.stderr)
        records.append(record)
        if len(records) == len(cycle):
            peak_rss = workload.peak_rss_mb()
    return records, peak_rss


def per_op(records, attr: str) -> float:
    """``attr`` per op of the mix: the mean over op kinds (input class and
    command) of each kind's median.  Every kind weighs the same however
    often it ran, so a run that ends part way through a cycle, or a cycle
    that repeats its reference class, keeps the mix."""
    by_kind: dict[tuple, list[float]] = {}
    for r in records:
        by_kind.setdefault((r.label, r.command), []).append(getattr(r, attr))
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def mix_metrics(workload, records, wall: str, cpu: str) -> dict:
    """Throughput, reference-class median and CPU per op, from the given
    wall and CPU attributes of the records."""
    return {
        "ops_per_s": (1 / per_op(records, wall), "1/s"),
        "ref_op_p50_s": (class_median(records, workload.ref_class, wall)[0],
                         "s"),
        "cpu_s_per_op": (per_op(records, cpu), "s"),
    }


def end_to_end(workload, records, setup_s: float, peak_rss: float) -> dict:
    """The end-to-end metrics, times in reference seconds (see speed.py);
    the raw wall-clock figures are printed beside them."""
    metrics = {"setup_s": (setup_s, "s"),
               **mix_metrics(workload, records, "ref_wall_s", "ref_cpu_s"),
               "peak_rss_mb": (peak_rss, "MB")}
    raw = {f"raw_{name}": entry for name, entry in
           mix_metrics(workload, records, "wall_s", "cpu_s").items()}
    failed = sum(not r.ok for r in records)
    ref_n = class_median(records, workload.ref_class, "wall_s")[1]
    print(f"{workload.name}: {len(records)} ops; reference class "
          f"{workload.ref_class}: {ref_n} samples")
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_rate {failed / len(records):.6g} ({failed}/{len(records)})")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def save_records(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [{"class": r.label, "command": r.command, "wall_s": r.wall_s,
             "cpu_s": r.cpu_s, "speed": r.speed, "ok": r.ok}
            for r in records]
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-files", "split-survey", "sl2-modules"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leibnizalg" / "__init__.py").is_file():
        print(f"no leibnizalg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer, install, layer_metrics, uninstall

    # One CPU for the benchmark and its children, so that the speed kernel
    # calibrates the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = setup_seconds()
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS))
    try:
        workload = workloads.make(args.workload, args.seed, SRC, workdir)
        workload.setup()
        records, peak_rss = run_ops(workload, args.seconds)
        metrics = end_to_end(workload, records, setup_s, peak_rss)
        if args.trace:
            tracer = Tracer()
            undo = install(tracer)
            try:
                traced, _ = run_ops(workload, 0, tracer)
            finally:
                uninstall(undo)
            metrics = layer_metrics(tracer)
            metrics["trace.overhead_frac"] = {
                "value": 1 - per_op(records, "ref_wall_s")
                / per_op(traced, "ref_wall_s"),
                "unit": "fraction"}
            for name, entry in metrics.items():
                print(f"{name} {entry['value']:.6g} {entry['unit']}")
            records += traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    save_records(RUNS / "records" / f"{args.workload}-seed{args.seed}"
                 f"-trace{args.trace}.json", records)
    failed = sum(not r.ok for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
