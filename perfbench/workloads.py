"""The three workloads: one op at a time, each op on a fresh input.

Every workload is a closed loop with one client: the next op starts when
the previous one has finished and been checked.  A workload's ``cycle``
lists its ops in a fixed order, and the benchmark weights every op kind
in it equally, so every run measures the same mix.  Inputs are generated
and validated outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Library functions are looked up on the package at call time, so that the
# traced cycle's wrappers (installed on the package's modules) see the ops'
# own calls.
import leibnizalg as la

from child import run_child
from oracle import Expected, ReportChecker, expect, expected, weights_of
from relabel import InputStream
from tracer import Tracer

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


@dataclass
class Record:
    """One op: its input class, CLI command (if any), wall and CPU seconds,
    what the oracle found wrong (empty when correct), and the machine-speed
    factor that turns its seconds into reference seconds."""

    label: str
    command: str | None
    wall_s: float
    cpu_s: float
    problems: list[str] = field(default_factory=list)
    speed: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed


# --------------------------------------------------------- in-process ops

def split_survey_op(alg, levi, want: Expected) -> list[str]:
    """Library equivalent of ``derive --decompose`` plus ``radical``."""
    la.validate_levi(alg, levi)
    rep = la.outer_report(alg)
    survey = la.split_all(alg, levi)
    sq = la.squares_ideal(alg)
    triple = la.Sl2Triple.from_indices(alg.dim, levi.sl2_triples[0])
    dec = la.irreducible_decomposition_sl2(alg, sq, triple)
    raising = []
    for sp in survey.splits:
        la.ideal_endo_blocks(alg, sp.ideal_endo, dec.components)
        report = la.raising_map_report(alg, levi, sp.raising_map)
        raising.append((report.classification, sp.raising_map.is_zero()))
    rad = la.solvable_radical(alg)
    problems: list[str] = []
    expect(problems, "der, inner", (rep.dim_der, rep.dim_inner),
           (want.der, want.inner))
    expect(problems, "split count", len(survey.splits), want.der)
    expect(problems, "squares, radical", (sq.dim, rad.dim),
           (want.squares, want.radical))
    expect(problems, "radical equals squares", rad == sq, want.semisimple)
    expect(problems, "first-triple highest weights", dec.highest_weights,
           want.highest_weights[0])
    if want.raising_zero:
        expect(problems, "raising parts", set(raising), {("zero", True)})
    return problems


def sl2_modules_op(alg, levi, want: Expected) -> list[str]:
    """Weights and irreducible components per triple, the simplicity
    certificate, and the pair-structure report on pair inputs."""
    sq = la.squares_ideal(alg)
    found = []
    for raw in levi.sl2_triples:
        triple = la.Sl2Triple.from_indices(alg.dim, raw)
        ws = la.weight_decomposition(alg, sq, triple)
        dec = la.irreducible_decomposition_sl2(alg, sq, triple)
        found.append((ws.complete, sorted(ws.weights()), dec.highest_weights))
    cert = la.is_simple_certified(alg, levi)
    pair = la.pair_structure_report(alg, levi) \
        if len(levi.sl2_triples) == 2 else None
    problems: list[str] = []
    expect(problems, "squares", sq.dim, want.squares)
    expect(problems, "weights and highest weights", found,
           [(True, weights_of(hw), hw)
            for hw in want.highest_weights])
    expect(problems, "verdict", cert.verdict, want.verdict)
    expect(problems, "pair structure",
           None if pair is None else pair.all_pass(), want.pair_all_pass)
    return problems


class InProcess:
    """A workload whose ops call the library in the benchmark process."""

    def __init__(self, name: str, op, classes: tuple[str, ...],
                 ref_class: str, seed: int):
        """``classes`` is the cycle; it lists the reference class three
        times, spread out, so a run holds more reference samples."""
        self.name = name
        self._op = op
        self.classes = classes
        self.ref_class = ref_class
        self._inputs = InputStream(seed)

    def setup(self) -> None:
        pass

    @staticmethod
    def peak_rss_mb() -> float:
        """Peak RSS of the benchmark process, which runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def cycle(self) -> list[tuple[str, str | None]]:
        return [(label, None) for label in self.classes]

    def run_op(self, label: str, command: None,
               tracer: Tracer | None) -> Record:
        alg, levi = self._inputs.next(label)
        want = expected(label)
        if tracer is not None:
            tracer.begin_op()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            problems = self._op(alg, levi, want)
        except Exception:  # an op that raises counts as failed
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end_op()
        try:
            la.validate_levi(alg, levi)
        except Exception as exc:
            problems.append(f"generated input invalid: {exc}")
        return Record(label, None, wall, cpu, problems)


# ------------------------------------------------------------- CLI files

CLI_COMMANDS = {
    "check": ("check", "--seed"),
    "derive": ("derive", "--decompose", "--json"),
    "radical": ("radical", "--json"),
    "modules": ("modules", "--json"),
}
FILES_PER_CLASS = 4


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class CliFiles:
    """Sequential ``python -m leibnizalg.cli`` subprocesses on files written
    during set-up; each command pays interpreter start, import, JSON load
    and the CLI's validation battery."""

    name = "cli-files"
    classes = ("sl2", "two_dim_solvable", "simple2", "simple3", "simple4",
               "simple6", "pair1", "pair2", "direct_sum2")
    ref_class = "check"

    def __init__(self, seed: int, src: Path, workdir: Path):
        """``workdir`` is an existing directory the caller removes."""
        self._seed = seed
        self._workdir = workdir
        self._rng = random.Random(seed ^ 0x5EED)
        self._files: dict[str, list[Path]] = {}
        self._uses: dict[str, int] = {}
        self._checker = ReportChecker(
            src / "leibnizalg" / "schemas" / "report.schema.json")
        self._env = dict(os.environ, PYTHONPATH=str(src))

    def setup(self) -> None:
        """Write FILES_PER_CLASS relabelings of each class, each validated
        in this process (the subprocesses share no cache with it)."""
        inputs = InputStream(self._seed)
        for label in self.classes:
            paths = []
            for copy in range(FILES_PER_CLASS):
                alg, levi = inputs.next(label)
                if la.leibniz_check(alg):
                    raise RuntimeError(f"generated {label} is not Leibniz")
                if levi is not None:
                    la.validate_levi(alg, levi)
                path = self._workdir / f"{label}-{copy}.json"
                path.write_text(la.dump_algebra_json(alg, levi),
                                encoding="utf-8")
                paths.append(path)
            self._files[label] = paths
            self._uses[label] = 0

    def cycle(self) -> list[tuple[str, str | None]]:
        return [(label, command) for label in self.classes
                for command in CLI_COMMANDS]

    def run_op(self, label: str, command: str,
               tracer: Tracer | None) -> Record:
        use = self._uses[label]
        self._uses[label] = use + 1
        path = self._files[label][use // len(CLI_COMMANDS) % FILES_PER_CLASS]
        seed = self._rng.randrange(1 << 30)
        argv = [command, str(path), *CLI_COMMANDS[command][1:]]
        if command == "check":
            argv.append(str(seed))
        spans_path = self._workdir / f"spans-{label}-{use}.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "leibnizalg.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans_path),
                   *argv]
        cpu0 = _children_cpu()
        child = run_child(cmd, self._env, CLI_TIMEOUT_S)
        wall = child.wall_s
        cpu = _children_cpu() - cpu0
        if child.killed:
            return Record(label, command, wall, cpu,
                          [f"killed after {CLI_TIMEOUT_S} s"])
        problems = self._checker.check(label, command, seed, child.returncode,
                                       child.stdout)
        if tracer is not None:
            spans = [tuple(s) for s in json.loads(spans_path.read_text())]
            spans_path.unlink()
            tracer.ops.append(spans)
            main = sum(end - start for name, start, end, parent, _ in spans
                       if name == "cli.main" and parent < 0)
            tracer.start_s += wall - main
        return Record(label, command, wall, cpu, problems)

    @staticmethod
    def peak_rss_mb() -> float:
        """Peak RSS of the largest child process waited for so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


SPLIT_CLASSES = ("pair5", "pair2", "direct_sum2", "simple4", "pair5",
                 "pair3", "simple6", "pair5", "pair4", "direct_sum3",
                 "simple8")
SL2_CLASSES = ("simple16", "simple12", "pair4", "simple16", "simple14",
               "simple15", "simple16", "pair6")


def make(name: str, seed: int, src: Path, workdir: Path):
    if name == "cli-files":
        return CliFiles(seed, src, workdir)
    if name == "split-survey":
        return InProcess(name, split_survey_op, SPLIT_CLASSES, "pair5", seed)
    if name == "sl2-modules":
        return InProcess(name, sl2_modules_op, SL2_CLASSES, "simple16", seed)
    raise ValueError(f"unknown workload {name!r}")
