"""CLI reports pinned byte for byte.

Every case writes a catalog algebra, runs one report command on it through
``cli.main`` and compares exit code, stdout and stderr with
``data/cli_golden.json``.  Each command is pinned as ``--json`` and as
text; catalog members carry names, so no temporary path enters the text.  A change that alters a report on purpose edits
that file by hand and says so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from leibnizalg.cli import PASS, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

ALGEBRAS = {
    "sl2": ("sl2",),
    "simple2": ("simple", "--m", "2"),
    "simple5": ("simple", "--m", "5"),
    "pair2": ("pair", "--m", "2"),
    "pair3": ("pair", "--m", "3"),
    "direct_sum2": ("direct_sum", "--m", "2"),
    "two_dim_solvable": ("two_dim_solvable",),
}

COMMANDS = {
    "check": ("check", "--json", "--seed", "0"),
    "derive": ("derive", "--decompose", "--json"),
    "radical": ("radical", "--json"),
    "modules": ("modules", "--json"),
    "check_text": ("check", "--seed", "0"),
    "derive_text": ("derive",),
    "derive_decompose_text": ("derive", "--decompose"),
    "radical_text": ("radical",),
    "modules_text": ("modules",),
}

CASES = [f"{alg}:{cmd}" for alg in ALGEBRAS for cmd in COMMANDS]


def run_case(case, tmp_path, capsys):
    """(exit code, stdout, stderr) of one report command on one catalog file."""
    alg, cmd = case.split(":")
    path = tmp_path / f"{alg}.json"
    assert main(["catalog", *ALGEBRAS[alg], "-o", str(path)]) == PASS
    capsys.readouterr()
    argv = list(COMMANDS[cmd])
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_report_matches_golden(case, golden, tmp_path, capsys):
    assert run_case(case, tmp_path, capsys) == golden[case]
