"""Smoke tests for the utilities in scripts/, run as a user runs them."""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

from leibnizalg import derivation_algebra, dump_algebra_json, load_algebra_json
from leibnizalg.catalog import simple_sl2_leibniz

ROOT = Path(__file__).resolve().parents[1]

SURVEY_TABLE = """\
label             dim  der  inner  outer  radical  semisimple  raising       scalars
sl2               3    3    3      0      0        True        zero          ()
two_dim_solvable  2    2    1      1      2        False       -             -
simple_m2         6    5    3      2      3        True        nonzero,zero  (-1) (0) (1)
simple_m3         7    4    3      1      4        True        zero          (-3/2) (0) (1)
simple_m4         8    4    3      1      5        True        zero          (-2) (0) (1)
pair_m1           10   7    6      1      4        True        zero          (-1/2, -1/2) (0, 0) (1, 1) (1/2, 1/2)
pair_m2           12   7    6      1      6        True        zero          (-1, -1) (0, 0) (1, 1) (1/2, 1/2)
direct_sum_m2_m3  13   9    6      3      7        True        nonzero,zero  (-1, 0, 0, 0, 0) (0, -3/2, -3/2, -3/2, -3/2) (0, 0, 0, 0, 0) (0, 1, 1, 1, 1) (1, 0, 0, 0, 0)

"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_derivation_survey_table():
    lines = run_script("derivation_survey.py").splitlines()
    assert re.fullmatch(r"8 algebras surveyed in \d+\.\d\ds", lines[-1])
    assert "".join(line.rstrip() + "\n" for line in lines[:-1]) == SURVEY_TABLE


def test_export_catalog_files_round_trip(tmp_path):
    run_script("export_catalog.py", str(tmp_path))
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 8
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert dump_algebra_json(*load_algebra_json(text)) == text


def test_ab_ops_runs_a_checkout_against_itself():
    out = run_script("ab_ops.py", str(ROOT), str(ROOT), "sl2-modules", "1")
    lines = out.splitlines()
    assert lines[0].split() == ["class", "parent", "ms", "change", "ms", "ratio"]
    classes = [line.split()[0] for line in lines[1:-2]]
    assert classes == ["simple16", "simple12", "pair4", "simple14", "simple15",
                       "pair6"]
    assert re.fullmatch(r"mean op time ratio \d\.\d{3} \(ops/s [+-]\d+\.\d%\); "
                        r"median per-op ratio \d\.\d{3} over 8 pairs", lines[-2])
    assert re.fullmatch(r"ops/s by round, quartiles: parent( \d+\.\d){3}; "
                        r"change( \d+\.\d){3}; change won [01] of 1 rounds", lines[-1])


FAILING_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_drawn_failure(x):
    assert x != x


def test_plain_failure():
    assert False
"""


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # with every warning an error, a deprecation raised in hypothesis's
    # report hook would stop the run with an INTERNALERROR after the first
    # failure; the project's warning filters must let both failures through
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_failing.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "2 failed" in done.stdout.splitlines()[-1]


def test_bench_times_a_rung_in_a_child_and_writes_its_file(tmp_path):
    out = run_script("bench.py", "smoke", "--rung", "simple:8", "--k", "1",
                     "--out", str(tmp_path))
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert report.keys() == {"label", "python", "cpus", "python_c_pass_s", "k", "rungs"}
    assert report["label"] == "smoke" and report["k"] == 1
    assert report["python"] == platform.python_version()
    assert report["python_c_pass_s"] > 0
    [rung] = report["rungs"]
    assert rung.keys() == {"rung", "dim", "unknowns", "der_dim", "cpu_s",
                           "cpu_s_runs", "peak_rss_mb"}
    assert (rung["rung"], rung["dim"], rung["unknowns"]) == ("simple:8", 12, 144)
    assert rung["der_dim"] == derivation_algebra(simple_sl2_leibniz(8)[0]).dim
    assert len(rung["cpu_s_runs"]) == 1 and rung["cpu_s"] == rung["cpu_s_runs"][0] >= 0
    assert rung["peak_rss_mb"] > 0
    assert json.loads(out) == rung
