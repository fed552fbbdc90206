"""Self-tests of the benchmark's own machinery; they run no workload."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import leibnizalg  # noqa: E402
from leibnizalg import (  # noqa: E402
    dump_algebra_json,
    irreducible_decomposition_sl2,
    leibniz_check,
    outer_report,
    squares_ideal,
    validate_levi,
)
from leibnizalg.cli import main as cli_main  # noqa: E402
from leibnizalg.sl2 import Sl2Triple  # noqa: E402

import tracer  # noqa: E402
from oracle import ReportChecker, expected  # noqa: E402
from relabel import InputStream, catalog_member  # noqa: E402
from run import class_median, per_op  # noqa: E402
from workloads import Record, sl2_modules_op, split_survey_op  # noqa: E402


# ----------------------------------------------------------- the generator

def test_stream_never_repeats_an_algebra():
    stream = InputStream(seed=3)
    seen = []
    for _ in range(30):
        alg, _levi = stream.next("simple3")
        assert alg not in seen
        seen.append(alg)


def test_stream_refuses_when_relabelings_run_out():
    stream = InputStream(seed=3)
    sl2_variants = {stream.next("sl2")[0] for _ in range(6)}
    assert len(sl2_variants) == 6          # the 3! basis permutations
    with pytest.raises(RuntimeError):
        stream.next("sl2")


def test_same_seed_gives_same_inputs():
    first = InputStream(7).next("simple3")
    assert InputStream(7).next("simple3") == first
    assert InputStream(8).next("simple3") != first


@pytest.mark.parametrize("label", ["sl2", "two_dim_solvable", "simple3",
                                   "pair1", "direct_sum2"])
def test_relabeling_preserves_invariants(label):
    _base_alg, base_levi = catalog_member(label)
    alg, levi = InputStream(seed=11).next(label)
    assert leibniz_check(alg) == ()
    want = expected(label)
    rep = outer_report(alg)
    assert (rep.dim_der, rep.dim_inner) == (want.der, want.inner)
    assert squares_ideal(alg).dim == want.squares
    if levi is None:
        assert base_levi is None
        return
    validate_levi(alg, levi)
    sq = squares_ideal(alg)
    for raw, hw in zip(levi.sl2_triples, want.highest_weights):
        triple = Sl2Triple.from_indices(alg.dim, raw)
        assert irreducible_decomposition_sl2(alg, sq, triple) \
            .highest_weights == hw


def test_in_process_ops_pass_the_oracle():
    stream = InputStream(seed=5)
    alg, levi = stream.next("simple4")
    assert split_survey_op(alg, levi, expected("simple4")) == []
    alg, levi = stream.next("pair1")
    assert sl2_modules_op(alg, levi, expected("pair1")) == []


def test_oracle_flags_a_wrong_answer():
    alg, levi = InputStream(seed=5).next("simple4")
    assert split_survey_op(alg, levi, expected("simple5"))


# ------------------------------------------------------- CLI report checks

@pytest.mark.parametrize("command,argv,code", [
    ("check", ["--seed", "9"], 0),
    ("derive", ["--decompose", "--json"], 0),
    ("radical", ["--json"], 0),
    ("modules", ["--json"], 0),
])
def test_report_checker_accepts_cli_output(tmp_path, capsys, command, argv,
                                           code):
    alg, levi = InputStream(seed=2).next("simple3")
    path = tmp_path / "simple3.json"
    path.write_text(dump_algebra_json(alg, levi))
    assert cli_main([command, str(path), *argv]) == code
    out = capsys.readouterr().out
    checker = ReportChecker(
        ROOT / "src" / "leibnizalg" / "schemas" / "report.schema.json")
    assert checker.check("simple3", command, 9, code, out) == []
    assert checker.check("simple3", command, 9, 1, out)
    if command == "check":
        assert checker.check("simple3", command, 8, code, out)
    else:
        assert checker.check("pair2", command, 9, code, out)


def test_report_checker_expects_refusals(tmp_path):
    checker = ReportChecker(
        ROOT / "src" / "leibnizalg" / "schemas" / "report.schema.json")
    assert checker.check("two_dim_solvable", "modules", 0, 2, "") == []
    assert checker.check("two_dim_solvable", "modules", 0, 0, "{}")


# ------------------------------------------------------------- the tracer

def test_covered_merges_overlaps_and_clips():
    assert tracer.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert tracer.covered([], 0, 10) == 0


def test_self_time_busy_time_and_repeats():
    spans = [
        ("core.a", 0.0, 10.0, -1, False),
        ("core.b", 1.0, 3.0, 0, False),
        ("core.b", 2.0, 2.5, 1, True),     # re-entry of b inside b
        ("sl2.c", 4.0, 8.0, 0, True),
    ]
    stats = tracer.span_stats(spans)
    assert stats["core.a"]["self_s"] == pytest.approx(10 - 2 - 4)
    assert stats["core.b"]["self_s"] == pytest.approx(1.5 + 0.5)
    assert stats["core.b"]["busy_s"] == pytest.approx(2.0)
    assert stats["core.b"]["calls"] == 2
    assert stats["core.b"]["repeat_calls"] == 1
    assert stats["sl2.c"]["busy_s"] == pytest.approx(4.0)


def test_install_records_spans_and_repeats_per_function():
    stream = InputStream(seed=4)
    original = leibnizalg.core.leibniz_check
    from_vectors = leibnizalg.Subspace.__dict__["from_vectors"]
    rec = tracer.Tracer()
    undo = tracer.install(rec)
    try:
        assert leibnizalg.core.leibniz_check is not original
        leibnizalg.validate_levi(*stream.next("simple3"))  # no op open
        alg, levi = stream.next("simple3")
        rec.begin_op()
        leibnizalg.validate_levi(alg, levi)
        leibnizalg.solvable_radical(alg)
        rec.end_op()
    finally:
        tracer.uninstall(undo)
    assert leibnizalg.core.leibniz_check is original
    assert leibnizalg.leibniz_check is original
    assert leibnizalg.Subspace.__dict__["from_vectors"] is from_vectors
    assert len(rec.ops) == 1
    stats = tracer.span_stats(rec.ops[0])
    # validate_levi and solvable_radical both reach leibniz_check on the
    # same algebra; only the second call repeats it.  A first call of
    # another function on the same argument is not a repeat.
    assert stats["core.leibniz_check"]["calls"] == 2
    assert stats["core.leibniz_check"]["repeat_calls"] == 1
    assert stats["core.solvable_radical"]["repeat_calls"] == 0


def test_traced_op_records_its_own_top_level_calls():
    alg, levi = InputStream(seed=6).next("simple4")
    rec = tracer.Tracer()
    undo = tracer.install(rec)
    try:
        rec.begin_op()
        assert split_survey_op(alg, levi, expected("simple4")) == []
        rec.end_op()
    finally:
        tracer.uninstall(undo)
    stats = tracer.span_stats(rec.ops[0])
    for name in ("core.validate_levi", "derivations.outer_report",
                 "derivations.split_all", "core.solvable_radical"):
        assert stats[name]["calls"] == 1, name
    assert stats["derivations.split_derivation"]["calls"] == 4


def test_layer_metrics_name_every_per_layer_metric():
    metrics = tracer.layer_metrics(tracer.Tracer())
    metrics["trace.overhead_frac"] = {"value": 0.0, "unit": "fraction"}
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared


# -------------------------------------------------------------- statistics

def _record(label, wall, command=None, speed=1.0):
    return Record(label, command, wall, wall, [], speed)


def test_class_median_with_sample_count():
    records = [_record("pair5", 3.0), _record("pair2", 1.0),
               _record("pair5", 5.0), _record("pair5", 4.0),
               _record("sl2", 0.2, "check"), _record("sl2", 0.4, "derive")]
    assert class_median(records, "pair5", "wall_s") == (4.0, 3)
    assert class_median(records, "check", "wall_s") == (0.2, 1)


def test_class_median_weighs_kinds_of_a_class_equally():
    # a partial cycle adds two more checks on the cheap sl2 input; the
    # class median stays at the middle input's check time
    cycle = [("sl2", 0.1), ("simple3", 0.2), ("pair2", 0.5)]
    records = [_record(label, wall, "check")
               for label, wall in cycle + cycle + cycle[:1] + cycle[:1]]
    assert class_median(records, "check", "wall_s") == (0.2, 8)


def test_per_op_weights_each_kind_once_and_rescales():
    records = [_record("pair5", 3.0), _record("pair5", 5.0),
               _record("pair5", 4.0), _record("pair2", 1.0, speed=2.0)]
    assert per_op(records, "wall_s") == pytest.approx((4.0 + 1.0) / 2)
    assert per_op(records, "ref_wall_s") == pytest.approx((4.0 + 2.0) / 2)
