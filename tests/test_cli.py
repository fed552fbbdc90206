"""End-to-end command-line behaviour: exit codes, text output, JSON
reports against their schema, and byte-stable serialization."""

import json
import random
from fractions import Fraction as F
from importlib import resources

import jsonschema
import pytest

from leibnizalg import Algebra, InvalidAlgebraError
from leibnizalg.catalog import CatalogSpec, semisimple_pair, standard_catalog
from leibnizalg.cli import IO_FAIL, MATH_FAIL, PASS, SPOT_CHECKS, _spot_check, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    ref = resources.files("leibnizalg") / "schemas" / name
    return json.loads(ref.read_text())


@pytest.fixture
def simple3(tmp_path, capsys):
    path = tmp_path / "simple3.json"
    code, _, _ = run(capsys, "catalog", "simple", "--m", "3",
                     "-o", str(path))
    assert code == PASS
    return path


# -------------------------------------------------------------- exit codes

def test_check_passes_on_catalog_output(simple3, capsys):
    code, out, _ = run(capsys, "check", str(simple3))
    assert code == PASS
    assert "check: pass" in out


def test_check_seed_accepted(simple3, capsys):
    code, _, _ = run(capsys, "check", str(simple3), "--seed", "7")
    assert code == PASS


def test_corrupted_coefficient_fails_math(simple3, tmp_path, capsys):
    doc = json.loads(simple3.read_text())
    doc["products"][0]["result"][0]["c"] = "17"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(bad))
    assert code == MATH_FAIL
    assert "failure" in err


def test_leibniz_failure_names_its_only_triple(tmp_path, capsys):
    # [u, u] = u fails the identity on exactly one triple
    doc = {"name": "idempotent", "dim": 1, "basis": ["u"],
           "products": [{"left": 0, "right": 0,
                         "result": [{"k": 0, "c": "1"}]}]}
    path = tmp_path / "idempotent.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path))
    assert code == MATH_FAIL
    assert "(u, u, u)" in err
    assert "0 more" not in err


def test_malformed_json_is_io_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == IO_FAIL
    assert err


@pytest.mark.parametrize("command, text", [
    pytest.param(command, text, id=command + suffix)
    for suffix, text in (
        ("", "[" * 100_000),
        ("-huge_int", '{"name": "", "dim": 1' + "0" * 5000
                      + ', "basis": [], "products": []}'))
    for command in ("check", "radical", "derive", "modules")])
def test_deeply_nested_json_is_schema_error(command, text, tmp_path, capsys):
    # deeper than the decoder's recursion limit, or an integer literal
    # longer than the interpreter converts: no traceback, and the exit code
    # of an unreadable file, not of a mathematical failure
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, command, str(bad))
    assert code == IO_FAIL
    assert out == ""
    assert err.startswith("schema error: not valid JSON")


def test_non_utf8_file_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "check", str(bad))
    assert code == IO_FAIL
    assert out == ""
    assert err.startswith("schema error: not UTF-8 text")


def test_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == IO_FAIL


def test_duplicate_target_index_is_io_error(simple3, tmp_path, capsys):
    doc = json.loads(simple3.read_text())
    entry = doc["products"][0]
    entry["result"].append({"k": entry["result"][0]["k"], "c": "1"})
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(bad))
    assert code == IO_FAIL


def test_duplicate_levi_index_fails_math(tmp_path, capsys):
    path = tmp_path / "simple2.json"
    run(capsys, "catalog", "simple", "--m", "2", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["levi"]["g"].append(doc["levi"]["g"][0])
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path))
    assert code == MATH_FAIL
    assert "declared index sets do not partition the basis" in err


def test_decompose_needs_levi(tmp_path, capsys):
    path = tmp_path / "solv.json"
    code, _, _ = run(capsys, "catalog", "two_dim_solvable", "-o", str(path))
    assert code == PASS
    code, _, err = run(capsys, "derive", str(path), "--decompose")
    assert code == IO_FAIL
    assert "levi" in err.lower()


def test_decompose_on_non_semisimple_complement_fails_math(tmp_path, capsys):
    # a valid split whose complement is abelian: check passes, but no right
    # multiplication matches the derivation that scales t1, so the split
    # fails; the failure is a report, not an escaping exception
    doc = {"name": "a", "dim": 3, "basis": ["t1", "t2", "u"],
           "products": [{"left": 2, "right": 0,
                         "result": [{"k": 2, "c": "1"}]}],
           "levi": {"g": [0, 1], "i": [2]}}
    path = tmp_path / "abelian_complement.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "check", str(path))[0] == PASS
    code, _, err = run(capsys, "derive", str(path), "--decompose")
    assert code == MATH_FAIL
    assert err.startswith("failure:")


def test_modules_need_triples(tmp_path, capsys):
    path = tmp_path / "solv.json"
    run(capsys, "catalog", "two_dim_solvable", "-o", str(path))
    code, _, err = run(capsys, "modules", str(path))
    assert code == IO_FAIL


def test_catalog_refuses_unverified_size(tmp_path, capsys):
    for family in ("simple", "direct_sum"):
        code, _, err = run(capsys, "catalog", family, "--m", "1")
        assert code == IO_FAIL
        assert "--force" in err
        path = tmp_path / f"{family}1.json"
        code, _, _ = run(capsys, "catalog", family, "--m", "1", "--force",
                         "-o", str(path))
        assert code == PASS
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == PASS
        doc = json.loads(out)
        assert doc["passed"] and doc["levi_validated"]
        assert "_uncertified" in doc["algebra"]["name"]


def test_catalog_rejects_bad_m(capsys):
    code, _, err = run(capsys, "catalog", "pair", "--m", "0")
    assert code == IO_FAIL


def test_catalog_unknown_family_lists_the_families(capsys):
    code, out, err = run(capsys, "catalog", "so3")
    assert code == IO_FAIL
    assert out == ""
    assert err.startswith("catalog: unknown family 'so3'")
    assert all(family in err for family in CatalogSpec.FAMILIES)


@pytest.mark.parametrize("family", ["sl2", "two_dim_solvable"])
def test_catalog_rejects_m_for_fixed_families(family, capsys):
    code, out, err = run(capsys, "catalog", family, "--m", "3")
    assert code == IO_FAIL
    assert out == ""
    assert err.startswith("catalog: ") and "takes no parameter m" in err


@pytest.mark.parametrize("command", ["check", "derive", "radical", "modules"])
def test_analysis_help_lists_file_and_json(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == PASS
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.startswith(f"usage: leibnizalg {command} ")
    assert usage.endswith(" file") and "[--json]" in usage


# ------------------------------------------------------------- text output

def test_derive_dimension_line(simple3, capsys):
    code, out, _ = run(capsys, "derive", str(simple3))
    assert code == PASS
    assert "dim Der = 4, inner = 3, outer = 1" in out


def test_derive_decompose_reports_split(simple3, capsys):
    code, out, _ = run(capsys, "derive", str(simple3), "--decompose")
    assert code == PASS
    assert "raising" in out.lower()


def test_radical_text(tmp_path, capsys):
    path = tmp_path / "pair.json"
    run(capsys, "catalog", "pair", "--m", "1", "-o", str(path))
    code, out, _ = run(capsys, "radical", str(path))
    assert code == PASS
    assert "0" in out


def test_modules_text_for_pair(tmp_path, capsys):
    path = tmp_path / "pair.json"
    run(capsys, "catalog", "pair", "--m", "2", "-o", str(path))
    code, out, _ = run(capsys, "modules", str(path))
    assert code == PASS
    assert "pair" in out.lower() or "triple" in out.lower()


# ------------------------------------------------------------ round trips

def test_catalog_emit_parse_emit_is_identity(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(capsys, "catalog", "pair", "--m", "1", "-o", str(first))
    from leibnizalg import dump_algebra_json, load_algebra_json
    alg, levi = load_algebra_json(first.read_text())
    second.write_text(dump_algebra_json(alg, levi))
    assert first.read_bytes() == second.read_bytes()


def test_catalog_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "catalog", "direct_sum", "-o", str(a))
    run(capsys, "catalog", "direct_sum", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_catalog_stdout_matches_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "catalog", "sl2", "-o", str(path))
    code, out, _ = run(capsys, "catalog", "sl2")
    assert code == PASS
    assert out == path.read_text()


# ------------------------------------------------------------ json schema

def test_algebra_files_validate(tmp_path, capsys):
    algebra_schema = schema("algebra.schema.json")
    for family, m in [("sl2", None), ("simple", 2), ("pair", 1),
                      ("two_dim_solvable", None), ("direct_sum", None)]:
        path = tmp_path / f"{family}.json"
        argv = ["catalog", family, "-o", str(path)]
        if m is not None:
            argv[2:2] = ["--m", str(m)]
        code, _, _ = run(capsys, *argv)
        assert code == PASS
        jsonschema.validate(json.loads(path.read_text()), algebra_schema)


def test_reports_validate(simple3, tmp_path, capsys):
    report_schema = schema("report.schema.json")
    pair = tmp_path / "pair.json"
    run(capsys, "catalog", "pair", "--m", "1", "-o", str(pair))
    for argv in (["check", str(simple3), "--json"],
                 ["derive", str(simple3), "--decompose", "--json"],
                 ["radical", str(simple3), "--json"],
                 ["modules", str(pair), "--json"]):
        code, out, _ = run(capsys, *argv)
        assert code == PASS, argv
        jsonschema.validate(json.loads(out), report_schema)


def test_json_reports_deterministic(simple3, capsys):
    _, out1, _ = run(capsys, "derive", str(simple3), "--decompose", "--json")
    _, out2, _ = run(capsys, "derive", str(simple3), "--decompose", "--json")
    assert out1 == out2


# ------------------------------------------------------------ spot checks

def fraction_spot_check_passes(alg, seed):
    """The spot check in Fraction arithmetic on dense vectors, drawing the
    same triples as ``_spot_check``: the reference its integer rows must
    agree with."""
    rng = random.Random(seed)

    def rand_vec():
        nums = rng.choices(range(-6, 7), k=alg.dim)
        dens = rng.choices(range(1, 5), k=alg.dim)
        return tuple(F(p, q) for p, q in zip(nums, dens))

    for _ in range(SPOT_CHECKS):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        lhs = alg.product(x, alg.product(y, z))
        rhs = tuple(a - b for a, b in zip(alg.product(alg.product(x, y), z),
                                          alg.product(alg.product(x, z), y)))
        if lhs != rhs:
            return False
    return True


def spot_check_passes(alg, seed):
    try:
        _spot_check(alg, seed)
    except InvalidAlgebraError:
        return False
    return True


def single_constant_corruptions(alg):
    """Each structure constant c of the table replaced by c + 1/3, then
    each of a few absent products set to 1/2 at one target."""
    table = dict(alg.table_items())
    for pair, entries in sorted(table.items()):
        for pos, (k, c) in enumerate(entries):
            changed = list(entries)
            changed[pos] = (k, c + F(1, 3))
            yield Algebra(alg.dim, {**table, pair: changed}, alg.basis_names)
    absent = [(i, j) for i in range(alg.dim) for j in range(alg.dim)
              if (i, j) not in table]
    for i, j in absent[::7]:
        yield Algebra(alg.dim, {**table, (i, j): [((i + j) % alg.dim, F(1, 2))]},
                      alg.basis_names)


SPOT_SEEDS = (0, 1, 7, 2024)


@pytest.mark.parametrize("seed", SPOT_SEEDS)
def test_spot_check_passes_on_every_catalog_member(seed):
    for name, alg, _ in standard_catalog():
        assert spot_check_passes(alg, seed), name


def test_spot_check_catches_one_corrupted_constant():
    alg, _ = semisimple_pair(1)
    table = dict(alg.table_items())
    pair, entries = next(iter(sorted(table.items())))
    (k, c), *rest = entries
    bad = Algebra(alg.dim, {**table, pair: [(k, c + 1), *rest]})
    with pytest.raises(InvalidAlgebraError, match="random spot check"):
        _spot_check(bad, 0)


@pytest.mark.parametrize("seed", SPOT_SEEDS)
def test_spot_check_agrees_with_fraction_arithmetic(seed):
    alg, _ = semisimple_pair(1)
    algebras = [a for _, a, _ in standard_catalog()]
    algebras += single_constant_corruptions(alg)
    verdicts = [spot_check_passes(a, seed) for a in algebras]
    assert verdicts == [fraction_spot_check_passes(a, seed) for a in algebras]
    assert False in verdicts and True in verdicts
