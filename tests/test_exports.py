"""The package's export list, and the imports of its modules."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leibnizalg
from leibnizalg.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_sorted_unique_and_resolves():
    names = leibnizalg.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(leibnizalg, n)] == []
    exported = {n: getattr(leibnizalg, n) for n in names}
    assert [n for n, obj in exported.items()
            if getattr(sys.modules[obj.__module__], n) is not obj] == []
    assert set(names) <= set(dir(leibnizalg))
    from leibnizalg.sl2 import ModuleError, Sl2Triple, check_sl2_triple
    assert (Sl2Triple, ModuleError, check_sl2_triple) == (
        leibnizalg.Sl2Triple, leibnizalg.ModuleError,
        leibnizalg.check_sl2_triple)


# A lazily loaded layer is in sys.modules before its code runs; reading its
# namespace with object.__getattribute__ does not run it, and a module whose
# code ran has bound a name of its own.
LOADED_PROBE = """
import json, sys
{body}
ran = sorted(name for name, module in sys.modules.items()
             if name.partition(".")[0] == "leibnizalg"
             and any(not key.startswith("__")
                     for key in object.__getattribute__(module, "__dict__")))
print(json.dumps(ran))
"""

EAGER = ["leibnizalg", "leibnizalg.core", "leibnizalg.exactlin"]
CLI = sorted(EAGER + ["leibnizalg.cli"])


COMMANDS = {
    "package": ("import leibnizalg", EAGER),
    "cli": ("import leibnizalg.cli", CLI),
    "check": ("from leibnizalg.cli import main; "
              "assert main(['check', PATH]) == 0", CLI),
    "radical": ("from leibnizalg.cli import main; "
                "assert main(['radical', PATH]) == 0",
                sorted(CLI + ["leibnizalg.radical"])),
    "modules": ("from leibnizalg.cli import main; "
                "assert main(['modules', PATH]) == 0",
                sorted(CLI + ["leibnizalg.sl2"])),
    "derive": ("from leibnizalg.cli import main; "
               "assert main(['derive', PATH, '--decompose']) == 0",
               sorted(CLI + ["leibnizalg.derivations", "leibnizalg.sl2"])),
    "catalog": ("from leibnizalg.cli import main; "
                "assert main(['catalog', 'sl2']) == 0",
                sorted(CLI + ["leibnizalg.catalog"])),
}


def run_probe(probe: str) -> str:
    """Last stdout line of a fresh interpreter running probe on the
    package under test."""
    src = str(Path(leibnizalg.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    return out.splitlines()[-1]


def probe_command(label: str, tmp_path, probe: str) -> str:
    """run_probe on a command of COMMANDS, with PATH a pair m = 1 file."""
    path = tmp_path / "pair.json"
    assert main(["catalog", "pair", "--m", "1", "-o", str(path)]) == 0
    body = COMMANDS[label][0].replace("PATH", repr(str(path)))
    return run_probe(probe.format(body=body))


@pytest.mark.parametrize("label", list(COMMANDS))
def test_each_command_runs_only_its_layers(label, tmp_path, capsys):
    out = probe_command(label, tmp_path, LOADED_PROBE)
    assert json.loads(out) == COMMANDS[label][1]


def traced_functions() -> list[tuple[str, str]]:
    """(layer, name) of each plain function that perfbench/tracer.py's
    ``WRAPPED`` lists, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["WRAPPED"])
    return [(layer, name) for layer, names in wrapped.items()
            for name in names if "." not in name]


def test_traced_paths_resolve_to_the_exported_functions():
    # the tracer wraps functions by their path in a layer; where a function
    # has moved to a lazily loaded layer, the old path must still give the
    # object the package exports
    unexported = []
    for layer, name in traced_functions():
        module = importlib.import_module(f"leibnizalg.{layer}")
        if name in leibnizalg.__all__:
            assert getattr(module, name) is getattr(leibnizalg, name), (layer, name)
        else:
            assert callable(getattr(module, name)), (layer, name)
            unexported.append(f"{layer}.{name}")
    assert unexported == ["cli.main"]


# What the standard library's class generator imports to write methods as
# source text; the package's value types need none of it.
HEAVY = ["ast", "dataclasses", "dis", "inspect", "tokenize"]
HEAVY_PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in HEAVY if m in sys.modules)))
""".replace("HEAVY", repr(HEAVY))


@pytest.fixture(scope="module")
def heavy_at_start():
    """The HEAVY modules a bare interpreter has loaded already."""
    return json.loads(run_probe(HEAVY_PROBE.format(body="pass")))


@pytest.mark.parametrize("label", list(COMMANDS))
def test_commands_load_no_class_generator(label, tmp_path, capsys,
                                          heavy_at_start):
    out = probe_command(label, tmp_path, HEAVY_PROBE)
    assert [m for m in json.loads(out) if m not in heavy_at_start] == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in ``__all__``
    counts as read, since the package re-exports it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_unused_imports_are_caught():
    source = "from .exactlin import ZERO, unit_vec, vec_is_zero\nx = ZERO\n"
    assert unused_imports(source) == ["unit_vec (line 1)", "vec_is_zero (line 1)"]


def test_package_modules_use_every_import():
    package = Path(leibnizalg.__file__).parent
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def definitions(source: str) -> list[str]:
    """Functions, classes and methods a module defines, dunders exempt."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_names(source: str) -> set[str]:
    """Identifiers a module's code reads, as names, attributes or imports;
    strings and comments do not count."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_dead_definitions_are_caught():
    source = "def used():\n    pass\n\ndef unused():\n    used()\n"
    names = referenced_names(source)
    assert [n for n in definitions(source) if n not in names] == ["unused"]


def test_package_definitions_are_all_referenced():
    package = Path(leibnizalg.__file__).parent
    referenced = set()
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            referenced |= referenced_names(path.read_text())
    dead = {path.name: [n for n in definitions(path.read_text())
                        if n not in referenced]
            for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in dead.items() if names} == {}
