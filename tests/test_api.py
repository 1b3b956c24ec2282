import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fcl

ROOT = Path(__file__).resolve().parent.parent
# what reaches the library: the package itself, the demos, the benchmark and the acceptance tests
REACHERS = [*sorted((ROOT / "src" / "fcl").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
            *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
JOBS, PYPROJECT = ROOT / "bench" / "jobs.py", ROOT / "pyproject.toml"


@pytest.mark.parametrize("module", fcl.__all__)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"fcl.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"fcl.{module}.{name}"


def _reached(path: Path) -> set[str]:
    """Every "module.name" of fcl that the file refers to: by importing the name, as an
    attribute of an alias of its module, bare in its own module outside that name's
    definition, or as a "layer.name" string in the benchmark's job list."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent == ROOT / "src" / "fcl" else None
    modules: dict[str, str] = {}  # local alias -> fcl module ("" for the package)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or "fcl": a.name[4:] if a.asname else ""
                            for a in node.names if a.name.split(".")[0] == "fcl"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "fcl") == "fcl":  # from . import x
            modules.update({a.asname or a.name: a.name for a in node.names})
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            base = f"fcl.{node.module}" if node.level else node.module
            if base.startswith("fcl."):
                found.update(f"{base[4:]}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            value, module = node.value, None
            if isinstance(value, ast.Name):
                module = modules.get(value.id)
            elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                module = value.attr if modules.get(value.value.id) == "" else None
            if module:
                found.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.Constant) and path == JOBS and isinstance(node.value, str):
            found.add(node.value)
    if own:
        for stmt in tree.body:
            defined = getattr(stmt, "name", None)
            found.update(f"{own}.{node.id}" for node in ast.walk(stmt) if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Load) and node.id != defined)
    return found


def test_every_public_name_is_reached():
    # each name in an __all__ is referred to, outside its own definition, by the
    # package, a demo, the benchmark, an acceptance test or the console script
    reached = set(re.findall(r'"fcl\.(\w+):(\w+)"', PYPROJECT.read_text().split("[project.scripts]")[1]))
    reached = {f"{module}.{name}" for module, name in reached}
    for path in REACHERS:
        reached |= _reached(path)
    unreached = [f"{module}.{name}" for module in fcl.__all__
                 for name in getattr(importlib.import_module(f"fcl.{module}"), "__all__", ())
                 if f"{module}.{name}" not in reached]
    assert not unreached, f"reached by nothing: {', '.join(unreached)}"


def test_node_model_is_private_to_partitions():
    # the i-node sweep is the one node model; Node and its helpers are test oracles
    from fcl import fock, partitions

    for name in ("Node", "addable_nodes", "removable_nodes", "add_node", "remove_node",
                 "node_lists", "content_lists"):
        assert not hasattr(partitions, name), name
    assert not hasattr(fock, "classical_apply")


def test_one_combination_type_and_one_accumulator():
    # Fock and Specht vectors take their arithmetic, equality and text from
    # qseries.Combination, and sum coefficients with qseries' accumulator
    from fcl import branching, canonical, fock, qseries, specht

    for cls in (fock.FockVector, specht.SpechtVector):
        assert issubclass(cls, qseries.Combination), cls.__name__
        for name in ("__add__", "__sub__", "scaled", "minus_scaled", "__eq__", "to_text"):
            assert name not in vars(cls), f"{cls.__name__}.{name}"
    for mod in (fock, specht, branching, canonical):
        for name in ("_pruned", "_built", "_lattice", "_add_shifted", "_build", "_unpack",
                     "_pack"):
            assert getattr(mod, name, None) in (None, getattr(qseries, name, None)), name
    # packed straightening and canonical coefficients are read back by qseries' one
    # decoder, and canonical packs through its one encoder
    assert specht._unpack is qseries._unpack
    assert canonical._unpack is qseries._unpack and canonical._pack is qseries._pack
    # one filler of dense matrices, whose empty cells are all the one zero
    assert specht._dense is qseries._dense and canonical._dense is qseries._dense
    for mod, name in ((specht, "_rows"), (canonical, "_from_columns"), (canonical, "ladders")):
        assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    # one guard refuses a packed digit that could wrap, for straightening and the canonical basis
    assert specht._checked is qseries._checked and canonical._checked is qseries._checked


def test_cold_import_loads_no_dataclasses():
    # the records are named tuples, so importing the CLI pulls in neither dataclasses nor
    # what it imports; a fresh interpreter, because this one has loaded them already
    code = "import sys, fcl.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "fcl.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, loaded


def test_records_are_immutable():
    from fcl import branching, canonical, crystal, fock, partitions, paths

    records = [partitions.fundamental(3, 1), paths.to_path((2, 1), 2),
               crystal.signature((2, 1), 2, 0), crystal.crystal_graph(2, 3),
               canonical.global_lower_basis(2, 3), fock.relation_check(2, 2),
               branching.fermionic_poly(2, 0, (0, 0), 2)]
    assert [type(r).__name__ for r in records] == [
        "Weight", "PathWord", "SignatureWord", "CrystalGraph", "DecompositionMatrix",
        "RelationReport", "FermionicBranching"]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

