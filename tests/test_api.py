import importlib
import re
from pathlib import Path

import pytest

import fcl

ROOT = Path(__file__).resolve().parent.parent
# what reaches the library: the package itself, the demos, the benchmark and the acceptance tests
REACHERS = [*sorted((ROOT / "src" / "fcl").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
            *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("module", fcl.__all__)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"fcl.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"fcl.{module}.{name}"


def test_every_public_name_is_reached():
    # each name in an __all__ is used, outside its own definition (its whole
    # indented body, so a recursive call is no use) and __all__ entry, by the
    # package, a demo, the benchmark or an acceptance test
    text = "\n".join(re.sub(r"__all__ = \[.*?\]", "", path.read_text(), flags=re.S)
                     for path in REACHERS)
    unreached = []
    for module in fcl.__all__:
        for name in getattr(importlib.import_module(f"fcl.{module}"), "__all__", ()):
            definition = rf"^([ \t]*)(def|class) {name}\b.*\n(?:(?:\1[ \t]+.*)?\n)*|^{name} = .*$"
            uses = re.sub(definition, "", text, flags=re.M)
            if not re.search(rf"\b{name}\b", uses):
                unreached.append(f"{module}.{name}")
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
