import importlib

import pytest

import fcl


@pytest.mark.parametrize("module", fcl.__all__)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"fcl.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"fcl.{module}.{name}"


def test_node_model_is_private_to_partitions():
    # the i-node sweep is the one node model; Node and its helpers are test oracles
    from fcl import fock, partitions

    for name in ("Node", "addable_nodes", "removable_nodes", "add_node", "remove_node",
                 "node_lists", "content_lists"):
        assert not hasattr(partitions, name), name
    assert not hasattr(fock, "classical_apply")
