"""The package namespace: `__all__` lists the public functions and
classes, and a star import binds no submodule."""

import types

import blocksketch


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from blocksketch import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(blocksketch.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_every_exported_name_resolves():
    assert len(set(blocksketch.__all__)) == len(blocksketch.__all__)
    for name in blocksketch.__all__:
        assert getattr(blocksketch, name) is not None
