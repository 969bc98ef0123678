"""The package's public API: __all__ names exactly what pwanet exports.

A name deleted from a module but left in __all__ (or in __init__'s
imports) breaks `from pwanet import *` for every user; these checks catch
it with the rest of the library tests.
"""

import types

import pwanet


def test_every_name_in_all_resolves():
    assert [name for name in pwanet.__all__ if not hasattr(pwanet, name)] == []


def test_all_is_sorted_and_unique():
    assert pwanet.__all__ == sorted(set(pwanet.__all__))


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from pwanet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == pwanet.__all__


def test_every_imported_name_is_listed():
    exported = {
        name
        for name, value in vars(pwanet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(pwanet.__all__)
