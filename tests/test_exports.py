import importlib
import pkgutil

import sp4solvable


def test_every_all_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(sp4solvable.__path__):
        module = importlib.import_module(f"sp4solvable.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
            checked += 1
    assert checked > 0
