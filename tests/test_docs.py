"""The README names only functions the package has."""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import shortcycles

README = Path(__file__).resolve().parents[1] / "README.md"


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or inspect.ismethod(obj)


def _resolves(name: str, modules) -> bool:
    """A dotted name is a function of that shortcycles module; a bare one
    is a function of some shortcycles module or a method of one of their
    classes."""
    *path, attr = name.removeprefix("shortcycles.").split(".")
    if path:
        try:
            module = importlib.import_module(".".join(["shortcycles", *path]))
        except ImportError:
            return False
        return _is_function(getattr(module, attr, None))
    for module in modules:
        if _is_function(getattr(module, attr, None)):
            return True
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__.startswith("shortcycles.")
                    and _is_function(getattr(cls, attr, None))):
                return True
    return False


def test_readme_calls_name_package_functions():
    """Every backquoted call in README.md, `name(...`, names a function or
    method that exists, so deleting one leaves no stale mention."""
    modules = [importlib.import_module(f"shortcycles.{m.name}")
               for m in pkgutil.iter_modules(shortcycles.__path__)]
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", README.read_text()))
    assert len(names) >= 10
    assert sorted(n for n in names if not _resolves(n, modules)) == []
