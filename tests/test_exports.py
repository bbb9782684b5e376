import importlib
import pkgutil

import opdkit


def test_all_names_are_defined():
    # every name a module exports exists in it, so a deletion cannot leave one behind
    modules = [m.name for m in pkgutil.iter_modules(opdkit.__path__, "opdkit.")]
    assert "opdkit.cli" in modules and "opdkit.projection" in modules
    missing = {name: [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
               for name in modules for module in [importlib.import_module(name)]}
    assert {name: names for name, names in missing.items() if names} == {}
