"""Every name the package and its modules list in ``__all__`` resolves."""

import importlib
import pkgutil

import cubeiso


def test_every_exported_name_resolves():
    modules = [cubeiso] + [
        importlib.import_module(f"cubeiso.{info.name}")
        for info in pkgutil.iter_modules(cubeiso.__path__)
    ]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert cubeiso in listed and len(listed) > 1
    for module in listed:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
