import importlib
import pkgutil

import sgmlab

# every module of the package; __main__ would run the CLI on import
MODULES = [importlib.import_module(f"sgmlab.{info.name}")
           for info in pkgutil.iter_modules(sgmlab.__path__)
           if info.name != "__main__"]


def test_every_module_defines_all_it_lists():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_only_module_all_names():
    listed = {name for m in MODULES for name in getattr(m, "__all__", ())}
    exported = {name for name, obj in vars(sgmlab).items()
                if not name.startswith("_")
                and not isinstance(obj, type(sgmlab))}
    assert exported - listed == set()
