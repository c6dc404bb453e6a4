import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import sgmlab

# every module of the package; __main__ would run the CLI on import
MODULES = [importlib.import_module(f"sgmlab.{info.name}")
           for info in pkgutil.iter_modules(sgmlab.__path__)
           if info.name != "__main__"]


def test_every_module_defines_all_it_lists():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_namespace_holds_only_submodules_and_dunders():
    # each public name is imported from its own module; the package binds
    # none, so there is no second home to fall out of step with it
    assert "__version__" in vars(sgmlab)
    extra = {name for name, obj in vars(sgmlab).items()
             if not (name.startswith("__") and name.endswith("__"))
             and not (isinstance(obj, type(sgmlab))
                      and obj.__name__ == f"sgmlab.{name}")}
    assert extra == set()


def test_no_object_is_listed_by_two_modules():
    owners = {}
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            owners.setdefault(id(obj), (obj, []))[1].append(
                f"{module.__name__}.{name}")
    assert [names for _, names in owners.values() if len(names) > 1] == []


def test_runtime_imports_no_scipy():
    # the runtime depends on numpy alone; scipy being installed must not let
    # an import of it slip through
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from sgmlab import cli\n"
            "for cfg in sys.argv[1:]:\n"
            "    assert cli.main(['validate', cfg]) == 0, cfg\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    configs = sorted(str(p) for p in (root / "configs").glob("*.cfg"))
    proc = subprocess.run([sys.executable, "-c", code, *configs],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
