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


def test_package_exports_only_module_all_names():
    listed = {name for m in MODULES for name in getattr(m, "__all__", ())}
    exported = {name for name, obj in vars(sgmlab).items()
                if not name.startswith("_")
                and not isinstance(obj, type(sgmlab))}
    assert exported - listed == set()


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
