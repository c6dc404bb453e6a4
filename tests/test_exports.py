import ast
import importlib
import os
import pkgutil
import re
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
    # an import of it slip through.  Every config the repo ships, the golden
    # and benchmark ones included, must validate under today's grammar
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from sgmlab import cli\n"
            "for cfg in sys.argv[1:]:\n"
            "    assert cli.main(['validate', cfg]) == 0, cfg\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    dirs = [root / d for d in ("configs", "tests/golden", "perfbench/configs")]
    assert all(any(d.glob("*.cfg")) for d in dirs)
    configs = [str(p) for d in dirs for p in sorted(d.glob("*.cfg"))]
    proc = subprocess.run([sys.executable, "-c", code, *configs],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_is_used_outside_tests():
    # a name in __all__ that only tests read is surface with no run behind
    # it; its own def or class line and its __all__ entry do not count
    root = Path(__file__).resolve().parent.parent
    texts = {path: path.read_text(encoding="utf-8").splitlines()
             for top in ("src", "scripts", "perfbench")
             for path in sorted((root / top).rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts}
    unused = []
    for module in MODULES:
        own = Path(module.__file__).resolve()
        tree = ast.parse(own.read_text(encoding="utf-8"))
        listing = set()
        defined = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                listing |= set(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
        for name in module.__all__:
            word = re.compile(rf"\b{re.escape(name)}\b")
            skip = listing | {defined.get(name)}
            if not any(word.search(line)
                       for path, lines in texts.items()
                       for lineno, line in enumerate(lines, 1)
                       if path != own or lineno not in skip):
                unused.append(f"{module.__name__}.{name}")
    assert unused == []
