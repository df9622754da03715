"""The package imports scipy and jsonschema only inside the functions
that call them, so ``import qmem.cli`` and commands that need neither
(``qmem couple``) do not pay for loading them."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qmem

PACKAGE = pathlib.Path(qmem.__file__).parent
DEFERRED = ("scipy", "jsonschema")


def _top_level_imports(tree):
    """Root package names imported by statements outside any function."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        nodes.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_deferred_import(path):
    imported = set(_top_level_imports(ast.parse(path.read_text())))
    assert not imported & set(DEFERRED)


def test_top_level_import_finder_sees_nested_statements():
    tree = ast.parse(
        "import scipy.linalg\n"
        "if True:\n    from jsonschema import validators\n"
        "class A:\n    import scipy\n"
        "def f():\n    from scipy.optimize import brentq\n"
    )
    assert sorted(_top_level_imports(tree)) == ["jsonschema", "scipy", "scipy"]


def test_couple_loads_no_scipy(data_dir):
    script = (
        "import contextlib, io, json, sys\n"
        "from qmem.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['couple', '--config', {str(data_dir / 'reference_config.json')!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, scipy_modules = json.loads(proc.stdout)
    assert code == 0
    assert scipy_modules == []
