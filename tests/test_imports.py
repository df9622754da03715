"""The package imports scipy only inside the functions that call it and
never imports jsonschema, and ``qmem.cli`` imports numpy and the library
modules only inside the subcommands that call them.  So ``import
qmem.cli`` and ``load_config`` load no numpy, no jsonschema and no
library module, and each subcommand loads only its own (``qmem couple``,
``qmem duffing-sweep`` and the lossless ``qmem iswap --dissipation off``
load no scipy).  Every fit goes through the
one least-squares helper, with an exact Jacobian, and the Lindbladian is
gathered on the reached entries of rho, never built by Kronecker
products."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qmem

PACKAGE = pathlib.Path(qmem.__file__).parent
DEFERRED = ("scipy",)
LIBRARY = {
    f"qmem.{path.stem}" for path in PACKAGE.glob("*.py")
    if path.stem not in ("__init__", "cli", "errors")
}


def _top_level_imports(tree):
    """Root package names imported by statements outside any function; a
    relative import keeps its leading dots (``.errors``, ``.``)."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield "." * node.level + (node.module or "")
            else:
                yield node.module.split(".")[0]
        nodes.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_deferred_import(path):
    imported = set(_top_level_imports(ast.parse(path.read_text())))
    assert not imported & set(DEFERRED)


def test_no_module_imports_jsonschema():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [(path.name, node.lineno) for name in names if name.split(".")[0] == "jsonschema"]
    assert offenders == []


def test_cli_imports_only_stdlib_and_errors_at_module_level():
    imported = set(_top_level_imports(ast.parse((PACKAGE / "cli.py").read_text())))
    assert imported - set(sys.stdlib_module_names) == {".errors"}


def test_top_level_import_finder_sees_nested_statements():
    tree = ast.parse(
        "import scipy.linalg\n"
        "if True:\n    from jsonschema import validators\n"
        "class A:\n    import scipy\n"
        "try:\n    from . import dynamics\nexcept ImportError:\n    from .errors import QmemError\n"
        "def f():\n    from scipy.optimize import brentq\n    from . import analysis\n"
    )
    assert sorted(_top_level_imports(tree)) == [".", ".errors", "jsonschema", "scipy", "scipy"]


HELPER = ("core.py", "fit_least_squares")
FITS = {
    ("analysis.py", "fit_lorentzian"),
    ("analysis.py", "fit_ringdown"),
    ("electromech.py", "fit_bvd"),
    ("losses.py", "fit_loss_stack"),
    ("duffing.py", "fit_backbone"),
}


def _named_nodes(tree, name):
    """(outermost function, node) for each import of ``name`` and each call
    of it, by bare name or attribute; the function is None at module level."""
    stack = [(None, node) for node in tree.body]
    while stack:
        owner, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == name for alias in node.names):
                yield owner, node
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                yield owner, node
        stack.extend((owner, child) for child in ast.iter_child_nodes(node))


def _package_nodes(name):
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _named_nodes(ast.parse(path.read_text()), name):
            yield path.name, owner, node


def test_least_squares_only_inside_the_fit_helper():
    # MINPACK's solver is named only in the helper; scipy's least_squares
    # wrapper around it nowhere
    places = {(module, owner) for module, owner, _ in _package_nodes("leastsq")}
    assert places == {HELPER}
    assert list(_package_nodes("least_squares")) == []


def test_every_fit_passes_the_helper_an_exact_jacobian():
    calls = [
        (module, owner, node) for module, owner, node in _package_nodes(HELPER[1])
        if isinstance(node, ast.Call)
    ]
    assert {(module, owner) for module, owner, _ in calls} == FITS
    for module, owner, call in calls:
        jac = [kw.value for kw in call.keywords if kw.arg == "jac"]
        # a function, not a finite-difference scheme such as "2-point"
        assert len(jac) == 1 and isinstance(jac[0], ast.Name), (module, owner)


def test_no_module_calls_kron():
    assert [(module, owner) for module, owner, _ in _package_nodes("kron")] == []


def test_named_node_finder_sees_nested_calls():
    tree = ast.parse(
        "from scipy.optimize import least_squares\n"
        "def f():\n    def g():\n        return opt.least_squares(r, x)\n"
        "class A:\n    def m(self):\n        least_squares(r, x)\n"
    )
    assert sorted(owner or "" for owner, _ in _named_nodes(tree, "least_squares")) == ["", "f", "m"]


def _modules_after(script):
    """Names in sys.modules after ``script`` runs in a fresh interpreter."""
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _roots(modules):
    return {name.split(".")[0] for name in modules}


@pytest.mark.parametrize("call", [
    "cli.load_config(CONFIG)",
    # --help and usage errors exit through argparse
    "with contextlib.suppress(SystemExit):\n    cli.main(['--help'])",
    "with contextlib.suppress(SystemExit):\n    cli.main(['iswap', '--d-m', 'five'])",
    # a config error stops a subcommand before it imports anything
    "assert cli.main(['iswap', '--config', CONFIG + '.missing']) == 2",
], ids=["load_config", "help", "usage_error", "missing_config"])
def test_cli_front_end_loads_no_numpy_or_library(data_dir, call):
    modules = _modules_after(
        "import contextlib, io\n"
        "import qmem.cli as cli\n"
        f"CONFIG = {str(data_dir / 'reference_config.json')!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        + "\n".join("    " + line for line in call.splitlines()) + "\n"
    )
    assert "qmem.cli" in modules
    assert not _roots(modules) & {"numpy", "scipy", "jsonschema"}
    assert not modules & LIBRARY


def test_couple_loads_no_scipy(data_dir):
    modules = _modules_after(
        "import contextlib, io\n"
        "from qmem.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['couple', '--config', {str(data_dir / 'reference_config.json')!r}]) == 0\n"
    )
    assert "scipy" not in _roots(modules)
    assert {"qmem.dynamics", "qmem.electromech"} <= modules
    unused = {f"qmem.{name}" for name in ("analysis", "duffing", "losses", "phonon_chain", "photoelastic")}
    assert not modules & unused


def test_lossless_iswap_loads_no_scipy(data_dir):
    # without dissipators the gate evolves in H's eigenbasis, with no expm
    modules = _modules_after(
        "import contextlib, io\n"
        "from qmem.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['iswap', '--config', {str(data_dir / 'reference_config.json')!r}, "
        "'--dissipation', 'off']) == 0\n"
    )
    assert "qmem.dynamics" in modules
    assert "scipy" not in _roots(modules)


def test_duffing_sweep_loads_no_scipy(data_dir, tmp_path):
    # driven past the onset, so the sweep reports a bistable range
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["duffing"]["drive_m_Hz2"] = 5e11
    path = tmp_path / "driven.json"
    path.write_text(json.dumps(config))
    modules = _modules_after(
        "import contextlib, io, json\n"
        "from qmem.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main(['duffing-sweep', '--config', {str(path)!r}]) == 0\n"
        "assert json.loads(out.getvalue())['bistable_range_Hz'] is not None\n"
    )
    assert "qmem.duffing" in modules
    assert not {name for name in modules if name.startswith("scipy")}


def test_cli_runs_without_jsonschema(data_dir, tmp_path):
    # a None entry in sys.modules makes every import of jsonschema fail
    config = str(data_dir / "reference_config.json")
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"bvd": {"C0_F": -1.0}}))
    modules = _modules_after(
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "import contextlib, io\n"
        "from qmem.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main(['couple', '--config', {config!r}]) == 0\n"
        f"    assert main(['couple', '--config', {str(invalid)!r}]) == 2\n"
    )
    assert modules >= {"qmem.dynamics", "qmem.electromech"}
