"""Every module-level import in the package is used.

No linter ships with the project's test dependencies, so this walks each
module's syntax tree with the standard library instead.  A name counts as
used when the module reads it anywhere, or lists it in ``__all__``;
``from __future__ import annotations`` is a compiler directive, not a name.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "abmink").glob("*.py"))


def _imported(tree):
    """name -> line of each module-level import binding it."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(source):
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                  if name not in read and name not in _exported(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert _unused(path.read_text()) == []


def test_the_walk_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from .core import RegimeError, SI\n__all__ = ['SI']\nnp.zeros(1)\n")
    assert _unused(source) == ["RegimeError (line 4)", "math (line 2)"]


def _numpy_cross_calls(source):
    """Lines that read ``cross`` off numpy (``np.cross``, ``numpy.cross``) or
    import it from numpy."""
    tree = ast.parse(source)
    return sorted(
        {node.lineno for node in ast.walk(tree)
         if (isinstance(node, ast.Attribute) and node.attr == "cross"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
         or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
             and any(alias.name == "cross" for alias in node.names))})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_numpy_cross(path):
    # every cross product goes through core.cross, which is np.cross bit for
    # bit at a fraction of its per-call cost
    assert _numpy_cross_calls(path.read_text()) == []


def test_the_walk_finds_numpy_cross():
    source = ("import numpy as np\nfrom numpy import cross\n"
              "x = np.cross(a, b)\ny = numpy.cross\nz = core.cross(a, b)\n")
    assert _numpy_cross_calls(source) == [2, 3, 4]


# Each runs in a fresh process; a run request reads CFG, a bec config, and
# writes OUT (see _run_fresh).
CODES = [
    "import abmink",
    "from abmink import cli; cli.main(['list'])",
    "from abmink import cli; cli.main(['run', CFG, '--format', 'csv', '--out', OUT])",
    "from abmink import cli; cli.main(['check'])",
]


def _loads(module, code, tmp_path):
    """Whether a fresh process that runs code has module in sys.modules."""
    cfg = tmp_path / "bec.cfg"
    cfg.write_text("scenario = bec\nn = 1.5\nomega_rad_per_s = 1e15\n")
    setup = f"CFG, OUT = {str(cfg)!r}, {str(tmp_path / 'out.csv')!r}"
    check = f"{setup}\n{code}\nimport sys; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("code", CODES)
def test_numpy_random_is_not_imported_before_a_draw(code, tmp_path):
    # covariant-checks makes its seeded draws on first use, and check's ledger
    # sample is a Weyl sequence: numpy.random costs 10-30 ms of a cold process
    assert not _loads("numpy.random", code, tmp_path)


@pytest.mark.parametrize("code", CODES)
def test_numpy_polynomial_is_not_imported(code, tmp_path):
    # the mirror's Lorentz route is closed: no quadrature rule is built, and
    # numpy.polynomial costs about 5 ms of a cold process
    assert not _loads("numpy.polynomial", code, tmp_path)


@pytest.mark.parametrize("code, loaded", [(code, False) for code in CODES] + [
    (CODES[2].replace("'--format', 'csv'", "'--format=csv'"), True)])
def test_argparse_is_imported_only_for_a_command_line_it_must_parse(code, loaded, tmp_path):
    # a plainly spelled command line is matched without argparse, which
    # costs 2-4 ms of a cold process with gettext
    assert _loads("argparse", code, tmp_path) is loaded


@pytest.mark.parametrize("code", CODES)
def test_emission_is_imported_only_by_a_run(code, tmp_path):
    # runner.emit imports it on its first call: importing abmink, list and
    # check never compile its ~350 lines (about 5 ms without a bytecode cache)
    assert _loads("abmink.emission", code, tmp_path) is ("'run'" in code)


@pytest.mark.parametrize("code, loaded", [(code, "'run'" in code) for code in CODES] + [
    (CODES[3].replace("['check']", "['check', '--format', 'json']"), True)])
def test_json_is_imported_only_to_write_a_report_or_json(code, loaded, tmp_path):
    # a text check prints its lines itself; emission and a JSON check load json
    assert _loads("json", code, tmp_path) is loaded
