"""What the package is made of.

Start-up: the package imports numpy and click, and no part of scipy.
Each of scipy.special, scipy.optimize, scipy.integrate and
scipy.interpolate adds 0.1-0.5 s to every CLI process; one stray import
would bring that back unnoticed.  scipy.special loads on the first
Faddeeva or E₁ value: a default `dielectric` or `evolve` run needs one,
the other default runs do not.

Dead code: every function and class the package defines has a caller in
the package or the benchmark harness.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plasmakin

MODULES = ("plasmakin.cli", "plasmakin.dielectric", "plasmakin.equilibrium",
           "plasmakin.kernel", "plasmakin.propagator")
EXCLUDED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter has loaded after running `code`."""
    code += "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    src = str(Path(plasmakin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], capture_output=True,
                         text=True, env=env, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _leaked(loaded):
    return [m for m in loaded if any(m == e or m.startswith(e + ".") for e in EXCLUDED)]


def test_fresh_interpreter_loads_no_excluded_scipy_subpackage():
    loaded = _scipy_modules_after(f"import {', '.join(MODULES)}")
    assert "scipy.special" not in loaded
    assert _leaked(loaded) == []


# subcommand: (config lines beyond the scenario, whether its default run loads scipy.special)
DEFAULT_RUNS = {
    "penrose": ("", False),
    "equilibrium": ("", False),
    "cloud": ("", False),
    "kernel": ("", False),
    "dielectric": ("", True),  # strong_stability_check's Faddeeva lines
    "evolve": ("potential = gaussian\n", True),  # the Bromwich contours' Faddeeva values
}


@pytest.mark.parametrize("subcommand", list(DEFAULT_RUNS))
def test_default_run_loads_scipy_special_only_where_needed(tmp_path, subcommand):
    config, special = DEFAULT_RUNS[subcommand]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = {subcommand}\n{config}")
    loaded = _scipy_modules_after(
        "from plasmakin.cli import main\n"
        f"try:\n    main({[subcommand, '--config', str(cfg), '--out', str(tmp_path / 'out')]})\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code")
    assert ("scipy.special" in loaded) == special
    assert _leaked(loaded) == []


# documented API that nothing in the package or the harness calls
DOCUMENTED_API = ("g_hat", "g_B_eval", "lambda_pairing", "flux_lambda")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_click_command(node):
    """A function under @<group>.command() or @click.group() (or without the call)."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "attr", getattr(target, "id", None)) in ("command", "group"):
            return True
    return False


def test_every_src_definition_has_a_caller():
    """Each function and class of `src/plasmakin` is used in src or `bench/`:
    as a name, as an attribute, or inside a string that is not a docstring
    (`bench/spans.py` names the entry points it wraps in strings).  An
    oracle that only tests call belongs in `tests/oracles.py`; other code
    that nothing runs is deleted.  Dunders, click commands, the names
    `plasmakin/__init__.py` exports and `DOCUMENTED_API` are exempt."""
    pkg = Path(plasmakin.__file__).resolve().parent
    bench = pkg.parents[1] / "bench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pkg.glob("*.py")) + sorted(bench.glob("*.py"))}
    exempt = set(DOCUMENTED_API)
    exempt.update(alias.asname or alias.name for node in ast.walk(trees[pkg / "__init__.py"])
                  if isinstance(node, ast.ImportFrom) for alias in node.names)
    defined, used = {}, set()
    for path, tree in trees.items():
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body
                      and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                used.update(re.findall(r"\w+", node.value))
            elif (path.parent == pkg and isinstance(node, DEFINITIONS)
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and not _is_click_command(node)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    uncalled = {name: where for name, where in defined.items()
                if name not in used and name not in exempt}
    assert uncalled == {}
