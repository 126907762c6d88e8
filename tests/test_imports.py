"""What the package is made of.

Start-up: the package imports numpy, scipy.special and click, no other
scipy subpackage.  Each of scipy.optimize, scipy.integrate and
scipy.interpolate adds 0.1-0.5 s to every CLI process; one stray import
would bring that back unnoticed.

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

import plasmakin

MODULES = ("plasmakin.cli", "plasmakin.dielectric", "plasmakin.equilibrium",
           "plasmakin.kernel", "plasmakin.propagator")
EXCLUDED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")


def test_fresh_interpreter_loads_no_excluded_scipy_subpackage():
    code = (f"import json, sys\nimport {', '.join(MODULES)}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    src = str(Path(plasmakin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert "scipy.special" in loaded
    leaked = [m for m in loaded if any(m == e or m.startswith(e + ".") for e in EXCLUDED)]
    assert leaked == []


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
