"""Start-up: the package imports numpy, scipy.special and click, no other scipy subpackage.

Each of scipy.optimize, scipy.integrate and scipy.interpolate adds 0.1-0.5 s
to every CLI process; one stray import would bring that back unnoticed.
"""

import json
import os
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
