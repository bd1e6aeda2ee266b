"""Importing symsos loads only its declared runtime dependency, numpy.

scipy and sympy may be installed alongside it, but pyproject.toml does not
declare them, and importing either would add to every command's start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNDECLARED = ("scipy", "sympy")


def test_import_loads_no_undeclared_dependency():
    code = ("import sys, symsos, symsos.cli; "
            f"print(' '.join(m for m in {UNDECLARED!r} if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60, check=True)
    assert done.stdout.split() == []
