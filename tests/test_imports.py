"""What importing the package loads, checked in a fresh interpreter.

scipy is a test dependency only: ``tests/reference_impls.py`` compares
against ``scipy.special.erf``. At run time ``docgrain.tensor`` evaluates the
same erf in numpy, and importing ``scipy.special`` would add about 25 MB
to every process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_and_its_cli_import_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import docgrain, docgrain.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
