import os
import subprocess
import sys
from pathlib import Path

import gumbelmark


def test_import_leaves_scipy_unloaded():
    # scipy is imported only by the calls that integrate numerically, so the
    # package and the CLI module load without it
    src = str(Path(gumbelmark.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, gumbelmark, gumbelmark.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
