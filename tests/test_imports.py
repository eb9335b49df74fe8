"""The spike audits stay free of numpy, whose import alone costs ~60 ms."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_spike_modules_do_not_import_numpy():
    code = (
        "import sys\n"
        "import cyclos.coincide, cyclos.persist, cyclos.chaincore, cyclos.phasecode\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert 'numpy' not in sys.modules, loaded\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
