"""The spike audits stay free of numpy, whose import alone costs ~60 ms, and
``cyclos.coincide`` loads no module beyond those its sources name."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the standard-library modules that cyclos.coincide and the modules it imports name
COINCIDE_STDLIB = ("__future__", "bisect", "collections", "contextlib", "dataclasses",
                   "fractions", "functools", "math", "numbers", "operator", "typing")
COINCIDE_OWN = {"cyclos", "cyclos.chaincore", "cyclos.coincide", "cyclos.errors",
                "cyclos.persist", "cyclos.phasecode", "cyclos.ratlin"}


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_spike_modules_do_not_import_numpy():
    run_fresh(
        "import sys\n"
        "import cyclos.coincide, cyclos.persist, cyclos.chaincore, cyclos.phasecode\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert 'numpy' not in sys.modules, loaded\n"
    )


def test_coincide_loads_nothing_beyond_its_named_imports():
    # on CPython 3.11 the import loads 24 modules in all: the seven above, the
    # named ones that start-up has not loaded, and what fractions and
    # dataclasses load; an import added to any of the seven shows up here
    loaded = run_fresh(
        "import sys\n"
        f"for name in {COINCIDE_STDLIB!r}:\n"
        "    __import__(name)\n"
        "before = set(sys.modules)\n"
        "import cyclos.coincide\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    assert set(loaded.split()) == COINCIDE_OWN
