"""Importing the package stays free of scipy, and the physical constants it
writes out in place of scipy.constants are CODATA 2022."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from mqcnmr.hamiltonian import HBAR, MU_0

SRC = Path(__file__).resolve().parents[1] / "src"

LIST_SCIPY = ("import json, sys, mqcnmr, mqcnmr.cli; "
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.'))))")


def test_package_import_loads_no_scipy():
    # a fresh interpreter, so no module an earlier test imported is counted;
    # fit imports scipy.optimize when it is called, not before
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LIST_SCIPY], capture_output=True, text=True,
                          env=env, check=True)
    assert json.loads(proc.stdout) == []


def test_constants_are_codata_2022():
    assert MU_0 == 1.25663706127e-06
    assert HBAR == 6.62607015e-34 / (2 * math.pi)


def test_package_import_loads_no_subprocess():
    # spectrum_to_csv imports subprocess only when it starts a CSV helper
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, mqcnmr, mqcnmr.cli; print('subprocess' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"
