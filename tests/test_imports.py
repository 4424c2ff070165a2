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
    # no stage starts a process: spectrum_to_csv formats every value here
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, mqcnmr, mqcnmr.cli; print('subprocess' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


RUNS_WITHOUT_NUMPY_MA = """
import sys
from pathlib import Path
from mqcnmr.cli import main
out = Path(sys.argv[1])
for argv in (["simulate", "--preset", "open_demo", "--output", str(out / "open")],
             ["simulate", "--preset", "fivecb_style", "--output", str(out / "fivecb")],
             ["verify-reversion", "--preset", "fivecb_style"]):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_runs_do_not_import_numpy_ma(tmp_path):
    # the first np.unique in a process imports numpy.ma, about 1.1 MB of
    # module objects that no memory charge counts; the package dedupes by
    # sort and compare (hamiltonian.distinct) instead
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", RUNS_WITHOUT_NUMPY_MA, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True, timeout=600)
    assert proc.stdout.strip().splitlines()[-1] == "False"
