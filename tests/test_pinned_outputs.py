"""The shipped presets' signals.npy and spectra.npy against stored fingerprints.

From N = 8 up no oracle checks the engines, so these outputs are pinned:
``two_spin_ms``, ``fivecb_style``, ``open_demo`` and the 8 runs of
``nonideality_sweep``, each through simulate and the spectra stage with its
defaults.  An array is compared through perfbench's ``checks.fingerprint``
(its shape, its norm and a few fixed random projections), loaded from its
source file, to ``RTOL`` of its norm: far above the last-bit changes that
BLAS threading brings (about 2e-15) and far below any real defect.

The fingerprints in ``pinned_outputs.json`` are written by running this
file, ``PYTHONPATH=src python tests/test_pinned_outputs.py``.  Rewriting
them is a change to test data: say which outputs moved, and why.
"""

import json
from pathlib import Path

import numpy as np
import yaml
from test_benchmark_targets import load_source

from mqcnmr import runner
from mqcnmr.config import load_config, preset_path

checks = load_source("checks")
PINNED = Path(__file__).resolve().with_name("pinned_outputs.json")
PRESETS = ("two_spin_ms", "fivecb_style", "open_demo")
RTOL = 1e-12


def preset_fingerprints(out: Path) -> dict:
    """{run label: {file: fingerprint}} of every preset run made under ``out``."""
    runs = []
    for name in PRESETS:
        runner.simulate(load_config(preset_path(f"runs/{name}.yaml")), out_dir=out / name)
        runs.append((name, out / name))
    path = preset_path("runs/nonideality_sweep.yaml")
    runner.sweep(yaml.safe_load(path.read_text()), base_dir=path.parent, out_root=out / "sweep")
    runs += [(f"nonideality_sweep/{run.name}", run) for run in sorted((out / "sweep").iterdir())]
    prints = {}
    for label, run in runs:
        runner.spectra_stage(run)
        prints[label] = {name: checks.fingerprint(np.load(run / name))
                         for name in ("signals.npy", "spectra.npy")}
    return prints


def test_preset_outputs_match_their_fingerprints(tmp_path):
    pinned = json.loads(PINNED.read_text())
    got = preset_fingerprints(tmp_path)
    assert sorted(got) == sorted(pinned) and len(got) == len(PRESETS) + 8
    for label, files in pinned.items():
        for name, ref in files.items():
            assert checks.fingerprint_error(got[label][name], ref) <= RTOL, f"{label}/{name} moved"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        PINNED.write_text(json.dumps(preset_fingerprints(Path(tmp)), indent=1, sort_keys=True)
                          + "\n")
    print(f"wrote {PINNED}")
