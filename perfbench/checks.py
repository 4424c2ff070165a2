"""Output checks against the references stored under ``refs/``.

An array is compared through a fingerprint: its shape, its Frobenius
norm and its inner products with a few fixed pseudo-random unit vectors.
Two arrays pass when every fingerprint entry agrees within
``ARRAY_RTOL`` times the reference norm, so a reordered floating-point
sum passes while a wrong element of relative size above the tolerance
does not.

The decay curves the fit reads (decay_curves.csv) are fingerprinted
like the arrays.  A fitted decay time tau_d is compared through the
number of e-folds it implies over the measured tau span, span / tau_d,
which stays finite as a decay flattens.  make_refs.py marks each stored
fit as determined or flat by refitting the reference signals with a
relative perturbation of ``PROBE_EPS``, far below ``ARRAY_RTOL``:

- determined: the refit e-folds move by less than ``DECAY_RTOL``
  relative.  The check then holds the e-folds to ``DECAY_RTOL`` of the
  reference.
- flat: the curve is flat to the last digits, the fit's minimum is set
  by rounding and the refit e-folds move by tens of percent.  Such a fit
  only says that the decay is flat, so the check holds the e-folds below
  ``FLAT_EFOLDS``; the curve itself is held by its fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"
ARRAY_RTOL = 1e-9
DECAY_RTOL = 1e-6
FLAT_EFOLDS = 1e-6
PROBE_EPS = 1e-12
N_PROJECTIONS = 8
PROJECTION_SEED = 1505


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint(a: np.ndarray) -> dict:
    flat = np.asarray(a, dtype=complex).ravel()
    rng = np.random.default_rng(PROJECTION_SEED)
    proj = []
    for _ in range(N_PROJECTIONS):
        w = rng.standard_normal(flat.size) + 1j * rng.standard_normal(flat.size)
        p = np.vdot(w / np.linalg.norm(w), flat)
        proj.append([float(p.real), float(p.imag)])
    return {"shape": list(np.shape(a)), "norm": float(np.linalg.norm(flat)),
            "projections": proj}


def fingerprint_error(fp: dict, ref: dict) -> float:
    """Largest fingerprint deviation relative to the reference norm (inf on shape change)."""
    if fp["shape"] != ref["shape"]:
        return float("inf")
    scale = max(ref["norm"], 1e-300)
    dev = abs(fp["norm"] - ref["norm"])
    for (a, b), (c, d) in zip(fp["projections"], ref["projections"]):
        dev = max(dev, abs(a - c), abs(b - d))
    return dev / scale


def load_spectra_csv(path) -> np.ndarray:
    """Complex spectrum values in file order (the re and im columns)."""
    cols = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(3, 4))
    return cols[:, 0] + 1j * cols[:, 1]


def decay_efolds(run_dir: Path, report: dict) -> list:
    """span / tau_d of every fitted decay, in report order."""
    taus = json.loads((run_dir / "signals_meta.json").read_text())["taus"]
    span = max(taus) - min(taus)
    return [span / row["tau_d"] for row in report["rows"]]


def run_record(run_dir: Path, report: dict) -> dict:
    """What the check compares for one run directory."""
    curves = np.loadtxt(run_dir / "decay_curves.csv", delimiter=",", skiprows=1,
                        usecols=2, ndmin=1)
    return {
        "signals": fingerprint(np.load(run_dir / "signals.npy")),
        "spectra": fingerprint(load_spectra_csv(run_dir / "spectra.csv")),
        "decay_curves": fingerprint(curves),
        "tau_d": [row["tau_d"] for row in report["rows"]],
        "decay_efolds": decay_efolds(run_dir, report),
        "signals_sha256": sha256(run_dir / "signals.npy"),
    }


def compare_run(rec: dict, ref: dict) -> list[str]:
    """Mismatch messages for one run (empty when it passes)."""
    problems = []
    for key in ("signals", "spectra", "decay_curves"):
        err = fingerprint_error(rec[key], ref[key])
        if not err <= ARRAY_RTOL:
            problems.append(f"{key} differ from the reference by {err:.3e} relative "
                            f"(tolerance {ARRAY_RTOL:g})")
    if len(rec["tau_d"]) != len(ref["tau_d"]):
        problems.append(f"{len(rec['tau_d'])} fitted tau_d values, reference has "
                        f"{len(ref['tau_d'])}")
    else:
        for td, got, want, determined in zip(rec["tau_d"], rec["decay_efolds"],
                                             ref["decay_efolds"], ref["decay_determined"]):
            if determined and not abs(got - want) <= DECAY_RTOL * abs(want):
                problems.append(f"tau_d {td!r} gives {got!r} e-folds over the tau span, "
                                f"reference {want!r} (relative tolerance {DECAY_RTOL:g})")
            if not determined and not abs(got) <= FLAT_EFOLDS:
                problems.append(f"tau_d {td!r} gives {got!r} e-folds over the tau span; "
                                f"the reference decay is flat (at most {FLAT_EFOLDS:g})")
    return problems


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: missing reference file {path}")
    return json.loads(path.read_text())


def check_iteration(refs: dict, ref_key: str, run_dirs, reports) -> tuple[list, dict]:
    """Compare every run of one iteration; return (problems, sha256 by run)."""
    expected = refs["references"].get(ref_key)
    if expected is None:
        return [f"no reference stored for key {ref_key!r}"], {}
    problems, shas = [], {}
    if sorted(expected) != sorted(d.name for d in run_dirs):
        problems.append(f"run directories {sorted(d.name for d in run_dirs)} do not match "
                        f"the reference runs {sorted(expected)}")
    for run_dir in run_dirs:
        if run_dir.name not in expected:
            continue
        rec = run_record(run_dir, reports[run_dir.name])
        shas[run_dir.name] = rec["signals_sha256"]
        problems += [f"{run_dir.name}: {p}" for p in compare_run(rec, expected[run_dir.name])]
    return problems, shas
