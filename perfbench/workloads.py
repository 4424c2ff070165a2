"""Seeded inputs and one pipeline iteration for each benchmark workload.

Every workload goes through the public pipeline only: ``runner.simulate``
(or ``runner.sweep``), then ``runner.spectra_stage``, then
``runner.fit_stage``.  The program under test receives the generated
configuration documents and nothing else.

Workloads (run one after another, one process and one thread in the
load generator, ``workers: 2`` in the program):

- ``sweep_n8_cached``: the shipped ``nonideality_sweep`` preset, unchanged:
  8 simulate runs at N = 8 sharing one on-disk eigen cache that starts
  empty each iteration (1 miss, 7 hits).  Repeated per-run work:
  acquisition and MREV-8 compilation at two pulse spacings.
- ``open_n8_pipeline``: the ``eight_spin_test`` molecule on the open
  engine with an explicit acquisition, 24 tau points, n_t = 256,
  n_phi = 18, zero padding 2 and a fit at 4 frequencies.  It bypasses the
  default acquisition and the closed kernel, and loads the open kernel
  and the CSV hand-off between the spectra and fit stages.

Both workloads run fixed shipped inputs, so the same seed always gives
the same inputs.  The seed selects the seeded molecule of the closed
configuration (``closed_doc``: MREV-8 ``concatenate`` at tau1 = 5 us,
4 tau points, n_t = 64, n_phi = 2N + 2, default acquisition), which the
traced pass runs at N = 4, 6 and 8 for its scaling table and at N = 4
against the brute-force oracle.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("sweep_n8_cached", "open_n8_pipeline")
WORKERS = 2
CACHE_ENV = "MQCNMR_CACHE_DIR"


def import_package():
    """Import ``mqcnmr`` from the checkout's ``src`` and return its modules."""
    if not (SRC / "mqcnmr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mqcnmr package under {SRC}; "
                         "run from the root of a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mqcnmr
    if Path(mqcnmr.__file__).resolve().parent != (SRC / "mqcnmr").resolve():
        raise SystemExit(f"perfbench: mqcnmr imported from {mqcnmr.__file__}, not {SRC}")
    from mqcnmr import config, runner
    return config, runner


def seeded_molecule(n: int, seed: int) -> dict:
    """Chain-like molecule: every pair coupled, |w| ~ 3 kHz / d^3, random signs."""
    import numpy as np

    rng = np.random.default_rng([seed, n])
    rows = []
    for j in range(n):
        for k in range(j + 1, n):
            d = k - j
            w = 3000.0 / d ** 3 * rng.uniform(0.8, 1.2) * rng.choice((-1.0, 1.0))
            rows.append([j, k, float(w)])
    return {"name": f"seeded chain n={n} seed={seed}", "order_parameter": 0.6,
            "couplings_hz": rows}


def closed_doc(n: int, seed: int, workers: int = WORKERS) -> dict:
    """The closed configuration at N = n (n_phi = 2n + 2 keeps it alias-free)."""
    return {
        "molecule": seeded_molecule(n, seed),
        "engine": "closed",
        "sequence": {
            "t_p": 47.5e-6,
            "block": {"type": "mrev8", "tau1": 5.0e-6, "mode": "concatenate"},
            "tau_schedule": {"count": 4},
            "grid": {"n_t": 64, "dt": 2.0e-6, "n_phi": 2 * n + 2},
        },
        "workers": workers,
    }


def open_doc(workers: int = WORKERS) -> dict:
    return {
        "molecule": "../molecules/eight_spin_test.yaml",
        "engine": "open",
        "decoherence": {"sigma_cl": 2.5e5, "kappa": 2.0,
                        "omdf": {"family": "gaussian", "width": 0.05}},
        "sequence": {
            "t_p": 47.5e-6,
            "tau_schedule": {"count": 24, "step": 10.0e-6},
            "acquisition": {"t_m": 4.0e-6, "window": 2.0e-6},
            "grid": {"n_t": 256, "dt": 2.0e-6, "n_phi": 18},
        },
        "workers": workers,
    }


@dataclass
class Inputs:
    """Everything one workload iteration needs; built once per process."""
    workload: str
    ref_key: str | None         # key into refs/<workload>.json; None when unchecked
    base_dir: Path
    doc: dict
    cfg: object = None          # RunConfig for single runs, None for the sweep
    mu: int = 2
    frequencies: tuple = (0.0,)
    zero_pad: int = 1


def make_inputs(workload: str, seed: int, config) -> Inputs:
    """Generate the workload's inputs from the seed and parse its configuration."""
    runs_dir = config.preset_path("runs")
    if workload == "sweep_n8_cached":
        import yaml
        doc = yaml.safe_load((runs_dir / "nonideality_sweep.yaml").read_text())
        # t_p = 0 leaves only single-quantum coherence at tau = 0, so fit mu = 1
        inp = Inputs(workload, "preset", runs_dir, doc, mu=1, frequencies=(0.0,))
    elif workload == "open_n8_pipeline":
        doc = open_doc()
        inp = Inputs(workload, "preset", runs_dir, doc, mu=2,
                     frequencies=(0.0, 3906.25, 7812.5, 11718.75), zero_pad=2)
    else:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if workload != "sweep_n8_cached":
        inp.cfg = config.config_from_dict(doc, base_dir=runs_dir)
    return inp


def closed_inputs(n: int, seed: int, config) -> Inputs:
    """The closed configuration at N = n on the seed's molecule (unchecked)."""
    runs_dir = config.preset_path("runs")
    doc = closed_doc(n, seed)
    return Inputs("closed", None, runs_dir, doc,
                  cfg=config.config_from_dict(doc, base_dir=runs_dir))


def first_run(inp: Inputs, config, workers: int) -> Inputs:
    """The workload's first simulate run alone, with ``workers`` threads."""
    doc = copy.deepcopy(inp.doc)
    doc["workers"] = workers
    one = copy.copy(inp)
    one.doc = doc
    if inp.workload == "sweep_n8_cached":
        params = doc["sweep"]["parameters"]
        doc["sweep"]["parameters"] = {name: values[:1] for name, values in params.items()}
    else:
        one.cfg = config.config_from_dict(doc, base_dir=inp.base_dir)
    return one


@dataclass
class IterationResult:
    simulate_s: float
    analysis_s: float
    pipeline_s: float
    run_dirs: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)


def _analyse(inp: Inputs, runner, run_dirs) -> dict:
    reports = {}
    for run_dir in run_dirs:
        runner.spectra_stage(run_dir, zero_pad=inp.zero_pad)
        reports[run_dir.name] = runner.fit_stage(run_dir, mu=inp.mu,
                                                 frequencies=list(inp.frequencies))
    return reports


def simulate_stage(inp: Inputs, runner, out_root: Path) -> list:
    """Run ``runner.sweep`` or ``runner.simulate`` into ``out_root``; return the run dirs."""
    if inp.workload != "sweep_n8_cached":
        run_dir = out_root / "run"
        runner.simulate(inp.cfg, out_dir=run_dir)
        return [run_dir]
    os.environ[CACHE_ENV] = str(out_root / "eig_cache")
    try:
        runner.sweep(inp.doc, base_dir=inp.base_dir, out_root=out_root / "runs")
    finally:
        del os.environ[CACHE_ENV]
    return sorted(p for p in (out_root / "runs").iterdir() if p.is_dir())


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def run_iteration(inp: Inputs, runner, out_root: Path, tracer=None) -> IterationResult:
    """simulate (or sweep) -> spectra -> fit, timed per stage."""
    fresh_dir(out_root)
    with tracer.root("pipeline") if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        run_dirs = simulate_stage(inp, runner, out_root)
        t1 = time.perf_counter()
        reports = _analyse(inp, runner, run_dirs)
        t2 = time.perf_counter()
    return IterationResult(simulate_s=t1 - t0, analysis_s=t2 - t1, pipeline_s=t2 - t0,
                           run_dirs=run_dirs, reports=reports)
