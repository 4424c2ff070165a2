"""Regenerate the reference outputs under perfbench/refs/.

    python3 perfbench/make_refs.py [--workload NAME ...]

Each workload's pipeline runs once and the fingerprints that checks.py
compares are stored, with each fitted decay marked determined or flat
(see checks.py).  Before anything is written, the closed and open
configurations are compared with the brute-force oracle at N = 4
(oracle.py); a failing comparison writes nothing.  Rerun this only when
a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import numpy as np

import checks
import oracle
import workloads as W

PROBE_DRAWS = 3


def decay_determined(run_dir, inp, runner, record: dict) -> list:
    """Refit the run with its signals perturbed by PROBE_EPS (relative, a few
    draws); a fit is determined when its e-folds move by less than DECAY_RTOL."""
    signals = np.load(run_dir / "signals.npy")
    want = np.abs(record["decay_efolds"])
    worst = np.zeros(len(want))
    for draw in range(PROBE_DRAWS):
        noise = np.random.default_rng(draw).standard_normal(signals.shape)
        np.save(run_dir / "signals.npy", signals * (1.0 + checks.PROBE_EPS * noise))
        runner.spectra_stage(run_dir, zero_pad=inp.zero_pad)
        report = runner.fit_stage(run_dir, mu=inp.mu, frequencies=list(inp.frequencies))
        probe = checks.run_record(run_dir, report)
        err = checks.fingerprint_error(probe["decay_curves"], record["decay_curves"])
        if err > checks.ARRAY_RTOL:
            raise SystemExit(f"{run_dir.name}: decay curves move by {err:.3e} under a "
                             f"{checks.PROBE_EPS:g} perturbation; refusing to store them")
        dev = np.abs(np.subtract(probe["decay_efolds"], record["decay_efolds"]))
        worst = np.maximum(worst, dev / np.maximum(want, 1e-300))
    determined = [bool(w < checks.DECAY_RTOL) for w in worst]
    for ok, efolds, w in zip(determined, want, worst):
        print(f"  {run_dir.name}: {efolds:.6g} e-folds, moved {w:.2e} relative -> "
              f"{'determined' if ok else 'flat'}", file=sys.stderr)
        if not ok and efolds > checks.FLAT_EFOLDS:
            raise SystemExit(f"{run_dir.name}: fit neither determined nor flat")
    return determined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=W.WORKLOADS)
    args = ap.parse_args(argv)
    config, runner = W.import_package()

    errors = oracle.oracle_errors(0, config, runner)
    print(f"oracle at N = {oracle.ORACLE_N}: {errors}", file=sys.stderr)
    if any(err > oracle.ORACLE_RTOL for err in errors.values()):
        print("oracle comparison failed; references not written", file=sys.stderr)
        return 1

    checks.REFS.mkdir(exist_ok=True)
    for workload in args.workload or W.WORKLOADS:
        inp = W.make_inputs(workload, 0, config)
        out = W.WORK / f"refs-{workload}"
        runs = {}
        try:
            res = W.run_iteration(inp, runner, out)
            for d in res.run_dirs:
                record = checks.run_record(d, res.reports[d.name])
                record["decay_determined"] = decay_determined(d, inp, runner, record)
                runs[d.name] = record
        finally:
            shutil.rmtree(out, ignore_errors=True)
        doc = {"workload": workload, "oracle_n4_max_rel_err": errors,
               "array_rtol": checks.ARRAY_RTOL, "decay_rtol": checks.DECAY_RTOL,
               "flat_efolds": checks.FLAT_EFOLDS, "probe_eps": checks.PROBE_EPS,
               "references": {inp.ref_key: runs}}
        (checks.REFS / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{workload} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
