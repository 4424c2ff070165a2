"""mqcnmr benchmark: end-to-end timing of the simulate -> spectra -> fit pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload open_n8_pipeline --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced, iteration after iteration, until
``--seconds`` have passed, and reports the end-to-end metrics listed in
BENCHMARK.json.  On a 2-core machine one sweep_n8_cached iteration takes
about 40 s and one open_n8_pipeline iteration about 10 s, so at
``--seconds 30`` a run times one sweep (its 8 simulate runs in one
sample) or three open iterations.

    pipeline_s   median wall time of one iteration: simulate (or sweep) +
                 spectra + fit
    simulate_s   median of the simulate stage (the whole runner.sweep call
                 for the sweep workload)
    setup_s      median over SETUP_PROBES fresh processes of the time from
                 process start to the end of set-up: imports, seeded input
                 generation and config parsing
    peak_rss_mb  peak resident set of this process (one workload per process)

The human-readable lines also print ``analysis_s`` (median of the
spectra_stage + fit_stage calls) and ``error_rate`` (iterations that raised
or failed the output check over iterations attempted, the ``failed`` /
``attempted`` pair of the JSON line).  Neither is in BENCHMARK.json:
error_rate is 0 on a correct program, and analysis_s, a short Python- and
file-bound stage, spreads by 24-33% between runs on a shared 2-core host,
more than any bound the benchmark may set; pipeline_s includes it.

``--trace 1`` wraps the package's layer functions from inside this process
(see tracer.py) and reports the per-layer metrics of BENCHMARK.json: self
time and counts per layer for one traced iteration, the tracing overhead
(span count times the measured cost of one wrapper call; the difference
between a traced and an untraced iteration is swamped by run-to-run noise
on a shared 2-core host), the workload's first simulate run again
with ``workers: 1`` (its signals.npy must be bit-identical), a
single-threaded baseline (``workers: 1`` and one BLAS thread, in its own
process; checked within tolerance because the BLAS thread count may change
the last bits) giving ``kernel.parallel_speedup`` of the workload's grid
kernel (``sequence.run_grid`` or ``opensystem.run_grid_open``), the closed
configuration of workloads.closed_doc at N = 4, 6 and 8 (each in its own
process, for its own peak memory) and the N = 4 comparison with the
brute-force oracle.

Every iteration's outputs are checked against refs/ (see checks.py).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a results file with
the comparability record (nproc, BLAS, versions, workers, seed) is written
under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import oracle
import workloads as W
from tracer import LAYER_NAMES, Tracer

SETUP_PROBES = 7
SCALING_NS = (4, 6, 8)
SCALING_LAYERS = ("operators.t20_pair", "operators.rotation",
                  "operators.collective_angular_momentum",
                  "hamiltonian.secular_hamiltonian", "hamiltonian.eigendecompose",
                  "sequence.default_acquisition", "sequence.compile_program",
                  "sequence.run_grid", "spectra.detection_matrix", "spectra.fft2_coherence")
SUBPROCESS_TIMEOUT_S = 600
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.

    VmHWM belongs to the process's own address space.  ru_maxrss, the
    fallback, also counts the parent's resident set at fork on Linux.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark_spec() -> dict:
    path = W.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} not found")
    return json.loads(path.read_text())


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None when unavailable."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ONE_THREAD},
        "workers": W.WORKERS,
        "seed": seed,
    }


def last_json_line(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("subprocess printed no result")
    return json.loads(lines[-1])


def run_self(args: list, env_extra: dict | None = None) -> tuple[dict, float]:
    """Run this script in a fresh process; return its JSON line and the start time."""
    env = dict(os.environ, **(env_extra or {}))
    start = time.time()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, env=env,
                          timeout=SUBPROCESS_TIMEOUT_S, cwd=W.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"subprocess {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return last_json_line(proc.stdout), start


# ---------------------------------------------------------------- sub-modes

def setup_probe(args) -> None:
    config, runner = W.import_package()
    W.make_inputs(args.workload, args.seed, config)
    print(json.dumps({"setup_done": time.time()}))


def kernel_seconds(tracer, workload: str) -> tuple[str, float]:
    """Inclusive time of the first grid-kernel call, without the acquisition scan."""
    if workload == "open_n8_pipeline":
        return "opensystem.run_grid_open", tracer.inclusive("opensystem.run_grid_open",
                                                            tracer.main_tid)[0]
    grid = tracer.inclusive("sequence.run_grid", tracer.main_tid)[0]
    return "sequence.run_grid", grid - tracer.inclusive("sequence.default_acquisition")[0]


def baseline_probe(args) -> None:
    """First simulate run of the workload with workers 1 (one BLAS thread via env).

    BLAS thread count may change the last bits of the signals, so they are
    checked against the reference within tolerance, not bit for bit.
    """
    import numpy as np
    config, runner = W.import_package()
    inp = W.first_run(W.make_inputs(args.workload, args.seed, config), config, 1)
    ref = checks.load_refs(args.workload)["references"][inp.ref_key]
    out = W.fresh_dir(W.WORK / f"baseline-{os.getpid()}")
    try:
        with Tracer() as tracer:
            run = W.simulate_stage(inp, runner, out)[0]
        err = checks.fingerprint_error(checks.fingerprint(np.load(run / "signals.npy")),
                                       ref[run.name]["signals"])
        problems = [] if err <= checks.ARRAY_RTOL else [
            f"single-thread signals of {run.name} differ from the reference by {err:.3e}"]
        kernel, seconds = kernel_seconds(tracer, args.workload)
        print(json.dumps({"run": run.name, "sha256": checks.sha256(run / "signals.npy"),
                          "signals_rel_err": err, "problems": problems,
                          "kernel": kernel, "kernel_s": seconds,
                          "blas_threads": blas_threads()}))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def scaling_probe(args) -> None:
    """Traced closed configuration at N = args.scaling_point, in its own process."""
    config, runner = W.import_package()
    n = args.scaling_point
    inp = W.closed_inputs(n, args.seed, config)
    out = W.WORK / f"scaling-{os.getpid()}"
    try:
        with Tracer() as tracer:
            res = W.run_iteration(inp, runner, out, tracer=tracer)
        self_s = tracer.self_times()
        metrics = {f"scaling.n{n}.{name}.s": self_s.get(name, 0.0) for name in SCALING_LAYERS}
        metrics[f"scaling.n{n}.pipeline_s"] = res.pipeline_s
        metrics[f"scaling.n{n}.peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(metrics))
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- main modes

class Outcome:
    """Attempted/failed bookkeeping shared by both modes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
        return not problems


def checked_iteration(inp, runner, refs, out, outcome, tracer=None):
    """One iteration plus its output check; None if it raised or failed the check."""
    try:
        res = W.run_iteration(inp, runner, out, tracer=tracer)
        problems, shas = checks.check_iteration(refs, inp.ref_key, res.run_dirs, res.reports)
    except Exception as exc:  # a failing iteration is counted, not fatal
        traceback.print_exc()
        outcome.record([f"iteration raised {type(exc).__name__}: {exc}"])
        return None, {}
    return (res if outcome.record(problems) else None), shas


def end_to_end(args, outcome, record) -> dict:
    setup = []
    for _ in range(SETUP_PROBES):
        line, start = run_self(["--setup-probe", "--workload", args.workload,
                                "--seed", str(args.seed)])
        setup.append(line["setup_done"] - start)
    config, runner = W.import_package()
    inp = W.make_inputs(args.workload, args.seed, config)
    refs = checks.load_refs(args.workload)

    samples = {"pipeline_s": [], "simulate_s": [], "analysis_s": []}
    out = W.WORK / f"{args.workload}-{os.getpid()}"
    start = time.perf_counter()
    try:
        while True:
            res, shas = checked_iteration(inp, runner, refs, out, outcome)
            if res is not None:
                for name in samples:
                    samples[name].append(getattr(res, name))
            record.setdefault("signals_sha256", []).append(shas)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["samples"] = {**samples, "setup_s": setup}
    if not samples["pipeline_s"]:
        return {}
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = peak_rss_mb()
    counts = {name: len(v) for name, v in record["samples"].items()}
    counts["peak_rss_mb"] = 1
    for name, value in values.items():
        unit = "MiB" if name == "peak_rss_mb" else "s"
        print(f"{args.workload} {name} = {value:.6g} {unit} (median of {counts[name]})")
    print(f"{args.workload} error_rate = {outcome.failed / outcome.attempted:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} iterations)")
    for run, sha in sorted(record["signals_sha256"][-1].items()):
        print(f"{args.workload} signals.npy sha256 [{run}] = {sha}")
    return values


def traced(args, spec, outcome, record) -> dict:
    config, runner = W.import_package()
    refs = checks.load_refs(args.workload)
    out = W.WORK / f"{args.workload}-{os.getpid()}"
    metrics = {}
    try:
        with Tracer() as tracer:
            with tracer.root("setup"):
                inp = W.make_inputs(args.workload, args.seed, config)
            res, shas = checked_iteration(inp, runner, refs, out, outcome, tracer=tracer)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if res is None:
        return {}

    self_s = tracer.self_times()
    counts = tracer.counts
    metrics.update(counts)
    for name in LAYER_NAMES:
        metrics[name + ".s"] = self_s.get(name, 0.0)
    hits = counts["sequence.propagator_cache.hits"]
    misses = counts["sequence.propagator_cache.misses"]
    metrics["sequence.propagator_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    builds = counts["runner.build_eigensystem.calls"]
    fresh = counts["hamiltonian.secular_hamiltonian.calls"]
    metrics["runner.eig_cache.misses"] = fresh
    metrics["runner.eig_cache.hits"] = builds - fresh
    roots = self_s.get("root.setup", 0.0) + self_s.get("root.pipeline", 0.0)
    metrics["trace.pipeline_s"] = res.pipeline_s
    metrics["trace.setup_s"] = tracer.inclusive("root.setup")[0]
    metrics["trace.unaccounted_s"] = roots
    metrics["trace.layers_sum_s"] = sum(v for k, v in self_s.items() if not k.startswith("root."))
    metrics["trace.overhead_s"] = tracer.overhead_s()

    # worker-count identity: the first run again with workers 1, same BLAS threads
    first = W.first_run(inp, config, 1)
    ident_dir = W.fresh_dir(W.WORK / f"identity-{os.getpid()}")
    try:
        run = W.simulate_stage(first, runner, ident_dir)[0]
        same = checks.sha256(run / "signals.npy") == shas.get(run.name)
    finally:
        shutil.rmtree(ident_dir, ignore_errors=True)
    outcome.record([] if same else [
        f"signals.npy of {run.name} differs between workers 1 and {W.WORKERS}"])

    # single-threaded baseline: workers 1 and one BLAS thread, in its own process
    kernel, w2_kernel_s = kernel_seconds(tracer, args.workload)
    record["kernel"] = kernel
    try:
        base, _ = run_self(["--baseline-probe", "--workload", args.workload,
                            "--seed", str(args.seed)], env_extra=ONE_THREAD)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        outcome.record([f"single-threaded baseline failed: {exc}"])
    else:
        record["single_thread_baseline"] = base
        base["sha256_equals_workers_2"] = base["sha256"] == shas.get(base["run"])
        outcome.record(base["problems"])
        metrics["kernel.parallel_speedup"] = base["kernel_s"] / w2_kernel_s

    # scaling trace, each N in its own process
    for n in SCALING_NS:
        try:
            line, _ = run_self(["--scaling-point", str(n), "--seed", str(args.seed)])
            metrics.update(line)
            outcome.record([])
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            outcome.record([f"scaling point N={n} failed: {exc}"])

    # anchor to the brute-force oracle at N = 4
    errors = oracle.oracle_errors(args.seed, config, runner)
    for key, err in errors.items():
        metrics[f"oracle.{key}.max_rel_err"] = err
        outcome.record([] if err <= oracle.ORACLE_RTOL else [
            f"oracle {key}: relative deviation {err:.3e} over {oracle.ORACLE_RTOL:g}"])

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in sorted(metrics):
        unit = units.get(name, "count" if name.endswith(".calls") else "s")
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} kernel.parallel_speedup is that of {kernel}")
    print(f"{args.workload} layers + unaccounted = {metrics['trace.layers_sum_s']:.6g} + "
          f"{metrics['trace.unaccounted_s']:.6g} s; traced setup + pipeline = "
          f"{metrics['trace.setup_s'] + metrics['trace.pipeline_s']:.6g} s")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, default=W.WORKLOADS[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--baseline-probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--scaling-point", type=int, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args) or 0
    if args.baseline_probe:
        return baseline_probe(args) or 0
    if args.scaling_point is not None:
        return scaling_probe(args) or 0

    spec = benchmark_spec()
    W.import_package()
    W.WORK.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed)}
    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = traced(args, spec, outcome, record)
    else:
        values = end_to_end(args, outcome, record)
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(wanted) - set(values))
    if values and missing:
        outcome.record([f"metrics not produced: {', '.join(missing)}"])
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in wanted.items() if name in values}
    correct = outcome.failed == 0 and bool(values) and not missing
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record.update(result=result, problems=outcome.problems, all_values=values)
    results_dir = W.WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
