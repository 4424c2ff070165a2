"""Pipeline orchestration: simulate -> spectra -> fit, with manifests.

Every stage fills its outputs and then its manifest, which records their
content hashes, as temp files, and only then renames them into place, the
manifest last; so reruns can be diffed, no orphan files appear, and a stage
that fails replaces none of its old outputs.  Identical configurations
produce bit-identical signal and spectrum files across repeated runs; only
manifest timings differ.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import curves_to_csv, eigen_selectivity_report, frequency_cuts
from .config import RunConfig, _check_keys, _require, config_hash
from .errors import ConfigError, GridSizeError, MqcnmrError, NumericalValidationError
from .hamiltonian import EigenSystem, eigendecompose, secular_hamiltonian
from .opensystem import run_grid_open
from .sequence import (AcquisitionSpec, ExperimentGrid, Mrev8Spec, check_grid_memory,
                       closed_values, run_grid, verify_reversion)
from .spectra import (CoherenceSpectrum, SignalGrid, check_increasing, csv_values,
                      fft2_coherence, spectrum_to_csv)


def _sha256(path: Path) -> str:
    """SHA-256 hex digest of a file, read 64 KiB at a time into one buffer, so
    hashing a stage file allocates no copy of it (``hashlib.file_digest`` needs
    Python 3.11); a larger buffer hashes no faster, and would sit above the
    spectra stage's charge."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _write_stage(out_dir: Path, stage: str, cfg_hash: str, t0: float, writers: dict,
                 upstream: dict | None = None) -> dict:
    """Write a stage's outputs (``writers`` maps each file name to its
    ``write(tmp)``) and its manifest, which records their hashes: all are
    filled as temp files in ``out_dir`` first and then renamed into place, in
    order and the manifest last.  If anything fails first, the temp files are
    removed and every old file is left as it was."""
    temps = {}

    def stage_file(name: str, write) -> str:
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name + ".")
        os.close(fd)
        temps[name] = Path(tmp)
        write(tmp)
        return _sha256(temps[name])

    try:
        files = {name: stage_file(name, write) for name, write in writers.items()}
        manifest = {
            "stage": stage,
            "config_hash": cfg_hash,
            "tool_version": __version__,
            "elapsed_s": time.monotonic() - t0,
            "files": dict(sorted(files.items())),
        }
        if upstream is not None:
            manifest["upstream"] = upstream
        stage_file(f"manifest_{stage}.json", _json_writer(manifest))
        for name, tmp in temps.items():
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        raise
    return manifest


def _text_writer(text: str):
    return lambda tmp: Path(tmp).write_bytes(text.encode())


def _json_writer(doc: dict):
    """Write ``doc`` as indented JSON, streamed to the file as it is encoded."""
    def write(tmp):
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return write


def _npy_writer(arr: np.ndarray):
    def write(tmp):
        with open(tmp, "wb") as fh:
            np.save(fh, arr)
    return write


def _upstream(run_dir: Path, stage: str) -> tuple:
    """(config hash, {"manifest", "sha256"}) of the manifest ``stage`` left in
    ``run_dir``, or ("", None) when there is none."""
    path = run_dir / f"manifest_{stage}.json"
    if not path.exists():
        return "", None
    cfg_hash = _stage_json(path, stage).get("config_hash", "")
    return cfg_hash, {"manifest": path.name, "sha256": _sha256(path)}


def _stage_json(path: Path, stage: str, numbers=(), lists=()) -> dict:
    """The JSON mapping that ``stage`` wrote to ``path``, holding a finite
    number under every key of ``numbers`` and a list of them under every key
    of ``lists``; a ConfigError naming the file and the stage to rerun
    otherwise."""
    try:
        doc = json.loads(path.read_text())
    except ValueError:
        doc = None
    if not (isinstance(doc, dict) and all(_finite(doc.get(key)) for key in numbers)
            and all(isinstance(doc.get(key), list) and all(map(_finite, doc[key]))
                    for key in lists)):
        keys = ", ".join((*numbers, *lists))
        raise ConfigError(f"{path} is not the JSON mapping{' with ' if keys else ''}{keys} "
                          f"that the {stage} stage writes; rerun the {stage} stage")
    return doc


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def build_eigensystem(cfg: RunConfig) -> EigenSystem:
    """Eigendecompose the molecule's secular Hamiltonian, once the memory
    budget admits H's and V's m blocks and the three 2^N x 2^N arrays that
    every use of them holds (an engine's setup, or ``verify_reversion``)."""
    n = cfg.molecule.n_sites
    check_grid_memory(2 * math.comb(2 * n, n) + 3 * 4 ** n, f"a run on {n} spins")
    return eigendecompose(secular_hamiltonian(cfg.molecule), cfg.molecule.order_parameter)


def simulate(cfg: RunConfig, out_dir=None, eig: EigenSystem | None = None) -> dict:
    """Run the configured engine over the grid and write signal files.

    ``eig`` is the eigensystem of ``cfg.molecule`` when the caller holds it
    (``build_eigensystem(cfg)``); it is built here when None.  The run
    directory is made only once the engine has returned, so a grid that its
    memory gate refuses leaves none behind.  A config with a ``sweep``
    section is refused: it would run the base values alone.
    """
    if "sweep" in cfg.raw:
        raise ConfigError("the config has a sweep section, which simulate would ignore; "
                          "run it with `mqcnmr sweep`")
    t0 = time.monotonic()
    out = Path(out_dir or cfg.output_dir)
    if eig is None:
        eig = build_eigensystem(cfg)
    if cfg.engine == "closed":
        grid = run_grid(eig, cfg.grid, block=cfg.block, acquisition=cfg.acquisition,
                        n_molecules=cfg.n_molecules)
    else:
        grid = run_grid_open(eig, cfg.grid, cfg.decoherence, acquisition=cfg.acquisition,
                             n_molecules=cfg.n_molecules)

    out.mkdir(parents=True, exist_ok=True)
    return _write_stage(out, "simulate", config_hash(cfg.raw), t0,
                        {"signals.npy": _npy_writer(grid.data),
                         "signals_meta.json": _json_writer(grid.metadata())})


def _stage_npy(path: Path, stage: str, fits) -> np.ndarray:
    """The finite numeric array that ``stage`` wrote to ``path``, of a shape that ``fits``."""
    try:
        data = np.load(path)
    except (ValueError, EOFError):
        data = None
    if not (isinstance(data, np.ndarray) and data.dtype.kind in "biufc" and fits(data.shape)
            and np.isfinite(data).all()):
        raise ConfigError(f"{path} is not the array that the {stage} stage writes beside "
                          f"{path.stem}_meta.json; rerun the {stage} stage")
    return data


def _refused(path: Path, stage: str, exc: MqcnmrError) -> ConfigError:
    """The ConfigError for a file that ``stage`` wrote and the rules of its
    run refuse: it names the file, the broken rule and the stage to rerun."""
    return ConfigError(f"{path}: {exc}; rerun the {stage} stage")


def load_signals(run_dir) -> SignalGrid:
    """The signals simulate wrote to ``signals.npy`` + ``signals_meta.json``,
    refused as their run would refuse them: the run's ``ExperimentGrid`` (with
    n_phi and n_t from the array) and ``AcquisitionSpec`` are built from the
    metadata, and its taus must pass ``check_increasing``."""
    sig_path, meta_path = Path(run_dir, "signals.npy"), Path(run_dir, "signals_meta.json")
    if not sig_path.exists() or not meta_path.exists():
        raise ConfigError(f"{run_dir} does not contain signals.npy + signals_meta.json")
    meta = _stage_json(meta_path, "simulate", ("dt", "t_p", "t_m", "window"), ("taus",))
    data = _stage_npy(sig_path, "simulate",
                      lambda shape: len(shape) == 3 and shape[2] == len(meta["taus"]))
    try:
        grid = ExperimentGrid(t_p=meta["t_p"], n_t=data.shape[1], dt=meta["dt"],
                              n_phi=data.shape[0], taus=tuple(meta["taus"]))
        acq = AcquisitionSpec(t_m=meta["t_m"], window=meta["window"])
        check_increasing(grid.taus, "taus")
    except MqcnmrError as exc:
        raise _refused(meta_path, "simulate", exc) from None
    return SignalGrid(data=data, dt=grid.dt, taus=np.asarray(grid.taus), t_p=grid.t_p,
                      t_m=acq.t_m, window=acq.window)


def spectra_stage(run_dir, zero_pad: int = 1, band_hz: float | None = None) -> dict:
    """Transform stored signals into coherence spectra.

    Writes ``spectra.npy`` with ``spectra_meta.json`` (its tau, mu and
    frequency axes), which the fit stage reads, and ``spectra.csv`` as the
    export format.  The memory budget is charged before the transform: the
    signals, the padded spectrum and its frequency axis, with the phi
    transform and a second padded t transform while the transform runs, or
    with what the CSV writer holds in this process (``spectra.csv_values``,
    more than the metadata file's lists and text).
    """
    t0 = time.monotonic()
    run_dir = Path(run_dir)
    grid = load_signals(run_dir)
    values, n_freq = grid.data.size * (1 + zero_pad), grid.n_t * zero_pad
    csv = csv_values((len(grid.taus), grid.n_phi, n_freq), zero_pad)
    check_grid_memory(values + n_freq // 2 + max(values, csv),
                      f"the transform at zero-pad {zero_pad}")
    spec = fft2_coherence(grid, zero_pad=zero_pad)
    if band_hz is not None:
        spec = spec.band(band_hz)

    def write_meta(tmp):  # its lists are made here, after the CSV is written
        _json_writer({**spec.meta, "mu": spec.mu.tolist(), "taus": spec.taus.tolist(),
                      "freqs_hz": spec.freqs_hz.tolist(), "n_freq": len(spec.freqs_hz)})(tmp)

    cfg_hash, upstream = _upstream(run_dir, "simulate")
    return _write_stage(run_dir, "spectra", cfg_hash, t0,
                        {"spectra.csv": lambda tmp: spectrum_to_csv(spec, tmp),
                         "spectra.npy": _npy_writer(spec.data),
                         "spectra_meta.json": write_meta}, upstream)


def load_spectra(run_dir) -> CoherenceSpectrum:
    """The spectrum spectra_stage wrote to ``spectra.npy`` + ``spectra_meta.json``,
    refused unless its tau, mu and frequency axes pass ``check_increasing``."""
    path, meta_path = Path(run_dir, "spectra.npy"), Path(run_dir, "spectra_meta.json")
    if not path.exists() or not meta_path.exists():
        raise ConfigError(f"{run_dir} has no spectra.npy + spectra_meta.json; "
                          "rerun the spectra stage")
    meta = _stage_json(meta_path, "spectra", lists=("taus", "mu", "freqs_hz"))
    try:
        taus, mu, freqs = (check_increasing(meta[key], key) for key in ("taus", "mu", "freqs_hz"))
    except ConfigError as exc:
        raise _refused(meta_path, "spectra", exc) from None
    data = _stage_npy(path, "spectra", lambda shape: shape == (taus.size, mu.size, freqs.size))
    return CoherenceSpectrum(data=data, mu=mu, freqs_hz=freqs, taus=taus, meta=meta)


def read_spectrum_csv(path) -> CoherenceSpectrum:
    """Rebuild a CoherenceSpectrum from the CSV written by spectra_stage.

    Raises ConfigError, naming the file, when a (tau, mu, omega) key is
    repeated or missing, or an axis fails ``check_increasing``.
    """
    axes = ({}, {}, {})  # value -> index, in order of first appearance
    values = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["tau", "mu", "omega_hz"]:
            raise ConfigError(f"{path} is not a spectra CSV")
        for row in reader:
            key = (float(row[0]), int(row[1]), float(row[2]))
            if key in values:
                raise ConfigError(f"{path} repeats the row tau = {key[0]!r}, "
                                  f"mu = {key[1]}, omega_hz = {key[2]!r}")
            for axis, value in zip(axes, key):
                axis.setdefault(value, len(axis))
            values[key] = complex(float(row[3]), float(row[4]))
    taus, mus, freqs = (check_increasing(list(axis), f"{path}: {name}")
                        for axis, name in zip(axes, ("tau", "mu", "omega_hz")))
    shape = tuple(len(axis) for axis in axes)
    if len(values) != np.prod(shape):
        raise ConfigError(f"{path} has {len(values)} rows, not the {np.prod(shape)} "
                          "of a full (tau, mu, omega) grid")
    data = np.zeros(shape, dtype=complex)
    for key, z in values.items():
        data[tuple(axis[v] for axis, v in zip(axes, key))] = z
    return CoherenceSpectrum(data=data, mu=mus, freqs_hz=freqs, taus=taus)


def fit_stage(run_dir, mu: int, frequencies, model: str = "exponential",
              cut_mode: str = "nearest") -> dict:
    """Cut stored spectra at fixed frequencies, fit decays, write the report."""
    t0 = time.monotonic()
    run_dir = Path(run_dir)
    spec = load_spectra(run_dir)
    curves = frequency_cuts(spec, mu, frequencies, mode=cut_mode)
    report = eigen_selectivity_report(curves, model=model)
    cfg_hash, upstream = _upstream(run_dir, "spectra")
    _write_stage(run_dir, "fit", cfg_hash, t0,
                 {"fit_report.json": _json_writer(report.as_dict()),
                  "fit_report.txt": _text_writer(report.table()),
                  "decay_curves.csv": lambda tmp: curves_to_csv(curves, tmp)}, upstream)
    return report.as_dict()


def verify_stage(cfg: RunConfig, max_residual: float = 1e-2) -> dict:
    """Compile the configured reversion block and gate on its residual."""
    if not 0 <= max_residual < math.inf:
        raise ConfigError(f"max_residual must be finite and non-negative, got {max_residual}")
    if cfg.block is None:
        raise ConfigError("config has no reversion block to verify")
    eig = build_eigensystem(cfg)
    tau = next((t for t in cfg.grid.taus if t > 0), None)
    if tau is None and isinstance(cfg.block, Mrev8Spec):
        tau = cfg.block.cycle_time
    elif tau is None:
        raise ConfigError("tau schedule has no positive entry to verify")
    report = verify_reversion(cfg.block.events_for(tau), eig)
    result = {"tau": tau, "residual": report.residual,
              "effective_hamiltonian_norm": report.effective_norm,
              "duration": report.duration, "max_residual": max_residual}
    if not report.residual <= max_residual:
        raise NumericalValidationError(
            f"reversion residual {report.residual:.3e} exceeds the gate "
            f"{max_residual:.3e} (tau = {tau})")
    return result


def _set_dotted(doc: dict, dotted: str, value) -> None:
    """Set the value at the dotted path ``dotted`` of ``doc``, making each
    missing (or null) mapping on the way; a ConfigError naming the path when
    it descends into a value that is not a mapping, such as a molecule given
    as a file path."""
    *parents, leaf = dotted.split(".")
    node = doc
    for k in parents:
        if node.get(k) is None:
            node[k] = {}
        elif not isinstance(node[k], dict):
            raise ConfigError(f"sweep.parameters.{dotted}: {k} is {node[k]!r}, not a mapping "
                              f"to set {leaf} in")
        node = node[k]
    node[leaf] = value


def sweep(base_doc: dict, base_dir=None, out_root=None) -> list:
    """Run a cartesian parameter sweep of simulate over dotted-path overrides.

    The config's ``sweep.parameters`` maps dotted paths (for example
    ``sequence.t_p``) to value lists; each combination runs in its own
    subdirectory.  Every combination is parsed before the first run starts,
    and parsing applies the MREV-8 cycle rule to every tau
    (``config_from_dict``), so a bad tau leaves no run directory.
    The runs are grouped by molecule, in order of first appearance: each
    molecule is eigendecomposed once, and its eigensystem, with what it
    holds (``EigenSystem.i_plus``, ``held_cycle``, ``held_setup``), is
    shared by that molecule's runs and let go after the last.

    A molecule's runs are taken in combination order, stably sorted by the
    block's tau1, and then grouped by setup, (t_p, acquisition), in order of
    first appearance, so that each setup is built once (``kernel_inputs``).
    The eigensystem keeps one MREV-8 cycle per "concatenate" tau1 of the
    molecule's runs, so each such cycle is compiled once.  When those k
    cycles do not fit the memory budget beside the molecule's largest run,
    the runs keep the tau1 order and the eigensystem one cycle, so runs of
    one cycle still follow each other.  Nothing outlives the call.  Returns
    the runs' manifests in combination order.
    """
    import copy
    from itertools import product

    from .config import config_from_dict

    params = _sweep_parameters(base_doc.get("sweep"))
    names = sorted(params)
    out_root = Path(out_root or base_doc.get("output", "sweep_out"))
    runs = []
    for combo in product(*(params[n] for n in names)):
        doc = copy.deepcopy(base_doc)
        doc.pop("sweep", None)
        for name, value in zip(names, combo):
            _set_dotted(doc, name, value)
        runs.append((_run_label(names, combo), doc))
    clashes = sorted(label for label, n in Counter(label for label, _ in runs).items() if n > 1)
    if clashes:
        raise ConfigError(f"sweep values give the same run directory more than once: "
                          f"{', '.join(clashes)}; make the values differ within 6 "
                          "significant digits")
    cfgs = [(label, config_from_dict(doc, base_dir=base_dir)) for label, doc in runs]
    groups = {}
    for k, (_, cfg) in enumerate(cfgs):
        groups.setdefault(cfg.molecule, []).append(k)
    manifests = [None] * len(cfgs)
    for indices in groups.values():
        eig = build_eigensystem(cfgs[indices[0]][1])
        eig, order = _run_order(eig, [cfgs[k][1] for k in indices])
        for k in (indices[i] for i in order):
            label, cfg = cfgs[k]
            manifests[k] = simulate(cfg, out_dir=out_root / label, eig=eig)
        del eig  # with what it holds, before the next molecule's is built
    return manifests


def _run_order(eig: EigenSystem, cfgs: list) -> tuple:
    """(eigensystem, order) for one molecule's runs ``cfgs``, on its new
    eigensystem ``eig``: the order of ``sweep``, as indices into ``cfgs``,
    and ``eig`` keeping a cycle per "concatenate" tau1
    (``EigenSystem.cycle_slots``) when those k cycles fit the budget beside
    each run's charge on ``eig``; otherwise the tau1 order and ``eig`` as
    it is.  The runs are charged by the closed engine's gate
    (``closed_values``): every combination of a sweep parses, and the
    closed engine refuses the decoherence section that the open one needs,
    so all of a sweep's runs take one engine, and runs with a block take
    the closed one."""
    by_tau1 = sorted(range(len(cfgs)), key=lambda i: getattr(cfgs[i].block, "tau1", 0.0))
    spacings = {cfg.block.tau1 for cfg in cfgs
                if isinstance(cfg.block, Mrev8Spec) and cfg.block.mode == "concatenate"}
    if len(spacings) > 1:
        try:
            check_grid_memory(max(closed_values(eig, cfg.grid, cfg.block, cfg.acquisition)
                                  for cfg in cfgs) + len(spacings) * eig.dim ** 2)
        except GridSizeError:
            return eig, by_tau1
        eig = replace(eig, cycle_slots=len(spacings))
    setups = {}
    for i in by_tau1:
        setups.setdefault((cfgs[i].grid.t_p, cfgs[i].acquisition), []).append(i)
    return eig, [i for group in setups.values() for i in group]


def _sweep_parameters(sweep_doc) -> dict:
    """The validated ``sweep.parameters`` mapping of dotted paths to value lists."""
    _check_keys(sweep_doc, {"parameters"}, "sweep")
    params = _require(sweep_doc, "parameters", "sweep")
    if not isinstance(params, dict) or not params:
        raise ConfigError("sweep.parameters must map dotted paths to value lists")
    for name, values in params.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.parameters.{name} must be a non-empty list of values")
    return params


def _run_label(names, combo) -> str:
    """Run directory name: ``leaf=value`` per parameter, floats as ``{:g}``."""
    return "_".join(f"{name.split('.')[-1]}={value:g}" if isinstance(value, float)
                    else f"{name.split('.')[-1]}={value}"
                    for name, value in zip(names, combo))
