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
import os
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import curves_to_csv, eigen_selectivity_report, frequency_cuts
from .config import RunConfig, _check_keys, _require, config_hash
from .errors import ConfigError, NumericalValidationError
from .hamiltonian import EigenSystem, eigendecompose, secular_hamiltonian
from .opensystem import run_grid_open
from .sequence import Mrev8Spec, Propagators, run_grid, verify_reversion
from .spectra import CoherenceSpectrum, SignalGrid, fft2_coherence, spectrum_to_csv


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    return _text_writer(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    cfg_hash = json.loads(path.read_text()).get("config_hash", "")
    return cfg_hash, {"manifest": path.name, "sha256": _sha256(path)}


def build_eigensystem(cfg: RunConfig) -> EigenSystem:
    """Eigendecompose the molecule's secular Hamiltonian."""
    reg = cfg.molecule.register()
    return eigendecompose(secular_hamiltonian(cfg.molecule, reg), reg,
                          cfg.molecule.order_parameter)


def simulate(cfg: RunConfig, out_dir=None) -> dict:
    """Run the configured engine over the grid and write signal files.

    The run directory is made only once the engine has returned, so a grid
    that its memory gate refuses leaves none behind.
    """
    t0 = time.monotonic()
    out = Path(out_dir or cfg.output_dir)
    eig = build_eigensystem(cfg)
    reg = cfg.molecule.register()
    if cfg.engine == "closed":
        grid = run_grid(eig, reg, cfg.grid, block=cfg.block, acquisition=cfg.acquisition,
                        n_molecules=cfg.n_molecules)
    else:
        grid = run_grid_open(eig, reg, cfg.grid, cfg.decoherence,
                             acquisition=cfg.acquisition,
                             n_molecules=cfg.n_molecules)

    out.mkdir(parents=True, exist_ok=True)
    return _write_stage(out, "simulate", config_hash(cfg.raw), t0,
                        {"signals.npy": _npy_writer(grid.data),
                         "signals_meta.json": _json_writer(grid.metadata())})


def load_signals(run_dir) -> SignalGrid:
    run_dir = Path(run_dir)
    sig_path = run_dir / "signals.npy"
    meta_path = run_dir / "signals_meta.json"
    if not sig_path.exists() or not meta_path.exists():
        raise ConfigError(f"{run_dir} does not contain signals.npy + signals_meta.json")
    meta = json.loads(meta_path.read_text())
    return SignalGrid(data=np.load(sig_path), dt=meta["dt"],
                      taus=np.asarray(meta["taus"]), t_p=meta["t_p"],
                      t_m=meta["t_m"], window=meta["window"])


def spectra_stage(run_dir, zero_pad: int = 1, band_hz: float | None = None) -> dict:
    """Transform stored signals into coherence spectra.

    Writes ``spectra.npy`` with ``spectra_meta.json`` (its tau, mu and
    frequency axes), which the fit stage reads, and ``spectra.csv`` as the
    export format.
    """
    t0 = time.monotonic()
    run_dir = Path(run_dir)
    grid = load_signals(run_dir)
    spec = fft2_coherence(grid, zero_pad=zero_pad)
    if band_hz is not None:
        spec = spec.band(band_hz)

    meta = {**spec.meta, "mu": spec.mu.tolist(), "taus": spec.taus.tolist(),
            "freqs_hz": spec.freqs_hz.tolist(), "n_freq": len(spec.freqs_hz)}
    cfg_hash, upstream = _upstream(run_dir, "simulate")
    return _write_stage(run_dir, "spectra", cfg_hash, t0,
                        {"spectra.csv": lambda tmp: spectrum_to_csv(spec, tmp),
                         "spectra.npy": _npy_writer(spec.data),
                         "spectra_meta.json": _json_writer(meta)}, upstream)


def load_spectra(run_dir) -> CoherenceSpectrum:
    """The spectrum spectra_stage wrote to ``spectra.npy`` + ``spectra_meta.json``."""
    run_dir = Path(run_dir)
    path, meta_path = run_dir / "spectra.npy", run_dir / "spectra_meta.json"
    if not path.exists() or not meta_path.exists():
        raise ConfigError(f"{run_dir} has no spectra.npy + spectra_meta.json; "
                          "rerun the spectra stage")
    meta = json.loads(meta_path.read_text())
    data = np.load(path)
    try:
        axes = [np.asarray(meta[key]) for key in ("taus", "mu", "freqs_hz")]
    except KeyError as exc:
        raise ConfigError(f"{meta_path} lacks the {exc} axis; rerun the spectra stage") from None
    if data.shape != tuple(axis.size for axis in axes):
        raise ConfigError(f"{path} has shape {data.shape}, not that of the axes in "
                          f"{meta_path.name}; rerun the spectra stage")
    return CoherenceSpectrum(data=data, mu=axes[1], freqs_hz=axes[2], taus=axes[0], meta=meta)


def read_spectrum_csv(path) -> CoherenceSpectrum:
    """Rebuild a CoherenceSpectrum from the CSV written by spectra_stage.

    Raises ConfigError when a (tau, mu, omega) key is repeated or missing.
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
    shape = tuple(len(axis) for axis in axes)
    if len(values) != np.prod(shape):
        raise ConfigError(f"{path} has {len(values)} rows, not the {np.prod(shape)} "
                          "of a full (tau, mu, omega) grid")
    data = np.zeros(shape, dtype=complex)
    for key, z in values.items():
        data[tuple(axis[v] for axis, v in zip(axes, key))] = z
    taus, mus, freqs = (np.asarray(list(axis)) for axis in axes)
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
    if cfg.block is None:
        raise ConfigError("config has no reversion block to verify")
    eig = build_eigensystem(cfg)
    reg = cfg.molecule.register()
    tau = next((t for t in cfg.grid.taus if t > 0), None)
    if tau is None:
        if isinstance(cfg.block, Mrev8Spec):
            tau = cfg.block.cycle_time
        else:
            raise ConfigError("tau schedule has no positive entry to verify")
    report = verify_reversion(cfg.block.events_for(tau), Propagators(eig, reg))
    result = {"tau": tau, "residual": report.residual,
              "effective_hamiltonian_norm": report.effective_norm,
              "duration": report.duration, "max_residual": max_residual}
    if report.residual > max_residual:
        raise NumericalValidationError(
            f"reversion residual {report.residual:.3e} exceeds the gate "
            f"{max_residual:.3e} (tau = {tau})")
    return result


def _set_dotted(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        if not isinstance(node.get(k), dict):
            node[k] = {}
        node = node[k]
    node[keys[-1]] = value


def sweep(base_doc: dict, base_dir=None, out_root=None) -> list:
    """Run a cartesian parameter sweep of simulate over dotted-path overrides.

    The config's ``sweep.parameters`` maps dotted paths (for example
    ``sequence.t_p``) to value lists; each combination runs in its own
    subdirectory, in deterministic order.
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
    # parse every combination before the first run starts
    cfgs = [(label, config_from_dict(doc, base_dir=base_dir)) for label, doc in runs]
    return [simulate(cfg, out_dir=out_root / label) for label, cfg in cfgs]


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
