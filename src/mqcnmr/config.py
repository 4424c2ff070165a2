"""Run configuration and molecule files.

Both are YAML.  A molecule is a coupling table and an order parameter; the
file gives the table itself or the cluster geometry it follows from:

    name: two-proton pair        # a label; nothing reads it
    order_parameter: 0.6
    positions_angstrom:          # either this ...
      - [0.0, 0.0, 0.0]
      - [0.0, 0.0, 2.0]
    gamma: 2.6752218744e8        # rad/s/T, with positions only (default proton)
    couplings_hz:                # ... or this: [site_j, site_k, omega_D in Hz]
      - [0, 1, 5000.0]
    n_sites: 2                   # with couplings only (default: highest site + 1)

A run configuration names the molecule, the engine, the sequence and the
experiment grid; see ``presets/runs`` for complete examples.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, MqcnmrError
from .hamiltonian import GAMMA_PROTON, SpinSystem
from .opensystem import DecoherenceParams, GaussianOMDF, TabulatedOMDF
from .sequence import (AcquisitionSpec, ExperimentGrid, MagicSandwichSpec, Mrev8Spec,
                       check_grid_memory)

ANGSTROM = 1e-10


RUN_KEYS = {"molecule", "engine", "sequence", "decoherence", "n_molecules", "workers",
            "output", "sweep"}
MOLECULE_KEYS = {"name", "gamma", "order_parameter", "positions_angstrom", "couplings_hz",
                 "n_sites"}
SEQUENCE_KEYS = {"t_p", "block", "tau_schedule", "grid", "acquisition"}
BLOCK_KEYS = {"mrev8": {"type", "tau1", "mode"}, "magic_sandwich": {"type"}, "none": {"type"}}
TAU_SCHEDULE_KEYS = {"count", "step", "start"}
GRID_KEYS = {"n_t", "dt", "n_phi", "phi_step_deg"}
ACQUISITION_KEYS = {"t_m", "window"}
DECOHERENCE_KEYS = {"sigma_cl", "kappa", "omdf"}
OMDF_KEYS = {"gaussian": {"family", "width"}, "tabulated": {"family", "path"}}


def _check_keys(mapping, allowed, context: str) -> None:
    """Reject a section that is not a mapping or holds a key it does not honour."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"allowed: {', '.join(sorted(allowed))}")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _number(value, key: str, kind=float):
    """``kind(value)``, or a ConfigError naming ``key`` when the value is not
    a finite number of that kind: a bool is refused rather than read as 0 or
    1, and for ``int`` a value with a fractional part rather than truncated."""
    try:
        number = kind(value)
        exact = not isinstance(value, bool) and (kind is float or number == value)
        if math.isfinite(number) and exact:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a finite number'}, "
                      f"got {value!r}")


def _path(value, key: str) -> str:
    """``value``, or a ConfigError naming ``key`` when it is not a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a path (a string), got {value!r}")
    return value


def _rows(value, key: str, form: str) -> list:
    """The rows of a molecule table, each of three values, with no null left
    in them (a placeholder); a ConfigError naming ``key`` otherwise."""
    if not (isinstance(value, list) and value
            and all(isinstance(row, list) and len(row) == 3 for row in value)):
        raise ConfigError(f"{key}: expected a non-empty list of rows {form}, got {value!r}")
    if any(None in row for row in value):
        raise ConfigError(f"{key}: placeholders left; fill them in from literature before "
                          "running")
    return value


def molecule_from_dict(doc: dict, context: str = "molecule") -> SpinSystem:
    _check_keys(doc, MOLECULE_KEYS, context)
    s_zz_raw = _require(doc, "order_parameter", context)
    if s_zz_raw is None:
        raise ConfigError(f"{context}: order_parameter is a placeholder; fill it in")
    s_zz = _number(s_zz_raw, f"{context}.order_parameter")
    has_pos = "positions_angstrom" in doc
    if has_pos == ("couplings_hz" in doc):
        raise ConfigError(f"{context}: provide exactly one of positions_angstrom or couplings_hz")
    for key, form in (("gamma", "couplings_hz"), ("n_sites", "positions_angstrom")):
        if key in doc and form in doc:
            raise ConfigError(f"{context}.{key}: not read next to {form}; remove it")
    if has_pos:
        key = f"{context}.positions_angstrom"
        positions = np.array([[_number(v, key) for v in row]
                              for row in _rows(doc["positions_angstrom"], key, "[x, y, z]")])
        gamma = _number(doc.get("gamma", GAMMA_PROTON), f"{context}.gamma")
        n_sites = len(positions)
    else:
        key = f"{context}.couplings_hz"
        rows = _rows(doc["couplings_hz"], key, "[site_j, site_k, omega_D_hz]")
        pairs = [(_number(j, key, int), _number(k, key, int), _number(w, key))
                 for j, k, w in rows]
        n_sites = _number(doc.get("n_sites", max(max(j, k) for j, k, _ in pairs) + 1),
                          f"{context}.n_sites", int)
        for j, k, _ in pairs:
            if j == k or not (0 <= j < n_sites and 0 <= k < n_sites):
                raise ConfigError(f"{context}: bad coupling pair ({j}, {k}) for {n_sites} sites")
    # 17 bytes a pair of sites: the table, SpinSystem's copy and one boolean mask
    check_grid_memory(17 * n_sites ** 2 // 16, f"{context}: the coupling table of {n_sites} sites")
    # what a run would meet only later (S_zz outside [-0.5, 1], fewer than 2
    # sites, coincident sites, a non-finite coupling) is refused now
    try:
        if has_pos:
            return SpinSystem.from_positions(positions * ANGSTROM, s_zz, gamma)
        table = np.zeros((n_sites, n_sites))
        for j, k, w in pairs:
            table[j, k] = table[k, j] = w
        return SpinSystem(table, s_zz)
    except MqcnmrError as exc:
        raise ConfigError(f"{context}: {exc}") from None


# PyYAML's safe loader on libyaml's parser where PyYAML was built with it
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path: Path, what: str):
    """The YAML document in ``path`` (parsed by YAML_LOADER), or a ConfigError
    naming ``what`` when the file cannot be read or is not valid YAML."""
    try:
        return yaml.load(path.read_text(), Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} {path} is not valid YAML: {exc}") from exc


def load_molecule(path) -> SpinSystem:
    return molecule_from_dict(load_yaml(Path(path), "molecule file"), context=str(path))


@dataclass(frozen=True)
class RunConfig:
    """One experiment: molecule + sequence + engine + output policy."""

    molecule: SpinSystem
    engine: str
    grid: ExperimentGrid
    block: object | None
    acquisition: AcquisitionSpec | None
    decoherence: DecoherenceParams | None
    n_molecules: int = 1
    output_dir: str = "out"
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.engine not in ("closed", "open"):
            raise ConfigError(f"engine must be 'closed' or 'open', got {self.engine!r}")
        if self.engine == "open" and self.decoherence is None:
            raise ConfigError("engine 'open' requires a decoherence section")
        if self.n_molecules < 1:
            raise ConfigError("n_molecules must be >= 1")


def _block_from_dict(doc: dict | None):
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ConfigError(f"sequence.block: expected a mapping, got {type(doc).__name__}")
    kind = _require(doc, "type", "sequence.block")
    if not isinstance(kind, str) or kind not in BLOCK_KEYS:
        raise ConfigError(f"unknown block type {kind!r}")
    _check_keys(doc, BLOCK_KEYS[kind], f"sequence.block (type {kind})")
    if kind == "mrev8":
        tau1 = _number(_require(doc, "tau1", "sequence.block"), "sequence.block.tau1")
        return Mrev8Spec(tau1=tau1, mode=doc.get("mode", "concatenate"))
    if kind == "magic_sandwich":
        return MagicSandwichSpec()
    return None


def check_increasing(taus, what: str) -> None:
    """Refuse taus that do not strictly increase, naming them ``what``: every
    decay curve the fit stage cuts runs along tau."""
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError(f"{what} must be strictly increasing, got {list(taus)}")


def _tau_schedule(doc, block) -> tuple:
    if isinstance(doc, list):
        return tuple(_number(v, "sequence.tau_schedule") for v in doc)
    if isinstance(doc, dict):
        _check_keys(doc, TAU_SCHEDULE_KEYS, "sequence.tau_schedule")
        count = _number(_require(doc, "count", "sequence.tau_schedule"),
                        "sequence.tau_schedule.count", int)
        # each tau adds at least n_phi x n_t >= 2 values to the signal grid
        check_grid_memory(2 * count, f"sequence.tau_schedule.count = {count}")
        start = _number(doc.get("start", 0.0), "sequence.tau_schedule.start")
        if "step" in doc:
            step = _number(doc["step"], "sequence.tau_schedule.step")
        elif isinstance(block, Mrev8Spec):
            step = block.cycle_time
        else:
            raise ConfigError("tau_schedule needs a step unless the block is MREV8 "
                              "(whose cycle time sets the step)")
        return tuple(start + n * step for n in range(count))
    raise ConfigError("tau_schedule must be a list of times or {count, step}")


def _phi_points(seq: dict) -> int:
    if "n_phi" in seq:
        if "phi_step_deg" in seq:
            raise ConfigError("sequence.grid.phi_step_deg: not read next to n_phi; remove it")
        return _number(seq["n_phi"], "sequence.grid.n_phi", int)
    if "phi_step_deg" in seq:
        step = _number(seq["phi_step_deg"], "sequence.grid.phi_step_deg")
        n = 360.0 / step
        if abs(n - round(n)) > 1e-6 * n:
            raise ConfigError(
                f"phi step {step} deg does not evenly divide 360; nonuniform phase "
                "sampling is unsupported")
        return int(round(n))
    raise ConfigError("sequence.grid: give n_phi or phi_step_deg")


def config_from_dict(doc: dict, base_dir: Path | None = None) -> RunConfig:
    base_dir = Path(base_dir) if base_dir else Path.cwd()
    _check_keys(doc, RUN_KEYS, "config")
    # accepted for old run files and validated, but no engine reads it
    if _number(doc.get("workers", 1), "workers", int) < 1:
        raise ConfigError("workers must be >= 1")

    mol = doc.get("molecule")
    if isinstance(mol, str):  # relative to the config; an absolute path stays as it is
        molecule = load_molecule(base_dir / mol)
    elif isinstance(mol, dict):
        molecule = molecule_from_dict(mol)
    else:
        raise ConfigError("config: 'molecule' must be a path or an inline mapping")

    engine = doc.get("engine", "closed")
    seq = _require(doc, "sequence", "config")
    _check_keys(seq, SEQUENCE_KEYS, "sequence")
    block = _block_from_dict(seq.get("block"))
    if engine == "open" and block is not None:
        raise ConfigError("sequence.block: the open engine takes the reversion as ideal; "
                          "give type none or leave the block out")
    taus = _tau_schedule(_require(seq, "tau_schedule", "config"), block)
    check_increasing(taus, "sequence.tau_schedule")
    gdoc = _require(seq, "grid", "config")
    _check_keys(gdoc, GRID_KEYS, "sequence.grid")
    grid = ExperimentGrid(
        t_p=_number(_require(seq, "t_p", "sequence"), "sequence.t_p"),
        n_t=_number(_require(gdoc, "n_t", "sequence.grid"), "sequence.grid.n_t", int),
        dt=_number(_require(gdoc, "dt", "sequence.grid"), "sequence.grid.dt"),
        n_phi=_phi_points(gdoc),
        taus=taus,
    )

    acq = None
    if "acquisition" in seq:
        adoc = seq["acquisition"]
        _check_keys(adoc, ACQUISITION_KEYS, "sequence.acquisition")
        times = {key: _number(_require(adoc, key, "acquisition"), f"sequence.acquisition.{key}")
                 for key in ("t_m", "window")}
        for key, value in times.items():
            if not value >= 0:
                raise ConfigError(f"sequence.acquisition.{key} must be non-negative, "
                                  f"got {value!r}")
        acq = AcquisitionSpec(**times)

    deco = None
    if doc.get("decoherence") is not None:
        if engine == "closed":
            raise ConfigError("decoherence: the closed engine has no decoherence; remove the "
                              "section or set engine: open")
        ddoc = doc["decoherence"]
        _check_keys(ddoc, DECOHERENCE_KEYS, "decoherence")
        odoc = ddoc.get("omdf", {"family": "gaussian"})
        if not isinstance(odoc, dict):
            raise ConfigError("decoherence.omdf: expected a mapping")
        family = odoc.get("family", "gaussian")
        if not isinstance(family, str) or family not in OMDF_KEYS:
            raise ConfigError(f"unknown OMDF family {family!r}")
        _check_keys(odoc, OMDF_KEYS[family], f"decoherence.omdf (family {family})")
        if family == "gaussian":
            omdf = GaussianOMDF(width=_number(_require(odoc, "width", "decoherence.omdf"),
                                               "decoherence.omdf.width"))
        else:
            omdf = TabulatedOMDF.from_file(base_dir / _path(
                _require(odoc, "path", "decoherence.omdf"), "decoherence.omdf.path"))
        deco = DecoherenceParams(
            sigma_cl=_number(_require(ddoc, "sigma_cl", "decoherence"), "decoherence.sigma_cl"),
            kappa=_number(ddoc.get("kappa", 2.0), "decoherence.kappa"), omdf=omdf)

    return RunConfig(
        molecule=molecule,
        engine=engine,
        grid=grid,
        block=block,
        acquisition=acq,
        decoherence=deco,
        n_molecules=_number(doc.get("n_molecules", 1), "n_molecules", int),
        output_dir=_path(doc.get("output", "out"), "output"),
        raw=doc,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    return config_from_dict(load_yaml(path, "config"), base_dir=path.parent)


def config_hash(doc: dict) -> str:
    """Stable hash of a config mapping (canonical JSON, sorted keys)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def preset_path(name: str) -> Path:
    """Filesystem path of a shipped preset, e.g. 'runs/two_spin_ms.yaml'."""
    root = resources.files("mqcnmr") / "presets"
    p = Path(str(root)) / name
    if not p.exists():
        available = sorted(str(q.relative_to(str(root))) for q in Path(str(root)).rglob("*.yaml"))
        raise ConfigError(f"no preset {name!r}; available: {', '.join(available)}")
    return p
