"""Run configuration and molecule files.

Both are YAML.  A molecule file carries the cluster geometry or an
explicit coupling table:

    name: two-proton pair
    gamma: 2.6752218744e8        # rad/s/T, optional (default proton)
    order_parameter: 0.6
    positions_angstrom:          # either this ...
      - [0.0, 0.0, 0.0]
      - [0.0, 0.0, 2.0]
    couplings_hz:                # ... or this: [site_j, site_k, omega_D in Hz]
      - [0, 1, 5000.0]

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
from .hamiltonian import GAMMA_PROTON, SpinSystem, coupling_table
from .opensystem import DecoherenceParams, GaussianOMDF, TabulatedOMDF
from .sequence import AcquisitionSpec, ExperimentGrid, MagicSandwichSpec, Mrev8Spec

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
    a finite number of that kind: for ``int``, a bool or a value with a
    fractional part is refused rather than truncated."""
    try:
        number = kind(value)
        exact = kind is float or (number == value and not isinstance(value, bool))
        if math.isfinite(number) and exact:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a finite number'}, "
                      f"got {value!r}")


def molecule_from_dict(doc: dict, context: str = "molecule") -> SpinSystem:
    _check_keys(doc, MOLECULE_KEYS, context)
    name = doc.get("name", "")
    gamma = _number(doc.get("gamma", GAMMA_PROTON), f"{context}.gamma")
    s_zz_raw = _require(doc, "order_parameter", context)
    if s_zz_raw is None:
        raise ConfigError(f"{context}: order_parameter is a placeholder; fill it in")
    s_zz = _number(s_zz_raw, f"{context}.order_parameter")
    has_pos = "positions_angstrom" in doc
    has_coup = "couplings_hz" in doc
    if has_pos == has_coup:
        raise ConfigError(f"{context}: provide exactly one of positions_angstrom or couplings_hz")
    if has_pos:
        pos = doc["positions_angstrom"]
        if not pos or any(row is None or any(v is None for v in row) for row in pos):
            raise ConfigError(f"{context}: positions contain placeholders; fill them from "
                              "literature before running")
        positions = np.asarray(pos, dtype=float) * ANGSTROM
        return _spin_system(context, n_sites=positions.shape[0], positions=positions,
                            order_parameter=s_zz, gamma=gamma, name=name)
    rows = doc["couplings_hz"]
    if not rows:
        raise ConfigError(f"{context}: empty coupling list")
    for row in rows:
        if row is None or len(row) != 3 or any(v is None for v in row):
            raise ConfigError(f"{context}: coupling rows must be [site_j, site_k, omega_D_hz] "
                              "with no placeholders; fill them from literature")
    key = f"{context}.couplings_hz"
    pairs = [(_number(j, key, int), _number(k, key, int), _number(w, key)) for j, k, w in rows]
    n_sites = _number(doc.get("n_sites", max(max(j, k) for j, k, _ in pairs) + 1),
                      f"{context}.n_sites", int)
    table = np.zeros((n_sites, n_sites))
    for j, k, w in pairs:
        if j == k or not (0 <= j < n_sites and 0 <= k < n_sites):
            raise ConfigError(f"{context}: bad coupling pair ({j}, {k}) for {n_sites} sites")
        table[j, k] = table[k, j] = w
    return _spin_system(context, n_sites=n_sites, couplings_hz=table,
                        order_parameter=s_zz, gamma=gamma, name=name)


def _spin_system(context: str, **fields) -> SpinSystem:
    """SpinSystem(**fields); what a run would meet only later (S_zz outside
    [-0.5, 1], over 10 sites, coincident sites) is a ConfigError now."""
    if fields["n_sites"] < 2:
        raise ConfigError(f"{context}: need at least two sites for a dipolar Hamiltonian")
    try:
        sys_ = SpinSystem(**fields)
        sys_.register()
        coupling_table(sys_)
    except MqcnmrError as exc:
        raise ConfigError(f"{context}: {exc}") from None
    return sys_


def load_molecule(path) -> SpinSystem:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read molecule file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"molecule file {path} is not valid YAML: {exc}") from exc
    return molecule_from_dict(doc, context=str(path))


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


def _tau_schedule(doc, block) -> tuple:
    if isinstance(doc, list):
        return tuple(_number(v, "sequence.tau_schedule") for v in doc)
    if isinstance(doc, dict):
        _check_keys(doc, TAU_SCHEDULE_KEYS, "sequence.tau_schedule")
        count = _number(_require(doc, "count", "sequence.tau_schedule"),
                        "sequence.tau_schedule.count", int)
        if count < 1:
            raise ConfigError("tau schedule must be non-empty")
        if "step" in doc:
            step = _number(doc["step"], "sequence.tau_schedule.step")
            start = _number(doc.get("start", 0.0), "sequence.tau_schedule.start")
            return tuple(start + n * step for n in range(count))
        if isinstance(block, Mrev8Spec):
            return block.tau_schedule(count)
        raise ConfigError("tau_schedule needs a step unless the block is MREV8 "
                          "(whose cycle time sets the step)")
    raise ConfigError("tau_schedule must be a list of times or {count, step}")


def _phi_points(seq: dict) -> int:
    if "n_phi" in seq:
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
    if isinstance(mol, str):
        mol_path = Path(mol)
        if not mol_path.is_absolute():
            mol_path = base_dir / mol_path
        molecule = load_molecule(mol_path)
    elif isinstance(mol, dict):
        molecule = molecule_from_dict(mol)
    else:
        raise ConfigError("config: 'molecule' must be a path or an inline mapping")

    seq = _require(doc, "sequence", "config")
    _check_keys(seq, SEQUENCE_KEYS, "sequence")
    block = _block_from_dict(seq.get("block"))
    taus = _tau_schedule(_require(seq, "tau_schedule", "config"), block)
    # every decay curve the fit stage cuts runs along tau
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError(f"sequence.tau_schedule must be strictly increasing, got {list(taus)}")
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
    if "decoherence" in doc and doc["decoherence"] is not None:
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
            tab_path = Path(_require(odoc, "path", "decoherence.omdf"))
            if not tab_path.is_absolute():
                tab_path = base_dir / tab_path
            omdf = TabulatedOMDF.from_file(tab_path)
        deco = DecoherenceParams(
            sigma_cl=_number(_require(ddoc, "sigma_cl", "decoherence"), "decoherence.sigma_cl"),
            kappa=_number(ddoc.get("kappa", 2.0), "decoherence.kappa"), omdf=omdf)

    return RunConfig(
        molecule=molecule,
        engine=doc.get("engine", "closed"),
        grid=grid,
        block=block,
        acquisition=acq,
        decoherence=deco,
        n_molecules=_number(doc.get("n_molecules", 1), "n_molecules", int),
        output_dir=str(doc.get("output", "out")),
        raw=doc,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return config_from_dict(doc, base_dir=path.parent)


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
