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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .hamiltonian import GAMMA_PROTON, SpinSystem
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


def molecule_from_dict(doc: dict, context: str = "molecule") -> SpinSystem:
    _check_keys(doc, MOLECULE_KEYS, context)
    name = doc.get("name", "")
    gamma = float(doc.get("gamma", GAMMA_PROTON))
    s_zz_raw = _require(doc, "order_parameter", context)
    if s_zz_raw is None:
        raise ConfigError(f"{context}: order_parameter is a placeholder; fill it in")
    s_zz = float(s_zz_raw)
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
        return SpinSystem(n_sites=positions.shape[0], positions=positions,
                          order_parameter=s_zz, gamma=gamma, name=name)
    rows = doc["couplings_hz"]
    if not rows:
        raise ConfigError(f"{context}: empty coupling list")
    for row in rows:
        if row is None or len(row) != 3 or any(v is None for v in row):
            raise ConfigError(f"{context}: coupling rows must be [site_j, site_k, omega_D_hz] "
                              "with no placeholders; fill them from literature")
    n_sites = int(doc.get("n_sites", max(max(int(r[0]), int(r[1])) for r in rows) + 1))
    table = np.zeros((n_sites, n_sites))
    for j, k, w in rows:
        j, k = int(j), int(k)
        if j == k or not (0 <= j < n_sites and 0 <= k < n_sites):
            raise ConfigError(f"{context}: bad coupling pair ({j}, {k}) for {n_sites} sites")
        table[j, k] = table[k, j] = float(w)
    return SpinSystem(n_sites=n_sites, couplings_hz=table,
                      order_parameter=s_zz, gamma=gamma, name=name)


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
    workers: int = 1
    output_dir: str = "out"
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.engine not in ("closed", "open"):
            raise ConfigError(f"engine must be 'closed' or 'open', got {self.engine!r}")
        if self.engine == "open" and self.decoherence is None:
            raise ConfigError("engine 'open' requires a decoherence section")
        if self.workers < 1 or self.n_molecules < 1:
            raise ConfigError("workers and n_molecules must be >= 1")


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
        return Mrev8Spec(tau1=float(_require(doc, "tau1", "sequence.block")),
                         mode=doc.get("mode", "concatenate"))
    if kind == "magic_sandwich":
        return MagicSandwichSpec()
    return None


def _tau_schedule(doc, block) -> tuple:
    if isinstance(doc, list):
        return tuple(float(v) for v in doc)
    if isinstance(doc, dict):
        _check_keys(doc, TAU_SCHEDULE_KEYS, "sequence.tau_schedule")
        count = int(_require(doc, "count", "sequence.tau_schedule"))
        if count < 1:
            raise ConfigError("tau schedule must be non-empty")
        if "step" in doc:
            step = float(doc["step"])
            start = float(doc.get("start", 0.0))
            return tuple(start + n * step for n in range(count))
        if isinstance(block, Mrev8Spec):
            return block.tau_schedule(count)
        raise ConfigError("tau_schedule needs a step unless the block is MREV8 "
                          "(whose cycle time sets the step)")
    raise ConfigError("tau_schedule must be a list of times or {count, step}")


def _phi_points(seq: dict) -> int:
    if "n_phi" in seq:
        return int(seq["n_phi"])
    if "phi_step_deg" in seq:
        step = float(seq["phi_step_deg"])
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
    gdoc = _require(seq, "grid", "config")
    _check_keys(gdoc, GRID_KEYS, "sequence.grid")
    grid = ExperimentGrid(
        t_p=float(_require(seq, "t_p", "sequence")),
        n_t=int(_require(gdoc, "n_t", "sequence.grid")),
        dt=float(_require(gdoc, "dt", "sequence.grid")),
        n_phi=_phi_points(gdoc),
        taus=taus,
    )

    acq = None
    if "acquisition" in seq:
        adoc = seq["acquisition"]
        _check_keys(adoc, ACQUISITION_KEYS, "sequence.acquisition")
        acq = AcquisitionSpec(t_m=float(_require(adoc, "t_m", "acquisition")),
                              window=float(_require(adoc, "window", "acquisition")))

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
            omdf = GaussianOMDF(width=float(_require(odoc, "width", "decoherence.omdf")))
        else:
            tab_path = Path(_require(odoc, "path", "decoherence.omdf"))
            if not tab_path.is_absolute():
                tab_path = base_dir / tab_path
            omdf = TabulatedOMDF.from_file(tab_path)
        deco = DecoherenceParams(sigma_cl=float(_require(ddoc, "sigma_cl", "decoherence")),
                                 kappa=float(ddoc.get("kappa", 2.0)), omdf=omdf)

    return RunConfig(
        molecule=molecule,
        engine=doc.get("engine", "closed"),
        grid=grid,
        block=block,
        acquisition=acq,
        decoherence=deco,
        n_molecules=int(doc.get("n_molecules", 1)),
        workers=int(doc.get("workers", 1)),
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
