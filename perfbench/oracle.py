"""Anchor the benchmark configurations to the brute-force oracle at N = 4.

The closed configuration (``workloads.closed_doc``) and the
open_n8_pipeline configuration are run through ``runner.simulate`` on a
seeded 4-spin molecule and compared, on a subset of grid points, with
the independent Kronecker/expm propagators
in ``tests/reference.py`` (``brute_grid`` for the closed engine; the open
engine's brute force follows ``tests/test_opensystem.py``).  The window
average is a trapezoid quadrature there, which limits the agreement to
``ORACLE_RTOL`` of the largest signal.
"""

from __future__ import annotations

import importlib.util
import tempfile
from pathlib import Path

import numpy as np

import workloads as W

ORACLE_N = 4
ORACLE_RTOL = 1e-7
N_QUAD = 101
T_INDICES = (0, 1, 63)
OPEN_TAU_INDICES = (0, 5, 23)


def _reference_module():
    path = W.ROOT / "tests" / "reference.py"
    if not path.is_file():
        raise SystemExit(f"perfbench: oracle module {path} not found")
    spec = importlib.util.spec_from_file_location("perfbench_oracle_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _table(molecule: dict) -> np.ndarray:
    n = 1 + max(max(j, k) for j, k, _ in molecule["couplings_hz"])
    table = np.zeros((n, n))
    for j, k, w in molecule["couplings_hz"]:
        table[j, k] = table[k, j] = w
    return table


def _simulate(doc, config, runner, out: Path):
    cfg = config.config_from_dict(doc, base_dir=config.preset_path("runs"))
    runner.simulate(cfg, out_dir=out)
    grid = runner.load_signals(out)
    return cfg, grid


def _rel_err(fast: np.ndarray, slow: np.ndarray) -> float:
    return float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))


def closed_error(seed: int, config, runner, ref, out: Path) -> float:
    doc = W.closed_doc(ORACLE_N, seed)
    cfg, grid = _simulate(doc, config, runner, out)
    tau1 = doc["sequence"]["block"]["tau1"]

    def events(tau):
        return [] if tau == 0 else ref.mrev8_events(tau1, int(round(tau / (12 * tau1))))

    ts = cfg.grid.ts[list(T_INDICES)]
    slow = ref.brute_grid(_table(doc["molecule"]), doc["molecule"]["order_parameter"],
                          cfg.grid.t_p, cfg.grid.phis, ts, cfg.grid.taus, events,
                          grid.t_m, grid.window, n_quad=N_QUAD)
    return _rel_err(grid.data[:, list(T_INDICES), :], slow)


def open_error(seed: int, config, runner, ref, out: Path) -> float:
    doc = W.open_doc()
    doc["molecule"] = W.seeded_molecule(ORACLE_N, seed)
    cfg, grid = _simulate(doc, config, runner, out)
    eig = runner.build_eigensystem(cfg)
    table = _table(doc["molecule"])
    s_zz = doc["molecule"]["order_parameter"]
    deco = cfg.decoherence
    h = ref.ham_ref(table, s_zz)
    rho0 = ref.apply_events(ORACLE_N, h, ref.coll(ORACLE_N, "z"),
                            [("pulse", np.pi / 2, 0.0), ("free", cfg.grid.t_p, 1.0),
                             ("pulse", np.pi / 4, np.pi / 2)])
    v = eig.vectors
    a0 = v.conj().T @ rho0 @ v
    gaps = eig.zeta[:, None] - eig.zeta[None, :]
    taus = cfg.grid.taus
    fast = grid.data[:, list(T_INDICES), :][:, :, list(OPEN_TAU_INDICES)]
    slow = np.empty_like(fast)
    for k, tau in enumerate(taus[i] for i in OPEN_TAU_INDICES):
        for j, t in enumerate(cfg.grid.ts[list(T_INDICES)]):
            factor = (np.exp(-1j * s_zz * gaps * t) * deco.omdf.q(gaps * t)
                      * np.exp(-(gaps * deco.sigma_cl) ** 2 * tau ** 4
                               / (8.0 * (deco.kappa + 1.0) ** 2)))
            rho = v @ (a0 * factor) @ v.conj().T
            for i, phi in enumerate(cfg.grid.phis):
                r = ref.rot(ORACLE_N, np.pi / 4, np.pi / 2 + phi)
                raw = ref.windowed_signal(ORACLE_N, h, r @ rho @ r.conj().T,
                                          grid.t_m, grid.window, n_quad=N_QUAD)
                slow[i, j, k] = np.exp(-1j * phi) * raw
    return _rel_err(fast, slow)


def oracle_errors(seed: int, config, runner) -> dict:
    """Relative deviation from the oracle of the closed and open configurations."""
    ref = _reference_module()
    W.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=W.WORK) as tmp:
        return {"closed_n4": closed_error(seed, config, runner, ref, Path(tmp) / "closed"),
                "open_n4": open_error(seed, config, runner, ref, Path(tmp) / "open")}
