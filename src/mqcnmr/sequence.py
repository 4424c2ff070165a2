"""Pulse-sequence programs, propagator compilation and closed-system runs.

A sequence is a list of events (instantaneous pulses and scaled free
evolutions).  The full experiment is the Jeener-Broekaert preparation,
an optional reversion block of duration tau (MREV8 or magic sandwich),
a waiting time t, the phase-encoded read pulse and a windowed acquisition:

    (pi/2)_x - t_p - (pi/4)_y - [block D, tau] - t - (pi/4)_{y+phi} - acquire

Pulses are delta pulses; finite width, RF inhomogeneity and off-resonance
effects are out of scope.  The signal recorded at each grid point is the
complex transverse magnetization tr((I_x + i I_y) rho) averaged over the
acquisition window, with the receiver phase following the read-pulse
phase phi (factor exp(-i phi)); this puts a coherence of order nu during
the encoding period at Fourier index nu of the phase transform.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import logm

from .errors import ConfigError, GridSizeError, MqcnmrError, NumericalValidationError
from .hamiltonian import EigenSystem
from .operators import SpinRegister, collective_angular_momentum, rotation
from .spectra import SignalGrid, detection_matrix


@dataclass(frozen=True)
class Pulse:
    """Instantaneous collective rotation by ``angle`` about axis-phase ``axis_phase``."""
    angle: float
    axis_phase: float


@dataclass(frozen=True)
class FreeEvolution:
    """Evolution under scale * H for ``duration`` seconds (scale -1/2 = magic burst)."""
    duration: float
    scale: float = 1.0

    def __post_init__(self):
        if self.duration < 0:
            raise MqcnmrError(f"negative evolution duration {self.duration}")


SequenceEvent = Pulse | FreeEvolution


@dataclass(frozen=True)
class AcquisitionSpec:
    """Windowed tr((I_x + i I_y) rho) acquisition: average over t_m +- window/2."""
    t_m: float
    window: float

    def __post_init__(self):
        if self.t_m < 0 or self.window < 0:
            raise MqcnmrError("acquisition times must be non-negative")


@dataclass(frozen=True)
class ExperimentGrid:
    """Sampling of the (phi, t, tau) experiment space.

    The phase step is fixed to 2*pi/n_phi so the phi transform is a proper
    DFT; orders up to |nu| < n_phi/2 are encoded alias-free.
    """
    t_p: float
    n_t: int
    dt: float
    n_phi: int
    taus: tuple

    def __post_init__(self):
        if self.n_t < 2:
            raise ConfigError(f"need at least 2 waiting-time steps, got {self.n_t}")
        if self.n_phi < 1:
            raise ConfigError(f"n_phi must be positive, got {self.n_phi}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_p < 0 or any(tau < 0 for tau in self.taus):
            raise ConfigError("t_p and all tau values must be non-negative")
        if len(self.taus) == 0:
            raise ConfigError("tau schedule is empty")

    @property
    def phis(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

    @property
    def ts(self) -> np.ndarray:
        return self.dt * np.arange(self.n_t)


def jb_prepare(t_p: float) -> tuple:
    """Jeener-Broekaert preparation fragment (pi/2)_x - t_p - (pi/4)_y."""
    if t_p < 0:
        raise MqcnmrError(f"preparation time must be non-negative, got {t_p}")
    return (Pulse(np.pi / 2, 0.0), FreeEvolution(t_p), Pulse(np.pi / 4, np.pi / 2))


# MREV-8: delays (in units of tau1) interleaved with eight pi/2 pulses of
# phases x, -y, y, -x, -x, -y, y, x; cycle time 12*tau1.  The pattern is
# gated by verify_reversion, which checks that the compiled cycle tends to
# the identity as tau1 -> 0.
_MREV8_DELAYS = (1, 1, 2, 1, 2, 1, 2, 1, 1)
_MREV8_PHASES = (0.0, -np.pi / 2, np.pi / 2, np.pi, np.pi, -np.pi / 2, np.pi / 2, 0.0)


def mrev8_block(tau1: float, n_blocks: int = 1) -> tuple:
    """Expand ``n_blocks`` MREV-8 cycles to delta pulses and delays.

    Each cycle holds 8 pulses and delays summing to 12*tau1.
    """
    if tau1 <= 0:
        raise MqcnmrError(f"tau1 must be positive, got {tau1}")
    if n_blocks < 1:
        raise MqcnmrError(f"n_blocks must be >= 1, got {n_blocks}")
    cycle = []
    cycle.append(FreeEvolution(_MREV8_DELAYS[0] * tau1))
    for phase, delay in zip(_MREV8_PHASES, _MREV8_DELAYS[1:]):
        cycle.append(Pulse(np.pi / 2, phase))
        cycle.append(FreeEvolution(delay * tau1))
    return tuple(cycle) * n_blocks


def magic_sandwich(tau_m: float) -> tuple:
    """Idealized magic sandwich: forward tau_m/2, then tau_m at scale -1/2.

    The compiled propagator is the identity for any Hamiltonian; total
    duration 1.5*tau_m.
    """
    if tau_m <= 0:
        raise MqcnmrError(f"tau_m must be positive, got {tau_m}")
    return (FreeEvolution(0.5 * tau_m, 1.0), FreeEvolution(tau_m, -0.5))


def total_duration(events) -> float:
    return sum(ev.duration for ev in events if isinstance(ev, FreeEvolution))


@dataclass(frozen=True)
class Mrev8Spec:
    """Reversion block family: MREV-8 cycles reaching a target duration tau.

    mode "concatenate" repeats fixed cycles of length 12*tau1 (tau must be
    an integer multiple); mode "stretch" uses a single cycle with
    tau1 = tau/12.
    """
    tau1: float
    mode: str = "concatenate"

    def __post_init__(self):
        if self.mode not in ("concatenate", "stretch"):
            raise ConfigError(f"unknown MREV8 mode {self.mode!r}")
        if self.tau1 <= 0:
            raise ConfigError(f"tau1 must be positive, got {self.tau1}")

    @property
    def cycle_time(self) -> float:
        return 12.0 * self.tau1

    def events_for(self, tau: float) -> tuple:
        if tau == 0:
            return ()
        if self.mode == "stretch":
            return mrev8_block(tau / 12.0)
        n = tau / self.cycle_time
        n_int = int(round(n))
        if n_int < 1 or abs(n - n_int) > 1e-9:
            raise ConfigError(
                f"tau = {tau} is not an integer multiple of the MREV8 cycle "
                f"time 12*tau1 = {self.cycle_time}"
            )
        return mrev8_block(self.tau1, n_int)

    def tau_schedule(self, count: int) -> tuple:
        return tuple(n * self.cycle_time for n in range(count))


@dataclass(frozen=True)
class MagicSandwichSpec:
    """Reversion block family: one magic sandwich of total duration tau."""

    def events_for(self, tau: float) -> tuple:
        if tau == 0:
            return ()
        return magic_sandwich(tau / 1.5)


class PropagatorCache:
    """Compile-once store of event propagators in the product basis.

    Keys are the exact (duration, scale) or (angle, axis_phase) floats, so
    identical events from one grid always hit the cache and recompilation
    is bit-deterministic.  Read-only after warmup; safe to share across
    worker threads.
    """

    def __init__(self, eig: EigenSystem, reg: SpinRegister):
        self.eig = eig
        self.reg = reg
        self.hits = 0
        self.misses = 0
        self._store = {}

    def free(self, duration: float, scale: float = 1.0) -> np.ndarray:
        key = ("free", float(duration), float(scale))
        u = self._store.get(key)
        if u is None:
            self.misses += 1
            eig = self.eig
            phases = np.exp(-1j * scale * eig.order_parameter * eig.zeta * duration)
            u = (eig.vectors * phases) @ eig.vectors.conj().T
            u.flags.writeable = False
            self._store[key] = u
        else:
            self.hits += 1
        return u

    def pulse(self, angle: float, axis_phase: float) -> np.ndarray:
        key = ("pulse", float(angle), float(axis_phase))
        u = self._store.get(key)
        if u is None:
            self.misses += 1
            u = rotation(self.reg, angle, axis_phase).entries
            self._store[key] = u
        else:
            self.hits += 1
        return u

    def event(self, ev: SequenceEvent) -> np.ndarray:
        if isinstance(ev, Pulse):
            return self.pulse(ev.angle, ev.axis_phase)
        return self.free(ev.duration, ev.scale)

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}


def compile_program(events, cache: PropagatorCache) -> np.ndarray:
    """Multiply event propagators in time order into one unitary."""
    u = np.eye(cache.reg.dim, dtype=complex)
    for ev in events:
        u = cache.event(ev) @ u
    return u


@dataclass(frozen=True)
class ReversionReport:
    """Outcome of the reversion self-check on a compiled block."""
    residual: float
    effective_hamiltonian: np.ndarray
    duration: float

    @property
    def effective_norm(self) -> float:
        return float(np.linalg.norm(self.effective_hamiltonian, 2))


def verify_reversion(events, cache: PropagatorCache) -> ReversionReport:
    """Measure how far a compiled block is from a global-phase identity.

    Reports ||U - exp(i theta) 1|| in the spectral norm with theta chosen
    optimally, plus the effective generator log(U)/(-i tau).  Used as a
    gate so a wrong multipulse phase pattern cannot silently ship.
    """
    u = compile_program(events, cache)
    uni_err = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if uni_err > 1e-8:
        raise NumericalValidationError(f"compiled block is not unitary (error {uni_err:.3e})")
    theta = np.angle(np.trace(u))
    residual = float(np.linalg.norm(u - np.exp(1j * theta) * np.eye(u.shape[0]), 2))
    tau = total_duration(events)
    if tau > 0:
        h_eff = logm(u * np.exp(-1j * theta)) / (-1j * tau)
    else:
        h_eff = np.zeros_like(u)
    return ReversionReport(residual=residual, effective_hamiltonian=h_eff, duration=tau)


def default_acquisition(eig: EigenSystem, reg: SpinRegister, t_p: float,
                        dwell: float = 1e-6, n_scan: int = 256) -> AcquisitionSpec:
    """Acquisition defaults: t_m at the first magnitude maximum of the tau=0,
    phi=0 signal, window two dwell steps wide.

    The scan runs in the H eigenbasis: with p = exp(-i S_zz zeta t) the
    signal tr(I_+ U rho U^dagger) is sum_ab conj(p_a) M[a, b] p_b with
    M = I_+ (elementwise) rho^T, one GEMM over (scan time, eigenstate).
    """
    cache = PropagatorCache(eig, reg)
    prep = compile_program(jb_prepare(t_p), cache)
    v = eig.vectors
    u = v.conj().T @ cache.pulse(np.pi / 4, np.pi / 2) @ prep
    iz = collective_angular_momentum(reg, "z").entries
    rho_e = u @ iz @ u.conj().T
    ip = (collective_angular_momentum(reg, "x").entries
          + 1j * collective_angular_momentum(reg, "y").entries)
    weights = (v.conj().T @ ip @ v) * rho_e.T
    p = _phases(eig, dwell * np.arange(n_scan))
    mags = np.abs(np.sum((p.conj() @ weights) * p, axis=1))
    idx = 0
    for i in range(1, n_scan - 1):
        if mags[i] >= mags[i - 1] and mags[i] > mags[i + 1]:
            idx = i
            break
    return AcquisitionSpec(t_m=idx * dwell, window=2.0 * dwell)


def _phases(eig: EigenSystem, ts: np.ndarray) -> np.ndarray:
    """Free-evolution phases p[j, a] = exp(-i S_zz zeta_a t_j), shape (n_t, dim)."""
    return np.exp(-1j * eig.order_parameter * np.outer(ts, eig.zeta))


def compile_blocks(block, taus, cache: PropagatorCache) -> list:
    """Compiled reversion block for every tau (None where the block is empty).

    An MREV-8 "concatenate" block of duration tau is n copies of one cycle:
    the cycle is compiled once and U_n = U_cycle U_{n-1} is advanced up to
    the largest n, in place of multiplying 17 n event propagators per tau.
    ``events_for`` still runs for every tau, so a tau that is not a whole
    number of cycles is rejected as before.
    """
    events = [() if block is None else block.events_for(tau) for tau in taus]
    if not (isinstance(block, Mrev8Spec) and block.mode == "concatenate"):
        return [compile_program(ev, cache) if ev else None for ev in events]
    cycle = mrev8_block(block.tau1)
    counts = [len(ev) // len(cycle) for ev in events]
    u_cycle = compile_program(cycle, cache)
    powers = {0: None}
    u = None
    for n in range(1, max(counts) + 1):
        u = u_cycle if u is None else u_cycle @ u
        if n in counts:
            powers[n] = u
    return [powers[n] for n in counts]


def _m_blocks(eig: EigenSystem) -> tuple:
    """Distinct total-m values of the eigenstates, the eigenstates of each,
    and the (dim, n_m) indicator matrix whose column k marks m_values[k].

    Derived from ``eig.m`` alone; no ordering of the eigenbasis is assumed.
    """
    m_values = np.unique(eig.m)
    rows = [np.flatnonzero(eig.m == m) for m in m_values]
    member = (eig.m[:, None] == m_values[None, :]).astype(complex)
    return m_values, rows, member


def _tau_slab(eig, a_eig, det, phases, m_blocks, n_spins, u_d):
    """Order-resolved signal coefficients c[t, nu + N] for one tau.

    Term (a, b) of the signal is det[a, b] sigma[b, a](t), of coherence
    order nu = m_b - m_a, and sigma[b, a] evolves as p_b(t) conj(p_a(t)).
    With W = det (elementwise) sigma(0)^T, the rows A of one m value give
    Q = conj(P[:, A]) @ W[A, :]; summing Q * P over the columns of each m
    value yields that pair of m values' contribution at every t.  Working
    memory is O(n_t 2^N) beyond the 2^N x 2^N inputs.
    """
    if u_d is None:
        b = a_eig
    else:
        w = eig.vectors.conj().T @ u_d @ eig.vectors
        b = w @ a_eig @ w.conj().T
    weights = det * b.T
    m_values, rows, member = m_blocks
    coeffs = np.zeros((phases.shape[0], 2 * n_spins + 1), dtype=complex)
    for m_a, idx in zip(m_values, rows):
        q = phases[:, idx].conj() @ weights[idx, :]
        cols = np.rint(m_values - m_a).astype(int) + n_spins
        coeffs[:, cols] += (q * phases) @ member
    return coeffs


# Working-set budget of one grid run, in bytes.
MEMORY_BUDGET_BYTES = 2 << 30


def check_grid_memory(grid: ExperimentGrid, dim: int, matrices: int, t_rows: int,
                      workspace: int = 0, budget: int | None = None) -> None:
    """Raise GridSizeError when a grid run's complex working set exceeds
    ``budget`` bytes (MEMORY_BUDGET_BYTES when None).

    The estimate counts the (n_phi, n_t, n_tau) signal grid, ``matrices``
    arrays of dim x dim, ``t_rows`` arrays of n_t and ``workspace`` further
    values, all complex; engines call it before allocating anything.
    """
    budget = MEMORY_BUDGET_BYTES if budget is None else budget
    estimate = 16 * (grid.n_phi * grid.n_t * len(grid.taus) + dim ** 2 * matrices
                     + grid.n_t * t_rows + workspace)
    if estimate > budget:
        raise GridSizeError(
            f"grid needs about {estimate / 1e6:.0f} MB, over the budget of "
            f"{budget / 1e6:.0f} MB"
        )


def run_grid(eig: EigenSystem, reg: SpinRegister, grid: ExperimentGrid,
             block=None, acquisition: AcquisitionSpec | None = None,
             n_molecules: int = 1, workers: int = 1,
             memory_budget_bytes: int | None = None) -> SignalGrid:
    """Execute the closed-system experiment over the whole (phi, t, tau) grid.

    The initial state is I_z; each grid point records the window-averaged
    complex transverse signal.  Free evolution and the phi dependence are
    applied analytically in the H eigenbasis, which is exactly equivalent
    to propagating every grid point through the compiled pulse chain.
    tau slabs are independent and may run on ``workers`` threads; results
    land in disjoint slots so the output is bit-identical for any worker
    count.

    Args:
        block: reversion block spec with an ``events_for(tau)`` method
            (``Mrev8Spec``, ``MagicSandwichSpec``) or None.
        acquisition: acquisition spec; defaults to ``default_acquisition``.
        memory_budget_bytes: budget of the working set; defaults to
            MEMORY_BUDGET_BYTES.
    """
    # signal grid, compiled blocks plus shared and per-thread 2^N x 2^N
    # workspaces, and the (n_t, 2^N) phases plus one GEMM output per thread
    check_grid_memory(grid, reg.dim, matrices=len(grid.taus) + 4 + 3 * workers,
                      t_rows=reg.dim * (1 + workers), budget=memory_budget_bytes)
    if acquisition is None:
        acquisition = default_acquisition(eig, reg, grid.t_p)

    cache = PropagatorCache(eig, reg)
    prep = compile_program(jb_prepare(grid.t_p), cache)
    iz = collective_angular_momentum(reg, "z").entries
    rho_prep = prep @ iz @ prep.conj().T
    a_eig = eig.vectors.conj().T @ rho_prep @ eig.vectors

    det = detection_matrix(eig, reg, acquisition.t_m, acquisition.window)
    phases = _phases(eig, grid.ts)
    m_blocks = _m_blocks(eig)
    nus = np.arange(-reg.n_spins, reg.n_spins + 1)
    encoder = np.exp(1j * np.outer(grid.phis, nus))  # (n_phi, n_orders)

    def one_tau(u_d):
        return _tau_slab(eig, a_eig, det, phases, m_blocks, reg.n_spins, u_d)

    blocks = compile_blocks(block, grid.taus, cache)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            slabs = list(pool.map(one_tau, blocks))
    else:
        slabs = [one_tau(u_d) for u_d in blocks]

    data = np.empty((grid.n_phi, grid.n_t, len(grid.taus)), dtype=complex)
    for k, coeffs in enumerate(slabs):
        data[:, :, k] = n_molecules * (encoder @ coeffs.T)

    return SignalGrid(
        data=data, dt=grid.dt, taus=np.asarray(grid.taus, dtype=float),
        t_p=grid.t_p, t_m=acquisition.t_m, window=acquisition.window,
        cache_stats=cache.stats(),
    )
