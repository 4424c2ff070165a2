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

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import logm

from .errors import ConfigError, GridSizeError, MqcnmrError, NumericalValidationError
from .hamiltonian import EigenSystem
from .operators import (SpinRegister, collective_angular_momentum, kron_apply,
                        kron_conjugate, rotation_halves)
from .spectra import RunSetup, SignalGrid, detection_matrix, free_phases, pair_order_sums


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
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not all(0 <= value < np.inf for value in (self.t_p, *self.taus)):
            raise ConfigError("t_p and all tau values must be non-negative and finite")
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


@dataclass(frozen=True)
class Propagators:
    """The event propagators of one run, built by their structure where each
    event is applied rather than as 2^N x 2^N matrices.

    A pulse is its two Kronecker halves r^(x)floor(N/2) and r^(x)ceil(N/2)
    (``rotation_halves``).  A free evolution commutes with I_z, so it is its
    total-m blocks V_m diag(p_m) V_m^dagger: sum_m C(N, m)^2 entries instead of
    4^N.  Building either costs less than applying it, so no event's factors
    outlive its application.
    """

    eig: EigenSystem
    reg: SpinRegister

    def _free(self, ev: FreeEvolution) -> list:
        """The m blocks of exp(-i scale H duration), in the order of ``eig.blocks``."""
        phases = free_phases(self.eig, [ev.scale * ev.duration])[0]
        return [(v * phases[cols]) @ v.conj().T for _, cols, v in self.eig.blocks]

    def apply(self, ev: SequenceEvent, x: np.ndarray | None) -> np.ndarray:
        """U x for the event's propagator U and a matrix x of 2^N rows (None: U)."""
        if isinstance(ev, Pulse):
            halves = rotation_halves(self.reg, ev.angle, ev.axis_phase)
            return np.kron(*halves) if x is None else kron_apply(halves, x)
        blocks = self._free(ev)
        if x is not None:
            return self.eig.product_blockwise(x, blocks)
        u = np.zeros((self.reg.dim,) * 2, dtype=complex)
        for (rows, _, _), block in zip(self.eig.blocks, blocks):
            u[np.ix_(rows, rows)] = block
        return u

    def conjugate(self, ev: SequenceEvent, x: np.ndarray) -> np.ndarray:
        """U x U^dagger for the event's propagator U."""
        if isinstance(ev, Pulse):
            return kron_conjugate(rotation_halves(self.reg, ev.angle, ev.axis_phase), x)
        blocks = self._free(ev)
        return self.eig.product_blockwise(x, blocks, [u.conj().T for u in blocks])


def compile_program(events, props: Propagators) -> np.ndarray:
    """Apply the event propagators in time order: their product, one unitary
    in the product basis."""
    u = None
    for ev in events:
        u = props.apply(ev, u)
    return np.eye(props.reg.dim, dtype=complex) if u is None else u


def evolve(events, sigma: np.ndarray, props: Propagators, eigen: bool = True) -> np.ndarray:
    """The state ``sigma`` carried through ``events`` (U sigma U^dagger per
    event), returned in the H eigenbasis.

    ``sigma`` is given in the eigenbasis (``eigen``) or the product basis.  A
    free evolution on a state still in the eigenbasis is a phase per element,
    O(4^N); a pulse moves the state to the product basis, where every further
    event applies by its structure (``Propagators.conjugate``).
    """
    for ev in events:
        if eigen and isinstance(ev, FreeEvolution):
            p = free_phases(props.eig, [ev.scale * ev.duration])[0]
            sigma = p[:, None] * sigma
            sigma *= p.conj()
        else:
            if eigen:
                sigma, eigen = props.eig.to_product(sigma), False
            sigma = props.conjugate(ev, sigma)
    return sigma if eigen else props.eig.to_eigen(sigma)


@dataclass(frozen=True)
class ReversionReport:
    """Outcome of the reversion self-check on a compiled block."""
    residual: float
    effective_hamiltonian: np.ndarray
    duration: float

    @property
    def effective_norm(self) -> float:
        return float(np.linalg.norm(self.effective_hamiltonian, 2))


def verify_reversion(events, props: Propagators) -> ReversionReport:
    """Measure how far a compiled block is from a global-phase identity.

    Reports ||U - exp(i theta) 1|| in the spectral norm with theta chosen
    optimally, plus the effective generator log(U)/(-i tau).  Used as a
    gate so a wrong multipulse phase pattern cannot silently ship.
    """
    u = compile_program(events, props)
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


# Dwell time (s) and length of the scan that places the default t_m.
ACQUISITION_DWELL = 1e-6
ACQUISITION_SCAN = 256


def default_acquisition(setup: RunSetup) -> AcquisitionSpec:
    """Acquisition defaults: t_m at the first magnitude maximum of the tau=0,
    phi=0 signal of the run ``setup`` over ACQUISITION_SCAN steps of
    ACQUISITION_DWELL, window two dwell steps wide.

    The scan runs in the H eigenbasis: with p = exp(-i S_zz zeta t) the
    signal tr(I_+ U rho U^dagger) is sum_ab conj(p_a) M[a, b] p_b with
    M = I_+ (elementwise) rho^T, rho the state after the read pulse (applied
    by its Kronecker halves in the product basis), one GEMM over (scan time,
    eigenstate).
    """
    eig = setup.eig
    rho = eig.to_eigen(kron_conjugate(setup.read_pulse, eig.to_product(setup.state)))
    weights = setup.i_plus * rho.T
    p = free_phases(eig, ACQUISITION_DWELL * np.arange(ACQUISITION_SCAN))
    mags = np.abs(np.sum((p.conj() @ weights) * p, axis=1))
    idx = 0
    for i in range(1, ACQUISITION_SCAN - 1):
        if mags[i] >= mags[i - 1] and mags[i] > mags[i + 1]:
            idx = i
            break
    return AcquisitionSpec(t_m=idx * ACQUISITION_DWELL, window=2.0 * ACQUISITION_DWELL)


def block_states(block, taus, props: Propagators, state: np.ndarray):
    """Iterator over the prepared ``state`` (H eigenbasis) carried through each
    tau's reversion block, in the eigenbasis, one tau at a time.

    A block's events are applied to the state one by one (``evolve``).  An
    MREV-8 "concatenate" block of duration tau is n copies of one cycle: the
    cycle is compiled once, taken to the eigenbasis as w, and
    sigma_n = w sigma_{n-1} w^dagger is advanced from the previous tau's state
    (restarting when n falls).  ``events_for`` runs for every tau at the call,
    so a tau that is not a whole number of cycles is rejected before anything
    is compiled.
    """
    events = [() if block is None else block.events_for(tau) for tau in taus]
    if not (isinstance(block, Mrev8Spec) and block.mode == "concatenate"):
        return (evolve(ev, state, props) if ev else state for ev in events)
    cycle = mrev8_block(block.tau1)
    return _cycle_states(props.eig.to_eigen(compile_program(cycle, props)), state,
                         [len(ev) // len(cycle) for ev in events])


def _cycle_states(w: np.ndarray, state: np.ndarray, counts):
    n, sigma = 0, state
    for count in counts:
        if count < n:
            n, sigma = 0, state
        for n in range(n + 1, count + 1):
            sigma = w @ sigma @ w.conj().T
        yield sigma


def prepared_setup(props: Propagators, t_p: float) -> RunSetup:
    """The operators a run holds fixed, built once after its memory gate: the
    state I_z carried through the JB preparation ``jb_prepare(t_p)``, the read
    pulse R_y(pi/4) as its Kronecker halves, and I_+ = I_x + i I_y, the state
    and I_+ in the H eigenbasis."""
    eig, reg = props.eig, props.reg
    state = evolve(jb_prepare(t_p), collective_angular_momentum(reg, "z"), props, eigen=False)
    i_plus = collective_angular_momentum(reg, "x") + 1j * collective_angular_momentum(reg, "y")
    return RunSetup(eig, state, rotation_halves(reg, np.pi / 4, np.pi / 2), eig.to_eigen(i_plus))


def kernel_inputs(setup: RunSetup, acquisition: AcquisitionSpec | None) -> tuple:
    """(acquisition, prepared state, detection matrix) of a run: the
    ``default_acquisition`` of ``setup`` when ``acquisition`` is None."""
    if acquisition is None:
        acquisition = default_acquisition(setup)
    return acquisition, setup.state, detection_matrix(setup, acquisition.t_m, acquisition.window)


def phase_encode(sums: np.ndarray, grid: ExperimentGrid, acquisition: AcquisitionSpec,
                 n_molecules: int = 1) -> SignalGrid:
    """The signal n_molecules sum_nu exp(i nu phi) c[tau, nu + N, t] on the
    (phi, t, tau) grid, from the order sums c of ``pair_order_sums``."""
    n = sums.shape[1] // 2
    encoder = n_molecules * np.exp(1j * np.outer(grid.phis, np.arange(-n, n + 1)))
    return SignalGrid(data=np.einsum("pn,knt->ptk", encoder, sums, order="C"), dt=grid.dt,
                      taus=np.asarray(grid.taus, dtype=float), t_p=grid.t_p,
                      t_m=acquisition.t_m, window=acquisition.window)


def _tau_slab(det: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Pair weights W = det (elementwise) sigma^T of one tau, for the state
    ``sigma`` after that tau's block, both in the H eigenbasis."""
    return det * sigma.T


# Working-set budget of one grid run, in bytes.
MEMORY_BUDGET_BYTES = 2 << 30


def check_grid_memory(grid: ExperimentGrid, dim: int, matrices: int, t_rows: int,
                      workspace: int = 0) -> None:
    """Raise GridSizeError when a grid run's complex working set exceeds
    MEMORY_BUDGET_BYTES.

    The estimate counts the (n_phi, n_t, n_tau) signal grid, ``matrices``
    arrays of dim x dim, ``t_rows`` arrays of n_t and ``workspace`` further
    values, all complex; engines call it before allocating anything.
    """
    estimate = 16 * (grid.n_phi * grid.n_t * len(grid.taus) + dim ** 2 * matrices
                     + grid.n_t * t_rows + workspace)
    if estimate > MEMORY_BUDGET_BYTES:
        raise GridSizeError(
            f"grid needs about {estimate / 1e6:.0f} MB, over the budget of "
            f"{MEMORY_BUDGET_BYTES / 1e6:.0f} MB"
        )


def run_grid(eig: EigenSystem, reg: SpinRegister, grid: ExperimentGrid,
             block=None, acquisition: AcquisitionSpec | None = None,
             n_molecules: int = 1) -> SignalGrid:
    """Execute the closed-system experiment over the whole (phi, t, tau) grid.

    The initial state is I_z; each grid point records the window-averaged
    complex transverse signal.  Each tau's block carries the prepared state
    (``block_states``) into one slab of pair weights (``_tau_slab``); free
    evolution and the phi dependence are then applied analytically in the H
    eigenbasis by ``spectra.pair_order_sums`` and ``phase_encode``, which is
    exactly equivalent to propagating every grid point through the compiled
    pulse chain.

    Args:
        block: reversion block spec with an ``events_for(tau)`` method
            (``Mrev8Spec``, ``MagicSandwichSpec``) or None.
        acquisition: acquisition spec; defaults to ``default_acquisition``.
    """
    n_tau = len(grid.taus)
    # the weight slabs, the prepared state and detection matrix, and the state
    # being carried with its temporaries (the state, the compiled cycle, and up
    # to three products of one event or basis change, or one slab's product);
    # V's m blocks and the factors of the one event being applied; the signal
    # grid and order sums, and the phases with one slab's GEMM output and product
    check_grid_memory(grid, reg.dim, matrices=n_tau + 8,
                      t_rows=n_tau * (2 * reg.n_spins + 1) + 4 * reg.dim,
                      workspace=2 * comb(2 * reg.n_spins, reg.n_spins))
    props = Propagators(eig, reg)
    acquisition, a_eig, det = kernel_inputs(prepared_setup(props, grid.t_p), acquisition)
    weights = np.empty((n_tau, reg.dim, reg.dim), dtype=complex)
    for k, sigma in enumerate(block_states(block, grid.taus, props, a_eig)):
        weights[k] = _tau_slab(det, sigma)
    sums = pair_order_sums(weights, eig, reg.n_spins, grid.ts, grid.taus)
    return phase_encode(sums, grid, acquisition, n_molecules)
