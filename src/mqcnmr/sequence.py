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

from .errors import ConfigError, GridSizeError, MqcnmrError, NumericalValidationError
from .hamiltonian import EigenSystem
from .operators import (SpinRegister, collective_angular_momentum, kron_apply,
                        kron_conjugate, rotation_halves)
from .spectra import RunSetup, SignalGrid, detection_matrix, free_phases


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

    def cycles_for(self, tau: float) -> int:
        """The number of 12*tau1 cycles in a "concatenate" block of duration tau."""
        if tau == 0:
            return 0
        n = tau / self.cycle_time
        n_int = int(round(n))
        if n_int < 1 or abs(n - n_int) > 1e-9:
            raise ConfigError(
                f"tau = {tau} is not an integer multiple of the MREV8 cycle "
                f"time 12*tau1 = {self.cycle_time}"
            )
        return n_int

    def events_for(self, tau: float) -> tuple:
        if tau == 0:
            return ()
        if self.mode == "stretch":
            return mrev8_block(tau / 12.0)
        return mrev8_block(self.tau1, self.cycles_for(tau))

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

    def apply(self, ev: SequenceEvent, x: np.ndarray) -> np.ndarray:
        """U x for the event's propagator U and a matrix x of 2^N rows."""
        if isinstance(ev, Pulse):
            return kron_apply(rotation_halves(self.reg, ev.angle, ev.axis_phase), x)
        return self.eig.product_blockwise(x, self._free(ev))

    def conjugate(self, ev: SequenceEvent, x: np.ndarray) -> np.ndarray:
        """U x U^dagger for the event's propagator U."""
        if isinstance(ev, Pulse):
            return kron_conjugate(rotation_halves(self.reg, ev.angle, ev.axis_phase), x)
        blocks = self._free(ev)
        return self.eig.product_blockwise(x, blocks, [u.conj().T for u in blocks])


def compile_program(events, props: Propagators) -> np.ndarray:
    """Apply the event propagators in time order to the identity: their
    product, one unitary in the product basis."""
    u = np.eye(props.reg.dim, dtype=complex)
    for ev in events:
        u = props.apply(ev, u)
    return u


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
    """Outcome of the reversion self-check on a compiled block of duration tau:
    ||U - exp(i theta) 1|| and the spectral norm of the effective Hamiltonian
    log(U exp(-i theta)) / (-i tau)."""
    residual: float
    duration: float
    effective_norm: float


def verify_reversion(events, props: Propagators) -> ReversionReport:
    """Measure how far a compiled block is from a global-phase identity.

    Reports ||U - exp(i theta) 1|| in the spectral norm with theta the phase
    of tr(U), plus the norm of the effective generator log(U)/(-i tau).  U is
    unitary (checked), so both come from its eigenvalues lambda: the residual
    is max |lambda - exp(i theta)| and the norm max |arg(lambda exp(-i theta))|
    / tau (0 when tau = 0).  Used as a gate so a wrong multipulse phase
    pattern cannot silently ship.
    """
    u = compile_program(events, props)
    uni_err = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if uni_err > 1e-8:
        raise NumericalValidationError(f"compiled block is not unitary (error {uni_err:.3e})")
    theta = np.angle(np.trace(u))
    lam = np.linalg.eigvals(u)
    tau = total_duration(events)
    norm = np.max(np.abs(np.angle(lam * np.exp(-1j * theta)))) / tau if tau > 0 else 0.0
    return ReversionReport(residual=float(np.max(np.abs(lam - np.exp(1j * theta)))),
                           duration=tau, effective_norm=float(norm))


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


def acquisition_scan_values(dim: int, acquisition: AcquisitionSpec | None) -> int:
    """Complex values ``default_acquisition`` holds beside the run setup when
    ``acquisition`` is None: the state after the read pulse and its weights,
    and the scan's phases with their GEMM output and product."""
    return 0 if acquisition is not None else 2 * dim ** 2 + 3 * ACQUISITION_SCAN * dim


def block_states(block, taus, props: Propagators, state: np.ndarray):
    """Iterator over the prepared ``state`` (H eigenbasis) carried through each
    tau's reversion block, in the eigenbasis, one tau at a time.

    A block's events are applied to the state one by one (``evolve``).  An
    MREV-8 "concatenate" block of duration tau is n copies of one cycle: the
    cycle is compiled once, taken to the eigenbasis as w, and
    sigma_n = w sigma_{n-1} w^dagger is advanced from the previous tau's state
    (restarting when n falls).  ``cycles_for`` runs for every tau at the call,
    so a tau that is not a whole number of cycles is rejected before anything
    is compiled.  Other blocks build each tau's events when it is reached.
    """
    if isinstance(block, Mrev8Spec) and block.mode == "concatenate":
        counts = [block.cycles_for(tau) for tau in taus]
        cycle = compile_program(mrev8_block(block.tau1), props)
        return _cycle_states(props.eig.to_eigen(cycle), state, counts)
    return (state if block is None else evolve(block.events_for(tau), state, props)
            for tau in taus)


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


def pair_order_sums(weights: np.ndarray, eig: EigenSystem, ts: np.ndarray) -> np.ndarray:
    """c[nu + N, t] = sum over pairs (a, b) of order nu = m_b - m_a of W[a, b]
    exp(-i S_zz (zeta_b - zeta_a) t) for one (2^N, 2^N) slab W.

    The phase is p_b conj(p_a) (``free_phases``): for the rows A of one m
    value, conj(P[:, A]) W[A, :] times P, summed over the columns of each m
    value, is that pair of m values' part, one GEMM in O(n_t 2^N) memory
    beside a copy of W[A, :].
    """
    n_spins = eig.dim.bit_length() - 1
    p, m_values = free_phases(eig, ts), np.unique(eig.m)
    member = (eig.m[:, None] == m_values[None, :]).astype(complex)
    c = np.zeros((2 * n_spins + 1, len(ts)), dtype=complex)
    for m_a in m_values:
        idx = np.flatnonzero(eig.m == m_a)
        cols = np.rint(m_values - m_a).astype(int) + n_spins
        c[cols] += (((p[:, idx].conj() @ weights[idx]) * p) @ member).T
    return c


def phase_encode(sums: np.ndarray, grid: ExperimentGrid, acquisition: AcquisitionSpec,
                 n_molecules: int = 1) -> SignalGrid:
    """The signal n_molecules sum_nu exp(i nu phi) c[tau, nu + N, t] on the
    (phi, t, tau) grid, from the order sums c[tau] of an engine's kernel."""
    n = sums.shape[1] // 2
    encoder = n_molecules * np.exp(1j * np.outer(grid.phis, np.arange(-n, n + 1)))
    return SignalGrid(data=np.einsum("pn,knt->ptk", encoder, sums, order="C"), dt=grid.dt,
                      taus=np.asarray(grid.taus, dtype=float), t_p=grid.t_p,
                      t_m=acquisition.t_m, window=acquisition.window)


def _loop_values(block, n_spins: int, n_t: int) -> int:
    """The most complex values the tau loop of ``run_grid`` holds at once
    beside the prepared state, the detection matrix and the order sums.

    While ``block_states`` makes the next state, the loop still holds the
    last one, and the block adds: two eigenbasis phase products (magic
    sandwich); the state being carried, two products of one basis change and
    one free evolution's m blocks with their adjoints (MREV-8 "stretch"); the
    compiled cycle w, its adjoint and the two products of w sigma w^dagger
    (MREV-8 "concatenate").  The kernel runs on one tau's slab beside at most
    the state and w, and holds a copy of the slab's rows of one m value and
    four arrays of n_t x 2^N (the phases, their columns of one m value, the
    GEMM output and its product).
    """
    dim = 2 ** n_spins
    if block is None:
        step = 0
    elif not isinstance(block, Mrev8Spec):
        step = 3 * dim ** 2
    elif block.mode == "stretch":
        step = 4 * dim ** 2 + 2 * comb(2 * n_spins, n_spins)
    else:
        step = 5 * dim ** 2
    return max(step, 3 * dim ** 2 + comb(n_spins, n_spins // 2) * dim + 4 * n_t * dim)


def _tau_slab(det: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Pair weights W = det (elementwise) sigma^T of one tau, for the state
    ``sigma`` after that tau's block, both in the H eigenbasis."""
    return det * sigma.T


# Working-set budget of one grid run, in bytes.
MEMORY_BUDGET_BYTES = 2 << 30

# Allowance for the small arrays and Python objects a grid run holds beside
# the terms an engine charges, and the up to 130 kB more that the first run
# in a new process traces while CPython's free lists fill.
SMALL_ARRAY_BYTES = 128 << 10


def check_grid_memory(grid: ExperimentGrid, values: int) -> None:
    """Raise GridSizeError when a grid run's working set exceeds
    MEMORY_BUDGET_BYTES.

    The estimate counts the (n_phi, n_t, n_tau) signal grid and ``values``
    further complex values, the most the engine holds at once beside it, plus
    SMALL_ARRAY_BYTES; engines call it before allocating anything.
    """
    estimate = 16 * (grid.n_phi * grid.n_t * len(grid.taus) + values) + SMALL_ARRAY_BYTES
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
    (``block_states``) into one slab of pair weights (``_tau_slab``), which
    ``pair_order_sums`` turns into that tau's order sums as the loop reaches
    it; free evolution and the phi dependence are applied analytically in the
    H eigenbasis there and in ``phase_encode``, which is exactly equivalent
    to propagating every grid point through the compiled pulse chain.

    Args:
        block: reversion block spec with an ``events_for(tau)`` method
            (``Mrev8Spec``, ``MagicSandwichSpec``) or None.
        acquisition: acquisition spec; defaults to ``default_acquisition``.
    """
    n_tau, dim2 = len(grid.taus), reg.dim ** 2
    # the prepared state with I_+, then with the detection matrix; beside
    # them, never at once: the detection matrix's build (the window with its
    # real frequencies, one basis change's three arrays and V's adjoint m
    # blocks), the default acquisition's scan, or the sums and the tau loop
    check_grid_memory(grid, 2 * dim2 + max(
        9 * dim2 // 2 + comb(2 * reg.n_spins, reg.n_spins),
        acquisition_scan_values(reg.dim, acquisition),
        n_tau * (2 * reg.n_spins + 1) * grid.n_t + _loop_values(block, reg.n_spins, grid.n_t)))
    props = Propagators(eig, reg)
    acquisition, a_eig, det = kernel_inputs(prepared_setup(props, grid.t_p), acquisition)
    sums = np.empty((n_tau, 2 * reg.n_spins + 1, grid.n_t), dtype=complex)
    for k, sigma in enumerate(block_states(block, grid.taus, props, a_eig)):
        sums[k] = pair_order_sums(_tau_slab(det, sigma), eig, grid.ts)
    return phase_encode(sums, grid, acquisition, n_molecules)
