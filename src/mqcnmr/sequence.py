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

from .errors import ConfigError, GridSizeError, MqcnmrError
from .hamiltonian import EigenSystem
from .operators import (checked_hermitian, checked_unitary, kron_apply, kron_conjugate,
                        rotation_halves)
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
        if not (0 <= self.t_m < np.inf and 0 <= self.window < np.inf):
            raise MqcnmrError("acquisition times must be non-negative and finite")


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
    cycle = [FreeEvolution(_MREV8_DELAYS[0] * tau1)]
    for phase, delay in zip(_MREV8_PHASES, _MREV8_DELAYS[1:]):
        cycle += (Pulse(np.pi / 2, phase), FreeEvolution(delay * tau1))
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

    ``cycles(tau)`` gives the pulse spacing of the cycle a block repeats and
    its number of whole cycles: mode "concatenate" repeats cycles of length
    12*tau1 (tau must be an integer multiple); mode "stretch" stretches one
    cycle to tau, spacing tau/12 (Rhim, Elleman & Vaughan, J. Chem. Phys. 58,
    1772 (1973)).
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

    def cycles(self, tau: float) -> tuple:
        """(spacing, count) of a block of duration tau; count 0 at tau = 0."""
        if self.mode == "stretch":
            return tau / 12.0, int(tau != 0)
        n = tau / self.cycle_time
        if tau != 0 and (round(n) < 1 or abs(n - round(n)) > 1e-9):
            raise ConfigError(f"tau = {tau} is not an integer multiple of the MREV8 cycle "
                              f"time 12*tau1 = {self.cycle_time}")
        return self.tau1, round(n)

    def steps(self, taus) -> list:
        """(spacing, d, restart) of each tau's block, carried from the block of
        the tau before: when the spacing changes or the count falls the state
        restarts from the prepared one and takes the whole count, else it
        advances by the d cycles that the count grew.  ``cycles`` runs on
        every tau first, so a bad tau is refused before any step."""
        steps, spacing, n = [], None, 0
        for s, count in [self.cycles(tau) for tau in taus]:
            restart = s != spacing or count < n
            steps.append((s, count if restart else count - n, restart))
            spacing, n = s, count
        return steps

    def events_for(self, tau: float) -> tuple:
        spacing, count = self.cycles(tau)
        return mrev8_block(spacing, count) if count else ()


@dataclass(frozen=True)
class MagicSandwichSpec:
    """Reversion block family: one magic sandwich of total duration tau."""

    def events_for(self, tau: float) -> tuple:
        if tau == 0:
            return ()
        return magic_sandwich(tau / 1.5)


def apply(ev: SequenceEvent, x: np.ndarray, eig: EigenSystem) -> np.ndarray:
    """U x for the event's propagator U and a matrix x of 2^N rows, U built
    where it is applied and then let go: a pulse as its two Kronecker halves
    (``rotation_halves``), a free evolution as its m blocks
    (``EigenSystem.evolve``)."""
    if isinstance(ev, Pulse):
        return kron_apply(rotation_halves(eig.reg, ev.angle, ev.axis_phase), x)
    return eig.evolve(x, ev.scale * ev.duration)


def compile_program(events, eig: EigenSystem) -> np.ndarray:
    """Apply the event propagators in time order to the identity: their
    product, one unitary in the product basis."""
    u = np.eye(eig.dim, dtype=complex)
    for ev in events:
        u = apply(ev, u, eig)
    return u


@dataclass(frozen=True)
class ReversionReport:
    """Outcome of the reversion self-check on a compiled block of duration tau:
    ||U - exp(i theta) 1|| and the spectral norm of the effective Hamiltonian
    log(U exp(-i theta)) / (-i tau)."""
    residual: float
    duration: float
    effective_norm: float


def verify_reversion(events, eig: EigenSystem) -> ReversionReport:
    """Measure how far a compiled block is from a global-phase identity.

    Reports ||U - exp(i theta) 1|| in the spectral norm with theta the phase
    of tr(U), plus the norm of the effective generator log(U)/(-i tau).  U is
    unitary (checked within UNITARY_ATOL by ``operators.checked_unitary``), so
    both come from its eigenvalues lambda: the residual is max |lambda -
    exp(i theta)| and the norm max |arg(lambda exp(-i theta))| / tau (0 when
    tau = 0).  Used as a gate so a wrong multipulse phase pattern cannot
    silently ship.
    """
    u = checked_unitary(compile_program(events, eig))
    theta = np.angle(np.trace(u))
    lam = np.linalg.eigvals(u)
    tau = total_duration(events)
    norm = np.max(np.abs(np.angle(lam * np.exp(-1j * theta)))) / tau if tau > 0 else 0.0
    return ReversionReport(residual=float(np.max(np.abs(lam - np.exp(1j * theta)))),
                           duration=tau, effective_norm=float(norm))


# Dwell time (s) and length of the scan that places the default t_m.
ACQUISITION_DWELL = 1e-6
ACQUISITION_SCAN = 256


def default_acquisition(eig: EigenSystem, prepared: np.ndarray) -> AcquisitionSpec:
    """Acquisition defaults: t_m at the first magnitude maximum of the tau=0,
    phi=0 signal of the ``prepared`` state (product basis, ``prepared_setup``)
    over ACQUISITION_SCAN steps of ACQUISITION_DWELL, window two dwell steps
    wide.

    The scanned state rho is ``prepared`` under the (pi/4)_y read pulse,
    applied by its Kronecker halves.  With p = exp(-i S_zz zeta t)
    the signal tr(I_+ U rho U^dagger) is sum_ab conj(p_a) M[a, b] p_b in the
    H eigenbasis, M = I_+ (elementwise) rho^T.  M lives on I_+'s (m + 1, m)
    blocks, so only rho's (m, m + 1) blocks go to the eigenbasis, and the
    scan is one GEMM over (scan time, eigenstate) per block.
    """
    rho = kron_conjugate(rotation_halves(eig.reg, np.pi / 4, np.pi / 2), prepared)
    p = eig.phases(ACQUISITION_DWELL * np.arange(ACQUISITION_SCAN))
    signal = np.zeros(ACQUISITION_SCAN, dtype=complex)
    for (rows_up, cols_up, v_up), (rows, cols, v), x in eig.i_plus:
        weights = x * (v.conj().T @ rho[np.ix_(rows, rows_up)] @ v_up).T
        prod = p[:, cols_up].conj() @ weights
        prod *= p[:, cols]
        signal += prod.sum(axis=1)
    mags = np.abs(signal)
    peaks = np.flatnonzero((mags[1:-1] >= mags[:-2]) & (mags[1:-1] > mags[2:]))
    idx = int(peaks[0]) + 1 if peaks.size else 0
    return AcquisitionSpec(t_m=idx * ACQUISITION_DWELL, window=2.0 * ACQUISITION_DWELL)


def block_states(block, taus, eig: EigenSystem, state: np.ndarray):
    """Iterator over the prepared ``state`` (H eigenbasis) carried through each
    tau's reversion block, in the eigenbasis, one tau at a time.

    An MREV-8 block of n cycles of spacing s (``Mrev8Spec.cycles``) is
    w^n sigma w^-n for the cycle w in the eigenbasis, held by ``eig`` under s
    and compiled only when it holds none for s.  Each tau's step
    (``Mrev8Spec.steps``, read at the first state, so a bad tau is refused
    before anything is compiled) restarts from ``state`` or not and applies
    step = w^d (``np.linalg.matrix_power``: w itself when d = 1) as
    step sigma step^dagger; the step goes before the state is yielded.  An
    idealized magic sandwich compiles to the identity (``magic_sandwich``),
    so it yields ``state`` itself for every tau, as no block does.
    """
    steps = block.steps(taus) if isinstance(block, Mrev8Spec) else [(None, 0, False)] * len(taus)
    sigma = state
    for s, d, restart in steps:
        if restart:
            sigma = state
        if d:
            step = np.linalg.matrix_power(eig.held_cycle(
                s, lambda: eig.to_eigen(compile_program(mrev8_block(s), eig))), d)
            sigma = step @ sigma  # the last state goes before step^dagger is made
            sigma = sigma @ step.conj().T
            del step
        yield sigma


def prepared_setup(eig: EigenSystem, t_p: float) -> np.ndarray:
    """The prepared state of a run, I_z carried through the Jeener-Broekaert
    fragment (pi/2)_x - t_p - (pi/4)_y (``tests/reference.py::jb_prepare``), in
    the product basis and read-only.

    The (pi/2)_x pulse takes I_z to +I_y, and t_p of free evolution multiplies
    each eigenbasis element by exp(-i w t_p), w = S_zz (zeta_a - zeta_b).  With
    I_y = (I_+ - I_+^dagger) / 2i that state is A + A^dagger for
    A = V (f o I_+) V^dagger, f = -exp(-i w t_p) / 2i, built by
    ``EigenSystem.i_plus_product``; I_+ has no diagonal, so A and A^dagger do
    not overlap and the sum is exact.  The (pi/4)_y pulse applies by its
    Kronecker halves.
    """
    a = eig.i_plus_product(lambda omega: -0.5j * np.exp(-1j * omega * t_p))
    a += a.conj().T
    a = kron_conjugate(rotation_halves(eig.reg, np.pi / 4, np.pi / 2), a)
    a.flags.writeable = False
    return a


def kernel_inputs(eig: EigenSystem, t_p: float, acquisition: AcquisitionSpec | None) -> tuple:
    """(acquisition, prepared state, detection matrix) of a run with preparation
    time t_p, the state and the matrix read-only in the H eigenbasis: the
    ``default_acquisition`` of the ``prepared_setup`` state when
    ``acquisition`` is None.  ``eig`` holds the setup under (t_p,
    acquisition) (``EigenSystem.held_setup``), so a run with the key of the
    run before it reuses its setup, and a run with another key lets that go
    and builds its own.  The product-basis state goes once the eigenbasis one
    is made; that one is checked hermitian (``checked_hermitian``) before the
    detection matrix is built, so the check's transients come and go inside
    the setup that ``run_values`` charges."""
    def build():
        prepared = prepared_setup(eig, t_p)
        acq = default_acquisition(eig, prepared) if acquisition is None else acquisition
        state = eig.to_eigen(prepared)
        del prepared
        state = checked_hermitian(state)
        det = detection_matrix(eig, acq.t_m, acq.window)
        det.flags.writeable = False
        return acq, state, det

    return eig.held_setup((t_p, acquisition), build)


def run_values(eig: EigenSystem, grid: ExperimentGrid, acquisition: AcquisitionSpec | None,
               held: int, working: int) -> int:
    """The most complex values a run on ``grid`` holds at once, for an engine
    that holds ``held`` values throughout and at most ``working`` more beside
    them once ``kernel_inputs`` returns.

    Throughout: I_+'s blocks, the MREV-8 cycles that ``eig`` holds (up to
    its ``cycle_slots``) and the prepared state in the eigenbasis.  Beside
    them, never at once, the setup or what both engines hold after it: the
    detection matrix, the order sums (2N + 1, n_t, n_tau) and ``held``, with
    the larger of ``working`` and the (n_phi, n_t, n_tau) signal grid that
    ``phase_encode`` makes from the sums where they lie.  The setup is
    nothing when ``eig`` holds the run's (``kernel_inputs``); else it is the
    default acquisition's scan (when ``acquisition`` is None) beside the
    product-basis state, that is the scanned state with the read pulse's
    second product, or with the scan's phases and their transients; or the
    build of a 2^N x 2^N result from its input beside that array: two
    products of a pulse's Kronecker halves, with the halves and the larger
    one's conjugate, or a basis change's two reordered copies.
    """
    n_spins, dim2, points = eig.reg.n_spins, eig.dim ** 2, grid.n_t * len(grid.taus)
    setup = 0
    if not eig.holds_setup((grid.t_p, acquisition)):
        scan = 0 if acquisition is not None else dim2 + max(dim2, 2 * ACQUISITION_SCAN * eig.dim)
        setup = max(scan, 3 * dim2 + 4 ** (n_spins // 2) + 2 * 4 ** (n_spins - n_spins // 2))
    engine = dim2 + (2 * n_spins + 1) * points + held + max(working, grid.n_phi * points)
    return (comb(2 * n_spins, n_spins - 1) + dim2 * (1 + eig.cycles_held)
            + max(setup, engine))


def pair_order_sums(weights: np.ndarray, eig: EigenSystem, p: np.ndarray) -> np.ndarray:
    """c[nu + N, t] = sum over pairs (a, b) of order nu = m_b - m_a of W[a, b]
    exp(-i S_zz (zeta_b - zeta_a) t), shape (2N + 1, n_t), for one (2^N, 2^N)
    slab W of pair weights and the phases ``p = eig.phases(ts)``.

    The phase is p_b conj(p_a).  The eigenbasis is in block order, so the
    rows A of one m block are a slice: conj(p[:, A]) W[A] times p, one GEMM
    on views of p and W in O(n_t 2^N) memory, summed over the columns of each
    m block by one ``np.add.reduceat`` at the block starts, is that block's
    part of every order.
    """
    n_spins, starts = eig.reg.n_spins, [cols.start for _, cols, _ in eig.blocks]
    c = np.zeros((2 * n_spins + 1, p.shape[0]), dtype=complex)
    for a, (_, cols, _) in enumerate(eig.blocks):
        prod = p[:, cols].conj() @ weights[cols]
        prod *= p
        # block b holds m = N/2 - b, so its columns are order a - b, at row N + a - b
        c[a:a + n_spins + 1] += np.add.reduceat(prod, starts, axis=1)[:, ::-1].T
        del prod  # before the next GEMM makes its own
    return c


def phase_encode(sums: np.ndarray, grid: ExperimentGrid, acquisition: AcquisitionSpec,
                 n_molecules: int = 1) -> SignalGrid:
    """The signal n_molecules sum_nu exp(i nu phi) c[nu + N, t, tau] on the
    (phi, t, tau) grid, from the (2N + 1, n_t, n_tau) order sums c of an
    engine's kernel.

    One GEMM: the (n_phi, 2N + 1) encoder times the sums as they lie, a
    (2N + 1, n_t n_tau) view, whose product is the signal grid in C order.
    """
    n_orders, n_t, n_tau = sums.shape
    encoder = n_molecules * np.exp(1j * np.outer(grid.phis, np.arange(n_orders) - n_orders // 2))
    data = (encoder @ sums.reshape(n_orders, n_t * n_tau)).reshape(len(encoder), n_t, n_tau)
    return SignalGrid(data=data, dt=grid.dt,
                      taus=np.asarray(grid.taus, dtype=float), t_p=grid.t_p,
                      t_m=acquisition.t_m, window=acquisition.window)


def _tau_slab(det: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Pair weights W = det (elementwise) sigma^T of one tau, for the state
    ``sigma`` after that tau's block, both in the H eigenbasis."""
    return det * sigma.T


# Working-set budget of one grid run, in bytes.
MEMORY_BUDGET_BYTES = 2 << 30

# Allowance for the small arrays and Python objects a grid run holds beside
# the terms an engine charges, and the up to 15 kB more that the first run
# in a new process traces while CPython's free lists fill.
SMALL_ARRAY_BYTES = 64 << 10


def check_grid_memory(values: int, what: str = "grid") -> None:
    """Raise GridSizeError, naming ``what``, when a working set exceeds
    MEMORY_BUDGET_BYTES.

    The estimate counts ``values`` complex values, the most the caller holds
    at once (for an engine, its (n_phi, n_t, n_tau) signal grid included),
    plus SMALL_ARRAY_BYTES; callers charge it before allocating anything.
    The megabytes are rounded in integer arithmetic, which holds for an
    estimate past the float range (4^N values from N = 512 on).
    """
    estimate = 16 * values + SMALL_ARRAY_BYTES
    if estimate > MEMORY_BUDGET_BYTES:
        raise GridSizeError(f"{what} needs about {int(estimate + 500_000) // 10 ** 6} MB, over "
                            f"the budget of {MEMORY_BUDGET_BYTES / 1e6:.0f} MB")


def closed_values(eig: EigenSystem, grid: ExperimentGrid, block,
                  acquisition: AcquisitionSpec | None) -> int:
    """The complex values ``run_grid`` charges for a run on ``eig``: what
    ``run_values`` charges for both engines, with the MREV-8 cycles that the
    block may compile (as many as fill ``EigenSystem.cycle_slots``) held
    throughout and the tau loop as the working set.  It reads an MREV-8
    block's steps (``Mrev8Spec.steps``), so a bad tau is refused first.

    The loop holds the kernel's phases P (n_t x 2^N) throughout.  Beside
    them: an MREV-8 block's step (step sigma, the step's adjoint and their
    product, or the cycle being compiled and taken to the eigenbasis, and
    the power w^d when some step spans d >= 2 cycles), or the kernel on one
    slab, beside the state an MREV-8 block carries, with that tau's sums
    and, per m block of rows A, the GEMM output (n_t x 2^N) with
    conj(P[:, A]) or with its column sums per m block.  Any other block
    carries no state of its own.  The slab is made through numpy's buffer,
    as sigma^T is not in C order: np.getbufsize() values once a 2^N x 2^N
    array is larger (from N = 7 up), else the slab's size, at most 64 KiB,
    which SMALL_ARRAY_BYTES covers.
    """
    n_spins, dim, n_t = eig.reg.n_spins, eig.dim, grid.n_t
    compiled, step, mats = 0, 0, 1  # cycles compiled, block step, kernel's 2^N x 2^N arrays
    if isinstance(block, Mrev8Spec):
        power = any(d > 1 for _, d, _ in block.steps(grid.taus))
        compiled = dim ** 2 * (eig.cycle_slots - eig.cycles_held)
        step, mats = (3 + power) * dim ** 2, 2
    buffer = np.getbufsize() if dim ** 2 > np.getbufsize() else 0
    rows = max(comb(n_spins, n_spins // 2), n_spins + 1)
    kernel = mats * dim ** 2 + buffer + (2 * n_spins + 1 + dim + rows) * n_t
    return run_values(eig, grid, acquisition, compiled, n_t * dim + max(step, kernel))


def run_grid(eig: EigenSystem, grid: ExperimentGrid, block=None,
             acquisition: AcquisitionSpec | None = None, n_molecules: int = 1) -> SignalGrid:
    """Execute the closed-system experiment over the whole (phi, t, tau) grid.

    The initial state is I_z; each grid point records the window-averaged
    complex transverse signal.  ``kernel_inputs`` builds the prepared state
    and the detection matrix once.  Each tau's block carries the prepared state
    (``block_states``) into one slab of pair weights (``_tau_slab``), which
    ``pair_order_sums`` turns into that tau's column of the order sums
    (2N + 1, n_t, n_tau), on phases built once for the run, before the next
    tau's block runs; free evolution and the phi dependence are applied
    analytically in the H eigenbasis there and in ``phase_encode``, which
    is exactly equivalent to propagating every grid point through the
    compiled pulse chain.

    Args:
        block: reversion block spec, ``Mrev8Spec`` (one compiled cycle per
            pulse spacing, in either mode), ``MagicSandwichSpec`` (the
            identity, as None) or None.
        acquisition: acquisition spec; defaults to ``default_acquisition``.
    """
    check_grid_memory(closed_values(eig, grid, block, acquisition))
    acquisition, a_eig, det = kernel_inputs(eig, grid.t_p, acquisition)
    p, states = eig.phases(grid.ts), block_states(block, grid.taus, eig, a_eig)
    sums = np.empty((2 * eig.reg.n_spins + 1, grid.n_t, len(grid.taus)), dtype=complex)
    for k in range(len(grid.taus)):  # no name holds a state while the block makes the next
        sums[..., k] = pair_order_sums(_tau_slab(det, next(states)), eig, p)
    del p, states  # with the last state, before the signal grid is made
    return phase_encode(sums, grid, acquisition, n_molecules)
