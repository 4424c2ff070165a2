"""Eigen-selective decoherence of the single-molecule reduced state.

During the waiting time t and the reversion time tau, each eigenbasis
element (zeta, zeta') of the reduced density operator accrues the unitary
phase exp(-i (zeta - zeta') S_zz t) and is damped by two multiplicative
factors selected by the eigenvalue gap:

    G^T(t)   = q(dzeta * t), the reversible line-shape-forming factor,
               where q is the inverse Fourier transform of the normalized
               orientational distribution function (OMDF) p;
    G^R(tau) = exp(-dzeta^2 sigma_cL^2 tau^4 / [8 (kappa+1)^2]), the
               irreversible factor surviving an ideal reversion block.

Diagonal elements (dzeta = 0) are immune, so populations are conserved
(adiabatic regime, no energy exchange with the bath).  The reversion block
is taken as ideal in this engine: no net Hamiltonian phase accrues over
tau, and the tau^4 law is applied to the total block duration.

The total-sample signal of N identical uncorrelated molecules is N times
the single-molecule signal; N enters as a plain multiplicative factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, MqcnmrError
from .hamiltonian import EigenSystem
from .operators import SpinRegister
from .sequence import (ExperimentGrid, Propagators, acquisition_scan_values, check_grid_memory,
                       kernel_inputs, phase_encode, prepared_setup)
from .spectra import SignalGrid, _uniform_exp, pair_chunk_rows, pair_order_sums

# Byte budget of one block of TabulatedOMDF.q's (points x table) phases and
# their cosines or sines.
QUADRATURE_BLOCK_BYTES = 4 << 20


class GaussianOMDF:
    """Gaussian orientational distribution, unit integral, width in its own units.

    p(u) = exp(-u^2 / (2 w^2)) / sqrt(2 pi w^2); its inverse transform is
    q(x) = exp(-w^2 x^2 / 2), so G^T is Gaussian in t.
    """

    family = "gaussian"

    def __init__(self, width: float):
        if width <= 0:
            raise ConfigError(f"OMDF width must be positive, got {width}")
        self.width = float(width)

    def q(self, x):
        return np.exp(-0.5 * (self.width * np.asarray(x)) ** 2)

    def time_factors(self, gaps, ts, s_zz: float) -> np.ndarray:
        """E = exp(-i S_zz g t) q(g t) for each gap g on uniform ts, shape
        (gaps, n_t): exp(a t + b t^2) with the curvature b = -w^2 g^2 / 2, so
        neither factor takes an exponential per sample."""
        gaps = np.asarray(gaps, dtype=float)
        return _uniform_exp(-1j * s_zz * gaps, ts, -0.5 * (self.width * gaps) ** 2)


class TabulatedOMDF:
    """User-tabulated OMDF given as sample points (u, p(u)).

    Normalized to unit integral on load; q(x) is evaluated by trapezoid
    quadrature of p(u) exp(i u x) over the tabulated support: with the
    weights w_k = p_k (u_{k+1} - u_{k-1}) / 2 (one-sided at the ends) it is
    cos(x u) w + i sin(x u) w, in blocks of x of at most
    QUADRATURE_BLOCK_BYTES of phases and their cosines or sines.
    """

    family = "tabulated"

    def __init__(self, u: np.ndarray, p: np.ndarray):
        u = np.asarray(u, dtype=float)
        p = np.asarray(p, dtype=float)
        if u.ndim != 1 or u.shape != p.shape or u.size < 3:
            raise ConfigError("tabulated OMDF needs matching 1D u and p arrays (>= 3 points)")
        if np.any(np.diff(u) <= 0):
            raise ConfigError("tabulated OMDF abscissa must be strictly increasing")
        if np.any(p < 0):
            raise ConfigError("tabulated OMDF must be non-negative")
        area = np.trapezoid(p, u)
        if area <= 0:
            raise ConfigError("tabulated OMDF has zero integral")
        self.u = u
        self.p_values = p / area
        du = np.diff(u)
        self._weights = self.p_values * (np.append(0.0, du) + np.append(du, 0.0)) / 2

    @classmethod
    def from_file(cls, path) -> "TabulatedOMDF":
        try:
            table = np.loadtxt(path)
        except ValueError as exc:
            raise ConfigError(f"OMDF table {path} is not a table of numbers: {exc}") from None
        if table.ndim != 2 or table.shape[1] != 2:
            raise ConfigError(f"OMDF table {path} must have two columns (u, p)")
        return cls(table[:, 0], table[:, 1])

    def q(self, x):
        x = np.asarray(x, dtype=float)
        flat, out = x.ravel(), np.empty(x.size, dtype=complex)
        step = max(1, QUADRATURE_BLOCK_BYTES // (16 * self.u.size))
        for lo in range(0, flat.size, step):
            phase = np.multiply.outer(flat[lo:lo + step], self.u)
            # einsum sums each row in one order whatever the block's row count
            # (a BLAS matrix-vector product need not), so blocks change no bit
            out.real[lo:lo + step] = np.einsum("xu,u->x", np.cos(phase), self._weights)
            out.imag[lo:lo + step] = np.einsum("xu,u->x", np.sin(phase, out=phase),
                                               self._weights)
        return out.reshape(x.shape)[()]

    def time_factors(self, gaps, ts, s_zz: float) -> np.ndarray:
        """E = exp(-i S_zz g t) q(g t) for each gap g on uniform ts, shape
        (gaps, n_t): the phase from ``_uniform_exp`` times the quadrature."""
        gaps = np.asarray(gaps, dtype=float)
        e = _uniform_exp(-1j * s_zz * gaps, ts)
        e *= self.q(np.multiply.outer(gaps, ts))
        return e


@dataclass(frozen=True)
class DecoherenceParams:
    """Open-system model inputs.

    Attributes:
        sigma_cl: coupling-strength scale (s^-1) in the irreversible factor.
        kappa: refocusing-technique constant (2 for the sequences used here).
        omdf: orientational distribution object with its transform q(x).
    """

    sigma_cl: float
    omdf: GaussianOMDF | TabulatedOMDF
    kappa: float = 2.0

    def __post_init__(self):
        if self.sigma_cl <= 0:
            raise ConfigError(f"sigma_cl must be positive, got {self.sigma_cl}")
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")


def g_irreversible(dzeta, tau, params: DecoherenceParams):
    """Irreversible decoherence factor exp(-dzeta^2 sigma^2 tau^4 / [8(kappa+1)^2])."""
    dz = np.asarray(dzeta, dtype=float)
    return np.exp(-(dz * params.sigma_cl) ** 2 * np.asarray(tau, dtype=float) ** 4
                  / (8.0 * (params.kappa + 1.0) ** 2))


@dataclass(frozen=True)
class ReducedState:
    """Reduced density matrix elements in the simultaneous (H, I_z) eigenbasis."""

    matrix: np.ndarray
    eig: EigenSystem

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.shape != (self.eig.dim, self.eig.dim):
            raise MqcnmrError(f"state shape {a.shape} does not match eigensystem dim {self.eig.dim}")
        herm = np.max(np.abs(a - a.conj().T))
        if herm > 1e-10 * max(np.max(np.abs(a)), 1e-300):
            raise MqcnmrError(f"reduced state is not hermitian (error {herm:.3e})")
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)


def prepare_reduced_state(eig: EigenSystem, reg: SpinRegister, t_p: float) -> ReducedState:
    """Single-molecule state right after the JB preparation, in the eigenbasis."""
    return ReducedState(prepared_setup(Propagators(eig, reg), t_p).state, eig)


def run_grid_open(eig: EigenSystem, reg: SpinRegister, grid: ExperimentGrid,
                  params: DecoherenceParams, acquisition=None,
                  n_molecules: int = 1) -> SignalGrid:
    """Open-engine analog of ``sequence.run_grid``.

    The reversion block is ideal by assumption, so tau enters only through
    G^R; the waiting time t carries the eigenbasis phases and G^T, both
    built by the OMDF's ``time_factors`` and applied by
    ``spectra.pair_order_sums`` to one weight slab shared by every tau, one
    class of spin-flip and mirror pairs at a time.  The prepared state is
    checked as a ``ReducedState``.  The working set is estimated and gated
    (``sequence.check_grid_memory``) before anything is allocated.
    """
    # 8 arrays of 2^N x 2^N: the prepared setup's peak, which also covers the
    # state, detection and weight slab the kernel holds with its class index
    # arrays; the order sums; one chunk of E (rows x n_t, padded to a whole
    # number of steps of the coarse x fine split); numpy's two cast buffers.
    # Beside them, and never at once: the default acquisition's scan; the
    # temporaries of G^T (a tabulated OMDF's phases, q and quadrature block,
    # or the Gaussian's coarse and fine factors); or the chunk's stacked
    # weights (4 n_tau x rows) with G^R and one temporary, then its product
    # (4 n_tau x n_t) with the two halves summed into the order sums
    n_tau, rows = len(grid.taus), pair_chunk_rows(eig, grid.n_t)
    step = int(np.ceil(np.sqrt(grid.n_t)))
    g_t = (3 * rows * grid.n_t // 2 + QUADRATURE_BLOCK_BYTES // 16
           if isinstance(params.omdf, TabulatedOMDF) else 4 * step * rows)
    check_grid_memory(grid, 8 * reg.dim ** 2 + grid.n_t * n_tau * (2 * reg.n_spins + 1)
                      + rows * (grid.n_t + step) + 2 * np.getbufsize()
                      + max(acquisition_scan_values(reg.dim, acquisition), g_t,
                            n_tau * (5 * rows + 6 * grid.n_t)))
    acquisition, a_eig, det = kernel_inputs(prepared_setup(Propagators(eig, reg), grid.t_p),
                                            acquisition)
    state = ReducedState(a_eig, eig)
    sums = pair_order_sums(det * state.matrix.T, eig, reg.n_spins, grid.ts, grid.taus,
                           partial(params.omdf.time_factors, s_zz=eig.order_parameter),
                           partial(g_irreversible, params=params))
    return phase_encode(sums, grid, acquisition, n_molecules)
