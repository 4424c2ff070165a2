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

from .errors import ConfigError, MqcnmrError, UnsupportedGridError
from .hamiltonian import EigenSystem
from .sequence import (ExperimentGrid, acquisition_scan_values, check_grid_memory, kernel_inputs,
                       phase_encode, prepared_setup)
from .spectra import SignalGrid

# Byte budget of one block of TabulatedOMDF.q's (points x table) phases and
# their cosines or sines.
QUADRATURE_BLOCK_BYTES = 4 << 20


def _powers(x: np.ndarray, n: int, square: bool = False) -> np.ndarray:
    """x^k (x^(k^2) when ``square``) for k = 0 .. n-1, stacked on a new first
    axis, by repeated multiplication: x^((k+1)^2) = x^(k^2) x^(2k+1)."""
    out = np.empty((n,) + x.shape, dtype=x.dtype)
    out[0] = 1.0
    step, x2 = x.copy(), x * x if square else None
    for k in range(1, n):
        np.multiply(out[k - 1], step, out=out[k])
        if square:
            step *= x2
    return out


def _uniform_exp(a: np.ndarray, ts: np.ndarray, b=0.0) -> np.ndarray:
    """exp(a t + b t^2) for each row's a (complex) and b (real) on uniform ts,
    shape (rows, n_t), from three complex and three real exponentials per row.

    With t_j = t_0 + j dt the exponent is c0 + c1 j + c2 j^2, and with
    j = L k + l (L = ceil(sqrt(n_t))) the value is the product of a coarse
    factor exp(c0) R^k Q^(k^2), a fine factor r^l q^(l^2) and u^(k l), where
    r, R = exp(c1), exp(L c1) and q, Q, u = exp(c2), exp(L^2 c2), exp(2 L c2);
    every power is taken by multiplication.  A power p of a base rounded once
    is off by about p ulp, and no base is raised past n_t (j^2 itself would
    reach n_t^2); the tests hold the result within 1e-13 of max |E| of exp
    at every sample for n_t up to 300, 100 rad of phase and a decay to e^-30.
    The result is the transpose of a (n_t, rows) array, which BLAS reads as
    it is.
    """
    a = np.asarray(a, dtype=complex)
    b = np.broadcast_to(np.asarray(b, dtype=float), a.shape)
    step, t0, dt = int(np.ceil(np.sqrt(ts.size))), ts[0], ts[1] - ts[0]
    c1 = (a + 2.0 * b * t0) * dt
    c0, r, big_r = np.exp([a * t0 + b * t0 ** 2, c1, step * c1])
    coarse = c0 * _powers(big_r, -(-ts.size // step))
    fine = _powers(r, step)
    q, big_q, u = np.exp(b * dt ** 2 * np.array([1.0, step ** 2, 2 * step])[:, None])
    coarse *= _powers(big_q, coarse.shape[0], square=True)
    fine *= _powers(q, step, square=True)
    cross = _powers(u, step)
    out = np.empty(coarse.shape[:1] + fine.shape, dtype=complex)
    for k, factor in enumerate(coarse):
        np.multiply(factor, fine, out=out[k])
        fine *= cross  # fine times u^(k l) for the next k
    return out.reshape(-1, a.size)[:ts.size].T


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


def prepare_reduced_state(eig: EigenSystem, t_p: float) -> ReducedState:
    """Single-molecule state right after the JB preparation, in the eigenbasis."""
    return ReducedState(prepared_setup(eig, t_p).state, eig)


# Byte budget of one chunk of the pair kernel's (classes x n_t) time series E.
PAIR_CHUNK_BYTES = 4 << 20


def pair_chunk_rows(eig: EigenSystem, n_t: int) -> int:
    """Pair classes per chunk of ``pair_order_sums``: the rows of E that fit
    PAIR_CHUNK_BYTES, capped by half the ordered pairs of order 0 (the sum of
    C_m^2 / 2 over the C_m states of each total m), which from N = 3 on no
    |nu| exceeds in classes."""
    counts = np.unique(eig.m, return_counts=True)[1]
    return int(min(max(1, PAIR_CHUNK_BYTES // (16 * n_t)), np.sum(counts ** 2) // 2))


def _spin_flip_images(eig: EigenSystem) -> np.ndarray:
    """The spin-flip image of each eigenstate: the state of total m -> -m with
    the same zeta, matched by rank of zeta within the two blocks (a state of
    m = 0 is its own image).

    The secular dipolar H commutes with the pi rotation of all spins about x,
    which takes total m to -m, so blocks m and -m share their spectrum.  An
    eigensystem whose spectra differ by more than 1e-10 max |zeta| is refused.
    """
    image = np.empty(eig.dim, dtype=np.intp)
    tol = 1e-10 * np.max(np.abs(eig.zeta))
    for m in np.unique(eig.m):
        here, there = (np.flatnonzero(eig.m == s) for s in (m, -m))
        here, there = (i[np.argsort(eig.zeta[i], kind="stable")] for i in (here, there))
        if here.size != there.size or np.any(np.abs(eig.zeta[here] - eig.zeta[there]) > tol):
            raise MqcnmrError(f"the eigenvalues of total m = {m:g} and {-m:g} differ: the "
                              "pair kernel needs a Hamiltonian symmetric under a spin flip")
        image[here] = there
    return image


def pair_order_sums(weights: np.ndarray, eig: EigenSystem, ts: np.ndarray, taus: np.ndarray,
                    time_factors, g_irreversible) -> np.ndarray:
    """c[tau, nu + N, t] = sum over pairs of order nu of W G^R E, for one
    (2^N, 2^N) slab W of pair weights shared by every tau.

    Pair (a, b) has order nu = m_b - m_a, gap g = zeta_b - zeta_a and the term
    weights[a, b] G^R(g, tau) E(g, t): E = ``time_factors(gaps, ts)`` on
    uniform ts, the rows of E for a 1D array of gaps, exp(-i S_zz g t) G^T(g, t);
    ``g_irreversible`` is called with the gaps as a row and the taus as a column.

    E and G^R depend on the gap alone, and G^T(-g, t) = conj(G^T(g, t)), G^R is
    real and even in g.  So the pair, its mirror (b, a) (order -nu, E conj),
    its spin-flip image (a', b') (order -nu, the same E; ``_spin_flip_images``)
    and the image's mirror (order nu, E conj) form one class, whose members
    each count once.  The flip negates m_a + m_b, so each class nonzero in any
    member is taken from its unordered pair {a, b} of m_a + m_b >= 0 (on a tie,
    the one of the smaller index a dim + b, a <= b), led by the member of order
    |nu|, and the classes are sorted by |nu| and cut into chunks of at most
    PAIR_CHUNK_BYTES of E.  Each chunk builds E and G^R once per class and runs
    one GEMM on the stacked weights [W_ab ; conj(W_b'a') ; W_a'b' ; conj(W_ba)]
    G^R: the first two rows (the second conjugated after the GEMM) go into nu,
    the last two into -nu.  At nu = 0 the image has the pair's order and gap,
    so its weights are added onto the pair's own.
    """
    ts, taus = np.asarray(ts, dtype=float), np.asarray(taus, dtype=float)
    if ts.size < 2 or not np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9, atol=0.0):
        raise UnsupportedGridError("eigenpair sums need at least 2 uniformly spaced times")
    n_spins = eig.reg.n_spins
    c = np.zeros((taus.size, 2 * n_spins + 1, ts.size), dtype=complex)
    image = _spin_flip_images(eig)
    nonzero = weights != 0
    nonzero |= nonzero.T
    nonzero |= nonzero[np.ix_(image, image)]
    # one unordered pair per class: m_a + m_b > 0, or on a tie the smaller key
    a, b = np.nonzero(np.triu(nonzero) & (eig.m[:, None] >= -eig.m))
    del nonzero
    ia, ib = image[a], image[b]
    own, img = a * eig.dim + b, np.minimum(ia, ib) * eig.dim + np.maximum(ia, ib)
    keep = (eig.m[a] > -eig.m[b]) | (own <= img)
    a, b, distinct = a[keep], b[keep], (own != img)[keep]
    del ia, ib, own, img, keep  # before the chunks
    nu = np.rint(eig.m[b] - eig.m[a]).astype(int)
    a, b = np.where(nu < 0, b, a), np.where(nu < 0, a, b)  # lead with the member of order |nu|
    nu = np.abs(nu)
    rows = pair_chunk_rows(eig, ts.size)
    for order in range(n_spins + 1):
        classes = np.flatnonzero(nu == order)
        for lo in range(0, classes.size, rows):
            k = classes[lo:lo + rows]
            p, q, dk = a[k], b[k], distinct[k]
            ip, iq, off, gap = image[p], image[q], p != q, eig.zeta[q] - eig.zeta[p]
            e = time_factors(gap, ts)
            parts = [weights[p, q], (weights[iq, ip] * (off & dk)).conj(),
                     weights[ip, iq] * dk, (weights[q, p] * off).conj()]
            if order == 0:
                parts = [parts[0] + parts[2], parts[1] + parts[3]]
            parts = np.stack(parts)[:, None] * g_irreversible(gap[None], taus[:, None])
            prod = (parts.reshape(-1, k.size) @ e).reshape(len(parts), -1, ts.size)
            for sign, (direct, conjugated) in zip((1, -1), zip(prod[::2], prod[1::2])):
                c[:, n_spins + sign * order] += direct + conjugated.conj()
            del parts, e  # before the next chunk builds its own
    return c


def run_grid_open(eig: EigenSystem, grid: ExperimentGrid, params: DecoherenceParams,
                  acquisition=None, n_molecules: int = 1) -> SignalGrid:
    """Open-engine analog of ``sequence.run_grid``.

    The reversion block is ideal by assumption, so tau enters only through
    G^R; the waiting time t carries the eigenbasis phases and G^T, both
    built by the OMDF's ``time_factors`` and applied by ``pair_order_sums``
    to one weight slab shared by every tau, one class of spin-flip and mirror
    pairs at a time.  The prepared state is checked as a ``ReducedState``.
    The working set is estimated and gated (``sequence.check_grid_memory``)
    before anything is allocated.
    """
    # The signal grid; 8 arrays of 2^N x 2^N: the prepared setup's peak, which
    # also covers I_+ and the state, detection and weight slab the kernel
    # holds with its class index arrays; the MREV-8 cycle the eigensystem
    # may hold from a closed run; the order sums; one chunk of E (rows x n_t,
    # padded to a whole number of steps of the coarse x fine split); numpy's
    # two cast buffers.
    # Beside them, and never at once: the default acquisition's scan; the
    # temporaries of G^T (a tabulated OMDF's phases, q and quadrature block,
    # or the Gaussian's coarse and fine factors); or the chunk's stacked
    # weights (4 n_tau x rows) with G^R and one temporary, then its product
    # (4 n_tau x n_t) with the two halves summed into the order sums
    n_tau, rows = len(grid.taus), pair_chunk_rows(eig, grid.n_t)
    step = int(np.ceil(np.sqrt(grid.n_t)))
    g_t = (3 * rows * grid.n_t // 2 + QUADRATURE_BLOCK_BYTES // 16
           if isinstance(params.omdf, TabulatedOMDF) else 4 * step * rows)
    check_grid_memory(grid.n_phi * grid.n_t * n_tau + (9 if eig.holds_cycle else 8) * eig.dim ** 2
                      + grid.n_t * n_tau * (2 * eig.reg.n_spins + 1)
                      + rows * (grid.n_t + step) + 2 * np.getbufsize()
                      + max(acquisition_scan_values(eig.dim, acquisition), g_t,
                            n_tau * (5 * rows + 6 * grid.n_t)))
    acquisition, a_eig, det = kernel_inputs(prepared_setup(eig, grid.t_p), acquisition)
    state = ReducedState(a_eig, eig)
    sums = pair_order_sums(det * state.matrix.T, eig, grid.ts, grid.taus,
                           partial(params.omdf.time_factors, s_zz=eig.order_parameter),
                           partial(g_irreversible, params=params))
    return phase_encode(sums, grid, acquisition, n_molecules)
