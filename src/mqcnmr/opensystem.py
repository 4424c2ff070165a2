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

The factors and the phase depend on the gap alone, so the kernel
(``pair_order_sums``) spreads each pair's weight onto uniform gap nodes (Dutt &
Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993)) by barycentric Lagrange weights
(Berrut & Trefethen, SIAM Rev. 46, 501 (2004)) and sums over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .errors import ConfigError
from .hamiltonian import EigenSystem, distinct
from .operators import checked_hermitian
from .sequence import (ExperimentGrid, check_grid_memory, kernel_inputs, phase_encode,
                       prepared_setup, run_values)
from .spectra import SignalGrid

# The gap grid: P-point Lagrange interpolation between nodes pi / (c B) apart for
# a band B; the byte budget of its transients (a slice of pairs being spread, a
# block of E with its temporaries, or a group of taus' product with its operand);
# the bytes of one pair of a slice (P weights, their nodes and products, 6 scalars).
# TabulatedOMDF.q's blocks of (points x table) phases and their cosines or sines
# keep to the same byte budget.
STENCIL = 20
OVERSAMPLING = 6.0
GRID_CHUNK_BYTES = 4 << 20
_PAIR_BYTES = 8 * (4 * STENCIL + 6)
_SIGNS = np.array([(-1) ** j * comb(STENCIL - 1, j) for j in range(STENCIL)], dtype=float)

# The band of a Gaussian spectrum of deviation s is M s, M = ((P-1)!!)^(1/P) = 2.77:
# the error grows as frequency^P, whose mean there is (M s)^P, as on a flat band to M s.
GAUSSIAN_BAND = float(np.prod(np.arange(1.0, STENCIL, 2.0)) ** (1.0 / STENCIL))


class _OMDF:
    """What both OMDFs share: the kernel's time factors from the transform q."""

    def q_values(self, points: int) -> int:
        """Complex values q holds for ``points`` points beyond a few arrays of them."""
        return 0

    def time_factors(self, gaps, ts, s_zz: float) -> np.ndarray:
        """E = exp(-i S_zz g t) q(g t) for each gap g, shape (gaps, n_t)."""
        x = np.multiply.outer(np.asarray(gaps, dtype=float), np.asarray(ts, dtype=float))
        return np.exp(-1j * s_zz * x) * self.q(x)


class GaussianOMDF(_OMDF):
    """Gaussian orientational distribution, unit integral, width in its own units.

    p(u) = exp(-u^2 / (2 w^2)) / sqrt(2 pi w^2); its inverse transform is
    q(x) = exp(-w^2 x^2 / 2), so G^T is Gaussian in t.
    """

    def __init__(self, width: float):
        if width <= 0:
            raise ConfigError(f"OMDF width must be positive, got {width}")
        self.width = float(width)

    def q(self, x):
        return np.exp(-0.5 * (self.width * np.asarray(x)) ** 2)

    def band(self, t_max: float) -> float:
        """Band in g of q(g t), |t| <= t_max: a Gaussian of spectral deviation w t_max."""
        return GAUSSIAN_BAND * self.width * t_max


class TabulatedOMDF(_OMDF):
    """User-tabulated OMDF given as sample points (u, p(u)).

    Normalized to unit integral on load; q(x) is evaluated by trapezoid
    quadrature of p(u) exp(i u x) over the tabulated support: with the
    weights w_k = p_k (u_{k+1} - u_{k-1}) / 2 (one-sided at the ends) it is
    cos(x u) w + i sin(x u) w, in blocks of x of at most GRID_CHUNK_BYTES of
    phases and their cosines or sines, cut when q is called.
    """

    def __init__(self, u: np.ndarray, p: np.ndarray):
        u = np.asarray(u, dtype=float)
        p = np.asarray(p, dtype=float)
        if u.ndim != 1 or u.shape != p.shape or u.size < 3:
            raise ConfigError("tabulated OMDF needs matching 1D u and p arrays (>= 3 points)")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(p))):
            raise ConfigError("tabulated OMDF has non-finite entries")
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
        try:
            return cls(table[:, 0], table[:, 1])
        except ConfigError as exc:
            raise ConfigError(f"OMDF table {path}: {exc}") from None

    def q(self, x):
        x = np.asarray(x, dtype=float)
        flat, out = x.ravel(), np.empty(x.size, dtype=complex)
        step = self._points()
        for lo in range(0, flat.size, step):
            phase = np.multiply.outer(flat[lo:lo + step], self.u)
            # einsum sums each row in one order whatever the block's row count
            # (a BLAS matrix-vector product need not), so blocks change no bit
            out.real[lo:lo + step] = np.einsum("xu,u->x", np.cos(phase), self._weights)
            out.imag[lo:lo + step] = np.einsum("xu,u->x", np.sin(phase, out=phase),
                                               self._weights)
        return out.reshape(x.shape)[()]

    def q_values(self, points: int) -> int:
        """One block's phases and their cosines or sines, as complex values."""
        return min(points, self._points()) * self.u.size

    def _points(self) -> int:
        """Points of x in one block of q."""
        return max(1, GRID_CHUNK_BYTES // (16 * self.u.size))

    def band(self, t_max: float) -> float:
        """Band in g of q(g t), |t| <= t_max: exactly max |u| t_max (q sums exp(i u g t))."""
        return float(np.max(np.abs(self.u))) * t_max


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

    def band(self, ts, taus, s_zz: float) -> float:
        """Band in the gap g of G^R(g, tau) E(g, t) over ts and taus: the phase's
        |S_zz| max |t|, the OMDF's, and G^R = exp(-beta g^2)'s, a Gaussian of spectral
        deviation sqrt(2 beta) at the largest tau's beta = sigma^2 tau^4 / [8 (kappa+1)^2]."""
        t_max = float(np.max(np.abs(ts)))
        beta = (self.sigma_cl * np.max(taus) ** 2) ** 2 / (8.0 * (self.kappa + 1.0) ** 2)
        return abs(s_zz) * t_max + self.omdf.band(t_max) + GAUSSIAN_BAND * np.sqrt(2.0 * beta)


def g_irreversible(dzeta, tau, params: DecoherenceParams):
    """Irreversible decoherence factor exp(-dzeta^2 sigma^2 tau^4 / [8(kappa+1)^2]),
    built in one array of the broadcast shape (the sign on the divisor changes no bit)."""
    x = np.asarray((np.asarray(dzeta, dtype=float) * params.sigma_cl) ** 2
                   * np.asarray(tau, dtype=float) ** 4)
    x /= -8.0 * (params.kappa + 1.0) ** 2
    return np.exp(x, out=x)[()]


def prepare_reduced_state(eig: EigenSystem, t_p: float) -> np.ndarray:
    """Single-molecule state right after the JB preparation, in the eigenbasis,
    checked hermitian and read-only."""
    return checked_hermitian(eig.to_eigen(prepared_setup(eig, t_p)))


def grid_nodes(zeta: np.ndarray, band) -> tuple:
    """(nodes k h for |k| <= ceil(max gap / h) + STENCIL / 2, h) for
    h = pi / (OVERSAMPLING band): all stencils of the gaps; (None, None) for no
    band or for more nodes than the ordered pairs (a bound on the distinct gaps
    that needs no sort), where the kernel takes the gaps themselves."""
    if not band or band <= 0:
        return None, None
    h = np.pi / (OVERSAMPLING * band)
    k = np.ceil(np.ptp(zeta) / h) + STENCIL // 2
    return (h * np.arange(-k, k + 1), h) if 2 * k + 1 <= zeta.size ** 2 else (None, None)


def _stencils(gaps: np.ndarray, nodes: np.ndarray, h, d: np.ndarray) -> tuple:
    """(first node, weights) of each gap's stencil, the weights written to
    ``d``, of shape (P, gaps): the P = STENCIL barycentric weights
    (-1)^j C(P-1, j) / (s - j) over their sum, s the gap's place among the
    nodes, which hold it between their middle two (weight 1 on a node it
    hits); or, on the gaps themselves (h None, ``d`` of shape (1, gaps)),
    its own node."""
    if h is None:
        d.fill(1.0)
        return np.searchsorted(nodes, gaps), d
    x = gaps / h
    whole = np.floor(x)
    first = whole.astype(np.intp) + (nodes.size // 2 - STENCIL // 2 + 1)
    at = x - whole + (STENCIL // 2 - 1)  # in [P/2 - 1, P/2]: the gap's place in its stencil
    np.subtract(at, np.arange(STENCIL)[:, None], out=d)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_SIGNS[:, None], d, out=d)
        d /= d.sum(axis=0)
    on_node = at == np.rint(at)
    d[:, on_node] = np.arange(STENCIL)[:, None] == at[on_node]
    return first, d


def _slices(blocks) -> tuple:
    """(an iterator of (x - y, rows of A, columns of B), most pairs) for m blocks
    x <= y of ``blocks``: rows by GRID_CHUNK_BYTES / _PAIR_BYTES pairs, a row at
    least, one at a time (a list's tuples, freed, stay in CPython's free list)."""
    spans, step = [cols for _, cols, _ in blocks], GRID_CHUNK_BYTES // _PAIR_BYTES
    pairs = [(x - y, a, b, max(1, step // (b.stop - b.start)))
             for x, a in enumerate(spans) for y, b in enumerate(spans[x:], x)]
    return (((nu, slice(lo, min(lo + rows, a.stop)), b) for nu, a, b, rows in pairs
             for lo in range(a.start, a.stop, rows)),
            max(min(rows, a.stop - a.start) * (b.stop - b.start) for _, a, b, rows in pairs))


def pair_order_sums(weights: np.ndarray, eig: EigenSystem, ts: np.ndarray, taus: np.ndarray,
                    time_factors, g_irreversible, band=None) -> np.ndarray:
    """c[nu + N, t, tau] = sum over pairs of order nu of W G^R E, shape
    (2N + 1, n_t, n_tau), for one (2^N, 2^N) slab W of pair weights shared by
    every tau, on a grid of gaps.

    Pair (a, b) has order nu = m_b - m_a, gap g = zeta_b - zeta_a and the term
    weights[a, b] G^R(g, tau) E(g, t), with E = ``time_factors(gaps, ts)`` =
    exp(-i S_zz g t) G^T(g, t) for a 1D array of gaps and ``g_irreversible``
    called with the gaps as a row and the taus as a column; G^T(-g, t) =
    conj(G^T(g, t)), and G^R is real and even in g.

    Every pair of the slab is spread onto gap nodes g_k, rho[nu, k] =
    sum_ab W_ab L_k(g_ab), and c[nu, :, tau] = (rho[nu] G^R(g_k, tau)) @
    E(g_k, :), in real arithmetic (``_node_sums``).  For a ``band`` B in g
    of G^R E over ts and taus (``DecoherenceParams.band``) the nodes are
    uniform, spaced pi / (c B), and L is P-point Lagrange interpolation,
    whose error grows as (pi / c)^P at the band's edge: P = 20 and c = 6
    hold the sums within about 1e-13 of the largest.  With no band, or
    where those would outnumber the ordered pairs (``grid_nodes``), the
    nodes are the gaps themselves and L the identity, which is exact.  Both
    sets are symmetric about 0, and E is built on the nodes g >= 0 only.

    The eigenbasis is in m-block order: the pairs of blocks x <= y, A and B,
    are the slice W[A, B] of order x - y and gaps zeta[B] - zeta[A, None],
    and its mirror W[B, A].T (none if x = y) of order y - x takes the stencils
    reversed.  Rows of A go in slices of about GRID_CHUNK_BYTES (``_slices``),
    each order's by one ``np.add.at`` into rho flat, at (N + nu) nodes + k, in
    element order, so calls are bit-identical, through one work array made per
    call: a slice's (P, pairs) weights, node indices and products, then a tau group's.
    """
    ts, taus = np.asarray(ts, dtype=float), np.asarray(taus, dtype=float)
    n_spins, n_orders = eig.reg.n_spins, 2 * eig.reg.n_spins + 1
    nodes, h = grid_nodes(eig.zeta, band)
    if h is None:
        nodes = distinct(np.subtract.outer(eig.zeta, eig.zeta))
    half = nodes[nodes.size // 2:]  # the nodes g >= 0; the rest mirror them
    e = np.empty((2, half.size, ts.size))
    step = max(1, GRID_CHUNK_BYTES // (256 * ts.size))  # a sixteenth of it per array
    for lo in range(0, half.size, step):
        block = time_factors(half[lo:lo + step], ts)
        e[0, lo:lo + step], e[1, lo:lo + step] = block.real, block.imag
        del block
    rho = np.zeros((n_orders, nodes.size), dtype=complex)
    walk, most = _slices(eig.blocks)
    rows = 1 if h is None else STENCIL
    work = np.empty(max(4 * rows * most, _product_floats(n_orders, half.size, ts.size, taus.size)))
    for nu, a, b in walk:
        gaps = (eig.zeta[b] - eig.zeta[a, None]).ravel()
        lagrange, index = work[:2 * rows * gaps.size].reshape(2, rows, -1)
        index, values = index.view(np.intp), work[2 * index.size:4 * index.size].view(complex)
        first = _stencils(gaps, nodes, h, lagrange)[0]
        np.add(first, np.arange(rows)[:, None] + (n_spins + nu) * nodes.size, out=index)
        for w in (weights[a, b], weights[b, a].T)[:1 + (nu != 0)]:
            np.multiply(lagrange, w.ravel(), out=values.reshape(rows, -1))
            np.add.at(rho.reshape(-1), index.ravel(), values)  # 1-D: numpy's fast path
            np.subtract(rho.size - 1, index, out=index)  # the mirror: order -nu at -g
    return _node_sums(rho, e, g_irreversible(half[None], taus[:, None]), work)


def _product_floats(n_orders: int, n_half: int, n_t: int, n_tau: int) -> int:
    """The floats of ``_node_sums``' work: a group of taus' scaled operand and
    product, (2 (2N + 1), 2 nodes) and (2 (2N + 1), n_t) per tau, as many
    taus as fit GRID_CHUNK_BYTES, at least one and at most all."""
    per_tau = 2 * n_orders * (2 * n_half + n_t)
    return min(n_tau, max(1, GRID_CHUNK_BYTES // (8 * per_tau))) * per_tau


def _node_sums(rho: np.ndarray, e: np.ndarray, g_r: np.ndarray, work: np.ndarray) -> np.ndarray:
    """c[:, :, tau] = sum over the nodes g_k of rho[:, k] G^R(g_k, tau)
    E(g_k, :), shape (orders, n_t, taus), for the (orders, nodes) spread
    weights ``rho`` on nodes symmetric about 0, ``e`` = [Re E; Im E] on the
    nodes g >= 0 and ``g_r`` (taus, nodes g >= 0), in real arithmetic, in
    groups of as many taus as fit the float array ``work`` (at least one),
    each group's product written into its taus ``c[..., lo:lo + k]``.

    With E(-g) = conj(E(g)), A = rho at g >= 0 and B = conj(rho at -g) (0
    at g = 0, counted once), c = A E + conj(B E): Re c = [Re(A + B),
    -Im(A + B)] [Re E; Im E] and Im c = [Im(A - B), Re(A - B)] [Re E; Im E],
    one real GEMM per group with 4 multiply-adds per (order, node, time)
    against the complex product's 8.  G^R scales the left operand per tau.
    """
    n_orders, (_, n_half, n_t), n_tau = rho.shape[0], e.shape, g_r.shape[0]
    below, rows = rho.shape[1] - n_half, 2 * n_orders
    a, mirrored = rho[:, below:], rho[:, :below][:, ::-1]  # mirrored: at -g for g > 0
    left = np.empty((2, n_orders, 2, n_half))
    left[0, :, 0], left[1, :, 0], left[1, :, 1] = a.real, a.imag, a.real
    np.negative(a.imag, out=left[0, :, 1])  # no temporary beside G^R and ``left``
    left[0, :, 0, 1:] += mirrored.real
    left[0, :, 1, 1:] += mirrored.imag
    left[1, :, 0, 1:] += mirrored.imag
    left[1, :, 1, 1:] -= mirrored.real
    del a, mirrored
    group = work.size // (rows * (2 * n_half + n_t))
    c = np.empty((n_orders, n_t, n_tau), dtype=complex)
    for lo in range(0, n_tau, group):
        k = min(group, n_tau - lo)
        x = work[:k * rows * 2 * n_half].reshape(k, 2, n_orders, 2, n_half)
        y = work[x.size:x.size + k * rows * n_t].reshape(k * rows, n_t)
        np.multiply(left, g_r[lo:lo + k, None, None, None], out=x)
        np.matmul(x.reshape(k * rows, 2 * n_half), e.reshape(2 * n_half, n_t), out=y)
        y = y.reshape(k, 2, n_orders, n_t).transpose(1, 2, 3, 0)
        c.real[..., lo:lo + k], c.imag[..., lo:lo + k] = y
    return c


def run_grid_open(eig: EigenSystem, grid: ExperimentGrid, params: DecoherenceParams,
                  acquisition=None, n_molecules: int = 1) -> SignalGrid:
    """Open-engine analog of ``sequence.run_grid``.

    The reversion block is ideal by assumption, so tau enters only through
    G^R; the waiting time t carries the eigenbasis phases and G^T, both
    built by the OMDF's ``time_factors`` and applied by ``pair_order_sums``
    to one weight slab shared by every tau, on gap nodes for the band that
    ``DecoherenceParams.band`` gives over the grid (P = 20, c = 6: within
    about 1e-13 of the largest sum).  ``kernel_inputs`` checks the prepared
    state.  The working set is estimated and gated
    (``sequence.check_grid_memory``) before anything is allocated.
    """
    # beside what ``run_values`` charges for both engines: numpy's cast
    # buffers throughout, and the kernel: the weights and E's parts on the
    # nodes g >= 0, with the larger of its two phases.  While E is built, a
    # block of it with q's own; then the spread weights on the nodes (the
    # uniform set's, or as many as the ordered pairs) and the work array
    # (the largest slice's, ``_slices``, or ``_product_floats``), with the
    # larger of a slice's other 6 scalars a pair (``_PAIR_BYTES``), or G^R on
    # the nodes g >= 0 and the product's left operand
    n_spins, dim2 = eig.reg.n_spins, eig.dim ** 2
    n_tau, n_orders, n_t = len(grid.taus), 2 * n_spins + 1, grid.n_t
    band = params.band(grid.ts, grid.taus, eig.order_parameter)
    nodes = grid_nodes(eig.zeta, band)[0]  # the gate reads its size; the kernel makes its own
    nodes = dim2 if nodes is None else nodes.size
    half = nodes // 2 + 1
    points = min(half, max(1, GRID_CHUNK_BYTES // (256 * n_t))) * n_t  # a block of E
    most = _slices(eig.blocks)[1]
    work = max(4 * STENCIL * most, _product_floats(n_orders, half, n_t, n_tau)) // 2
    spread = n_orders * nodes + work + max(3 * most, half * n_tau // 2 + 2 * n_orders * half)
    kernel = dim2 + half * n_t + max(4 * points + params.omdf.q_values(points), spread)
    check_grid_memory(run_values(eig, grid, acquisition, 2 * np.getbufsize(), kernel))
    acquisition, state, det = kernel_inputs(eig, grid.t_p, acquisition)
    sums = pair_order_sums(det * state.T, eig, grid.ts, grid.taus,
                           partial(params.omdf.time_factors, s_zz=eig.order_parameter),
                           partial(g_irreversible, params=params), band)
    return phase_encode(sums, grid, acquisition, n_molecules)
