"""Coherence-order-resolved spectra from signal grids.

The 2D discrete transform maps the signal S(phi, t) to a spectrum over
(mu, omega): the phi transform uses the convention that a component
exp(+i nu phi) lands at bin mu = nu, and the t transform maps
exp(+2 pi i f t) to +f.  Frequencies are reported in Hz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MqcnmrError, UnsupportedGridError
from .hamiltonian import EigenSystem
from .operators import kron_conjugate


@dataclass(frozen=True)
class SignalGrid:
    """Complex NMR signal indexed (phi, t, tau) with acquisition metadata.

    The phase axis always spans the full circle with step 2*pi/n_phi.
    """

    data: np.ndarray  # (n_phi, n_t, n_tau) complex
    dt: float
    taus: np.ndarray
    t_p: float
    t_m: float
    window: float

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 3:
            raise MqcnmrError(f"signal grid must be 3-dimensional, got shape {a.shape}")
        taus = np.asarray(self.taus, dtype=float)
        if taus.shape != (a.shape[2],):
            raise MqcnmrError("tau axis length does not match the data")
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "taus", taus)

    @property
    def n_phi(self) -> int:
        return self.data.shape[0]

    @property
    def n_t(self) -> int:
        return self.data.shape[1]

    @property
    def dphi(self) -> float:
        return 2.0 * np.pi / self.n_phi

    def metadata(self) -> dict:
        return {
            "n_phi": self.n_phi, "n_t": self.n_t, "n_tau": len(self.taus),
            "dt": self.dt, "dphi": self.dphi, "taus": self.taus.tolist(),
            "t_p": self.t_p, "t_m": self.t_m, "window": self.window,
        }


@dataclass(frozen=True)
class CoherenceSpectrum:
    """Per-tau spectra over (coherence order mu, frequency omega in Hz)."""

    data: np.ndarray  # (n_tau, n_mu, n_freq) complex
    mu: np.ndarray
    freqs_hz: np.ndarray
    taus: np.ndarray
    meta: dict = field(default_factory=dict)

    def order_index(self, mu: int) -> int:
        idx = np.flatnonzero(self.mu == mu)
        if idx.size == 0:
            raise ConfigError(f"coherence order {mu} outside range [{self.mu[0]}, {self.mu[-1]}]")
        return int(idx[0])

    def order(self, mu: int) -> np.ndarray:
        """Spectra of one coherence order, shape (n_tau, n_freq)."""
        return self.data[:, self.order_index(mu), :]

    def band(self, limit_hz: float) -> "CoherenceSpectrum":
        """Restrict the frequency axis to |f| <= limit_hz (display helper)."""
        keep = np.abs(self.freqs_hz) <= limit_hz
        if not keep.any():
            raise ConfigError(f"band limit {limit_hz} Hz keeps no frequency bin")
        return CoherenceSpectrum(
            data=self.data[:, :, keep], mu=self.mu, freqs_hz=self.freqs_hz[keep],
            taus=self.taus, meta={**self.meta, "band_hz": limit_hz})


def fft2_coherence(grid: SignalGrid, zero_pad: int = 1) -> CoherenceSpectrum:
    """Transform a signal grid into per-tau coherence spectra.

    The phi axis is transformed first (normalized by n_phi so that a pure
    exp(i nu phi) input has unit weight at mu = nu), then the t axis.

    Args:
        zero_pad: integer t-axis padding factor for display interpolation;
            analysis should run on the unpadded bins (factor 1).
    """
    if zero_pad < 1 or int(zero_pad) != zero_pad:
        raise UnsupportedGridError(f"zero_pad must be a positive integer, got {zero_pad}")

    c = np.fft.fftshift(np.fft.fft(grid.data, axis=0), axes=0) / grid.n_phi
    n_freq = grid.n_t * int(zero_pad)
    spec = np.fft.fftshift(np.fft.fft(c, n=n_freq, axis=1), axes=1)
    spec = np.moveaxis(spec, 2, 0)  # -> (n_tau, n_mu, n_freq)

    mu = np.arange(-(grid.n_phi // 2), grid.n_phi - grid.n_phi // 2)
    freqs = np.fft.fftshift(np.fft.fftfreq(n_freq, grid.dt))
    return CoherenceSpectrum(data=spec, mu=mu, freqs_hz=freqs, taus=grid.taus,
                             meta={**grid.metadata(), "zero_pad": int(zero_pad)})


@dataclass(frozen=True)
class RunSetup:
    """The operators one run holds fixed, as read-only arrays: the prepared
    state and the detected operator I_+ = I_x + i I_y in the H eigenbasis V
    (each X as V^dagger X V), and the read pulse R_y(pi/4) as its Kronecker
    halves (``operators.rotation_halves``)."""

    eig: EigenSystem
    state: np.ndarray
    read_pulse: tuple
    i_plus: np.ndarray

    def __post_init__(self):
        for name in ("state", "i_plus"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        object.__setattr__(self, "read_pulse", tuple(map(_read_only, self.read_pulse)))


def _read_only(a) -> np.ndarray:
    view = np.asarray(a, dtype=complex).view()
    view.flags.writeable = False
    return view


def detection_matrix(setup: RunSetup, t_m: float, window: float) -> np.ndarray:
    """Window-averaged detection weights in the H eigenbasis.

    Element (a, b) is the acquisition-averaged trace weight multiplying
    density element (b, a) in the complex transverse signal, with the read
    pulse R of ``setup`` folded in: V^dagger R^dagger V (I_+ * win) V^dagger R V,
    through V's m blocks and R's Kronecker halves.  The window average is
    analytic (sinc).
    """
    eig = setup.eig
    omega = eig.order_parameter * eig.gaps()
    win = np.exp(1j * omega * t_m) * np.sinc(omega * window / (2.0 * np.pi))
    adjoint = tuple(h.conj().T for h in setup.read_pulse)
    return eig.to_eigen(kron_conjugate(adjoint, eig.to_product(setup.i_plus * win)))


# Byte budget of one chunk of the pair kernel's (pairs x n_t) time series E.
PAIR_CHUNK_BYTES = 4 << 20


def pair_chunk_rows(eig: EigenSystem, n_t: int) -> int:
    """Eigenpairs per chunk of ``pair_order_sums``: the rows of E that fit
    PAIR_CHUNK_BYTES, capped by the pair count of the largest order (nu = 0)."""
    counts = np.unique(eig.m, return_counts=True)[1]
    return int(min(max(1, PAIR_CHUNK_BYTES // (16 * n_t)), np.sum(counts ** 2)))


def _uniform_exp(x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(outer(x, ts)) on uniform ts from about 2 sqrt(n_t) exponentials per
    row: with j = L k + r, exp(x t_j) = exp(x t_{Lk}) exp(x r dt)."""
    step, dt = int(np.ceil(np.sqrt(ts.size))), ts[1] - ts[0]
    coarse = np.exp(np.outer(x, ts[0] + step * dt * np.arange(-(-ts.size // step))))
    fine = np.exp(np.outer(x, dt * np.arange(step)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(x.size, -1)[:, :ts.size]


def free_phases(eig: EigenSystem, ts: np.ndarray) -> np.ndarray:
    """Free-evolution phases p[j, a] = exp(-i S_zz zeta_a t_j), shape (n_t, dim)."""
    return np.exp(-1j * eig.order_parameter * np.outer(ts, eig.zeta))


def pair_order_sums(weights: np.ndarray, eig: EigenSystem, n_spins: int,
                    ts: np.ndarray, taus: np.ndarray, g_reversible=None,
                    g_irreversible=None) -> np.ndarray:
    """c[tau, nu + N, t] = sum over pairs of order nu of W[tau, pair] E[pair, t].

    Pair (a, b) has order nu = m_b - m_a, gap g = zeta_b - zeta_a and
    W = weights[(tau,) a, b] G^R(g, tau), E = exp(-i S_zz g t) G^T(g, t) on
    uniform ts (G None means 1; both are called with arrays that broadcast,
    G^R with the gaps as a row and the taus as a column).  ``weights`` is
    (dim, dim), the same for every tau, or (n_tau, dim, dim).

    Without G factors E = p_b conj(p_a) factorises (``free_phases``): for each
    slab, one GEMM per total-m row block, in O(n_t 2^N) working memory plus a
    copy of the block's rows of that slab.  With G^T or G^R (G^T(-g, t) =
    conj(G^T(g, t)), G^R real and even in g), E_ba = conj(E_ab): pairs a <= b
    nonzero in either mirror (a = b once) are cut by order into chunks of at
    most PAIR_CHUNK_BYTES of E, each one GEMM [W_ab ; conj(W_ba)] @ E into nu, -nu.
    """
    ts, taus = np.asarray(ts, dtype=float), np.asarray(taus, dtype=float)
    if ts.size < 2 or not np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9, atol=0.0):
        raise UnsupportedGridError("eigenpair sums need at least 2 uniformly spaced times")
    weights = np.asarray(weights)
    if weights.shape not in ((eig.dim, eig.dim), (taus.size, eig.dim, eig.dim)):
        raise MqcnmrError(f"pair weights of shape {weights.shape} do not match "
                          f"{taus.size} taus of dimension {eig.dim}")
    w = weights.reshape(-1, eig.dim, eig.dim)  # one slab for all taus, or one per tau
    c = np.zeros((taus.size, 2 * n_spins + 1, ts.size), dtype=complex)
    if g_reversible is None and g_irreversible is None:
        # rows A of one m value: Q = conj(P[:, A]) W[A, :]; Q * P summed over the
        # columns of each m value is that m pair's part, added into c[k::len(w)]
        # (every tau for a shared slab)
        p, m_values = free_phases(eig, ts), np.unique(eig.m)
        member = (eig.m[:, None] == m_values[None, :]).astype(complex)
        for m_a in m_values:
            idx = np.flatnonzero(eig.m == m_a)
            cols = np.rint(m_values - m_a).astype(int) + n_spins
            p_a = p[:, idx].conj()
            for k, slab in enumerate(w):
                c[k::len(w), cols] += (((p_a @ slab[idx]) * p) @ member).T
        return c
    a, b = np.nonzero(np.triu(np.any(w, axis=0) | np.any(w, axis=0).T))
    nu, gap = np.rint(eig.m[b] - eig.m[a]).astype(int) + n_spins, eig.zeta[b] - eig.zeta[a]
    mirrors = np.stack([w[:, a, b], (w[:, b, a] * (a != b)).conj()])
    rows = pair_chunk_rows(eig, ts.size)
    for i in range(2 * n_spins + 1):
        pairs = np.flatnonzero(nu == i)
        for lo in range(0, pairs.size, rows):
            k = pairs[lo:lo + rows]
            e = _uniform_exp(-1j * eig.order_parameter * gap[k], ts)
            if g_reversible is not None:
                e *= g_reversible(gap[k, None], ts[None, :])
            prod = (mirrors[:, :, k] * (1.0 if g_irreversible is None else g_irreversible(
                gap[None, k], taus[:, None]))).reshape(-1, k.size) @ e
            c[:, i] += prod[:len(prod) // 2]
            c[:, 2 * n_spins - i] += prod[len(prod) // 2:].conj()
    return c


def spectrum_to_csv(spec: CoherenceSpectrum, path) -> None:
    """Write a spectrum as CSV rows (tau, mu, omega_hz, re, im, abs).

    Floats are shortest round-trip ``repr``s, abs is ``hypot(re, im)`` and rows
    end in CRLF; each (tau, mu) block is formatted column-wise and written alone.
    """
    freqs = [repr(f) for f in np.asarray(spec.freqs_hz, dtype=float).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("tau,mu,omega_hz,re,im,abs\r\n")
        for k, tau in enumerate(spec.taus):
            for i, m in enumerate(spec.mu):
                z = spec.data[k, i]
                head = f"{float(tau)!r},{int(m)},"
                cols = (map(repr, c.tolist()) for c in (z.real, z.imag, np.hypot(z.real, z.imag)))
                rows = ("\r\n" + head).join(map(",".join, zip(freqs, *cols)))
                if rows:
                    fh.write(head + rows + "\r\n")
