"""Coherence-order-resolved spectra from signal grids.

The 2D discrete transform maps the signal S(phi, t) to a spectrum over
(mu, omega): the phi transform uses the convention that a component
exp(+i nu phi) lands at bin mu = nu, and the t transform maps
exp(+2 pi i f t) to +f.  Frequencies are reported in Hz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MqcnmrError, UnsupportedGridError
from .hamiltonian import EigenSystem
from .operators import SpinRegister, collective_angular_momentum, rotation


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
    cache_stats: dict = field(default_factory=dict)

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
            raise MqcnmrError(f"coherence order {mu} outside range [{self.mu[0]}, {self.mu[-1]}]")
        return int(idx[0])

    def order(self, mu: int) -> np.ndarray:
        """Spectra of one coherence order, shape (n_tau, n_freq)."""
        return self.data[:, self.order_index(mu), :]

    def band(self, limit_hz: float) -> "CoherenceSpectrum":
        """Restrict the frequency axis to |f| <= limit_hz (display helper)."""
        keep = np.abs(self.freqs_hz) <= limit_hz
        return CoherenceSpectrum(
            data=self.data[:, :, keep], mu=self.mu, freqs_hz=self.freqs_hz[keep],
            taus=self.taus, meta={**self.meta, "band_hz": limit_hz})


def fft2_coherence(grid: SignalGrid, apodization: np.ndarray | None = None,
                   zero_pad: int = 1) -> CoherenceSpectrum:
    """Transform a signal grid into per-tau coherence spectra.

    The phi axis is transformed first (normalized by n_phi so that a pure
    exp(i nu phi) input has unit weight at mu = nu), then the t axis.

    Args:
        apodization: optional window of length n_t multiplied into the t
            axis before transforming (default none).
        zero_pad: integer t-axis padding factor for display interpolation;
            analysis should run on the unpadded bins (factor 1).
    """
    data = grid.data
    if apodization is not None:
        apodization = np.asarray(apodization, dtype=float)
        if apodization.shape != (grid.n_t,):
            raise UnsupportedGridError(
                f"apodization length {apodization.shape} does not match n_t = {grid.n_t}")
        data = data * apodization[None, :, None]
    if zero_pad < 1 or int(zero_pad) != zero_pad:
        raise MqcnmrError(f"zero_pad must be a positive integer, got {zero_pad}")

    c = np.fft.fftshift(np.fft.fft(data, axis=0), axes=0) / grid.n_phi
    n_freq = grid.n_t * int(zero_pad)
    spec = np.fft.fftshift(np.fft.fft(c, n=n_freq, axis=1), axes=1)
    spec = np.moveaxis(spec, 2, 0)  # -> (n_tau, n_mu, n_freq)

    mu = np.arange(-(grid.n_phi // 2), grid.n_phi - grid.n_phi // 2)
    freqs = np.fft.fftshift(np.fft.fftfreq(n_freq, grid.dt))
    return CoherenceSpectrum(data=spec, mu=mu, freqs_hz=freqs, taus=grid.taus,
                             meta={**grid.metadata(), "zero_pad": int(zero_pad)})


def detection_matrix(eig: EigenSystem, reg: SpinRegister,
                     t_m: float, window: float) -> np.ndarray:
    """Window-averaged detection weights in the H eigenbasis.

    Element (a, b) is the acquisition-averaged trace weight multiplying
    density element (b, a) in the complex transverse signal, with the read
    pulse R_y(pi/4) folded in.  The window average is analytic (sinc).
    """
    v = eig.vectors
    ix = collective_angular_momentum(reg, "x").entries
    iy = collective_angular_momentum(reg, "y").entries
    ip_e = v.conj().T @ (ix + 1j * iy) @ v
    omega = eig.order_parameter * eig.gaps()
    win = np.exp(1j * omega * t_m) * np.sinc(omega * window / (2.0 * np.pi))
    ry_e = v.conj().T @ rotation(reg, np.pi / 4, "y").entries @ v
    return ry_e.conj().T @ (ip_e * win) @ ry_e


def g_coefficients(eig: EigenSystem, reg: SpinRegister, component: np.ndarray,
                   t_m: float, window: float, axis: str = "x",
                   n_quad: int = 129) -> complex:
    """Average signal weight of one coherence-block component.

    Evaluates tr{I_alpha U(t') R_y(pi/4) C R_y(-pi/4) U(t')^dagger} and
    averages it over the acquisition window by trapezoid quadrature on
    ``n_quad`` points (window = 0 gives the point value at t_m).
    """
    if axis not in ("x", "y"):
        raise MqcnmrError(f"axis must be x or y, got {axis!r}")
    i_alpha = collective_angular_momentum(reg, axis).entries
    ry = rotation(reg, np.pi / 4, "y").entries
    c_rot = ry @ np.asarray(component, dtype=complex) @ ry.conj().T
    v = eig.vectors
    c_eig = v.conj().T @ c_rot @ v
    i_eig = v.conj().T @ i_alpha @ v
    phases = eig.order_parameter * eig.zeta

    def value(tp):
        u = np.exp(-1j * phases * tp)
        evolved = (u[:, None] * c_eig) * u.conj()[None, :]
        return np.trace(i_eig @ evolved)

    if window == 0.0:
        return complex(value(t_m))
    tps = np.linspace(t_m - window / 2.0, t_m + window / 2.0, n_quad)
    vals = np.array([value(tp) for tp in tps])
    return complex(np.trapezoid(vals, tps) / window)


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


def pair_order_sums(weights: np.ndarray, eig: EigenSystem, n_spins: int,
                    ts: np.ndarray, taus: np.ndarray, g_reversible=None,
                    g_irreversible=None) -> np.ndarray:
    """c[tau, nu + N, t] = sum over pairs of order nu of W[tau, pair] E[pair, t].

    Pair (a, b) has order nu = m_b - m_a, gap g = zeta_b - zeta_a and
    W = weights[a, b] G^R(g, tau), E = exp(-i S_zz g t) G^T(g, t) on uniform
    ts (G None means 1; G^R takes one tau).  Nonzero pairs, sorted stably by
    order, are cut into chunks of at most PAIR_CHUNK_BYTES of E and added
    into c in order, one GEMM (on the BLAS threads) per chunk.
    """
    ts, taus = np.asarray(ts, dtype=float), np.asarray(taus, dtype=float)
    if ts.size < 2 or not np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9, atol=0.0):
        raise UnsupportedGridError("eigenpair sums need at least 2 uniformly spaced times")
    w, nu = np.asarray(weights).ravel(), -eig.coherence_orders().ravel()
    keep = np.flatnonzero(w)
    keep = keep[np.argsort(nu[keep], kind="stable")]
    w, nu, gap = w[keep], nu[keep], -eig.gaps().ravel()[keep]
    rows = pair_chunk_rows(eig, ts.size)
    bounds = np.searchsorted(nu, np.arange(-n_spins, n_spins + 2))
    c = np.zeros((taus.size, 2 * n_spins + 1, ts.size), dtype=complex)
    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        for lo in range(start, end, rows):
            hi = min(lo + rows, end)
            g = gap[lo:hi]
            e = _uniform_exp(-1j * eig.order_parameter * g, ts)
            if g_reversible is not None:
                e *= g_reversible(g[:, None], ts[None, :])
            c[:, i] += np.stack([w[lo:hi] * (1.0 if g_irreversible is None
                                             else g_irreversible(g, tau)) for tau in taus]) @ e
    return c


def spectral_assembly(state_eig: np.ndarray, eig: EigenSystem, reg: SpinRegister,
                      ts: np.ndarray, t_m: float, window: float,
                      g_reversible=None, g_irreversible=None,
                      taus: np.ndarray | None = None,
                      n_molecules: int = 1) -> CoherenceSpectrum:
    """Assemble coherence spectra directly from eigenbasis matrix elements.

    The t transform of the order sums of ``pair_order_sums`` on the t grid
    of the time-domain route.  With G == 1 this reproduces
    ``fft2_coherence(run_grid(...))`` exactly (up to rounding); with
    decoherence factors it realizes the shifted-copy superposition.

    Args:
        state_eig: prepared reduced state at t_p+ in the H eigenbasis.
        g_reversible: callable (dzeta, t) -> complex factor, or None for 1.
        g_irreversible: callable (dzeta, tau) -> real factor, or None for 1.
    """
    ts = np.asarray(ts, dtype=float)
    taus = np.asarray([0.0] if taus is None else taus, dtype=float)
    det = detection_matrix(eig, reg, t_m, window)
    sums = pair_order_sums(det * state_eig.T, eig, reg.n_spins, ts, taus,
                           g_reversible, g_irreversible)
    data = n_molecules * np.fft.fftshift(np.fft.fft(sums, axis=2), axes=2)
    freqs = np.fft.fftshift(np.fft.fftfreq(ts.size, float(ts[1] - ts[0])))
    return CoherenceSpectrum(data=data, mu=np.arange(-reg.n_spins, reg.n_spins + 1),
                             freqs_hz=freqs, taus=taus,
                             meta={"route": "eigenbasis-assembly", "t_m": t_m,
                                   "window": window})


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
