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


def free_phases(eig: EigenSystem, ts: np.ndarray) -> np.ndarray:
    """Free-evolution phases p[j, a] = exp(-i S_zz zeta_a t_j), shape (n_t, dim)."""
    return np.exp(-1j * eig.order_parameter * np.outer(ts, eig.zeta))


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
