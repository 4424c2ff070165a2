"""Coherence-order-resolved spectra from signal grids.

The 2D discrete transform maps the signal S(phi, t) to a spectrum over
(mu, omega): the phi transform uses the convention that a component
exp(+i nu phi) lands at bin mu = nu, and the t transform maps
exp(+2 pi i f t) to +f.  Frequencies are reported in Hz.
"""

from __future__ import annotations

import os
import shutil
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _csvrows
from .errors import ConfigError, MqcnmrError, UnsupportedGridError
from .hamiltonian import EigenSystem
from .operators import kron_conjugate, rotation_halves

# about 75 ms of float repr, against about 11 ms to start a helper (2-vCPU x86 host)
CSV_VALUES_PER_PROCESS = 100_000


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


def detection_matrix(eig: EigenSystem, t_m: float, window: float) -> np.ndarray:
    """Window-averaged detection weights in the H eigenbasis.

    Element (a, b) is the acquisition-averaged trace weight multiplying
    density element (b, a) in the complex transverse signal, with the read
    pulse R = R_y(pi/4) folded in: V^dagger R^dagger V (I_+ * win) V^dagger R V.
    The window average is analytic: win = exp(i w t_m) sinc(w window / 2 pi)
    on each gap w of I_+'s (m + 1, m) blocks (``EigenSystem.i_plus_product``);
    R^dagger's Kronecker halves and the basis change back act on the dense
    matrix.
    """
    def win(omega):
        return np.exp(1j * omega * t_m) * np.sinc(omega * window / (2.0 * np.pi))

    return eig.to_eigen(kron_conjugate(rotation_halves(eig.reg, -np.pi / 4, np.pi / 2),
                                       eig.i_plus_product(win)))


def spectrum_to_csv(spec: CoherenceSpectrum, path) -> None:
    """Write a spectrum as CSV rows (tau, mu, omega_hz, re, im, abs).

    Floats are shortest round-trip ``repr``s, abs is ``hypot(re, im)`` and rows
    end in CRLF.  The (tau, mu) blocks are split into contiguous runs, one per
    process: one process per CSV_VALUES_PER_PROCESS values written, at most
    one per block and per CPU this process may use (``_allowed_cpus``).  This
    process formats the first run straight into ``path``.  Each later run is
    written as raw float64 to a share file and read, one block at a time, by
    a helper interpreter that runs ``_csvrows.py`` (standard library only: no
    package import, no numpy) and writes the rows to a part file; the parts
    are then appended to ``path`` in order and removed.  Every block, here or
    in a helper, is formatted by ``_csvrows.write_blocks``, ROWS_PER_WRITE
    rows at a time, so the bytes do not depend on the number of processes,
    and each process holds the frequency strings, one block's columns and
    one slice of rows at a time (``csv_values``).  A helper that cannot be
    started has its share formatted here.  A helper that fails raises
    MqcnmrError with its exit status and the end of its stderr; on any error
    every helper is killed and reaped and every share and part file removed.
    """
    freqs = [repr(f) for f in np.asarray(spec.freqs_hz, dtype=float).tolist()]
    heads = [f"{float(tau)!r},{int(m)}," for tau in spec.taus for m in spec.mu]
    n_mu = len(spec.mu)

    def columns(b):
        z = spec.data[divmod(b, n_mu)]
        return z.real, z.imag, np.hypot(z.real, z.imag)

    def blocks(start, stop):
        return ((heads[b], *columns(b)) for b in range(start, stop))

    n_proc = max(1, min(_allowed_cpus(), len(heads),
                        3 * spec.data.size // CSV_VALUES_PER_PROCESS))
    bounds = [len(heads) * j // n_proc for j in range(n_proc + 1)]
    with ExitStack() as stack:
        shares = []
        for j in range(1, n_proc):
            part, share = f"{path}.part{j}", f"{path}.share{j}"
            stack.callback(Path(part).unlink, missing_ok=True)
            stack.callback(Path(share).unlink, missing_ok=True)
            with open(share, "wb") as out:
                _csvrows.send_share(out, heads[bounds[j]:bounds[j + 1]], freqs,
                                    (np.stack(columns(b), dtype=float)
                                     for b in range(bounds[j], bounds[j + 1])))
            shares.append((part, bounds[j], bounds[j + 1], _start_helper(stack, part, share)))
        with open(path, "w", newline="") as fh:
            fh.write("tau,mu,omega_hz,re,im,abs\r\n")
            _csvrows.write_blocks(fh, freqs, blocks(0, bounds[1]))
        for part, start, stop, proc in shares:
            if proc is None:
                with open(part, "w", newline="") as fh:
                    _csvrows.write_blocks(fh, freqs, blocks(start, stop))
            else:
                _reap(proc, start, stop)
        with open(path, "ab") as out:
            for part, *_ in shares:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)


def csv_values(n_freq: int) -> int:
    """Complex values that each process of ``spectrum_to_csv`` holds beside
    the spectrum, for blocks of ``n_freq`` rows: the frequency strings with
    their list, at most 88 bytes each, one block's columns and abs as
    float64, 32 bytes a row, and one slice of at most ROWS_PER_WRITE rows
    with their floats, reprs and text, at most 640 bytes a row."""
    return (120 * n_freq + 640 * min(n_freq, _csvrows.ROWS_PER_WRITE)) // 16


def _allowed_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _start_helper(stack: ExitStack, part: str, share: str):
    """A ``_csvrows.py`` interpreter that reads the share file ``share`` and
    writes its rows to ``part``, killed if still running and then reaped
    when ``stack`` closes; None when it cannot be started."""
    import subprocess

    try:
        with open(share, "rb") as src:
            proc = subprocess.Popen([sys.executable, "-I", "-S", _csvrows.__file__, part],
                                    stdin=src, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE)
    except OSError:
        return None
    stack.enter_context(proc)  # on exit: close its pipe, then wait
    stack.callback(lambda: proc.poll() is None and proc.kill())
    return proc


def _reap(proc, start: int, stop: int) -> None:
    """Wait for a helper; MqcnmrError with its status and the end of its
    stderr when it failed."""
    err = proc.stderr.read()
    if proc.wait():
        raise MqcnmrError(
            f"the CSV helper for (tau, mu) blocks {start} to {stop - 1} exited with status "
            f"{proc.returncode}: {err[-2000:].decode(errors='replace').strip()}")
