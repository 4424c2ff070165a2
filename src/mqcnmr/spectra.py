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


# Byte budget of one chunk of the pair kernel's (classes x n_t) time series E.
PAIR_CHUNK_BYTES = 4 << 20


def pair_chunk_rows(eig: EigenSystem, n_t: int) -> int:
    """Pair classes per chunk of ``pair_order_sums``: the rows of E that fit
    PAIR_CHUNK_BYTES, capped by half the ordered pairs of order 0 (the sum of
    C_m^2 / 2 over the C_m states of each total m), which from N = 3 on no
    |nu| exceeds in classes."""
    counts = np.unique(eig.m, return_counts=True)[1]
    return int(min(max(1, PAIR_CHUNK_BYTES // (16 * n_t)), np.sum(counts ** 2) // 2))


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


def free_phases(eig: EigenSystem, ts: np.ndarray) -> np.ndarray:
    """Free-evolution phases p[j, a] = exp(-i S_zz zeta_a t_j), shape (n_t, dim)."""
    return np.exp(-1j * eig.order_parameter * np.outer(ts, eig.zeta))


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


def pair_order_sums(weights: np.ndarray, eig: EigenSystem, n_spins: int,
                    ts: np.ndarray, taus: np.ndarray, time_factors=None,
                    g_irreversible=None) -> np.ndarray:
    """c[tau, nu + N, t] = sum over pairs of order nu of W[tau, pair] E[pair, t].

    Pair (a, b) has order nu = m_b - m_a, gap g = zeta_b - zeta_a and
    W = weights[(tau,) a, b] G^R(g, tau), E = ``time_factors(gaps, ts)`` on
    uniform ts, the rows of E for a 1D array of gaps: exp(-i S_zz g t) G^T(g, t)
    (the phase alone when None).  G^R None means 1; it is called with the gaps
    as a row and the taus as a column.  ``weights`` is (dim, dim), the same for
    every tau, or (n_tau, dim, dim).

    Without G factors E = p_b conj(p_a) factorises (``free_phases``): for each
    slab, one GEMM per total-m row block, in O(n_t 2^N) working memory plus a
    copy of the block's rows of that slab.  With G^T or G^R, E and G^R depend
    on the gap alone, and G^T(-g, t) = conj(G^T(g, t)), G^R is real and even
    in g.  So the pair, its mirror (b, a) (order -nu, E conj), its spin-flip
    image (a', b') (order -nu, the same E; ``_spin_flip_images``) and the
    image's mirror (order nu, E conj) form one class, whose members each count
    once.  The flip negates m_a + m_b, so each class nonzero in any member is
    taken from its unordered pair {a, b} of m_a + m_b >= 0 (on a tie, the one
    of the smaller index a dim + b, a <= b), led by the member of order |nu|,
    and the classes are sorted by |nu| and cut into chunks of at most
    PAIR_CHUNK_BYTES of E.  Each chunk builds E and G^R once per class and
    runs one GEMM on the stacked weights [W_ab ; conj(W_b'a') ; W_a'b' ;
    conj(W_ba)] G^R: the first two rows (the second conjugated after the GEMM)
    go into nu, the last two into -nu.  At nu = 0 the image has the pair's
    order and gap, so its weights are added onto the pair's own.
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
    if time_factors is None and g_irreversible is None:
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
    image = _spin_flip_images(eig)
    nonzero = np.any(w, axis=0)
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
            e = (_uniform_exp(-1j * eig.order_parameter * gap, ts) if time_factors is None
                 else time_factors(gap, ts))
            parts = [w[:, p, q], (w[:, iq, ip] * (off & dk)).conj(), w[:, ip, iq] * dk,
                     (w[:, q, p] * off).conj()]
            if order == 0:
                parts = [parts[0] + parts[2], parts[1] + parts[3]]
            if g_irreversible is not None:
                parts = np.stack(parts) * g_irreversible(gap[None], taus[:, None])
            prod = (np.reshape(parts, (-1, k.size)) @ e).reshape(len(parts), -1, ts.size)
            for sign, (direct, conjugated) in zip((1, -1), zip(prod[::2], prod[1::2])):
                c[:, n_spins + sign * order] += direct + conjugated.conj()
            del parts, e  # before the next chunk builds its own
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
