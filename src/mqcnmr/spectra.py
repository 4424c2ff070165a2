"""Coherence-order-resolved spectra from signal grids.

The 2D discrete transform maps the signal S(phi, t) to a spectrum over
(mu, omega): the phi transform uses the convention that a component
exp(+i nu phi) lands at bin mu = nu, and the t transform maps
exp(+2 pi i f t) to +f.  Frequencies are reported in Hz.

``spectrum_to_csv`` exports a spectrum as CSV text whose floats are their
shortest round-trip ``repr``s: the key columns by ``repr`` itself, the values
a whole array at a time by a numpy port of Ryu's shortest-digit search
(``_shortest``, ``_Reprs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MqcnmrError, UnsupportedGridError
from .hamiltonian import EigenSystem
from .operators import kron_conjugate, rotation_halves

# CSV rows formatted at once, fewer for a small spectrum (_slice_rows)
ROWS_PER_WRITE = 4096


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


def check_increasing(values, what: str) -> np.ndarray:
    """The axis ``values`` as an array, refused by name (``what``) unless non-empty
    and strictly increasing: the fit cuts each order at frequencies, along tau."""
    axis = np.asarray(values)
    if axis.size == 0 or np.any(axis[1:] <= axis[:-1]):
        raise ConfigError(f"{what} must be non-empty and strictly increasing, got "
                          f"{np.array2string(axis, separator=', ', threshold=6)}")
    return axis


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
    end in CRLF.  The tau, mu and frequency strings are ``repr``'s, made once
    (``_keys``); re, im and abs are formatted by a vectorised kernel
    (``_Reprs``) that gives ``repr``'s bytes for a whole array at once, with
    ``repr`` itself as the fallback for the few values outside its path.
    The rows are built a slice at a time (``_slice_rows``) in one uint8
    array, with each field in fixed-width slots and NUL wherever no
    character goes, and written with the NULs dropped.  So the writer holds
    the key strings and one slice of rows at a time (``csv_values``).
    """
    step = _slice_rows(spec.data.size, spec.meta.get("zero_pad"))
    heads = [_keys(spec.taus, float), _keys(spec.mu, int), _keys(spec.freqs_hz, float)]
    with open(path, "wb") as fh:
        fh.write(b"tau,mu,omega_hz,re,im,abs\r\n")
        for lo in range(0, spec.data.size, step):
            _write_text(fh, _csv_rows(spec.data, heads, lo, min(lo + step, spec.data.size)))


def _keys(values, kind) -> np.ndarray:
    """``repr(kind(v)) + ","`` for each v of a 1-D array, as contiguous uint8
    rows of 25 bytes (a float's repr is at most 24 long), with NUL wherever
    no character goes."""
    keys = np.fromiter((repr(kind(v)) + "," for v in values), dtype="S25", count=len(values))
    return keys.view(np.uint8).reshape(keys.size, 25)


def _write_text(fh, text: np.ndarray) -> None:
    """Write uint8 rows of text without their NULs, a quarter of
    ROWS_PER_WRITE rows at a time."""
    for lo in range(0, len(text), ROWS_PER_WRITE // 4):
        flat = text[lo:lo + ROWS_PER_WRITE // 4].ravel()
        fh.write(flat[flat != 0])


# bytes a row of a slice takes at most while it is formatted: its values,
# their work arrays and fallback strings, its text, and the NUL mask and the
# NUL-free copy of a quarter of the text
_ROW_BYTES = 576


def _slice_rows(n_rows: int, zero_pad: int | None) -> int:
    """Rows formatted at once: ROWS_PER_WRITE, or fewer, 64 at least, so that
    a small spectrum's writer holds no more than its transform did: the
    spectrum of ``n_rows`` values (16 bytes each) and, when it came from
    ``fft2_coherence`` at ``zero_pad``, the n_rows / zero_pad signals."""
    held = 16 * n_rows * (1 + 1 / zero_pad if zero_pad else 1)
    return min(ROWS_PER_WRITE, max(64, int(held) // _ROW_BYTES))


def csv_values(shape, zero_pad: int) -> int:
    """Complex values that ``spectrum_to_csv`` holds beside a spectrum of
    ``shape`` (n_tau, n_mu, n_freq) from ``fft2_coherence`` at ``zero_pad``:
    the tau, mu and frequency strings, 25 bytes each (``_keys``), and one
    slice of rows (``_slice_rows``), at most _ROW_BYTES a row."""
    n_tau, n_mu, n_freq = shape
    rows = _slice_rows(n_tau * n_mu * n_freq, zero_pad)
    return (25 * (n_tau + n_mu + n_freq) + _ROW_BYTES * rows) // 16


def _csv_rows(data: np.ndarray, heads: list, lo: int, hi: int) -> np.ndarray:
    """Rows lo to hi of a spectrum's CSV, in (tau, mu, freq) order, as uint8
    rows with NUL wherever no character goes: the tau, mu and frequency
    strings (``heads``, indexed by each), re, im and abs."""
    block, j = np.divmod(np.arange(lo, hi), data.shape[2])
    k, i = np.divmod(block, data.shape[1])
    z = data[k, i, j]
    values = _Reprs(np.stack([z.real, z.imag, np.hypot(z.real, z.imag)], axis=1))
    del z, block
    head = sum(h.shape[1] for h in heads)
    rows = np.empty((j.size, head + 3 * (values.width + 1) + 1), dtype=np.uint8)
    np.concatenate([h.take(index, axis=0) for h, index in zip(heads, (k, i, j))], axis=1,
                   out=rows[:, :head])
    del k, i, j  # before the values are written
    cells = rows[:, head:-1].reshape(len(rows), 3, values.width + 1)
    values.write(cells[..., :-1])
    cells[..., -1] = ord(",")
    cells[:, 2, -1] = ord("\r")
    rows[:, -1] = ord("\n")
    return rows


# Ryu's d2s (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018)
# for binary exponents e2 < -4, vectorised in numpy: its constants are
# indexed by a float64's biased exponent E, and all digit arithmetic stays in
# uint64 (a uint64 array combined with an int64 one gives float64 and drops
# bits).  The layout's ASCII words assume a little-endian host.
_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_HALF = np.array([1] + [5 * 10 ** (k - 1) for k in range(1, 20)], dtype=np.uint64)


def _ryu_tables():
    """Constants per biased exponent E of a float64, from Python ints.

    With e2 = E - 1077 < 0 (subnormals share E = 1's constants), q =
    floor(log10 5^-e2) - (-e2 > 1), i = -e2 - q, Ryu's table entry T for 5^i
    (its top 125 bits, or 5^i shifted up to 125 bits) and Ryu's shift j
    (118 to 121), a float of mantissa m2 has its interval ends and itself,
    in units of 10^(q + e2), at floor((4 m2 + {-2, 0, 2}) P / 2^128) with
    P = T 2^(128 - j) < 2^135.  Returned: P's low 128 bits as four 32-bit
    halves; P's top word, words 1 and 2 of 2P and the mask of q low bits;
    and q + e2.  Index 1073 stands for every E from 1073 up, where the path
    does not hold (e2 >= -4, and the NaN and infinity exponent): its mask is
    zero.
    """
    e = np.arange(1, 1073)
    q = ((1077 - e) * 732923 >> 20) - 1
    i = 1077 - e - q
    k = (i * 1217359 >> 19) + 1 - 125  # the bit length of 5^i, less 125
    blob = b"".join(
        ((5 ** a >> b if b >= 0 else 5 ** a << -b) << 128 - c + b).to_bytes(24, "little")
        for a, b, c in zip(i.tolist(), k.tolist(), q.tolist()))
    p = np.frombuffer(blob, dtype=np.uint64).reshape(-1, 3).T  # P's three words
    halves = np.zeros((4, 1074), dtype=np.uint64)
    halves[:, 1:1073] = np.frombuffer(blob, dtype=np.uint32).reshape(-1, 6)[:, :4].T
    words = np.zeros((4, 1074), dtype=np.uint64)
    words[:, 1:1073] = [p[2], p[1] << _U(1) | p[0] >> _U(63), p[2] << _U(1) | p[1] >> _U(63),
                        (_U(1) << np.minimum(q, 63).astype(np.uint64)) - _U(1)]
    exp10 = np.zeros(1074, dtype=np.int16)
    exp10[1:1073] = q + e - 1077
    halves[:, 0], words[:, 0], exp10[0] = halves[:, 1], words[:, 1], exp10[1]
    return halves, words, exp10


_RYU_HALVES, _RYU_WORDS, _RYU_EXP10 = _ryu_tables()


def _mul64(ml, mh, pl, ph):
    """The high and low words of (mh 2^32 + ml)(ph 2^32 + pl), for mh < 2^23
    and the other halves below 2^32, all uint64."""
    lo = ml * pl
    mid = lo >> _U(32)
    lo &= _LOW32
    hi = ml * ph
    mid += hi & _LOW32
    hi >>= _U(32)
    mid += mh * pl
    hi += mh * ph
    hi += mid >> _U(32)
    mid <<= _U(32)
    lo |= mid
    return hi, lo


def _shortest(values: np.ndarray):
    """(digits, exp10, ok) for a 1-D float64 array: wherever ``ok``, |value| =
    digits 10^exp10 is the shortest decimal that reads back as the value
    and, of those, the closest to it (a tie to an even last digit), as
    ``repr`` gives it.

    The interval ends vm, vp and the value vr, in units of 10^exp10 before
    any digit is dropped, come from 64 x 135-bit products (``_ryu_tables``)
    built from 32-bit halves.  The number r of dropped digits is the largest
    with vp // 10^r > vm // 10^r, found by a binary search (16, 8, 4, 2 and
    1 more digits) with scalar divisors.  The digits are vr // 10^r, plus one
    when that equals vm // 10^r (outside the interval) or the dropped part
    is over a half, or a half of an exact vr with an odd last digit.  ok is
    False, and ``repr`` formats the value, for +-0, NaN, +-inf,
    |value| >= 2^50, the powers of two but 2^-1022 (an uneven interval), and
    the one-in-2^64 values whose interval ends depend on the products'
    lowest word, which is not worked out.
    """
    bits = values.view(np.uint64)
    row = (bits >> _U(52) & _U(0x7FF)).astype(np.intp)
    mv = bits & _U((1 << 52) - 1)
    ok = (mv != 0) | (row == 1)  # neither 0 nor a power of two (an uneven interval)
    mv |= (row > 0) * _U(1 << 52)
    mv <<= _U(2)  # 4 m2
    np.minimum(row, 1073, out=row)
    low = _RYU_WORDS[3].take(row)
    ok &= low != 0
    exact = (mv & low) == 0  # 4 m2 a multiple of 2^q: vr is the value itself
    del low
    ml, mh = mv & _LOW32, mv >> _U(32)
    x1 = _mul64(ml, mh, _RYU_HALVES[0].take(row), _RYU_HALVES[1].take(row))[0]
    h1, l1 = _mul64(ml, mh, _RYU_HALVES[2].take(row), _RYU_HALVES[3].take(row))
    del ml, mh
    x1 += l1  # word 1 of 4 m2 P; word 0 is not worked out
    vr = np.multiply(mv, _RYU_WORDS[0].take(row), out=mv)
    vr += h1
    vr += x1 < l1
    del h1, l1
    y = _RYU_WORDS[1].take(row)
    ok &= x1 != y  # else the borrow of 4 m2 P - 2P from word 1 needs word 0
    vm = x1 < y
    y += x1
    ok &= y != _U(2 ** 64 - 1)  # else so does the carry of 4 m2 P + 2P
    vp = y < x1
    del x1
    np.take(_RYU_WORDS[2], row, out=y)
    vp = vr + y + vp
    vm = vr - y - vm
    del y
    r = np.zeros(values.shape, dtype=np.int16)
    digits = vr.copy()
    # in most arrays no value drops 8 digits, nor so 16: those steps are skipped
    eight = (vp // _POW10[8] > vm // _POW10[8]).any()
    for step in (16, 8, 4, 2, 1) if eight else (4, 2, 1):
        scale = _POW10[step]
        vp_s, vm_s = vp // scale, vm // scale
        drop = vp_s > vm_s
        np.copyto(vp, vp_s, where=drop)
        np.copyto(vm, vm_s, where=drop)
        np.copyto(digits, digits // scale, where=drop)
        np.add(r, step, out=r, where=drop)
    rest = vr - digits * _POW10.take(r)
    half = _HALF.take(r)
    digits += (digits == vm) | (rest > half) | ((rest == half) & ~(exact & (digits & _U(1) == 0)))
    return digits, _RYU_EXP10.take(row) + r, ok


def _digit_count(digits: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each entry (1 to 17) of a uint64 array
    below 10^17: a float log10, corrected at the powers of ten."""
    n = np.log10(np.maximum(digits, _U(1)).astype(float)).astype(np.int16)
    n += 1
    np.minimum(n, 17, out=n)  # 0 and values outside _shortest's path
    n += digits >= _POW10.take(n)
    n -= digits < _POW10.take(n - 1)
    return n


def _ascii8(x: np.ndarray, word: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Into ``word``: the 8 decimal digits of each x < 10^8, zero-padded, as
    ASCII bytes in one uint64, the most significant first in memory
    (little-endian).  x is split into lanes of 4 digits, each into lanes of
    2, then 1, within the word.  x and ``tmp``, uint64 arrays of x's shape,
    are overwritten."""
    np.floor_divide(x, _U(10000), out=word)
    x -= np.multiply(word, _U(10000), out=tmp)
    x <<= _U(32)
    word |= x
    for times, shift, mask, base, lane in ((10486, 20, 0x0000007F0000007F, 100, 16),
                                           (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(word, _U(times), out=tmp)  # lane * times >> shift: lane // base
        tmp >>= _U(shift)
        tmp &= _U(mask)
        word -= np.multiply(tmp, _U(base), out=x)
        word <<= _U(lane)
        word |= tmp
    word |= _U(0x3030303030303030)
    return word


# _KEEP[z] clears the first z bytes in memory of a little-endian word
_KEEP = np.array([(2 ** 64 - 1) << 8 * z & 2 ** 64 - 1 for z in range(9)], dtype=np.uint64)
_EXP_BIAS = 400
# "e-05" and so on, right-aligned in a little-endian word; index 0 is empty
_EXPONENTS = np.array([0] + [int.from_bytes(f"e{x:+03d}".encode().rjust(8, b"\0"), "little")
                             for x in range(1 - _EXP_BIAS, _EXP_BIAS)], dtype=np.uint64)


def _write_digits(slots: np.ndarray, x: np.ndarray, keep: np.ndarray) -> None:
    """Fill ``slots``, uint8 (x's shape..., width), with the decimal digits of
    each x < 10^width, zero-padded to ``keep`` digits and right-aligned, NUL
    before them: 8 digits at a time, from the right.  x is overwritten."""
    width = slots.shape[-1]
    skip = width - keep
    word, tmp = np.empty_like(x), np.empty_like(x)
    bytes_ = word.view(np.uint8).reshape(x.shape + (8,))
    for end in range(width, 0, -8):
        head = None
        if end > 8:
            head = x // _U(10 ** 8)
            x -= np.multiply(head, _U(10 ** 8), out=tmp)
        _ascii8(x, word, tmp)
        x = head
        word &= np.take(_KEEP, np.minimum(np.maximum(skip - (end - 8), 0), 8), out=tmp)
        start = max(end - 8, 0)
        slots[..., start:end] = bytes_[..., 8 - end + start:]


class _Reprs:
    """The ``repr`` of each float of an array, laid out for ``write``.

    The digits come from ``_shortest`` and are laid out as ``repr`` lays them
    out.  With the value 0.d1...dn 10^p: scientific notation d.ddde+-XX
    (two exponent digits at least) when p <= -4 or p > 16, and otherwise
    0.000ddd, dd.ddd or ddd000.0.  ``write`` fills ``width`` slots per value
    with five fields, each right-aligned in slots as wide as the array
    needs, and NUL wherever no character goes: the sign, the integer digits,
    the point, the fraction digits and the exponent.  A value that
    ``_shortest`` leaves out is formatted by ``repr`` and written
    left-aligned in its slots.
    """

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=float)
        digits, exp10, ok = (a.reshape(values.shape) for a in _shortest(values.ravel()))
        n = _digit_count(digits)
        point = exp10 + n
        sci = (point < -3) | (point > 16)
        split = _POW10.take(np.where(sci, n - 1, np.minimum(np.maximum(n - point, 0), n)))
        self.whole = digits // split
        self.frac = digits - self.whole * split
        tens = ~sci & (point > n)
        if tens.any():
            self.whole[tens] *= _POW10.take((point - n)[tens])
        self.n_frac = np.where(sci, n - 1, np.where(point >= n, 1, n - point))
        self.n_whole = np.where(sci | (point <= 0), 1, point)
        self.fallback = np.nonzero(~ok)
        self.n_frac[self.fallback] = 0
        self.n_whole[self.fallback] = 1
        sci[self.fallback] = False
        reprs = np.fromiter((repr(float(v)) for v in values[self.fallback]), dtype="S24",
                            count=self.fallback[0].size)  # a float's repr is at most 24 long
        longest = np.count_nonzero(reprs.view(np.uint8).reshape(-1, 24).any(axis=0))
        self.reprs = reprs.astype(f"S{max(longest, 1)}")
        self.exponent = np.where(sci, point - 1 + _EXP_BIAS, 0)
        self.negative = (values.view(np.uint64) >> _U(63)).astype(np.uint8)
        self.w_whole, w_frac = int(self.n_whole.max(initial=1)), int(self.n_frac.max(initial=0))
        self.w_exp = 0 if not sci.any() else 4 if np.abs(point[sci] - 1).max() < 100 else 5
        self.width = max(2 + self.w_whole + w_frac + self.w_exp,
                         self.reprs.itemsize if self.reprs.size else 0)

    def write(self, cells: np.ndarray) -> None:
        """Fill ``cells``, uint8 shaped (values' shape..., width).  Once only:
        the digits are overwritten and let go as they are written."""
        w, e = self.w_whole, self.w_exp
        np.multiply(self.negative, ord("-"), out=cells[..., 0])
        np.multiply(self.n_frac > 0, ord("."), out=cells[..., 1 + w], casting="unsafe")
        if e:
            exp = _EXPONENTS.take(self.exponent)
            cells[..., self.width - e:] = exp.view(np.uint8).reshape(exp.shape + (8,))[..., 8 - e:]
        whole, self.whole = self.whole, None
        if w == 1:
            np.add(whole, ord("0"), out=cells[..., 1], casting="unsafe")
        else:
            _write_digits(cells[..., 1:1 + w], whole, self.n_whole)
        del whole
        frac, self.frac = self.frac, None
        if self.width > 2 + w + e:
            _write_digits(cells[..., 2 + w:self.width - e], frac, self.n_frac)
        del frac
        if self.reprs.size:
            n = self.reprs.itemsize
            cells[self.fallback + (slice(n, None),)] = 0
            cells[self.fallback + (slice(None, n),)] = self.reprs.view(np.uint8).reshape(-1, n)
