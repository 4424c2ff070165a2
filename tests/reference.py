"""Independent brute-force reference implementations for the tests.

Everything here is built from scratch with numpy Kronecker products and
scipy matrix exponentials, without reusing the package's operator or
propagation code, so agreement between the two is a meaningful check.
Events are plain tuples: ("pulse", angle, axis_phase) or
("free", duration, scale).
"""

import csv

import numpy as np
from scipy.linalg import expm

HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


def embed(n, site, axis):
    op = np.array([[1.0 + 0j]])
    for j in range(n):
        op = np.kron(op, HALF[axis] if j == site else np.eye(2))
    return op


def coll(n, axis):
    return sum(embed(n, j, axis) for j in range(n))


def rot(n, theta, chi):
    """exp(+i theta (cos(chi) I_x + sin(chi) I_y)) via scipy expm."""
    gen = np.cos(chi) * coll(n, "x") + np.sin(chi) * coll(n, "y")
    return expm(1j * theta * gen)


def rotz(n, phi):
    return expm(1j * phi * coll(n, "z"))


def t20_ref(n, j, k):
    izj, izk = embed(n, j, "z"), embed(n, k, "z")
    ipj = embed(n, j, "x") + 1j * embed(n, j, "y")
    imj = embed(n, j, "x") - 1j * embed(n, j, "y")
    ipk = embed(n, k, "x") + 1j * embed(n, k, "y")
    imk = embed(n, k, "x") - 1j * embed(n, k, "y")
    return (2.0 * izj @ izk - 0.5 * (ipj @ imk + imj @ ipk)) / np.sqrt(6.0)


def ham_ref(table_hz, s_zz):
    """Secular dipolar Hamiltonian in rad/s from a coupling table in Hz."""
    table = np.asarray(table_hz, dtype=float)
    n = table.shape[0]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            if table[j, k] != 0.0:
                h += np.sqrt(2.0 / 3.0) * 2.0 * np.pi * table[j, k] * t20_ref(n, j, k)
    return s_zz * h


def secular_sum_ref(table_hz, s_zz):
    """Secular Hamiltonian as a dense sum of ``t20_ref`` in the package's order.

    Pairs in ``j < k`` order, zero couplings skipped, each term
    ``sqrt(2/3) * (2 pi w_jk) * T20_jk`` and the S_zz factor last, so the
    floating-point association matches ``secular_hamiltonian`` term by term.
    """
    table = np.asarray(table_hz, dtype=float)
    n = table.shape[0]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            if table[j, k] != 0.0:
                h += np.sqrt(2.0 / 3.0) * (2.0 * np.pi * table[j, k]) * t20_ref(n, j, k)
    h *= s_zz
    return h


def propagator(eig, duration, scale=1.0):
    """Free-evolution propagator V diag(exp(-i scale S_zz zeta t)) V^dagger.

    scale = 1 is ordinary free evolution; scale = -1/2 is the effective
    burst of the idealized magic sandwich.  A non-finite duration raises
    the package's MqcnmrError.
    """
    if not np.isfinite(duration):
        from mqcnmr.errors import MqcnmrError
        raise MqcnmrError(f"duration must be finite, got {duration!r}")
    phases = np.exp(-1j * scale * eig.order_parameter * eig.zeta * duration)
    return (eig.vectors * phases) @ eig.vectors.conj().T


def spectrum_csv_rows(spec, path):
    """Per-row CSV writer: one ``csv.writer`` row per (tau, mu, omega) element."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "mu", "omega_hz", "re", "im", "abs"])
        for k, tau in enumerate(spec.taus):
            for i, m in enumerate(spec.mu):
                for j, f in enumerate(spec.freqs_hz):
                    z = spec.data[k, i, j]
                    writer.writerow([repr(float(tau)), int(m), repr(float(f)),
                                     repr(float(z.real)), repr(float(z.imag)),
                                     repr(float(abs(z)))])


def apply_events(n, h, rho, events):
    for ev in events:
        if ev[0] == "pulse":
            u = rot(n, ev[1], ev[2])
        elif ev[0] == "free":
            u = expm(-1j * ev[2] * h * ev[1])
        else:
            raise ValueError(f"unknown event {ev!r}")
        rho = u @ rho @ u.conj().T
    return rho


def mrev8_events(tau1, n_blocks=1):
    delays = (1, 1, 2, 1, 2, 1, 2, 1, 1)
    phases = (0.0, -np.pi / 2, np.pi / 2, np.pi, np.pi, -np.pi / 2, np.pi / 2, 0.0)
    cycle = [("free", delays[0] * tau1, 1.0)]
    for phase, delay in zip(phases, delays[1:]):
        cycle.append(("pulse", np.pi / 2, phase))
        cycle.append(("free", delay * tau1, 1.0))
    return cycle * n_blocks


def magic_sandwich_events(tau):
    return [("free", tau / 3.0, 1.0), ("free", 2.0 * tau / 3.0, -0.5)]


def windowed_signal(n, h, rho, t_m, window, n_quad=801):
    """Window-averaged tr((I_x + i I_y) rho(t')) by trapezoid quadrature."""
    ip = coll(n, "x") + 1j * coll(n, "y")
    if window == 0.0:
        u = expm(-1j * h * t_m)
        return complex(np.trace(ip @ u @ rho @ u.conj().T))
    tps = np.linspace(t_m - window / 2.0, t_m + window / 2.0, n_quad)
    vals = np.empty(n_quad, dtype=complex)
    for i, tp in enumerate(tps):
        u = expm(-1j * h * tp)
        vals[i] = np.trace(ip @ u @ rho @ u.conj().T)
    return complex(np.trapezoid(vals, tps) / window)


def brute_grid(table_hz, s_zz, t_p, phis, ts, taus, block_events, t_m, window,
               n_quad=801):
    """Full experiment grid by explicit matrix-chain propagation.

    block_events maps tau to an event list ([] for no block).  Returns a
    complex array indexed (phi, t, tau).  The receiver phase follows the
    read-pulse phase (factor exp(-i phi) on the raw transverse signal), so
    a coherence of order nu during encoding lands at Fourier index nu.
    """
    table = np.asarray(table_hz, dtype=float)
    n = table.shape[0]
    h = ham_ref(table, s_zz)
    prep = [("pulse", np.pi / 2, 0.0), ("free", t_p, 1.0), ("pulse", np.pi / 4, np.pi / 2)]
    rho0 = apply_events(n, h, coll(n, "z"), prep)
    out = np.empty((len(phis), len(ts), len(taus)), dtype=complex)
    for k, tau in enumerate(taus):
        rho_tau = apply_events(n, h, rho0, block_events(tau))
        for j, t in enumerate(ts):
            rho_t = apply_events(n, h, rho_tau, [("free", t, 1.0)])
            for i, phi in enumerate(phis):
                rho_read = apply_events(
                    n, h, rho_t, [("pulse", np.pi / 4, np.pi / 2 + phi)])
                raw = windowed_signal(n, h, rho_read, t_m, window, n_quad)
                out[i, j, k] = np.exp(-1j * phi) * raw
    return out


def first_maximum_t_m(table_hz, s_zz, t_p, dwell=1e-6, n_scan=256):
    """Default acquisition time by a dense per-point scan.

    Steps the prepared, read-pulsed state through the scan with a dense
    one-dwell propagator and returns the time of the first local maximum
    of |tr((I_x + i I_y) rho(t))| (0 when there is none).
    """
    table = np.asarray(table_hz, dtype=float)
    n = table.shape[0]
    h = ham_ref(table, s_zz)
    rho = apply_events(n, h, coll(n, "z"),
                       [("pulse", np.pi / 2, 0.0), ("free", t_p, 1.0),
                        ("pulse", np.pi / 4, np.pi / 2), ("pulse", np.pi / 4, np.pi / 2)])
    ip = coll(n, "x") + 1j * coll(n, "y")
    step = expm(-1j * h * dwell)
    mags = np.empty(n_scan)
    for i in range(n_scan):
        mags[i] = abs(np.trace(ip @ rho))
        rho = step @ rho @ step.conj().T
    for i in range(1, n_scan - 1):
        if mags[i] >= mags[i - 1] and mags[i] > mags[i + 1]:
            return i * dwell
    return 0.0


def order_sums_loop(det, sigma0, zeta, m, s_zz, ts, n):
    """Per-time-point coherence-order sums, one dense pass per t.

    c[j, nu + n] = sum over (a, b) with m_b - m_a = nu of
    det[a, b] sigma0[b, a] exp(-i s_zz (zeta_b - zeta_a) t_j).
    """
    nu = np.rint(m[None, :] - m[:, None]).astype(int) + n
    gap = zeta[None, :] - zeta[:, None]  # (a, b) -> zeta_b - zeta_a
    out = np.zeros((len(ts), 2 * n + 1), dtype=complex)
    for j, t in enumerate(ts):
        terms = det * sigma0.T * np.exp(-1j * s_zz * gap * t)
        for a in range(len(zeta)):
            for b in range(len(zeta)):
                out[j, nu[a, b]] += terms[a, b]
    return out


def open_order_sums_loop(det, state, zeta, m, s_zz, ts, taus, g_rev, g_irr, n):
    """Open-engine coherence-order sums c[k, nu + n, j], one dense pass per (tau, t).

    Term (a, b) is det[a, b] (state (elementwise) G^R(tau) G^T(t) phase)[b, a],
    where element (b, a) has gap zeta_b - zeta_a, phase
    exp(-i s_zz (zeta_b - zeta_a) t) and coherence order m_b - m_a; terms
    are summed per order with ``np.bincount``.  ``g_rev(gaps, t)`` and
    ``g_irr(gaps, tau)`` take the (a, b) -> zeta_a - zeta_b gap matrix.
    """
    n_orders = 2 * n + 1
    nu_labels = (np.rint(m[None, :] - m[:, None]).astype(int) + n).ravel()
    gaps = zeta[:, None] - zeta[None, :]
    out = np.zeros((len(taus), n_orders, len(ts)), dtype=complex)
    for k, tau in enumerate(taus):
        a_tau = state * g_irr(gaps, tau)
        for j, t in enumerate(ts):
            gt = np.exp(-1j * s_zz * gaps * t) * g_rev(gaps, t)
            terms = (det * (a_tau * gt).T).ravel()
            out[k, :, j] = (np.bincount(nu_labels, weights=terms.real, minlength=n_orders)
                            + 1j * np.bincount(nu_labels, weights=terms.imag,
                                               minlength=n_orders))
    return out
