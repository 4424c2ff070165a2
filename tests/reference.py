"""Independent brute-force reference implementations for the tests.

Everything here is built from scratch with numpy Kronecker products and
scipy matrix exponentials, without reusing the package's operator or
propagation code, so agreement between the two is a meaningful check.
Events are plain tuples: ("pulse", angle, axis_phase) or
("free", duration, scale).
"""

import csv

import numpy as np
from scipy.linalg import expm, logm

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


def eigen_labels_svd(h, m_basis, order_parameter=1.0):
    """zeta and degeneracy labels s with the degeneracy tolerance scaled by
    the spectral norm of a full SVD (``np.linalg.norm(H, 2)``).

    m blocks are taken in descending m and diagonalized with ``eigh``
    (eigenvalues ascending), zeta = eigenvalue / S_zz (1 when S_zz = 0), and
    states whose zeta lie within 1e-9 ||H|| / |S_zz| of the lowest member of
    their group, in ascending zeta, are numbered 0, 1, ...
    """
    h = np.asarray(h, dtype=complex)
    zeta = np.concatenate([np.linalg.eigh(block)[0] for _, block in m_blocks(h, m_basis)])
    scale = order_parameter if order_parameter != 0.0 else 1.0
    zeta = zeta / scale
    return zeta, group_labels(zeta, 1e-9 * max(np.linalg.norm(h, 2) / abs(scale), 1e-300))


def group_labels(zeta, tol):
    """The index of each state, in ascending zeta, within its group of states
    whose zeta lie within ``tol`` of the lowest member of the group."""
    s = np.zeros(zeta.size, dtype=int)
    order = np.argsort(zeta, kind="stable")
    start = 0
    for i in range(1, zeta.size + 1):
        if i == zeta.size or zeta[order[i]] - zeta[order[start]] > tol:
            s[order[start:i]] = np.arange(i - start)
            start = i
    return s


def m_blocks(h, m_basis):
    """The total-m blocks (rows, H[rows, rows]) of a dense H, in descending m,
    in the layout ``secular_hamiltonian`` returns; entries outside them are
    dropped."""
    h = np.asarray(h, dtype=complex)
    m_basis = np.asarray(m_basis)
    rows = (np.flatnonzero(m_basis == mv) for mv in sorted(set(m_basis.tolist()), reverse=True))
    return tuple((r, h[np.ix_(r, r)]) for r in rows)


def dense_from_blocks(blocks, dim):
    """The dense dim x dim H that is zero outside its m blocks (rows, H_m)."""
    h = np.zeros((dim, dim), dtype=complex)
    for rows, h_m in blocks:
        h[np.ix_(rows, rows)] = h_m
    return h


def iz_commutator(h, m_basis):
    """Largest entry of [H, I_z] = H[a, b] (m_b - m_a), as I_z is diagonal:
    0 exactly when H commutes with total I_z."""
    m_basis = np.asarray(m_basis)
    return np.max(np.abs(np.asarray(h) * (m_basis[None, :] - m_basis[:, None])))


def degeneracy_labels(eig):
    """Degeneracy label s of each eigenvector: ``group_labels`` with the
    tolerance 1e-9 max |zeta| (max |zeta| |S_zz| is the spectral norm of a
    secular H)."""
    return group_labels(eig.zeta, 1e-9 * max(np.max(np.abs(eig.zeta)), 1e-300))


def eigen_coherence_orders(eig):
    """Integer coherence order m_a - m_b of eigenbasis element (a, b)."""
    return np.rint(eig.m[:, None] - eig.m[None, :]).astype(int)


def shuffled_eigensystem(eig, perm):
    """``eig`` with its eigenvectors reordered, eigenvector i of the result
    being eigenvector perm[i] of ``eig``: the same V up to a column
    permutation, so each m block keeps its rows and gets new columns."""
    from mqcnmr.hamiltonian import EigenSystem
    back = np.argsort(perm)
    blocks = []
    for rows, cols, v in eig.blocks:
        new_cols = np.sort(back[cols])
        blocks.append((rows, new_cols, v[:, np.searchsorted(cols, perm[new_cols])]))
    return EigenSystem(zeta=eig.zeta[perm], m=eig.m[perm], blocks=tuple(blocks),
                       order_parameter=eig.order_parameter)


def coherence_orders(reg):
    """Integer coherence order m_r - m_c of every matrix element (r, c)."""
    m = coll(reg.n_spins, "z").diagonal().real
    return np.rint(m[:, None] - m[None, :]).astype(int)


def coherence_order_decompose(op, reg):
    """The coherence-order components of ``op``: {nu: op masked to the elements
    of order nu}, for the orders with a nonzero component.  The order-nu
    component C satisfies R_z(phi) C R_z(-phi) = exp(i nu phi) C, and the
    components sum exactly back to ``op``."""
    a, orders = np.asarray(op, dtype=complex), coherence_orders(reg)
    comps = {nu: np.where(orders == nu, a, 0.0) for nu in range(-reg.n_spins, reg.n_spins + 1)}
    return {nu: comp for nu, comp in comps.items() if np.any(comp)}


def single_spin(reg, site, axis):
    """I_{axis, site} embedded on the full product space (Kronecker product);
    a site or axis out of range raises the package's MqcnmrError."""
    from mqcnmr.errors import MqcnmrError
    if not 0 <= site < reg.n_spins:
        raise MqcnmrError(f"site {site} out of range for {reg.n_spins} spins")
    if axis not in HALF:
        raise MqcnmrError(f"axis must be one of x, y, z, got {axis!r}")
    return embed(reg.n_spins, site, axis)


def dump_operator(op):
    """Row-major text dump ("re+imj" per entry) for cross-implementation diffs."""
    a = np.asarray(op, dtype=complex)
    return "".join(" ".join(f"{z.real:+.16e}{z.imag:+.16e}j" for z in row) + "\n" for row in a)


def g_coefficients(eig, reg, component, t_m, window, axis="x", n_quad=129):
    """Average signal weight of one coherence-block component.

    Evaluates tr{I_alpha U(t') R_y(pi/4) C R_y(-pi/4) U(t')^dagger} and
    averages it over the acquisition window by trapezoid quadrature on
    ``n_quad`` points (window = 0 gives the point value at t_m).  An axis
    other than x or y raises the package's MqcnmrError.
    """
    if axis not in ("x", "y"):
        from mqcnmr.errors import MqcnmrError
        raise MqcnmrError(f"axis must be x or y, got {axis!r}")
    n = reg.n_spins
    ry = rot(n, np.pi / 4, np.pi / 2)
    c_rot = ry @ np.asarray(component, dtype=complex) @ ry.conj().T
    v = eig.vectors
    c_eig = v.conj().T @ c_rot @ v
    i_eig = v.conj().T @ coll(n, axis) @ v
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


def reversion_figures(u, tau):
    """(||U - exp(i theta) 1||, ||log(U exp(-i theta)) / (-i tau)||) of a
    compiled block U of duration tau, theta the phase of tr(U): spectral
    norms by SVD, the logarithm by scipy logm (norm 0 when tau = 0)."""
    theta = np.angle(np.trace(u))
    residual = np.linalg.norm(u - np.exp(1j * theta) * np.eye(u.shape[0]), 2)
    if tau == 0:
        return residual, 0.0
    return residual, np.linalg.norm(logm(u * np.exp(-1j * theta)) / (-1j * tau), 2)


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


def pair_order_sums_dense(weights, zeta, m, s_zz, ts, taus, g_rev, g_irr, n):
    """Order sums c[k, nu + n, j], one ordered pair (a, b) at a time.

    Pair (a, b) has order nu = m_b - m_a and gap g = zeta_b - zeta_a, and adds
    W[a, b] g_irr(g, tau_k) exp(-i s_zz g t_j) g_rev(g, t_j) into c for the
    (dim, dim) ``weights`` shared by every tau.  No pair borrows its mirror's
    factors.
    """
    ts, taus = np.asarray(ts, dtype=float), np.asarray(taus, dtype=float)
    dim = len(zeta)
    out = np.zeros((len(taus), 2 * n + 1, len(ts)), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            g = zeta[b] - zeta[a]
            e = np.exp(-1j * s_zz * g * ts) * g_rev(g, ts)
            out[:, int(np.rint(m[b] - m[a])) + n] += np.outer(weights[a, b] * g_irr(g, taus), e)
    return out


def tabulated_q(u, p, x):
    """q(x) = int p(u) exp(i u x) du by the trapezoid rule on the table (u, p),
    one complex exponential per (x, u) sample."""
    return np.trapezoid(p * np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), u)), u,
                        axis=-1)


def gaussian_density(width, u):
    """Unit-integral Gaussian OMDF p(u) = exp(-u^2 / (2 w^2)) / sqrt(2 pi w^2),
    whose inverse transform is ``GaussianOMDF(width).q``."""
    return np.exp(-np.asarray(u) ** 2 / (2.0 * width ** 2)) / np.sqrt(2.0 * np.pi * width ** 2)


def populations(state):
    """Diagonal (population) elements of a ``ReducedState``."""
    return state.matrix.diagonal().real


def g_reversible(dzeta, t, params):
    """Reversible line-shape factor G^T = q(dzeta * t) of the OMDF transform, one
    sample at a time: the oracle for the OMDFs' ``time_factors``, which hold it
    with the phase on uniform times."""
    return params.omdf.q(np.asarray(dzeta) * np.asarray(t))


def evolve_open(state, t, tau, params):
    """Open-system map of a ``ReducedState`` for waiting time t and reversion time tau.

    Element (a, b) is multiplied by exp(-i (zeta_a - zeta_b) S_zz t) G^T(t) G^R(tau),
    with ``g_reversible`` above and the package's ``g_irreversible`` as the factors
    ``run_grid_open`` applies; the result is checked as a ``ReducedState`` again.
    """
    from mqcnmr.opensystem import ReducedState, g_irreversible
    eig = state.eig
    gaps = eig.gaps()
    factor = (np.exp(-1j * eig.order_parameter * gaps * t)
              * g_reversible(gaps, t, params)
              * g_irreversible(gaps, tau, params))
    return ReducedState(state.matrix * factor, eig)


def irreversible_decay_time(dzeta, params):
    """tau at which the G^R exponent reaches 1: [8(kappa+1)^2/(dzeta^2 sigma^2)]^(1/4)."""
    if dzeta == 0:
        return np.inf
    return float((8.0 * (params.kappa + 1.0) ** 2
                  / (dzeta ** 2 * params.sigma_cl ** 2)) ** 0.25)


def sigma_for_decay_time(dzeta, tau_d, kappa=2.0):
    """sigma_cl that puts the G^R decay time of gap ``dzeta`` at ``tau_d``; a zero
    gap or a non-positive decay time raises the package's MqcnmrError."""
    if dzeta == 0 or tau_d <= 0:
        from mqcnmr.errors import MqcnmrError
        raise MqcnmrError("need a nonzero gap and positive decay time")
    return float(np.sqrt(8.0) * (kappa + 1.0) / (abs(dzeta) * tau_d ** 2))


def spectral_assembly(state_eig, eig, reg, ts, t_m, window, time_factors=None,
                      g_irreversible=None, taus=None, n_molecules=1):
    """Coherence spectra assembled directly from eigenbasis matrix elements.

    The t transform of the open engine's ``pair_order_sums`` on the t grid of
    the time-domain route, for the prepared state ``state_eig`` (H
    eigenbasis), the read pulse (pi/4)_y and detection I_+.  With G == 1 (the
    phase alone, by direct exp, for ``time_factors`` None, and G^R = 1 for
    ``g_irreversible`` None) this reproduces ``fft2_coherence(run_grid(...))``
    up to rounding through the kernel the closed engine does not use; with the
    decoherence factors (the kernel's ``time_factors(gaps, ts)``, phase
    included, and G^R(dzeta, tau)) it realizes the shifted-copy superposition
    of ``run_grid_open``.
    """
    from mqcnmr.operators import collective_angular_momentum, rotation_halves
    from mqcnmr.opensystem import pair_order_sums
    from mqcnmr.spectra import CoherenceSpectrum, RunSetup, detection_matrix
    ts = np.asarray(ts, dtype=float)
    taus = np.asarray([0.0] if taus is None else taus, dtype=float)
    if time_factors is None:
        def time_factors(gaps, t):
            return np.exp(-1j * eig.order_parameter * np.multiply.outer(gaps, t))
    if g_irreversible is None:
        def g_irreversible(gaps, tau):
            return np.ones(np.broadcast_shapes(np.shape(gaps), np.shape(tau)))
    i_plus = collective_angular_momentum(reg, "x") + 1j * collective_angular_momentum(reg, "y")
    setup = RunSetup(eig, state_eig, rotation_halves(reg, np.pi / 4, "y"), eig.to_eigen(i_plus))
    det = detection_matrix(setup, t_m, window)
    sums = pair_order_sums(det * setup.state.T, eig, ts, taus, time_factors, g_irreversible)
    data = n_molecules * np.fft.fftshift(np.fft.fft(sums, axis=2), axes=2)
    freqs = np.fft.fftshift(np.fft.fftfreq(ts.size, float(ts[1] - ts[0])))
    return CoherenceSpectrum(data=data, mu=np.arange(-reg.n_spins, reg.n_spins + 1),
                             freqs_hz=freqs, taus=taus,
                             meta={"route": "eigenbasis-assembly", "t_m": t_m,
                                   "window": window})
