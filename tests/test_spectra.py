"""Discrete transforms, detection weights and the eigenbasis spectral route."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref
from reference import g_coefficients, spectral_assembly
from scipy.linalg import expm

from mqcnmr.errors import MqcnmrError, UnsupportedGridError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.opensystem import prepare_reduced_state
from mqcnmr.sequence import (AcquisitionSpec, ExperimentGrid, Propagators, prepared_setup,
                             run_grid)
from mqcnmr.spectra import (CoherenceSpectrum, SignalGrid, detection_matrix, fft2_coherence,
                            spectrum_to_csv)


def make_system(n=3, seed=12, s_zz=0.6, scale_hz=5000.0):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-scale_hz, scale_hz)
    sys_n = SpinSystem(n_sites=n, couplings_hz=table, order_parameter=s_zz)
    reg = sys_n.register()
    eig = eigendecompose(secular_hamiltonian(sys_n, reg), reg, s_zz)
    return table, reg, eig


def synthetic_grid(n_phi=8, n_t=16, dt=1e-6, nu0=2, k0=3, n_tau=1):
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    ts = dt * np.arange(n_t)
    f0 = k0 / (n_t * dt)
    sig = np.exp(1j * nu0 * phis)[:, None] * np.exp(2j * np.pi * f0 * ts)[None, :]
    data = np.repeat(sig[:, :, None], n_tau, axis=2)
    taus = 1e-4 * np.arange(n_tau)
    return SignalGrid(data=data, dt=dt, taus=taus, t_p=0.0, t_m=0.0, window=0.0), f0


def test_single_mode_lands_on_its_bin():
    grid, f0 = synthetic_grid(nu0=2, k0=3)
    spec = fft2_coherence(grid)
    i_mu = spec.order_index(2)
    j_f = int(np.argmin(np.abs(spec.freqs_hz - f0)))
    # unit weight at (mu = nu0, f = f0) times n_t from the t transform
    assert abs(spec.data[0, i_mu, j_f] - grid.n_t) < 1e-9
    rest = spec.data[0].copy()
    rest[i_mu, j_f] = 0.0
    assert np.max(np.abs(rest)) < 1e-9


def test_negative_order_lands_on_negative_bin():
    grid, f0 = synthetic_grid(nu0=-3, k0=5)
    spec = fft2_coherence(grid)
    i_mu = spec.order_index(-3)
    j_f = int(np.argmin(np.abs(spec.freqs_hz - f0)))
    assert abs(spec.data[0, i_mu, j_f] - grid.n_t) < 1e-9


def test_parseval_relation():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(8, 16, 3)) + 1j * rng.normal(size=(8, 16, 3))
    grid = SignalGrid(data=data, dt=1e-6, taus=np.arange(3.0), t_p=0.0,
                      t_m=0.0, window=0.0)
    spec = fft2_coherence(grid)
    lhs = np.sum(np.abs(spec.data) ** 2)
    rhs = (16 / 8) * np.sum(np.abs(data) ** 2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_real_time_signal_has_conjugate_frequency_symmetry():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(4, 16, 1)).astype(complex)
    grid = SignalGrid(data=data, dt=1e-6, taus=[0.0], t_p=0.0, t_m=0.0, window=0.0)
    spec = fft2_coherence(grid)
    # real input in both phi and t: X(-mu, -f) = conj(X(mu, f)); with
    # fftshift and even sizes the Nyquist row and column are excluded
    s = spec.data[0]
    mu = spec.mu.tolist()
    for i, m in enumerate(mu):
        if -m not in mu:
            continue
        j = mu.index(-m)
        np.testing.assert_allclose(s[i, 1:], np.conj(s[j, 1:][::-1]), atol=1e-12)


def run_three_spin(n_phi, taus=(0.0,), n_t=6):
    table, reg, eig = make_system()
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=n_t, dt=3e-6, n_phi=n_phi, taus=taus)
    return run_grid(eig, reg, grid, acquisition=acq), reg, eig


def test_coherence_selection_is_clean():
    sig, reg, _ = run_three_spin(n_phi=16)
    spec = fft2_coherence(sig)
    mags = np.max(np.abs(spec.data[0]), axis=1)
    top = mags.max()
    for i, mu in enumerate(spec.mu):
        if abs(mu) > reg.n_spins:
            assert mags[i] < 1e-10 * top


def test_aliasing_folds_orders_at_twice_the_maximum():
    sig_ref, reg, _ = run_three_spin(n_phi=16)
    c_ref = np.fft.fftshift(np.fft.fft(sig_ref.data, axis=0), axes=0) / 16
    mu_ref = np.fft.fftshift(np.fft.fftfreq(16) * 16).astype(int)
    ref_of = {mu: c_ref[i] for i, mu in enumerate(mu_ref)}

    # n_phi = 2 * max|nu| = 6: orders nu and nu -/+ 6 share a bin
    sig6, _, _ = run_three_spin(n_phi=6)
    c6 = np.fft.fftshift(np.fft.fft(sig6.data, axis=0), axes=0) / 6
    mu6 = np.fft.fftshift(np.fft.fftfreq(6) * 6).astype(int)
    for i, mu in enumerate(mu6):
        expected = sum(ref_of.get(nu, 0.0) for nu in (mu - 6, mu, mu + 6)
                       if -3 <= nu <= 3)
        np.testing.assert_allclose(c6[i], expected, atol=1e-10)
    # the shared bin really mixes two orders
    folded = ref_of[-3] + ref_of[3]
    assert np.max(np.abs(folded - ref_of[3])) > 1e-6

    # n_phi = 2 * max|nu| + 1 = 7 is alias-free
    sig7, _, _ = run_three_spin(n_phi=7)
    c7 = np.fft.fftshift(np.fft.fft(sig7.data, axis=0), axes=0) / 7
    mu7 = np.fft.fftshift(np.fft.fftfreq(7) * 7).astype(int)
    for i, mu in enumerate(mu7):
        np.testing.assert_allclose(c7[i], ref_of[mu], atol=1e-10)


def test_g_coefficients_against_reference_trace():
    table, reg, eig = make_system(n=2, seed=5)
    h = ref.ham_ref(table, 0.6)
    rng = np.random.default_rng(8)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t_m = 4e-6
    ry = ref.rot(2, np.pi / 4, np.pi / 2)
    u = expm(-1j * h * t_m)
    for axis in ("x", "y"):
        expected = np.trace(ref.coll(2, axis) @ u @ ry @ c @ ry.conj().T @ u.conj().T)
        got = g_coefficients(eig, reg, c, t_m=t_m, window=0.0, axis=axis)
        np.testing.assert_allclose(got, expected, atol=1e-12)
    with pytest.raises(MqcnmrError):
        g_coefficients(eig, reg, c, t_m=t_m, window=0.0, axis="z")


def test_g_coefficients_window_limit_and_average():
    table, reg, eig = make_system(n=2, seed=5)
    rng = np.random.default_rng(9)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    point = g_coefficients(eig, reg, c, t_m=5e-6, window=0.0)
    tiny = g_coefficients(eig, reg, c, t_m=5e-6, window=1e-12)
    np.testing.assert_allclose(tiny, point, atol=1e-10)
    # windowed average by independent dense quadrature
    h = ref.ham_ref(table, 0.6)
    ry = ref.rot(2, np.pi / 4, np.pi / 2)
    tps = np.linspace(5e-6 - 2e-6, 5e-6 + 2e-6, 2001)
    vals = []
    for tp in tps:
        u = expm(-1j * h * tp)
        vals.append(np.trace(ref.coll(2, "x") @ u @ ry @ c @ ry.conj().T
                             @ u.conj().T))
    expected = np.trapezoid(np.array(vals), tps) / 4e-6
    got = g_coefficients(eig, reg, c, t_m=5e-6, window=4e-6, n_quad=2001)
    np.testing.assert_allclose(got, expected, atol=1e-11)


def test_detection_matrix_consistent_with_g_coefficients():
    _, reg, eig = make_system(n=2, seed=5)
    t_m, window = 4e-6, 2e-6
    det = detection_matrix(prepared_setup(Propagators(eig, reg), 0.0), t_m, window)
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sigma = a + a.conj().T  # hermitian state in the eigenbasis
    signal_det = np.sum(det * sigma.T)
    c_prod = eig.vectors @ sigma @ eig.vectors.conj().T
    gx = g_coefficients(eig, reg, c_prod, t_m, window, axis="x", n_quad=4001)
    gy = g_coefficients(eig, reg, c_prod, t_m, window, axis="y", n_quad=4001)
    np.testing.assert_allclose(signal_det, gx + 1j * gy, atol=1e-8)


def test_spectral_assembly_equals_fft_route():
    table, reg, eig = make_system()
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    taus = (0.0, 6e-5)
    grid = ExperimentGrid(t_p=4e-5, n_t=12, dt=3e-6, n_phi=8, taus=taus)
    sig = run_grid(eig, reg, grid, acquisition=acq)
    via_fft = fft2_coherence(sig)

    state = prepare_reduced_state(eig, reg, 4e-5)
    direct = spectral_assembly(state.matrix, eig, reg, grid.ts, acq.t_m, acq.window,
                               taus=np.asarray(taus))
    scale = np.max(np.abs(via_fft.data))
    for mu in range(-3, 4):
        a = via_fft.order(mu)
        b = direct.order(mu)
        np.testing.assert_allclose(a, b, atol=1e-10 * scale)
    np.testing.assert_allclose(direct.freqs_hz, via_fft.freqs_hz, atol=1e-9)


def test_spectral_assembly_molecule_scaling_and_decay_hook():
    _, reg, eig = make_system(n=2, seed=5)
    state = prepare_reduced_state(eig, reg, 3e-5)
    ts = 2e-6 * np.arange(8)
    base = spectral_assembly(state.matrix, eig, reg, ts, 3e-6, 2e-6)
    scaled = spectral_assembly(state.matrix, eig, reg, ts, 3e-6, 2e-6, n_molecules=4)
    np.testing.assert_allclose(scaled.data, 4.0 * base.data, atol=0)
    # a gap-independent reversible factor multiplies the whole spectrum
    damped = spectral_assembly(state.matrix, eig, reg, ts, 3e-6, 2e-6,
                               g_reversible=lambda dz, t: np.full_like(
                                   np.broadcast_arrays(dz, t)[0], 0.5, dtype=float))
    half = spectral_assembly(state.matrix, eig, reg, ts, 3e-6, 2e-6)
    np.testing.assert_allclose(damped.data, 0.5 * half.data, atol=1e-12)


def test_spectrum_helpers_and_errors():
    grid, _ = synthetic_grid()
    spec = fft2_coherence(grid)
    with pytest.raises(MqcnmrError):
        spec.order(99)
    banded = spec.band(1e5)
    assert np.all(np.abs(banded.freqs_hz) <= 1e5)
    assert banded.meta["band_hz"] == 1e5

    padded = fft2_coherence(grid, zero_pad=4)
    assert padded.data.shape[2] == 4 * grid.n_t
    with pytest.raises(MqcnmrError):
        fft2_coherence(grid, zero_pad=0)


def test_signal_grid_validation():
    with pytest.raises(MqcnmrError):
        SignalGrid(data=np.zeros((4, 4)), dt=1e-6, taus=[0.0], t_p=0.0,
                   t_m=0.0, window=0.0)
    with pytest.raises(MqcnmrError):
        SignalGrid(data=np.zeros((4, 4, 2)), dt=1e-6, taus=[0.0], t_p=0.0,
                   t_m=0.0, window=0.0)


def test_coherence_order_labels_are_distinct_and_exact():
    # fftfreq(n) * n is not always an exact integer (6.999... at n = 18), so
    # truncating it gave two bins the same label and lost an order
    for n_phi in range(1, 41):
        phis = 2 * np.pi * np.arange(n_phi) / n_phi
        expected = list(range(-(n_phi // 2), n_phi - n_phi // 2))
        for nu in expected:
            data = np.repeat(np.exp(1j * nu * phis)[:, None, None], 4, axis=1)
            grid = SignalGrid(data=data, dt=1e-6, taus=[0.0], t_p=0.0, t_m=0.0, window=0.0)
            spec = fft2_coherence(grid)
            assert spec.mu.tolist() == expected
            assert abs(spec.order(nu)[0, np.argmin(np.abs(spec.freqs_hz))] - 4.0) < 1e-9


# every float repr edge: signed zeros, subnormals, extremes, nan and inf
CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                     1e300, -1e300, 1.7976931348623157e308, float("nan"),
                     float("inf"), float("-inf"), 0.1, 1e16, 1e-5]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # |z| > float max
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 6)),
       data=st.data())
def test_spectrum_csv_bytes_match_per_row_writer(tmp_path, shape, data):
    n_tau, n_mu, n_freq = shape
    floats = st.lists(CSV_FLOATS, min_size=2 * n_tau * n_mu * n_freq,
                      max_size=2 * n_tau * n_mu * n_freq)
    parts = np.array(data.draw(floats), dtype=float).reshape(2, n_tau, n_mu, n_freq)
    values = parts[0].astype(complex)
    values.imag = parts[1]  # exact parts: 1j * inf would make the real part nan
    spec = CoherenceSpectrum(
        data=values,
        mu=np.array(data.draw(st.lists(st.integers(-40, 40), min_size=n_mu, max_size=n_mu)),
                    dtype=int),
        freqs_hz=np.array(data.draw(st.lists(CSV_FLOATS, min_size=n_freq, max_size=n_freq)),
                          dtype=float),
        taus=np.array(data.draw(st.lists(CSV_FLOATS, min_size=n_tau, max_size=n_tau)),
                      dtype=float))
    spectrum_to_csv(spec, tmp_path / "bulk.csv")
    ref.spectrum_csv_rows(spec, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_spectrum_csv_abs_is_scalar_abs_and_rows_end_in_crlf(tmp_path):
    # np.abs on a complex array differs from abs(complex128) in the last bit
    # for about a third of these values; hypot does not
    rng = np.random.default_rng(3)
    z = (rng.normal(size=(2, 3, 64)) + 1j * rng.normal(size=(2, 3, 64))) \
        * np.exp(rng.uniform(-30, 30, size=(2, 3, 64)))
    spec = CoherenceSpectrum(data=z, mu=np.arange(-1, 2), freqs_hz=np.arange(64.0) - 32.0,
                             taus=np.array([0.0, 1e-4]))
    spectrum_to_csv(spec, tmp_path / "bulk.csv")
    ref.spectrum_csv_rows(spec, tmp_path / "rows.csv")
    raw = (tmp_path / "bulk.csv").read_bytes()
    assert raw == (tmp_path / "rows.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[0] == b"tau,mu,omega_hz,re,im,abs" and lines[-1] == b""
    assert len(lines) == 2 + z.size and b"\n" not in b"".join(lines)


def test_spectrum_csv_is_written_block_by_block(tmp_path):
    # the open workload's shape: about 20 MB of CSV, which a writer that
    # joins the whole file first holds in memory
    rng = np.random.default_rng(0)
    shape = (24, 18, 512)
    spec = CoherenceSpectrum(data=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             mu=np.arange(-9, 9), freqs_hz=np.fft.fftfreq(512, 1e-6),
                             taus=np.linspace(0.0, 1e-3, 24))
    tracemalloc.start()
    try:
        spectrum_to_csv(spec, tmp_path / "spectra.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "spectra.csv").stat().st_size > 15e6
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
