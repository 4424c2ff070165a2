"""Eigen-selective decoherence model and the open-system engine."""

from functools import partial

import numpy as np
import pytest

import reference as ref
from reference import spectral_assembly
from scipy.linalg import expm

from mqcnmr.errors import ConfigError, MqcnmrError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.opensystem import (DecoherenceParams, GaussianOMDF, TabulatedOMDF,
                               g_irreversible, prepare_reduced_state, run_grid_open)
from mqcnmr.sequence import AcquisitionSpec, ExperimentGrid, run_grid
from mqcnmr.spectra import fft2_coherence


def make_system(n=2, seed=5, s_zz=0.6):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-5000, 5000)
    sys_n = SpinSystem(table, s_zz)
    reg = sys_n.register()
    eig = eigendecompose(secular_hamiltonian(sys_n), s_zz)
    return table, reg, eig


def test_gaussian_omdf():
    omdf = GaussianOMDF(width=0.07)
    u = np.linspace(-1.0, 1.0, 4001)
    np.testing.assert_allclose(np.trapezoid(ref.gaussian_density(omdf.width, u), u), 1.0,
                               atol=1e-9)
    assert omdf.q(0.0) == 1.0
    x = np.array([0.0, 3.0, 10.0])
    np.testing.assert_allclose(omdf.q(x), np.exp(-0.5 * (0.07 * x) ** 2), atol=1e-14)
    with pytest.raises(ConfigError):
        GaussianOMDF(width=0.0)


def test_tabulated_omdf_matches_gaussian():
    gauss = GaussianOMDF(width=0.05)
    u = np.linspace(-0.5, 0.5, 3001)
    density = ref.gaussian_density(gauss.width, u)
    tab = TabulatedOMDF(u, density)
    x = np.linspace(-30.0, 30.0, 7)
    np.testing.assert_allclose(tab.q(x), gauss.q(x), atol=1e-6)
    # the stored table is the density on its own support, at unit integral
    assert np.array_equal(tab.u, u)
    np.testing.assert_allclose(tab.p_values, density, rtol=1e-6)
    np.testing.assert_allclose(np.trapezoid(tab.p_values, tab.u), 1.0, atol=1e-12)


def test_tabulated_q_matches_complex_exponential_trapezoid():
    # a skewed density on a non-uniform table, x over many periods of the table
    rng = np.random.default_rng(7)
    u = np.sort(rng.uniform(-0.4, 0.4, 601))
    tab = TabulatedOMDF(u, np.exp(-u ** 2 / 0.01) * (1 + 0.5 * np.tanh(u / 0.05)))
    x = rng.normal(scale=400.0, size=(50, 9))
    want = ref.tabulated_q(tab.u, tab.p_values, x)
    np.testing.assert_allclose(tab.q(x), want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    assert tab.q(0.0) == pytest.approx(1.0, abs=1e-13)


def test_tabulated_omdf_validation_and_file(tmp_path):
    with pytest.raises(ConfigError):
        TabulatedOMDF([0.0, 1.0], [1.0, 1.0])  # too few points
    with pytest.raises(ConfigError):
        TabulatedOMDF([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])  # non-monotone
    with pytest.raises(ConfigError):
        TabulatedOMDF([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])  # negative
    with pytest.raises(ConfigError, match="zero integral"):
        TabulatedOMDF([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    # NaN passes every comparison above, and inf makes the integral inf
    for u, p in (([0.0, 0.1, 0.2], [1.0, np.nan, 1.0]), ([0.0, np.nan, 0.2], [1.0] * 3),
                 ([0.0, 0.1, np.inf], [1.0] * 3), ([0.0, 0.1, 0.2], [1.0, np.inf, 1.0])):
        with pytest.raises(ConfigError, match="non-finite"):
            TabulatedOMDF(u, p)
    path = tmp_path / "omdf.txt"
    u = np.linspace(-0.3, 0.3, 101)
    p = np.exp(-u ** 2 / (2 * 0.1 ** 2))
    np.savetxt(path, np.column_stack([u, p, p]))
    with pytest.raises(ConfigError, match="must have two columns"):
        TabulatedOMDF.from_file(path)
    np.savetxt(path, np.column_stack([u, p]))
    tab = TabulatedOMDF.from_file(path)
    np.testing.assert_allclose(np.trapezoid(tab.p_values, tab.u), 1.0, atol=1e-12)


def test_irreversible_factor_basics():
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.05), kappa=2.0)
    assert g_irreversible(0.0, 1.0, params) == 1.0
    assert g_irreversible(1e4, 0.0, params) == 1.0
    dz = 2 * np.pi * 3000.0
    td = ref.irreversible_decay_time(dz, params)
    np.testing.assert_allclose(g_irreversible(dz, td, params), np.exp(-1.0), rtol=1e-12)
    # closed form: td = [8 (kappa+1)^2 / (dz^2 sigma^2)]^(1/4)
    np.testing.assert_allclose(td, (8 * 9 / (dz ** 2 * 2e5 ** 2)) ** 0.25, rtol=1e-12)
    assert ref.irreversible_decay_time(0.0, params) == np.inf


def test_decay_time_sqrt2_gap_scaling():
    params = DecoherenceParams(sigma_cl=1.5e5, omdf=GaussianOMDF(0.05))
    dz = 2 * np.pi * 2000.0
    ratio = ref.irreversible_decay_time(dz, params) / ref.irreversible_decay_time(2 * dz, params)
    np.testing.assert_allclose(ratio, np.sqrt(2.0), rtol=1e-12)


def test_sigma_for_decay_time_roundtrip():
    dz, td = 2 * np.pi * 4000.0, 1.24e-3
    sigma = ref.sigma_for_decay_time(dz, td, kappa=2.0)
    params = DecoherenceParams(sigma_cl=sigma, omdf=GaussianOMDF(0.05), kappa=2.0)
    np.testing.assert_allclose(ref.irreversible_decay_time(dz, params), td, rtol=1e-12)
    with pytest.raises(MqcnmrError):
        ref.sigma_for_decay_time(0.0, td)


def test_decoherence_params_validation():
    with pytest.raises(ConfigError):
        DecoherenceParams(sigma_cl=0.0, omdf=GaussianOMDF(0.05))
    with pytest.raises(ConfigError):
        DecoherenceParams(sigma_cl=1e5, omdf=GaussianOMDF(0.05), kappa=0.0)


def test_prepare_reduced_state_matches_reference():
    table, reg, eig = make_system(n=3, seed=7)
    t_p = 4e-5
    state = prepare_reduced_state(eig, t_p)
    h = ref.ham_ref(table, 0.6)
    rho_ref = ref.apply_events(3, h, ref.coll(3, "z"),
                               [("pulse", np.pi / 2, 0.0), ("free", t_p, 1.0),
                                ("pulse", np.pi / 4, np.pi / 2)])
    v = ref.vectors(eig)
    np.testing.assert_allclose(v @ state @ v.conj().T, rho_ref, atol=1e-11)


def test_evolve_open_preserves_populations_and_hermiticity():
    _, reg, eig = make_system()
    state = ref.ReducedState(prepare_reduced_state(eig, 3e-5), eig)
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.1))
    evolved = ref.evolve_open(state, t=5e-5, tau=3e-4, params=params)
    np.testing.assert_allclose(ref.populations(evolved), ref.populations(state), atol=1e-14)
    np.testing.assert_allclose(evolved.matrix, evolved.matrix.conj().T, atol=1e-14)
    # off-diagonal magnitudes can only shrink
    off = ~np.eye(reg.dim, dtype=bool)
    assert np.all(np.abs(evolved.matrix[off]) <= np.abs(state.matrix[off]) + 1e-15)


def test_evolve_open_closed_system_limit():
    _, reg, eig = make_system()
    state = ref.ReducedState(prepare_reduced_state(eig, 3e-5), eig)
    # negligible damping: unitary phases only
    params = DecoherenceParams(sigma_cl=1e-6, omdf=GaussianOMDF(1e-9))
    t = 7e-5
    evolved = ref.evolve_open(state, t=t, tau=1e-4, params=params)
    u = ref.propagator(eig, t)
    v = ref.vectors(eig)
    rho_unitary = u @ (v @ state.matrix @ v.conj().T) @ u.conj().T
    back = v @ evolved.matrix @ v.conj().T
    np.testing.assert_allclose(back, rho_unitary, atol=1e-10)


def test_evolve_open_monotone_in_tau():
    _, reg, eig = make_system()
    state = ref.ReducedState(prepare_reduced_state(eig, 3e-5), eig)
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.05))
    off = ~np.eye(reg.dim, dtype=bool)
    norms = []
    for tau in (0.0, 2e-4, 4e-4, 8e-4):
        ev = ref.evolve_open(state, t=0.0, tau=tau, params=params)
        norms.append(np.linalg.norm(ev.matrix[off]))
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_reduced_state_validation():
    _, reg, eig = make_system()
    with pytest.raises(MqcnmrError):
        ref.ReducedState(np.zeros((2, 2)), eig)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(MqcnmrError):
        ref.ReducedState(bad, eig)


def test_run_grid_open_matches_brute_force():
    table, reg, eig = make_system(n=2, seed=5)
    params = DecoherenceParams(sigma_cl=3e5, omdf=GaussianOMDF(0.08))
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    taus = (0.0, 4e-4)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=5e-6, n_phi=5, taus=taus)
    fast = run_grid_open(eig, grid, params, acquisition=acq).data

    h = ref.ham_ref(table, 0.6)
    rho0 = ref.apply_events(2, h, ref.coll(2, "z"),
                            [("pulse", np.pi / 2, 0.0), ("free", 4e-5, 1.0),
                             ("pulse", np.pi / 4, np.pi / 2)])
    v = ref.vectors(eig)
    a0 = v.conj().T @ rho0 @ v
    gaps = eig.zeta[:, None] - eig.zeta[None, :]
    slow = np.empty_like(fast)
    for k, tau in enumerate(taus):
        for j, t in enumerate(grid.ts):
            factor = (np.exp(-1j * 0.6 * gaps * t)
                      * params.omdf.q(gaps * t)
                      * np.exp(-(gaps * params.sigma_cl) ** 2 * tau ** 4 / 72.0))
            rho = v @ (a0 * factor) @ v.conj().T
            for i, phi in enumerate(grid.phis):
                rho_r = ref.rot(2, np.pi / 4, np.pi / 2 + phi) @ rho \
                    @ ref.rot(2, np.pi / 4, np.pi / 2 + phi).conj().T
                raw = ref.windowed_signal(2, h, rho_r, acq.t_m, acq.window,
                                          n_quad=2001)
                slow[i, j, k] = np.exp(-1j * phi) * raw
    np.testing.assert_allclose(fast, slow, atol=1e-8)


def test_run_grid_open_determinism_and_scaling():
    _, reg, eig = make_system(n=3, seed=2)
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.05))
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=3e-5, n_t=6, dt=3e-6, n_phi=8,
                          taus=tuple(k * 2e-4 for k in range(4)))
    one = run_grid_open(eig, grid, params, acquisition=acq).data
    again = run_grid_open(eig, grid, params, acquisition=acq).data
    assert np.array_equal(one, again)
    doubled = run_grid_open(eig, grid, params, acquisition=acq,
                            n_molecules=2).data
    np.testing.assert_allclose(doubled, 2.0 * one, atol=0)


def test_spectral_assembly_equals_open_grid_route():
    _, reg, eig = make_system(n=3, seed=2)
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.05))
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    taus = (0.0, 3e-4)
    grid = ExperimentGrid(t_p=3e-5, n_t=10, dt=3e-6, n_phi=8, taus=taus)
    via_grid = fft2_coherence(run_grid_open(eig, grid, params, acquisition=acq))
    state = prepare_reduced_state(eig, 3e-5)
    scale = np.max(np.abs(via_grid.data))
    direct = spectral_assembly(state, eig, reg, grid.ts, acq.t_m, acq.window,
                               time_factors=partial(params.omdf.time_factors,
                                                    s_zz=eig.order_parameter),
                               g_irreversible=partial(g_irreversible, params=params),
                               taus=np.asarray(taus))
    for order in (-2, 1, 2, 3):
        np.testing.assert_allclose(direct.order(order), via_grid.order(order),
                                   atol=1e-10 * scale)
    with pytest.raises(MqcnmrError):
        direct.order(99)


def test_line_shape_is_shifted_scaled_omdf_copy():
    # a single eigenpair contributes exp(-i S dz t) q(dz t); its two-sided
    # transform is (2 pi / |dz|) p(S + 2 pi f / dz)
    s_zz, width = 0.6, 0.05
    omdf = GaussianOMDF(width)
    dz = 2 * np.pi * 4000.0
    n, dt = 4096, 2e-6
    ts = (np.arange(n) - n // 2) * dt
    sig = np.exp(-1j * s_zz * dz * ts) * omdf.q(dz * ts)
    freqs = np.fft.fftshift(np.fft.fftfreq(n, dt))
    spec = dt * np.fft.fftshift(np.fft.fft(sig)) * np.exp(-2j * np.pi * freqs * ts[0])
    expected = (2 * np.pi / abs(dz)) * ref.gaussian_density(width, s_zz + 2 * np.pi * freqs / dz)
    err = np.linalg.norm(np.abs(spec) - expected) / np.linalg.norm(expected)
    assert err < 0.02
    # the peak sits at f = -S dz / (2 pi) and its height scales as 1/|dz|
    f_peak = freqs[np.argmax(np.abs(spec))]
    np.testing.assert_allclose(f_peak, -s_zz * dz / (2 * np.pi), atol=1.0 / (n * dt))
