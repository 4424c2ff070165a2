"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds (run pytest with
-s to see them); a failed assertion marks the criterion as failed.
"""

import time

import numpy as np
import pytest

import reference
from reference import spectral_assembly
from mqcnmr.analysis import DecayCurve, eigen_selectivity_report, fit_decay
from mqcnmr.config import load_molecule, preset_path
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.opensystem import (DecoherenceParams, GaussianOMDF, g_irreversible,
                               prepare_reduced_state)
from mqcnmr.operators import collective_angular_momentum
from mqcnmr.sequence import (AcquisitionSpec, ExperimentGrid, MagicSandwichSpec,
                             Mrev8Spec, run_grid)
from mqcnmr.spectra import fft2_coherence


def load_eig(name):
    mol = load_molecule(preset_path(f"molecules/{name}.yaml"))
    reg = mol.register()
    eig = eigendecompose(secular_hamiltonian(mol), mol.order_parameter)
    return mol, reg, eig


ACQ = AcquisitionSpec(t_m=3e-6, window=2e-6)


def test_criterion_1_magic_sandwich_tau_invariance():
    start = time.monotonic()
    _, reg, eig = load_eig("four_spin_test")
    taus = (0.0, 9e-5, 1.8e-4, 3.6e-4)
    grid = ExperimentGrid(t_p=4.75e-5, n_t=24, dt=2e-6, n_phi=10, taus=taus)
    data = run_grid(eig, grid, block=MagicSandwichSpec(), acquisition=ACQ).data
    spread = np.max(np.abs(data - data[:, :, :1])) / np.max(np.abs(data))
    elapsed = time.monotonic() - start
    assert spread <= 1e-10
    assert elapsed < 60.0
    print(f"criterion 1 (magic-sandwich tau invariance): PASS - "
          f"relative spread {spread:.2e} <= 1e-10 in {elapsed:.1f}s")


def per_order_variation(eig, reg, tau1):
    block = Mrev8Spec(tau1=tau1)
    grid = ExperimentGrid(t_p=4.75e-5, n_t=48, dt=2e-6, n_phi=2 * reg.n_spins + 2,
                          taus=reference.tau_schedule(block, 4))
    spec = fft2_coherence(run_grid(eig, grid, block=block, acquisition=ACQ))
    amp = np.sum(np.abs(spec.data), axis=2)  # (n_tau, n_mu)
    a0 = amp[0]
    keep = a0 > 1e-3 * a0.max()
    rel = np.max(np.abs(amp - a0[None, :]), axis=0) / np.where(a0 > 0, a0, 1.0)
    return rel, keep


def test_criterion_2_mrev8_pulse_spacing_ordering():
    start = time.monotonic()
    worst = 0.0
    for name in ("four_spin_test", "eight_spin_test"):
        _, reg, eig = load_eig(name)
        r5, k5 = per_order_variation(eig, reg, 5e-6)
        r20, k20 = per_order_variation(eig, reg, 20e-6)
        keep = k5 & k20
        assert np.all(r5[keep] < 0.10), f"{name}: 5 us variation exceeds 10%"
        assert np.all(r5[keep] < r20[keep]), \
            f"{name}: 5 us variation not below 20 us variation for every order"
        worst = max(worst, float(r5[keep].max()))
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 2 (MREV8 spacing ordering, 4 and 8 spins): PASS - "
          f"worst 5 us per-order variation {worst:.2e} < 0.10, "
          f"always below the 20 us variation, in {elapsed:.0f}s")


def three_spin_coefficients(n_phi):
    rng = np.random.default_rng(12)
    table = np.zeros((3, 3))
    for j in range(3):
        for k in range(j + 1, 3):
            table[j, k] = table[k, j] = rng.uniform(-5000, 5000)
    sys3 = SpinSystem(table, 0.6)
    reg = sys3.register()
    eig = eigendecompose(secular_hamiltonian(sys3), 0.6)
    grid = ExperimentGrid(t_p=4e-5, n_t=6, dt=3e-6, n_phi=n_phi, taus=(0.0,))
    sig = run_grid(eig, grid, acquisition=ACQ)
    c = np.fft.fftshift(np.fft.fft(sig.data, axis=0), axes=0) / n_phi
    mu = np.fft.fftshift(np.fft.fftfreq(n_phi) * n_phi).astype(int)
    return {m: c[i] for i, m in enumerate(mu)}


def test_criterion_3_coherence_selection_and_aliasing_onset():
    ref = three_spin_coefficients(16)
    top = max(np.max(np.abs(v)) for v in ref.values())
    # selection: no weight outside |nu| <= 3
    leak = max(np.max(np.abs(v)) for m, v in ref.items() if abs(m) > 3)
    assert leak < 1e-10 * top

    # n_phi = 2 * max|nu| + 1 = 7 still resolves every order
    clean = three_spin_coefficients(7)
    for m, v in clean.items():
        assert np.max(np.abs(v - ref[m])) < 1e-10 * top

    # n_phi = 2 * max|nu| = 6 is the aliasing onset: +3 and -3 fold together
    folded = three_spin_coefficients(6)
    expected = ref[3] + ref[-3]
    assert np.max(np.abs(folded[-3] - expected)) < 1e-10 * top
    assert np.max(np.abs(expected - ref[3])) > 1e-6 * top
    print("criterion 3 (coherence selection and aliasing onset): PASS - "
          f"out-of-range leakage {leak / top:.2e}, orders +/-3 fold exactly "
          "at n_phi = 6 and separate at n_phi = 7")


def test_criterion_4_route_equivalence():
    _, reg, eig = load_eig("four_spin_test")
    taus = (0.0, 6e-5)
    grid = ExperimentGrid(t_p=4.75e-5, n_t=16, dt=2e-6, n_phi=10, taus=taus)
    via_fft = fft2_coherence(run_grid(eig, grid, acquisition=ACQ))
    state = prepare_reduced_state(eig, 4.75e-5)
    direct = spectral_assembly(state, eig, reg, grid.ts, ACQ.t_m, ACQ.window,
                               taus=np.asarray(taus))
    scale = np.max(np.abs(via_fft.data))
    worst = 0.0
    for mu in range(-4, 5):
        d = np.max(np.abs(via_fft.order(mu) - direct.order(mu))) / scale
        worst = max(worst, float(d))
    assert worst <= 1e-8
    print(f"criterion 4 (time-domain vs eigenbasis assembly): PASS - "
          f"worst relative discrepancy {worst:.2e} <= 1e-8")


def test_criterion_5_sqrt2_decay_ratio_and_monotone_selectivity():
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.05), kappa=2.0)
    dz = 2 * np.pi * 3000.0
    t_slow = reference.irreversible_decay_time(dz, params)
    taus = np.linspace(0.0, 2.5 * t_slow, 40)
    fits = []
    for gap in (dz, 2 * dz):
        amps = np.array([g_irreversible(gap, tau, params) for tau in taus])
        fits.append(fit_decay(DecayCurve(taus, amps, gap / (2 * np.pi))).tau_d)
    ratio = fits[0] / fits[1]
    assert abs(ratio - np.sqrt(2.0)) / np.sqrt(2.0) < 0.02

    curves = [DecayCurve(taus,
                         np.array([g_irreversible(g, tau, params) for tau in taus]),
                         g / (2 * np.pi))
              for g in (0.5 * dz, dz, 2 * dz)]
    report = eigen_selectivity_report(curves)
    assert report.monotone_decreasing
    print(f"criterion 5 (gap-doubling decay-time ratio): PASS - "
          f"fitted ratio {ratio:.4f} vs sqrt(2) = {np.sqrt(2):.4f} "
          f"({abs(ratio - np.sqrt(2)) / np.sqrt(2) * 100:.2f}%), "
          f"selectivity monotone: {report.monotone_decreasing}")


def test_criterion_6_line_shapes_are_shifted_omdf_copies():
    s_zz = 0.6
    omdf = GaussianOMDF(0.05)
    n, dt = 4096, 2e-6
    ts = (np.arange(n) - n // 2) * dt
    freqs = np.fft.fftshift(np.fft.fftfreq(n, dt))
    heights = []
    errs = []
    for gap_hz in (2000.0, 4000.0, 8000.0):
        dz = 2 * np.pi * gap_hz
        sig = np.exp(-1j * s_zz * dz * ts) * omdf.q(dz * ts)
        spec = dt * np.fft.fftshift(np.fft.fft(sig)) \
            * np.exp(-2j * np.pi * freqs * ts[0])
        expected = (2 * np.pi / abs(dz)) \
            * reference.gaussian_density(omdf.width, s_zz + 2 * np.pi * freqs / dz)
        err = np.linalg.norm(np.abs(spec) - expected) / np.linalg.norm(expected)
        errs.append(float(err))
        heights.append(float(np.max(np.abs(spec))))
        assert err < 0.02
    # peak height inherits the 1/|gap| scaling of the OMDF copy
    np.testing.assert_allclose(heights[0] / heights[1], 2.0, rtol=0.02)
    np.testing.assert_allclose(heights[1] / heights[2], 2.0, rtol=0.02)
    print(f"criterion 6 (line shape = shifted, scaled OMDF copy): PASS - "
          f"L2 errors {', '.join(f'{e:.3f}' for e in errs)} all < 0.02 "
          "with 1/|gap| peak scaling")


def test_criterion_7_decay_time_recovery():
    tau_d = 1.24e-3
    taus = np.linspace(0.0, 3e-3, 40)
    clean = fit_decay(DecayCurve(taus, np.exp(-taus / tau_d), 0.0)).tau_d
    assert abs(clean - tau_d) / tau_d < 0.01
    rng = np.random.default_rng(2024)
    noisy_amps = np.exp(-taus / tau_d) * (1.0 + 0.01 * rng.normal(size=taus.size))
    noisy = fit_decay(DecayCurve(taus, noisy_amps, 0.0)).tau_d
    assert abs(noisy - tau_d) / tau_d < 0.05
    print(f"criterion 7 (decay-time recovery at 1.24 ms): PASS - "
          f"clean error {abs(clean - tau_d) / tau_d * 100:.3f}% < 1%, "
          f"noisy error {abs(noisy - tau_d) / tau_d * 100:.2f}% < 5%")


def test_criterion_8_conservation_suite_100_random_trials():
    failures = []
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 5))
        table = np.zeros((n, n))
        for j in range(n):
            for k in range(j + 1, n):
                table[j, k] = table[k, j] = rng.uniform(-8000, 8000)
        s_zz = float(rng.uniform(0.3, 1.0))
        sys_n = SpinSystem(table, s_zz)
        reg = sys_n.register()
        blocks = secular_hamiltonian(sys_n)
        h = reference.dense_from_blocks(blocks, reg.dim)
        eig = eigendecompose(blocks, s_zz)
        iz = collective_angular_momentum(reg, "z")
        eye = np.eye(reg.dim)
        v = reference.vectors(eig)

        checks = {
            "H hermitian": np.max(np.abs(h - h.conj().T)) < 1e-12,
            "H traceless": abs(np.trace(h)) < 1e-9,
            "H secular": np.max(np.abs(h @ iz - iz @ h)) < 1e-9,
            "V unitary": np.max(np.abs(v @ v.conj().T - eye)) < 1e-12,
        }
        t = float(rng.uniform(0.0, 2e-4))
        u = reference.propagator(eig, t)
        checks["U unitary"] = np.max(np.abs(u @ u.conj().T - eye)) < 1e-11

        state = reference.ReducedState(prepare_reduced_state(eig, float(rng.uniform(0.0, 1e-4))),
                                       eig)
        rho = v @ state.matrix @ v.conj().T
        rho_t = u @ rho @ u.conj().T
        checks["trace conserved"] = abs(np.trace(rho_t) - np.trace(rho)) < 1e-12
        checks["hermiticity conserved"] = \
            np.max(np.abs(rho_t - rho_t.conj().T)) < 1e-11
        checks["norm conserved"] = abs(np.linalg.norm(rho_t) -
                                       np.linalg.norm(rho)) < 1e-11

        comps = reference.coherence_order_decompose(rho, reg)
        checks["order decomposition complete"] = \
            np.max(np.abs(sum(comps.values()) - rho)) < 1e-12

        params = DecoherenceParams(sigma_cl=float(rng.uniform(5e4, 5e5)),
                                   omdf=GaussianOMDF(float(rng.uniform(0.01, 0.2))))
        ev = reference.evolve_open(state, t=float(rng.uniform(0, 1e-4)),
                                   tau=float(rng.uniform(0, 1e-3)), params=params)
        checks["populations conserved"] = \
            np.max(np.abs(reference.populations(ev) - reference.populations(state))) < 1e-13
        off = ~np.eye(reg.dim, dtype=bool)
        checks["coherences non-increasing"] = \
            bool(np.all(np.abs(ev.matrix[off]) <= np.abs(state.matrix[off]) + 1e-14))

        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures.append((trial, bad))
    assert not failures, f"conservation failures: {failures[:5]}"
    print("criterion 8 (conservation suite): PASS - 100 seeded random systems, "
          "all invariants hold")
