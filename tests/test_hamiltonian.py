"""Dipolar Hamiltonian construction and eigensystem checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mqcnmr.errors import (DegenerateGeometryError, MqcnmrError, NotSecularError,
                           TrivialSystemError)
from mqcnmr.hamiltonian import (GAMMA_PROTON, EigenSystem, SpinSystem, coupling_table,
                                dipolar_frequency, eigendecompose, secular_hamiltonian)
from mqcnmr.operators import SpinRegister, collective_angular_momentum

# hand-computed with frozen CODATA values mu0 = 1.25663706212e-6,
# hbar = 1.054571817e-34, gamma = 2.6752218744e8, r = 2.0 A:
# 3 mu0 gamma^2 hbar / (8 pi r^3) = 141513.231 Hz
PAIR_PREFACTOR_2A = 141513.2310067674


def test_dipolar_frequency_hand_value():
    # parallel to z: angular factor 1 - 3 cos^2(0) = -2
    w_par = dipolar_frequency(np.array([0.0, 0.0, 2.0e-10]))
    np.testing.assert_allclose(w_par, -2.0 * PAIR_PREFACTOR_2A, rtol=1e-6)
    # perpendicular: factor +1
    w_perp = dipolar_frequency(np.array([2.0e-10, 0.0, 0.0]))
    np.testing.assert_allclose(w_perp, PAIR_PREFACTOR_2A, rtol=1e-6)


def test_dipolar_frequency_magic_angle_and_r_cubed():
    # cos^2(beta) = 1/3 kills the coupling
    r = 2.0e-10 * np.array([np.sqrt(2.0 / 3.0), 0.0, np.sqrt(1.0 / 3.0)])
    assert abs(dipolar_frequency(r)) < 1e-6 * PAIR_PREFACTOR_2A
    w1 = dipolar_frequency(np.array([0.0, 0.0, 2.0e-10]))
    w2 = dipolar_frequency(np.array([0.0, 0.0, 4.0e-10]))
    np.testing.assert_allclose(w1 / w2, 8.0, rtol=1e-12)
    # gamma enters squared
    w_half = dipolar_frequency(np.array([0.0, 0.0, 2.0e-10]), gamma=GAMMA_PROTON / 2)
    np.testing.assert_allclose(w1 / w_half, 4.0, rtol=1e-12)
    with pytest.raises(DegenerateGeometryError):
        dipolar_frequency(np.zeros(3))


def test_spin_system_validation():
    with pytest.raises(MqcnmrError):
        SpinSystem(n_sites=2)  # neither positions nor couplings
    with pytest.raises(MqcnmrError):
        SpinSystem(n_sites=2, positions=np.zeros((2, 3)),
                   couplings_hz=np.zeros((2, 2)))
    with pytest.raises(MqcnmrError):
        SpinSystem(n_sites=2, couplings_hz=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(MqcnmrError):
        SpinSystem(n_sites=2, couplings_hz=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(MqcnmrError):
        SpinSystem(n_sites=2, couplings_hz=np.zeros((2, 2)), order_parameter=1.5)


def test_coupling_table_from_positions():
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0e-10], [2.0e-10, 0.0, 0.0]])
    sys3 = SpinSystem(n_sites=3, positions=pos)
    table = coupling_table(sys3)
    np.testing.assert_allclose(table, table.T, atol=0)
    assert np.all(np.diag(table) == 0)
    np.testing.assert_allclose(table[0, 1], -2.0 * PAIR_PREFACTOR_2A, rtol=1e-6)
    np.testing.assert_allclose(table[0, 2], PAIR_PREFACTOR_2A, rtol=1e-6)


def test_secular_hamiltonian_two_spin_spectrum():
    # analytic eigenvalues: 2 pi w_D sqrt(2/3) T20 spectrum scaled by S_zz;
    # sqrt(2/3)/sqrt(6) = 1/3 gives S_zz * 2 pi w_D * {1/6, 1/6, 0, -1/3}
    w_d, s_zz = 5000.0, 0.6
    table = np.array([[0.0, w_d], [w_d, 0.0]])
    sys2 = SpinSystem(n_sites=2, couplings_hz=table, order_parameter=s_zz)
    h = secular_hamiltonian(sys2).entries
    w = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort(s_zz * 2 * np.pi * w_d * np.array([1 / 6, 1 / 6, 0.0, -1 / 3]))
    np.testing.assert_allclose(w, expected, atol=1e-9)
    assert abs(np.trace(h)) < 1e-9


def test_secular_hamiltonian_matches_reference():
    rng = np.random.default_rng(3)
    n = 3
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-5000, 5000)
    sys3 = SpinSystem(n_sites=n, couplings_hz=table, order_parameter=0.7)
    np.testing.assert_allclose(secular_hamiltonian(sys3).entries,
                               ref.ham_ref(table, 0.7), atol=1e-9)
    with pytest.raises(TrivialSystemError):
        secular_hamiltonian(SpinSystem(n_sites=1, couplings_hz=np.zeros((1, 1))))


def _example_eig(n=3, seed=3, s_zz=0.7):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-5000, 5000)
    sys_n = SpinSystem(n_sites=n, couplings_hz=table, order_parameter=s_zz)
    reg = sys_n.register()
    h = secular_hamiltonian(sys_n, reg)
    return table, sys_n, reg, h, eigendecompose(h, reg, s_zz)


def test_eigendecompose_blocks_and_reconstruction():
    _, _, reg, h, eig = _example_eig()
    # m blocks of a 3-spin system have sizes 1, 3, 3, 1
    counts = [np.sum(eig.m == mv) for mv in (1.5, 0.5, -0.5, -1.5)]
    assert counts == [1, 3, 3, 1]
    v = eig.vectors
    np.testing.assert_allclose(v @ v.conj().T, np.eye(reg.dim), atol=1e-12)
    np.testing.assert_allclose((v * (eig.order_parameter * eig.zeta)) @ v.conj().T,
                               h.entries, atol=1e-9)
    # every eigenvector has definite m
    iz = collective_angular_momentum(reg, "z").entries
    np.testing.assert_allclose(iz @ v, v * eig.m, atol=1e-12)


def test_eigendecompose_zeta_excludes_order_parameter():
    table = np.array([[0.0, 5000.0], [5000.0, 0.0]])
    zetas = []
    for s_zz in (0.3, 0.9):
        sys2 = SpinSystem(n_sites=2, couplings_hz=table, order_parameter=s_zz)
        reg = sys2.register()
        eig = eigendecompose(secular_hamiltonian(sys2, reg), reg, s_zz)
        zetas.append(np.sort(eig.zeta))
    np.testing.assert_allclose(zetas[0], zetas[1], atol=1e-9)
    expected = np.sort(2 * np.pi * 5000.0 * np.array([1 / 6, 1 / 6, 0.0, -1 / 3]))
    np.testing.assert_allclose(zetas[0], expected, atol=1e-9)


def test_degeneracy_labels():
    table = np.array([[0.0, 5000.0], [5000.0, 0.0]])
    sys2 = SpinSystem(n_sites=2, couplings_hz=table)
    reg = sys2.register()
    eig = eigendecompose(secular_hamiltonian(sys2, reg), reg)
    # the doubly degenerate zeta = 2 pi w / 6 level gets labels 0 and 1
    top = np.isclose(eig.zeta, 2 * np.pi * 5000.0 / 6)
    assert sorted(eig.s[top].tolist()) == [0, 1]
    assert np.all(eig.s[~top] == 0)


def test_eigendecompose_rejects_nonsecular():
    reg = SpinRegister(2)
    ix = collective_angular_momentum(reg, "x")
    with pytest.raises(NotSecularError):
        eigendecompose(ix, reg)


def test_secular_check_threshold():
    # [H, I_z] of H + eps I_x has entries of size eps / 2; the tolerance is
    # SECULAR_ATOL * ||H||_2, about 3e-5 here
    table, _, reg, h, _ = _example_eig()
    ix = collective_angular_momentum(reg, "x").entries
    eigendecompose(h.entries + 1e-5 * ix, reg)
    with pytest.raises(NotSecularError):
        eigendecompose(h.entries + 1e-3 * ix, reg)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), s_zz=st.floats(-0.5, 1.0),
       couplings=st.lists(st.one_of(st.just(0.0), st.floats(-2e4, 2e4)),
                          min_size=15, max_size=15))
def test_secular_hamiltonian_equals_dense_t20_sum(n, s_zz, couplings):
    table = np.zeros((n, n))
    table[np.triu_indices(n, 1)] = couplings[:n * (n - 1) // 2]
    table += table.T
    sys_n = SpinSystem(n_sites=n, couplings_hz=table, order_parameter=s_zz)
    assert np.array_equal(secular_hamiltonian(sys_n).entries, ref.secular_sum_ref(table, s_zz))


def test_secular_hamiltonian_geometry_molecule_equals_dense_t20_sum():
    pos = 1e-10 * np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.4], [1.7, 0.3, 1.1],
                            [2.2, -1.9, 0.4], [-0.8, 1.3, 3.0]])
    sys5 = SpinSystem(n_sites=5, positions=pos, order_parameter=0.45)
    assert np.array_equal(secular_hamiltonian(sys5).entries,
                          ref.secular_sum_ref(coupling_table(sys5), 0.45))


def test_secular_hamiltonian_memory_at_ten_spins():
    rng = np.random.default_rng(4)
    table = np.zeros((10, 10))
    table[np.triu_indices(10, 1)] = rng.uniform(-5000, 5000, size=45)
    sys10 = SpinSystem(n_sites=10, couplings_hz=table + table.T, order_parameter=0.6)
    tracemalloc.start()
    try:
        h = secular_hamiltonian(sys10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.entries.nbytes == 16 << 20
    # H and the two H-sized temporaries of its hermiticity check; a dense
    # T20 per pair would add a fourth, the Kronecker build ten
    assert peak < 3.5 * h.entries.nbytes, f"peak {peak / 2 ** 20:.0f} MiB"
    assert abs(np.trace(h.entries)) < 1e-6


def test_gaps_and_coherence_orders():
    _, _, _, _, eig = _example_eig(n=2, seed=1)
    gaps = eig.gaps()
    np.testing.assert_allclose(gaps, -gaps.T, atol=0)
    np.testing.assert_allclose(np.diag(gaps), 0, atol=0)
    orders = eig.coherence_orders()
    assert orders.max() == 2 and orders.min() == -2


def test_propagator_identities():
    table, _, reg, h, eig = _example_eig()
    u1 = ref.propagator(eig, 3e-5)
    u2 = ref.propagator(eig, 7e-5)
    u12 = ref.propagator(eig, 1e-4)
    np.testing.assert_allclose(u1 @ u2, u12, atol=1e-12)
    np.testing.assert_allclose(ref.propagator(eig, 0.0), np.eye(reg.dim), atol=1e-13)
    # magic-sandwich cancellation: forward tau/2 then tau at scale -1/2
    u_f = ref.propagator(eig, 5e-5, scale=1.0)
    u_b = ref.propagator(eig, 1e-4, scale=-0.5)
    np.testing.assert_allclose(u_b @ u_f, np.eye(reg.dim), atol=1e-12)
    with pytest.raises(MqcnmrError):
        ref.propagator(eig, np.nan)


def test_propagator_matches_expm():
    from scipy.linalg import expm
    table, _, _, h, eig = _example_eig(seed=9)
    for t in (1e-5, 8e-5):
        np.testing.assert_allclose(ref.propagator(eig, t),
                                   expm(-1j * h.entries * t), atol=1e-10)
