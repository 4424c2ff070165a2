"""Dipolar Hamiltonian construction and eigensystem checks."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from mqcnmr.config import load_molecule, preset_path
import mqcnmr
from mqcnmr import hamiltonian, runner, sequence
from mqcnmr.config import config_from_dict
from mqcnmr.errors import (DegenerateGeometryError, GridSizeError, MqcnmrError,
                           TrivialSystemError)
from mqcnmr.hamiltonian import (GAMMA_PROTON, SpinSystem, dipolar_frequency, eigendecompose,
                                secular_hamiltonian)
from mqcnmr.operators import collective_angular_momentum

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
        SpinSystem(np.zeros((2, 3)))  # not square
    with pytest.raises(MqcnmrError):
        SpinSystem(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(MqcnmrError):
        SpinSystem(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(MqcnmrError):
        SpinSystem(np.zeros((2, 2)), order_parameter=1.5)
    with pytest.raises(MqcnmrError):
        SpinSystem.from_positions(np.zeros((2, 2)))  # not N x 3
    for bad in (np.nan, np.inf):
        with pytest.raises(MqcnmrError, match="non-finite"):
            SpinSystem(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(MqcnmrError, match="non-finite"):
        SpinSystem.from_positions([[0.0, 0.0, 0.0], [0.0, np.nan, 2.0e-10]])
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    mol = SpinSystem(table, 0.6)
    assert mol.n_sites == 2 and not mol.couplings_hz.flags.writeable
    table[0, 1] = 5.0  # the molecule keeps its own copy
    assert mol.couplings_hz[0, 1] == 1.0


def test_coupling_table_from_positions():
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0e-10], [2.0e-10, 0.0, 0.0]])
    table = SpinSystem.from_positions(pos).couplings_hz
    np.testing.assert_allclose(table, table.T, atol=0)
    assert np.all(np.diag(table) == 0)
    np.testing.assert_allclose(table[0, 1], -2.0 * PAIR_PREFACTOR_2A, rtol=1e-6)
    np.testing.assert_allclose(table[0, 2], PAIR_PREFACTOR_2A, rtol=1e-6)


_ANGSTROM = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(sites=st.lists(st.tuples(_ANGSTROM, _ANGSTROM, _ANGSTROM), min_size=2, max_size=6),
       gamma=st.floats(0.1 * GAMMA_PROTON, 2.0 * GAMMA_PROTON), s=st.floats(0.25, 4.0),
       angle=st.floats(0.0, 2.0 * np.pi))
def test_from_positions_follows_the_dipolar_law(sites, gamma, s, angle):
    pos = 1e-10 * np.array(sites)
    pairs = [(j, k) for j in range(len(sites)) for k in range(j + 1, len(sites))]
    assume(all(np.linalg.norm(pos[k] - pos[j]) >= 0.5e-10 for j, k in pairs))
    table = SpinSystem.from_positions(pos, gamma=gamma).couplings_hz
    assert np.array_equal(table, table.T) and np.all(np.diag(table) == 0.0)
    assert all(table[j, k] == dipolar_frequency(pos[k] - pos[j], gamma) for j, k in pairs)
    c, sn = np.cos(angle), np.sin(angle)
    rotated = pos @ np.array([[c, sn, 0.0], [-sn, c, 0.0], [0.0, 0.0, 1.0]])
    scaled = SpinSystem.from_positions(s * pos, gamma=gamma).couplings_hz
    turned = SpinSystem.from_positions(rotated, gamma=gamma).couplings_hz
    for j, k in pairs:
        # the pair's coupling without its angular factor: near the magic angle
        # the entry itself is of the order of its rounding
        size = dipolar_frequency([np.linalg.norm(pos[k] - pos[j]), 0.0, 0.0], gamma)
        assert abs(scaled[j, k] - table[j, k] / s ** 3) <= 1e-12 * size / s ** 3
        assert abs(turned[j, k] - table[j, k]) <= 1e-12 * size


def test_from_positions_fills_its_table_a_row_at_a_time(monkeypatch):
    # row j's pairs (j, k > j) take one dipolar_frequency call: n - 1 in all
    n, calls = 40, []

    def counted(r_jk, gamma):
        calls.append(np.shape(r_jk))
        return dipolar_frequency(r_jk, gamma)

    monkeypatch.setattr(hamiltonian, "dipolar_frequency", counted)
    pos = 1e-10 * np.column_stack([np.arange(n), np.random.default_rng(4).normal(size=(n, 2))])
    table = SpinSystem.from_positions(pos).couplings_hz
    assert len(calls) <= n - 1
    assert all(table[j, k] == dipolar_frequency(pos[k] - pos[j])
               for j in range(n) for k in range(j + 1, n))


def test_secular_hamiltonian_two_spin_spectrum():
    # analytic eigenvalues: 2 pi w_D sqrt(2/3) T20 spectrum scaled by S_zz;
    # sqrt(2/3)/sqrt(6) = 1/3 gives S_zz * 2 pi w_D * {1/6, 1/6, 0, -1/3}
    w_d, s_zz = 5000.0, 0.6
    table = np.array([[0.0, w_d], [w_d, 0.0]])
    sys2 = SpinSystem(table, s_zz)
    h = ref.dense_from_blocks(secular_hamiltonian(sys2), 4)
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
    sys3 = SpinSystem(table, 0.7)
    np.testing.assert_allclose(ref.dense_from_blocks(secular_hamiltonian(sys3), 8),
                               ref.ham_ref(table, 0.7), atol=1e-9)
    with pytest.raises(TrivialSystemError):
        secular_hamiltonian(SpinSystem(np.zeros((1, 1))))


def _example_eig(n=3, seed=3, s_zz=0.7):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-5000, 5000)
    sys_n = SpinSystem(table, s_zz)
    reg = sys_n.register()
    blocks = secular_hamiltonian(sys_n)
    return table, sys_n, reg, ref.dense_from_blocks(blocks, reg.dim), eigendecompose(blocks, s_zz)


def test_eigendecompose_blocks_and_reconstruction():
    _, _, reg, h, eig = _example_eig()
    # m blocks of a 3-spin system have sizes 1, 3, 3, 1
    m = ref.eigen_m(eig)
    counts = [np.sum(m == mv) for mv in (1.5, 0.5, -0.5, -1.5)]
    assert counts == [1, 3, 3, 1]
    m_basis = reg.m_values()
    for rows, cols, v_m in eig.blocks:
        assert np.all(m_basis[rows] == m[cols]) and v_m.shape == (rows.size, m[cols].size)
    v = ref.vectors(eig)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(reg.dim), atol=1e-12)
    np.testing.assert_allclose((v * (eig.order_parameter * eig.zeta)) @ v.conj().T,
                               h, atol=1e-9)
    # every eigenvector has definite m
    iz = collective_angular_momentum(reg, "z")
    np.testing.assert_allclose(iz @ v, v * m, atol=1e-12)


def test_eigendecompose_zeta_excludes_order_parameter():
    table = np.array([[0.0, 5000.0], [5000.0, 0.0]])
    zetas = []
    for s_zz in (0.3, 0.9):
        sys2 = SpinSystem(table, s_zz)
        reg = sys2.register()
        eig = eigendecompose(secular_hamiltonian(sys2), s_zz)
        zetas.append(np.sort(eig.zeta))
    np.testing.assert_allclose(zetas[0], zetas[1], atol=1e-9)
    expected = np.sort(2 * np.pi * 5000.0 * np.array([1 / 6, 1 / 6, 0.0, -1 / 3]))
    np.testing.assert_allclose(zetas[0], expected, atol=1e-9)


def test_degeneracy_labels():
    table = np.array([[0.0, 5000.0], [5000.0, 0.0]])
    sys2 = SpinSystem(table)
    reg = sys2.register()
    eig = eigendecompose(secular_hamiltonian(sys2))
    # the doubly degenerate zeta = 2 pi w / 6 level gets labels 0 and 1
    top = np.isclose(eig.zeta, 2 * np.pi * 5000.0 / 6)
    s = ref.degeneracy_labels(eig)
    assert sorted(s[top].tolist()) == [0, 1]
    assert np.all(s[~top] == 0)


SHIPPED_MOLECULES = ("two_spin", "four_spin_test", "eight_spin_test")


@pytest.mark.parametrize("name", SHIPPED_MOLECULES)
def test_eigen_labels_match_svd_scaled_oracle_on_shipped_molecules(name):
    mol = load_molecule(preset_path(f"molecules/{name}.yaml"))
    reg = mol.register()
    blocks = secular_hamiltonian(mol)
    h = ref.dense_from_blocks(blocks, reg.dim)
    eig = eigendecompose(blocks, mol.order_parameter)
    zeta, s = ref.eigen_labels_svd(h, reg.m_values(), mol.order_parameter)
    assert np.array_equal(eig.zeta, zeta) and np.array_equal(ref.degeneracy_labels(eig), s)
    # the largest |eigenvalue| is the spectral norm the labels are scaled by
    hnorm = np.linalg.norm(h, 2)
    assert abs(np.max(np.abs(eig.zeta)) * abs(mol.order_parameter) - hnorm) <= 4e-16 * hnorm


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), s_zz=st.floats(-0.5, 1.0),
       couplings=st.lists(st.sampled_from([0.0, 1500.0, -3000.0, 4500.0]) | st.floats(-2e4, 2e4),
                          min_size=15, max_size=15))
def test_eigen_labels_match_svd_scaled_oracle(n, s_zz, couplings):
    # repeated coupling values give exactly degenerate levels to label
    table = np.zeros((n, n))
    table[np.triu_indices(n, 1)] = couplings[:n * (n - 1) // 2]
    table = table + table.T
    mol = SpinSystem(table, s_zz)
    reg = mol.register()
    blocks = secular_hamiltonian(mol)
    eig = eigendecompose(blocks, s_zz)
    zeta, s = ref.eigen_labels_svd(ref.dense_from_blocks(blocks, reg.dim), reg.m_values(), s_zz)
    assert np.array_equal(eig.zeta, zeta) and np.array_equal(ref.degeneracy_labels(eig), s)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), s_zz=st.floats(-0.5, 1.0),
       couplings=st.lists(st.one_of(st.just(0.0), st.floats(-2e4, 2e4)),
                          min_size=28, max_size=28))
def test_secular_hamiltonian_equals_dense_t20_sum(n, s_zz, couplings):
    # the blocks are those of the Kronecker-built H summed in the package's
    # order, bit for bit, and of ham_ref to rounding; each joins states of
    # one m, so together they commute with I_z
    table = np.zeros((n, n))
    table[np.triu_indices(n, 1)] = couplings[:n * (n - 1) // 2]
    table += table.T
    sys_n = SpinSystem(table, s_zz)
    m_basis = sys_n.register().m_values()
    blocks = secular_hamiltonian(sys_n)
    dense = ref.secular_sum_ref(table, s_zz)
    assert len(blocks) == n + 1
    assert all(np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
               for got, want in zip(blocks, ref.m_blocks(dense, m_basis)))
    h = ref.dense_from_blocks(blocks, 2 ** n)
    assert np.array_equal(h, dense) and ref.iz_commutator(h, m_basis) == 0.0
    want = ref.ham_ref(table, s_zz)
    scale = max(np.abs(want).max(), 1.0)
    assert ref.iz_commutator(want, m_basis) <= 1e-12 * scale
    np.testing.assert_allclose(h, want, rtol=0, atol=1e-12 * scale)


def test_secular_hamiltonian_geometry_molecule_equals_dense_t20_sum():
    pos = 1e-10 * np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.4], [1.7, 0.3, 1.1],
                            [2.2, -1.9, 0.4], [-0.8, 1.3, 3.0]])
    sys5 = SpinSystem.from_positions(pos, 0.45)
    assert np.array_equal(ref.dense_from_blocks(secular_hamiltonian(sys5), 32),
                          ref.secular_sum_ref(sys5.couplings_hz, 0.45))


def test_secular_hamiltonian_memory_at_ten_spins():
    rng = np.random.default_rng(4)
    table = np.zeros((10, 10))
    table[np.triu_indices(10, 1)] = rng.uniform(-5000, 5000, size=45)
    sys10 = SpinSystem(table + table.T, 0.6)
    tracemalloc.start()
    try:
        blocks = secular_hamiltonian(sys10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # sum_m C(10, m)^2 = C(20, 10) entries, against 4^10 for a dense H
    nbytes = sum(h.nbytes for _, h in blocks)
    assert nbytes == 16 * 184756
    # the blocks, and the temporaries of the largest block's hermiticity
    # check: its conjugate, the difference and its modulus (2.5 blocks of
    # C(10, 5)^2); a dense H would be 16 MiB
    largest = max(h.nbytes for _, h in blocks)
    assert peak < nbytes + 3 * largest, f"peak {peak / 2 ** 20:.1f} MiB"
    assert abs(sum(np.trace(h) for _, h in blocks)) < 1e-6


def _random_doc(n, seed=8):
    """A closed run on n sites, every pair coupled at random, with an MREV-8
    block and one tau of one cycle."""
    rng = np.random.default_rng(seed)
    couplings = [[j, k, float(rng.uniform(-5000, 5000))] for j in range(n)
                 for k in range(j + 1, n)]
    return {"molecule": {"order_parameter": 0.6, "couplings_hz": couplings},
            "sequence": {"t_p": 0.0, "block": {"type": "mrev8", "tau1": 5e-6},
                         "tau_schedule": [6e-5], "grid": {"n_t": 2, "dt": 1e-6, "n_phi": 1}}}


def test_eigensystem_build_holds_no_dense_matrix():
    n = 8
    cfg = config_from_dict(_random_doc(n))
    tracemalloc.start()
    try:
        eig = runner.build_eigensystem(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4 ** n, f"peak {peak} B"
    assert sum(v.size for _, _, v in eig.blocks) == 12870  # C(16, 8)


class _Built(Exception):
    pass


def test_eigensystem_memory_charge_at_twelve_and_thirteen_spins(monkeypatch):
    # H's and V's m blocks, 2 C(2N, N), and the three 2^N x 2^N arrays of any
    # run on them, 3 x 4^N: at N = 12 about 892 MB, inside the 2 GiB budget,
    # and refused one byte below; at N = 13 about 3554 MB, refused.  Nothing
    # is built: the Hamiltonian's build stops the call
    def stop(*args):
        raise _Built

    monkeypatch.setattr(runner, "secular_hamiltonian", stop)
    twelve, thirteen = (config_from_dict(_random_doc(n)) for n in (12, 13))
    estimate = 16 * (2 * 2_704_156 + 3 * 4 ** 12) + sequence.SMALL_ARRAY_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(_Built):
            runner.build_eigensystem(twelve)
        with pytest.raises(GridSizeError, match="a run on 13 spins needs about 3554 MB, "
                                                "over the budget of 2147 MB"):
            runner.build_eigensystem(thirteen)
        monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", estimate)
        with pytest.raises(_Built):
            runner.build_eigensystem(twelve)
        monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", estimate - 1)
        with pytest.raises(GridSizeError, match="a run on 12 spins needs about 892 MB"):
            runner.build_eigensystem(twelve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} B"


_FRESH_VERIFY = """
import json, sys, tracemalloc
from mqcnmr import sequence
from mqcnmr.config import config_from_dict
from mqcnmr.errors import GridSizeError
from mqcnmr.runner import verify_stage

cfg = config_from_dict(json.loads(sys.argv[1]))
tracemalloc.start()
verify_stage(cfg, max_residual=2.0)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
sequence.MEMORY_BUDGET_BYTES = peak
try:
    verify_stage(cfg, max_residual=2.0)
except GridSizeError:
    print("refused", peak)
else:
    print("accepted", peak)
"""


def test_verify_stage_memory_charge_covers_a_fresh_process():
    # verify-reversion has no gate of its own: the eigensystem's charge
    # covers its V blocks and the three 2^N x 2^N arrays of its unitarity
    # check, so the first run in a new interpreter, eigensystem build
    # included, is refused a budget at its traced peak (N = 8).  No step
    # imports numpy.ma (see test_imports), so nothing is imported before the
    # trace
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mqcnmr.__file__))}
    result = subprocess.run([sys.executable, "-c", _FRESH_VERIFY, json.dumps(_random_doc(8))],
                            capture_output=True, text=True, env=env, check=True, timeout=300)
    assert result.stdout.split()[0] == "refused", result.stdout


def test_gaps_and_coherence_orders():
    _, _, _, _, eig = _example_eig(n=2, seed=1)
    gaps = ref.gaps(eig)
    np.testing.assert_allclose(gaps, -gaps.T, atol=0)
    np.testing.assert_allclose(np.diag(gaps), 0, atol=0)
    orders = ref.eigen_coherence_orders(eig)
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
                                   expm(-1j * h * t), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), s_zz=st.floats(-0.5, 1.0),
       couplings=st.lists(st.sampled_from([0.0, -0.0, 1500.0, -3000.0]) | st.floats(-2e4, 2e4),
                          min_size=15, max_size=15),
       pick=st.integers(0, 14), delta=st.sampled_from([1.0, -250.0, 1e-3]))
def test_spin_systems_compare_and_hash_by_value(n, s_zz, couplings, pick, delta):
    # equal tables (a copy, or -0.0 in place of 0.0) give equal molecules with
    # equal hashes; one changed coupling or S_zz gives unequal ones
    table = np.zeros((n, n))
    table[np.triu_indices(n, 1)] = couplings[:n * (n - 1) // 2]
    table = table + table.T
    mol = SpinSystem(table, s_zz)
    twin = SpinSystem(np.where(table == 0.0, -0.0, table).copy(), s_zz)
    assert mol == twin and hash(mol) == hash(twin)
    assert len({mol, twin}) == 1 and {mol: 1}[twin] == 1
    j, k = np.triu_indices(n, 1)
    j, k = j[pick % j.size], k[pick % k.size]
    changed = table.copy()
    changed[j, k] = changed[k, j] = table[j, k] + delta
    assume(changed[j, k] != table[j, k])
    assert mol != SpinSystem(changed, s_zz)
    other_s_zz = s_zz - 0.25 if s_zz > 0.0 else s_zz + 0.25
    assert mol != SpinSystem(table, other_s_zz)
    assert mol != SpinSystem(np.zeros((n + 1, n + 1)), s_zz) and mol != "molecule"


@pytest.mark.parametrize("n", range(1, 9))
def test_i_plus_blocks_are_the_collective_operator_in_the_eigenbasis(n):
    # each (m + 1, m) block is V_{m+1}^dagger X V_m, bit for bit, with X read
    # from I_x + i I_y; one spin has no Hamiltonian, so its blocks are zero
    if n == 1:
        blocks = tuple((np.array([r]), np.zeros((1, 1), dtype=complex)) for r in (0, 1))
    else:
        table = np.triu(np.random.default_rng(n).uniform(-5000.0, 5000.0, (n, n)), 1)
        blocks = secular_hamiltonian(SpinSystem(table + table.T, 0.6))
    eig = eigendecompose(blocks, 0.6)
    reg = eig.reg
    i_plus = collective_angular_momentum(reg, "x") + 1j * collective_angular_momentum(reg, "y")
    assert len(eig.i_plus) == n
    for (rows_up, _, v_up), (rows, _, v), x in eig.i_plus:
        assert np.array_equal(x, v_up.conj().T @ (i_plus[np.ix_(rows_up, rows)] @ v))


def test_eigensystem_holds_i_plus_and_one_cycle():
    table = np.array([[0.0, 4000.0, -900.0], [4000.0, 0.0, 2500.0], [-900.0, 2500.0, 0.0]])
    eig = eigendecompose(secular_hamiltonian(SpinSystem(table, 0.6)), 0.6)
    reg = eig.reg
    i_plus = collective_angular_momentum(reg, "x") + 1j * collective_angular_momentum(reg, "y")
    v = ref.vectors(eig)
    np.testing.assert_allclose(ref.dense_blocks(eig, eig.i_plus), v.conj().T @ i_plus @ v,
                               rtol=0, atol=1e-12)
    assert eig.i_plus is eig.i_plus
    assert not any(x.flags.writeable for _, _, x in eig.i_plus)
    assert sum(x.size for _, _, x in eig.i_plus) == 15  # C(6, 2) of 4^3
    builds = []

    def build(value):
        def make():
            builds.append(value)
            return np.full((2, 2), value, dtype=complex)
        return make

    assert eig.cycles_held == 0
    first = eig.held_cycle(1e-6, build(1.0))
    assert eig.held_cycle(1e-6, build(2.0)) is first and builds == [1.0]
    assert eig.cycles_held == 1 and not first.flags.writeable
    # one entry: another key replaces it, and the first key builds again
    assert eig.held_cycle(2e-6, build(3.0))[0, 0] == 3.0
    assert eig.held_cycle(1e-6, build(4.0))[0, 0] == 4.0 and builds == [1.0, 3.0, 4.0]
    # two entries, as a sweep over two spacings keeps: both keys stay held,
    # and a third key lets the oldest go
    two = dataclasses.replace(eig, cycle_slots=2)
    assert two.cycles_held == 0 and eig.cycles_held == 1
    first, second = two.held_cycle(1e-6, build(5.0)), two.held_cycle(2e-6, build(6.0))
    assert two.held_cycle(1e-6, build(7.0)) is first and two.held_cycle(2e-6, build(7.0)) is second
    assert two.cycles_held == 2 and builds == [1.0, 3.0, 4.0, 5.0, 6.0]
    assert two.held_cycle(3e-6, build(8.0))[0, 0] == 8.0 and two.cycles_held == 2
    assert two.held_cycle(2e-6, build(9.0)) is second
    assert two.held_cycle(1e-6, build(10.0))[0, 0] == 10.0
    assert builds == [1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
    # one setup: another key lets it go before its own is built
    setup = eig.held_setup((0.0, None), lambda: ("a",))
    assert eig.held_setup((0.0, None), lambda: ("b",)) is setup and eig.holds_setup((0.0, None))
    assert eig.held_setup((1e-5, None), lambda: ("c",)) == ("c",)
    assert not eig.holds_setup((0.0, None))
