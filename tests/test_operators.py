"""Spin-register, rotation and coherence-decomposition checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mqcnmr import hamiltonian, operators
from mqcnmr.errors import InvalidPairError, MqcnmrError
from mqcnmr.hamiltonian import SpinSystem, secular_hamiltonian
from mqcnmr.operators import (SpinRegister, checked_hermitian, checked_unitary,
                              collective_angular_momentum, rotation, t20_pair)
from reference import coherence_order_decompose, coherence_orders, dump_operator, single_spin

INV_SQRT6 = 0.4082482904638631  # 1/sqrt(6)


def test_register_dim_and_bounds():
    assert SpinRegister(1).dim == 2
    assert SpinRegister(10).dim == 1024
    # no ceiling: the memory budget sets the largest size (runner.build_eigensystem)
    assert SpinRegister(11).dim == 2048
    with pytest.raises(MqcnmrError):
        SpinRegister(0)
    with pytest.raises(MqcnmrError):
        SpinRegister(2.5)


def test_m_values_site0_most_significant():
    # index 0 = all spins up; bit value 0 means m = +1/2
    assert np.array_equal(SpinRegister(1).m_values(), [0.5, -0.5])
    assert np.array_equal(SpinRegister(2).m_values(), [1.0, 0.0, 0.0, -1.0])
    m3 = SpinRegister(3).m_values()
    assert m3[0] == 1.5 and m3[-1] == -1.5
    assert np.sum(m3 == 0.5) == 3 and np.sum(m3 == -0.5) == 3


def test_single_spin_matches_reference():
    reg = SpinRegister(3)
    for site in range(3):
        for axis in "xyz":
            np.testing.assert_allclose(single_spin(reg, site, axis),
                                       ref.embed(3, site, axis), atol=1e-15)
    with pytest.raises(MqcnmrError):
        single_spin(reg, 3, "x")
    with pytest.raises(MqcnmrError):
        single_spin(reg, 0, "q")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_angular_momentum_commutators(n):
    reg = SpinRegister(n)
    ix = collective_angular_momentum(reg, "x")
    iy = collective_angular_momentum(reg, "y")
    iz = collective_angular_momentum(reg, "z")
    np.testing.assert_allclose(ix @ iy - iy @ ix, 1j * iz, atol=1e-13)
    np.testing.assert_allclose(iy @ iz - iz @ iy, 1j * ix, atol=1e-13)
    np.testing.assert_allclose(iz @ ix - ix @ iz, 1j * iy, atol=1e-13)
    for op in (ix, iy, iz):
        assert abs(np.trace(op)) < 1e-13


def test_iz_is_diagonal_m():
    reg = SpinRegister(3)
    iz = collective_angular_momentum(reg, "z")
    np.testing.assert_allclose(iz, np.diag(reg.m_values()), atol=0)


def test_rotation_sign_convention():
    # R_x(pi/2) I_z R_x(-pi/2) = I_y fixes the sign of the exponent
    reg = SpinRegister(2)
    rx = rotation(reg, np.pi / 2, "x")
    iz = collective_angular_momentum(reg, "z")
    iy = collective_angular_momentum(reg, "y")
    np.testing.assert_allclose(rx @ iz @ rx.conj().T, iy, atol=1e-13)


def test_rotation_axis_phase_matches_reference():
    reg = SpinRegister(2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta, chi = rng.uniform(-np.pi, np.pi, 2)
        np.testing.assert_allclose(rotation(reg, theta, chi),
                                   ref.rot(2, theta, chi), atol=1e-12)
    # named axes are the chi = 0 and chi = pi/2 special cases
    np.testing.assert_allclose(rotation(reg, 0.3, "x"),
                               rotation(reg, 0.3, 0.0), atol=1e-13)
    np.testing.assert_allclose(rotation(reg, 0.3, "y"),
                               rotation(reg, 0.3, np.pi / 2), atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8),
       theta=st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False),
       axis=st.one_of(st.sampled_from("xyz"),
                      st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)))
def test_rotation_kronecker_power_matches_expm(n, theta, axis):
    # rotation checks unitarity only on its 2x2 factor; its Kronecker power
    # must still be unitary
    u = rotation(SpinRegister(n), theta, axis)
    assert u.dtype == complex and not u.flags.writeable
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2 ** n), rtol=0, atol=1e-12)
    expected = (ref.rotz(n, theta) if axis == "z"
                else ref.rot(n, theta, {"x": 0.0, "y": np.pi / 2}.get(axis, axis)))
    np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), axis=st.sampled_from("xyz"))
def test_collective_angular_momentum_matches_kron_sum(n, axis):
    op = collective_angular_momentum(SpinRegister(n), axis)
    assert op.dtype == complex and not op.flags.writeable
    np.testing.assert_array_equal(op, ref.coll(n, axis))


def test_rotation_composition_and_z():
    reg = SpinRegister(3)
    r1 = rotation(reg, 0.4, 1.1)
    r2 = rotation(reg, 0.9, 1.1)
    r12 = rotation(reg, 1.3, 1.1)
    np.testing.assert_allclose(r1 @ r2, r12, atol=1e-12)
    rz = rotation(reg, 0.7, "z")
    np.testing.assert_allclose(rz, ref.rotz(3, 0.7), atol=1e-12)
    with pytest.raises(MqcnmrError):
        rotation(reg, np.inf, "x")


def test_t20_pair_two_spin_explicit():
    # basis |uu>, |ud>, |du>, |dd>
    reg = SpinRegister(2)
    expected = np.array([
        [0.5, 0.0, 0.0, 0.0],
        [0.0, -0.5, -0.5, 0.0],
        [0.0, -0.5, -0.5, 0.0],
        [0.0, 0.0, 0.0, 0.5],
    ]) / np.sqrt(6.0)
    np.testing.assert_allclose(t20_pair(reg, 0, 1), expected, atol=1e-14)
    w = np.sort(np.linalg.eigvalsh(expected))
    np.testing.assert_allclose(w, [-INV_SQRT6, 0.0, INV_SQRT6 / 2, INV_SQRT6 / 2],
                               atol=1e-14)


def test_t20_pair_properties():
    reg = SpinRegister(3)
    t = t20_pair(reg, 0, 2)
    iz = collective_angular_momentum(reg, "z")
    assert abs(np.trace(t)) < 1e-13
    np.testing.assert_allclose(t @ iz, iz @ t, atol=1e-13)
    np.testing.assert_allclose(t, ref.t20_ref(3, 0, 2), atol=1e-13)
    np.testing.assert_allclose(t20_pair(reg, 2, 0), t, atol=1e-14)
    with pytest.raises(InvalidPairError):
        t20_pair(reg, 1, 1)
    with pytest.raises(InvalidPairError):
        t20_pair(reg, 0, 3)


def test_t20_pair_from_bits_equals_kronecker_reference():
    for n in range(2, 9):
        reg = SpinRegister(n)
        for j in range(n):
            for k in range(n):
                if j != k:
                    assert np.array_equal(t20_pair(reg, j, k), ref.t20_ref(n, j, k)), \
                        (n, j, k)


def test_coherence_orders_range():
    reg = SpinRegister(2)
    orders = coherence_orders(reg)
    assert orders[0, 3] == 2 and orders[3, 0] == -2
    assert orders.min() == -2 and orders.max() == 2
    assert np.all(np.diag(orders) == 0)


def test_decomposition_reconstructs_and_rotates():
    reg = SpinRegister(3)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    comps = coherence_order_decompose(a, reg)
    np.testing.assert_allclose(sum(comps.values()), a, atol=1e-14)
    rz = rotation(reg, 0.37, "z")
    for nu, comp in comps.items():
        np.testing.assert_allclose(rz @ comp @ rz.conj().T,
                                   np.exp(1j * nu * 0.37) * comp, atol=1e-12)


def test_decomposition_matches_fourier_extraction():
    # brute-force oracle: project out order nu by a discrete phase average
    reg = SpinRegister(2)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    comps = coherence_order_decompose(a, reg)
    n_ph = 2 * reg.n_spins + 1
    for nu in range(-2, 3):
        acc = np.zeros((4, 4), dtype=complex)
        for k in range(n_ph):
            phi = 2 * np.pi * k / n_ph
            rz = ref.rotz(2, phi)
            acc += np.exp(-1j * nu * phi) * (rz @ a @ rz.conj().T)
        acc /= n_ph
        np.testing.assert_allclose(comps.get(nu, np.zeros((4, 4))), acc, atol=1e-13)


def _two_spin_hamiltonian():
    """The m blocks of a two-spin H: sizes 1, 2 and 1."""
    table = np.array([[0.0, 4200.0], [4200.0, 0.0]])
    return secular_hamiltonian(SpinSystem(table, 0.6))


def test_operator_checks_count_a_nan_error_as_a_failure():
    # NaN > atol is False, so a check written that way passed a NaN operator
    with pytest.raises(MqcnmrError, match="by nan"):
        checked_hermitian(np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(MqcnmrError, match="by nan"):
        checked_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_operator_checks_reject_invalid_operators(monkeypatch):
    good = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.array_equal(checked_hermitian(good), good)
    with pytest.raises(MqcnmrError):
        checked_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(checked_unitary(good), good)
    with pytest.raises(MqcnmrError):
        checked_unitary(2.0 * np.eye(2))
    with pytest.raises(MqcnmrError):
        rotation(SpinRegister(2), np.nan, "x")
    with pytest.raises(MqcnmrError, match="axis must be one of x, y, z, got 'w'"):
        collective_angular_momentum(SpinRegister(2), "w")

    # each constructor runs its check: the hermiticity check on the full operator
    # (on each m block of H, the first of them 1 x 1), rotation's unitarity
    # check on its 2x2 single-spin factor
    def reject(a):
        raise MqcnmrError(f"rejected shape {np.shape(a)}")

    monkeypatch.setattr(operators, "checked_hermitian", reject)
    monkeypatch.setattr(hamiltonian, "checked_hermitian", reject)
    monkeypatch.setattr(operators, "checked_unitary", reject)
    reg = SpinRegister(2)
    for build in (lambda: collective_angular_momentum(reg, "x"),
                  lambda: collective_angular_momentum(reg, "z"),
                  lambda: t20_pair(reg, 0, 1)):
        with pytest.raises(MqcnmrError, match=r"shape \(4, 4\)"):
            build()
    with pytest.raises(MqcnmrError, match=r"shape \(1, 1\)"):
        _two_spin_hamiltonian()
    for axis in ("x", "z", 0.3):
        with pytest.raises(MqcnmrError, match=r"shape \(2, 2\)"):
            rotation(reg, 0.5, axis)


def test_operators_are_read_only():
    reg = SpinRegister(2)
    for op in (collective_angular_momentum(reg, "x"), collective_angular_momentum(reg, "z"),
               rotation(reg, 0.4, 1.1), rotation(reg, 0.4, "z"), t20_pair(reg, 0, 1),
               *(h for _, h in _two_spin_hamiltonian())):
        assert isinstance(op, np.ndarray) and op.dtype == complex
        with pytest.raises(ValueError):
            op[0, 0] = 5.0


def test_dump_operator_round_trip():
    reg = SpinRegister(1)
    text = dump_operator(collective_angular_momentum(reg, "y"))
    rows = [[complex(tok) for tok in line.split()] for line in text.strip().splitlines()]
    np.testing.assert_allclose(np.array(rows),
                               collective_angular_momentum(reg, "y"), atol=1e-15)
