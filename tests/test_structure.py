"""The structured operators of the closed engine against the dense oracles in
reference.py: Kronecker-half pulses, m-block free evolutions and m-block
basis changes, and the run setup built on I_+'s (m + 1, m) blocks, for
N = 1-8; and the eigensystem eigendecompose reads from the m blocks' rows
alone, in block order whatever the order of the blocks it is given."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from mqcnmr.errors import MqcnmrError
from mqcnmr.hamiltonian import eigendecompose
from mqcnmr.operators import SpinRegister, kron_apply, kron_conjugate, rotation_halves
from mqcnmr.sequence import (AcquisitionSpec, FreeEvolution, Pulse, apply, compile_program,
                             default_acquisition, kernel_inputs, prepared_setup)


def random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def secular_blocks(n, rng):
    """The m blocks (rows, H_m) of a random hermitian H that commutes with I_z
    (one random block per total m), in ``secular_hamiltonian``'s layout."""
    reg = SpinRegister(n)
    a = 1e4 * random_matrix(rng, reg.dim, reg.dim)
    return reg, list(ref.m_blocks(a + a.conj().T, reg.m_values()))


def secular_eigensystem(n, seed):
    """The eigensystem of the ``secular_blocks`` of a random H."""
    rng = np.random.default_rng(seed)
    reg, blocks = secular_blocks(n, rng)
    return reg, eigendecompose(blocks, 0.6), rng


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), theta=st.floats(-2 * np.pi, 2 * np.pi),
       axis=st.one_of(st.sampled_from("xyz"), st.floats(-np.pi, np.pi)),
       cols=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_kronecker_half_pulse_matches_dense_rotation(n, theta, axis, cols, seed):
    reg, rng = SpinRegister(n), np.random.default_rng(seed)
    halves = rotation_halves(reg, theta, axis)
    assert [h.shape[0] for h in halves] == [2 ** (n // 2), 2 ** (n - n // 2)]
    dense = (ref.rotz(n, theta) if axis == "z"
             else ref.rot(n, theta, {"x": 0.0, "y": np.pi / 2}.get(axis, axis)))
    x = random_matrix(rng, reg.dim, cols)
    assert_close(kron_apply(halves, x), dense @ x)
    square = random_matrix(rng, reg.dim, reg.dim)
    assert_close(kron_conjugate(halves, square), dense @ square @ dense.conj().T)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), duration=st.floats(0.0, 1e-4), scale=st.sampled_from((1.0, -0.5)),
       seed=st.integers(0, 2 ** 16))
def test_m_block_free_evolution_matches_dense_propagator(n, duration, scale, seed):
    reg, eig, rng = secular_eigensystem(n, seed)
    ev = FreeEvolution(duration, scale)
    u = ref.propagator(eig, duration, scale)
    x = random_matrix(rng, reg.dim, reg.dim)
    assert_close(compile_program([ev], eig), u)
    assert_close(apply(ev, x, eig), u @ x)
    assert_close(ref.conjugate(ev, x, eig), u @ x @ u.conj().T)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
def test_m_block_basis_change_matches_dense(n, seed):
    # to_eigen on a dense matrix, and the I_+ builder under a random weight
    # of the gap S_zz (zeta_a - zeta_b), applied to the dense blocks of I_+
    reg, eig, rng = secular_eigensystem(n, seed)
    v, x = ref.vectors(eig), random_matrix(rng, reg.dim, reg.dim)
    assert_close(eig.to_eigen(x), v.conj().T @ x @ v)
    c, k = random_matrix(rng, 2, 1)[:, 0], rng.uniform(-1e-4, 1e-4, 2)

    def weight(omega):
        return c[0] * np.exp(1j * k[0] * omega) + c[1] * np.cos(k[1] * omega)

    gaps = weight(eig.order_parameter * ref.gaps(eig))
    assert_close(eig.i_plus_product(weight),
                 v @ (ref.dense_blocks(eig, eig.i_plus) * gaps) @ v.conj().T)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), shuffle=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_eigendecompose_reads_m_and_n_from_the_rows(n, shuffle, seed):
    # random secular blocks, each block's rows (with its H_m) and the block
    # order permuted when ``shuffle``: every eigenvector carries the total m
    # of its block's product states, and N comes from the rows' count
    rng = np.random.default_rng(seed)
    reg, blocks = secular_blocks(n, rng)
    m_basis = reg.m_values()
    if shuffle:
        blocks = ref.shuffled_blocks(blocks, rng)
    eig = eigendecompose(blocks, 0.6)
    assert eig.reg.n_spins == n and eig.reg.dim == eig.dim
    v, h = ref.vectors(eig), ref.dense_from_blocks(blocks, reg.dim)
    assert np.array_equal(m_basis[:, None] * v, v * ref.eigen_m(eig))  # I_z V = V diag(m)
    assert_close((v * (0.6 * eig.zeta)) @ v.conj().T, h)
    x = random_matrix(rng, reg.dim, reg.dim)
    assert_close(eig.to_eigen(x), v.conj().T @ x @ v)
    # a block left out, a row left out of a block, two blocks of different
    # m joined into one, and one m's block split in two are refused
    k = int(rng.integers(len(blocks)))
    j = (k + 1) % len(blocks)
    rows = blocks[k][0]
    joined = np.concatenate([rows, blocks[j][0]])
    others = [b for i, b in enumerate(blocks) if i not in (k, j)]
    bads = [blocks[:k] + blocks[k + 1:],
            blocks[:k] + [(rows[1:], h[np.ix_(rows[1:], rows[1:])])] + blocks[k + 1:],
            others + [(joined, h[np.ix_(joined, joined)])]]
    big = max(range(len(blocks)), key=lambda i: blocks[i][0].size)
    if blocks[big][0].size > 1:
        parts = np.split(blocks[big][0], [int(rng.integers(1, blocks[big][0].size))])
        bads.append(blocks[:big] + [(p, h[np.ix_(p, p)]) for p in parts] + blocks[big + 1:])
    for bad in bads:
        with pytest.raises(MqcnmrError):
            eigendecompose(bad, 0.6)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), duration=st.floats(-1e-4, 1e-4), seed=st.integers(0, 2 ** 16))
def test_eigensystem_is_in_block_order_whatever_the_blocks_order(n, duration, seed):
    # random secular blocks in a random order, rows shuffled inside each: the
    # eigenvectors of each m take contiguous columns, the blocks in
    # descending m, and the free evolution and the basis change on that
    # layout match their dense forms
    rng = np.random.default_rng(seed)
    reg, blocks = secular_blocks(n, rng)
    eig = eigendecompose(ref.shuffled_blocks(blocks, rng), 0.6)
    cols = [c for _, c, _ in eig.blocks]
    starts = [0] + [c.stop for c in cols]
    assert cols == [slice(a, b) for a, b in zip(starts, starts[1:])] and starts[-1] == reg.dim
    m = ref.eigen_m(eig)
    assert [m[c.start] for c in cols] == [n / 2 - k for k in range(n + 1)]
    assert np.all(np.diff(m) <= 0)
    v, x = ref.vectors(eig), random_matrix(rng, reg.dim, reg.dim)
    assert_close(eig.evolve(x, duration), ref.propagator(eig, duration) @ x)
    assert_close(eig.to_eigen(x), v.conj().T @ x @ v)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), t_p=st.just(0.0) | st.floats(0.0, 1e-4),
       t_m=st.floats(0.0, 2e-5), window=st.just(0.0) | st.floats(0.0, 4e-6),
       seed=st.integers(0, 2 ** 16))
def test_setup_on_i_plus_blocks_matches_dense_oracles(n, t_p, t_m, window, seed):
    # the prepared state (product basis, and in the eigenbasis from
    # kernel_inputs), the detection matrix and the default acquisition, all
    # built on I_+'s (m + 1, m) blocks, against dense oracles: I_z carried
    # through jb_prepare by dense pulses and propagators, the detection
    # matrix from dense V, R and I_+, and the dense per-step scan (its t_m
    # compared where no two magnitudes up to its decision tie)
    reg, eig, rng = secular_eigensystem(n, seed)
    v = ref.vectors(eig)
    prepared = prepared_setup(eig, t_p)
    rho = ref.coll(n, "z")
    for ev in ref.jb_prepare(t_p):
        u = (ref.rot(n, ev.angle, ev.axis_phase) if isinstance(ev, Pulse)
             else ref.propagator(eig, ev.duration, ev.scale))
        rho = u @ rho @ u.conj().T
    assert not prepared.flags.writeable
    assert_close(prepared, rho)
    acq = AcquisitionSpec(t_m, window)
    got, state, det = kernel_inputs(eig, t_p, acq)
    assert got is acq
    assert_close(state, v.conj().T @ rho @ v)
    assert_close(det, ref.dense_detection(eig, t_m, window))
    h = (v * (eig.order_parameter * eig.zeta)) @ v.conj().T
    t_ref, mags = ref.scan_first_maximum(h, t_p)
    if np.all(np.abs(np.diff(mags)) > 1e-9 * mags.max()):
        assert default_acquisition(eig, prepared).t_m == t_ref
