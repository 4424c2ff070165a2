"""Sequence compilation, reversion blocks and the closed-system grid run."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mqcnmr
import reference as ref
from mqcnmr import sequence
from mqcnmr.errors import ConfigError, GridSizeError, MqcnmrError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.sequence import (AcquisitionSpec, ExperimentGrid, FreeEvolution,
                             MagicSandwichSpec, Mrev8Spec, Pulse, _tau_slab,
                             block_states, compile_program, default_acquisition,
                             magic_sandwich, mrev8_block, pair_order_sums, prepared_setup,
                             run_grid, total_duration, verify_reversion)
from mqcnmr.spectra import fft2_coherence


def make_system(n=2, seed=1, s_zz=0.6, scale_hz=5000.0):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-scale_hz, scale_hz)
    sys_n = SpinSystem(table, s_zz)
    reg = sys_n.register()
    eig = eigendecompose(secular_hamiltonian(sys_n), s_zz)
    return table, sys_n, reg, eig


def test_jb_prepare_structure():
    prep = ref.jb_prepare(2.7e-5)
    assert isinstance(prep[0], Pulse) and prep[0].angle == np.pi / 2
    assert prep[0].axis_phase == 0.0
    assert isinstance(prep[1], FreeEvolution) and prep[1].duration == 2.7e-5
    assert prep[2].angle == np.pi / 4 and prep[2].axis_phase == np.pi / 2
    with pytest.raises(MqcnmrError):
        ref.jb_prepare(-1e-6)


def test_compile_program_matches_reference_chain():
    table, _, reg, eig = make_system(n=3, seed=4)
    u = compile_program(ref.jb_prepare(4e-5), eig)
    h = ref.ham_ref(table, 0.6)
    from scipy.linalg import expm
    u_ref = (ref.rot(3, np.pi / 4, np.pi / 2)
             @ expm(-1j * h * 4e-5)
             @ ref.rot(3, np.pi / 2, 0.0))
    np.testing.assert_allclose(u, u_ref, atol=1e-11)


def test_mrev8_block_shape_and_duration():
    cycle = mrev8_block(5e-6)
    pulses = [ev for ev in cycle if isinstance(ev, Pulse)]
    frees = [ev for ev in cycle if isinstance(ev, FreeEvolution)]
    assert len(pulses) == 8 and len(frees) == 9
    assert all(p.angle == np.pi / 2 for p in pulses)
    np.testing.assert_allclose(total_duration(cycle), 12 * 5e-6, rtol=1e-12)
    np.testing.assert_allclose(total_duration(mrev8_block(5e-6, 3)), 36 * 5e-6,
                               rtol=1e-12)
    with pytest.raises(MqcnmrError):
        mrev8_block(0.0)
    with pytest.raises(MqcnmrError):
        mrev8_block(5e-6, 0)


def test_mrev8_pulses_alone_compose_to_identity():
    # with H = 0 the delays do nothing and the 8 pulses must cancel
    table = np.zeros((2, 2))
    sys2 = SpinSystem(table)
    reg = sys2.register()
    eig = eigendecompose(secular_hamiltonian(sys2))
    u = compile_program(mrev8_block(5e-6), eig)
    theta = np.angle(np.trace(u))
    np.testing.assert_allclose(u, np.exp(1j * theta) * np.eye(4), atol=1e-12)


def test_mrev8_residual_third_order_in_tau1():
    _, _, reg, eig = make_system(n=3, seed=4)
    residuals = []
    for tau1 in (20e-6, 10e-6, 5e-6):
        report = verify_reversion(mrev8_block(tau1), eig)
        residuals.append(report.residual)
    # each halving of tau1 should cut the residual by about 8 (third order)
    assert residuals[0] / residuals[1] > 5.0
    assert residuals[1] / residuals[2] > 5.0
    assert residuals[2] < 1e-3


def test_magic_sandwich_exact_identity():
    _, _, reg, eig = make_system(n=3, seed=8)
    events = magic_sandwich(1e-4)
    np.testing.assert_allclose(total_duration(events), 1.5e-4, rtol=1e-12)
    report = verify_reversion(events, eig)
    assert report.residual < 1e-12
    assert report.effective_norm < 1e-7
    with pytest.raises(MqcnmrError):
        magic_sandwich(0.0)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("block, tau", [(Mrev8Spec(tau1=5e-6), 60e-6),
                                        (Mrev8Spec(tau1=2e-6), 48e-6),
                                        (Mrev8Spec(tau1=5e-6, mode="stretch"), 100e-6),
                                        (MagicSandwichSpec(), 150e-6)])
def test_reversion_figures_match_svd_and_logm(n, block, tau):
    # the eigenvalue figures against the SVD residual and the logm generator;
    # MREV-8 at N = 2 and every magic sandwich compile to the identity, where
    # both figures are rounding (residual ~1e-15) and only the floor applies
    _, _, reg, eig = make_system(n=n, seed=5)
    events = block.events_for(tau)
    report = verify_reversion(events, eig)
    residual, norm = ref.reversion_figures(compile_program(events, eig), tau)
    assert report.duration == pytest.approx(tau, rel=1e-12)
    np.testing.assert_allclose(report.residual, residual, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(report.effective_norm, norm, rtol=1e-9, atol=1e-12 / tau)


def test_block_specs():
    spec = Mrev8Spec(tau1=5e-6)
    assert spec.cycle_time == pytest.approx(60e-6)
    assert spec.events_for(0.0) == ()
    assert total_duration(spec.events_for(120e-6)) == pytest.approx(120e-6)
    with pytest.raises(ConfigError):
        spec.events_for(70e-6)
    np.testing.assert_allclose(ref.tau_schedule(spec, 3), [0.0, 60e-6, 120e-6])

    stretch = Mrev8Spec(tau1=5e-6, mode="stretch")
    ev = stretch.events_for(240e-6)
    np.testing.assert_allclose(total_duration(ev), 240e-6, rtol=1e-12)
    assert len([e for e in ev if isinstance(e, Pulse)]) == 8

    ms = MagicSandwichSpec()
    assert ms.events_for(0.0) == ()
    np.testing.assert_allclose(total_duration(ms.events_for(1.5e-4)), 1.5e-4,
                               rtol=1e-12)
    with pytest.raises(ConfigError):
        Mrev8Spec(tau1=5e-6, mode="other")
    with pytest.raises(MqcnmrError, match="negative evolution duration"):
        FreeEvolution(-1e-6)


def test_block_states_match_the_compiled_chain():
    _, _, reg, eig = make_system(n=3, seed=4)
    rng = np.random.default_rng(5)
    state = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    v = ref.vectors(eig)

    def carried(u):
        w = v.conj().T @ u @ v
        return w @ state @ w.conj().T

    block = Mrev8Spec(tau1=5e-6)
    counts = (3, 0, 1, 4, 2)  # unsorted on purpose
    states = list(block_states(block, [n * block.cycle_time for n in counts], eig, state))
    assert states[1] is state
    for n, sigma in zip(counts, states):
        if n:
            np.testing.assert_allclose(
                sigma, carried(compile_program(mrev8_block(5e-6, n), eig)), rtol=0, atol=1e-12)
    with pytest.raises(ConfigError):
        block_states(block, [0.0, 70e-6], eig, state)
    # a stretched cycle and a magic sandwich carry the state alike
    for other, tau in ((Mrev8Spec(tau1=5e-6, mode="stretch"), 240e-6),
                       (MagicSandwichSpec(), 1.5e-4)):
        (sigma,) = block_states(other, [tau], eig, state)
        np.testing.assert_allclose(sigma, carried(compile_program(other.events_for(tau), eig)),
                                   rtol=0, atol=1e-12)
    assert [s is state for s in block_states(None, [0.0, 1e-4], eig, state)] == [True, True]


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["concatenate", "stretch"]),
       counts=st.lists(st.integers(0, 3), min_size=1, max_size=8),
       unit=st.floats(1e-5, 1e-4), held=st.booleans())
def test_block_states_match_the_compiled_chain_for_any_schedule(mode, counts, unit, held):
    # unsorted taus with zeros and repeats; a "stretch" tau is any multiple of
    # ``unit``.  A "concatenate" schedule with one bad tau is refused before
    # anything is compiled.  With ``held`` the eigensystem first holds an
    # operator under a spacing no tau uses, which no state may read
    _, _, reg, eig = make_system(n=3, seed=4)
    block = Mrev8Spec(tau1=5e-6, mode=mode)
    taus = [n * (block.cycle_time if mode == "concatenate" else unit) for n in counts]
    with pytest.raises(ConfigError):
        block_states(Mrev8Spec(tau1=5e-6), [n * 60e-6 for n in counts] + [70e-6], eig, None)
    assert not eig.holds_cycle
    if held:
        eig.held_cycle(-1.0, lambda: np.ones((8, 8), dtype=complex))
    rng = np.random.default_rng(len(counts))
    state = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    v = ref.vectors(eig)
    for tau, sigma in zip(taus, block_states(block, taus, eig, state)):
        w = v.conj().T @ compile_program(block.events_for(tau), eig) @ v
        np.testing.assert_allclose(sigma, w @ state @ w.conj().T, rtol=0, atol=1e-12)


def test_stretched_run_compiles_one_cycle_per_tau(monkeypatch):
    # each nonzero tau of a stretched block is one compiled cycle
    _, _, reg, eig = make_system(n=3, seed=2)
    calls = {"compile_program": 0}

    def counted(name):
        fn = getattr(sequence, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sequence, name, counted(name))
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=8,
                          taus=(0.0, 6e-5, 1.1e-4, 2.4e-4))
    run_grid(eig, grid, block=Mrev8Spec(tau1=5e-6, mode="stretch"),
             acquisition=AcquisitionSpec(t_m=3e-6, window=2e-6))
    assert calls == {"compile_program": 3}


def test_tau_slab_matches_per_time_loop_on_permuted_basis():
    # the m blocks given to eigendecompose in a random order, with the rows
    # of each shuffled: the kernel matches the per-time loop on that
    # eigensystem, and an MREV-8 run on it gives the signals of one on the
    # blocks as secular_hamiltonian orders them
    _, sys_n, reg, eig = make_system(n=4, seed=6)
    permuted = eigendecompose(ref.shuffled_blocks(secular_hamiltonian(sys_n),
                                                  np.random.default_rng(3)), 0.6)
    rng = np.random.default_rng(9)
    det = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    sigma0 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    ts = 3e-6 * np.arange(6)
    fast = pair_order_sums(_tau_slab(det, sigma0), permuted, permuted.phases(ts))
    slow = ref.order_sums_loop(det, sigma0, permuted.zeta, ref.eigen_m(permuted), 0.6, ts,
                               reg.n_spins)
    np.testing.assert_allclose(fast.T, slow, rtol=0, atol=1e-12 * np.abs(slow).max())
    grid = ExperimentGrid(t_p=4e-5, n_t=6, dt=2e-6, n_phi=10, taus=(0.0, 1.2e-4))
    runs = [run_grid(e, grid, block=Mrev8Spec(tau1=5e-6),
                     acquisition=AcquisitionSpec(t_m=3e-6, window=2e-6)).data
            for e in (eig, permuted)]
    np.testing.assert_allclose(runs[1], runs[0], rtol=0, atol=1e-12 * np.abs(runs[0]).max())


@pytest.mark.parametrize("n,seed", [(2, 1), (3, 4), (4, 6), (5, 2), (6, 7)])
def test_default_acquisition_matches_dense_scan(n, seed):
    table, _, reg, eig = make_system(n=n, seed=seed)
    for t_p in (0.0, 5e-5):
        acq = default_acquisition(eig, prepared_setup(eig, t_p))
        assert acq.t_m == ref.first_maximum_t_m(table, 0.6, t_p)


def test_experiment_grid_validation():
    with pytest.raises(ConfigError):
        ExperimentGrid(t_p=0.0, n_t=1, dt=1e-6, n_phi=4, taus=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentGrid(t_p=0.0, n_t=4, dt=0.0, n_phi=4, taus=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentGrid(t_p=0.0, n_t=4, dt=1e-6, n_phi=0, taus=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentGrid(t_p=0.0, n_t=4, dt=1e-6, n_phi=4, taus=())
    for bad in ({"t_p": np.nan}, {"dt": np.nan}, {"dt": np.inf}, {"taus": (0.0, np.nan)}):
        with pytest.raises(ConfigError):
            ExperimentGrid(**{"t_p": 0.0, "n_t": 4, "dt": 1e-6, "n_phi": 4, "taus": (0.0,), **bad})
    grid = ExperimentGrid(t_p=0.0, n_t=4, dt=1e-6, n_phi=4, taus=(0.0,))
    np.testing.assert_allclose(grid.phis, [0.0, np.pi / 2, np.pi, 1.5 * np.pi])
    np.testing.assert_allclose(grid.ts, [0.0, 1e-6, 2e-6, 3e-6])


@pytest.mark.parametrize("blockname", ["mrev8", "ms", "none"])
def test_run_grid_matches_brute_force(blockname):
    table, _, reg, eig = make_system(n=2, seed=1)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    taus = (0.0, 1.2e-4)
    grid = ExperimentGrid(t_p=5e-5, n_t=5, dt=4e-6, n_phi=5, taus=taus)
    if blockname == "mrev8":
        block = Mrev8Spec(tau1=1e-5)
        events = lambda tau: [] if tau == 0 else ref.mrev8_events(1e-5, round(tau / 1.2e-4))
    elif blockname == "ms":
        block = MagicSandwichSpec()
        events = lambda tau: [] if tau == 0 else ref.magic_sandwich_events(tau)
    else:
        block = None
        events = lambda tau: []
    fast = run_grid(eig, grid, block=block, acquisition=acq).data
    slow = ref.brute_grid(table, 0.6, 5e-5, grid.phis, grid.ts, taus, events,
                          acq.t_m, acq.window, n_quad=2001)
    np.testing.assert_allclose(fast, slow, atol=1e-8)


def test_run_grid_three_spin_point_acquisition():
    table, _, reg, eig = make_system(n=3, seed=12)
    acq = AcquisitionSpec(t_m=4e-6, window=0.0)
    taus = (0.0, 9e-5)
    grid = ExperimentGrid(t_p=3e-5, n_t=3, dt=5e-6, n_phi=7, taus=taus)
    block = MagicSandwichSpec()
    fast = run_grid(eig, grid, block=block, acquisition=acq).data
    slow = ref.brute_grid(table, 0.6, 3e-5, grid.phis, grid.ts, taus,
                          lambda tau: [] if tau == 0 else ref.magic_sandwich_events(tau),
                          acq.t_m, acq.window)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


def test_run_grid_repeat_calls_bit_identical():
    _, _, reg, eig = make_system(n=3, seed=2)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=8, dt=2e-6, n_phi=8,
                          taus=tuple(k * 6e-5 for k in range(5)))
    block = Mrev8Spec(tau1=5e-6)
    one = run_grid(eig, grid, block=block, acquisition=acq).data
    again = run_grid(eig, grid, block=block, acquisition=acq).data
    assert np.array_equal(one, again)


def test_run_grid_molecule_count_scales_linearly():
    _, _, reg, eig = make_system()
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4, taus=(0.0,))
    base = run_grid(eig, grid, acquisition=acq, n_molecules=1).data
    triple = run_grid(eig, grid, acquisition=acq, n_molecules=3).data
    np.testing.assert_allclose(triple, 3.0 * base, atol=0)


@pytest.mark.parametrize("n_tau, n_orders, n_t, n_phi, n_molecules", [
    (24, 17, 256, 18, 1), (1, 3, 2, 1, 2), (5, 7, 33, 64, 3)])
def test_phase_encode_matches_the_einsum(n_tau, n_orders, n_t, n_phi, n_molecules):
    # one GEMM on the sums as they lie, (orders, times, taus), against the
    # einsum over the (phi, order) encoder, to 1e-15 of the largest signal
    rng = np.random.default_rng(n_tau)
    sums = rng.normal(size=(n_orders, n_t, n_tau)) + 1j * rng.normal(size=(n_orders, n_t, n_tau))
    grid = ExperimentGrid(t_p=4e-5, n_t=n_t, dt=2e-6, n_phi=n_phi,
                          taus=tuple(k * 1e-5 for k in range(n_tau)))
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    fast = sequence.phase_encode(sums, grid, acq, n_molecules)
    slow = ref.phase_encode_einsum(sums.transpose(2, 0, 1), grid.phis, n_molecules)
    assert fast.data.shape == (n_phi, n_t, n_tau) and fast.data.flags.c_contiguous
    assert np.max(np.abs(fast.data - slow)) <= 1e-15 * np.max(np.abs(slow))
    assert (fast.t_m, fast.window, fast.dt) == (acq.t_m, acq.window, grid.dt)
    assert np.array_equal(fast.taus, grid.taus)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 4), extra_phases=st.integers(0, 6), n_t=st.integers(2, 12),
       n_tau=st.integers(1, 4), n_molecules=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_phase_encoding_is_alias_free(k, extra_phases, n_t, n_tau, n_molecules, seed):
    # random sums of the orders -K..K, encoded on n_phi >= 2K + 1 phases and
    # taken back by fft2_coherence: order nu comes back at mu = nu,
    # n_molecules times (after the same t transform), and every other bin
    # is zero, to 1e-12 of the largest
    rng = np.random.default_rng(seed)
    shape = (2 * k + 1, n_t, n_tau)
    sums = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    grid = ExperimentGrid(t_p=4e-5, n_t=n_t, dt=2e-6, n_phi=2 * k + 1 + extra_phases,
                          taus=tuple(j * 1e-5 for j in range(n_tau)))
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    spec = fft2_coherence(sequence.phase_encode(sums, grid, acq, n_molecules))
    want = np.zeros_like(spec.data)
    at = np.searchsorted(spec.mu, np.arange(-k, k + 1))
    assert np.array_equal(spec.mu[at], np.arange(-k, k + 1))
    by_order = np.fft.fftshift(np.fft.fft(sums, axis=1), axes=1)
    want[:, at] = n_molecules * by_order.transpose(2, 0, 1)
    assert np.max(np.abs(spec.data - want)) <= 1e-12 * np.max(np.abs(want))


def test_phase_encode_holds_no_copy_of_the_sums():
    # 7 orders, 512 times, 16 taus and 8 phases: the encoder multiplies the
    # sums where they lie, so the call holds the signal grid and small arrays
    sums = np.ones((7, 512, 16), dtype=complex)
    grid = ExperimentGrid(t_p=4e-5, n_t=512, dt=2e-6, n_phi=8,
                          taus=tuple(j * 1e-5 for j in range(16)))
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    tracemalloc.start()
    try:
        signal = sequence.phase_encode(sums, grid, acq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < signal.data.nbytes + sums.nbytes // 2, (peak, signal.data.nbytes)


def test_magic_sandwich_run_equals_a_block_less_run():
    # the idealized sandwich compiles to the identity, so every tau carries
    # the prepared state unchanged, bit for bit
    _, _, reg, eig = make_system(n=4, seed=5)
    grid = ExperimentGrid(t_p=4e-5, n_t=6, dt=2e-6, n_phi=10, taus=(0.0, 9e-5, 1.8e-4))
    sandwich = run_grid(eig, grid, block=MagicSandwichSpec()).data
    assert np.array_equal(sandwich, run_grid(eig, grid).data)


def test_run_grid_zero_hamiltonian_time_independent():
    table = np.zeros((2, 2))
    sys2 = SpinSystem(table)
    reg = sys2.register()
    eig = eigendecompose(secular_hamiltonian(sys2))
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=6, dt=2e-6, n_phi=4, taus=(0.0, 1e-4))
    data = run_grid(eig, grid, block=MagicSandwichSpec(), acquisition=acq).data
    np.testing.assert_allclose(data, data[:, :1, :1] * np.ones_like(data), atol=1e-12)


def test_run_grid_memory_budget(monkeypatch):
    _, _, reg, eig = make_system()
    grid = ExperimentGrid(t_p=0.0, n_t=4, dt=1e-6, n_phi=4, taus=(0.0,))
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", 100)
    with pytest.raises(GridSizeError):
        run_grid(eig, grid)


BLOCK_FAMILIES = [MagicSandwichSpec(), Mrev8Spec(tau1=5e-6, mode="stretch"), Mrev8Spec(tau1=5e-6)]
# (block, n_t, n_tau, first): 60 taus of 4 times, where the operators of the
# block step set the peak, and 8 taus of 1024 times, where the kernel's
# phases and GEMM output of n_t x 2^N do; each on a new eigensystem, or on
# one that a first run left holding I_+ and its MREV-8 cycle (which a
# "concatenate" run at another tau1, two cycles per 60 us, replaces)
CLOSED_MEMORY_CASES = (
    [pytest.param(block, 4, 60, None, id=f"block{i}") for i, block in enumerate(BLOCK_FAMILIES)]
    + [pytest.param(block, 1024, 8, None, id=f"n_t1024-block{i}")
       for i, block in enumerate(BLOCK_FAMILIES)]
    + [pytest.param(MagicSandwichSpec(), 4, 60, BLOCK_FAMILIES[2], id="block2-then-block0"),
       pytest.param(Mrev8Spec(tau1=2.5e-6), 4, 60, BLOCK_FAMILIES[2],
                    id="block2-then-other-tau1")])


@pytest.mark.parametrize("block, n_t, n_tau, first", CLOSED_MEMORY_CASES)
def test_closed_memory_estimate_covers_the_block_step(block, n_t, n_tau, first, monkeypatch):
    # each block family holds one step at a time (a magic sandwich none, as
    # it leaves the state as it is; an MREV-8 block its compiled cycle); a
    # budget at the traced peak must be refused, and one 5% above it
    # accepted (N = 8, where the 2^N x 2^N arrays dominate the small objects
    # whose count depends on what ran before in the process).  After a first
    # run the trace counts what the eigensystem still holds from it.  Each
    # budget is tried on an eigensystem in the state the traced run found it
    # in: a new one, or the used one, which holds an MREV-8 cycle before and
    # after
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=n_t, dt=2e-6, n_phi=4,
                          taus=tuple(k * 60e-6 for k in range(n_tau)))
    _, _, reg, eig = make_system(n=8, seed=3)
    tracemalloc.start()
    try:
        if first is not None:
            run_grid(eig, grid, block=first, acquisition=acq)
            tracemalloc.reset_peak()
        run_grid(eig, grid, block=block, acquisition=acq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    def gated_run():
        run_grid(eig if first is not None else make_system(n=8, seed=3)[3], grid,
                 block=block, acquisition=acq)

    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError):
        gated_run()
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", int(1.05 * peak))
    gated_run()


_FRESH_RUN = """
import json, sys, tracemalloc
import numpy as np
from mqcnmr import sequence
from mqcnmr.errors import GridSizeError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.sequence import AcquisitionSpec, ExperimentGrid, MagicSandwichSpec, Mrev8Spec, run_grid

sys_n = SpinSystem(np.array(json.loads(sys.argv[1])), 0.6)
reg = sys_n.register()
eig = eigendecompose(secular_hamiltonian(sys_n), 0.6)
block = eval(sys.argv[2])
acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4,
                      taus=tuple(k * 60e-6 for k in range(60)))
tracemalloc.start()
run_grid(eig, grid, block=block, acquisition=acq)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
sequence.MEMORY_BUDGET_BYTES = peak - 1
try:
    run_grid(eig, grid, block=block, acquisition=acq)
except GridSizeError:
    print("refused", peak)
else:
    print("accepted", peak)
"""


@pytest.mark.parametrize("block", BLOCK_FAMILIES)
def test_closed_memory_estimate_covers_a_fresh_process(block):
    # the first closed run in a process traces up to 15 kB more than later
    # ones while CPython's free lists fill; so that run, in a new interpreter,
    # must be refused a budget one byte below its traced peak
    table, *_ = make_system(n=5, seed=3)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mqcnmr.__file__))}
    result = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(table.tolist()),
                             repr(block)], capture_output=True, text=True, env=env,
                            check=True, timeout=300)
    assert result.stdout.split()[0] == "refused", result.stdout


_FRESH_PERFBENCH_SHAPES = """
import json, sys, tracemalloc
import numpy as np
from mqcnmr import sequence
from mqcnmr.errors import GridSizeError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.opensystem import DecoherenceParams, GaussianOMDF, run_grid_open
from mqcnmr.sequence import AcquisitionSpec, ExperimentGrid, Mrev8Spec, run_grid

table, engine, bound = np.array(json.loads(sys.argv[1])), sys.argv[2], float(sys.argv[3])
acq = AcquisitionSpec(t_m=4e-6, window=2e-6)
if len(sys.argv) > 4:  # a grid-dominated shape: the signal grid outweighs the rest
    grid = ExperimentGrid(t_p=4.75e-5, n_t=4096, dt=2e-6, n_phi=64,
                          taus=tuple(k * 1e-5 for k in range(32)))
    block = None
elif engine == "closed":
    grid = ExperimentGrid(t_p=4.75e-5, n_t=64, dt=2e-6, n_phi=22,
                          taus=tuple(k * 60e-6 for k in range(4)))
    acq, block = None, Mrev8Spec(tau1=5e-6)
else:
    grid = ExperimentGrid(t_p=4.75e-5, n_t=256, dt=2e-6, n_phi=18,
                          taus=tuple(k * 1e-5 for k in range(24)))
params = DecoherenceParams(sigma_cl=2.5e5, omdf=GaussianOMDF(0.05))
if engine == "closed":
    run = lambda eig: run_grid(eig, grid, block=block, acquisition=acq)
else:
    run = lambda eig: run_grid_open(eig, grid, params, acquisition=acq)
new_eig = lambda: eigendecompose(secular_hamiltonian(SpinSystem(table, 0.6)), 0.6)
eig = new_eig()
tracemalloc.start()
run(eig)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
del eig


class Passed(Exception):
    pass


def stop(*args):
    raise Passed


sequence.prepared_setup = stop  # the setup that follows the gate
for budget in (peak, int(bound * peak)):
    sequence.MEMORY_BUDGET_BYTES = budget
    try:
        run(new_eig())
    except GridSizeError:
        print("refused", end=" ")
    except Passed:
        print("accepted", end=" ")
"""


def chain_table(n, seed):
    """perfbench's seeded chain molecule: every pair coupled, |w| ~ 3 kHz / d^3
    with random signs (``perfbench/workloads.py::seeded_molecule``)."""
    rng = np.random.default_rng([seed, n])
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            w = 3000.0 / (k - j) ** 3 * rng.uniform(0.8, 1.2) * rng.choice((-1.0, 1.0))
            table[j, k] = table[k, j] = w
    return table


@pytest.mark.parametrize("engine, n, bound", [
    pytest.param("closed", 10, 1.05, id="closed-n10"),
    pytest.param("open", 10, 1.6, id="open-n10"),
    pytest.param("open", 11, 1.6, id="open-n11"),
])
def test_memory_estimates_cover_a_fresh_process_from_ten_spins(engine, n, bound):
    # perfbench's N = 10 shapes: closed MREV-8 "concatenate" on 4 taus of 64
    # times with the default acquisition, open on 24 taus of 256 times, and
    # the open shape at N = 11, above the old ceiling of 10 spins (the closed
    # one takes about 10 s there).  The first run in a new interpreter, on an
    # eigensystem built before it (so I_+ is built inside), must be refused a
    # budget at its traced peak and accepted one at the N = 8 closed or N = 7
    # open bound.  Each budget is tried on a new eigensystem, as the traced
    # run found it
    table = chain_table(n, 0)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mqcnmr.__file__))}
    result = subprocess.run([sys.executable, "-c", _FRESH_PERFBENCH_SHAPES,
                             json.dumps(table.tolist()), engine, repr(bound)],
                            capture_output=True, text=True, env=env, check=True, timeout=300)
    assert result.stdout.split() == ["refused", "accepted"], result.stdout


@pytest.mark.parametrize("engine", ["closed", "open"])
def test_memory_estimates_cover_a_fresh_process_on_a_grid_dominated_shape(engine):
    # N = 3 on 64 phases, 4096 times and 32 taus: the 134 MB signal grid and
    # the order sums that ``phase_encode`` multiplies where they lie set the
    # peak, in a new interpreter, on either engine; refused at the traced
    # peak and accepted 5% above it
    table = chain_table(3, 0)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mqcnmr.__file__))}
    result = subprocess.run([sys.executable, "-c", _FRESH_PERFBENCH_SHAPES,
                             json.dumps(table.tolist()), engine, "1.05", "grid"],
                            capture_output=True, text=True, env=env, check=True, timeout=300)
    assert result.stdout.split() == ["refused", "accepted"], result.stdout


@pytest.mark.parametrize("block", [None, Mrev8Spec(tau1=5e-6)], ids=["no-block", "mrev8"])
def test_closed_memory_estimate_covers_the_default_scan(block, monkeypatch):
    # N = 5 on one tau of two times: the default acquisition's scan phases
    # (256 x 32) are as large as numpy's 128 KiB cast buffer, and the
    # smallest grid leaves the setup the largest part of the estimate; a
    # budget at the traced peak must be refused, on a new eigensystem
    _, _, _, eig = make_system(n=5, seed=3)
    grid = ExperimentGrid(t_p=4e-5, n_t=2, dt=2e-6, n_phi=1, taus=(0.0,))
    tracemalloc.start()
    try:
        run_grid(eig, grid, block=block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError):
        run_grid(make_system(n=5, seed=3)[3], grid, block=block)


@pytest.mark.parametrize("block", BLOCK_FAMILIES)
def test_closed_memory_estimate_stays_within_half_again_the_peak(block, monkeypatch):
    # at N = 5 a 2^N x 2^N array is 16 KiB, so the allowance for small arrays
    # weighs most in the estimate; it must still cover the traced peak and
    # stay within 1.5 times it
    _, _, _, eig = make_system(n=5, seed=3)
    estimates, gate = [], sequence.check_grid_memory

    def recorded(values):
        estimates.append(16 * values + sequence.SMALL_ARRAY_BYTES)
        gate(values)

    monkeypatch.setattr(sequence, "check_grid_memory", recorded)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4,
                          taus=tuple(k * 60e-6 for k in range(60)))
    tracemalloc.start()
    try:
        run_grid(eig, grid, block=block, acquisition=AcquisitionSpec(t_m=3e-6, window=2e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimates[0] <= 1.5 * peak, (estimates, peak)


def test_stretched_run_peak_does_not_grow_by_a_matrix_per_tau():
    # every tau of a stretched MREV-8 block has its own cycle, which goes
    # before the next tau's is compiled, and each tau's slab
    # goes once its order sums are taken, so 30 more taus add at most their
    # rows of the signal grid and order sums (N = 7)
    _, _, reg, eig = make_system(n=7, seed=3)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    block = Mrev8Spec(tau1=5e-6, mode="stretch")
    peaks = []
    for n_tau in (30, 60):
        grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4,
                              taus=tuple(k * 60e-6 for k in range(n_tau)))
        tracemalloc.start()
        try:
            run_grid(eig, grid, block=block, acquisition=acq)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_tau = 16 * (grid.n_phi * grid.n_t + (2 * reg.n_spins + 1) * grid.n_t)
    assert peaks[1] - peaks[0] <= 30 * per_tau


def test_sweep_keeps_the_tau1_order_when_two_cycles_exceed_the_memory_budget(tmp_path,
                                                                             monkeypatch):
    # 2 values of tau1 crossed with 2 of t_p at N = 4: under a budget that
    # fits one MREV-8 cycle beside the largest run but not two, the sweep
    # keeps the tau1 order on an eigensystem that holds one cycle.  So it
    # still runs every combination, compiles one cycle per tau1 and writes
    # the signals of the sweep under the default budget, but scans the
    # default acquisition once per run, where the default budget's setup
    # order scans it once per t_p
    from mqcnmr import runner
    from mqcnmr.config import config_from_dict
    table = make_system(n=4, seed=3)[0]
    doc = {"molecule": {"order_parameter": 0.6,
                        "couplings_hz": [[j, k, float(table[j, k])]
                                         for j in range(4) for k in range(j + 1, 4)]},
           "sequence": {"t_p": 0.0, "block": {"type": "mrev8", "tau1": 5e-6},
                        "tau_schedule": {"count": 3},
                        "grid": {"n_t": 8, "dt": 2e-6, "n_phi": 9}}}
    params = {"sequence.t_p": [0.0, 4e-5], "sequence.block.tau1": [5e-6, 1e-5]}
    cfgs = [config_from_dict({**doc, "sequence": {**doc["sequence"], "t_p": t_p,
                                                  "block": {"type": "mrev8", "tau1": tau1}}})
            for t_p in params["sequence.t_p"] for tau1 in params["sequence.block.tau1"]]
    eig = runner.build_eigensystem(cfgs[0])
    largest = max(sequence.closed_values(eig, cfg.grid, cfg.block, cfg.acquisition)
                  for cfg in cfgs)
    calls = {"compile_program": 0, "default_acquisition": 0}

    def counted(name):
        fn = getattr(sequence, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sequence, name, counted(name))
    assert len(runner.sweep({**doc, "sweep": {"parameters": params}},
                            out_root=tmp_path / "default")) == 4
    assert calls == {"compile_program": 2, "default_acquisition": 2}
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES",
                        16 * (largest + eig.dim ** 2) + sequence.SMALL_ARRAY_BYTES)
    assert len(runner.sweep({**doc, "sweep": {"parameters": params}},
                            out_root=tmp_path / "tight")) == 4
    assert calls == {"compile_program": 4, "default_acquisition": 6}
    for run in (tmp_path / "default").iterdir():
        assert (run / "signals.npy").read_bytes() == \
            (tmp_path / "tight" / run.name / "signals.npy").read_bytes()


class _GatePassed(Exception):
    pass


def test_closed_memory_gate_accepts_long_concatenate_grids(monkeypatch):
    # N = 10 (16 MiB per 2^N x 2^N array): 120 MREV-8 "concatenate" taus hold
    # one tau's slab at a time, about 0.12 GB in all, inside the 2 GiB
    # default.  A grid is refused once its signal grid and order sums alone
    # exceed the budget.  An accepted run stops at the operator setup that
    # follows the gate
    def stop(*args, **kwargs):
        raise _GatePassed

    monkeypatch.setattr(sequence, "prepared_setup", stop)
    block = Mrev8Spec(tau1=5e-6)
    _, _, reg, eig = make_system(n=10, seed=3)
    grid = ExperimentGrid(t_p=4e-5, n_t=64, dt=2e-6, n_phi=22, taus=ref.tau_schedule(block, 120))
    with pytest.raises(_GatePassed):
        run_grid(eig, grid, block=block)
    per_tau = 16 * (grid.n_phi + 2 * reg.n_spins + 1) * grid.n_t
    n_tau = sequence.MEMORY_BUDGET_BYTES // per_tau + 1
    grid = ExperimentGrid(t_p=4e-5, n_t=64, dt=2e-6, n_phi=22, taus=ref.tau_schedule(block, n_tau))
    with pytest.raises(GridSizeError):
        run_grid(eig, grid, block=block)


def test_closed_run_builds_each_operator_once(monkeypatch):
    # MREV-8 "concatenate" with the default acquisition: no collective
    # angular momentum is built (the JB state comes from I_+'s blocks), I_+
    # is built once per eigensystem, and a second run on the same
    # eigensystem compiles its cycle only at another tau1
    from mqcnmr import hamiltonian, operators, spectra
    _, _, reg, eig = make_system(n=3, seed=2)
    block = Mrev8Spec(tau1=5e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=8, taus=ref.tau_schedule(block, 3))
    calls = {"collective_angular_momentum": [], "compile_program": []}

    def logged(fn, log):
        def wrapper(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (operators, hamiltonian, sequence, spectra):
        for name, log in calls.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, logged(getattr(mod, name), log))
    assert "i_plus" not in eig.__dict__
    first = run_grid(eig, grid, block=block).data
    held = eig.__dict__["i_plus"]
    assert calls["collective_angular_momentum"] == []
    assert len(calls["compile_program"]) == 1
    assert np.array_equal(run_grid(eig, grid, block=block).data, first)
    assert eig.__dict__["i_plus"] is held
    assert calls["collective_angular_momentum"] == []
    assert len(calls["compile_program"]) == 1
    other = Mrev8Spec(tau1=2.5e-6)
    run_grid(eig, grid, block=other)
    assert len(calls["compile_program"]) == 2
    # a new eigensystem builds its own
    _, _, _, fresh = make_system(n=3, seed=2)
    run_grid(fresh, grid, block=block)
    assert fresh.__dict__["i_plus"] is not held and eig.__dict__["i_plus"] is held


def test_default_acquisition():
    _, _, reg, eig = make_system(n=2, seed=1)
    acq = default_acquisition(eig, prepared_setup(eig, 5e-5))
    assert acq.t_m >= 0.0
    assert acq.window == pytest.approx(2e-6)


def test_acquisition_spec_validation():
    with pytest.raises(MqcnmrError):
        AcquisitionSpec(t_m=-1e-6, window=0.0)
    with pytest.raises(MqcnmrError):
        AcquisitionSpec(t_m=1e-6, window=-1e-6)
    for t_m, window in ((np.nan, 0.0), (np.inf, 0.0), (1e-6, np.nan), (1e-6, np.inf),
                        (np.nan, np.inf)):
        with pytest.raises(MqcnmrError, match="finite"):
            AcquisitionSpec(t_m=t_m, window=window)
    with pytest.raises(TypeError):
        AcquisitionSpec(t_m=1e-6, window=0.0, axis="x")  # detection is fixed: I_x + i I_y
