"""Sequence compilation, reversion blocks and the closed-system grid run."""

import numpy as np
import pytest

import reference as ref
from mqcnmr.errors import ConfigError, GridSizeError, MqcnmrError
from mqcnmr.hamiltonian import EigenSystem, SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.operators import SpinRegister
from mqcnmr.sequence import (AcquisitionSpec, ExperimentGrid, FreeEvolution,
                             MagicSandwichSpec, Mrev8Spec, PropagatorCache, Pulse,
                             _m_blocks, _phases, _tau_slab, compile_blocks,
                             compile_program, default_acquisition, jb_prepare,
                             magic_sandwich, mrev8_block, run_grid, total_duration,
                             verify_reversion)


def make_system(n=2, seed=1, s_zz=0.6, scale_hz=5000.0):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-scale_hz, scale_hz)
    sys_n = SpinSystem(n_sites=n, couplings_hz=table, order_parameter=s_zz)
    reg = sys_n.register()
    eig = eigendecompose(secular_hamiltonian(sys_n, reg), reg, s_zz)
    return table, sys_n, reg, eig


def test_jb_prepare_structure():
    prep = jb_prepare(2.7e-5)
    assert isinstance(prep[0], Pulse) and prep[0].angle == np.pi / 2
    assert prep[0].axis_phase == 0.0
    assert isinstance(prep[1], FreeEvolution) and prep[1].duration == 2.7e-5
    assert prep[2].angle == np.pi / 4 and prep[2].axis_phase == np.pi / 2
    with pytest.raises(MqcnmrError):
        jb_prepare(-1e-6)


def test_compile_program_matches_reference_chain():
    table, _, reg, eig = make_system(n=3, seed=4)
    cache = PropagatorCache(eig, reg)
    u = compile_program(jb_prepare(4e-5), cache)
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
    sys2 = SpinSystem(n_sites=2, couplings_hz=table)
    reg = sys2.register()
    eig = eigendecompose(secular_hamiltonian(sys2, reg), reg)
    cache = PropagatorCache(eig, reg)
    u = compile_program(mrev8_block(5e-6), cache)
    theta = np.angle(np.trace(u))
    np.testing.assert_allclose(u, np.exp(1j * theta) * np.eye(4), atol=1e-12)


def test_mrev8_residual_third_order_in_tau1():
    _, _, reg, eig = make_system(n=3, seed=4)
    cache = PropagatorCache(eig, reg)
    residuals = []
    for tau1 in (20e-6, 10e-6, 5e-6):
        report = verify_reversion(mrev8_block(tau1), cache)
        residuals.append(report.residual)
    # each halving of tau1 should cut the residual by about 8 (third order)
    assert residuals[0] / residuals[1] > 5.0
    assert residuals[1] / residuals[2] > 5.0
    assert residuals[2] < 1e-3


def test_magic_sandwich_exact_identity():
    _, _, reg, eig = make_system(n=3, seed=8)
    cache = PropagatorCache(eig, reg)
    events = magic_sandwich(1e-4)
    np.testing.assert_allclose(total_duration(events), 1.5e-4, rtol=1e-12)
    report = verify_reversion(events, cache)
    assert report.residual < 1e-12
    assert report.effective_norm < 1e-7
    with pytest.raises(MqcnmrError):
        magic_sandwich(0.0)


def test_block_specs():
    spec = Mrev8Spec(tau1=5e-6)
    assert spec.cycle_time == pytest.approx(60e-6)
    assert spec.events_for(0.0) == ()
    assert total_duration(spec.events_for(120e-6)) == pytest.approx(120e-6)
    with pytest.raises(ConfigError):
        spec.events_for(70e-6)
    np.testing.assert_allclose(spec.tau_schedule(3), [0.0, 60e-6, 120e-6])

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


def test_propagator_cache_stats():
    _, _, reg, eig = make_system()
    cache = PropagatorCache(eig, reg)
    compile_program(mrev8_block(5e-6), cache)
    first = cache.stats()
    compile_program(mrev8_block(5e-6), cache)
    second = cache.stats()
    assert second["misses"] == first["misses"]
    assert second["hits"] > first["hits"]
    # distinct delay lengths and pulse phases: 2 free durations x 1 scale
    # plus 4 distinct pulse phases
    assert first["entries"] == 6


def test_compile_blocks_mrev8_cycle_power_matches_full_chain():
    _, _, reg, eig = make_system(n=3, seed=4)
    cache = PropagatorCache(eig, reg)
    block = Mrev8Spec(tau1=5e-6)
    counts = (3, 0, 1, 4, 2)  # unsorted on purpose
    blocks = compile_blocks(block, [n * block.cycle_time for n in counts], cache)
    assert blocks[1] is None
    for n, u in zip(counts, blocks):
        if n:
            np.testing.assert_allclose(u, compile_program(mrev8_block(5e-6, n), cache),
                                       rtol=0, atol=1e-12)
    with pytest.raises(ConfigError):
        compile_blocks(block, [0.0, 70e-6], cache)
    # other block families compile their events for each tau as before
    for other, tau in ((Mrev8Spec(tau1=5e-6, mode="stretch"), 240e-6),
                       (MagicSandwichSpec(), 1.5e-4)):
        (u,) = compile_blocks(other, [tau], cache)
        np.testing.assert_array_equal(u, compile_program(other.events_for(tau), cache))
    assert compile_blocks(None, [0.0, 1e-4], cache) == [None, None]


def test_tau_slab_matches_per_time_loop_on_permuted_basis():
    # a shuffled eigenbasis: the kernel must group states by eig.m alone
    _, _, reg, eig = make_system(n=4, seed=6)
    perm = np.random.default_rng(3).permutation(reg.dim)
    shuffled = EigenSystem(zeta=eig.zeta[perm], vectors=eig.vectors[:, perm],
                           m=eig.m[perm], s=eig.s[perm], order_parameter=0.6)
    rng = np.random.default_rng(9)
    det = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    sigma0 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    ts = 3e-6 * np.arange(6)
    fast = _tau_slab(shuffled, sigma0, det, _phases(shuffled, ts), _m_blocks(shuffled),
                     reg.n_spins, None)
    slow = ref.order_sums_loop(det, sigma0, shuffled.zeta, shuffled.m, 0.6, ts, reg.n_spins)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * np.abs(slow).max())


@pytest.mark.parametrize("n,seed", [(2, 1), (3, 4), (4, 6), (5, 2), (6, 7)])
def test_default_acquisition_matches_dense_scan(n, seed):
    table, _, reg, eig = make_system(n=n, seed=seed)
    for t_p in (0.0, 5e-5):
        acq = default_acquisition(eig, reg, t_p=t_p)
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
    fast = run_grid(eig, reg, grid, block=block, acquisition=acq).data
    slow = ref.brute_grid(table, 0.6, 5e-5, grid.phis, grid.ts, taus, events,
                          acq.t_m, acq.window, n_quad=2001)
    np.testing.assert_allclose(fast, slow, atol=1e-8)


def test_run_grid_three_spin_point_acquisition():
    table, _, reg, eig = make_system(n=3, seed=12)
    acq = AcquisitionSpec(t_m=4e-6, window=0.0)
    taus = (0.0, 9e-5)
    grid = ExperimentGrid(t_p=3e-5, n_t=3, dt=5e-6, n_phi=7, taus=taus)
    block = MagicSandwichSpec()
    fast = run_grid(eig, reg, grid, block=block, acquisition=acq).data
    slow = ref.brute_grid(table, 0.6, 3e-5, grid.phis, grid.ts, taus,
                          lambda tau: [] if tau == 0 else ref.magic_sandwich_events(tau),
                          acq.t_m, acq.window)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


def test_run_grid_worker_count_bit_identical():
    _, _, reg, eig = make_system(n=3, seed=2)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=8, dt=2e-6, n_phi=8,
                          taus=tuple(k * 6e-5 for k in range(5)))
    block = Mrev8Spec(tau1=5e-6)
    one = run_grid(eig, reg, grid, block=block, acquisition=acq, workers=1).data
    four = run_grid(eig, reg, grid, block=block, acquisition=acq, workers=4).data
    assert np.array_equal(one, four)


def test_run_grid_molecule_count_scales_linearly():
    _, _, reg, eig = make_system()
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4, taus=(0.0,))
    base = run_grid(eig, reg, grid, acquisition=acq, n_molecules=1).data
    triple = run_grid(eig, reg, grid, acquisition=acq, n_molecules=3).data
    np.testing.assert_allclose(triple, 3.0 * base, atol=0)


def test_run_grid_zero_hamiltonian_time_independent():
    table = np.zeros((2, 2))
    sys2 = SpinSystem(n_sites=2, couplings_hz=table)
    reg = sys2.register()
    eig = eigendecompose(secular_hamiltonian(sys2, reg), reg)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=6, dt=2e-6, n_phi=4, taus=(0.0, 1e-4))
    data = run_grid(eig, reg, grid, block=MagicSandwichSpec(), acquisition=acq).data
    np.testing.assert_allclose(data, data[:, :1, :1] * np.ones_like(data), atol=1e-12)


def test_run_grid_memory_budget():
    _, _, reg, eig = make_system()
    grid = ExperimentGrid(t_p=0.0, n_t=4, dt=1e-6, n_phi=4, taus=(0.0,))
    with pytest.raises(GridSizeError):
        run_grid(eig, reg, grid, memory_budget_bytes=100)


def test_default_acquisition():
    _, _, reg, eig = make_system(n=2, seed=1)
    acq = default_acquisition(eig, reg, t_p=5e-5)
    assert acq.t_m >= 0.0
    assert acq.window == pytest.approx(2e-6)


def test_acquisition_spec_validation():
    with pytest.raises(MqcnmrError):
        AcquisitionSpec(t_m=-1e-6, window=0.0)
    with pytest.raises(MqcnmrError):
        AcquisitionSpec(t_m=1e-6, window=-1e-6)
    with pytest.raises(TypeError):
        AcquisitionSpec(t_m=1e-6, window=0.0, axis="x")  # detection is fixed: I_x + i I_y
