"""Sequence compilation, reversion blocks and the closed-system grid run."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mqcnmr
import reference as ref
from mqcnmr import sequence
from mqcnmr.errors import ConfigError, GridSizeError, MqcnmrError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.operators import SpinRegister
from mqcnmr.sequence import (AcquisitionSpec, ExperimentGrid, FreeEvolution,
                             MagicSandwichSpec, Mrev8Spec, Propagators, Pulse, _tau_slab,
                             block_states, compile_program, default_acquisition, jb_prepare,
                             magic_sandwich, mrev8_block, pair_order_sums, prepared_setup,
                             run_grid, total_duration, verify_reversion)


def make_system(n=2, seed=1, s_zz=0.6, scale_hz=5000.0):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-scale_hz, scale_hz)
    sys_n = SpinSystem(table, s_zz)
    reg = sys_n.register()
    eig = eigendecompose(secular_hamiltonian(sys_n), reg, s_zz)
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
    props = Propagators(eig, reg)
    u = compile_program(jb_prepare(4e-5), props)
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
    eig = eigendecompose(secular_hamiltonian(sys2), reg)
    props = Propagators(eig, reg)
    u = compile_program(mrev8_block(5e-6), props)
    theta = np.angle(np.trace(u))
    np.testing.assert_allclose(u, np.exp(1j * theta) * np.eye(4), atol=1e-12)


def test_mrev8_residual_third_order_in_tau1():
    _, _, reg, eig = make_system(n=3, seed=4)
    props = Propagators(eig, reg)
    residuals = []
    for tau1 in (20e-6, 10e-6, 5e-6):
        report = verify_reversion(mrev8_block(tau1), props)
        residuals.append(report.residual)
    # each halving of tau1 should cut the residual by about 8 (third order)
    assert residuals[0] / residuals[1] > 5.0
    assert residuals[1] / residuals[2] > 5.0
    assert residuals[2] < 1e-3


def test_magic_sandwich_exact_identity():
    _, _, reg, eig = make_system(n=3, seed=8)
    props = Propagators(eig, reg)
    events = magic_sandwich(1e-4)
    np.testing.assert_allclose(total_duration(events), 1.5e-4, rtol=1e-12)
    report = verify_reversion(events, props)
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
    props = Propagators(eig, reg)
    events = block.events_for(tau)
    report = verify_reversion(events, props)
    residual, norm = ref.reversion_figures(compile_program(events, props), tau)
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


def test_block_states_match_the_compiled_chain():
    _, _, reg, eig = make_system(n=3, seed=4)
    props = Propagators(eig, reg)
    rng = np.random.default_rng(5)
    state = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    v = eig.vectors

    def carried(u):
        w = v.conj().T @ u @ v
        return w @ state @ w.conj().T

    block = Mrev8Spec(tau1=5e-6)
    counts = (3, 0, 1, 4, 2)  # unsorted on purpose
    states = list(block_states(block, [n * block.cycle_time for n in counts], props, state))
    assert states[1] is state
    for n, sigma in zip(counts, states):
        if n:
            np.testing.assert_allclose(
                sigma, carried(compile_program(mrev8_block(5e-6, n), props)), rtol=0, atol=1e-12)
    with pytest.raises(ConfigError):
        block_states(block, [0.0, 70e-6], props, state)
    # other block families apply their events to the state for each tau
    for other, tau in ((Mrev8Spec(tau1=5e-6, mode="stretch"), 240e-6),
                       (MagicSandwichSpec(), 1.5e-4)):
        (sigma,) = block_states(other, [tau], props, state)
        np.testing.assert_allclose(sigma, carried(compile_program(other.events_for(tau), props)),
                                   rtol=0, atol=1e-12)
    assert [s is state for s in block_states(None, [0.0, 1e-4], props, state)] == [True, True]


def test_tau_slab_matches_per_time_loop_on_permuted_basis():
    # a shuffled eigenbasis: the kernel must group states by eig.m alone
    _, _, reg, eig = make_system(n=4, seed=6)
    perm = np.random.default_rng(3).permutation(reg.dim)
    shuffled = ref.shuffled_eigensystem(eig, perm)
    rng = np.random.default_rng(9)
    det = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    sigma0 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    ts = 3e-6 * np.arange(6)
    fast = pair_order_sums(_tau_slab(det, sigma0), shuffled, ts)
    slow = ref.order_sums_loop(det, sigma0, shuffled.zeta, shuffled.m, 0.6, ts, reg.n_spins)
    np.testing.assert_allclose(fast.T, slow, rtol=0, atol=1e-12 * np.abs(slow).max())


@pytest.mark.parametrize("n,seed", [(2, 1), (3, 4), (4, 6), (5, 2), (6, 7)])
def test_default_acquisition_matches_dense_scan(n, seed):
    table, _, reg, eig = make_system(n=n, seed=seed)
    for t_p in (0.0, 5e-5):
        acq = default_acquisition(prepared_setup(Propagators(eig, reg), t_p))
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


def test_run_grid_repeat_calls_bit_identical():
    _, _, reg, eig = make_system(n=3, seed=2)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=8, dt=2e-6, n_phi=8,
                          taus=tuple(k * 6e-5 for k in range(5)))
    block = Mrev8Spec(tau1=5e-6)
    one = run_grid(eig, reg, grid, block=block, acquisition=acq).data
    again = run_grid(eig, reg, grid, block=block, acquisition=acq).data
    assert np.array_equal(one, again)


def test_run_grid_molecule_count_scales_linearly():
    _, _, reg, eig = make_system()
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4, taus=(0.0,))
    base = run_grid(eig, reg, grid, acquisition=acq, n_molecules=1).data
    triple = run_grid(eig, reg, grid, acquisition=acq, n_molecules=3).data
    np.testing.assert_allclose(triple, 3.0 * base, atol=0)


def test_run_grid_zero_hamiltonian_time_independent():
    table = np.zeros((2, 2))
    sys2 = SpinSystem(table)
    reg = sys2.register()
    eig = eigendecompose(secular_hamiltonian(sys2), reg)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=6, dt=2e-6, n_phi=4, taus=(0.0, 1e-4))
    data = run_grid(eig, reg, grid, block=MagicSandwichSpec(), acquisition=acq).data
    np.testing.assert_allclose(data, data[:, :1, :1] * np.ones_like(data), atol=1e-12)


def test_run_grid_memory_budget(monkeypatch):
    _, _, reg, eig = make_system()
    grid = ExperimentGrid(t_p=0.0, n_t=4, dt=1e-6, n_phi=4, taus=(0.0,))
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", 100)
    with pytest.raises(GridSizeError):
        run_grid(eig, reg, grid)


BLOCK_FAMILIES = [MagicSandwichSpec(), Mrev8Spec(tau1=5e-6, mode="stretch"), Mrev8Spec(tau1=5e-6)]


@pytest.mark.parametrize("block", BLOCK_FAMILIES)
def test_closed_memory_estimate_covers_the_propagator_cache(block, monkeypatch):
    # each block family holds the factors of one event at a time (a magic
    # sandwich applies its free evolutions as eigenbasis phases); a budget at
    # the traced peak must be refused, and one 5% above it accepted (N = 8,
    # where the 2^N x 2^N arrays dominate the small objects whose count
    # depends on what ran before in the process)
    acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4,
                          taus=tuple(k * 60e-6 for k in range(60)))
    _, _, reg, eig = make_system(n=8, seed=3)
    tracemalloc.start()
    try:
        run_grid(eig, reg, grid, block=block, acquisition=acq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError):
        run_grid(eig, reg, grid, block=block, acquisition=acq)
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", int(1.05 * peak))
    run_grid(eig, reg, grid, block=block, acquisition=acq)


_FRESH_RUN = """
import json, sys, tracemalloc
import numpy as np
from mqcnmr import sequence
from mqcnmr.errors import GridSizeError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.sequence import AcquisitionSpec, ExperimentGrid, MagicSandwichSpec, Mrev8Spec, run_grid

sys_n = SpinSystem(np.array(json.loads(sys.argv[1])), 0.6)
reg = sys_n.register()
eig = eigendecompose(secular_hamiltonian(sys_n), reg, 0.6)
block = eval(sys.argv[2])
acq = AcquisitionSpec(t_m=3e-6, window=2e-6)
grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=4,
                      taus=tuple(k * 60e-6 for k in range(60)))
tracemalloc.start()
run_grid(eig, reg, grid, block=block, acquisition=acq)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
sequence.MEMORY_BUDGET_BYTES = peak - 1
try:
    run_grid(eig, reg, grid, block=block, acquisition=acq)
except GridSizeError:
    print("refused", peak)
else:
    print("accepted", peak)
"""


@pytest.mark.parametrize("block", BLOCK_FAMILIES)
def test_closed_memory_estimate_covers_a_fresh_process(block):
    # the first closed run in a process traces up to 130 kB more than later
    # ones while CPython's free lists fill, a tenth of the peak at N = 5; so
    # that run, in a new interpreter, must be refused a budget one byte below
    # its traced peak
    table, *_ = make_system(n=5, seed=3)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mqcnmr.__file__))}
    result = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(table.tolist()),
                             repr(block)], capture_output=True, text=True, env=env,
                            check=True, timeout=300)
    assert result.stdout.split()[0] == "refused", result.stdout


def test_stretched_run_peak_does_not_grow_by_a_matrix_per_tau():
    # every tau of a stretched MREV-8 block has its own delays; their m blocks
    # are built where they are applied and freed after, and each tau's slab
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
            run_grid(eig, reg, grid, block=block, acquisition=acq)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_tau = 16 * (grid.n_phi * grid.n_t + (2 * reg.n_spins + 1) * grid.n_t)
    assert peaks[1] - peaks[0] <= 30 * per_tau


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
    reg = SpinRegister(10)
    grid = ExperimentGrid(t_p=4e-5, n_t=64, dt=2e-6, n_phi=22, taus=block.tau_schedule(120))
    with pytest.raises(_GatePassed):
        run_grid(None, reg, grid, block=block)
    per_tau = 16 * (grid.n_phi + 2 * reg.n_spins + 1) * grid.n_t
    n_tau = sequence.MEMORY_BUDGET_BYTES // per_tau + 1
    grid = ExperimentGrid(t_p=4e-5, n_t=64, dt=2e-6, n_phi=22, taus=block.tau_schedule(n_tau))
    with pytest.raises(GridSizeError):
        run_grid(None, reg, grid, block=block)


def test_closed_run_builds_each_operator_once(monkeypatch):
    # MREV-8 "concatenate" with the default acquisition: each collective
    # angular momentum is built once, and the JB preparation applied once
    from mqcnmr import operators, spectra
    _, _, reg, eig = make_system(n=3, seed=2)
    block = Mrev8Spec(tau1=5e-6)
    grid = ExperimentGrid(t_p=4e-5, n_t=4, dt=2e-6, n_phi=8, taus=block.tau_schedule(3))
    calls = {"collective_angular_momentum": [], "evolve": []}

    def logged(fn, log):
        def wrapper(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (operators, sequence, spectra):
        for name, log in calls.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, logged(getattr(mod, name), log))
    run_grid(eig, reg, grid, block=block)
    axes = [args[1] for args in calls["collective_angular_momentum"]]
    assert len(axes) == len(set(axes))
    assert [tuple(args[0]) for args in calls["evolve"]].count(jb_prepare(grid.t_p)) == 1


def test_default_acquisition():
    _, _, reg, eig = make_system(n=2, seed=1)
    acq = default_acquisition(prepared_setup(Propagators(eig, reg), 5e-5))
    assert acq.t_m >= 0.0
    assert acq.window == pytest.approx(2e-6)


def test_acquisition_spec_validation():
    with pytest.raises(MqcnmrError):
        AcquisitionSpec(t_m=-1e-6, window=0.0)
    with pytest.raises(MqcnmrError):
        AcquisitionSpec(t_m=1e-6, window=-1e-6)
    with pytest.raises(TypeError):
        AcquisitionSpec(t_m=1e-6, window=0.0, axis="x")  # detection is fixed: I_x + i I_y
