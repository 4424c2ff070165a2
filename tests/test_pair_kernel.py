"""The chunked eigenpair kernel shared by the open engine and the spectral route."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from reference import spectral_assembly

from mqcnmr import opensystem, sequence
from mqcnmr.cli import main
from mqcnmr.errors import GridSizeError, MqcnmrError, UnsupportedGridError
from mqcnmr.hamiltonian import (EigenSystem, SpinSystem, eigendecompose,
                                secular_hamiltonian)
from mqcnmr.opensystem import (DecoherenceParams, GaussianOMDF, TabulatedOMDF,
                               g_irreversible, pair_order_sums, prepare_reduced_state,
                               run_grid_open)
from mqcnmr.sequence import AcquisitionSpec, ExperimentGrid, prepared_setup
from mqcnmr.spectra import detection_matrix

ACQ = AcquisitionSpec(t_m=3e-6, window=2e-6)


def make_system(n, seed, s_zz=0.6):
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-5000, 5000)
    sys_n = SpinSystem(table, s_zz)
    reg = sys_n.register()
    return reg, eigendecompose(secular_hamiltonian(sys_n), s_zz)


def make_omdf(family, width):
    if family == "gaussian":
        return GaussianOMDF(width)
    # a skewed table, so that q is complex and the sign of the gap matters
    u = np.linspace(-4.0 * width, 4.0 * width, 41)
    return TabulatedOMDF(u, np.exp(-u ** 2 / (2 * width ** 2)) * (1 + 0.4 * np.tanh(u / width)))


def oracle_grid(eig, reg, grid, params, n_molecules=1):
    """(phi, t, tau) signal from the dense per-(tau, t) order sums."""
    setup = prepared_setup(eig, grid.t_p)
    det = detection_matrix(setup, ACQ.t_m, ACQ.window)
    sums = ref.open_order_sums_loop(
        det, setup.state, eig.zeta, eig.m, eig.order_parameter, grid.ts, grid.taus,
        lambda dz, t: ref.g_reversible(dz, t, params),
        lambda dz, tau: g_irreversible(dz, tau, params), reg.n_spins)
    encoder = np.exp(1j * np.outer(grid.phis, np.arange(-reg.n_spins, reg.n_spins + 1)))
    return n_molecules * np.stack([encoder @ s for s in sums], axis=2)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
       family=st.sampled_from(["gaussian", "tabulated"]),
       width=st.floats(0.02, 0.2), sigma=st.floats(5e4, 5e5),
       taus=st.lists(st.floats(0.0, 5e-4), min_size=1, max_size=4),
       n_t=st.integers(2, 12), n_molecules=st.integers(1, 3))
def test_open_grid_matches_dense_order_sums(n, seed, family, width, sigma, taus, n_t,
                                            n_molecules):
    reg, eig = make_system(n, seed)
    params = DecoherenceParams(sigma_cl=sigma, omdf=make_omdf(family, width))
    grid = ExperimentGrid(t_p=3e-5, n_t=n_t, dt=3e-6, n_phi=2 * n + 2, taus=tuple(taus))
    fast = run_grid_open(eig, grid, params, acquisition=ACQ,
                         n_molecules=n_molecules).data
    slow = oracle_grid(eig, reg, grid, params, n_molecules)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2 ** 16), n_tau=st.integers(1, 3),
       n_t=st.integers(2, 9))
def test_factorised_and_chunked_sums_agree(n, seed, n_tau, n_t):
    # the closed engine's factorised kernel against the open engine's chunked
    # one, given the phase alone by direct exp and G^R = 1, on the same sums;
    # the shuffled eigenbasis checks that both group states by eig.m alone
    reg, eig = make_system(n, seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(reg.dim)
    shuffled = ref.shuffled_eigensystem(eig, perm)
    weights = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    ts, taus = 3e-6 * np.arange(n_t), 1e-4 * np.arange(n_tau)
    (factorised,) = sequence.pair_order_sums([weights], shuffled, ts)
    chunked = pair_order_sums(weights, shuffled, ts, taus, lambda g, t: np.exp(
        -1j * eig.order_parameter * np.multiply.outer(g, t)), lambda g, tau: 0 * g + 0 * tau + 1.0)
    assert factorised.shape == (2 * n + 1, n_t)
    assert chunked.shape == (n_tau, 2 * n + 1, n_t)
    assert np.max(np.abs(factorised - chunked)) <= 1e-12 * np.max(np.abs(chunked))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["gaussian", "tabulated"]), width=st.floats(0.02, 0.2),
       x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
       sigma=st.floats(5e4, 5e5), kappa=st.floats(0.5, 4.0),
       tau=st.lists(st.floats(0.0, 5e-4), min_size=1, max_size=4))
def test_omdf_transform_and_irreversible_factor_are_mirror_symmetric(family, width, x, sigma,
                                                                    kappa, tau):
    # the laws the pair kernel's mirror pairs rest on: q(-x) = conj(q(x)) for
    # the transform of a real OMDF, and G^R even in the gap
    params = DecoherenceParams(sigma_cl=sigma, omdf=make_omdf(family, width), kappa=kappa)
    x, tau = np.array(x), np.array(tau)[:, None]
    q = params.omdf.q(x)
    assert np.max(np.abs(params.omdf.q(-x) - q.conj())) <= 1e-15 * np.max(np.abs(q))
    g_r = g_irreversible(x[None, :], tau, params)
    assert np.max(np.abs(g_irreversible(-x[None, :], tau, params) - g_r)) <= 1e-15 * np.max(g_r)


def _one_sided_pairs(eig, rng):
    """Up to two pairs a < b of order 0 and two of nonzero order, drawn at random."""
    same = ref.eigen_coherence_orders(eig) == 0
    upper = np.triu(np.ones_like(same), 1)
    picks = []
    for mask in (upper & same, upper & ~same):
        a, b = np.nonzero(mask)
        picks += [(a[k], b[k]) for k in rng.choice(a.size, size=min(2, a.size), replace=False)]
    return picks


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2 ** 16), n_tau=st.integers(1, 3),
       density=st.floats(0.0, 0.5), n_t=st.integers(2, 9),
       family=st.sampled_from(["gaussian", "tabulated"]), shuffle=st.booleans())
def test_mirror_pairs_match_the_ordered_pair_oracle(n, seed, n_tau, density, n_t, family,
                                                    shuffle):
    # sparse weights that are not hermitian: a class of a pair, its mirror, its
    # spin-flip image and the image's mirror is kept when any of them is
    # nonzero, and each of the one-sided pairs below has only one; a shuffled
    # eigenbasis checks that images are found by m and zeta, not by position
    reg, eig = make_system(n, seed)
    rng = np.random.default_rng(seed)
    if shuffle:
        eig = ref.shuffled_eigensystem(eig, rng.permutation(reg.dim))
    shape = (reg.dim, reg.dim)
    weights = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (
        rng.random(shape) < density)
    for k, (a, b) in enumerate(_one_sided_pairs(eig, rng)):
        # W_ab != 0 = W_ba for the first pair of each order class, the reverse after
        a, b = (a, b) if k % 2 == 0 else (b, a)
        weights[a, b], weights[b, a] = 1.0 - 0.5j * (k + 1), 0.0
    weights[np.arange(reg.dim), np.arange(reg.dim)] = 0.25 + rng.normal(size=reg.dim)
    params = DecoherenceParams(sigma_cl=2e5, omdf=make_omdf(family, 0.05))
    g_rev = partial(ref.g_reversible, params=params)
    g_irr = partial(g_irreversible, params=params)
    time_factors = partial(params.omdf.time_factors, s_zz=eig.order_parameter)
    ts, taus = 3e-6 * np.arange(n_t), 1e-4 * np.arange(1, n_tau + 1)
    fast = pair_order_sums(weights, eig, ts, taus, time_factors, g_irr)
    slow = ref.pair_order_sums_dense(weights, eig.zeta, eig.m, eig.order_parameter, ts, taus,
                                     g_rev, g_irr, n)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@pytest.mark.parametrize("n,m", [(3, 0.5), (4, 1.0), (5, 2.5)])
def test_kernel_refuses_a_spectrum_that_is_not_spin_flip_symmetric(n, m):
    # blocks m and -m of a secular H share their spectrum; move one -m
    # eigenvalue by 1e-8 max |zeta| and the image search must refuse it
    reg, eig = make_system(n, 2)
    zeta = eig.zeta.copy()
    zeta[np.flatnonzero(eig.m == -m)[0]] += 1e-8 * np.max(np.abs(zeta))
    bent = EigenSystem(zeta=zeta, m=eig.m, blocks=eig.blocks,
                       order_parameter=eig.order_parameter)
    weights, ts = np.ones((reg.dim, reg.dim)), 3e-6 * np.arange(4)
    factors = (lambda g, t: np.exp(-1j * np.multiply.outer(g, t)), lambda g, tau: 0 * g + 1.0)
    pair_order_sums(weights, eig, ts, [1e-4], *factors)
    with pytest.raises(MqcnmrError, match="spin flip"):
        pair_order_sums(weights, bent, ts, [1e-4], *factors)


@settings(max_examples=200, deadline=None)
@given(n_t=st.integers(2, 300), dt_units=st.integers(1, 1023), start=st.integers(-300, 300),
       phase=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4),
       decay=st.floats(0.0, 30.0), curved=st.booleans())
def test_uniform_exp_matches_exp(n_t, dt_units, start, phase, decay, curved):
    # exp(a t + b t^2) from powers against exp taken at every sample (in
    # extended precision where the platform has it): up to 100 rad of phase
    # and a decay of up to e^-30 over |t| <= t_max, b = 0 or b < 0, on times
    # that start anywhere and are exact in binary, so only the method differs
    ts = (start + np.arange(n_t)) * dt_units * 2.0 ** -30
    t_max = np.max(np.abs(ts))
    a = 1j * np.array(phase) / t_max
    b = -decay * np.linspace(1.0, 0.1, a.size) / t_max ** 2 if curved else 0.0
    got = opensystem._uniform_exp(a, ts, b)
    t = ts.astype(np.longdouble)
    want = np.exp(np.multiply.outer(a.astype(np.clongdouble), t)
                  + np.multiply.outer(np.broadcast_to(b, a.shape).astype(np.longdouble), t * t))
    assert got.shape == (a.size, n_t)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_chunked_orders_are_bit_identical_across_repeat_calls(monkeypatch):
    reg, eig = make_system(4, 3)
    params = DecoherenceParams(sigma_cl=2e5, omdf=make_omdf("tabulated", 0.05))
    grid = ExperimentGrid(t_p=3e-5, n_t=12, dt=3e-6, n_phi=10, taus=(0.0, 1e-4, 3e-4))
    whole = run_grid_open(eig, grid, params, acquisition=ACQ).data
    assert opensystem.pair_chunk_rows(eig, grid.n_t) == 35  # all 32 classes of order 0 in one
    monkeypatch.setattr(opensystem, "PAIR_CHUNK_BYTES", 16 * grid.n_t * 5)
    assert opensystem.pair_chunk_rows(eig, grid.n_t) == 5  # order 0 now spans 7 chunks
    runs = [run_grid_open(eig, grid, params, acquisition=ACQ).data for _ in range(3)]
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])
    assert np.max(np.abs(runs[0] - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_open_memory_gate_runs_before_any_work(monkeypatch):
    reg, eig = make_system(3, 1)
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.05))
    grid = ExperimentGrid(t_p=3e-5, n_t=8, dt=3e-6, n_phi=8, taus=(0.0, 1e-4))

    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the memory gate")

    for name in ("prepared_setup", "kernel_inputs", "pair_order_sums"):
        monkeypatch.setattr(opensystem, name, forbidden)
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", 10_000)
    with pytest.raises(GridSizeError):
        run_grid_open(eig, grid, params)


@pytest.mark.parametrize("family", ["gaussian", "tabulated"])
def test_open_memory_estimate_covers_the_traced_peak(family, monkeypatch):
    # a budget at the traced peak must be refused, and one 60% above it
    # accepted (N = 7, 24 taus); only a tabulated OMDF is charged the
    # quadrature block, so the Gaussian estimate stays near its peak too
    reg, eig = make_system(7, 3)
    params = DecoherenceParams(sigma_cl=2e5, omdf=make_omdf(family, 0.05))
    grid = ExperimentGrid(t_p=3e-5, n_t=64, dt=3e-6, n_phi=16,
                          taus=tuple(k * 1e-5 for k in range(24)))
    tracemalloc.start()
    try:
        run_grid_open(eig, grid, params, acquisition=ACQ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError):
        run_grid_open(eig, grid, params, acquisition=ACQ)
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", int(1.6 * peak))
    run_grid_open(eig, grid, params, acquisition=ACQ)


def test_open_config_over_budget_exits_2(tmp_path, monkeypatch):
    doc = {
        "molecule": {"order_parameter": 0.6,
                     "couplings_hz": [[j, j + 1, 3000.0] for j in range(2)]},
        "engine": "open",
        "decoherence": {"sigma_cl": 2e5, "omdf": {"family": "gaussian", "width": 0.05}},
        "sequence": {"t_p": 3e-5, "tau_schedule": {"count": 2, "step": 1e-4},
                     "acquisition": {"t_m": 3e-6, "window": 2e-6},
                     "grid": {"n_t": 16, "dt": 2e-6, "n_phi": 8}},
    }
    cfg_path = tmp_path / "open.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", 10_000)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output", str(out)]) == 2
    assert not (out / "signals.npy").exists()


def test_long_omdf_table_runs_in_bounded_memory():
    # the quadrature phases of all (class, t, u) of one E chunk would need
    # up to 35 x 32 x 2001 x 8 B = 18 MB per real temporary, and an unblocked
    # q (the phases and their cosines at once) peaks at 33 MB, above the bound;
    # q works in blocks instead
    reg, eig = make_system(4, 5)
    u = np.linspace(-0.3, 0.3, 2001)
    params = DecoherenceParams(sigma_cl=2e5, omdf=TabulatedOMDF(u, np.exp(-u ** 2 / 0.005)))
    grid = ExperimentGrid(t_p=3e-5, n_t=32, dt=2e-6, n_phi=10, taus=(1e-4,))
    assert opensystem.pair_chunk_rows(eig, grid.n_t) == 35
    tracemalloc.start()
    try:
        fast = run_grid_open(eig, grid, params, acquisition=ACQ).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * opensystem.QUADRATURE_BLOCK_BYTES
    slow = oracle_grid(eig, reg, grid, params)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_tabulated_q_blocks_are_bit_identical(monkeypatch):
    omdf = make_omdf("tabulated", 0.05)
    x = np.random.default_rng(2).normal(scale=40.0, size=(7, 5))
    whole = omdf.q(x)
    monkeypatch.setattr(opensystem, "QUADRATURE_BLOCK_BYTES", 16 * omdf.u.size * 3)
    assert np.array_equal(omdf.q(x), whole)  # 12 blocks of 3 points
    assert omdf.q(x[0, 0]) == whole[0, 0]


def test_spectral_route_needs_uniform_times():
    reg, eig = make_system(2, 4)
    state = prepare_reduced_state(eig, 3e-5)
    ts = np.array([0.0, 1e-6, 3e-6, 4e-6])
    with pytest.raises(UnsupportedGridError):
        spectral_assembly(state.matrix, eig, reg, ts, 3e-6, 2e-6)
