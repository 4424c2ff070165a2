"""The gap-grid eigenpair kernel shared by the open engine and the spectral route."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference as ref
from reference import spectral_assembly

from mqcnmr import opensystem, sequence
from mqcnmr.cli import main
from mqcnmr.config import config_from_dict, preset_path
from mqcnmr.errors import GridSizeError, UnsupportedGridError
from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.opensystem import (DecoherenceParams, GaussianOMDF, TabulatedOMDF,
                               g_irreversible, grid_nodes, pair_order_sums, prepare_reduced_state,
                               run_grid_open)
from mqcnmr.runner import build_eigensystem
from mqcnmr.sequence import AcquisitionSpec, ExperimentGrid
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
    det = detection_matrix(eig, ACQ.t_m, ACQ.window)
    state = prepare_reduced_state(eig, grid.t_p)
    sums = ref.open_order_sums_loop(
        det, state, eig.zeta, ref.eigen_m(eig), eig.order_parameter, grid.ts, grid.taus,
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
    # the closed engine's factorised kernel against the open engine's gap-grid
    # one, given the phase alone by direct exp and G^R = 1 and no band (so on
    # the gaps themselves), on the same sums
    reg, eig = make_system(n, seed)
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    ts, taus = 3e-6 * np.arange(n_t), 1e-4 * np.arange(n_tau)
    factorised = sequence.pair_order_sums(weights, eig, eig.phases(ts))
    chunked = pair_order_sums(weights, eig, ts, taus, lambda g, t: np.exp(
        -1j * eig.order_parameter * np.multiply.outer(g, t)), lambda g, tau: 0 * g + 0 * tau + 1.0)
    assert factorised.shape == (2 * n + 1, n_t)
    assert chunked.shape == (2 * n + 1, n_t, n_tau)
    assert np.max(np.abs(factorised[..., None] - chunked)) <= 1e-12 * np.max(np.abs(chunked))


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
       family=st.sampled_from(["gaussian", "tabulated"]), banded=st.booleans())
def test_mirror_pairs_match_the_ordered_pair_oracle(n, seed, n_tau, density, n_t, family,
                                                    banded):
    # sparse weights that are not hermitian: a pair is spread with its mirror
    # when either of them is nonzero, and each of the one-sided pairs below
    # has only one; with a band stated or not
    reg, eig = make_system(n, seed)
    rng = np.random.default_rng(seed)
    shape = (reg.dim, reg.dim)
    weights = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (
        rng.random(shape) < density)
    for k, (a, b) in enumerate(_one_sided_pairs(eig, rng)):
        # W_ab != 0 = W_ba for the first pair of each kind, the reverse after
        a, b = (a, b) if k % 2 == 0 else (b, a)
        weights[a, b], weights[b, a] = 1.0 - 0.5j * (k + 1), 0.0
    weights[np.arange(reg.dim), np.arange(reg.dim)] = 0.25 + rng.normal(size=reg.dim)
    params = DecoherenceParams(sigma_cl=2e5, omdf=make_omdf(family, 0.05))
    g_rev = partial(ref.g_reversible, params=params)
    g_irr = partial(g_irreversible, params=params)
    time_factors = partial(params.omdf.time_factors, s_zz=eig.order_parameter)
    ts, taus = 3e-6 * np.arange(n_t), 1e-4 * np.arange(1, n_tau + 1)
    band = params.band(ts, taus, eig.order_parameter) if banded else None
    fast = pair_order_sums(weights, eig, ts, taus, time_factors, g_irr, band).transpose(2, 0, 1)
    slow = ref.pair_order_sums_dense(weights, eig.zeta, ref.eigen_m(eig), eig.order_parameter,
                                     ts, taus, g_rev, g_irr, n)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def _random_omdf(family, width, table):
    """A Gaussian of the given width, or the table ``table`` of p (made to
    have a positive integral) on a uniform u span of 8 widths."""
    if family == "gaussian":
        return GaussianOMDF(width)
    p = np.asarray(table, dtype=float)
    p[np.argmax(p)] += 1.0
    return TabulatedOMDF(np.linspace(-4.0 * width, 4.0 * width, p.size), p)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([6, 5, 4, 3, 2]), seed=st.integers(0, 2 ** 16),
       family=st.sampled_from(["gaussian", "tabulated"]), width=st.floats(0.01, 0.3),
       table=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=60),
       sigma=st.floats(1e4, 5e5), tau_span=st.floats(0.0, 2e-4),
       n_tau=st.integers(1, 4), n_t=st.integers(2, 24), dt=st.floats(1e-6, 1e-5),
       banded=st.sampled_from([True, True, False]))
def test_gap_grid_matches_dense_order_sums(n, seed, family, width, table, sigma, tau_span,
                                           n_tau, n_t, dt, banded):
    # the kernel on uniform gap nodes (a band stated, and fewer nodes than
    # ordered pairs) or on the gaps themselves (no band, or N = 2 to 4
    # mostly), against one ordered pair at a time, to 1e-12 of the largest sum
    reg, eig = make_system(n, seed)
    rng = np.random.default_rng(seed)
    params = DecoherenceParams(sigma_cl=sigma, omdf=_random_omdf(family, width, table))
    shape = (reg.dim, reg.dim)
    weights = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ts, taus = dt * np.arange(n_t), np.linspace(0.0, tau_span, n_tau)
    band = params.band(ts, taus, eig.order_parameter) if banded else None
    h = opensystem.grid_nodes(eig.zeta, band)[1]
    event("uniform nodes" if h is not None else "at the gaps")
    g_irr = partial(g_irreversible, params=params)
    fast = pair_order_sums(weights, eig, ts, taus,
                           partial(params.omdf.time_factors, s_zz=eig.order_parameter),
                           g_irr, band).transpose(2, 0, 1)
    slow = ref.pair_order_sums_dense(weights, eig.zeta, ref.eigen_m(eig), eig.order_parameter,
                                     ts, taus, partial(ref.g_reversible, params=params),
                                     g_irr, n)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_node_sets_of_the_gap_grid():
    # uniform nodes where a band is stated and they are fewer than the
    # ordered pairs; the gaps themselves, each with its negative, otherwise
    params = DecoherenceParams(sigma_cl=2.5e5, omdf=GaussianOMDF(0.05))
    ts, taus = 2e-6 * np.arange(256), 1e-5 * np.arange(24)
    for n, banded, uniform in [(6, True, True), (6, False, False), (2, True, False)]:
        reg, eig = make_system(n, 1)
        band = params.band(ts, taus, eig.order_parameter) if banded else None
        nodes, h = opensystem.grid_nodes(eig.zeta, band)
        if h is None:  # the kernel's nodes then
            nodes = np.unique(np.subtract.outer(eig.zeta, eig.zeta))
        assert np.array_equal(nodes, -nodes[::-1])
        if uniform:
            assert h > 0 and nodes.size < reg.dim ** 2
            assert np.allclose(np.diff(nodes), h, rtol=1e-12, atol=0.0)
        else:
            assert h is None
            assert np.array_equal(nodes, np.unique(ref.gaps(eig)))


def test_stencil_weights_interpolate_and_hit_nodes():
    # P-point Lagrange weights hold each gap between their middle two nodes,
    # sum to 1, reproduce polynomials of degree < P and are one-hot on a node
    p = opensystem.STENCIL
    nodes, h = opensystem.grid_nodes(np.linspace(-3.0, 5.0, 7),
                                    np.pi / opensystem.OVERSAMPLING)
    assert h == 1.0
    gaps = np.concatenate([np.random.default_rng(0).uniform(-8.0, 8.0, 50), nodes[p:-p]])
    first, lagrange = opensystem._stencils(gaps, nodes, h, np.empty((p, gaps.size)))
    stencil = nodes[first + np.arange(p)[:, None]]
    assert np.all((stencil[p // 2 - 1] <= gaps) & (gaps <= stencil[p // 2]))
    np.testing.assert_allclose(lagrange.sum(axis=0), 1.0, rtol=0, atol=1e-13)
    for degree in (1, 3, 7):
        np.testing.assert_allclose((lagrange * (stencil / 8.0) ** degree).sum(axis=0),
                                   (gaps / 8.0) ** degree, rtol=0, atol=1e-11)
    assert np.all((lagrange[:, 50:] != 0) == (np.arange(p)[:, None] == p // 2 - 1))


@pytest.mark.parametrize("family", ["gaussian", "tabulated"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_node_product_matches_the_complex_product(family, seed):
    # random complex spread weights on a node set symmetric about 0 (an odd
    # count, with g = 0 counted once), the OMDF's E (complex q when
    # tabulated) and G^R on the nodes g >= 0: the real GEMMs against
    # A E + conj(B E) in complex arithmetic, to 1e-14 of the largest sum,
    # with the taus in groups of one, two or all of them
    rng = np.random.default_rng(seed)
    n_orders, below, n_t, n_tau = 2 * seed + 5, 40 + 17 * seed, 24 + seed, 7
    h = 2e3 * (1 + seed)
    half = h * np.arange(below + 1)
    shape = (n_orders, 2 * below + 1)
    rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    params = DecoherenceParams(sigma_cl=2e5, omdf=make_omdf(family, 0.05))
    ts, taus = 3e-6 * np.arange(n_t), 2e-5 * np.arange(n_tau)
    e = params.omdf.time_factors(half, ts, s_zz=0.6)
    g_r = g_irreversible(half[None], taus[:, None], params)
    slow = ref.node_sums_complex(rho, e, g_r)
    per_tau = 2 * n_orders * (2 * half.size + n_t)
    for taus_at_once in (1, 2, n_tau):
        work = np.empty(taus_at_once * per_tau + 3)
        fast = opensystem._node_sums(rho, np.stack([e.real, e.imag]), g_r,
                                     work).transpose(2, 0, 1)
        assert np.max(np.abs(fast - slow)) <= 1e-14 * np.max(np.abs(slow))


def test_order_sums_are_bit_identical_across_calls_and_chunks(monkeypatch):
    # N = 6, times as in the benchmark's open run, on uniform nodes and on the
    # gaps themselves (no band, the path of open_demo's few pairs); a spreading
    # budget of 40 pairs makes every order span many chunks, and each call
    # under it gives the same bits, within rounding of the one-chunk sums
    reg, eig = make_system(6, 3)
    rng = np.random.default_rng(3)
    shape = (reg.dim, reg.dim)
    weights = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    params = DecoherenceParams(sigma_cl=2.5e5, omdf=make_omdf("tabulated", 0.05))
    ts, taus = 2e-6 * np.arange(64), 1e-5 * np.arange(6)
    factors = (partial(params.omdf.time_factors, s_zz=eig.order_parameter),
               partial(g_irreversible, params=params))
    assert opensystem._PAIR_BYTES * reg.dim ** 2 < opensystem.GRID_CHUNK_BYTES  # one chunk
    for band in (params.band(ts, taus, eig.order_parameter), None):
        assert (opensystem.grid_nodes(eig.zeta, band)[1] is None) == (band is None)
        whole = pair_order_sums(weights, eig, ts, taus, *factors, band)
        with monkeypatch.context() as patch:
            patch.setattr(opensystem, "GRID_CHUNK_BYTES", 40 * opensystem._PAIR_BYTES)
            runs = [pair_order_sums(weights, eig, ts, taus, *factors, band) for _ in range(3)]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])
        assert np.max(np.abs(runs[0] - whole)) <= 1e-12 * np.max(np.abs(whole))


# the open benchmark's run: eight_spin_test, 24 taus 10 us apart, n_t = 256
OPEN_N8 = {
    "molecule": "../molecules/eight_spin_test.yaml",
    "engine": "open",
    "decoherence": {"sigma_cl": 2.5e5, "kappa": 2.0,
                    "omdf": {"family": "gaussian", "width": 0.05}},
    "sequence": {"t_p": 47.5e-6, "tau_schedule": {"count": 24, "step": 10.0e-6},
                 "acquisition": {"t_m": 4.0e-6, "window": 2.0e-6},
                 "grid": {"n_t": 256, "dt": 2.0e-6, "n_phi": 18}},
}


@pytest.fixture(scope="module")
def open_n8():
    """OPEN_N8's config, eigensystem and weight slab (``det * state.T``)."""
    cfg = config_from_dict(OPEN_N8, base_dir=preset_path("runs"))
    eig = build_eigensystem(cfg)
    _, state, det = sequence.kernel_inputs(eig, cfg.grid.t_p, cfg.acquisition)
    return cfg, eig, det * state.T


def _kernel_args(open_n8, ts) -> tuple:
    """OPEN_N8's ``pair_order_sums`` arguments on the times ts, the band over them last."""
    cfg, eig, weights = open_n8
    params, taus = cfg.decoherence, np.asarray(cfg.grid.taus)
    return (weights, eig, ts, taus, partial(params.omdf.time_factors, s_zz=eig.order_parameter),
            partial(g_irreversible, params=params), params.band(ts, taus, eig.order_parameter))


def test_g_r_floor_zeroes_what_underflows_and_moves_no_bit(open_n8, monkeypatch):
    # the G^R that reaches the node product holds no value in (0, 2^-511), and
    # more zeros than unfloored, as the late taus underflow; the sums keep every bit
    seen, node_sums = [], opensystem._node_sums

    def capture(rho, e, g_r, work):
        seen.append(g_r.copy())
        return node_sums(rho, e, g_r, work)

    args = _kernel_args(open_n8, open_n8[0].grid.ts)
    monkeypatch.setattr(opensystem, "_node_sums", capture)
    floored = pair_order_sums(*args)
    monkeypatch.setattr(opensystem, "G_R_FLOOR", 0.0)
    unfloored = pair_order_sums(*args)
    assert floored.tobytes() == unfloored.tobytes()
    (g_r, raw), tiny = seen, 2.0 ** -511
    assert np.count_nonzero((raw > 0) & (raw < tiny)) > 0
    assert np.count_nonzero((g_r > 0) & (g_r < tiny)) == 0
    assert np.count_nonzero(g_r == 0) > np.count_nonzero(raw == 0)
    assert np.array_equal(g_r, np.where(raw < tiny, 0.0, raw))


def test_uniform_nodes_hold_the_sums_within_1e_13_of_the_exact_nodes(open_n8):
    # N = 8 on the open benchmark's taus, whose late G^R underflows, and its
    # first 64 times: the uniform nodes against the gaps themselves (band None)
    *args, band = _kernel_args(open_n8, open_n8[0].grid.ts[:64])
    eig, taus, g_irr = args[1], args[3], args[5]
    assert grid_nodes(eig.zeta, band)[1] is not None
    assert np.any(g_irr(np.ptp(eig.zeta), taus) < 2.0 ** -511)
    uniform = pair_order_sums(*args, band)
    exact = pair_order_sums(*args)
    assert np.max(np.abs(uniform - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_g_r_is_finite_for_every_finite_tau():
    # tau^4 and the band overflow at tau = 1e80: G^R is exactly 1 at g = 0 and 0
    # elsewhere, the run takes the exact node set, and no warning is raised
    params = DecoherenceParams(sigma_cl=2.5e5, omdf=GaussianOMDF(0.05))
    gaps, taus = np.array([0.0, 1e-3, 2e4]), np.array([0.0, 1e-4, 1e80])
    g_r = g_irreversible(gaps[None], taus[:, None], params)
    assert g_r[:, 0].tolist() == [1.0] * 3 and g_r[2, 1:].tolist() == [0.0, 0.0]
    divisor = -8.0 * (params.kappa + 1.0) ** 2
    kept = np.exp((gaps[None] * params.sigma_cl) ** 2 * taus[:2, None] ** 4 / divisor)
    assert g_r[:2].tobytes() == kept.tobytes()
    assert g_irreversible(1e5, 0.0, DecoherenceParams(sigma_cl=1e300, omdf=params.omdf)) == 1.0
    reg, eig = make_system(3, 0)
    grid = ExperimentGrid(t_p=3e-5, n_t=8, dt=2e-6, n_phi=8, taus=(0.0, 1e80))
    assert params.band(grid.ts, grid.taus, eig.order_parameter) == np.inf
    assert grid_nodes(eig.zeta, np.inf) == (None, None)
    fast = run_grid_open(eig, grid, params, acquisition=ACQ).data
    assert np.all(np.isfinite(fast))
    slow = oracle_grid(eig, reg, grid, params)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@pytest.mark.parametrize("n", [6, 8, 10])
def test_open_engine_in_its_closed_limit_is_the_closed_engine(n):
    # sigma_cl = 1e-6 and a Gaussian OMDF of width 1e-9 leave G^R and G^T at 1
    # far below the bound, so the open run is the closed run with no block on
    # the same eigensystem: the two kernels share nothing after
    # ``kernel_inputs``, and from N = 8 up no oracle checks the open kernel's
    # block-pair walk
    _, eig = make_system(n, 0)
    grid = ExperimentGrid(t_p=4.75e-5, n_t=64, dt=2e-6, n_phi=2 * n + 2,
                          taus=(0.0, 1e-5, 2e-5))
    acq = AcquisitionSpec(t_m=4e-6, window=2e-6)
    params = DecoherenceParams(sigma_cl=1e-6, omdf=GaussianOMDF(1e-9))
    closed = sequence.run_grid(eig, grid, acquisition=acq).data
    open_ = run_grid_open(eig, grid, params, acquisition=acq).data
    assert np.max(np.abs(open_ - closed)) <= 1e-12 * np.max(np.abs(closed))


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
    # a budget at the traced peak must be refused, and one ``bound`` times it
    # accepted, for either OMDF: 60% above it at N = 7 with 24 taus, and 3x on
    # a small grid (N = 5, n_t = 16, 3 taus), where each fixed chunk budget
    # is charged at most what the grid fills
    for n, n_t, n_tau, bound in ((7, 64, 24, 1.6), (5, 16, 3, 3.0)):
        reg, eig = make_system(n, 3)
        params = DecoherenceParams(sigma_cl=2e5, omdf=make_omdf(family, 0.05))
        grid = ExperimentGrid(t_p=3e-5, n_t=n_t, dt=3e-6, n_phi=16,
                              taus=tuple(k * 1e-5 for k in range(n_tau)))
        tracemalloc.start()
        try:
            run_grid_open(eig, grid, params, acquisition=ACQ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
        with pytest.raises(GridSizeError):
            run_grid_open(eig, grid, params, acquisition=ACQ)
        monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", int(bound * peak))
        run_grid_open(eig, grid, params, acquisition=ACQ)


def test_open_memory_estimate_covers_g_r_on_many_taus(monkeypatch):
    # 2000 taus of 2 times at N = 6: G^R (taus x nodes g >= 0) outweighs the
    # rest of the kernel, so its build may hold no second array of its size;
    # a budget at the traced peak must be refused, and one 5% above it accepted
    reg, eig = make_system(6, 3)
    params = DecoherenceParams(sigma_cl=2e5, omdf=GaussianOMDF(0.05))
    grid = ExperimentGrid(t_p=3e-5, n_t=2, dt=3e-6, n_phi=14,
                          taus=tuple(k * 1e-7 for k in range(2000)))
    tracemalloc.start()
    try:
        run_grid_open(eig, grid, params, acquisition=ACQ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", peak)
    with pytest.raises(GridSizeError):
        run_grid_open(eig, grid, params, acquisition=ACQ)
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", int(1.05 * peak))
    run_grid_open(eig, grid, params, acquisition=ACQ)


def test_open_config_over_budget_exits_2(tmp_path, monkeypatch, capsys):
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
    # over the eigensystem's charge at N = 3 (69,248 B), so the open gate refuses
    monkeypatch.setattr(sequence, "MEMORY_BUDGET_BYTES", 70_000)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg_path), "--output", str(out)]) == 2
    assert "configuration error: grid needs about" in capsys.readouterr().err
    assert not (out / "signals.npy").exists()


def test_long_omdf_table_runs_in_bounded_memory():
    # an unblocked q (the phases of every node and time with the 2001 table
    # points, and their cosines at once) would peak above the bound; q works
    # in blocks instead
    reg, eig = make_system(4, 5)
    u = np.linspace(-0.3, 0.3, 2001)
    params = DecoherenceParams(sigma_cl=2e5, omdf=TabulatedOMDF(u, np.exp(-u ** 2 / 0.005)))
    grid = ExperimentGrid(t_p=3e-5, n_t=32, dt=2e-6, n_phi=10, taus=(1e-4,))
    tracemalloc.start()
    try:
        fast = run_grid_open(eig, grid, params, acquisition=ACQ).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * opensystem.GRID_CHUNK_BYTES
    slow = oracle_grid(eig, reg, grid, params)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_tabulated_q_blocks_are_bit_identical(monkeypatch):
    omdf = make_omdf("tabulated", 0.05)
    x = np.random.default_rng(2).normal(scale=40.0, size=(7, 5))
    whole = omdf.q(x)
    monkeypatch.setattr(opensystem, "GRID_CHUNK_BYTES", 16 * omdf.u.size * 3)
    assert omdf.q_values(35) == 3 * omdf.u.size
    assert np.array_equal(omdf.q(x), whole)  # 12 blocks of 3 points
    assert omdf.q(x[0, 0]) == whole[0, 0]


def test_spectral_route_needs_uniform_times():
    reg, eig = make_system(2, 4)
    state = prepare_reduced_state(eig, 3e-5)
    ts = np.array([0.0, 1e-6, 3e-6, 4e-6])
    with pytest.raises(UnsupportedGridError):
        spectral_assembly(state, eig, reg, ts, 3e-6, 2e-6)
