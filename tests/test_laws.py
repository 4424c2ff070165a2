"""Exact laws of the model, checked on the production path of both engines.

The pulses, the initial state I_z and the detection I_+ are collective, so
relabelling the sites of the coupling table changes no signal.  The
Hamiltonian is linear in the couplings, so multiplying every coupling by
lambda and dividing every time by it (t_p, dt, the taus, tau1, t_m and the
window) changes no signal either; the open engine's G^R holds
dzeta^2 sigma_cl^2 tau^4, so sigma_cl is multiplied by lambda too.  Neither
law needs an oracle, so each checks the engines at any N for the cost of a
second run: the properties below draw N <= 6, one plain case of each law
runs at N = 10, where no oracle checks the engines, and the scaling law
runs once more at N = 11.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqcnmr.hamiltonian import SpinSystem, eigendecompose, secular_hamiltonian
from mqcnmr.opensystem import DecoherenceParams, GaussianOMDF, run_grid_open
from mqcnmr.sequence import AcquisitionSpec, ExperimentGrid, Mrev8Spec, run_grid

S_ZZ = 0.6
TAU1 = 5e-6


def random_table(n, seed):
    """A coupling table (Hz) with every pair coupled, uniform in +-5 kHz."""
    rng = np.random.default_rng(seed)
    table = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            table[j, k] = table[k, j] = rng.uniform(-5000.0, 5000.0)
    return table


def signals(engine, table, lam=1.0, sigma_cl=2e5, width=0.05, mrev8=True):
    """The signal grid of one run on ``table`` with its couplings times ``lam``
    and every time divided by it; a closed run has an MREV-8 block, or none
    when ``mrev8`` is false.

    The acquisition is explicit: the default scan steps by a fixed 1 us
    dwell, which no coupling scale moves, so it would place t_m on another
    point of the scaled signal."""
    eig = eigendecompose(secular_hamiltonian(SpinSystem(lam * table, S_ZZ)), S_ZZ)
    grid = ExperimentGrid(t_p=4e-5 / lam, n_t=8, dt=3e-6 / lam, n_phi=10,
                          taus=tuple(k * 12 * TAU1 / lam for k in range(3)))
    acq = AcquisitionSpec(t_m=4e-6 / lam, window=2e-6 / lam)
    if engine == "closed":
        block = Mrev8Spec(tau1=TAU1 / lam) if mrev8 else None
        return run_grid(eig, grid, block=block, acquisition=acq).data
    params = DecoherenceParams(sigma_cl=lam * sigma_cl, omdf=GaussianOMDF(width))
    return run_grid_open(eig, grid, params, acquisition=acq).data


def assert_same(a, b):
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


ENGINES = st.sampled_from(["closed", "open"])


@settings(max_examples=30, deadline=None)
@given(engine=ENGINES, n=st.integers(2, 6), seed=st.integers(0, 2 ** 16), data=st.data())
def test_relabelling_the_sites_changes_no_signal(engine, n, seed, data):
    table = random_table(n, seed)
    perm = np.array(data.draw(st.permutations(range(n))))
    assert_same(signals(engine, table), signals(engine, table[np.ix_(perm, perm)]))


@settings(max_examples=30, deadline=None)
@given(engine=ENGINES, n=st.integers(2, 6), seed=st.integers(0, 2 ** 16),
       lam=st.floats(0.25, 4.0), power=st.integers(-2, 2), sigma_cl=st.floats(5e4, 5e5),
       width=st.floats(0.01, 0.2))
def test_scaling_couplings_and_times_changes_no_signal(engine, n, seed, lam, power, sigma_cl,
                                                       width):
    # a power of two scales every float exactly, so its run is bit-identical
    table = random_table(n, seed)
    base = signals(engine, table, sigma_cl=sigma_cl, width=width)
    assert_same(base, signals(engine, table, lam, sigma_cl, width))
    assert np.array_equal(base, signals(engine, table, 2.0 ** power, sigma_cl, width))


@pytest.mark.parametrize("engine", ["closed", "open"])
def test_relabelling_the_sites_changes_no_signal_at_ten_spins(engine):
    table = random_table(10, 7)
    # every site moves: a site left in place would hide a defect local to it
    perm = np.roll(np.arange(10), 3)
    assert_same(signals(engine, table), signals(engine, table[np.ix_(perm, perm)]))


@pytest.mark.parametrize("engine", ["closed", "open"])
def test_scaling_by_a_power_of_two_is_bit_identical_at_ten_spins(engine):
    table = random_table(10, 8)
    assert np.array_equal(signals(engine, table), signals(engine, table, 2.0))


def test_scaling_by_a_power_of_two_is_bit_identical_at_eleven_spins():
    # above the old ceiling of 10 spins no oracle checks the engines; the
    # closed engine with no block keeps the case to a few seconds
    table = random_table(11, 9)
    assert np.array_equal(signals("closed", table, mrev8=False),
                          signals("closed", table, 2.0, mrev8=False))
