"""Secular intramolecular dipolar Hamiltonian and its eigensystem.

The Hamiltonian of one molecule is

    H = S_zz * sum_{j<k} sqrt(2/3) * (2*pi*omega_D(j,k)) * T20_{jk}

with the dipolar frequency omega_D in Hz computed from geometry (or taken
from an explicit coupling table) and converted to angular frequency exactly
once, here at construction.  Eigenvalues are stored as zeta with the order
parameter factored out, H |zeta s> = S_zz * zeta |zeta s>, so that
eigenvalue differences entering decoherence formulas are S_zz-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import constants

from .errors import DegenerateGeometryError, MqcnmrError, NotSecularError, TrivialSystemError
from .operators import T20_UNIT, OperatorMatrix, SpinRegister, t20_bits

GAMMA_PROTON = 2.6752218744e8  # rad s^-1 T^-1 (CODATA)

SECULAR_ATOL = 1e-9


@dataclass(frozen=True)
class SpinSystem:
    """Geometry or couplings of a single molecule's proton cluster.

    Exactly one of ``positions`` (site coordinates in meters) or
    ``couplings_hz`` (symmetric zero-diagonal table of dipolar frequencies
    in Hz) must be given.

    Attributes:
        order_parameter: nematic order parameter S_zz in [-0.5, 1].
        gamma: gyromagnetic ratio in rad s^-1 T^-1 (default proton).
        name: free-form label carried into output metadata.
    """

    n_sites: int
    positions: np.ndarray | None = None
    couplings_hz: np.ndarray | None = None
    order_parameter: float = 1.0
    gamma: float = GAMMA_PROTON
    name: str = ""

    def __post_init__(self):
        if (self.positions is None) == (self.couplings_hz is None):
            raise MqcnmrError("provide exactly one of positions or couplings_hz")
        if not -0.5 <= self.order_parameter <= 1.0:
            raise MqcnmrError(f"order parameter {self.order_parameter} outside [-0.5, 1]")
        if self.positions is not None:
            pos = np.asarray(self.positions, dtype=float)
            if pos.shape != (self.n_sites, 3):
                raise MqcnmrError(f"positions shape {pos.shape} != ({self.n_sites}, 3)")
            pos.flags.writeable = False
            object.__setattr__(self, "positions", pos)
        else:
            c = np.asarray(self.couplings_hz, dtype=float)
            if c.shape != (self.n_sites, self.n_sites):
                raise MqcnmrError(f"coupling table shape {c.shape} != ({self.n_sites},)*2")
            if np.max(np.abs(c - c.T)) > 0:
                raise MqcnmrError("coupling table must be symmetric")
            if np.max(np.abs(np.diag(c))) > 0:
                raise MqcnmrError("coupling table must have a zero diagonal")
            c.flags.writeable = False
            object.__setattr__(self, "couplings_hz", c)

    def register(self) -> SpinRegister:
        return SpinRegister(self.n_sites)


def dipolar_frequency(r_jk: np.ndarray, gamma: float = GAMMA_PROTON) -> float:
    """Dipolar frequency (Hz) of a spin pair joined by vector r_jk (meters).

    omega_D = 3 mu0 gamma^2 hbar / (8 pi r^3) * [1 - 3 cos^2(beta)] with
    beta the polar angle of r_jk with respect to the molecular z axis.
    Vanishes at the magic angle and scales as r^-3.
    """
    r = np.asarray(r_jk, dtype=float)
    norm = np.linalg.norm(r)
    if norm == 0.0:
        raise DegenerateGeometryError("internuclear vector has zero length")
    cos_beta = r[2] / norm
    prefactor = 3.0 * constants.mu_0 * gamma ** 2 * constants.hbar / (8.0 * np.pi * norm ** 3)
    return prefactor * (1.0 - 3.0 * cos_beta ** 2)


def coupling_table(sys: SpinSystem) -> np.ndarray:
    """Full symmetric table of pair dipolar frequencies (Hz)."""
    if sys.couplings_hz is not None:
        return sys.couplings_hz
    n = sys.n_sites
    table = np.zeros((n, n))
    for j, k in combinations(range(n), 2):
        w = dipolar_frequency(sys.positions[k] - sys.positions[j], sys.gamma)
        table[j, k] = table[k, j] = w
    return table


def secular_hamiltonian(sys: SpinSystem, reg: SpinRegister | None = None) -> OperatorMatrix:
    """Secular dipolar Hamiltonian of the molecule, in rad/s.

    The Hz -> rad/s conversion (factor 2*pi) is applied here and nowhere
    else.  The result is traceless and commutes with total I_z.  Each pair
    adds its T20 entries from basis-index bits (``t20_bits``), no dense T20.
    """
    if sys.n_sites < 2:
        raise TrivialSystemError("need at least two sites for a dipolar Hamiltonian")
    reg = reg or sys.register()
    if reg.n_spins != sys.n_sites:
        raise MqcnmrError(f"register has {reg.n_spins} spins but system has {sys.n_sites} sites")
    table = coupling_table(sys)
    h = np.zeros((reg.dim, reg.dim), dtype=complex)
    for j, k in combinations(range(sys.n_sites), 2):
        if table[j, k] == 0.0:
            continue
        coef = np.sqrt(2.0 / 3.0) * (2.0 * np.pi * table[j, k])
        diag, rows, cols = t20_bits(reg.n_spins, j, k)
        h.flat[::reg.dim + 1] += coef * diag
        h[rows, cols] = coef * -T20_UNIT
    h *= sys.order_parameter
    return OperatorMatrix(h, kind="hermitian")


@dataclass(frozen=True)
class EigenSystem:
    """Simultaneous eigenbasis of (H, I_z).

    Attributes:
        zeta: eigenvalues in rad/s with S_zz factored out,
            H = V diag(S_zz * zeta) V^dagger.
        vectors: unitary matrix V, one eigenvector per column.
        m: total-I_z quantum number of each eigenvector.
        s: degeneracy label (index within each group of equal zeta).
        order_parameter: the S_zz that was factored out.
    """

    zeta: np.ndarray
    vectors: np.ndarray
    m: np.ndarray
    s: np.ndarray
    order_parameter: float

    @property
    def dim(self) -> int:
        return self.zeta.shape[0]

    def gaps(self) -> np.ndarray:
        """Matrix of eigenvalue differences zeta_a - zeta_b."""
        return self.zeta[:, None] - self.zeta[None, :]

    def coherence_orders(self) -> np.ndarray:
        """Integer coherence order m_a - m_b of eigenbasis element (a, b)."""
        return np.rint(self.m[:, None] - self.m[None, :]).astype(int)


def eigendecompose(h: OperatorMatrix, reg: SpinRegister,
                   order_parameter: float = 1.0) -> EigenSystem:
    """Diagonalize H simultaneously with total I_z.

    H must commute with I_z (checked against ``SECULAR_ATOL`` scaled by
    the Hamiltonian norm); each m block is diagonalized independently, so
    every eigenvector carries a definite m.  Within each block eigenvalues
    are sorted ascending and degeneracies grouped with relative tolerance
    1e-9 * ||H||.
    """
    hm = h.entries if isinstance(h, OperatorMatrix) else np.asarray(h, dtype=complex)
    m_basis = reg.m_values()
    hnorm = np.linalg.norm(hm, 2)
    # [H, I_z][a, b] = H[a, b] (m_b - m_a), as I_z is diagonal
    comm = np.max(np.abs(hm * (m_basis[None, :] - m_basis[:, None])))
    if comm > SECULAR_ATOL * max(hnorm, 1.0):
        raise NotSecularError(f"[H, I_z] max entry {comm:.3e} exceeds tolerance")

    dim = reg.dim
    zeta = np.zeros(dim)
    vecs = np.zeros((dim, dim), dtype=complex)
    m_out = np.zeros(dim)
    col = 0
    # descending m keeps the block layout aligned with the product basis
    for m_val in sorted(set(m_basis.tolist()), reverse=True):
        idx = np.flatnonzero(m_basis == m_val)
        block = hm[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(block)
        n = idx.size
        zeta[col:col + n] = w
        vecs[np.ix_(idx, range(col, col + n))] = v
        m_out[col:col + n] = m_val
        col += n

    scale = order_parameter if order_parameter != 0.0 else 1.0
    zeta = zeta / scale

    # degeneracy labels within groups of equal zeta (global grouping)
    tol = 1e-9 * max(hnorm / abs(scale), 1e-300)
    s = np.zeros(dim, dtype=int)
    order = np.argsort(zeta, kind="stable")
    group_start = 0
    for i in range(1, dim + 1):
        if i == dim or zeta[order[i]] - zeta[order[group_start]] > tol:
            for rank, j in enumerate(order[group_start:i]):
                s[j] = rank
            group_start = i

    for arr in (zeta, vecs, m_out, s):
        arr.flags.writeable = False
    return EigenSystem(zeta=zeta, vectors=vecs, m=m_out, s=s,
                       order_parameter=order_parameter)

