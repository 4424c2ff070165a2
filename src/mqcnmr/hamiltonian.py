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
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DegenerateGeometryError, MqcnmrError, NotSecularError, TrivialSystemError
from .operators import T20_UNIT, SpinRegister, checked_hermitian, t20_bits

GAMMA_PROTON = 2.6752218744e8  # rad s^-1 T^-1 (CODATA)
# CODATA 2022: vacuum permeability (N A^-2) and h / (2 pi) with the exact
# h = 6.62607015e-34 J s, written out so importing the package loads no scipy
MU_0 = 1.25663706127e-06
HBAR = 1.0545718176461565e-34

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
    prefactor = 3.0 * MU_0 * gamma ** 2 * HBAR / (8.0 * np.pi * norm ** 3)
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


def secular_hamiltonian(sys: SpinSystem, reg: SpinRegister | None = None) -> np.ndarray:
    """Secular dipolar Hamiltonian of the molecule, in rad/s, read-only.

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
    return checked_hermitian(h)


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

    @cached_property
    def blocks(self) -> tuple:
        """(rows, cols, V_m) of each total m, in descending m: every eigenvector
        has a definite m, so V is zero outside the blocks V_m = V[rows, cols]
        that join the product-basis states of that m (rows) to its
        eigenvectors (cols)."""
        m_basis = SpinRegister(int(np.log2(self.dim))).m_values()
        blocks = []
        for m in np.unique(self.m)[::-1]:
            rows, cols = np.flatnonzero(m_basis == m), np.flatnonzero(self.m == m)
            v = self.vectors[np.ix_(rows, cols)]
            v.flags.writeable = False
            blocks.append((rows, cols, v))
        return tuple(blocks)

    @cached_property
    def _layout(self) -> tuple:
        """The slices of the m blocks once both bases are sorted by m, and for
        the product basis and the eigenbasis the sorting order and its inverse
        (both None where the basis is sorted already)."""
        edges = np.cumsum([0] + [rows.size for rows, _, _ in self.blocks])
        orders = []
        for k in (0, 1):
            order = np.concatenate([block[k] for block in self.blocks])
            sorted_ = np.array_equal(order, np.arange(self.dim))
            orders.append((None, None) if sorted_ else (order, np.argsort(order)))
        return tuple(map(slice, edges[:-1], edges[1:])), orders[0], orders[1]

    def to_eigen(self, x: np.ndarray) -> np.ndarray:
        """V^dagger x V through V's m blocks: sum_m C(N, m)^2 2^(N+1) products
        instead of 2^(3N+1)."""
        slices, (rows, _), (_, cols_back) = self._layout
        return _blockwise(x, slices, rows, cols_back, [v.conj().T for _, _, v in self.blocks],
                          [v for _, _, v in self.blocks])

    def to_product(self, x: np.ndarray) -> np.ndarray:
        """V x V^dagger through V's m blocks, the inverse of ``to_eigen``."""
        slices, (_, rows_back), (cols, _) = self._layout
        return _blockwise(x, slices, cols, rows_back, [v for _, _, v in self.blocks],
                          [v.conj().T for _, _, v in self.blocks])

    def product_blockwise(self, x: np.ndarray, left, right=None) -> np.ndarray:
        """L x R for L and R block diagonal in total m in the product basis,
        with blocks ``left`` and ``right`` on the rows of ``blocks`` (R = 1
        when ``right`` is None, where x may have any number of columns)."""
        slices, (rows, rows_back), _ = self._layout
        return _blockwise(x, slices, rows, rows_back, left, right)


def _blockwise(x: np.ndarray, slices, order, back, left, right=None) -> np.ndarray:
    """L x R with L, R block diagonal, the blocks ``left`` and ``right`` on
    ``slices`` of the index order ``order``; the result in the index order
    ``back`` (None: no reordering).  R = 1 and only rows reorder when ``right``
    is None."""
    axes = (0,) if right is None else (0, 1)
    y = x
    for axis in axes if order is not None else ():
        y = y.take(order, axis)
    out = np.empty(y.shape, dtype=complex)
    for s, a in zip(slices, left):
        np.matmul(a, y[s], out=out[s])
    if right is not None:
        y = np.empty_like(out) if y is x else y
        for s, b in zip(slices, right):
            np.matmul(out[:, s], b, out=y[:, s])
        out, y = y, out
    del y  # the spare buffer goes before the reordered copies are made
    for axis in axes if back is not None else ():
        out = out.take(back, axis)
    return out


def eigendecompose(h: np.ndarray, reg: SpinRegister,
                   order_parameter: float = 1.0) -> EigenSystem:
    """Diagonalize H simultaneously with total I_z.

    H must commute with I_z (checked against ``SECULAR_ATOL`` scaled by
    the Hamiltonian norm); each m block is diagonalized independently, so
    every eigenvector carries a definite m.  Within each block eigenvalues
    are sorted ascending and degeneracies grouped with relative tolerance
    1e-9 * ||H||, taken as the largest |eigenvalue| of the m blocks.
    """
    hm = np.asarray(h, dtype=complex)
    m_basis = reg.m_values()
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

    # the spectral norm of a secular H, without an SVD of H
    hnorm = np.max(np.abs(zeta))
    # [H, I_z][a, b] = H[a, b] (m_b - m_a), as I_z is diagonal
    comm = np.max(np.abs(hm * (m_basis[None, :] - m_basis[:, None])))
    if comm > SECULAR_ATOL * max(hnorm, 1.0):
        raise NotSecularError(f"[H, I_z] max entry {comm:.3e} exceeds tolerance")

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

