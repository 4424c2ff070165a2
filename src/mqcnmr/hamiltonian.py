"""Secular intramolecular dipolar Hamiltonian and its eigensystem.

The Hamiltonian of one molecule is

    H = S_zz * sum_{j<k} sqrt(2/3) * (2*pi*omega_D(j,k)) * T20_{jk}

with omega_D in Hz read from the molecule's coupling table and converted to
angular frequency exactly once, here at construction.  Eigenvalues are
stored as zeta with the order parameter factored out, H |zeta s> = S_zz *
zeta |zeta s>, so that eigenvalue differences entering decoherence formulas
are S_zz-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError, MqcnmrError, TrivialSystemError
from .operators import T20_UNIT, SpinRegister, checked_hermitian, one_bit_apart

GAMMA_PROTON = 2.6752218744e8  # rad s^-1 T^-1 (CODATA)
# CODATA 2022: vacuum permeability (N A^-2) and h / (2 pi) with the exact
# h = 6.62607015e-34 J s, written out so importing the package loads no scipy
MU_0 = 1.25663706127e-06
HBAR = 1.0545718176461565e-34


def distinct(values) -> np.ndarray:
    """The distinct entries of an array, ascending, by a sort and a compare of
    neighbours: np.unique's result without its first call's import of
    numpy.ma (about 1.1 MB of module objects, outside every memory charge)."""
    v = np.sort(np.ravel(values))
    return v[np.append(True, v[1:] != v[:-1])] if v.size else v


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """One molecule's proton cluster: all the Hamiltonian reads of it.

    Two molecules are equal, and hash equal, when their tables hold the same
    values and their order parameters are equal.

    Attributes:
        couplings_hz: finite, symmetric, zero-diagonal table of the pair
            dipolar frequencies omega_D(j, k) in Hz over two sites or more
            (TrivialSystemError otherwise: no dipolar Hamiltonian exists),
            kept as a read-only copy (with -0.0 stored as 0.0, so equal
            tables have equal bytes).
        order_parameter: nematic order parameter S_zz in [-0.5, 1].
    """

    couplings_hz: np.ndarray
    order_parameter: float = 1.0

    def __post_init__(self):
        c = np.array(self.couplings_hz, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise MqcnmrError(f"coupling table shape {c.shape} is not square")
        if c.shape[0] < 2:
            raise TrivialSystemError("need at least two sites for a dipolar Hamiltonian")
        if not np.all(np.isfinite(c)):
            raise MqcnmrError("coupling table has non-finite entries")
        if not np.array_equal(c, c.T) or np.any(np.diag(c) != 0):
            raise MqcnmrError("coupling table must be symmetric with a zero diagonal")
        if not -0.5 <= self.order_parameter <= 1.0:
            raise MqcnmrError(f"order parameter {self.order_parameter} outside [-0.5, 1]")
        c += 0.0
        c.flags.writeable = False
        object.__setattr__(self, "couplings_hz", c)

    def __eq__(self, other):
        if not isinstance(other, SpinSystem):
            return NotImplemented
        return (np.array_equal(self.couplings_hz, other.couplings_hz)
                and self.order_parameter == other.order_parameter)

    def __hash__(self) -> int:
        return hash((self.couplings_hz.tobytes(), self.order_parameter))

    @classmethod
    def from_positions(cls, positions_m, order_parameter: float = 1.0,
                       gamma: float = GAMMA_PROTON) -> SpinSystem:
        """The molecule with sites at ``positions_m`` (N x 3, meters): the one
        place where geometry and gamma (rad s^-1 T^-1) enter, the omega_D of
        row j's pairs (j, k > j) from one ``dipolar_frequency`` call."""
        pos = np.asarray(positions_m, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise MqcnmrError(f"positions shape {pos.shape} is not (N, 3)")
        table = np.zeros((pos.shape[0],) * 2)
        for j in range(pos.shape[0] - 1):
            table[j, j + 1:] = table[j + 1:, j] = dipolar_frequency(pos[j + 1:] - pos[j], gamma)
        return cls(table, order_parameter)

    @property
    def n_sites(self) -> int:
        return self.couplings_hz.shape[0]

    def register(self) -> SpinRegister:
        return SpinRegister(self.n_sites)


def dipolar_frequency(r_jk, gamma: float = GAMMA_PROTON):
    """Dipolar frequency (Hz) of a spin pair joined by vector r_jk (meters),
    or of each pair of a (..., 3) stack of such vectors.

    omega_D = 3 mu0 gamma^2 hbar / (8 pi r^3) * [1 - 3 cos^2(beta)] with
    beta the polar angle of r_jk with respect to the molecular z axis.
    Vanishes at the magic angle and scales as r^-3.  One vector runs as a
    (1, 3) stack, so it gives the bits of its row in any stack.
    """
    r = np.asarray(r_jk, dtype=float)
    rows = r.reshape(-1, 3)
    norm = np.sqrt(np.vecdot(rows, rows))  # the dot np.linalg.norm takes of one vector
    if np.any(norm == 0.0):
        raise DegenerateGeometryError("internuclear vector has zero length")
    cos_beta = rows[:, 2] / norm
    prefactor = 3.0 * MU_0 * gamma ** 2 * HBAR / (8.0 * np.pi * norm ** 3)
    return (prefactor * (1.0 - 3.0 * cos_beta ** 2)).reshape(r.shape[:-1])[()]


def secular_hamiltonian(sys: SpinSystem) -> tuple:
    """Secular dipolar Hamiltonian of the molecule, in rad/s, as its total-m
    blocks: one (rows, H_m) per total m, in descending m, with rows the
    product-basis states of that m (ascending) and H_m = H[rows, rows]
    read-only.  The molecule has two sites or more (``SpinSystem``).

    The Hz -> rad/s conversion (factor 2*pi) is applied here and nowhere
    else.  H is traceless and commutes with total I_z, so it is zero outside
    these blocks and no 2^N x 2^N matrix is formed.  Pair (j, k) adds its T20
    diagonal (``t20_pair``) and its flip-flop entry, which joins r, r' of one
    block when r ^ r' is the pair's two bits: one 2^N table holds it at that
    index, read at ``rows[:, None] ^ rows``.  Each block is checked hermitian.
    """
    reg, table = sys.register(), sys.couplings_hz
    idx = np.arange(reg.dim)
    diag, flip = np.zeros(reg.dim, dtype=complex), np.zeros(reg.dim, dtype=complex)
    for j, k in zip(*np.nonzero(np.triu(table, 1))):
        coef = np.sqrt(2.0 / 3.0) * (2.0 * np.pi * table[j, k])
        bj, bk = reg.n_spins - 1 - j, reg.n_spins - 1 - k
        diag += coef * (T20_UNIT * (1.0 - 2.0 * ((idx >> bj ^ idx >> bk) & 1)))
        flip[1 << bj | 1 << bk] = coef * -T20_UNIT
    m_basis, blocks = reg.m_values(), []
    for m in distinct(m_basis)[::-1]:
        rows = np.flatnonzero(m_basis == m)
        h = flip[rows[:, None] ^ rows]
        h.flat[::rows.size + 1] = diag[rows]
        h *= sys.order_parameter
        blocks.append((rows, checked_hermitian(h)))
    return tuple(blocks)


@dataclass(frozen=True)
class EigenSystem:
    """Simultaneous eigenbasis of (H, I_z), held as the total-m blocks of the
    eigenvector matrix V, in block order: the blocks in descending m, each
    block's eigenvectors on the next contiguous columns.

    Attributes:
        zeta: eigenvalues in rad/s with S_zz factored out,
            H = V diag(S_zz * zeta) V^dagger.
        blocks: (rows, cols, V_m) of each total m, in descending m: every
            eigenvector has a definite m, so V is zero outside the blocks
            V_m = V[rows, cols] that join the product-basis states of that m
            (rows, an index array) to its eigenvectors (cols, a slice; the
            slices follow one another from 0 to 2^N).
        order_parameter: the S_zz that was factored out.
        cycle_slots: how many reversion cycles ``held_cycle`` keeps: 1, or
            the number of MREV-8 "concatenate" pulse spacings that a sweep's
            runs on the eigensystem take turns with (``runner.sweep``).

    Beside these it holds, read-only and for as long as it lives, what every
    run on it would build alike: I_+'s eigenbasis blocks (``i_plus``, built
    on the first read), up to ``cycle_slots`` reversion cycles
    (``held_cycle``) and one run setup (``held_setup``).
    """

    zeta: np.ndarray
    blocks: tuple
    order_parameter: float
    cycle_slots: int = 1

    @property
    def dim(self) -> int:
        return self.zeta.shape[0]

    @property
    def reg(self) -> SpinRegister:
        """The N-spin product space of the eigenbasis, N from dim = 2^N."""
        return SpinRegister(self.dim.bit_length() - 1)

    @property
    def vectors(self) -> np.ndarray:
        """The unitary V, one eigenvector per column, assembled from ``blocks``
        on every read.  The engines work on the blocks and never read it, and
        the tests use ``reference.vectors``; the benchmark's N = 4 oracle
        (``perfbench/oracle.py``) reads it."""
        v = np.zeros((self.dim, self.dim), dtype=complex)
        for rows, cols, v_m in self.blocks:
            v[rows, cols] = v_m
        return v

    @cached_property
    def i_plus(self) -> tuple:
        """I_+ = I_x + i I_y in the eigenbasis, read-only, as its only nonzero
        blocks, C(2N, N - 1) entries: (up, down, V_{m+1}^dagger X V_m) for each
        two neighbouring entries up and down of ``blocks`` (total m + 1 and m),
        with X = I_+[rows_{m+1}, rows_m] 1 where the XOR d = r ^ r' of two basis
        indices is one bit (``one_bit_apart``: d & (d - 1) == 0), else 0."""
        pairs = []
        for up, down in zip(self.blocks, self.blocks[1:]):
            (rows_up, _, v_up), (rows, _, v) = up, down
            x = v_up.conj().T @ (one_bit_apart(rows_up, rows).astype(complex) @ v)
            x.flags.writeable = False
            pairs.append((up, down, x))
        return tuple(pairs)

    def i_plus_product(self, weight) -> np.ndarray:
        """V (f o I_+) V^dagger in the product basis for a per-gap weight f:
        each eigenbasis element of I_+ times f of its gap
        omega = S_zz (zeta_up - zeta_down), ``weight`` taking an array of gaps
        elementwise.  Each (m + 1, m) block goes to the product basis on its
        own, V_{m+1} X V_m^dagger written at its rows of a zero 2^N x 2^N
        matrix."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (rows_up, cols_up, v_up), (rows, cols, v), x in self.i_plus:
            omega = self.order_parameter * (self.zeta[cols_up, None] - self.zeta[cols])
            out[np.ix_(rows_up, rows)] = (v_up @ (x * weight(omega))) @ v.conj().T
        return out

    @property
    def cycles_held(self) -> int:
        """How many operators ``held_cycle`` holds."""
        return len(self.__dict__.get("_cycles", ()))

    def held_cycle(self, key, build) -> np.ndarray:
        """The operator ``build()`` returns, built on the first call with
        ``key`` and held, read-only, for the next calls with it.  The holder
        keeps ``cycle_slots`` entries: a call with a new key when it is full
        lets the oldest go before it builds its own."""
        cycle = self._held("_cycles", self.cycle_slots, key, build)
        cycle.flags.writeable = False
        return cycle

    def holds_setup(self, key) -> bool:
        """Whether ``held_setup`` holds the setup of ``key``."""
        return key in self.__dict__.get("_setup", ())

    def held_setup(self, key, build) -> tuple:
        """The run setup ``build()`` returns, built on the first call with
        ``key`` and held for the next calls with it.  The holder has one
        entry: a call with another key lets the held setup go before it
        builds its own."""
        return self._held("_setup", 1, key, build)

    def _held(self, holder: str, slots: int, key, build):
        held = self.__dict__.setdefault(holder, {})  # in order of building
        if key not in held:
            if len(held) == slots:
                del held[next(iter(held))]
            held[key] = build()
        return held[key]

    def phases(self, ts) -> np.ndarray:
        """Free-evolution phases p[j, a] = exp(-i S_zz zeta_a t_j), shape (n_t, dim),
        built in place: a float array times a complex scalar casts through
        numpy's buffer (np.getbufsize() values, 128 KiB), which the memory
        gates do not charge beside the scan's phases."""
        p = np.outer(ts, self.zeta).astype(complex)
        p *= -1j * self.order_parameter
        return np.exp(p, out=p)

    def evolve(self, x: np.ndarray, duration: float) -> np.ndarray:
        """exp(-i H duration) x for x of 2^N rows in the product basis: the rows
        of each m block times V_m diag(p_m) V_m^dagger (``phases``), sum_m
        C(N, m)^2 entries instead of 4^N."""
        p = self.phases([duration])[0]
        out = np.empty(x.shape, dtype=complex)
        for rows, cols, v in self.blocks:
            out[rows] = ((v * p[cols]) @ v.conj().T) @ x[rows]
        return out

    def to_eigen(self, x: np.ndarray) -> np.ndarray:
        """V^dagger x V through V's m blocks: x's product states taken into
        block order on both axes, then each block's rows and then its columns
        multiplied in place, sum_m C(N, m)^2 2^(N+1) products instead of
        2^(3N+1)."""
        order = np.concatenate([rows for rows, _, _ in self.blocks])
        y = x.take(order, 0).take(order, 1)
        for _, cols, v in self.blocks:
            y[cols] = v.conj().T @ y[cols]
        for _, cols, v in self.blocks:
            y[:, cols] = y[:, cols] @ v
        return y


def eigendecompose(blocks, order_parameter: float = 1.0) -> EigenSystem:
    """Diagonalize H simultaneously with total I_z, from its total-m blocks
    (rows, H_m) in any order, as ``secular_hamiltonian`` returns them.

    The blocks' rows must partition the product basis range(2^N), the rows of
    each block must share one total m, and no two blocks may share one
    (MqcnmrError otherwise).  The eigensystem is in block order
    (``EigenSystem``): each block, taken in descending m, is diagonalized on
    its own (eigenvalues ascending) and its eigenvectors take the next
    columns of V; a block's rows keep the order they are given in.
    """
    rows_all = np.concatenate([rows for rows, _ in blocks])
    dim = rows_all.size
    if dim < 2 or dim & (dim - 1) or not np.array_equal(np.sort(rows_all), np.arange(dim)):
        raise MqcnmrError("the blocks' rows do not partition the product basis range(2^N)")
    m_basis = SpinRegister(dim.bit_length() - 1).m_values()
    ms = [distinct(m_basis[rows]) for rows, _ in blocks]
    for b, values in enumerate(ms):
        if values.size != 1:
            raise MqcnmrError(f"block {b} does not hold product states of one total m")
    if distinct(np.concatenate(ms)).size != len(ms):
        raise MqcnmrError("two blocks hold product states of one total m")
    zeta, eig_blocks, col = [], [], 0
    for b in np.argsort(np.concatenate(ms))[::-1]:
        rows, h = blocks[b]
        w, v = np.linalg.eigh(h)
        v.flags.writeable = False
        eig_blocks.append((rows, slice(col, col + rows.size), v))
        zeta.append(w)
        col += rows.size
    scale = order_parameter if order_parameter != 0.0 else 1.0
    zeta = np.concatenate(zeta) / scale
    zeta.flags.writeable = False
    return EigenSystem(zeta=zeta, blocks=tuple(eig_blocks), order_parameter=order_parameter)
