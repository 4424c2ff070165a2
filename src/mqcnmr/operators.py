"""Spin-1/2 operator algebra on N-spin product spaces.

Builds collective angular-momentum operators, rotation pulses and secular
rank-2 pair tensors used throughout the simulator.  All matrices are dense,
read-only complex arrays on the 2^N-dimensional product space, except that a
collective rotation is also kept as its two Kronecker halves, which apply it
without forming the 2^N x 2^N matrix.

Conventions:
    - Rotation operators are defined as ``R_alpha(theta) = exp(+i I_alpha theta)``
      (many NMR texts use the opposite sign; this choice makes
      ``R_x(pi/2) I_z R_x(-pi/2) = I_y``).
    - Site 0 is the most significant qubit of the basis index; bit value 0
      means spin up (m = +1/2), bit value 1 spin down (m = -1/2).
    - The coherence order of matrix element (r, c) is ``m_r - m_c`` with m
      the total-I_z quantum number of the basis state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidPairError, MqcnmrError, NumericalValidationError

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
# every nonzero entry of T20 is +-1/2 over sqrt(6): 2 I_zj I_zk or -1/2 per flip-flop
T20_UNIT = 0.5 / np.sqrt(6.0)

@dataclass(frozen=True)
class SpinRegister:
    """An N-spin-1/2 product space.

    Attributes:
        n_spins: number of spin-1/2 sites, n_spins >= 1; the memory budget
            sets the largest (``runner.build_eigensystem``).
    """

    n_spins: int

    def __post_init__(self):
        if not isinstance(self.n_spins, (int, np.integer)) or self.n_spins < 1:
            raise MqcnmrError(f"n_spins must be a positive integer, got {self.n_spins!r}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins

    def m_values(self) -> np.ndarray:
        """Total-I_z quantum number of each product-basis state."""
        return _m_values(self.n_spins)


@lru_cache(maxsize=None)
def _m_values(n_spins: int) -> np.ndarray:
    m = 0.5 * n_spins - np.bitwise_count(np.arange(2 ** n_spins))  # each site adds 1/2 - bit
    m.flags.writeable = False
    return m


def checked_hermitian(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only complex array, once it passes A == A^dagger
    entrywise within HERMITIAN_ATOL (NumericalValidationError otherwise, NaN
    included)."""
    a = np.asarray(a, dtype=complex)
    herm_err = np.max(np.abs(a - a.conj().T))
    if not herm_err <= HERMITIAN_ATOL:
        raise NumericalValidationError(f"hermitian operator fails A == A^dagger by {herm_err:.3e}")
    a.flags.writeable = False
    return a


def checked_unitary(u: np.ndarray) -> np.ndarray:
    """``u`` once it passes U U^dagger == 1 in the max norm within UNITARY_ATOL
    (NumericalValidationError otherwise, NaN included); ``rotation_halves``
    runs it on its 2x2 factor."""
    uni_err = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if not uni_err <= UNITARY_ATOL:
        raise NumericalValidationError(f"unitary operator fails U U^dagger == 1 by {uni_err:.3e}")
    return u


def collective_angular_momentum(reg: SpinRegister, axis: str) -> np.ndarray:
    """Total angular-momentum component I_axis = sum over sites, read-only.

    The z component is diagonal with the per-state total m values; x and y
    join the basis states r, r' whose XOR d = r ^ r' is one bit
    (``one_bit_apart``).  Always traceless and hermitian (checked).
    """
    if axis == "z":
        return checked_hermitian(np.diag(reg.m_values().astype(complex)))
    if axis not in ("x", "y"):
        raise MqcnmrError(f"axis must be one of x, y, z, got {axis!r}")
    idx = np.arange(reg.dim)
    # <up| I_y |down> = -i/2; bit value 1 is spin down, so down is the larger index
    value = 0.5 if axis == "x" else np.where(idx[:, None] < idx, -0.5j, 0.5j)
    return checked_hermitian(np.where(one_bit_apart(idx, idx), value, 0.0))


def one_bit_apart(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Whether basis states rows[a] and cols[b] differ in one bit: XOR d != 0, d & (d - 1) == 0."""
    d = rows[:, None] ^ cols
    return ((d & (d - 1)) == 0) & (d != 0)


def rotation_halves(reg: SpinRegister, theta: float, axis="x") -> tuple:
    """Collective rotation ``R(theta) = exp(+i I_chi theta)`` as its two
    Kronecker halves ``(r^{(x)floor(N/2)}, r^{(x)ceil(N/2)})``, read-only.

    The generator is a sum of commuting single-spin terms, so R is the
    N-fold Kronecker power of the single-spin rotation
    ``r = cos(theta/2) 1 + i sin(theta/2) (cos(chi) sigma_x + sin(chi) sigma_y)``
    (``diag(exp(i theta/2), exp(-i theta/2))`` about z), and R = A (x) B for
    the halves A, B.  The 2x2 factor r is checked to be unitary, which makes
    its Kronecker powers unitary too.  ``kron_apply`` applies R from them.

    Args:
        theta: rotation angle in radians (must be finite).
        axis: "x", "y", "z", or a float axis-phase chi in radians; a float
            chi selects the in-plane generator
            ``I_chi = cos(chi) I_x + sin(chi) I_y``.
    """
    if not np.isfinite(theta):
        raise MqcnmrError(f"rotation angle must be finite, got {theta!r}")
    if axis == "z":
        one = np.diag(np.exp([0.5j * theta, -0.5j * theta]))
    else:
        chi = 0.0 if axis == "x" else np.pi / 2 if axis == "y" else float(axis)
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        one = np.array([[c, 1j * s * np.exp(-1j * chi)],
                        [1j * s * np.exp(1j * chi), c]])
    checked_unitary(one)
    halves = []
    for n in (reg.n_spins // 2, reg.n_spins - reg.n_spins // 2):
        mat = np.ones((1, 1), dtype=complex)
        # np.kron's products, without its Python temporaries, which would add
        # about 120 kB of CPython free lists to a first run's traced peak
        for _ in range(n):
            mat = (mat[:, None, :, None] * one[None, :, None, :]).reshape(2 * len(mat), -1)
        mat.flags.writeable = False
        halves.append(mat)
    return tuple(halves)


def rotation(reg: SpinRegister, theta: float, axis="x") -> np.ndarray:
    """Collective rotation ``R(theta) = exp(+i I_chi theta)`` as one dense
    read-only 2^N x 2^N matrix, the Kronecker product of ``rotation_halves``."""
    mat = np.kron(*rotation_halves(reg, theta, axis))
    mat.flags.writeable = False
    return mat


def kron_apply(halves: tuple, x: np.ndarray) -> np.ndarray:
    """(A (x) B) x for the Kronecker halves (A, B) and a matrix x of 2^N rows,
    as one GEMM with A and one batched GEMM with B on x's (A, B, column)
    index split, in O(2^N (dim A + dim B)) per column instead of O(4^N)."""
    a, b = halves
    y = (a @ x.reshape(a.shape[0], -1)).reshape(a.shape[0], b.shape[0], -1)
    return np.matmul(b, y).reshape(x.shape)


def kron_conjugate(halves: tuple, x: np.ndarray) -> np.ndarray:
    """R x R^dagger for R = A (x) B given by its Kronecker halves (A, B):
    ``kron_apply``, then its mirror on the columns, written over the first
    product."""
    a, b = halves
    y = kron_apply(halves, x)
    z = (y.reshape(-1, b.shape[0]) @ b.conj().T).reshape(x.shape[0], a.shape[0], b.shape[0])
    return np.matmul(a.conj(), z, out=y.reshape(z.shape)).reshape(x.shape)


def t20_pair(reg: SpinRegister, j: int, k: int) -> np.ndarray:
    """Secular rank-2 pair tensor for sites (j, k), read-only.

    ``T20 = (1/sqrt(6)) [2 I_zj I_zk - (1/2)(I_+j I_-k + I_-j I_+k)]``;
    traceless, hermitian and commuting with total I_z.  From basis-index
    bits b_j, b_k: +-T20_UNIT on the diagonal (the two bits agree or differ),
    and -T20_UNIT joining r, r' whose bits differ and whose XOR r ^ r' is
    1 << b_j | 1 << b_k.
    """
    if j == k:
        raise InvalidPairError(f"pair tensor needs two distinct sites, got j == k == {j}")
    for s in (j, k):
        if not 0 <= s < reg.n_spins:
            raise InvalidPairError(f"site {s} out of range for {reg.n_spins} spins")
    idx, bj, bk = np.arange(reg.dim), reg.n_spins - 1 - j, reg.n_spins - 1 - k
    differ = (idx >> bj ^ idx >> bk) & 1
    mat = np.diag(T20_UNIT * (1.0 - 2.0 * differ)).astype(complex)
    cols = np.flatnonzero(differ)
    mat[cols ^ (1 << bj | 1 << bk), cols] = -T20_UNIT
    return checked_hermitian(mat)
