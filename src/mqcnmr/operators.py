"""Spin-1/2 operator algebra on N-spin product spaces.

Builds collective angular-momentum operators, rotation pulses, secular
rank-2 pair tensors and the coherence-order (Delta m) decomposition used
throughout the simulator.  All matrices are dense complex arrays on the
2^N-dimensional product space.

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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidPairError, MqcnmrError

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
# every nonzero entry of T20 is +-1/2 over sqrt(6): 2 I_zj I_zk or -1/2 per flip-flop
T20_UNIT = 0.5 / np.sqrt(6.0)

_SIGMA_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


@dataclass(frozen=True)
class SpinRegister:
    """An N-spin-1/2 product space.

    Attributes:
        n_spins: number of spin-1/2 sites, 1 <= n_spins <= 10.
    """

    n_spins: int

    def __post_init__(self):
        if not isinstance(self.n_spins, (int, np.integer)) or self.n_spins < 1:
            raise MqcnmrError(f"n_spins must be a positive integer, got {self.n_spins!r}")
        if self.n_spins > 10:
            raise MqcnmrError(
                f"n_spins = {self.n_spins} exceeds the supported ceiling of 10 "
                "(dense matrices on dim = 2^N become impractical)"
            )

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins

    def m_values(self) -> np.ndarray:
        """Total-I_z quantum number of each product-basis state."""
        return _m_values(self.n_spins)


@lru_cache(maxsize=None)
def _m_values(n_spins: int) -> np.ndarray:
    idx = np.arange(2 ** n_spins)
    ones = np.zeros_like(idx)
    for bit in range(n_spins):
        ones += (idx >> bit) & 1
    m = 0.5 * (n_spins - 2 * ones)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense complex matrix with a role tag and tag-specific invariants.

    kind = "hermitian" requires A == A^dagger entrywise (atol 1e-12);
    kind = "unitary" requires U U^dagger == 1 (max-norm 1e-10);
    kind = "density" requires hermitian with unit trace;
    kind = "general" is unconstrained.
    """

    entries: np.ndarray
    kind: str = "general"
    dim: int = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MqcnmrError(f"operator must be a square matrix, got shape {a.shape}")
        if self.kind not in ("hermitian", "unitary", "density", "general"):
            raise MqcnmrError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("hermitian", "density"):
            herm_err = np.max(np.abs(a - a.conj().T))
            if herm_err > HERMITIAN_ATOL:
                raise MqcnmrError(f"{self.kind} operator fails A == A^dagger by {herm_err:.3e}")
        if self.kind == "unitary":
            uni_err = np.max(np.abs(a @ a.conj().T - np.eye(a.shape[0])))
            if uni_err > UNITARY_ATOL:
                raise MqcnmrError(f"unitary operator fails U U^dagger == 1 by {uni_err:.3e}")
        if self.kind == "density":
            tr = np.trace(a).real
            if abs(tr) < 1e-300:
                raise MqcnmrError("density operator has zero trace")
            a = a / tr
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "dim", a.shape[0])


def single_spin(reg: SpinRegister, site: int, axis: str) -> np.ndarray:
    """I_{axis, site} embedded on the full product space (Kronecker product)."""
    if not 0 <= site < reg.n_spins:
        raise MqcnmrError(f"site {site} out of range for {reg.n_spins} spins")
    if axis not in _SIGMA_HALF:
        raise MqcnmrError(f"axis must be one of x, y, z, got {axis!r}")
    op = np.array([[1.0 + 0j]])
    for j in range(reg.n_spins):
        op = np.kron(op, _SIGMA_HALF[axis] if j == site else np.eye(2))
    return op


def collective_angular_momentum(reg: SpinRegister, axis: str) -> OperatorMatrix:
    """Total angular-momentum component I_axis = sum over sites.

    The z component is diagonal with the per-state total m values.  The x
    and y components couple only basis states that differ in one bit, so
    they are filled in directly from bit flips of the basis index.  Always
    traceless and hermitian.
    """
    if axis == "z":
        return OperatorMatrix(np.diag(reg.m_values().astype(complex)), kind="hermitian")
    if axis not in ("x", "y"):
        raise MqcnmrError(f"axis must be one of x, y, z, got {axis!r}")
    idx = np.arange(reg.dim)
    mat = np.zeros((reg.dim, reg.dim), dtype=complex)
    for bit in range(reg.n_spins):
        mask = 1 << bit
        if axis == "x":
            mat[idx ^ mask, idx] = 0.5
        else:
            # <up| I_y |down> = -i/2; bit value 1 is spin down
            mat[idx ^ mask, idx] = np.where(idx & mask, -0.5j, 0.5j)
    return OperatorMatrix(mat, kind="hermitian")


def rotation(reg: SpinRegister, theta: float, axis="x") -> OperatorMatrix:
    """Collective rotation ``R(theta) = exp(+i I_chi theta)``.

    The generator is a sum of commuting single-spin terms, so the rotation
    is the N-fold Kronecker power of the single-spin rotation
    ``cos(theta/2) 1 + i sin(theta/2) (cos(chi) sigma_x + sin(chi) sigma_y)``.

    Args:
        theta: rotation angle in radians (must be finite).
        axis: "x", "y", "z", or a float axis-phase chi in radians; a float
            chi selects the in-plane generator
            ``I_chi = cos(chi) I_x + sin(chi) I_y``.
    """
    if not np.isfinite(theta):
        raise MqcnmrError(f"rotation angle must be finite, got {theta!r}")
    if axis == "z":
        phases = np.exp(1j * theta * reg.m_values())
        return OperatorMatrix(np.diag(phases), kind="unitary")
    if axis == "x":
        chi = 0.0
    elif axis == "y":
        chi = np.pi / 2
    else:
        chi = float(axis)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    one = np.array([[c, 1j * s * np.exp(-1j * chi)],
                    [1j * s * np.exp(1j * chi), c]])
    mat = one
    for _ in range(reg.n_spins - 1):
        mat = np.kron(mat, one)
    return OperatorMatrix(mat, kind="unitary")


def t20_bits(n_spins: int, j: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T20_jk from basis-index bits: its diagonal (+T20_UNIT where bits j and k
    agree, -T20_UNIT where they differ) and the (rows, cols) of its flip-flop
    entries, each -T20_UNIT (cols: the two bits differ; rows: both flipped)."""
    idx = np.arange(2 ** n_spins)
    bj, bk = n_spins - 1 - j, n_spins - 1 - k
    differ = ((idx >> bj) ^ (idx >> bk)) & 1
    cols = np.flatnonzero(differ)
    return T20_UNIT * (1.0 - 2.0 * differ), cols ^ ((1 << bj) | (1 << bk)), cols


def t20_pair(reg: SpinRegister, j: int, k: int) -> OperatorMatrix:
    """Secular rank-2 pair tensor for sites (j, k).

    ``T20 = (1/sqrt(6)) [2 I_zj I_zk - (1/2)(I_+j I_-k + I_-j I_+k)]``;
    traceless, hermitian and commuting with total I_z; built by ``t20_bits``.
    """
    if j == k:
        raise InvalidPairError(f"pair tensor needs two distinct sites, got j == k == {j}")
    for s in (j, k):
        if not 0 <= s < reg.n_spins:
            raise InvalidPairError(f"site {s} out of range for {reg.n_spins} spins")
    diag, rows, cols = t20_bits(reg.n_spins, j, k)
    mat = np.diag(diag).astype(complex)
    mat[rows, cols] = -T20_UNIT
    return OperatorMatrix(mat, kind="hermitian")


def coherence_orders(reg: SpinRegister) -> np.ndarray:
    """Integer coherence order m_r - m_c of every matrix element (r, c)."""
    m = reg.m_values()
    return np.rint(m[:, None] - m[None, :]).astype(int)


def coherence_order_decompose(op: OperatorMatrix | np.ndarray,
                              reg: SpinRegister) -> dict[int, np.ndarray]:
    """Split an operator into coherence-order components.

    The order-nu component C satisfies
    ``R_z(phi) C R_z(-phi) = exp(i nu phi) C`` for all phi, and the
    components sum exactly back to the input.

    Returns:
        dict mapping nu to the masked component matrix (only orders with a
        nonzero component are present).
    """
    a = op.entries if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    if a.shape != (reg.dim, reg.dim):
        raise MqcnmrError(f"operator shape {a.shape} does not match register dim {reg.dim}")
    orders = coherence_orders(reg)
    out = {}
    for nu in range(-reg.n_spins, reg.n_spins + 1):
        comp = np.where(orders == nu, a, 0.0)
        if np.any(comp):
            out[nu] = comp
    return out


def dump_operator(op: OperatorMatrix | np.ndarray) -> str:
    """Row-major text dump ("re+imj" per entry) for cross-implementation diffs."""
    a = op.entries if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    lines = []
    for row in a:
        lines.append(" ".join(f"{z.real:+.16e}{z.imag:+.16e}j" for z in row))
    return "\n".join(lines) + "\n"
