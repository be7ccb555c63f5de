"""Two-spin logical codes, encoded T/R generators, and leakage bookkeeping.

Logical qubit m (1-based) lives on physical spins (2m-1, 2m). The axially
symmetric code is |0_L> = |ud>, |1_L> = |du>; the antisymmetric code is
|0_L> = |uu>, |1_L> = |dd>. Logical basis ordering mirrors the physical bit
convention: logical qubit 1 is the least significant bit. The T generators
act on the symmetric code and the R generators on the antisymmetric one.
The code states of each `CodeSpec` are computed once and shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionError, ValidationError
from .model import build_R, build_T
from .pauli import PauliSum, site_letters, to_matrix

SYMMETRIC = "axial_symmetric"
ANTISYMMETRIC = "axial_antisymmetric"

# per-qubit physical bit patterns (bit of spin 2m-1, bit of spin 2m); up = 0
_PATTERNS = {SYMMETRIC: ((0, 1), (1, 0)), ANTISYMMETRIC: ((0, 0), (1, 1))}


@dataclass(frozen=True)
class CodeSpec:
    sector: str = SYMMETRIC
    n_spins: int = 4

    def __post_init__(self):
        if self.sector not in _PATTERNS:
            raise ValidationError(f"unknown sector {self.sector!r}")
        if self.n_spins <= 0 or self.n_spins % 2:
            raise ValidationError("n_spins must be even and positive")

    @property
    def n_logical(self) -> int:
        return self.n_spins // 2

    @property
    def zz_sign(self) -> float:
        """s with sigma_z(2m) sigma_z(2m+1) = s Zbar_m Zbar_(m+1) on the code: a spin reads
        +Zbar where logical 0 puts it up and -Zbar where it puts it down."""
        return (-1.0) ** sum(_PATTERNS[self.sector][0])


def t_z(n: int, m: int) -> PauliSum:
    """T_m^z = (sigma_{2m-1}^z - sigma_{2m}^z)/2."""
    za, zb = (site_letters(n, {s: "Z"}) for s in (2 * m - 1, 2 * m))
    return PauliSum(n, {za: 0.5, zb: -0.5})


def r_z(n: int, m: int) -> PauliSum:
    """R_m^z = (sigma_{2m-1}^z + sigma_{2m}^z)/2."""
    za, zb = (site_letters(n, {s: "Z"}) for s in (2 * m - 1, 2 * m))
    return PauliSum(n, {za: 0.5, zb: 0.5})


def t_x(n: int, m: int) -> PauliSum:
    return build_T(n, 2 * m - 1, 2 * m)


def r_x(n: int, m: int) -> PauliSum:
    return build_R(n, 2 * m - 1, 2 * m)


@cache
def code_states(spec: CodeSpec) -> np.ndarray:
    """Physical basis index of every logical computational state, in logical order;
    built once per spec and shared read-only."""
    k = spec.n_logical
    pairs = np.array([b1 | b2 << 1 for b1, b2 in _PATTERNS[spec.sector]])  # per-qubit pair value
    states = (pairs[np.arange(2**k)[:, None] >> np.arange(k) & 1] << 2 * np.arange(k)).sum(axis=1)
    states.flags.writeable = False
    return states


def code_isometry(spec: CodeSpec) -> np.ndarray:
    """2^n x 2^k isometry whose columns are the logical basis states."""
    dim, k = 2**spec.n_spins, 2**spec.n_logical
    v = np.zeros((dim, k), dtype=complex)
    v[code_states(spec), np.arange(k)] = 1.0
    return v


def encode(spec: CodeSpec, logical_state: np.ndarray) -> np.ndarray:
    """Isometric embedding of a logical state vector into the physical register: V psi."""
    psi = np.asarray(logical_state, dtype=complex)
    if psi.shape != (2**spec.n_logical,):
        raise DimensionError(
            f"logical state has shape {psi.shape}, expected ({2**spec.n_logical},)"
        )
    if not np.isfinite(psi).all():
        raise ValidationError("logical state has a non-finite entry")
    out = np.zeros(2**spec.n_spins, dtype=complex)
    out[code_states(spec)] = psi
    return out


def decode(spec: CodeSpec, physical_state: np.ndarray):
    """Project back to the code space.

    Returns (logical_state, leakage_norm), leakage_norm = ||(I-P) psi|| / ||psi|| from
    the entries off the code states, the logical part renormalized, or (None, 1.0) with
    no in-code part. The state is scaled to its largest entry before any norm, so huge
    entries cannot overflow; a non-finite entry raises ValidationError.
    """
    psi = np.asarray(physical_state, dtype=complex)
    if psi.shape != (2**spec.n_spins,):
        raise DimensionError(
            f"physical state has shape {psi.shape}, expected ({2**spec.n_spins},)"
        )
    if not np.isfinite(psi).all():
        raise ValidationError("physical state has a non-finite entry")
    largest = max(np.abs(psi.real).max(), np.abs(psi.imag).max())
    if largest == 0:
        raise ValidationError("cannot decode the zero vector")
    # by a power of two: exact, so bit for bit the unscaled result; the bound keeps
    # the factor finite for subnormal input
    psi = psi * 2.0 ** -max(np.frexp(largest)[1], -1000)
    psi /= np.linalg.norm(psi)
    code = code_states(spec)
    amps, leakage = psi[code], float(np.linalg.norm(np.delete(psi, code)))
    in_norm = np.linalg.norm(amps)
    return (None, 1.0) if in_norm < 1e-12 else (amps / in_norm, leakage)


def _code_block(columns: np.ndarray, rows: np.ndarray, starts: np.ndarray, cosets: np.ndarray):
    """(U on the starts, norm of the other rows over sqrt(start count)) from `columns` on the
    sorted `rows`, coset c's rows holding start cosets[c, j] in slot j (`pauli.coset_rows`):
    (V^dag U V, ||(I - P) U P||_F / ||P||_F) for code starts. Non-finite raises ValidationError."""
    here = np.searchsorted(rows, starts)
    outside = np.ones(len(rows), dtype=bool)
    outside[here] = False
    if len(cosets) == 1:  # slot j is start j
        block = columns[here]
    else:  # a start's row holds its coset's starts: zero between cosets
        block = np.zeros((starts.size, starts.size), dtype=complex)
        block[cosets[:, :, None], cosets[:, None, :]] = columns[here[cosets]]
    leakage = float(np.linalg.norm(columns[outside]) / np.sqrt(starts.size))
    # the block holds entries of the columns, and a non-finite other row makes the leakage so
    if not (np.isfinite(columns).all() and math.isfinite(leakage)):
        raise ValidationError("restrict: the code block or its leakage is not finite")
    return block, leakage


def logical_matrix(op: PauliSum, spec: CodeSpec) -> np.ndarray:
    """Compress a Pauli sum M on the physical register to V^dag M V, its code rows and columns."""
    if not isinstance(op, PauliSum):
        raise ValidationError(f"logical_matrix takes a PauliSum, got {type(op).__name__}")
    if op.n != spec.n_spins:
        raise DimensionError(f"operator acts on {op.n} spins, code has {spec.n_spins}")
    code = code_states(spec)
    return to_matrix(op)[np.ix_(code, code)]
