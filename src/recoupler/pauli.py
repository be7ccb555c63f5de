"""Phase-exact algebra of N-spin Pauli strings and complex-weighted Pauli sums.

Conventions (used everywhere in this package):
  - letters are written spin-1-first: "XZ" means X on spin 1, Z on spin 2;
  - spin i (1-based) maps to bit i-1, so basis index = sum bit_i * 2**(i-1)
    and spin 1 is the least significant bit;
  - |up> = |0> is the +1 eigenstate of sigma_z;
  - string phases are exact fourth roots of unity, stored as a power of i;
  - a string is the bit masks (x, z) of X^x Z^z up to phase, with Y = iXZ
    (Aaronson & Gottesman, quant-ph/0406196); letters are for printing and JSON.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import CapacityError, DimensionError, UnsupportedGeneratorError, ValidationError

COEFF_EPS = 1e-14  # canonicalization threshold for PauliSum coefficients

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_LETTER = "IXZY"  # indexed by x_bit | z_bit << 1


def _check_letters(letters: str):
    if letters.strip("IXYZ"):
        raise ValidationError(f"invalid Pauli letters {letters!r}")


def _masks(letters: str) -> tuple[int, int]:
    """(x, z) bit masks of a letter string; spin 1 is the least significant bit."""
    bits = "0" + letters[::-1]
    return int(bits.translate(_X_BITS), 2), int(bits.translate(_Z_BITS), 2)


def max_spins() -> int:
    """Dense-matrix spin cap, overridable via RECOUPLER_MAX_SPINS."""
    return int(os.environ.get("RECOUPLER_MAX_SPINS", "12"))


def check_dense(n: int):
    """CapacityError unless a dense 2**n x 2**n matrix fits under the spin cap."""
    cap = max_spins()
    if n > cap:
        raise CapacityError(f"{n} spins exceeds dense cap {cap} (RECOUPLER_MAX_SPINS)")


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-spin Paulis with an exact i**power phase."""

    letters: str
    power: int = 0  # phase = i**power
    x: int = field(init=False, repr=False, compare=False)
    z: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_letters(self.letters)
        object.__setattr__(self, "power", self.power % 4)
        for name, mask in zip("xz", _masks(self.letters)):
            object.__setattr__(self, name, mask)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def phase(self) -> complex:
        return _PHASES[self.power]

    def __mul__(self, other: "PauliString") -> "PauliString":
        return mul(self, other)

    def __neg__(self) -> "PauliString":
        return PauliString(self.letters, self.power + 2)

    def __repr__(self):
        sign = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}[self.power]
        return f"{sign}*{self.letters}"


def site_letters(n: int, sites: Mapping[int, str]) -> str:
    """Letters of the n-spin string with sites[i] on 1-based spin i, I elsewhere."""
    letters = ["I"] * n
    for site, letter in sites.items():
        if not 1 <= site <= n:
            raise DimensionError(f"site {site} outside 1..{n}")
        letters[site - 1] = letter
    return "".join(letters)


def single(n: int, site: int, letter: str) -> PauliString:
    """Pauli `letter` on 1-based `site` of an n-spin register."""
    return PauliString(site_letters(n, {site: letter}))


def mul(p: PauliString, q: PauliString) -> PauliString:
    """Exact product p*q: XOR of the masks, phase from Y = iXZ and ZX = -XZ."""
    if p.n != q.n:
        raise DimensionError(f"length mismatch: {p.n} vs {q.n}")
    x, z = p.x ^ q.x, p.z ^ q.z
    power = (
        p.power + q.power + (p.x & p.z).bit_count() + (q.x & q.z).bit_count()
        - (x & z).bit_count() + 2 * (p.z & q.x).bit_count()
    )
    letters = "".join(_LETTER[(x >> k & 1) | (z >> k & 1) << 1] for k in range(p.n))
    return PauliString(letters, power)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff pq = qp: an even number of anticommuting sites, no matrices built."""
    if p.n != q.n:
        raise DimensionError(f"length mismatch: {p.n} vs {q.n}")
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count() % 2 == 0


class PauliSum:
    """Finite complex-weighted sum of Pauli strings on a fixed spin count.

    Immutable by convention: all operations return new sums. Coefficients below
    COEFF_EPS are dropped and duplicate letter-sequences merged on construction.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[str, complex] | None = None):
        self.n = int(n)
        canon: dict[str, complex] = {}
        for letters, coeff in (terms or {}).items():
            if len(letters) != self.n:
                raise DimensionError(
                    f"term {letters!r} has length {len(letters)}, expected {self.n}"
                )
            _check_letters(letters)
            c = canon.get(letters, 0.0) + complex(coeff)
            if abs(c) < COEFF_EPS:
                canon.pop(letters, None)
            else:
                canon[letters] = c
        self._terms = canon

    @classmethod
    def from_string(cls, s: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(s.n, {s.letters: coeff * s.phase})

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, {})

    @property
    def terms(self) -> dict[str, complex]:
        return dict(self._terms)

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def coeff(self, letters: str) -> complex:
        return self._terms.get(letters, 0.0)

    def _check(self, other: "PauliSum"):
        if self.n != other.n:
            raise DimensionError(f"spin counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check(other)
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged.get(k, 0.0) + v
        return PauliSum(self.n, merged)

    def __radd__(self, other):
        if other == 0:  # lets builtin sum() start from 0
            return self
        return NotImplemented

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(self.n, {k: v * scalar for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "PauliSum":
        return self * -1.0

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product, expanded term by term with exact phases."""
        self._check(other)
        out: dict[str, complex] = {}
        for la, ca in self._terms.items():
            pa = PauliString(la)
            for lb, cb in other._terms.items():
                prod = mul(pa, PauliString(lb))
                key = prod.letters
                out[key] = out.get(key, 0.0) + ca * cb * prod.phase
        return PauliSum(self.n, out)

    def commutator(self, other: "PauliSum") -> "PauliSum":
        return self @ other - other @ self

    def is_hermitian(self, tol: float = COEFF_EPS) -> bool:
        """Hermitian iff every coefficient is real in the canonical Pauli basis."""
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def norm(self) -> float:
        """Frobenius norm divided by sqrt(2**n) (Pauli strings are orthonormal)."""
        return float(np.sqrt(sum(abs(c) ** 2 for c in self._terms.values())))

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and (self - other).norm() < 1e-12

    def __repr__(self):
        if not self._terms:
            return f"PauliSum(n={self.n}, 0)"
        parts = [f"({c:.6g})*{k}" for k, c in sorted(self._terms.items())]
        return " + ".join(parts)


def conjugate(a: PauliSum, theta: float, b: PauliSum) -> PauliSum:
    """exp(-i*a*theta) . b . exp(+i*a*theta), computed symbolically.

    Requires `a` to be a single Pauli string with coefficient +/-1, so a^2 = I.
    Terms of `b` commuting with `a` pass through; anticommuting terms map to
    cos(2 theta) t - i sin(2 theta) a t. At theta = pi/2 that is a sign flip.
    Multi-string generators must go through dense conjugation instead.
    """
    if len(a) != 1:
        raise UnsupportedGeneratorError(
            "conjugation generator must be a single Pauli string"
        )
    (letters, coeff), = a
    if abs(coeff - 1.0) > 1e-12 and abs(coeff + 1.0) > 1e-12:
        raise UnsupportedGeneratorError(
            f"generator coefficient must be +/-1, got {coeff}"
        )
    sign = 1.0 if coeff.real > 0 else -1.0
    a_str = PauliString(letters)
    if a.n != b.n:
        raise DimensionError(f"spin counts differ: {a.n} vs {b.n}")

    cos2, sin2 = np.cos(2 * theta), np.sin(2 * theta)
    out: dict[str, complex] = {}

    def add(key: str, val: complex):
        out[key] = out.get(key, 0.0) + val

    for lt, ct in b:
        t = PauliString(lt)
        if commutes(a_str, t):
            add(lt, ct)
        else:
            add(lt, ct * cos2)
            at = mul(a_str, t)
            add(at.letters, ct * (-1j) * sin2 * sign * at.phase)
    return PauliSum(b.n, out)


def to_matrix(s: PauliSum | PauliString) -> np.ndarray:
    """Dense matrix in the computational basis (spin 1 = least significant bit).

    Each term i**|x&z| X^x Z^z is a signed permutation: column r goes to row
    r ^ x with value coeff * i**|x&z| * (-1)**|r&z|.
    """
    if isinstance(s, PauliString):
        s = PauliSum.from_string(s)
    check_dense(s.n)
    dim = 2**s.n
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for letters, coeff in s:
        x, z = _masks(letters)
        signs = (-1.0) ** np.bitwise_count(cols & z)  # a float base: the count is uint8
        out[cols ^ x, cols] += coeff * (_PHASES[(x & z).bit_count() % 4] * signs)
    return out
