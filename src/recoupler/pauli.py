"""Phase-exact algebra of complex-weighted N-spin Pauli sums.

Conventions (used everywhere in this package):
  - letters are written spin-1-first: "XZ" means X on spin 1, Z on spin 2;
  - spin i (1-based) maps to bit i-1, so basis index = sum bit_i * 2**(i-1)
    and spin 1 is the least significant bit;
  - |up> = |0> is the +1 eigenstate of sigma_z;
  - a term is keyed by bit masks (x, z) and stands for the Hermitian string
    i**|x&z| X^x Z^z, the tensor product of its letters, with Y = iXZ
    (Aaronson & Gottesman, quant-ph/0406196); letters are parsed on
    construction and formatted only for printing and JSON;
  - a phased string is a one-term sum: i**k P is PauliSum(n, {P: 1j**k}).
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CapacityError, DimensionError, UnsupportedGeneratorError, ValidationError

COEFF_EPS = 1e-14  # canonicalization threshold for PauliSum coefficients

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASE_ARRAY = np.array(_PHASES)
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
_LETTER = "IXZY"  # indexed by x_bit | z_bit << 1

_Key = tuple[int, int]


def _key(n: int, letters: str) -> _Key:
    """(x, z) masks of an n-letter string; spin 1 is the least significant bit."""
    if len(letters) != n:
        raise DimensionError(f"term {letters!r} has length {len(letters)}, expected {n}")
    if letters.strip("IXYZ"):
        raise ValidationError(f"invalid Pauli letters {letters!r}")
    bits = "0" + letters[::-1]
    return int(bits.translate(_X_BITS), 2), int(bits.translate(_Z_BITS), 2)


def _letters(n: int, key: _Key) -> str:
    x, z = key
    return "".join(_LETTER[(x >> k & 1) | (z >> k & 1) << 1] for k in range(n))


def _canonical(terms: Mapping[_Key, complex]) -> dict[_Key, complex]:
    """Complex coefficients of the terms not below COEFF_EPS (NaN stays); 0.0 + clears -0.0."""
    out = {}
    for key, coeff in terms.items():
        c = 0.0 + complex(coeff)
        if not abs(c) < COEFF_EPS:
            out[key] = c
    return out


def _product(a: _Key, b: _Key) -> tuple[_Key, complex]:
    """P_a P_b = phase * P_c: XOR of the masks, phase from Y = iXZ and ZX = -XZ."""
    (xa, za), (xb, zb) = a, b
    x, z = xa ^ xb, za ^ zb
    power = (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
    return (x, z), _PHASES[(power + 2 * (za & xb).bit_count()) % 4]


def _anticommute(a: _Key, b: _Key) -> bool:
    """True iff P_a P_b = -P_b P_a: an odd number of anticommuting sites."""
    return ((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() % 2 == 1


def max_spins() -> int:
    """Dense-matrix spin cap, overridable via RECOUPLER_MAX_SPINS."""
    text = os.environ.get("RECOUPLER_MAX_SPINS", "12")
    if not text.strip().removeprefix("+").isdecimal() or int(text) < 1:
        raise ValidationError(f"RECOUPLER_MAX_SPINS must be a positive integer, got {text!r}")
    return int(text)


def check_dense(n: int):
    """CapacityError unless a dense 2**n x 2**n matrix fits under the spin cap."""
    cap = max_spins()
    if n > cap:
        raise CapacityError(f"{n} spins exceeds dense cap {cap} (RECOUPLER_MAX_SPINS)")


def check_bytes(n: int, nbytes: int, what: str):
    """CapacityError unless `nbytes` fit in the size of one dense matrix at the spin cap."""
    cap = max_spins()
    budget = 16 * 4**cap
    if nbytes > budget:
        raise CapacityError(
            f"{n} spins: {what} needs {nbytes} bytes, over the {budget}-byte budget"
            f" of a dense {cap}-spin matrix (RECOUPLER_MAX_SPINS)"
        )


def site_letters(n: int, sites: Mapping[int, str]) -> str:
    """Letters of the n-spin string with sites[i] on 1-based spin i, I elsewhere."""
    letters = ["I"] * n
    for site, letter in sites.items():
        if not 1 <= site <= n:
            raise DimensionError(f"site {site} outside 1..{n}")
        letters[site - 1] = letter
    return "".join(letters)


class Terms(NamedTuple):
    """Read-only parallel arrays of terms; entries of a repeated term add when read."""

    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray


_NO_TERMS = Terms(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))


class PauliSum:
    """Finite complex-weighted sum of Pauli strings on a fixed spin count.

    Immutable by convention: all operations return new sums. Coefficients below
    COEFF_EPS are dropped on construction; NaN is kept.
    """

    __slots__ = ("n", "_terms", "_arrays")

    def __init__(self, n: int, terms: Mapping[str, complex] | None = None):
        self.n = int(n)
        self._terms = _canonical(
            {_key(self.n, letters): coeff for letters, coeff in (terms or {}).items()}
        )
        self._arrays = None

    def _new(self, terms: Mapping[_Key, complex]) -> "PauliSum":
        out = PauliSum.__new__(PauliSum)
        out.n, out._terms, out._arrays = self.n, _canonical(terms), None
        return out

    @property
    def arrays(self) -> Terms:
        """The terms as read-only `Terms`, built on first use: the sum is immutable."""
        if self._arrays is None:
            keys = np.array(list(self._terms), dtype=np.int64).reshape(-1, 2).T.copy()
            self._arrays = Terms(*keys, np.array(list(self._terms.values()), dtype=complex))
            for a in self._arrays:
                a.flags.writeable = False
        return self._arrays

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, {})

    @property
    def terms(self) -> dict[str, complex]:
        return {_letters(self.n, k): c for k, c in self._terms.items()}

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self.terms.items())

    def coeff(self, letters: str) -> complex:
        return self._terms.get(_key(self.n, letters), 0.0)

    def _check(self, other: "PauliSum"):
        if self.n != other.n:
            raise DimensionError(f"spin counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check(other)
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged.get(k, 0.0) + v
        return self._new(merged)

    def __radd__(self, other):
        if other == 0:  # lets builtin sum() start from 0
            return self
        return NotImplemented

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        return self._new({k: v * scalar for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "PauliSum":
        return self * -1.0

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product, expanded term by term with exact phases."""
        self._check(other)
        out: dict[_Key, complex] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key, phase = _product(ka, kb)
                out[key] = out.get(key, 0.0) + ca * cb * phase
        return self._new(out)

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
        parts = [f"({c:.6g})*{k}" for k, c in sorted(self.terms.items())]
        return " + ".join(parts)


def conjugate(a: PauliSum, theta: float, b: PauliSum) -> PauliSum:
    """exp(-i*a*theta) . b . exp(+i*a*theta), computed symbolically.

    Requires `a` to be a single Pauli string with coefficient +/-1, so a^2 = I.
    Terms of `b` commuting with `a` pass through; anticommuting terms map to
    cos(2 theta) t - i sin(2 theta) a t. At theta = pi/2 that is a sign flip.
    Multi-string generators must go through dense conjugation instead.
    """
    if len(a) != 1:
        raise UnsupportedGeneratorError("conjugation generator must be a single Pauli string")
    (ka, coeff), = a._terms.items()
    if abs(coeff - 1.0) > 1e-12 and abs(coeff + 1.0) > 1e-12:
        raise UnsupportedGeneratorError(f"generator coefficient must be +/-1, got {coeff}")
    sign = 1.0 if coeff.real > 0 else -1.0
    a._check(b)

    cos2, sin2 = np.cos(2 * theta), np.sin(2 * theta)
    out: dict[_Key, complex] = {}

    def add(key: _Key, val: complex):
        out[key] = out.get(key, 0.0) + val

    for kt, ct in b._terms.items():
        if not _anticommute(ka, kt):
            add(kt, ct)
        else:
            add(kt, ct * cos2)
            key, phase = _product(ka, kt)
            add(key, ct * (-1j) * sin2 * sign * phase)
    return b._new(out)


def to_matrix(s: PauliSum) -> np.ndarray:
    """Dense matrix in the computational basis (spin 1 = least significant bit).

    Each term i**|x&z| X^x Z^z is a signed permutation: column r goes to row
    r ^ x with value coeff * i**|x&z| * (-1)**|r&z|.
    """
    check_dense(s.n)
    dim = 2**s.n
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for (x, z), coeff in s._terms.items():
        signs = (-1.0) ** np.bitwise_count(cols & z)  # a float base: the count is uint8
        out[cols ^ x, cols] += coeff * (_PHASES[(x & z).bit_count() % 4] * signs)
    return out


def scaled_sum(parts: Iterable[tuple[PauliSum, complex]]) -> Terms:
    """The terms of sum c * s over the (s, c) of `parts`, concatenated, not merged."""
    scaled = [s.arrays if c == 1 else s.arrays._replace(coeffs=s.arrays.coeffs * c) for s, c in parts]
    return scaled[0] if len(scaled) == 1 else Terms(*map(np.concatenate, zip(_NO_TERMS, *scaled)))


def _arrays(s: PauliSum | Terms) -> Terms:
    return s if isinstance(s, Terms) else s.arrays


def rotate(matrix: np.ndarray, letters: str, angle: float):
    """M <- exp(-i angle P) M = cos(angle) M - i sin(angle) P M in place, P the string
    of `letters`, a signed permutation: (P M)[r] = i**|x&z| (-1)**|(r^x)&z| M[r^x].
    A diagonal P scales each row; any other takes one temporary the size of M."""
    x, z = _key(len(letters), letters)
    rows = np.arange(len(matrix))
    # bitwise_count gives uint8, where an integer (-1) ** count would wrap: use the parity
    signs = 1.0 - 2.0 * (np.bitwise_count((rows ^ x) & z) & 1)
    weights = (-1j * np.sin(angle) * _PHASES[(x & z).bit_count() % 4]) * signs
    if not x:
        matrix *= (np.cos(angle) + weights)[:, None]
        return
    turned = matrix[rows ^ x]
    turned *= weights[:, None]
    matrix *= np.cos(angle)
    matrix += turned


def x_basis(*sums: PauliSum | Terms) -> dict[int, int]:
    """Reduced GF(2) basis of the span of the X masks of `sums`.

    Maps each pivot bit to its basis vector; no other vector has that bit set,
    so every coset of the span holds exactly one state with all pivot bits clear.
    Each pivot is its vector's top bit, so the basis is unique and each distinct
    mask is reduced once, in any order.
    """
    basis: dict[int, int] = {}
    for x in {x for s in sums for x in _arrays(s).x.tolist()}:
        for bit, vec in basis.items():
            x ^= vec * (x >> bit & 1)
        if x:
            pivot = x.bit_length() - 1
            basis = {bit: vec ^ x * (vec >> pivot & 1) for bit, vec in basis.items()}
            basis[pivot] = x
    return basis


def x_span(basis: dict[int, int]) -> np.ndarray:
    """Every vector of the span, the o-th one the XOR of the basis vectors of the
    set bits of o, with bit j standing for the j-th lowest pivot."""
    span = np.zeros(1, dtype=np.int64)
    for bit in sorted(basis):
        span = np.concatenate([span, span ^ basis[bit]])
    return span


def coset_rows(n: int, basis: dict[int, int], starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cosets): the sorted n-spin states of the cosets of the span S of `basis` that
    hold `starts`, and per coset a row of its starts' indices in order. Each coset must hold
    as many: the register does, and so does a code c0 ^ C, which meets each in c ^ (S & C)."""
    reps = np.array(starts, dtype=np.int64)  # each start's coset by its pivot-clear state
    for bit, vec in basis.items():  # a reduced vector holds no other pivot: one walk clears all
        reps ^= (reps >> bit & 1) * vec
    mark = np.zeros(2**n, dtype=bool)  # deduplicates and sorts without a sort
    mark[reps] = True
    firsts = np.flatnonzero(mark)
    mark[(firsts[:, None] ^ x_span(basis)).ravel()] = True
    return np.flatnonzero(mark), np.argsort(reps, kind="stable").reshape(firsts.size, -1)


def diagonal(s: PauliSum | Terms, rows: np.ndarray) -> np.ndarray:
    """E(r) = sum_t c_t (-1)^|r & z_t| at `rows`: to_matrix(s) of a sum with no X masks."""
    _, zs, coeffs = _arrays(s)
    return (1.0 - 2.0 * (np.bitwise_count(rows[:, None] & zs) & 1)) @ coeffs.real


def split_central(s: PauliSum | Terms, basis: dict[int, int]) -> tuple[Terms, Terms, int]:
    """(central, rest, seen): the diagonal terms even on every vector of `basis`, a number per
    coset, and the others, whose block at a pivot-clear rep depends on rep & seen alone."""
    xs, zs, coeffs = _arrays(s)
    central = (xs == 0) & ~(np.bitwise_count(zs[:, None] & np.int64([*basis.values()])) & 1).any(1)
    rest = Terms(xs[~central], zs[~central], coeffs[~central])
    seen = int(np.bitwise_or.reduce(rest.z, initial=0)) & ~sum(1 << bit for bit in basis)
    return Terms(xs[central], zs[central], coeffs[central]), rest, seen


def coset_index(rows: np.ndarray, basis: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(at, states), rows[at] = states[c, o] = rep_c ^ x_span(basis)[o], over the pivot-clear
    rows rep_c of `rows`, a union of cosets of the span or a larger one (else ValidationError)."""
    states = rows[(rows & sum(1 << bit for bit in basis)) == 0][:, None] ^ x_span(basis)
    at = np.searchsorted(rows, states)
    if not np.array_equal(np.take(rows, at, mode="clip"), states):
        raise ValidationError("rows are not a union of cosets of the span")
    return at, states


def coset_blocks(s: PauliSum | Terms, states: np.ndarray, basis: dict[int, int]) -> np.ndarray:
    """blocks[c] = to_matrix(s) restricted to rows and columns states[c], for states laid
    out as `coset_index` gives them and X masks of `s` in the span of `basis`."""
    pivots = sorted(basis)
    xs, zs, coeffs = _arrays(s)
    coords = sum(((xs >> bit & 1) << j for j, bit in enumerate(pivots)), np.zeros_like(xs))
    weights = coeffs * _PHASE_ARRAY[np.bitwise_count(xs & zs) & 3]
    signs = 1.0 - 2.0 * (np.bitwise_count(states & zs[:, None, None]) & 1)  # term, coset, offset
    offsets = np.arange(states.shape[-1])
    blocks = np.zeros((len(states), offsets.size, offsets.size), dtype=complex)
    # term t adds weights[t] * signs[t] at rows offsets ^ coords[t], columns offsets
    np.add.at(blocks, (slice(None), coords[:, None] ^ offsets, offsets),
              signs.transpose(1, 0, 2) * weights[:, None])
    return blocks

