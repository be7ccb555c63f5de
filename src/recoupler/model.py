"""Exchange-Hamiltonian families, controllability registry, and term builders.

A model stores per-pair couplings (jx, jy, jz) in the convention
H_pair = (jx - jy) R^x + (jx + jy) T^x + jz Z Z, i.e. the axially symmetric
rewriting of sum_alpha J^alpha sigma^alpha sigma^alpha. Stored values are the
always-on background for non-controllable parameters and the nominal strength
for controllable ones (which rest at zero between pulses).

A model is read-only (its couplings are a mapping proxy over a private copy),
so the background, its magnitude, each toggled generator and each free
window's kept term are built on first use and stored on the model: once per
model, not once per verdict.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .errors import ConnectivityError, ControllabilityError, ValidationError
from .pauli import PauliSum, site_letters

_HANDLE_RE = re.compile(r"^([a-z_]+)(?:\((\d+)(?:,(\d+))?\))?$")

# handle kind -> (index count, weight of each letter of its unit-strength term on every index)
_KINDS = {
    "j_plus": (2, {"X": 0.5, "Y": 0.5}),  # T^x = (XX + YY)/2, the resonant flip-flop
    "j_minus": (2, {"X": 0.5, "Y": -0.5}),  # R^x = (XX - YY)/2, the double flip
    "j_z": (2, {"Z": 1.0}),
    "heis": (2, {"X": 0.5, "Y": 0.5, "Z": 0.5}),  # T^x + ZZ/2
    "sigma_x": (1, {"X": 1.0}),
    "epsilon": (1, {"Z": 0.5}),
    "free_evolution": (0, {}),  # evolves the always-on background instead
}
_ARITY = ("takes no indices", "needs a single site", "needs a pair i<j")  # by index count


@dataclass(frozen=True, order=True)
class TermHandle:
    """Symbolic identifier of a toggleable Hamiltonian term."""

    kind: str  # a key of _KINDS
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValidationError(f"unknown handle kind {self.kind!r}")
        count = _KINDS[self.kind][0]  # i is given if the kind takes an index, j if it takes two
        given = (self.i is not None, self.j is not None)
        if given != (count > 0, count > 1) or count == 2 and not self.i < self.j:
            raise ValidationError(f"{self.kind} {_ARITY[count]}, got ({self.i},{self.j})")

    @property
    def sites(self) -> tuple[int, ...]:
        """The handle's pair, site or nothing: as many indices as its kind takes."""
        return (self.i, self.j)[: _KINDS[self.kind][0]]

    def __str__(self):
        return f"{self.kind}({','.join(map(str, self.sites))})" if self.sites else self.kind

    @classmethod
    def parse(cls, text: str) -> "TermHandle":
        m = isinstance(text, str) and _HANDLE_RE.match(text.strip().lower().replace(" ", ""))
        if not m:
            raise ValidationError(f"cannot parse handle {text!r}")
        kind, i, j = m.group(1), m.group(2), m.group(3)
        return cls(kind, int(i) if i else None, int(j) if j else None)


def j_plus(i, j):
    return TermHandle("j_plus", i, j)


def j_minus(i, j):
    return TermHandle("j_minus", i, j)


def j_z(i, j):
    return TermHandle("j_z", i, j)


def heis(i, j):
    return TermHandle("heis", i, j)


def sigma_x(i):
    return TermHandle("sigma_x", i)


FREE_EVOLUTION = TermHandle("free_evolution")


@dataclass(frozen=True)
class Coupling:
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0

    @property
    def j_plus(self) -> float:
        return self.jx + self.jy

    @property
    def j_minus(self) -> float:
        return self.jx - self.jy


def build_T(n: int, i: int, j: int) -> PauliSum:
    """T_ij^x = (XX + YY)/2: resonant flip-flop between spins i and j."""
    return _unit_term(n, "j_plus", i, j)


def build_R(n: int, i: int, j: int) -> PauliSum:
    """R_ij^x = (XX - YY)/2: double flip between spins i and j."""
    return _unit_term(n, "j_minus", i, j)


def build_zz(n: int, i: int, j: int) -> PauliSum:
    return _unit_term(n, "j_z", i, j)


def _unit_term(n: int, kind: str, *sites: int) -> PauliSum:
    """The unit-strength term of a pair or site handle kind on `sites`: each letter of its
    `_KINDS` row on every site, with the row's weight."""
    if len(sites) == 2:
        _check_pair(n, *sites)
    letters = _KINDS[kind][1].items()
    return PauliSum(n, {site_letters(n, dict.fromkeys(sites, a)): w for a, w in letters})


def build_H0(epsilon) -> PauliSum:
    """H0 = sum_i (eps_i / 2) sigma_i^z."""
    eps = tuple(float(e) for e in epsilon)
    n = len(eps)
    return PauliSum(n, {site_letters(n, {i + 1: "Z"}): 0.5 * e for i, e in enumerate(eps)})


def _check_pair(n, i, j):
    if not (1 <= i < j <= n):
        raise ValidationError(f"pair ({i},{j}) out of range for n={n}")


class _Family(NamedTuple):
    """One exchange family: its coupling rule and what its presets bond and pulse."""

    rule: Callable[[Coupling], bool]
    message: str  # the rule, as a ValidationError states it
    coupling: Coupling  # preset coupling of every bonded pair
    pulsed: str  # handle kind pulsed on every bonded pair, or on every spin for a site kind
    next_nearest: bool = False  # presets bond (i, i+2) after the chain


_FAMILIES = {
    "heisenberg": _Family(lambda c: c.jx == c.jy == c.jz, "heisenberg requires jx = jy = jz",
                          Coupling(0.5, 0.5, 0.5), "heis"),  # pair term T + ZZ/2
    "xy": _Family(lambda c: c.jx == c.jy and c.jz == 0.0, "xy requires jx = jy and jz = 0",
                  Coupling(0.5, 0.5, 0.0), "j_plus", next_nearest=True),
    "xxz_symmetric": _Family(lambda c: c.jx == c.jy, "xxz_symmetric requires jx = jy",
                             Coupling(0.5, 0.5, 0.35), "j_plus"),
    "xxz_antisymmetric": _Family(lambda c: c.jx == -c.jy, "xxz_antisymmetric requires jx = -jy",
                                 Coupling(0.5, -0.5, 0.35), "j_minus"),
    "nmr_ising": _Family(lambda c: c.jx == c.jy == 0.0, "nmr_ising allows only jz couplings",
                         Coupling(0.0, 0.0, 0.25), "sigma_x"),
}


@dataclass(frozen=True)
class ExchangeModel:
    kind: str
    n_spins: int
    epsilon: tuple[float, ...]
    couplings: Mapping[tuple[int, int], Coupling]
    controllable: frozenset[TermHandle]
    name: str = ""

    def __post_init__(self):
        try:
            object.__setattr__(self, "epsilon", tuple(float(e) for e in self.epsilon))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"epsilon must be a sequence of numbers, got {self.epsilon!r}")
        object.__setattr__(self, "couplings", MappingProxyType(dict(self.couplings)))
        object.__setattr__(self, "controllable", frozenset(self.controllable))
        family = _FAMILIES.get(self.kind) if isinstance(self.kind, str) else None
        if family is None:  # a JSON list or object as kind is unknown, not unhashable
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.n_spins <= 0 or self.n_spins % 2:
            raise ValidationError(f"n_spins must be even and positive, got {self.n_spins}")
        if len(self.epsilon) != self.n_spins:
            raise ValidationError(
                f"epsilon has {len(self.epsilon)} entries for {self.n_spins} spins"
            )
        if not all(math.isfinite(e) for e in self.epsilon):
            raise ValidationError(f"epsilon must be finite, got {self.epsilon}")
        for (i, j), c in self.couplings.items():
            _check_pair(self.n_spins, i, j)
            if not all(math.isfinite(v) for v in (c.jx, c.jy, c.jz)):
                raise ValidationError(f"pair ({i},{j}): couplings must be finite (got {c})")
            if not family.rule(c):
                raise ValidationError(f"pair ({i},{j}): {family.message} (got {c})")
        for h in self.controllable:
            if len(h.sites) == 2 and h.sites not in self.couplings:
                raise ValidationError(f"controllable handle {h} has no coupled pair")
            if len(h.sites) == 1 and not 1 <= h.i <= self.n_spins:
                raise ValidationError(f"controllable handle {h} out of range")

    # -- queries -------------------------------------------------------------

    def coupling(self, i: int, j: int) -> Coupling:
        try:
            return self.couplings[(i, j)]
        except KeyError:
            raise ConnectivityError(f"spins ({i},{j}) are not coupled in this model")

    def has_pair(self, i: int, j: int) -> bool:
        return (i, j) in self.couplings

    def is_controllable(self, handle: TermHandle) -> bool:
        return handle in self.controllable

    def require_controllable(self, handle: TermHandle):
        """ConnectivityError for uncoupled pairs, ControllabilityError for fixed terms."""
        if handle.j is not None and not self.has_pair(handle.i, handle.j):  # a pair handle
            raise ConnectivityError(f"spins ({handle.i},{handle.j}) are not coupled in this model")
        if not self.is_controllable(handle):
            raise ControllabilityError(
                f"handle {handle} is not controllable in model {self.name or self.kind!r}"
            )

    def eps_minus(self, m: int) -> float:
        """eps_m^- = (eps_{2m-1} - eps_{2m}) / 2."""
        return (self.epsilon[2 * m - 2] - self.epsilon[2 * m - 1]) / 2

    def eps_plus(self, m: int) -> float:
        return (self.epsilon[2 * m - 2] + self.epsilon[2 * m - 1]) / 2

    def background_magnitude(self) -> float:
        """Largest magnitude among fixed energies and always-on couplings."""
        return self._background[1]

    @cached_property  # kept in the instance __dict__: fields and equality are untouched
    def _background(self) -> tuple[PauliSum, float]:
        """(background Hamiltonian, background magnitude), from one walk of the terms."""
        total = build_H0(self.epsilon)
        vals = [abs(e) for e in self.epsilon]
        for coeff, kind, i, j in _pair_terms(self):
            total = total + coeff * _unit_term(self.n_spins, kind, i, j)
            vals.append(abs(coeff))
        return total, max(vals) if vals else 1.0

    def term(self, key, build: Callable[[], PauliSum]) -> PauliSum:
        """The term kept under `key` (a pulsed handle, a window's target), from
        `build()` on first use: built once per model."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    @cached_property
    def _built(self) -> dict:
        return {}


def _pair_terms(model: ExchangeModel):
    """(coefficient, kind, i, j) for every always-on J^+ T, J^- R and J^z ZZ term."""
    for (i, j), c in model.couplings.items():
        if model.is_controllable(heis(i, j)):
            continue
        for coeff, kind in ((c.j_plus, "j_plus"), (c.j_minus, "j_minus"), (c.jz, "j_z")):
            if coeff and not model.is_controllable(TermHandle(kind, i, j)):
                yield coeff, kind, i, j


def background_hamiltonian(model: ExchangeModel) -> PauliSum:
    """H0 plus every non-controllable coupling at its fixed value.

    Controllable parameters rest at zero; a controllable heis(i,j) switches the
    whole pair term off. Built once per model.
    """
    return model._background[0]


def toggled_generator(model: ExchangeModel, handle: TermHandle) -> PauliSum:
    """The PauliSum evolved while `handle` is pulsed at unit strength.

    Raises ConnectivityError for pairs the hardware does not couple and
    ControllabilityError for parameters the platform cannot pulse (the
    controllability-registry enforcement point). Built once per model and handle.
    """
    model.require_controllable(handle)
    return model.term(handle, lambda: _build_generator(model, handle))


def _build_generator(model: ExchangeModel, handle: TermHandle) -> PauliSum:
    if handle.kind == "free_evolution":
        return background_hamiltonian(model)
    return _unit_term(model.n_spins, handle.kind, *handle.sites)


# -- platform presets with their controllability columns ----------------------


def default_epsilon(n: int) -> tuple[float, ...]:
    """Non-degenerate single-particle energies: eps_m^- = 0.1 for every pair."""
    return tuple(1.0 + 0.2 * (n - i) for i in range(1, n + 1))


_PRESETS = {  # preset name -> family kind
    # physical platforms
    "spin_dots": "heisenberg",
    "donor_atoms": "heisenberg",
    "quantum_hall": "xy",
    "cavity": "xy",
    "exciton_dots": "xy",
    "electrons_on_helium": "xxz_symmetric",
    # generic families
    "heisenberg": "heisenberg",
    "xy": "xy",
    "xxz_symmetric": "xxz_symmetric",
    "xxz_antisymmetric": "xxz_antisymmetric",
    "nmr": "nmr_ising",
}

PRESET_NAMES = tuple(_PRESETS)


def preset_model(name: str, n_spins: int = 4, epsilon=None) -> ExchangeModel:
    """Named built-in model with the platform's controllability column."""
    if isinstance(n_spins, bool) or not isinstance(n_spins, numbers.Integral):
        raise ValidationError(f"n_spins must be an integer, got {n_spins!r}")
    eps = default_epsilon(n_spins) if epsilon is None else epsilon
    try:
        kind = _PRESETS[name]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    family = _FAMILIES[kind]
    pairs = [(i, i + 1) for i in range(1, n_spins)]
    if family.next_nearest:
        pairs += [(i, i + 2) for i in range(1, n_spins - 1)]
    sites = pairs if _KINDS[family.pulsed][0] == 2 else [(i,) for i in range(1, n_spins + 1)]
    ctrl = {TermHandle(family.pulsed, *s) for s in sites}
    couplings = dict.fromkeys(pairs, family.coupling)
    return ExchangeModel(kind, n_spins, eps, couplings, ctrl | {FREE_EVOLUTION}, name)


# -- JSON --------------------------------------------------------------------

MALFORMED_JSON = (KeyError, TypeError, ValueError, OverflowError)  # bad shapes or values


def json_index(value) -> int:
    """int() of a JSON index; a bool or a non-integral float is malformed, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"index must be an integer, got {value!r}")
    return int(value)


def json_of(value, kind: type, what: str):
    """`value` as given if it is a `kind` (list, str or dict): nothing but a list is a
    list (a string or an object iterates), and nothing but a string is a name."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {what}, got {value!r}")
    return value


def json_number(value, many: bool = False):
    """A JSON number, or under `many` a JSON list of them, as given: a bool is not a
    number (float(True) is 1.0)."""
    for v in json_of(value, list, "a list of numbers") if many else [value]:
        if isinstance(v, bool):
            raise TypeError(f"expected a number, got {v!r}")
    return value


def model_to_dict(model: ExchangeModel) -> dict:
    return {
        "kind": model.kind,
        "n_spins": model.n_spins,
        "epsilon": list(model.epsilon),
        "couplings": [
            {"i": i, "j": j, "jx": c.jx, "jy": c.jy, "jz": c.jz}
            for (i, j), c in sorted(model.couplings.items())
        ],
        "controllable": sorted(str(h) for h in model.controllable),
        "name": model.name,
    }


def model_from_dict(data: dict) -> ExchangeModel:
    try:
        n_spins = data.get("n_spins", 4) if "preset" in data else data["n_spins"]
        try:
            n_spins = json_index(n_spins)
        except MALFORMED_JSON as exc:
            raise ValueError(f"n_spins: {exc}")
        if "preset" in data:
            eps = data.get("epsilon")
            eps = None if eps is None else [float(e) for e in json_number(eps, many=True)]
            return preset_model(data["preset"], n_spins, eps)
        couplings = {
            (json_index(c["i"]), json_index(c["j"])): Coupling(
                *(float(json_number(c.get(key, 0.0))) for key in ("jx", "jy", "jz"))
            )
            for c in data["couplings"]
        }
        handles = json_of(data.get("controllable", []), list, "'controllable' as a list")
        return ExchangeModel(
            kind=data["kind"],
            n_spins=n_spins,
            epsilon=[float(e) for e in json_number(data["epsilon"], many=True)],
            couplings=couplings,
            controllable=frozenset(TermHandle.parse(h) for h in handles),
            name=json_of(data.get("name", ""), str, "'name' as a string"),
        )
    except MALFORMED_JSON as exc:
        raise ValidationError(f"malformed model JSON: {exc}")


def read_json(path: str):
    """Parse a JSON file; an unreadable or invalid file raises ValidationError."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ValidationError(str(exc))
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})")


def load_model(path: str) -> ExchangeModel:
    return model_from_dict(read_json(path))
