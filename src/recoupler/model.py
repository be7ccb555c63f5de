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


@dataclass(frozen=True, order=True)
class TermHandle:
    """Symbolic identifier of a toggleable Hamiltonian term."""

    kind: str  # j_plus | j_minus | j_z | heis | sigma_x | epsilon | free_evolution
    i: int | None = None
    j: int | None = None

    PAIR_KINDS = ("j_plus", "j_minus", "j_z", "heis")
    SITE_KINDS = ("sigma_x", "epsilon")

    def __post_init__(self):
        if self.kind in self.PAIR_KINDS:
            if self.i is None or self.j is None or not self.i < self.j:
                raise ValidationError(f"{self.kind} needs a pair i<j, got ({self.i},{self.j})")
        elif self.kind in self.SITE_KINDS:
            if self.i is None or self.j is not None:
                raise ValidationError(f"{self.kind} needs a single site")
        elif self.kind == "free_evolution":
            if self.i is not None or self.j is not None:
                raise ValidationError("free_evolution takes no indices")
        else:
            raise ValidationError(f"unknown handle kind {self.kind!r}")

    def __str__(self):
        if self.kind in self.PAIR_KINDS:
            return f"{self.kind}({self.i},{self.j})"
        if self.kind in self.SITE_KINDS:
            return f"{self.kind}({self.i})"
        return self.kind

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
    _check_pair(n, i, j)
    xx, yy = (site_letters(n, {i: a, j: a}) for a in "XY")
    return PauliSum(n, {xx: 0.5, yy: 0.5})


def build_R(n: int, i: int, j: int) -> PauliSum:
    """R_ij^x = (XX - YY)/2: double flip between spins i and j."""
    _check_pair(n, i, j)
    xx, yy = (site_letters(n, {i: a, j: a}) for a in "XY")
    return PauliSum(n, {xx: 0.5, yy: -0.5})


def build_zz(n: int, i: int, j: int) -> PauliSum:
    _check_pair(n, i, j)
    return PauliSum(n, {site_letters(n, {i: "Z", j: "Z"}): 1.0})


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
    pulsed: Callable[[int, int], TermHandle] | None  # None: sigma_x on every spin
    next_nearest: bool = False  # presets bond (i, i+2) after the chain


_FAMILIES = {
    "heisenberg": _Family(lambda c: c.jx == c.jy == c.jz, "heisenberg requires jx = jy = jz",
                          Coupling(0.5, 0.5, 0.5), heis),  # pair term T + ZZ/2
    "xy": _Family(lambda c: c.jx == c.jy and c.jz == 0.0, "xy requires jx = jy and jz = 0",
                  Coupling(0.5, 0.5, 0.0), j_plus, next_nearest=True),
    "xxz_symmetric": _Family(lambda c: c.jx == c.jy, "xxz_symmetric requires jx = jy",
                             Coupling(0.5, 0.5, 0.35), j_plus),
    "xxz_antisymmetric": _Family(lambda c: c.jx == -c.jy, "xxz_antisymmetric requires jx = -jy",
                                 Coupling(0.5, -0.5, 0.35), j_minus),
    "nmr_ising": _Family(lambda c: c.jx == c.jy == 0.0, "nmr_ising allows only jz couplings",
                         Coupling(0.0, 0.0, 0.25), None),
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
        object.__setattr__(self, "epsilon", tuple(self.epsilon))
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
            if h.kind in TermHandle.PAIR_KINDS and (h.i, h.j) not in self.couplings:
                raise ValidationError(f"controllable handle {h} has no coupled pair")
            if h.kind in TermHandle.SITE_KINDS and not 1 <= h.i <= self.n_spins:
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
        if handle.kind in TermHandle.PAIR_KINDS and not self.has_pair(handle.i, handle.j):
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
        for coeff, build, i, j in _pair_terms(self):
            total = total + coeff * build(self.n_spins, i, j)
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
    """(coefficient, builder, i, j) for every always-on J^+ T, J^- R and J^z ZZ term."""
    for (i, j), c in model.couplings.items():
        if model.is_controllable(heis(i, j)):
            continue
        for coeff, handle, build in (
            (c.j_plus, j_plus, build_T),
            (c.j_minus, j_minus, build_R),
            (c.jz, j_z, build_zz),
        ):
            if coeff and not model.is_controllable(handle(i, j)):
                yield coeff, build, i, j


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
    n = model.n_spins
    k = handle.kind
    if k == "j_plus":
        return build_T(n, handle.i, handle.j)
    if k == "j_minus":
        return build_R(n, handle.i, handle.j)
    if k == "j_z":
        return build_zz(n, handle.i, handle.j)
    if k == "heis":  # T + ZZ/2
        _check_pair(n, handle.i, handle.j)
        return PauliSum(n, {site_letters(n, {handle.i: a, handle.j: a}): 0.5 for a in "XYZ"})
    if k == "sigma_x":
        return PauliSum(n, {site_letters(n, {handle.i: "X"}): 1.0})
    if k == "epsilon":
        return PauliSum(n, {site_letters(n, {handle.i: "Z"}): 0.5})
    return background_hamiltonian(model)  # free_evolution


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
    if family.pulsed is None:
        ctrl = {sigma_x(i) for i in range(1, n_spins + 1)}
    else:
        ctrl = {family.pulsed(i, j) for i, j in pairs}
    couplings = dict.fromkeys(pairs, family.coupling)
    return ExchangeModel(kind, n_spins, eps, couplings, ctrl | {FREE_EVOLUTION}, name)


# -- JSON --------------------------------------------------------------------

MALFORMED_JSON = (KeyError, TypeError, ValueError, OverflowError)  # bad shapes or values


def json_index(value) -> int:
    """int() of a JSON index; a bool or a non-integral float is malformed, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"index must be an integer, got {value!r}")
    return int(value)


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
            return preset_model(data["preset"], n_spins, data.get("epsilon"))
        couplings = {
            (json_index(c["i"]), json_index(c["j"])): Coupling(
                float(c.get("jx", 0.0)), float(c.get("jy", 0.0)), float(c.get("jz", 0.0))
            )
            for c in data["couplings"]
        }
        return ExchangeModel(
            kind=data["kind"],
            n_spins=n_spins,
            epsilon=tuple(float(e) for e in data["epsilon"]),
            couplings=couplings,
            controllable=frozenset(TermHandle.parse(h) for h in data.get("controllable", [])),
            name=data.get("name", ""),
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
