"""Exchange-Hamiltonian families, controllability registry, and term builders.

A model stores per-pair couplings (jx, jy, jz) in the convention
H_pair = (jx - jy) R^x + (jx + jy) T^x + jz Z Z, i.e. the axially symmetric
rewriting of sum_alpha J^alpha sigma^alpha sigma^alpha. Stored values are the
always-on background for non-controllable parameters and the nominal strength
for controllable ones (which rest at zero between pulses).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Mapping

from .errors import ConnectivityError, ControllabilityError, ValidationError
from .pauli import PauliSum, single, site_letters

MODEL_KINDS = ("heisenberg", "xy", "xxz_symmetric", "xxz_antisymmetric", "nmr_ising")

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


def epsilon_handle(i):
    return TermHandle("epsilon", i)


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


@dataclass(frozen=True)
class ExchangeModel:
    kind: str
    n_spins: int
    epsilon: tuple[float, ...]
    couplings: Mapping[tuple[int, int], Coupling]
    controllable: frozenset[TermHandle]
    name: str = ""

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
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
            self._check_kind_constraint(i, j, c)
        for h in self.controllable:
            if h.kind in TermHandle.PAIR_KINDS and (h.i, h.j) not in self.couplings:
                raise ValidationError(f"controllable handle {h} has no coupled pair")
            if h.kind in TermHandle.SITE_KINDS and not 1 <= h.i <= self.n_spins:
                raise ValidationError(f"controllable handle {h} out of range")

    def _check_kind_constraint(self, i, j, c: Coupling):
        k = self.kind
        bad = None
        if k == "heisenberg" and not (c.jx == c.jy == c.jz):
            bad = "heisenberg requires jx = jy = jz"
        elif k == "xy" and not (c.jx == c.jy and c.jz == 0.0):
            bad = "xy requires jx = jy and jz = 0"
        elif k == "xxz_symmetric" and c.jx != c.jy:
            bad = "xxz_symmetric requires jx = jy"
        elif k == "xxz_antisymmetric" and c.jx != -c.jy:
            bad = "xxz_antisymmetric requires jx = -jy"
        elif k == "nmr_ising" and not (c.jx == c.jy == 0.0):
            bad = "nmr_ising allows only jz couplings"
        if bad:
            raise ValidationError(f"pair ({i},{j}): {bad} (got {c})")

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
        vals = [abs(e) for e in self.epsilon]
        vals += [abs(coeff) for coeff, _, _, _ in _pair_terms(self, always_on=True)]
        return max(vals) if vals else 1.0


def _pair_terms(model: ExchangeModel, always_on: bool):
    """(coefficient, builder, i, j) for every nonzero J^+ T, J^- R and J^z ZZ term.

    With `always_on`, terms a controllable handle rests at zero are skipped; a
    controllable heis(i,j) switches the whole pair term off.
    """
    for (i, j), c in model.couplings.items():
        if always_on and model.is_controllable(heis(i, j)):
            continue
        for coeff, handle, build in (
            (c.j_plus, j_plus, build_T),
            (c.j_minus, j_minus, build_R),
            (c.jz, j_z, build_zz),
        ):
            if coeff and not (always_on and model.is_controllable(handle(i, j))):
                yield coeff, build, i, j


def _add_pair_terms(total: PauliSum, model: ExchangeModel, always_on: bool) -> PauliSum:
    for coeff, build, i, j in _pair_terms(model, always_on):
        total = total + coeff * build(model.n_spins, i, j)
    return total


def build_exchange(model: ExchangeModel) -> PauliSum:
    """H_ex = sum_{i<j} J^+ T^x + J^- R^x + J^z ZZ over the model's pairs."""
    return _add_pair_terms(PauliSum.zero(model.n_spins), model, always_on=False)


def background_hamiltonian(model: ExchangeModel) -> PauliSum:
    """H0 plus every non-controllable coupling at its fixed value.

    Controllable parameters rest at zero; a controllable heis(i,j) switches the
    whole pair term off.
    """
    return _add_pair_terms(build_H0(model.epsilon), model, always_on=True)


def toggled_generator(model: ExchangeModel, handle: TermHandle) -> PauliSum:
    """The PauliSum evolved while `handle` is pulsed at unit strength.

    Raises ConnectivityError for pairs the hardware does not couple and
    ControllabilityError for parameters the platform cannot pulse (the
    controllability-registry enforcement point).
    """
    model.require_controllable(handle)
    n = model.n_spins
    k = handle.kind
    if k == "j_plus":
        return build_T(n, handle.i, handle.j)
    if k == "j_minus":
        return build_R(n, handle.i, handle.j)
    if k == "j_z":
        return build_zz(n, handle.i, handle.j)
    if k == "heis":
        return build_T(n, handle.i, handle.j) + 0.5 * build_zz(n, handle.i, handle.j)
    if k == "sigma_x":
        return PauliSum.from_string(single(n, handle.i, "X"))
    if k == "epsilon":
        return 0.5 * PauliSum.from_string(single(n, handle.i, "Z"))
    return background_hamiltonian(model)  # free_evolution


# -- platform presets with their controllability columns ----------------------


def default_epsilon(n: int) -> tuple[float, ...]:
    """Non-degenerate single-particle energies: eps_m^- = 0.1 for every pair."""
    return tuple(1.0 + 0.2 * (n - i) for i in range(1, n + 1))


def _chain_pairs(n):
    return [(i, i + 1) for i in range(1, n)]


def _nnn_pairs(n):
    return [(i, i + 2) for i in range(1, n - 1)]


def _heisenberg(n, epsilon, j=1.0, name=""):
    v = j / 2  # per-axis couplings; the pair term is then j * (T + ZZ/2)
    pairs = {(i, k): Coupling(v, v, v) for i, k in _chain_pairs(n)}
    ctrl = {heis(i, k) for i, k in pairs} | {FREE_EVOLUTION}
    return ExchangeModel("heisenberg", n, epsilon, pairs, frozenset(ctrl), name)


def _xy(n, epsilon, j=0.5, name=""):
    pairs = {(i, k): Coupling(j, j, 0.0) for i, k in _chain_pairs(n) + _nnn_pairs(n)}
    ctrl = {j_plus(i, k) for i, k in pairs} | {FREE_EVOLUTION}
    return ExchangeModel("xy", n, epsilon, pairs, frozenset(ctrl), name)


def _xxz_sym(n, epsilon, j=0.5, jz=0.35, name=""):
    pairs = {(i, k): Coupling(j, j, jz) for i, k in _chain_pairs(n)}
    ctrl = {j_plus(i, k) for i, k in pairs} | {FREE_EVOLUTION}
    return ExchangeModel("xxz_symmetric", n, epsilon, pairs, frozenset(ctrl), name)


def _xxz_anti(n, epsilon, j=0.5, jz=0.35, name=""):
    pairs = {(i, k): Coupling(j, -j, jz) for i, k in _chain_pairs(n)}
    ctrl = {j_minus(i, k) for i, k in pairs} | {FREE_EVOLUTION}
    return ExchangeModel("xxz_antisymmetric", n, epsilon, pairs, frozenset(ctrl), name)


def _nmr(n, epsilon, jz=0.25, name=""):
    pairs = {(i, k): Coupling(0.0, 0.0, jz) for i, k in _chain_pairs(n)}
    ctrl = {sigma_x(i) for i in range(1, n + 1)} | {FREE_EVOLUTION}
    return ExchangeModel("nmr_ising", n, epsilon, pairs, frozenset(ctrl), name)


_PRESET_BUILDERS = {
    # physical platforms
    "spin_dots": _heisenberg,
    "donor_atoms": _heisenberg,
    "quantum_hall": _xy,
    "cavity": _xy,
    "exciton_dots": _xy,
    "electrons_on_helium": _xxz_sym,
    # generic families
    "heisenberg": _heisenberg,
    "xy": _xy,
    "xxz_symmetric": _xxz_sym,
    "xxz_antisymmetric": _xxz_anti,
    "nmr": _nmr,
}

PRESET_NAMES = tuple(_PRESET_BUILDERS)


def preset_model(name: str, n_spins: int = 4, epsilon=None) -> ExchangeModel:
    """Named built-in model with the platform's controllability column."""
    eps = tuple(epsilon) if epsilon is not None else default_epsilon(n_spins)
    try:
        builder = _PRESET_BUILDERS[name]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return builder(n_spins, eps, name=name)


# -- JSON --------------------------------------------------------------------

MALFORMED_JSON = (KeyError, TypeError, ValueError, OverflowError)  # bad shapes or values


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
        if "preset" in data:
            return preset_model(data["preset"], data.get("n_spins", 4), data.get("epsilon"))
        couplings = {
            (int(c["i"]), int(c["j"])): Coupling(
                float(c.get("jx", 0.0)), float(c.get("jy", 0.0)), float(c.get("jz", 0.0))
            )
            for c in data["couplings"]
        }
        return ExchangeModel(
            kind=data["kind"],
            n_spins=int(data["n_spins"]),
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
