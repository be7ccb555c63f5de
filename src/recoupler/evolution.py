"""Exact propagators and pulse-schedule simulation.

A schedule is an ordered list of parallel groups written in matrix-product
order: the rightmost (last) group acts first in time, so the list reads like
the operator product U = M(groups[0]) @ M(groups[1]) @ ... This makes schedule
listings match sandwich formulas such as  free . P(+pi/2) . free . P(-pi/2).

Pulse angle convention: a pulse of handle h with angle a applies
exp(-i a G_h) where G_h is the unit-strength toggled generator. In realistic
mode the pulse strength is s = ratio * max background magnitude, the pulse
lasts |a|/s, and the always-on background evolves alongside. Free-evolution
steps carry a duration; in ideal mode they evolve only their annotated target
term, in realistic mode the full background.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .encoding import CodeSpec, code_isometry, r_z, t_z
from .errors import ControllabilityError, ValidationError
from .model import (
    MALFORMED_JSON,
    ExchangeModel,
    TermHandle,
    background_hamiltonian,
    build_zz,
    read_json,
    toggled_generator,
)
from .pauli import PauliSum, check_dense, to_matrix

_TARGET_RE = re.compile(r"^(t_z|r_z)\((\d+)\)$|^zz\((\d+),(\d+)\)$")


@dataclass(frozen=True)
class WindowTarget:
    """The one term an ideal free window keeps: t_z(m), r_z(m) or zz(i,j)."""

    kind: str  # t_z | r_z (logical qubit i) | zz (spin pair i, j)
    i: int
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("t_z", "r_z", "zz") or (self.kind == "zz") != (self.j is not None):
            raise ValidationError(f"bad free-evolution target {self.kind}({self.i},{self.j})")

    def __str__(self):
        return f"zz({self.i},{self.j})" if self.kind == "zz" else f"{self.kind}({self.i})"

    @classmethod
    def parse(cls, text) -> "WindowTarget":
        m = isinstance(text, str) and _TARGET_RE.match(text)
        if not m:
            raise ValidationError(f"bad free-evolution target {text!r}")
        if m.group(1):
            return cls(m.group(1), int(m.group(2)))
        return cls("zz", int(m.group(3)), int(m.group(4)))

    def coefficient(self, model: ExchangeModel) -> float:
        """The model coefficient of the kept term: eps_m^-, eps_m^+ or J^z_ij."""
        if self.kind == "zz":
            return model.coupling(self.i, self.j).jz
        if not 1 <= self.i <= model.n_spins // 2:
            raise ValidationError(f"target {str(self)!r} outside the logical register")
        return model.eps_minus(self.i) if self.kind == "t_z" else model.eps_plus(self.i)

    def term(self, model: ExchangeModel) -> PauliSum:
        """The kept term with its model coefficient."""
        n, coeff = model.n_spins, self.coefficient(model)
        if self.kind == "zz":
            return coeff * build_zz(n, self.i, self.j)
        return coeff * (t_z if self.kind == "t_z" else r_z)(n, self.i)


@dataclass(frozen=True)
class PulseStep:
    handle: TermHandle
    angle: float | None = None  # pulses: rotation angle of the unit-strength generator
    duration: float | None = None  # free evolution windows
    target: WindowTarget | None = None  # free window's kept term in ideal mode
    mode: str = "ideal"

    def __post_init__(self):
        if self.mode not in ("ideal", "realistic"):
            raise ValidationError(f"bad mode {self.mode!r}")
        if self.target is not None and not isinstance(self.target, WindowTarget):
            raise ValidationError(f"step target must be a WindowTarget, got {self.target!r}")
        if self.handle.kind == "free_evolution":
            if self.duration is None or self.duration < 0:
                raise ValidationError("free evolution needs duration >= 0")
        elif self.angle is None:
            raise ValidationError(f"pulse step {self.handle} needs an angle")
        for name in ("angle", "duration"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"step {self.handle}: {name} must be finite, got {value}")

    def support(self, n_spins: int) -> frozenset[int]:
        h = self.handle
        if h.kind == "free_evolution":
            return frozenset(range(1, n_spins + 1))
        if h.j is not None:
            return frozenset((h.i, h.j))
        return frozenset((h.i,))


@dataclass(frozen=True)
class PulseSchedule:
    groups: tuple[tuple[PulseStep, ...], ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))
        for g, group in enumerate(self.groups):
            if not group:
                raise ValidationError(f"group {g} is empty")
            if len(group) > 1 and any(s.handle.kind == "free_evolution" for s in group):
                raise ValidationError("free evolution cannot share a parallel group")

    def validate_supports(self, n_spins: int):
        for g, group in enumerate(self.groups):
            seen: set[int] = set()
            for step in group:
                sup = step.support(n_spins)
                if seen & sup:
                    raise ValidationError(f"group {g}: overlapping supports {sorted(seen & sup)}")
                seen |= sup

    @property
    def step_count_serial(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def step_count_parallel(self) -> int:
        return len(self.groups)

    def __add__(self, other: "PulseSchedule") -> "PulseSchedule":
        """Concatenate in matrix order: self's groups stay left, acting later in time."""
        meta = dict(self.metadata)
        meta.pop("gate", None)
        return PulseSchedule(self.groups + other.groups, meta)


def propagator(h: PauliSum, t: float) -> np.ndarray:
    """exp(-i h t) via Hermitian eigendecomposition of the dense generator."""
    if not isinstance(h, PauliSum):
        raise ValidationError(f"propagator takes a PauliSum generator, got {type(h).__name__}")
    if math.isinf(sum(abs(c) for _, c in h)):  # bounds every matrix entry
        raise ValidationError("propagator generator overflows: sum of |coefficients| is inf")
    if not h.is_hermitian(1e-10):
        raise ValidationError("propagator requires a Hermitian generator")
    evals, evecs = np.linalg.eigh(to_matrix(h))
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not defect <= 1e-10:
        raise ValidationError(f"propagator lost unitarity (defect {defect:.2e})")
    return u


def _group_unitary(
    group: tuple[PulseStep, ...],
    model: ExchangeModel,
    mode: str | None,
    strength: float | None,
    background: PauliSum,
) -> np.ndarray:
    n = model.n_spins
    step_mode = mode or group[0].mode
    if mode is None and any(s.mode != step_mode for s in group):
        raise ValidationError("steps in one group carry different modes")

    free = group[0].handle.kind == "free_evolution"
    if free:
        step = group[0]
        if not model.is_controllable(step.handle):
            raise ControllabilityError(
                f"free evolution is not controllable in model {model.name or model.kind!r}"
            )
        if step_mode == "ideal" and step.target is not None:
            gen = step.target.term(model)
        else:
            gen = background
        return propagator(gen, step.duration)

    if step_mode == "ideal":
        gen = PauliSum.zero(n)
        for step in group:
            if step.angle:
                gen = gen + step.angle * toggled_generator(model, step.handle)
        return propagator(gen, 1.0)

    # realistic: finite pulse strength, background always on
    angles = {abs(s.angle) for s in group if s.angle}
    if not angles:
        return np.eye(2**n, dtype=complex)
    if len(angles) > 1:
        raise ValidationError("realistic parallel steps must share a pulse duration")
    if not strength:
        raise ValidationError("realistic pulse strength is zero: the background sets no scale")
    dt = angles.pop() / strength
    gen = background
    for step in group:
        if step.angle:
            gen = gen + np.sign(step.angle) * strength * toggled_generator(model, step.handle)
    return propagator(gen, dt)


def apply_schedule(
    schedule: PulseSchedule,
    model: ExchangeModel,
    mode: str | None = None,
    ratio: float | None = None,
) -> np.ndarray:
    """Exact unitary of a schedule: product of group propagators, rightmost first.

    `mode`/`ratio` override the per-step mode tags when given.
    """
    if mode is not None and mode not in ("ideal", "realistic"):
        raise ValidationError(f"bad mode {mode!r}")
    schedule.validate_supports(model.n_spins)
    modes = {mode} if mode else {s.mode for group in schedule.groups for s in group}
    if "realistic" in modes and (ratio is None or not 0 < ratio < math.inf):
        raise ValidationError("realistic mode needs a finite positive strength ratio")
    scale = model.background_magnitude()
    strength = ratio * scale if "realistic" in modes else None
    if strength == math.inf:
        raise ValidationError(f"realistic pulse strength {ratio:g} x {scale:g} overflows")
    check_dense(model.n_spins)
    background = background_hamiltonian(model)
    u = np.eye(2**model.n_spins, dtype=complex)
    for group in schedule.groups:
        u = u @ _group_unitary(group, model, mode, strength, background)
    return u


def restrict(u: np.ndarray, spec: CodeSpec) -> tuple[np.ndarray, float]:
    """Compress a full-register unitary to the code space.

    Returns (B, leakage) with B = V^dag U V and
    leakage = ||(I - P) U P||_F / ||P||_F, in [0, 1] for unitary U.
    """
    v = code_isometry(spec)
    uv = np.asarray(u, dtype=complex) @ v
    b = v.conj().T @ uv
    out = uv - v @ b
    leakage = float(np.linalg.norm(out) / np.sqrt(v.shape[1]))
    return b, leakage


# -- JSON --------------------------------------------------------------------


def _step_to_dict(step: PulseStep) -> dict:
    d: dict = {"handle": str(step.handle), "mode": step.mode}
    if step.angle is not None:
        d["angle"] = step.angle
    if step.duration is not None:
        d["duration"] = step.duration
    if step.target is not None:
        d["target"] = str(step.target)
    return d


def _step_from_dict(d: dict) -> PulseStep:
    """One JSON step; a pulse given as strength x duration becomes its angle."""
    try:
        handle = TermHandle.parse(d["handle"])
        angle, duration = d.get("angle"), d.get("duration")
        if handle.kind != "free_evolution" and angle is None and "strength" in d:
            angle, duration = d["strength"] * duration, None
        target = d.get("target")
        return PulseStep(
            handle=handle,
            angle=angle,
            duration=duration,
            target=None if target is None else WindowTarget.parse(target),
            mode=d.get("mode", "ideal"),
        )
    except MALFORMED_JSON as exc:
        raise ValidationError(f"malformed step {d!r}: {exc}")


def schedule_to_dict(schedule: PulseSchedule) -> dict:
    return {
        "groups": [[_step_to_dict(s) for s in g] for g in schedule.groups],
        "metadata": schedule.metadata,
    }


def schedule_from_dict(data: dict) -> PulseSchedule:
    try:
        groups = tuple(
            tuple(_step_from_dict(s) for s in group) for group in data["groups"]
        )
    except MALFORMED_JSON as exc:
        raise ValidationError(f"malformed schedule JSON: {exc}")
    return PulseSchedule(groups, data.get("metadata", {}))


def save_schedule(schedule: PulseSchedule, path: str):
    with open(path, "w") as f:
        json.dump(schedule_to_dict(schedule), f, indent=2)
        f.write("\n")


def load_schedule(path: str) -> PulseSchedule:
    return schedule_from_dict(read_json(path))
