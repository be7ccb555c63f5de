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
    ExchangeModel,
    TermHandle,
    background_hamiltonian,
    build_zz,
    toggled_generator,
)
from .pauli import PauliSum, max_spins, to_matrix

_TARGET_RE = re.compile(r"^(t_z|r_z)\((\d+)\)$|^zz\((\d+),(\d+)\)$")


@dataclass(frozen=True)
class PulseStep:
    handle: TermHandle
    angle: float | None = None  # pulses: strength x duration
    duration: float | None = None  # free evolution windows
    strength: float | None = None  # optional alternative to angle for pulses
    target: str | None = None  # free window's targeted term, e.g. "t_z(1)"
    mode: str = "ideal"

    def __post_init__(self):
        if self.mode not in ("ideal", "realistic"):
            raise ValidationError(f"bad mode {self.mode!r}")
        if self.handle.kind == "free_evolution":
            if self.duration is None or self.duration < 0:
                raise ValidationError("free evolution needs duration >= 0")
            if self.target is not None and not _TARGET_RE.match(self.target):
                raise ValidationError(f"bad free-evolution target {self.target!r}")
        else:
            if self.angle is None:
                if self.strength is None or self.duration is None:
                    raise ValidationError(
                        f"pulse step {self.handle} needs an angle or strength and duration"
                    )
                object.__setattr__(self, "angle", self.strength * self.duration)
        for name in ("angle", "duration", "strength"):
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


def propagator(h: PauliSum | np.ndarray, t: float, n: int | None = None) -> np.ndarray:
    """exp(-i h t) via Hermitian eigendecomposition; exact for the given matrix."""
    if isinstance(h, PauliSum):
        if not h.is_hermitian(1e-10):
            raise ValidationError("propagator requires a Hermitian generator")
        mat = to_matrix(h, n)
    else:
        mat = np.asarray(h, dtype=complex)
        if mat.shape[0] != mat.shape[1]:
            raise ValidationError("generator must be square")
        if mat.shape[0] > 2 ** max_spins():
            raise ValidationError(f"dimension {mat.shape[0]} exceeds the spin cap")
        if not np.allclose(mat, mat.conj().T, atol=1e-10):
            raise ValidationError("propagator requires a Hermitian generator")
    evals, evecs = np.linalg.eigh(mat)
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not defect <= 1e-10:
        raise ValidationError(f"propagator lost unitarity (defect {defect:.2e})")
    return u


def _free_target_term(model: ExchangeModel, target: str) -> PauliSum:
    """The annotated term (with its model coefficient) of an ideal free window."""
    m = _TARGET_RE.match(target)
    if m.group(1) in ("t_z", "r_z"):
        idx = int(m.group(2))
        if not 1 <= idx <= model.n_spins // 2:
            raise ValidationError(f"target {target!r} outside the logical register")
        if m.group(1) == "t_z":
            return model.eps_minus(idx) * t_z(model.n_spins, idx)
        return model.eps_plus(idx) * r_z(model.n_spins, idx)
    i, j = int(m.group(3)), int(m.group(4))
    return model.coupling(i, j).jz * build_zz(model.n_spins, i, j)


def _group_unitary(
    group: tuple[PulseStep, ...],
    model: ExchangeModel,
    mode: str | None,
    ratio: float | None,
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
            gen = _free_target_term(model, step.target)
        else:
            gen = background
        return propagator(gen, step.duration, n)

    if step_mode == "ideal":
        gen = PauliSum.zero(n)
        for step in group:
            if step.angle:
                gen = gen + step.angle * toggled_generator(model, step.handle, 1.0)
        return propagator(gen, 1.0, n)

    # realistic: finite pulse strength, background always on
    if ratio is None or not 0 < ratio < math.inf:
        raise ValidationError("realistic mode needs a finite positive strength ratio")
    strength = ratio * model.background_magnitude()
    angles = {abs(s.angle) for s in group if s.angle}
    if not angles:
        return np.eye(2**n, dtype=complex)
    if len(angles) > 1:
        raise ValidationError("realistic parallel steps must share a pulse duration")
    dt = angles.pop() / strength
    gen = background
    for step in group:
        if step.angle:
            gen = gen + np.sign(step.angle) * strength * toggled_generator(
                model, step.handle, 1.0
            )
    return propagator(gen, dt, n)


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
    background = background_hamiltonian(model)
    u = np.eye(2**model.n_spins, dtype=complex)
    for group in schedule.groups:
        u = u @ _group_unitary(group, model, mode, ratio, background)
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
    if step.strength is not None:
        d["strength"] = step.strength
    if step.target is not None:
        d["target"] = step.target
    return d


def _step_from_dict(d: dict) -> PulseStep:
    try:
        return PulseStep(
            handle=TermHandle.parse(d["handle"]),
            angle=d.get("angle"),
            duration=d.get("duration"),
            strength=d.get("strength"),
            target=d.get("target"),
            mode=d.get("mode", "ideal"),
        )
    except (KeyError, TypeError) as exc:
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
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed schedule JSON: {exc}")
    return PulseSchedule(groups, data.get("metadata", {}))


def save_schedule(schedule: PulseSchedule, path: str):
    with open(path, "w") as f:
        json.dump(schedule_to_dict(schedule), f, indent=2)
        f.write("\n")


def load_schedule(path: str) -> PulseSchedule:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})")
    return schedule_from_dict(data)
