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

A group's generator is block-diagonal over the cosets of the span of its
terms' X masks (`pauli.to_blocks`): a diagonal window is a phase per basis
state, p parallel pulses give blocks of size 2**p, and only a model with
always-on flip-flops makes them large. It is never summed as a PauliSum: its
term arrays are those of the model-owned background, window term and toggled
generators, concatenated and scaled (`pauli.scaled_sum`). A compiled schedule
repeats a few generators many times: every sandwich is a pulse, a window and
the inverse pulse, exp(+i a G) and exp(-i a G) of one G in ideal mode, and
every window evolves one term for its own duration. So one eigendecomposition
is made per distinct generator of a schedule, the blocks of all generators of
one size in one batched eigh; each distinct group rebuilds only its phases
from it, and is applied to a column array wherever it stands. For
`apply_schedule` that array is the identity on every basis state, under the
dense spin cap. A verdict needs only U V on the 2**(n/2) code states, and
every term maps r to r ^ x with x in S, the span of all the schedule's X
masks, so U V is zero outside the rows code ^ S: the verdict evolves just
those rows (the code states themselves for every XXZ and one-qubit gate),
within a byte budget of one dense matrix at the spin cap instead of the cap
itself. The code states are basis states, so `restrict` reads V^dag U V off
the code rows of U V and the leakage off the others, from all of U or from a
verdict's rows. `propagator` stays the dense exponential of one generator.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .encoding import CodeSpec, code_isometry, code_states, r_z, t_z
from .errors import ControllabilityError, DimensionError, ValidationError
from .model import (
    MALFORMED_JSON,
    ExchangeModel,
    TermHandle,
    background_hamiltonian,
    build_zz,
    read_json,
    toggled_generator,
)
from .pauli import PauliSum, Terms, check_bytes, check_dense, coset_rows, scaled_sum
from .pauli import to_blocks, to_matrix, x_basis

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
        """The kept term with its model coefficient, built once per model and target."""

        def build():
            n, coeff = model.n_spins, self.coefficient(model)
            if self.kind == "zz":
                return coeff * build_zz(n, self.i, self.j)
            return coeff * (t_z if self.kind == "t_z" else r_z)(n, self.i)

        return model.term(self, build)


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
            seen: set[int] = set()
            for step in group:
                sup = {step.handle.i, step.handle.j} - {None}  # empty for a lone window
                if seen & sup:
                    raise ValidationError(f"group {g}: overlapping supports {sorted(seen & sup)}")
                seen |= sup

    @property
    def step_count_serial(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def step_count_parallel(self) -> int:
        return len(self.groups)


def _checked(h: Terms) -> Terms:
    """h itself, once it is a Hermitian generator whose entries cannot overflow."""
    if math.isinf(sum(np.abs(h.coeffs).tolist())):  # bounds every entry; inf, not a warning
        raise ValidationError("propagator generator overflows: sum of |coefficients| is inf")
    if not np.all(np.abs(h.coeffs.imag) <= 1e-10):
        raise ValidationError("propagator requires a Hermitian generator")
    return h


def _exponential(
    evals: np.ndarray, evecs: np.ndarray, t: float | np.ndarray, owner: np.ndarray | None = None
) -> np.ndarray:
    """exp(-i h t) from the eigendecomposition of a Hermitian h, or of a stack of them
    with one t each. The unitarity defect is checked over the whole, or per label
    of `owner` (the group each matrix of the stack belongs to)."""
    phases = np.exp(-1j * evals * np.asarray(t)[..., None])
    u = (evecs * phases[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
    d = u.shape[-1]
    residual = (u.conj().swapaxes(-1, -2) @ u - np.eye(d)).reshape(-1, d * d)
    squares = np.vecdot(residual, residual).real
    defects = np.sqrt(squares.sum() if owner is None else np.bincount(owner, squares))
    for defect in np.atleast_1d(defects):
        if not defect <= 1e-10:
            raise ValidationError(f"propagator lost unitarity (defect {defect:.2e})")
    return u


def propagator(h: PauliSum, t: float) -> np.ndarray:
    """exp(-i h t) via Hermitian eigendecomposition of the dense generator."""
    if not isinstance(h, PauliSum):
        raise ValidationError(f"propagator takes a PauliSum generator, got {type(h).__name__}")
    _checked(h.arrays)
    return _exponential(*np.linalg.eigh(to_matrix(h)), t)


def _group_key(
    group: tuple[PulseStep, ...], model: ExchangeModel, mode: str | None, strength: float | None
) -> tuple[tuple, float]:
    """(key, t) with exp(-i h t) the group's propagator and h = `_generator(key)`.

    The key is (base, ((handle, c), ...)) for h = base + sum c G_handle, the base
    a window's `WindowTarget`, "background" or None (zero), so a sandwich's +a and
    -a pulses, and windows of different durations, share one generator."""
    step_mode = mode or group[0].mode
    if mode is None and any(s.mode != step_mode for s in group):
        raise ValidationError("steps in one group carry different modes")
    step = group[0]
    if step.handle.kind == "free_evolution":
        if not model.is_controllable(step.handle):
            raise ControllabilityError(
                f"free evolution is not controllable in model {model.name or model.kind!r}"
            )
        ideal = step_mode == "ideal" and step.target is not None
        return (step.target if ideal else "background", ()), step.duration
    pulses = [s for s in group if s.angle]
    if not pulses:
        return (None, ()), 0.0
    first = pulses[0].angle
    if step_mode == "ideal":  # angle a applies exp(-i a G): t is the first angle
        return (None, tuple((s.handle, s.angle / first) for s in pulses)), first
    # realistic: finite pulse strength, background always on
    if any(abs(s.angle) != abs(first) for s in pulses):
        raise ValidationError("realistic parallel steps must share a pulse duration")
    if not strength:
        raise ValidationError("realistic pulse strength is zero: the background sets no scale")
    pairs = tuple((s.handle, np.sign(s.angle) * strength) for s in pulses)
    return ("background", pairs), abs(first) / strength


def _generator(key: tuple, model: ExchangeModel, background: PauliSum) -> Terms:
    """The checked terms of the generator a `_group_key` key stands for."""
    base, pairs = key
    parts = [] if base is None else [(background if base == "background" else base.term(model), 1)]
    parts += [(toggled_generator(model, handle), c) for handle, c in pairs]
    return _checked(scaled_sum(parts))


def apply_schedule(
    schedule: PulseSchedule,
    model: ExchangeModel,
    mode: str | None = None,
    ratio: float | None = None,
) -> np.ndarray:
    """Exact unitary of a schedule: product of group propagators, rightmost first.

    `mode`/`ratio` override the per-step mode tags when given.
    """
    return _evolve(schedule, model, mode, ratio)[0]


def _evolve(
    schedule: PulseSchedule,
    model: ExchangeModel,
    mode: str | None,
    ratio: float | None,
    sector: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(U, every basis state), or, given a sector, (the rows of the code columns
    U V that the schedule can reach, those sorted basis states).

    Each distinct group is keyed, and its generator built and checked if the key
    is new, in order of first appearance and before any exponential, so the
    first bad group raises. A generator's blocks are diagonalized once, in one
    batched eigh with every other generator's blocks of the same size; each
    group's exponential is rebuilt from them with its own t, and each group's
    blocks act on the columns, rightmost first.
    """
    if mode is not None and mode not in ("ideal", "realistic"):
        raise ValidationError(f"bad mode {mode!r}")
    n = model.n_spins
    modes = {mode} if mode else {s.mode for group in schedule.groups for s in group}
    if "realistic" in modes and (ratio is None or not 0 < ratio < math.inf):
        raise ValidationError("realistic mode needs a finite positive strength ratio")
    scale = model.background_magnitude()
    strength = ratio * scale if "realistic" in modes else None
    if strength == math.inf:
        raise ValidationError(f"realistic pulse strength {ratio:g} x {scale:g} overflows")
    if sector is None:
        check_dense(n)
    else:
        check_bytes(n, 16 * 2**n, f"a code block of 2^{n // 2} x 2^{n // 2} entries")
    background = background_hamiltonian(model)
    distinct: dict[tuple[PulseStep, ...], int] = {}
    order = [distinct.setdefault(group, len(distinct)) for group in schedule.groups]
    keys: dict[tuple, int] = {}
    generators, key_of, times = [], [], []  # per key; each distinct group's key and t
    for group in distinct:
        key, t = _group_key(group, model, mode, strength)
        if key not in keys:
            keys[key] = len(generators)
            generators.append(_generator(key, model, background))
        key_of.append(keys[key])
        times.append(t)
    bases = [x_basis(h) for h in generators]
    starts = np.arange(2**n) if sector is None else code_states(CodeSpec(sector, n))
    # at most 2**n states, so the checks above already bound these arrays
    rows = coset_rows(n, x_basis(*generators), starts)
    held = sum(2 ** len(bases[k]) for k in key_of)  # every group's unitaries are held at once
    nbytes = 16 * rows.size * max(starts.size, held)
    check_bytes(n, nbytes, f"evolving {rows.size} reachable rows")
    # per key its block states, and its Hermitian blocks until their eigh; keys by block size
    at, hermitian, by_size = {}, {}, {}
    for k, (h, basis) in enumerate(zip(generators, bases)):
        at[k], hermitian[k] = to_blocks(h, rows, basis)
        by_size.setdefault(at[k].shape[-1], []).append(k)
    unitaries = [None] * len(key_of)
    for same in by_size.values():  # one eigh per block size over its keys' blocks
        stack = [hermitian.pop(k) for k in same]  # eigh is each stack's last use
        evals, evecs = np.linalg.eigh(stack[0] if len(stack) == 1 else np.concatenate(stack))
        del stack
        first = dict(zip(same, accumulate((len(at[k]) for k in same), initial=0)))
        groups = [g for g, k in enumerate(key_of) if k in first]
        counts = [len(at[key_of[g]]) for g in groups]
        if [key_of[g] for g in groups] != same:  # some key serves several groups
            pick = np.concatenate([np.arange(c) + first[key_of[g]] for g, c in zip(groups, counts)])
            evals, evecs = evals[pick], evecs[pick]
        u = _exponential(  # one rebuild over its groups, one t per block
            evals, evecs, np.repeat([times[g] for g in groups], counts),
            np.repeat(np.arange(len(groups)), counts),
        )
        start = 0
        for g, count in zip(groups, counts):
            unitaries[g], start = (at[key_of[g]], u[start : start + count]), start + count
    columns = np.zeros((rows.size, starts.size), dtype=complex)
    columns[np.searchsorted(rows, starts), np.arange(starts.size)] = 1.0
    # a group gathers rows into block order, then multiplies back; where[r] is r's slot
    spare, where, slots = np.empty_like(columns), np.arange(rows.size), np.arange(rows.size)
    for g in reversed(order):
        at, u = unitaries[g]  # mode="clip" lets take write into `out` unbuffered
        np.take(columns, where[at.ravel()], axis=0, out=spare, mode="clip")
        np.matmul(u, spare.reshape(*at.shape, -1), out=columns.reshape(*at.shape, -1))
        where[at.ravel()] = slots
    return np.take(columns, where, axis=0, out=spare, mode="clip"), rows


def restrict(
    u: np.ndarray, spec: CodeSpec, rows: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Compress a full-register unitary U, or the rows of its code columns U V, to the code space.

    Returns (B, leakage) with B = V^dag U V, read from the code rows of U V, and
    leakage = ||(I - P) U P||_F / ||P||_F, in [0, 1] for unitary U, from the
    others. `u` is all of U or, given the sorted basis states `rows` that U V
    is zero outside, just those rows of U V; other shapes raise DimensionError,
    and a non-finite B or leakage raises ValidationError.
    """
    u = np.asarray(u, dtype=complex)
    dim, k = 2**spec.n_spins, 2**spec.n_logical
    if rows is None and u.shape == (dim, dim):
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN: the check below reports it
            u, rows = u @ code_isometry(spec), np.arange(dim)
    elif rows is None or u.shape != (len(rows), k):
        raise DimensionError(f"restrict takes {dim} x {dim} or (len(rows), {k}), got {u.shape}")
    code = np.searchsorted(rows, code_states(spec))
    outside = np.ones(len(rows), dtype=bool)
    outside[code] = False
    block, leakage = u[code], float(np.linalg.norm(u[outside]) / np.sqrt(k))
    if not (np.isfinite(block).all() and math.isfinite(leakage)):
        raise ValidationError("restrict: the code block or its leakage is not finite")
    return block, leakage


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
