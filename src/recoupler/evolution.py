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
terms' X masks (`pauli.coset_index`): a diagonal window is a phase per row
(`pauli.diagonal`), p parallel pulses give blocks of size 2**p, and only a
model with always-on flip-flops makes them large. Its diagonal terms even on
every X mask are a number per coset (`pauli.split_central`), and the rest see
a coset only through the spins their Z masks touch: the full U builds a block
per pattern of those spins when they are fewer than the cosets. Its energies,
per row if it is diagonal or the central ones per coset if built per pattern,
are one record with their peak |E|, taken once, and each coset's pattern. It
is never summed as a PauliSum: its term arrays are the model-owned background, window
term and toggled generators, concatenated and scaled (`pauli.scaled_sum`). A
compiled schedule repeats a few generators many times: a sandwich's pulses
exp(+i a G) and exp(-i a G) share G in ideal mode, and windows of one term
share it across durations. So one eigendecomposition is made per distinct
generator with X masks, all blocks of one size in one batched eigh; each
distinct group rebuilds only its phases from it, and is applied to a column
array wherever it stands. Every term maps
r to r ^ x with x in S, the span of all the schedule's X masks, so U moves a
start state only within its coset of S: each row of the column array holds one
slot per start in its own coset (`pauli.coset_rows`). The full U starts from
the register, 2**R slots a row for S of rank R. A verdict needs only U V on
the 2**(n/2) code states, so it starts from them and evolves the rows code ^ S
(the code states themselves for every XXZ and one-qubit gate), |S & C| slots a
row for C the span of the pair flips. Either checks the U it returns, then the
rows it evolves, against one byte budget (`pauli.check_bytes`).
`encoding._code_block` splits either into U on the starts, zero between
cosets, and the leakage, the norm of the other rows; `restrict` reads a given
U V the same way. `propagator` stays the dense exponential of one generator.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .encoding import CodeSpec, _code_block, code_isometry, code_states, r_z, t_z
from .errors import ControllabilityError, DimensionError, ValidationError
from .model import (
    MALFORMED_JSON,
    ExchangeModel,
    TermHandle,
    background_hamiltonian,
    build_zz,
    json_number,
    json_of,
    read_json,
    toggled_generator,
)
from .pauli import PauliSum, Terms, check_bytes, coset_blocks, coset_index
from .pauli import coset_rows, diagonal, scaled_sum, split_central, to_matrix
from .pauli import x_basis, x_span

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
    turns = evals * np.asarray(t)[..., None]
    u = (evecs * np.exp(-1j * turns)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
    d = u.shape[-1]
    residual = (u.conj().swapaxes(-1, -2) @ u - np.eye(d)).reshape(-1, d * d)
    squares = np.vecdot(residual, residual).real
    _check_defects(np.sqrt(squares.sum() if owner is None else np.bincount(owner, squares)))
    _check_turns(np.abs(turns).max())
    return u


def _phases(energies: np.ndarray, peak: float, t: float) -> np.ndarray:
    """exp(-i E t) of diagonal energies E with peak max |E|, checked as 1 x 1 blocks."""
    phases = np.exp(-1j * t * energies)
    _check_defects(np.sqrt(np.sum((np.abs(phases) ** 2 - 1) ** 2)))
    _check_turns(peak * abs(t))
    return phases


def _check_defects(defects: float | np.ndarray):  # each ||u^dag u - I||_F
    for defect in np.atleast_1d(defects):
        if not defect <= 1e-10:
            raise ValidationError(f"propagator lost unitarity (defect {defect:.2e})")


def _check_turns(turn: float):  # max |E t| of phases already checked to be finite
    if turn > 2**52:  # beyond 2**52 rad a phase keeps no digit below 2 pi
        raise ValidationError(f"propagator phases turn {turn:.3g} rad, over 2**52")


def propagator(h: PauliSum, t: float) -> np.ndarray:
    """exp(-i h t) via Hermitian eigendecomposition of the dense generator."""
    if not isinstance(h, PauliSum):
        raise ValidationError(f"propagator takes a PauliSum generator, got {type(h).__name__}")
    check_bytes(h.n, 16 * 4**h.n, f"a dense 2^{h.n} x 2^{h.n} matrix")  # before the int64 masks
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
    if not model.background_magnitude():
        raise ValidationError("realistic pulse strength is zero: the background sets no scale")
    if not strength or abs(first) / strength == math.inf:
        raise ValidationError(f"realistic pulse strength {strength:g} underflows: pulses never end")
    phase = abs(first) * model.background_magnitude() / strength
    if phase > 2**52:  # beyond 2**52 rad a phase keeps no digit below 2 pi
        raise ValidationError(f"realistic pulse angle {abs(first):g} at strength {strength:g}:"
                              f" the background turns {phase:.3g} rad, over 2**52")
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
) -> tuple[np.ndarray, float]:
    """(U on the starts, leakage) of the rows the starts reach: the register for the
    full U, or, given a sector, the code states for a verdict's (V^dag U V, leakage).

    Each distinct group is keyed, and its generator built and checked if the key
    is new, in order of first appearance and before any exponential, so the
    first bad group raises. A generator's blocks (per neighbour pattern in the
    full U) are diagonalized once, in one batched eigh with every other
    generator's blocks of the same size; each group's exponential is rebuilt
    from them with its own t, a diagonal one's is a phase per row from the
    generator's energy record (E and its peak |E|, so the 2**52 check is one
    product), and each group acts on the columns, rightmost first.
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
    what, side = ("a unitary", n) if sector is None else ("a code block", n // 2)
    check_bytes(n, 16 * 4**side, f"{what} of 2^{side} x 2^{side} entries")  # the U returned
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
    bases, full = [x_basis(h) for h in generators], x_basis(*generators)
    starts = np.arange(2**n) if sector is None else code_states(CodeSpec(sector, n))
    # at most 2**n states, so the checks above already bound these arrays
    rows, cosets = coset_rows(full, starts)  # coset c's rows hold start cosets[c, j] in slot j
    held = sum(2 ** len(bases[k]) for k in key_of)  # every group's unitaries are held at once
    nbytes = 16 * rows.size * max(cosets.shape[1], held)
    check_bytes(n, nbytes, f"evolving {rows.size} reachable rows")
    # per key with energies (E, max |E|, pattern): a diagonal key's E per row, a key built per
    # pattern its central E and pattern per coset; per key with X masks its blocks until eigh
    energies, at, hermitian, by_size = {}, {}, {}, {}
    for k, (h, basis) in enumerate(zip(generators, bases)):
        if not basis:  # diagonal: one energy per row, no blocks, no eigh
            energies[k] = diagonal(h, rows), None
            continue
        at[k], states = coset_index(rows, basis)
        if sector is None:  # every coset: one block per pattern of the spins the blocks see
            central, rest, seen = split_central(h, basis)
            if 2 ** seen.bit_count() < len(states):
                patterns = x_span({b: 1 << b for b in range(n) if seen >> b & 1})  # in order
                pattern = np.searchsorted(patterns, states[:, 0] & seen)
                energies[k] = diagonal(central, states[:, 0]), pattern
                h, states = rest, patterns[:, None] ^ x_span(basis)
        hermitian[k] = coset_blocks(h, states, basis)
        by_size.setdefault(at[k].shape[-1], []).append(k)
    energies = {k: (e, np.abs(e).max(initial=0.0), p) for k, (e, p) in energies.items()}
    unitaries = [None if k in at else (None, _phases(*energies[k][:2], t))
                 for k, t in zip(key_of, times)]
    for same in by_size.values():  # one eigh per block size over its keys' blocks
        stack = [hermitian.pop(k) for k in same]  # eigh is each stack's last use
        count = {k: len(blocks) for k, blocks in zip(same, stack)}
        evals, evecs = np.linalg.eigh(stack[0] if len(stack) == 1 else np.concatenate(stack))
        del stack
        first = dict(zip(same, accumulate((count[k] for k in same), initial=0)))
        groups = [g for g, k in enumerate(key_of) if k in first]
        counts = [count[key_of[g]] for g in groups]
        if [key_of[g] for g in groups] != same:  # some key serves several groups
            pick = np.concatenate([np.arange(c) + first[key_of[g]] for g, c in zip(groups, counts)])
            evals, evecs = evals[pick], evecs[pick]
        u = _exponential(  # one rebuild over its groups, one t per block
            evals, evecs, np.repeat([times[g] for g in groups], counts),
            np.repeat(np.arange(len(groups)), counts),
        )
        start = 0
        for g, size in zip(groups, counts):
            ug, start = u[start : start + size], start + size
            if key_of[g] in energies:  # each coset its pattern's block times its central phase
                central, peak, pattern = energies[key_of[g]]
                ug = ug[pattern] * _phases(central, peak, times[g])[:, None, None]
            unitaries[g] = at[key_of[g]], ug
    columns = np.zeros((rows.size, cosets.shape[1]), dtype=complex)
    columns[np.searchsorted(rows, starts)[cosets], np.arange(cosets.shape[1])] = 1.0
    # a block group gathers rows into block order, then multiplies back; where[r] is r's slot
    spare, where, slots = np.empty_like(columns), np.arange(rows.size), np.arange(rows.size)
    scale = np.empty(rows.size, dtype=complex)
    for g in reversed(order):
        at, u = unitaries[g]  # mode="clip" lets take write into `out` unbuffered
        if at is None:  # a diagonal group scales each row's slot in place, no gather
            scale[where] = u
            columns *= scale[:, None]
            continue
        np.take(columns, where[at.ravel()], axis=0, out=spare, mode="clip")
        np.matmul(u, spare.reshape(*at.shape, -1), out=columns.reshape(*at.shape, -1))
        where[at.ravel()] = slots
    columns = np.take(columns, where, axis=0, out=spare, mode="clip")
    return _code_block(columns, rows, starts, cosets)


def restrict(u: np.ndarray, spec: CodeSpec) -> tuple[np.ndarray, float]:
    """Compress a full-register unitary U to the code space.

    Returns (B, leakage) with B = V^dag U V, read from the code rows of U V, and
    leakage = ||(I - P) U P||_F / ||P||_F, in [0, 1] for unitary U, from the
    others. Any shape but 2^n x 2^n raises DimensionError, and a non-finite B or
    leakage raises ValidationError.
    """
    u, dim = np.asarray(u, dtype=complex), 2**spec.n_spins
    if u.shape != (dim, dim):
        raise DimensionError(f"restrict takes {dim} x {dim}, got {u.shape}")
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN: `_code_block` reports it
        uv = u @ code_isometry(spec)
    return _code_block(uv, np.arange(dim), code_states(spec), np.arange(uv.shape[1])[None])


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
        angle, duration = json_number(d.get("angle")), json_number(d.get("duration"))
        if handle.kind != "free_evolution" and angle is None and "strength" in d:
            angle, duration = json_number(d["strength"]) * duration, None
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
        metadata = json_of(data.get("metadata", {}), dict, "'metadata' as an object")
    except MALFORMED_JSON as exc:
        raise ValidationError(f"malformed schedule JSON: {exc}")
    return PulseSchedule(groups, metadata)


def save_schedule(schedule: PulseSchedule, path: str):
    with open(path, "w") as f:
        json.dump(schedule_to_dict(schedule), f, indent=2)
        f.write("\n")


def load_schedule(path: str) -> PulseSchedule:
    return schedule_from_dict(read_json(path))
