"""Lowering of encoded logical gates to pulse schedules.

Schedules are written in matrix-product order, rightmost group first in time.
Every construction is built from one selective-recoupling step,
`_conjugated(inner, handles, angle)` = P(+angle) . inner . P(-angle), with the
pulses of all `handles` sharing one group on each side: terms of the inner
evolution that anticommute with a handle's generator flip sign, so a window W
followed by its conjugated copy keeps what commutes and cancels the rest.
W is a free window, F an NMR free period.

  rx(theta):   one x-generator pulse of angle theta/2 on the target pair.
  rz(theta):   W . conj(W, spectator x handles, pi/2); doubles the target z
               term and cancels every z term of the spectators. 4 steps.
  euler:       rx(alpha) rz(beta) rx(gamma), zero-angle factors elided; <= 6 steps.
  cphase xxz:  W . conj(W, both coupled qubits' x handles, pi/2); doubles the
               always-on inter-pair ZZ coupling and cancels the single-qubit
               z terms. 4 steps (6 serially).
  cphase xy:   conj(conj(T_bc(2 angle), [T_ab], pi/2), [T_ac], pi/4) on spins
               (a,b,c) = (2m-1, 2m, 2m+1); turns the next-nearest-neighbor
               flip-flop into a pure ZZ phase. 5 steps.
  heis zz:     half . W . half . conj(W, [heis_ab], pi/2) with half = heis_bc;
               W = exp(-i pi T_m^z) = Z_{2m-1} Z_{2m} flips the transverse part
               of the neighboring exchange, leaving a pure ZZ phase. 6 steps.
  nmr:         F . conj(F, [sigma_x(spin)], pi/2) for a z rotation, and
               F . conj(conj(F, [sigma_x(1)], pi/2), [sigma_x(2)], pi/2) for Ising.

`compile_gate` applies the per-gate layout options once, after lowering:
`exact_cphase` prepends the local rz corrections to every cphase family, and
`parallel=False` splits every group into single-step groups in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .encoding import SYMMETRIC, CodeSpec
from .errors import (
    ConnectivityError,
    ControllabilityError,
    DegenerateSpectrumError,
    RecouplerError,
    SectorError,
    ValidationError,
)
from .evolution import PulseSchedule, PulseStep, WindowTarget
from .model import (
    FREE_EVOLUTION,
    MALFORMED_JSON,
    ExchangeModel,
    TermHandle,
    heis,
    j_minus,
    j_plus,
    json_index,
    sigma_x,
)

_ZERO = 1e-12


@dataclass(frozen=True)
class LogicalGate:
    kind: str  # rx | rz | euler | cphase | heis_zz
    targets: tuple[int, ...]  # 1-based logical indices
    params: tuple[float, ...] = ()

    def __post_init__(self):
        kinds = {"rx": 1, "rz": 1, "euler": 1, "cphase": 2, "heis_zz": 2}
        if self.kind not in kinds:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != kinds[self.kind]:
            raise ValidationError(f"{self.kind} takes {kinds[self.kind]} target(s)")
        nparams = {"rx": 1, "rz": 1, "euler": 3, "cphase": 0, "heis_zz": 1}[self.kind]
        if len(self.params) != nparams:
            raise ValidationError(f"{self.kind} takes {nparams} parameter(s)")
        if not all(math.isfinite(p) for p in self.params):
            raise ValidationError(f"{self.kind} parameters must be finite, got {self.params}")
        if self.kind in ("cphase", "heis_zz") and self.targets[1] != self.targets[0] + 1:
            raise ConnectivityError(
                f"{self.kind} couples adjacent logical qubits, got {self.targets}"
            )

    def describe(self) -> str:
        if self.params:
            args = ",".join(f"{p:.6g}" for p in self.params)
            return f"{self.kind}({args})@{self.targets}"
        return f"{self.kind}@{self.targets}"


def _check_logical(model: ExchangeModel, sector: str, *qubits: int):
    """Reject an unknown sector (via CodeSpec) and logical qubits outside the register."""
    CodeSpec(sector, model.n_spins)
    for m in qubits:
        if not 1 <= m <= model.n_spins // 2:
            raise ValidationError(f"logical qubit {m} outside 1..{model.n_spins // 2}")


def _x_handle(model: ExchangeModel, sector: str, m: int) -> TermHandle:
    """The handle whose pulse acts as logical X on qubit m, checked controllable."""
    a, b = 2 * m - 1, 2 * m
    if model.kind == "heisenberg":
        if sector != SYMMETRIC:
            raise SectorError("heisenberg recoupling operates on the symmetric sector")
        handle = heis(a, b)
    else:
        handle = j_plus(a, b) if sector == SYMMETRIC else j_minus(a, b)
    model.require_controllable(handle)
    return handle


def _conjugated(inner: tuple, handles, angle: float) -> tuple:
    """P(+angle) . inner . P(-angle) in matrix order, all handles in one group per side."""
    plus = tuple(PulseStep(h, angle=angle) for h in handles)
    minus = tuple(PulseStep(h, angle=-angle) for h in handles)
    return (plus,) + inner + (minus,)


def _mod_interval(value: float, period: float, positive: bool) -> float:
    """Reduce modulo `period` into [0, period) or (-period, 0]."""
    r = math.fmod(value, period)
    if positive and r < 0:
        r += period
    if not positive and r > 0:
        r -= period
    return r


def _is_zero_mod(value: float, period: float) -> bool:
    r = abs(math.fmod(value, period))
    return min(r, period - r) < _ZERO


def _free_window(target: WindowTarget, coeff: float, angle: float, period: float) -> PulseStep:
    """Free-evolution window of non-negative duration accumulating `angle`.

    `period` is the angle periodicity the surrounding construction tolerates
    exactly (pi for paired sandwich windows whose shifts cancel, 2*pi for a
    lone window).
    """
    a = _mod_interval(angle, period, positive=coeff > 0)
    return PulseStep(FREE_EVOLUTION, duration=a / coeff, target=target)


def compile_rx(m: int, theta: float, model: ExchangeModel, sector: str = SYMMETRIC) -> PulseSchedule:
    """One-step rotation about the encoded x axis."""
    _check_logical(model, sector, m)
    handle = _x_handle(model, sector, m)
    meta = {"gate": "rx", "m": m, "theta": theta, "sector": sector}
    if _is_zero_mod(theta, 4 * math.pi):
        return PulseSchedule((), meta)
    return PulseSchedule(((PulseStep(handle, angle=theta / 2),),), meta)


def _z_target(sector: str, m: int) -> WindowTarget:
    return WindowTarget("t_z" if sector == SYMMETRIC else "r_z", m)


def compile_rz(m: int, theta: float, model: ExchangeModel, sector: str = SYMMETRIC) -> PulseSchedule:
    """Four-step rotation about the encoded z axis via the recoupling sandwich.

    The free windows accumulate theta/4 of the target pair's z splitting each;
    conjugating by the spectator qubits' x generators doubles the kept term and
    cancels every z-type background term that anticommutes with them.
    """
    _check_logical(model, sector, m)
    model.require_controllable(FREE_EVOLUTION)
    target = _z_target(sector, m)
    coeff = target.coefficient(model)
    if abs(coeff) < _ZERO:
        raise DegenerateSpectrumError(
            f"logical qubit {m}: zero z splitting (eps_m "
            f"{'minus' if sector == SYMMETRIC else 'plus'}); encoded rz is unreachable"
        )
    meta = {"gate": "rz", "m": m, "theta": theta, "sector": sector}
    if _is_zero_mod(theta, 4 * math.pi):
        return PulseSchedule((), meta)

    spectators = [k for k in range(1, model.n_spins // 2 + 1) if k != m]
    if not spectators:
        # nothing to refocus on a single-logical-qubit register
        window = _free_window(target, coeff, theta / 2, 2 * math.pi)
        return PulseSchedule(((window,),), meta)

    handles = [_x_handle(model, sector, k) for k in spectators]
    window = (_free_window(target, coeff, theta / 4, math.pi),)
    return PulseSchedule((window,) + _conjugated((window,), handles, math.pi / 2), meta)


def compile_euler(
    m: int,
    alpha: float,
    beta: float,
    gamma: float,
    model: ExchangeModel,
    sector: str = SYMMETRIC,
) -> PulseSchedule:
    """Rx(alpha) Rz(beta) Rx(gamma); at most 1 + 4 + 1 = 6 steps after elision."""
    parts = (
        compile_rx(m, alpha, model, sector),
        compile_rz(m, beta, model, sector),
        compile_rx(m, gamma, model, sector),
    )
    meta = {"gate": "euler", "m": m, "angles": [alpha, beta, gamma], "sector": sector}
    return PulseSchedule(sum((p.groups for p in parts), ()), meta)


def compile_cphase_xxz(
    m: int,
    model: ExchangeModel,
    angle: float = math.pi / 4,
    sector: str = SYMMETRIC,
) -> PulseSchedule:
    """Entangling ZZ phase between logical m and m+1 from the inter-pair J^z.

    The sandwich doubles the always-on sigma_z sigma_z coupling between spins
    (2m, 2m+1) while the +/-pi/2 x pulses on both qubits cancel the z
    splittings. `angle` is the accumulated sigma_z sigma_z angle; pi/4 gives
    the controlled-phase gate up to local z rotations (see `compile_gate`).
    """
    _check_logical(model, sector, m, m + 1)
    if model.kind == "xy":
        raise ControllabilityError(
            "xy models have no sigma_z sigma_z coupling; use the xy cphase construction"
        )
    b, c = 2 * m, 2 * m + 1
    target = WindowTarget("zz", b, c)
    jz = target.coefficient(model)  # ConnectivityError if uncoupled
    if abs(jz) < _ZERO:
        raise ValidationError(f"pair ({b},{c}) has no zz coupling to recouple")
    model.require_controllable(FREE_EVOLUTION)
    handles = [_x_handle(model, sector, m), _x_handle(model, sector, m + 1)]
    meta = {"gate": "cphase", "m": m, "angle": angle, "sector": sector}
    if _is_zero_mod(angle, 2 * math.pi):
        return PulseSchedule((), meta)
    window = (_free_window(target, jz, angle / 2, math.pi),)
    return PulseSchedule((window,) + _conjugated((window,), handles, math.pi / 2), meta)


def compile_cphase_xy(
    m: int,
    model: ExchangeModel,
    angle: float = math.pi / 4,
    sector: str = SYMMETRIC,
) -> PulseSchedule:
    """Five-step XY-model ZZ phase using a next-nearest-neighbor flip-flop.

    Conjugating the (2m, 2m+1) pulse by the intra-pair pi/2 pulse and the
    next-nearest pi/4 pulse turns its generator into
    sigma_{2m}^z (sigma_{2m+1}^z - sigma_{2m-1}^z)/2, a pure phase whose
    intra-pair half is constant on the code space.
    """
    _check_logical(model, sector, m, m + 1)
    if sector != SYMMETRIC:
        raise SectorError("the xy construction drives T generators (symmetric sector)")
    a, b, c = 2 * m - 1, 2 * m, 2 * m + 1
    for (i, j) in ((a, b), (b, c)):
        model.require_controllable(j_plus(i, j))
    if not model.has_pair(a, c):
        raise ConnectivityError(
            f"xy cphase needs the next-nearest-neighbor pair ({a},{c})"
        )
    model.require_controllable(j_plus(a, c))

    meta = {"gate": "cphase", "m": m, "angle": angle, "sector": sector}
    if _is_zero_mod(angle, 2 * math.pi):
        return PulseSchedule((), meta)
    inner = ((PulseStep(j_plus(b, c), angle=2 * angle),),)
    inner = _conjugated(inner, [j_plus(a, b)], math.pi / 2)
    return PulseSchedule(_conjugated(inner, [j_plus(a, c)], math.pi / 4), meta)


def compile_heis_zz(m: int, t: float, model: ExchangeModel) -> PulseSchedule:
    """Six-step selective ZZ evolution exp(-i J_bc t Z_b Z_c) for isotropic exchange.

    Two half-windows of the bare inter-pair exchange sandwich a free-evolution
    window of T_m^z angle pi (that is exp(-i pi T_m^z) = Z_{2m-1} Z_{2m}, which
    flips the exchange's transverse part); the trailing three steps realize the
    closing window through the x-pulse sign-flip identity, keeping every window
    non-negative in time.
    """
    _check_logical(model, SYMMETRIC, m, m + 1)
    if model.kind != "heisenberg":
        raise ControllabilityError("heis_zz requires an isotropic-exchange model")
    a, b, c = 2 * m - 1, 2 * m, 2 * m + 1
    jz = model.coupling(b, c).jz
    model.require_controllable(heis(b, c))
    model.require_controllable(heis(a, b))
    model.require_controllable(FREE_EVOLUTION)
    target = _z_target(SYMMETRIC, m)
    coeff = target.coefficient(model)
    if abs(coeff) < _ZERO:
        raise DegenerateSpectrumError(
            f"logical qubit {m}: zero z splitting; the recoupling windows are unreachable"
        )
    meta = {"gate": "heis_zz", "m": m, "t": t, "jz": jz, "sector": SYMMETRIC}
    if abs(t) < _ZERO:
        return PulseSchedule((), meta)
    half = (PulseStep(heis(b, c), angle=jz * t),)
    window = (_free_window(target, coeff, math.pi, 2 * math.pi),)
    groups = (half, window, half) + _conjugated((window,), [heis(a, b)], math.pi / 2)
    return PulseSchedule(groups, meta)


def compile_gate(
    gate: LogicalGate,
    model: ExchangeModel,
    sector: str = SYMMETRIC,
    parallel: bool = True,
    exact_cphase: bool = False,
) -> PulseSchedule:
    """Lower one logical gate with the construction matching the model family.

    `exact_cphase` prepends the local rz corrections that turn any cphase
    family's bare ZZ phase into an exact CPHASE; `parallel=False` then splits
    every group into single-step groups, keeping their order. The metadata
    records the requested sector.
    """
    CodeSpec(sector, model.n_spins)  # rejects an unknown sector before any lowering
    m, params = gate.targets[0], gate.params
    if gate.kind == "rx":
        schedule = compile_rx(m, params[0], model, sector)
    elif gate.kind == "rz":
        schedule = compile_rz(m, params[0], model, sector)
    elif gate.kind == "euler":
        schedule = compile_euler(m, *params, model, sector)
    elif gate.kind == "heis_zz":
        schedule = compile_heis_zz(m, params[0], model)
    elif model.kind == "xy":
        schedule = compile_cphase_xy(m, model, sector=sector)
    elif model.kind == "heisenberg":
        jz = model.coupling(2 * m, 2 * m + 1).jz
        if abs(jz) < _ZERO:
            raise ValidationError(f"pair ({2 * m},{2 * m + 1}) has no exchange coupling")
        schedule = compile_heis_zz(m, (math.pi / 4) / jz, model)
    else:
        schedule = compile_cphase_xxz(m, model, sector=sector)
    groups = schedule.groups
    if gate.kind == "cphase" and exact_cphase:
        theta = math.pi / 2 if sector == SYMMETRIC else -math.pi / 2
        rz1, rz2 = (compile_rz(k, theta, model, sector) for k in (m, m + 1))
        groups = rz1.groups + rz2.groups + groups
    if not parallel:
        groups = tuple((step,) for group in groups for step in group)
    return PulseSchedule(groups, {**schedule.metadata, "sector": sector})


def compile_circuit(
    gates,
    model: ExchangeModel,
    sector: str = SYMMETRIC,
    parallel: bool = True,
    exact_cphase: bool = False,
) -> PulseSchedule:
    """Concatenate per-gate schedules; gates are listed in time order.

    Groups are stored in matrix order, so the last gate's groups come first.
    """
    compiled = []
    for idx, gate in enumerate(gates):
        try:
            compiled.append(compile_gate(gate, model, sector, parallel, exact_cphase))
        except RecouplerError as exc:
            exc.args = (f"gate {idx} ({gate.kind}): {exc}",)
            raise
    groups = sum((sched.groups for sched in reversed(compiled)), ())
    meta = {
        "gate": "circuit",
        "gates": [g.describe() for g in gates],
        "sector": sector,
        "parallel": parallel,
        "exact_cphase": exact_cphase,
    }
    return PulseSchedule(groups, meta)


# -- NMR template schedules (physical sigma_x recoupling) ----------------------


def nmr_z_rotation_schedule(tau: float, spin: int = 1) -> PulseSchedule:
    """free tau . sigma_x(+pi/2) . free tau . sigma_x(-pi/2): z rotation of the other spin."""
    f = (PulseStep(FREE_EVOLUTION, duration=tau),)
    groups = (f,) + _conjugated((f,), [sigma_x(spin)], math.pi / 2)
    return PulseSchedule(groups, {"gate": "nmr_z_rotation", "tau": tau})


def nmr_ising_schedule(tau: float) -> PulseSchedule:
    """Double conjugation extracting the Ising term: exp(-2i tau J^z Z1 Z2)."""
    f = (PulseStep(FREE_EVOLUTION, duration=tau),)
    inner = _conjugated((f,), [sigma_x(1)], math.pi / 2)
    groups = (f,) + _conjugated(inner, [sigma_x(2)], math.pi / 2)
    return PulseSchedule(groups, {"gate": "nmr_ising", "tau": tau})


# -- circuit JSON --------------------------------------------------------------


def gate_from_dict(data: dict) -> LogicalGate:
    """External gate records use 0-based targets; internal indices are 1-based."""
    try:
        kind = data["gate"]
        if "targets" in data:
            targets = tuple(json_index(t) + 1 for t in data["targets"])
        else:
            targets = (json_index(data["target"]) + 1,)
        if kind in ("rx", "rz"):
            params = (float(data["angle"]),)
        elif kind == "euler":
            params = tuple(float(a) for a in data["angles"])
        elif kind == "heis_zz":
            params = (float(data["time"]),)
        else:
            params = ()
        if kind in ("cphase", "heis_zz") and len(targets) == 1:
            targets = (targets[0], targets[0] + 1)
        return LogicalGate(kind, targets, params)
    except MALFORMED_JSON as exc:
        raise ValidationError(f"malformed gate record {data!r}: {exc}")


def circuit_from_list(records) -> list[LogicalGate]:
    if not isinstance(records, list):
        raise ValidationError("a circuit file holds a JSON list of gate records")
    return [gate_from_dict(r) for r in records]
