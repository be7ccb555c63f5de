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
  cz:          the cphase ZZ phase, then rz(+-pi/2) on both qubits (- in the
               antisymmetric sector): CPHASE exactly, cphase's steps plus two rz's.
  nmr:         F . conj(F, [sigma_x(spin)], pi/2) for a z rotation, and
               F . conj(conj(F, [sigma_x(1)], pi/2), [sigma_x(2)], pi/2) for Ising.

`_GATES` holds one record per gate kind: target count, parameters, lowering,
logical target and step counts. `LogicalGate`, `gate_from_dict`, `compile_gate`,
`target_circuit` and `cost_report` read it through `_gate`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    json_number,
    sigma_x,
)

_ZERO = 1e-12
_PERIODS = 2**30  # `%` by float pi drifts |pi - float(pi)| ~ 1.2e-16 rad per period it removes


@dataclass(frozen=True)
class LogicalGate:
    kind: str  # a key of _GATES
    targets: tuple[int, ...]  # 1-based logical indices
    params: tuple[float, ...] = ()

    def __post_init__(self):
        gate = _gate(self.kind)
        if len(self.targets) != gate.qubits:
            raise ValidationError(f"{self.kind} takes {gate.qubits} target(s)")
        if len(self.params) != gate.params:
            raise ValidationError(f"{self.kind} takes {gate.params} parameter(s)")
        typed = [(t, numbers.Integral) for t in self.targets]
        typed += [(p, numbers.Real) for p in self.params]
        if any(isinstance(v, bool) or not isinstance(v, kind) for v, kind in typed):
            raise ValidationError(f"{self.kind} takes integer targets and real parameters,"
                                  f" got {self.targets} and {self.params}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValidationError(f"{self.kind} parameters must be finite, got {self.params}")
        if gate.qubits == 2 and self.targets[1] != self.targets[0] + 1:
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


def _is_zero_mod(value: float, period: float) -> bool:
    r = abs(math.fmod(value, period))  # past 2**30 float periods, off over 1e-7 rad: never zero
    return abs(value) <= _PERIODS * period and min(r, period - r) < _ZERO


def _free_window(target: WindowTarget, coeff: float, angle: float, period: float) -> PulseStep:
    """Free-evolution window of non-negative duration accumulating `angle`.

    `period` is the angle periodicity the surrounding construction tolerates
    exactly (pi for paired sandwich windows whose shifts cancel, 2*pi for a
    lone window). The angle is reduced into [0, period) or (-period, 0], the sign
    of `coeff`, or past 2**30 periods (`_PERIODS`) it raises ValidationError.
    """
    if abs(angle) > _PERIODS * period:
        raise ValidationError(f"window angle {angle:g} spans over 2**30 periods of {period:g}:"
                              " reduced by float pi, it would drift over 1e-7 rad")
    a = angle % period if coeff > 0 else -(-angle % period)
    return PulseStep(FREE_EVOLUTION, duration=a / coeff, target=target)


def _z_target(sector: str, m: int) -> WindowTarget:
    return WindowTarget("t_z" if sector == SYMMETRIC else "r_z", m)


# -- lowerings: (model, sector, m, *params) -> groups, qubits already checked ------


def _rx(model: ExchangeModel, sector: str, m: int, theta: float) -> tuple:
    """One-step rotation about the encoded x axis."""
    handle = _x_handle(model, sector, m)
    if _is_zero_mod(theta, 4 * math.pi):
        return ()
    return ((PulseStep(handle, angle=theta / 2),),)


def _rz(model: ExchangeModel, sector: str, m: int, theta: float) -> tuple:
    """Four-step rotation about the encoded z axis via the recoupling sandwich.

    The free windows accumulate theta/4 of the target pair's z splitting each;
    conjugating by the spectator qubits' x generators doubles the kept term and
    cancels every z-type background term that anticommutes with them.
    """
    model.require_controllable(FREE_EVOLUTION)
    target = _z_target(sector, m)
    coeff = target.coefficient(model)
    if abs(coeff) < _ZERO:
        raise DegenerateSpectrumError(
            f"logical qubit {m}: zero z splitting (eps_m "
            f"{'minus' if sector == SYMMETRIC else 'plus'}); encoded rz is unreachable"
        )
    if _is_zero_mod(theta, 4 * math.pi):
        return ()

    spectators = [k for k in range(1, model.n_spins // 2 + 1) if k != m]
    if not spectators:
        # nothing to refocus on a single-logical-qubit register
        return ((_free_window(target, coeff, theta / 2, 2 * math.pi),),)

    handles = [_x_handle(model, sector, k) for k in spectators]
    window = (_free_window(target, coeff, theta / 4, math.pi),)
    return (window,) + _conjugated((window,), handles, math.pi / 2)


def _euler(model: ExchangeModel, sector: str, m: int, alpha, beta, gamma) -> tuple:
    """Rx(alpha) Rz(beta) Rx(gamma); at most 1 + 4 + 1 = 6 steps after elision."""
    return _rx(model, sector, m, alpha) + _rz(model, sector, m, beta) + _rx(model, sector, m, gamma)


def _cphase_xxz(model: ExchangeModel, sector: str, m: int, angle: float) -> tuple:
    """Entangling ZZ phase between logical m and m+1 from the inter-pair J^z.

    The sandwich doubles the always-on sigma_z sigma_z coupling between spins
    (2m, 2m+1) while the +/-pi/2 x pulses on both qubits cancel the z
    splittings. `angle` is the accumulated sigma_z sigma_z angle; pi/4 gives
    the controlled-phase gate up to local z rotations (see `_cz`).
    """
    b, c = 2 * m, 2 * m + 1
    target = WindowTarget("zz", b, c)
    jz = target.coefficient(model)  # ConnectivityError if uncoupled
    if abs(jz) < _ZERO:
        raise ValidationError(f"pair ({b},{c}) has no zz coupling to recouple")
    model.require_controllable(FREE_EVOLUTION)
    handles = [_x_handle(model, sector, m), _x_handle(model, sector, m + 1)]
    if _is_zero_mod(angle, 2 * math.pi):
        return ()
    window = (_free_window(target, jz, angle / 2, math.pi),)
    return (window,) + _conjugated((window,), handles, math.pi / 2)


def _cphase_xy(model: ExchangeModel, sector: str, m: int, angle: float) -> tuple:
    """Five-step XY-model ZZ phase using a next-nearest-neighbor flip-flop.

    Conjugating the (2m, 2m+1) pulse by the intra-pair pi/2 pulse and the
    next-nearest pi/4 pulse turns its generator into
    sigma_{2m}^z (sigma_{2m+1}^z - sigma_{2m-1}^z)/2, a pure phase whose
    intra-pair half is constant on the code space.
    """
    if sector != SYMMETRIC:
        raise SectorError("the xy construction drives T generators (symmetric sector)")
    a, b, c = 2 * m - 1, 2 * m, 2 * m + 1
    for (i, j) in ((a, b), (b, c)):
        model.require_controllable(j_plus(i, j))
    if not model.has_pair(a, c):
        raise ConnectivityError(f"xy cphase needs the next-nearest-neighbor pair ({a},{c})")
    model.require_controllable(j_plus(a, c))
    if _is_zero_mod(angle, 2 * math.pi):
        return ()
    inner = ((PulseStep(j_plus(b, c), angle=2 * angle),),)
    inner = _conjugated(inner, [j_plus(a, b)], math.pi / 2)
    return _conjugated(inner, [j_plus(a, c)], math.pi / 4)


def _heis_zz(model: ExchangeModel, sector: str, m: int, t: float) -> tuple:
    """Six-step selective ZZ evolution exp(-i J_bc t Z_b Z_c) for isotropic exchange.

    Two half-windows of the bare inter-pair exchange sandwich a free-evolution
    window of T_m^z angle pi (that is exp(-i pi T_m^z) = Z_{2m-1} Z_{2m}, which
    flips the exchange's transverse part); the trailing three steps realize the
    closing window through the x-pulse sign-flip identity, keeping every window
    non-negative in time. The construction is the same in both sectors.
    """
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
    if abs(t) < _ZERO:
        return ()
    half = (PulseStep(heis(b, c), angle=jz * t),)
    window = (_free_window(target, coeff, math.pi, 2 * math.pi),)
    return (half, window, half) + _conjugated((window,), [heis(a, b)], math.pi / 2)


def _zz_phase(model: ExchangeModel, sector: str, m: int, angle: float = math.pi / 4) -> tuple:
    """ZZ phase `angle`, pi/4 for a cphase, between logical m and m+1 by the model family's
    construction: xy, heisenberg (heis_zz for time angle / J^z), or else XXZ."""
    if model.kind == "xy":
        return _cphase_xy(model, sector, m, angle)
    if model.kind != "heisenberg":
        return _cphase_xxz(model, sector, m, angle)
    jz = model.coupling(2 * m, 2 * m + 1).jz
    if abs(jz) < _ZERO:
        raise ValidationError(f"pair ({2 * m},{2 * m + 1}) has no exchange coupling")
    return _heis_zz(model, sector, m, angle / jz)


def _cz(model: ExchangeModel, sector: str, m: int) -> tuple:
    """The pi/4 ZZ phase, lowered first for its errors, then the rz corrections to CPHASE."""
    groups = _zz_phase(model, sector, m)
    theta = -CodeSpec(sector, model.n_spins).zz_sign * math.pi / 2
    return _rz(model, sector, m, theta) + _rz(model, sector, m + 1, theta) + groups


class _Gate(NamedTuple):
    """One gate kind: the shape of a `LogicalGate` and its circuit record, its lowering, its
    logical target and the paper's step counts. The target is rotations exp(-i a P) in time
    order, (letters of P on qubits m, m + 1, ..., a): a ZZ angle is the sigma_z sigma_z angle
    of spins (2m, 2m + 1), and a `None` angle CPHASE, -1 where both qubits are 1 (`cz`).
    A variant of a gate, such as cz of cphase, is a row of its own."""

    qubits: int  # 2: the adjacent logical qubits m and m+1
    params: int
    field: str | None  # circuit-JSON key of the parameters, a list when there are several
    lower: Callable[..., tuple]  # (model, sector, m, *params) -> groups
    target: Callable[..., tuple]  # (model, m, *params) -> ((letters, angle), ...)
    steps: Callable[[ExchangeModel], tuple[int, int]]  # model -> (serial, parallel)
    at_most: bool = False  # the step counts bound elided zero-angle factors from above


_GATES = {
    "rx": _Gate(1, 1, "angle", _rx, lambda model, m, t: (("X", t / 2),), lambda model: (1, 1)),
    "rz": _Gate(  # serial 2 + 2 (k - 1) = n: one conjugator per spectator qubit per side
        1, 1, "angle", _rz, lambda model, m, t: (("Z", t / 2),),
        lambda model: (model.n_spins, 4) if model.n_spins > 2 else (1, 1),
    ),
    "euler": _Gate(
        1, 3, "angles", _euler,
        lambda model, m, a, b, g: (("X", g / 2), ("Z", b / 2), ("X", a / 2)),
        lambda model: (2 + _GATES["rz"].steps(model)[0], 6), at_most=True,
    ),
    "cphase": _Gate(
        2, 0, None, _zz_phase, lambda model, m: (("ZZ", math.pi / 4),),
        lambda model: {"xy": (5, 5), "heisenberg": (6, 6)}.get(model.kind, (6, 4)),
    ),
    "heis_zz": _Gate(
        2, 1, "time", _heis_zz,
        lambda model, m, t: (("ZZ", model.coupling(2 * m, 2 * m + 1).jz * t),),
        lambda model: (6, 6),
    ),
    "cz": _Gate(
        2, 0, None, _cz, lambda model, m: (("ZZ", None),),
        lambda model: tuple(
            c + 2 * r for c, r in zip(_GATES["cphase"].steps(model), _GATES["rz"].steps(model))
        ),
    ),
}


def _gate(kind) -> _Gate:
    gate = _GATES.get(kind) if isinstance(kind, str) else None
    if gate is None:  # a JSON list or object as kind is unknown, not unhashable
        raise ValidationError(f"unknown gate kind {kind!r}")
    return gate


def compile_gate(
    gate: LogicalGate, model: ExchangeModel, sector: str = SYMMETRIC, parallel: bool = True
) -> PulseSchedule:
    """Lower one logical gate with its kind's construction for the model family.

    The sector and the target qubits are checked once, before the lowering of the
    kind's record (`_gate`); `parallel=False` then splits every group into
    single-step groups, keeping their order.
    """
    _check_logical(model, sector, *gate.targets)
    groups = _gate(gate.kind).lower(model, sector, gate.targets[0], *gate.params)
    if not parallel:
        groups = tuple((step,) for group in groups for step in group)
    meta = dict(gate=gate.kind, targets=list(gate.targets), params=list(gate.params), sector=sector)
    return PulseSchedule(groups, meta)


def compile_circuit(
    gates, model: ExchangeModel, sector: str = SYMMETRIC, parallel: bool = True
) -> PulseSchedule:
    """Concatenate per-gate schedules; gates are listed in time order.

    Groups are stored in matrix order, so the last gate's groups come first. The
    metadata key `exact_cphase` records whether the circuit holds a `cz` gate.
    """
    compiled = []
    for idx, gate in enumerate(gates):
        try:
            compiled.append(compile_gate(gate, model, sector, parallel))
        except RecouplerError as exc:
            exc.args = (f"gate {idx} ({gate.kind}): {exc}",)
            raise
    groups = sum((sched.groups for sched in reversed(compiled)), ())
    meta = {
        "gate": "circuit",
        "gates": [g.describe() for g in gates],
        "sector": sector,
        "parallel": parallel,
        "exact_cphase": any(g.kind == "cz" for g in gates),
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
            targets = tuple(json_index(t) + 1 for t in json_number(data["targets"], many=True))
        else:
            targets = (json_index(data["target"]) + 1,)
        if any(t < 1 for t in targets):
            raise ValueError("targets are 0-based indices, not negative")
        gate = _gate(kind)
        value = json_number(data[gate.field], many=gate.params > 1) if gate.field else []
        params = (float(value),) if gate.params == 1 else tuple(float(a) for a in value)
        if gate.qubits == 2 and len(targets) == 1:
            targets = (targets[0], targets[0] + 1)
        return LogicalGate(kind, targets, params)
    except MALFORMED_JSON as exc:
        raise ValidationError(f"malformed gate record {data!r}: {exc}")


def circuit_from_list(records) -> list[LogicalGate]:
    if not isinstance(records, list):
        raise ValidationError("a circuit file holds a JSON list of gate records")
    return [gate_from_dict(r) for r in records]
