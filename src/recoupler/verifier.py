"""Quantitative verdicts: fidelity, leakage, step accounting, identity regression.

The fidelity metric is the normalized trace overlap of the code-space block,
|Tr(U_target^dag V^dag U V)| / 2^{n_logical}: global-phase invariant, equal to
one iff the restricted block matches the target exactly and is unitary.
Leakage is reported separately so the two failure modes stay distinguishable.
Each target factor exp(-i a P) of a logical Pauli string P is a signed
permutation of the logical basis states and is applied in place (`rotate`) to
one matrix: the identity for a gate, one running product for a circuit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .compiler import (
    LogicalGate,
    _gate,
    compile_circuit,
    compile_gate,
    nmr_ising_schedule,
    nmr_z_rotation_schedule,
)
from .encoding import (
    SYMMETRIC,
    CodeSpec,
    logical_matrix,
    r_x,
    r_z,
    t_x,
    t_z,
)
from .errors import RecouplerError, ValidationError
from .evolution import _evolve, apply_schedule, propagator, restrict
from .model import (
    ExchangeModel,
    build_T,
    build_zz,
    preset_model,
)
from .pauli import PauliSum, conjugate, rotate, site_letters, to_matrix


def _overlap(block: np.ndarray, u_target: np.ndarray) -> float:
    dim = len(block)
    if u_target.shape != (dim, dim):
        raise ValidationError(f"target shape {u_target.shape}, expected ({dim},{dim})")
    return float(abs(np.vdot(u_target, block)) / dim)


def fidelity(u_realized: np.ndarray, u_target: np.ndarray, spec: CodeSpec) -> float:
    """|Tr(target^dag . restrict(u))| / 2^{n_logical}."""
    return _overlap(restrict(u_realized, spec)[0], u_target)


def target_circuit(gates, model, sector=SYMMETRIC) -> np.ndarray:
    """The logical unitary a gate list in time order realizes on the code space, on
    the k = n/2 logical qubits (logical qubit 1 least significant)."""
    k = model.n_spins // 2
    zz_sign = CodeSpec(sector, model.n_spins).zz_sign  # sigma_z sigma_z |code = zz_sign * ZZ
    out = np.eye(2**k, dtype=complex)
    for gate in gates:  # each factor multiplies on the left
        m = gate.targets[0]
        for letters, angle in _gate(gate.kind).target(model, m, *gate.params):
            if angle is None:  # CPHASE: diag(1, 1, 1, -1) on qubits m, m + 1
                out[(np.arange(2**k) >> (m - 1) & 3) == 3] *= -1
            else:
                sign = zz_sign if len(letters) == 2 else 1.0
                rotate(out, site_letters(k, dict(enumerate(letters, m))), sign * angle)
    return out


def target_logical(gate, model, sector=SYMMETRIC) -> np.ndarray:
    """The documented logical unitary a compiled gate realizes on the code space."""
    return target_circuit([gate], model, sector)


@dataclass
class VerificationReport:
    gate: str
    fidelity: float
    leakage: float
    step_count_serial: int
    step_count_parallel: int
    mode: str
    tol_fidelity: float
    tol_leakage: float
    passed: bool
    reason: str = ""

    def to_dict(self) -> dict:
        return {"pass" if k == "passed" else k: v for k, v in asdict(self).items()}


def _verdict(
    label, subject, compile_fn, target_fn, model, sector, mode, ratio, parallel,
    tol_fidelity, tol_leakage,
) -> VerificationReport:
    """Compile, evolve to the code block and leakage, compare; a RecouplerError fails it.
    Tolerances must be finite and non-negative (a report holds them, and JSON has no
    NaN or Infinity), else ValidationError."""
    if not (0 <= tol_fidelity < math.inf and 0 <= tol_leakage < math.inf):
        raise ValidationError("tolerances must be finite and non-negative")
    ratio_text = "None" if ratio is None else f"{ratio:g}"
    mode_label = mode if mode == "ideal" else f"realistic(r={ratio_text})"
    try:
        schedule = compile_fn(subject, model, sector, parallel)
        block, leak = _evolve(schedule, model, mode, ratio, sector)
        fid = _overlap(block, target_fn(subject, model, sector))
    except RecouplerError as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return VerificationReport(
            label, 0.0, 1.0, 0, 0, mode_label, tol_fidelity, tol_leakage, False, reason
        )
    passed = fid >= 1 - tol_fidelity and leak <= tol_leakage
    return VerificationReport(
        label, fid, leak, schedule.step_count_serial, schedule.step_count_parallel,
        mode_label, tol_fidelity, tol_leakage, passed,
    )


def verify_gate(
    gate: LogicalGate, model: ExchangeModel, sector: str = SYMMETRIC, mode: str = "ideal",
    ratio: float | None = None, parallel: bool = True, tol_fidelity: float = 1e-8,
    tol_leakage: float = 1e-8,
) -> VerificationReport:
    """Compile, simulate, restrict, and compare one gate against its target."""
    return _verdict(
        gate.describe(), gate, compile_gate, target_logical, model, sector, mode, ratio,
        parallel, tol_fidelity, tol_leakage,
    )


def verify_circuit(
    gates, model: ExchangeModel, sector: str = SYMMETRIC, mode: str = "ideal",
    ratio: float | None = None, parallel: bool = True, tol_fidelity: float = 1e-8,
    tol_leakage: float = 1e-8,
) -> VerificationReport:
    """The same verdict for a gate list in time order, against the product target."""
    names = ", ".join(g.describe() for g in gates) or "<empty>"
    return _verdict(
        f"circuit[{names}]", gates, compile_circuit, target_circuit, model, sector, mode,
        ratio, parallel, tol_fidelity, tol_leakage,
    )


# -- identity regression suite -------------------------------------------------


@dataclass
class SuiteEntry:
    name: str
    residual: float
    bound: float
    require: str = "below"  # "above" for sensitivity checks

    @property
    def passed(self) -> bool:
        if self.require == "below":
            return self.residual <= self.bound
        return self.residual > self.bound

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def _pstr(n: int, sites: dict[int, str]) -> PauliSum:
    return PauliSum(n, {site_letters(n, sites): 1.0})


def _frob(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _conj(generator: PauliSum, theta: float, target: np.ndarray) -> np.ndarray:
    c = propagator(generator, theta)
    return c @ target @ c.conj().T


def identity_suite() -> list[SuiteEntry]:
    """Dense regression of every recoupling identity the constructions rely on."""
    entries: list[SuiteEntry] = []
    tol = 1e-10

    # single-string conjugation flips an anticommuting generator's sign
    z = _pstr(1, {1: "Z"})
    flipped = conjugate(_pstr(1, {1: "X"}), math.pi / 2, z)
    entries.append(
        SuiteEntry("conjugation_sign_flip", _frob(to_matrix(flipped), -to_matrix(z)), tol)
    )

    # two-spin Ising chain: sandwich extracts the z splitting of the other spin
    nmr = preset_model("nmr", 2)
    tau = 0.7
    u4 = apply_schedule(nmr_z_rotation_schedule(tau, spin=1), nmr)
    eps2 = nmr.epsilon[1]  # background carries eps/2 per spin
    target = eps2 * 0.5 * _pstr(2, {2: "Z"})
    entries.append(
        SuiteEntry("nmr_z_rotation", _frob(u4, propagator(target, 2 * tau)), tol)
    )

    # ... and the double conjugation extracts the Ising coupling
    u6 = apply_schedule(nmr_ising_schedule(tau), nmr)
    jz = nmr.coupling(1, 2).jz
    zz = _pstr(2, {1: "Z", 2: "Z"})
    entries.append(
        SuiteEntry("nmr_ising_recoupling", _frob(u6, propagator(zz, 2 * tau * jz)), tol)
    )

    # inter-pair ZZ acts as minus the encoded ZZ
    spec = CodeSpec(SYMMETRIC, 4)
    zz23 = logical_matrix(_pstr(4, {2: "Z", 3: "Z"}), spec)
    entries.append(
        SuiteEntry("encoded_zz_action", _frob(zz23, -to_matrix(_pstr(2, {1: "Z", 2: "Z"}))), tol)
    )

    # xy route: conjugating the inter-pair flip-flop by the intra-pair pi/2 pulse
    t12, t23, t13 = build_T(3, 1, 2), build_T(3, 2, 3), build_T(3, 1, 3)
    lhs5 = _conj(t12, math.pi / 2, to_matrix(t23))
    rhs5 = to_matrix(1j * (_pstr(3, {1: "Z", 2: "Z"}) @ t13))
    entries.append(SuiteEntry("xy_nnn_conjugation", _frob(lhs5, rhs5), tol))

    # ... then by the next-nearest pi/4 pulse, leaving a pure phase generator
    lhs6 = _conj(t13, math.pi / 4, lhs5)
    zz_diff = {site_letters(3, {2: "Z", 3: "Z"}): 0.5, site_letters(3, {1: "Z", 2: "Z"}): -0.5}
    rhs6 = to_matrix(PauliSum(3, zz_diff))
    entries.append(SuiteEntry("xy_composite_generator", _frob(lhs6, rhs6), tol))

    # encoded sign flip: x pulses make a negative-angle z window realizable
    tz1, tx1 = t_z(2, 1), t_x(2, 1)
    lhs7 = _conj(tx1, math.pi / 2, propagator(tz1, math.pi / 2))
    entries.append(
        SuiteEntry("encoded_sign_flip", _frob(lhs7, propagator(tz1, -math.pi / 2)), tol)
    )

    # isotropic route: the pi window equals Z1 Z2 and flips the transverse part
    j23 = 0.8
    h23 = PauliSum(4, {site_letters(4, {2: a, 3: a}): j23 for a in "XYZ"})
    zpi = propagator(t_z(4, 1), math.pi)
    lhs8 = zpi @ to_matrix(h23) @ zpi.conj().T
    rhs8 = to_matrix(
        PauliSum(4, {site_letters(4, {2: a, 3: a}): s * j23 for a, s in zip("XYZ", (-1, -1, 1))})
    )
    entries.append(SuiteEntry("heis_zz_conjugation", _frob(lhs8, rhs8), tol))

    # ... so the half-time sandwich implements a pure inter-pair ZZ evolution
    t = 1.0 / j23
    e = propagator(h23, t / 2)
    lhs9 = e @ zpi @ e @ zpi.conj().T
    rhs9 = propagator(j23 * _pstr(4, {2: "Z", 3: "Z"}), t)
    entries.append(SuiteEntry("heis_zz_extraction", _frob(lhs9, rhs9), tol))

    # Delta acts trivially (as a multiple of identity) on the code space
    heis_model = preset_model("heisenberg", 4)
    delta = PauliSum.zero(4)
    for m in (1, 2):
        delta = delta + heis_model.eps_plus(m) * r_z(4, m)
        c = heis_model.coupling(2 * m - 1, 2 * m)  # jz = J_m / 2 already
        delta = delta + c.jz * build_zz(4, 2 * m - 1, 2 * m)
    blk = logical_matrix(delta, spec)
    entries.append(
        SuiteEntry("delta_code_triviality", _frob(blk, blk[0, 0] * np.eye(4)), tol)
    )

    # symmetric and antisymmetric generators commute exactly
    t_ops = {"x": t_x(4, 1), "z": t_z(4, 1)}
    r_ops = {"x": r_x(4, 1), "z": r_z(4, 1)}
    worst = max(
        t_ops[at].commutator(r_ops[ar]).norm() for at in "xz" for ar in "xz"
    )
    entries.append(SuiteEntry("tr_commutation", worst, tol))

    # sensitivity: a perturbed xy route misses the pure-phase generator
    perturbed = to_matrix(t23 + 0.1 * _pstr(3, {2: "Z", 3: "Z"}))
    lhs12 = _conj(t13, math.pi / 4, _conj(t12, math.pi / 2, perturbed))
    entries.append(
        SuiteEntry("xy_cphase_perturbation", _frob(lhs12, rhs6), 1e-3, require="above")
    )
    return entries


# -- cost accounting -----------------------------------------------------------

# the gates every cost report measures and `recoupler sweep --gates` chooses from
STANDARD_GATES = {
    "rx": LogicalGate("rx", (1,), (1.1,)),
    "rz": LogicalGate("rz", (1,), (0.7,)),
    "euler": LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
    "cphase": LogicalGate("cphase", (1, 2)),
}
LITERATURE_ISOTROPIC_SERIAL = 19  # 3-physical-qubit encoding, serial mode
LITERATURE_ISOTROPIC_PARALLEL_2D = 7


def cost_report(model: ExchangeModel, sector: str = SYMMETRIC) -> list[dict]:
    """Measured vs expected step counts (each kind's `_GATES` record) for every gate the
    model supports; 1 / 4 / <=6 / 4-6 / 5 / 6 on the canonical two logical qubits."""
    gates = list(STANDARD_GATES.values())
    if model.kind == "heisenberg":
        gates.append(LogicalGate("heis_zz", (1, 2), (1.0,)))
    rows = []
    for gate in gates:
        record = _gate(gate.kind)
        exp_serial, exp_parallel = record.steps(model)
        row = {
            "gate": gate.kind,
            "serial": None,
            "parallel": None,
            "expected_serial": exp_serial,
            "expected_parallel": exp_parallel,
            "match": False,
            "note": "",
        }
        rows.append(row)
        try:
            sched = compile_gate(gate, model, sector, parallel=True)
        except RecouplerError as exc:
            row["note"] = f"{type(exc).__name__}: {exc}"
            continue
        serial, par = sched.step_count_serial, sched.step_count_parallel
        fits = operator.le if record.at_most else operator.eq
        match = fits(serial, exp_serial) and fits(par, exp_parallel)
        row.update(serial=serial, parallel=par, match=match, note="<=" if record.at_most else "")
    rows.append(
        {
            "gate": "isotropic_zz_3spin_encoding",
            "serial": LITERATURE_ISOTROPIC_SERIAL,
            "parallel": LITERATURE_ISOTROPIC_PARALLEL_2D,
            "expected_serial": LITERATURE_ISOTROPIC_SERIAL,
            "expected_parallel": LITERATURE_ISOTROPIC_PARALLEL_2D,
            "match": True,
            "note": "literature constant (parallel column is 2D mode); not re-derived",
        }
    )
    return rows
