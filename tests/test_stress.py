"""Randomized sweep over models, sectors, and parameter signs.

Every compiled gate must hit its target on the code space in ideal mode no
matter how the energies and couplings are drawn (subject to the model-kind
constraints), which exercises the non-negative-duration normalization of the
free windows for both signs of the z splittings and couplings. Realistic-mode
unitaries of the same models are checked against a kron + `expm` oracle.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from recoupler import (
    ANTISYMMETRIC,
    SYMMETRIC,
    CodeSpec,
    Coupling,
    ExchangeModel,
    FREE_EVOLUTION,
    LogicalGate,
    RecouplerError,
    apply_schedule,
    background_hamiltonian,
    compile_gate,
    heis,
    j_minus,
    j_plus,
    nmr_ising_schedule,
    nmr_z_rotation_schedule,
    preset_model,
    toggled_generator,
    verify_gate,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
GATE_KINDS = ("rx", "rz", "euler", "cphase", "heis_zz")
FAMILIES = ("heisenberg", "xy", "xxz_symmetric", "xxz_antisymmetric")


def random_model(rng, family):
    n = 4
    eps = tuple(rng.uniform(-2, 2, size=n))
    # keep the pairwise splittings away from zero so rz stays reachable
    while any(abs(eps[2 * m] - eps[2 * m + 1]) < 0.2 for m in range(n // 2)) or any(
        abs(eps[2 * m] + eps[2 * m + 1]) < 0.2 for m in range(n // 2)
    ):
        eps = tuple(rng.uniform(-2, 2, size=n))

    def j():
        v = float(rng.uniform(0.2, 1.5)) * float(rng.choice([-1.0, 1.0]))
        return v

    pairs = [(i, i + 1) for i in range(1, n)]
    if family == "heisenberg":
        couplings = {}
        for p in pairs:
            v = j()
            couplings[p] = Coupling(v, v, v)
        ctrl = {heis(*p) for p in pairs} | {FREE_EVOLUTION}
        return ExchangeModel("heisenberg", n, eps, couplings, frozenset(ctrl)), SYMMETRIC
    if family == "xy":
        couplings = {}
        for p in pairs + [(1, 3), (2, 4)]:
            v = j()
            couplings[p] = Coupling(v, v, 0.0)
        ctrl = {j_plus(*p) for p in couplings} | {FREE_EVOLUTION}
        return ExchangeModel("xy", n, eps, couplings, frozenset(ctrl)), SYMMETRIC
    if family == "xxz_symmetric":
        couplings = {}
        for p in pairs:
            v = j()
            couplings[p] = Coupling(v, v, j())
        ctrl = {j_plus(*p) for p in pairs} | {FREE_EVOLUTION}
        return ExchangeModel("xxz_symmetric", n, eps, couplings, frozenset(ctrl)), SYMMETRIC
    couplings = {}
    for p in pairs:
        v = j()
        couplings[p] = Coupling(v, -v, j())
    ctrl = {j_minus(*p) for p in pairs} | {FREE_EVOLUTION}
    return ExchangeModel("xxz_antisymmetric", n, eps, couplings, frozenset(ctrl)), ANTISYMMETRIC


def random_gate(rng, family):
    kinds = ["rx", "rz", "euler", "cphase"]
    if family == "heisenberg":
        kinds.append("heis_zz")
    return gate_of_kind(rng, kinds[int(rng.integers(len(kinds)))])


def gate_of_kind(rng, kind):
    m = int(rng.integers(1, 3))
    if kind == "rx" or kind == "rz":
        return LogicalGate(kind, (m,), (float(rng.uniform(-7, 7)),))
    if kind == "euler":
        return LogicalGate(kind, (m,), tuple(rng.uniform(-4, 4, size=3)))
    if kind == "heis_zz":
        return LogicalGate(kind, (1, 2), (float(rng.uniform(-3, 3)),))
    return LogicalGate("cphase", (1, 2))


@pytest.mark.parametrize("family", FAMILIES)
def test_random_models_and_gates(family):
    rng = np.random.default_rng(hash(family) % 2**32)
    checked = 0
    for _ in range(30):
        model, sector = random_model(rng, family)
        gate = random_gate(rng, family)
        rep = verify_gate(gate, model, sector=sector, tol_fidelity=1e-8, tol_leakage=1e-8)
        assert rep.passed, f"{family}/{gate.describe()}: {rep.reason or rep.fidelity}"
        # durations must stay physical regardless of coupling signs
        sched = compile_gate(gate, model, sector)
        for group in sched.groups:
            for step in group:
                if step.duration is not None:
                    assert step.duration >= 0
        checked += 1
    assert checked == 30


def test_four_logical_qubits_desk_scale():
    from recoupler import apply_schedule, compile_circuit, fidelity, preset_model, target_circuit

    model = preset_model("electrons_on_helium", 8)
    spec = CodeSpec(SYMMETRIC, 8)
    gates = [
        LogicalGate("rx", (1,), (0.6,)),
        LogicalGate("cphase", (1, 2)),
        LogicalGate("rz", (3,), (1.1,)),
        LogicalGate("cphase", (3, 4)),
        LogicalGate("euler", (4,), (0.2, -0.7, 1.9)),
    ]
    sched = compile_circuit(gates, model)
    u = apply_schedule(sched, model)
    assert fidelity(u, target_circuit(gates, model), spec) >= 1 - 1e-8


def dense(ps):
    """kron realization of a PauliSum from its letters; spin 1 least significant."""
    out = np.zeros((2**ps.n, 2**ps.n), dtype=complex)
    for letters, coeff in ps.terms.items():
        term = np.eye(1, dtype=complex)
        for letter in letters:
            term = np.kron(PAULI[letter], term)
        out += coeff * term
    return out


def realistic_oracle(schedule, model, ratio):
    """Realistic-mode unitary: windows evolve the background for their duration;
    a pulse group evolves background + sum sign(angle) strength G for |angle|/strength."""
    background = dense(background_hamiltonian(model))
    strength = ratio * model.background_magnitude()
    u = np.eye(2**model.n_spins, dtype=complex)
    for group in schedule.groups:
        if group[0].handle == FREE_EVOLUTION:
            u = u @ expm(-1j * group[0].duration * background)
            continue
        pulses = [s for s in group if s.angle]
        if not pulses:
            continue
        h = background + sum(
            np.sign(s.angle) * strength * dense(toggled_generator(model, s.handle)) for s in pulses
        )
        u = u @ expm(-1j * (abs(pulses[0].angle) / strength) * h)
    return u


def flipped(model):
    """The same model with every coupling negated."""
    couplings = {p: Coupling(-c.jx, -c.jy, -c.jz) for p, c in model.couplings.items()}
    return ExchangeModel(model.kind, model.n_spins, model.epsilon, couplings, model.controllable)


def _assert_realistic_matches_oracle(schedule, model, label):
    for ratio in (10, 100):
        got = apply_schedule(schedule, model, mode="realistic", ratio=ratio)
        want = realistic_oracle(schedule, model, ratio)
        assert np.abs(got - want).max() < 1e-10, f"{label} r={ratio}"


@pytest.mark.parametrize("family", FAMILIES)
def test_realistic_mode_matches_expm_oracle(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    compiled = set()
    for draw in range(2):
        drawn, native = random_model(rng, family)
        for sign, model in (("+", drawn), ("-", flipped(drawn))):
            for sector in (SYMMETRIC, ANTISYMMETRIC):
                for kind in GATE_KINDS:
                    gate = gate_of_kind(rng, kind)
                    try:
                        sched = compile_gate(gate, model, sector)
                    except RecouplerError:
                        continue  # the family has no construction for this sector or gate
                    compiled.add((sector, kind))
                    label = f"{family} draw {draw} J{sign} {sector} {gate.describe()}"
                    _assert_realistic_matches_oracle(sched, model, label)
    kinds = set(GATE_KINDS) if family == "heisenberg" else set(GATE_KINDS) - {"heis_zz"}
    assert {(native, kind) for kind in kinds} <= compiled


@pytest.mark.parametrize("n", [2, 4])
def test_realistic_nmr_templates_match_expm_oracle(n):
    model = preset_model("nmr", n)
    for m in (model, flipped(model)):
        for sched in (
            nmr_z_rotation_schedule(0.7, 1),
            nmr_z_rotation_schedule(1.3, 2),
            nmr_ising_schedule(0.4),
        ):
            _assert_realistic_matches_oracle(sched, m, sched.metadata["gate"])
