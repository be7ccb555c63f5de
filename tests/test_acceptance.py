"""Acceptance gate: every criterion at its stated tolerance, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Oracles here are kept independent of the code paths they check: targets are
built with raw numpy kron/diag algebra and matrix exponentials come from
scipy's scaling-and-squaring expm, never from the package's spectral
propagator.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from recoupler import (
    ANTISYMMETRIC,
    FREE_EVOLUTION,
    SYMMETRIC,
    CodeSpec,
    ControllabilityError,
    LogicalGate,
    PauliSum,
    PulseSchedule,
    PulseStep,
    TermHandle,
    apply_schedule,
    background_hamiltonian,
    compile_gate,
    identity_suite,
    j_z,
    logical_matrix,
    nmr_ising_schedule,
    nmr_z_rotation_schedule,
    preset_model,
    propagator,
    r_z,
    restrict,
    sigma_x,
    to_matrix,
    toggled_generator,
    verify_gate,
)
from recoupler.model import Coupling, ExchangeModel, build_R, build_T, build_zz

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_site(n, sites):
    out = np.array([[1.0 + 0j]])
    for s in range(1, n + 1):
        out = np.kron(MATS[sites.get(s, "I")], out)
    return out


def announce(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_identity_regression_suite():
    entries = identity_suite()
    below = [e for e in entries if e.require == "below"]
    above = [e for e in entries if e.require == "above"]
    assert len(below) == 11
    worst = max(e.residual for e in below)
    ok = all(e.residual <= 1e-10 for e in below) and all(e.residual > 1e-3 for e in above)
    announce(
        1,
        ok,
        f"11 identities hold (worst residual {worst:.2e} <= 1e-10); "
        f"perturbed xy path residual {above[0].residual:.2e} > 1e-3",
    )


def test_criterion_2_nmr_template():
    rng = np.random.default_rng(2026)
    worst4 = worst6 = 0.0
    for _ in range(5):
        e1, e2, jz, tau = rng.uniform(0.2, 2.0, size=4)
        model = ExchangeModel(
            "nmr_ising", 2, (2 * e1, 2 * e2),  # stored energies are 2x the sigma_z coefficients
            {(1, 2): Coupling(0.0, 0.0, jz)},
            frozenset({sigma_x(1), sigma_x(2), FREE_EVOLUTION}),
        )
        u4 = apply_schedule(nmr_z_rotation_schedule(tau, spin=1), model)
        want4 = expm(-2j * tau * e2 * kron_site(2, {2: "Z"}))
        worst4 = max(worst4, np.linalg.norm(u4 - want4))

        u6 = apply_schedule(nmr_ising_schedule(tau), model)
        want6 = expm(-2j * tau * jz * kron_site(2, {1: "Z", 2: "Z"}))
        worst6 = max(worst6, np.linalg.norm(u6 - want6))
    ok = worst4 <= 1e-10 and worst6 <= 1e-10
    announce(
        2,
        ok,
        f"4-step sandwich residual {worst4:.2e}, 6-step Ising extraction residual "
        f"{worst6:.2e} (both <= 1e-10, 5 random draws)",
    )


GATE_TABLE = [
    ("electrons_on_helium", SYMMETRIC, "rx", (1,), (1.1,), (1, 1)),
    ("electrons_on_helium", SYMMETRIC, "rz", (1,), (0.7,), (4, 4)),
    ("electrons_on_helium", SYMMETRIC, "euler", (1,), (0.5, 1.2, -0.8), (6, 6)),
    ("electrons_on_helium", SYMMETRIC, "cphase", (1, 2), (), (6, 4)),
    ("xxz_antisymmetric", ANTISYMMETRIC, "rx", (2,), (2.1,), (1, 1)),
    ("xxz_antisymmetric", ANTISYMMETRIC, "rz", (2,), (-0.9,), (4, 4)),
    ("xxz_antisymmetric", ANTISYMMETRIC, "euler", (1,), (1.5, 0.4, 0.9), (6, 6)),
    ("xxz_antisymmetric", ANTISYMMETRIC, "cphase", (1, 2), (), (6, 4)),
    ("quantum_hall", SYMMETRIC, "rx", (1,), (1.1,), (1, 1)),
    ("quantum_hall", SYMMETRIC, "rz", (2,), (0.7,), (4, 4)),
    ("quantum_hall", SYMMETRIC, "euler", (2,), (0.5, 1.2, -0.8), (6, 6)),
    ("quantum_hall", SYMMETRIC, "cphase", (1, 2), (), (5, 5)),
    ("spin_dots", SYMMETRIC, "rx", (1,), (1.1,), (1, 1)),
    ("spin_dots", SYMMETRIC, "rz", (1,), (0.7,), (4, 4)),
    ("spin_dots", SYMMETRIC, "euler", (1,), (0.5, 1.2, -0.8), (6, 6)),
    ("spin_dots", SYMMETRIC, "heis_zz", (1, 2), (2.0,), (6, 6)),
]


def test_criterion_3_gate_table():
    worst_fid, worst_leak = 1.0, 0.0
    for preset, sector, kind, targets, params, (serial, parallel) in GATE_TABLE:
        model = preset_model(preset, 4)
        gate = LogicalGate(kind, targets, params)
        rep = verify_gate(gate, model, sector=sector, parallel=True,
                          tol_fidelity=1e-8, tol_leakage=1e-8)
        assert rep.passed, f"{preset}/{gate.describe()}: {rep.reason or rep.fidelity}"
        if kind == "euler":
            assert rep.step_count_serial <= serial
        else:
            assert rep.step_count_serial == serial, f"{preset}/{kind}"
            assert rep.step_count_parallel == parallel, f"{preset}/{kind}"
        worst_fid = min(worst_fid, rep.fidelity)
        worst_leak = max(worst_leak, rep.leakage)
    # serial-mode cphase adds the 2 extra pulse groups
    rep = verify_gate(LogicalGate("cphase", (1, 2)), preset_model("electrons_on_helium", 4),
                      parallel=False)
    assert rep.passed and rep.step_count_parallel == 6
    announce(
        3,
        True,
        f"16 gate/model rows pass in ideal mode: min fidelity {worst_fid:.12f}, "
        f"max leakage {worst_leak:.2e}; counts rx=1 rz=4 euler<=6 "
        f"cphase_xxz=4par/6ser cphase_xy=5 heis_zz=6",
    )


def test_criterion_4_heisenberg_leakage_contrast():
    model = preset_model("spin_dots", 4)
    jz = model.coupling(2, 3).jz
    t = 1.0 / jz
    # independent oracle: dense h23 and projector built from raw kron algebra
    h23 = jz * sum(kron_site(4, {2: a, 3: a}) for a in "XYZ")
    u_bare = expm(-1j * h23 * t)
    # symmetric code columns built by hand: bit 0 -> (up, down), bit 1 -> (down, up)
    v = np.zeros((16, 4), dtype=complex)
    for logical in range(4):
        idx = 0
        for m in range(2):
            bit = (logical >> m) & 1
            idx |= bit << (2 * m)  # spin 2m+1
            idx |= (1 - bit) << (2 * m + 1)  # spin 2m+2
        v[idx, logical] = 1.0
    uv = u_bare @ v
    oracle_leak = np.linalg.norm(uv - v @ (v.conj().T @ uv)) / 2.0
    spec = CodeSpec(SYMMETRIC, 4)
    _, package_leak = restrict(u_bare, spec)
    assert abs(oracle_leak - package_leak) < 1e-10
    derived_threshold = 0.1
    sched = compile_gate(LogicalGate("heis_zz", (1, 2), (t,)), model)
    _, compiled_leak = restrict(apply_schedule(sched, model), spec)
    ok = oracle_leak > derived_threshold and compiled_leak <= 1e-8
    announce(
        4,
        ok,
        f"bare exp(-i h23 t) leakage {oracle_leak:.4f} > {derived_threshold} at t=1/J23, "
        f"compiled 6-step leakage {compiled_leak:.2e} <= 1e-8",
    )


def test_criterion_5_realistic_mode_convergence():
    model = preset_model("electrons_on_helium", 4)
    ratios = [10.0, 1e2, 1e3, 1e4, 1e5]
    summary = []
    for gate in (LogicalGate("rz", (1,), (0.7,)), LogicalGate("cphase", (1, 2))):
        fids = [
            verify_gate(gate, model, mode="realistic", ratio=r).fidelity for r in ratios
        ]
        for lo, hi in zip(fids, fids[1:]):
            assert hi >= lo - 1e-6, f"{gate.kind}: non-monotone {fids}"
        assert fids[-1] >= 1 - 1e-4, f"{gate.kind}: final fidelity {fids[-1]}"
        summary.append(f"{gate.kind}: r=10 -> {fids[0]:.6f}, r=1e5 -> {fids[-1]:.10f}")
    announce(5, True, "; ".join(summary))


def test_criterion_6_sector_decoupling_and_delta():
    presets = ["spin_dots", "donor_atoms", "quantum_hall", "cavity",
               "exciton_dots", "electrons_on_helium", "xxz_antisymmetric"]
    for name in presets:
        model = preset_model(name, 4)
        n = model.n_spins
        for (i, j), c in model.couplings.items():
            term = to_matrix(
                c.j_minus * build_R(n, i, j) + c.j_plus * build_T(n, i, j) + c.jz * build_zz(n, i, j)
            )
            for a in range(2**n):
                for b in range(2**n):
                    pa = ((a >> (i - 1)) & 1) ^ ((a >> (j - 1)) & 1)
                    pb = ((b >> (i - 1)) & 1) ^ ((b >> (j - 1)) & 1)
                    if pa != pb:
                        assert term[a, b] == 0.0, f"{name} pair ({i},{j})"
    # Delta = sum eps_m^+ R_m^z + (J_m/2) Z_{2m-1} Z_{2m} is constant on the code space
    model = preset_model("spin_dots", 4)
    delta = sum(
        model.eps_plus(m) * r_z(4, m)
        + model.coupling(2 * m - 1, 2 * m).jz * build_zz(4, 2 * m - 1, 2 * m)
        for m in (1, 2)
    )
    blk = logical_matrix(delta, CodeSpec(SYMMETRIC, 4))
    resid = np.linalg.norm(blk - blk[0, 0] * np.eye(4))
    ok = resid <= 1e-12
    announce(
        6,
        ok,
        f"cross-sector elements exactly 0 for {len(presets)} presets; "
        f"Delta code-space residual {resid:.2e} <= 1e-12",
    )


COST_ROWS = {
    "electrons_on_helium": (SYMMETRIC, ["rx", "rz", "euler", "cphase"]),
    "quantum_hall": (SYMMETRIC, ["rx", "rz", "euler", "cphase"]),
    "cavity": (SYMMETRIC, ["rx", "rz", "euler", "cphase"]),
    "exciton_dots": (SYMMETRIC, ["rx", "rz", "euler", "cphase"]),
    "spin_dots": (SYMMETRIC, ["rx", "rz", "euler", "cphase", "heis_zz"]),
    "donor_atoms": (SYMMETRIC, ["rx", "rz", "euler", "cphase", "heis_zz"]),
}


def test_criterion_7_controllability_enforcement():
    eoh = preset_model("electrons_on_helium", 4)
    with pytest.raises(ControllabilityError):
        toggled_generator(eoh, j_z(1, 2))
    for name in ("spin_dots", "donor_atoms", "quantum_hall", "exciton_dots"):
        with pytest.raises(ControllabilityError):
            toggled_generator(preset_model(name, 4), TermHandle("epsilon", 1))
    compiled = 0
    for name, (sector, kinds) in COST_ROWS.items():
        model = preset_model(name, 4)
        for kind in kinds:
            gate = {
                "rx": LogicalGate("rx", (1,), (1.1,)),
                "rz": LogicalGate("rz", (1,), (0.7,)),
                "euler": LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
                "cphase": LogicalGate("cphase", (1, 2)),
                "heis_zz": LogicalGate("heis_zz", (1, 2), (1.5,)),
            }[kind]
            sched = compile_gate(gate, model, sector)
            for group in sched.groups:
                for step in group:
                    assert model.is_controllable(step.handle), f"{name}/{kind}: {step.handle}"
            compiled += 1
    announce(
        7,
        True,
        f"j_z pulse and per-spin epsilon pulses raise controllability violations; "
        f"{compiled} constructions compile using controllable handles only",
    )


def test_criterion_8_propagator_oracle_equivalence():
    rng = np.random.default_rng(88)
    worst = 0.0
    # raw random Hermitian generators
    for _ in range(120):
        n = int(rng.integers(1, 5))
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            terms[letters] = terms.get(letters, 0.0) + float(rng.normal())
        h = PauliSum(n, terms)
        t = float(rng.uniform(-2, 2))
        diff = np.linalg.norm(propagator(h, t) - expm(-1j * to_matrix(h) * t))
        worst = max(worst, diff)
    # model-driven pulse schedules, step by step
    model = preset_model("electrons_on_helium", 4)
    handles = [h for h in model.controllable if h.kind == "j_plus"]
    for _ in range(80):
        n_steps = int(rng.integers(1, 5))
        u_pkg = np.eye(16, dtype=complex)
        u_oracle = np.eye(16, dtype=complex)
        for _ in range(n_steps):
            if rng.random() < 0.3:
                tau = float(rng.uniform(0, 2))
                step = PulseStep(FREE_EVOLUTION, duration=tau)
                gen = background_hamiltonian(model)
                u_oracle = u_oracle @ expm(-1j * to_matrix(gen) * tau)
            else:
                handle = handles[int(rng.integers(len(handles)))]
                angle = float(rng.uniform(-np.pi, np.pi))
                step = PulseStep(handle, angle=angle)
                gen = toggled_generator(model, handle)
                u_oracle = u_oracle @ expm(-1j * to_matrix(gen) * angle)
            u_pkg = u_pkg @ apply_schedule(PulseSchedule(((step,),), {}), model)
        worst = max(worst, np.linalg.norm(u_pkg - u_oracle))
    ok = worst <= 1e-10
    announce(8, ok, f"200 random schedules: max deviation from expm oracle {worst:.2e} <= 1e-10")
