import hashlib
import json

import numpy as np
import pytest

import recoupler.compiler
from recoupler import (
    ANTISYMMETRIC,
    SYMMETRIC,
    CodeSpec,
    ConnectivityError,
    ControllabilityError,
    Coupling,
    DegenerateSpectrumError,
    ExchangeModel,
    PRESET_NAMES,
    LogicalGate,
    RecouplerError,
    SectorError,
    ValidationError,
    apply_schedule,
    circuit_from_list,
    code_isometry,
    PulseSchedule,
    compile_circuit,
    compile_gate,
    fidelity,
    j_plus,
    nmr_ising_schedule,
    nmr_z_rotation_schedule,
    preset_model,
    restrict,
    schedule_from_dict,
    schedule_to_dict,
    target_logical,
    to_matrix,
    verify_gate,
)
from recoupler.compiler import _GATES, _cphase_xxz, _cphase_xy, gate_from_dict
from recoupler.verifier import STANDARD_GATES

XXZ = preset_model("electrons_on_helium", 4)
XXZ_ANTI = preset_model("xxz_antisymmetric", 4)
XY = preset_model("quantum_hall", 4)
HEIS = preset_model("spin_dots", 4)

SPEC_SYM = CodeSpec(SYMMETRIC, 4)
SPEC_ANTI = CodeSpec(ANTISYMMETRIC, 4)


def rx(m, theta):
    return LogicalGate("rx", (m,), (theta,))


def rz(m, theta):
    return LogicalGate("rz", (m,), (theta,))


def heis_zz(m, t):
    return LogicalGate("heis_zz", (m, m + 1), (t,))


CPHASE = LogicalGate("cphase", (1, 2))


def check_gate(gate, model, sector=SYMMETRIC, parallel=True, tol=1e-10):
    sched = compile_gate(gate, model, sector, parallel)
    u = apply_schedule(sched, model)
    spec = CodeSpec(sector, model.n_spins)
    tgt = target_logical(gate, model, sector)
    fid = fidelity(u, tgt, spec)
    _, leak = restrict(u, spec)
    assert fid >= 1 - tol, f"{gate.describe()} fidelity {fid}"
    assert leak <= tol, f"{gate.describe()} leakage {leak}"
    return sched


class TestRx:
    def test_zero_angle_elided(self):
        assert compile_gate(rx(1, 0.0), XXZ).step_count_serial == 0

    def test_one_step_logical_x(self):
        sched = check_gate(LogicalGate("rx", (1,), (np.pi,)), XXZ)
        assert sched.step_count_serial == 1
        assert sched.step_count_parallel == 1

    def test_heisenberg_path(self):
        sched = check_gate(LogicalGate("rx", (2,), (1.3,)), HEIS)
        assert sched.step_count_serial == 1
        assert sched.groups[0][0].handle.kind == "heis"

    def test_antisymmetric_uses_r_generator(self):
        sched = check_gate(LogicalGate("rx", (1,), (0.9,)), XXZ_ANTI, sector=ANTISYMMETRIC)
        assert sched.groups[0][0].handle.kind == "j_minus"

    def test_sector_model_mismatch(self):
        with pytest.raises(ControllabilityError):
            compile_gate(rx(1, 1.0), XXZ, ANTISYMMETRIC)  # no J- handles
        with pytest.raises(SectorError):
            compile_gate(rx(1, 1.0), HEIS, ANTISYMMETRIC)


class TestRz:
    def test_zero_angle_empty(self):
        assert compile_gate(rz(1, 0.0), XXZ).step_count_serial == 0

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("theta", [np.pi / 2, -1.1, 5.0])
    def test_four_steps_and_action(self, m, theta):
        sched = check_gate(LogicalGate("rz", (m,), (theta,)), XXZ)
        assert sched.step_count_serial == 4
        assert sched.step_count_parallel == 4

    def test_windows_have_nonnegative_duration(self):
        for theta in (-3.0, -0.2, 0.4, 6.9):
            sched = compile_gate(rz(1, theta), XXZ)
            for group in sched.groups:
                for step in group:
                    if step.duration is not None:
                        assert step.duration >= 0

    def test_degenerate_spectrum(self):
        m = preset_model("electrons_on_helium", 4, epsilon=(1.0, 1.0, 2.0, 1.0))
        with pytest.raises(DegenerateSpectrumError):
            compile_gate(rz(1, 0.5), m)
        compile_gate(rz(2, 0.5), m)  # pair 2 is fine

    def test_antisymmetric_sector(self):
        check_gate(LogicalGate("rz", (1,), (0.8,)), XXZ_ANTI, sector=ANTISYMMETRIC)

    def test_single_logical_qubit_register(self):
        m = preset_model("electrons_on_helium", 2)
        sched = check_gate(LogicalGate("rz", (1,), (0.7,)), m)
        assert sched.step_count_serial == 1  # no spectators to refocus


class TestEuler:
    def test_collapses_to_rx(self):
        sched = compile_gate(LogicalGate("euler", (1,), (0.7, 0.0, 0.0)), XXZ)
        assert sched.step_count_serial == 1

    def test_generic_six_steps(self):
        sched = check_gate(LogicalGate("euler", (1,), (0.5, 1.2, -0.8)), XXZ)
        assert sched.step_count_serial == 6

    def test_hadamard_equivalent_six_steps(self):
        # Rx(pi/2) Rz(pi/2) Rx(pi/2) is the Hadamard up to global phase
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rx = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * x
        rz = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert abs(np.trace((rx @ rz @ rx).conj().T @ h)) / 2 > 1 - 1e-12
        sched = check_gate(LogicalGate("euler", (1,), (np.pi / 2,) * 3), XXZ, tol=1e-8)
        assert sched.step_count_serial == 6

    def test_reconstruction_through_pulses(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a, b, g = rng.uniform(-np.pi, np.pi, size=3)
            gate = LogicalGate("euler", (1,), (a, b, g))
            sched = compile_gate(gate, XXZ)
            full = apply_schedule(sched, XXZ)
            tgt = target_logical(gate, XXZ)
            assert fidelity(full, tgt, SPEC_SYM) >= 1 - 1e-8
            assert sched.step_count_serial <= 6


class TestCphaseXxz:
    def test_parallel_counts(self):
        sched = check_gate(LogicalGate("cphase", (1, 2)), XXZ, parallel=True)
        assert sched.step_count_serial == 6
        assert sched.step_count_parallel == 4

    def test_serial_counts(self):
        sched = check_gate(LogicalGate("cphase", (1, 2)), XXZ, parallel=False)
        assert sched.step_count_serial == 6
        assert sched.step_count_parallel == 6

    def test_logical_action_on_basis(self):
        sched = compile_gate(CPHASE, XXZ)
        u = apply_schedule(sched, XXZ)
        block, _ = restrict(u, SPEC_SYM)
        # exp(+i pi/4 ZZ): |00> and |11> pick up e^{+i pi/4}, others e^{-i pi/4}
        phases = np.angle(np.diag(block))
        assert np.allclose(phases[[0, 3]], np.pi / 4, atol=1e-10)
        assert np.allclose(phases[[1, 2]], -np.pi / 4, atol=1e-10)
        off = block - np.diag(np.diag(block))
        assert np.linalg.norm(off) < 1e-10

    def test_antisymmetric_sector(self):
        check_gate(LogicalGate("cphase", (1, 2)), XXZ_ANTI, sector=ANTISYMMETRIC)


class TestCphaseXy:
    def test_five_steps(self):
        sched = check_gate(LogicalGate("cphase", (1, 2)), XY)
        assert sched.step_count_serial == 5
        assert sched.step_count_parallel == 5

    def test_missing_next_nearest_pair(self):
        model = ExchangeModel(
            "xy", 4, (1.6, 1.4, 1.2, 1.0),
            {(i, i + 1): Coupling(0.5, 0.5, 0.0) for i in range(1, 4)},
            frozenset({j_plus(i, i + 1) for i in range(1, 4)}),
        )
        with pytest.raises(ConnectivityError):
            compile_gate(CPHASE, model)

    def test_wrong_sector(self):
        with pytest.raises(SectorError):
            compile_gate(CPHASE, XY, ANTISYMMETRIC)

    def test_composite_generator_identity(self):
        # the conjugated pulse generator is the pure-phase combination
        from recoupler import PauliSum, build_T, propagator

        def pstr(n, sites):
            letters = ["I"] * n
            for i, a in sites.items():
                letters[i - 1] = a
            return PauliSum(n, {"".join(letters): 1.0})

        c12 = propagator(build_T(3, 1, 2), np.pi / 2)
        c13 = propagator(build_T(3, 1, 3), np.pi / 4)
        inner = c12 @ to_matrix(build_T(3, 2, 3)) @ c12.conj().T
        want_inner = to_matrix(1j * (pstr(3, {1: "Z", 2: "Z"}) @ build_T(3, 1, 3)))
        assert np.linalg.norm(inner - want_inner) < 1e-12
        outer = c13 @ inner @ c13.conj().T
        want = to_matrix(0.5 * (pstr(3, {2: "Z", 3: "Z"}) - pstr(3, {1: "Z", 2: "Z"})))
        assert np.linalg.norm(outer - want) < 1e-12


class TestHeisZz:
    def test_six_steps_and_action(self):
        sched = check_gate(LogicalGate("heis_zz", (1, 2), (2.0,)), HEIS)
        assert sched.step_count_serial == 6
        assert sched.step_count_parallel == 6

    def test_full_space_equals_pure_zz(self):
        t = 1.7
        sched = compile_gate(heis_zz(1, t), HEIS)
        u = apply_schedule(sched, HEIS)
        jz = HEIS.coupling(2, 3).jz
        from recoupler import PauliSum, propagator

        zz = PauliSum(4, {"IZZI": 1.0})
        want = propagator(jz * zz, t)
        assert np.linalg.norm(u - want) < 1e-10

    def test_leakage_contrast_with_bare_pulse(self):
        from recoupler import PauliSum, propagator

        jz = HEIS.coupling(2, 3).jz
        t = 1.0 / jz
        h23 = PauliSum(4, {"I" + a + a + "I": jz for a in "XYZ"})
        _, bare_leak = restrict(propagator(h23, t), SPEC_SYM)
        sched = compile_gate(heis_zz(1, t), HEIS)
        _, compiled_leak = restrict(apply_schedule(sched, HEIS), SPEC_SYM)
        assert bare_leak > 0.1
        assert compiled_leak <= 1e-10

    def test_requires_isotropic_model(self):
        with pytest.raises(ControllabilityError):
            compile_gate(heis_zz(1, 1.0), XXZ)

    def test_degenerate_spectrum(self):
        m = preset_model("spin_dots", 4, epsilon=(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(DegenerateSpectrumError):
            compile_gate(heis_zz(1, 1.0), m)


class TestCompileGateOptions:
    """exact_cphase and parallel=False apply to every construction, once, in compile_gate."""

    @pytest.mark.parametrize(
        "name, bare_steps",
        [("electrons_on_helium", 6), ("quantum_hall", 5), ("spin_dots", 6), ("donor_atoms", 6), ("heisenberg", 6)],
    )
    def test_exact_cphase_prepends_corrections(self, name, bare_steps):
        model = preset_model(name, 4)
        sched = compile_gate(LogicalGate("cphase", (1, 2)), model, exact_cphase=True)
        assert sched.step_count_serial == bare_steps + 8
        u = apply_schedule(sched, model)
        block, leak = restrict(u, SPEC_SYM)
        want = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        overlap = abs(np.trace(want.conj().T @ block)) / 4
        assert leak < 1e-10 and overlap > 1 - 1e-10

    @pytest.mark.parametrize("name", ["spin_dots", "donor_atoms", "heisenberg"])
    def test_exact_cphase_isotropic_antisymmetric_is_sector_error(self, name):
        # the rz corrections need heis spectator pulses, which act trivially on that code
        gate, model = LogicalGate("cphase", (1, 2)), preset_model(name, 4)
        rep = verify_gate(gate, model, sector=ANTISYMMETRIC, exact_cphase=True)
        assert not rep.passed and rep.reason.startswith("SectorError")

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_serial_has_one_step_per_group(self, name, n):
        model = preset_model(name, n)
        gates = list(STANDARD_GATES.values()) + [LogicalGate("heis_zz", (1, 2), (1.3,))]
        for sector in (SYMMETRIC, ANTISYMMETRIC):
            for gate in gates:
                for exact in (False, True) if gate.kind == "cphase" else (False,):
                    try:
                        sched = compile_gate(gate, model, sector, parallel=False, exact_cphase=exact)
                    except RecouplerError:
                        continue
                    assert all(len(group) == 1 for group in sched.groups), gate.describe()
                    rep = verify_gate(gate, model, sector, parallel=False, exact_cphase=exact)
                    assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("kind, params", [("cphase", ()), ("heis_zz", (1.3,))])
    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    def test_heisenberg_metadata_records_requested_sector(self, kind, params, sector):
        gate = LogicalGate(kind, (1, 2), params)
        model = preset_model("heisenberg", 4)
        assert compile_gate(gate, model, sector).metadata["sector"] == sector
        assert verify_gate(gate, model, sector).passed


class TestCircuit:
    def test_empty(self):
        sched = compile_circuit([], XXZ)
        assert sched.step_count_serial == 0
        assert np.array_equal(apply_schedule(sched, XXZ), np.eye(16))

    def test_counts_add(self):
        gates = [LogicalGate("rx", (1,), (np.pi,)), LogicalGate("cphase", (1, 2))]
        sched = compile_circuit(gates, XXZ, parallel=True)
        assert sched.step_count_parallel == 1 + 4
        assert sched.step_count_serial == 1 + 6

    def test_euler_cphase_euler_bound(self):
        gates = [
            LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
            LogicalGate("cphase", (1, 2)),
            LogicalGate("euler", (2,), (0.1, -0.4, 2.2)),
        ]
        sched = compile_circuit(gates, XXZ, parallel=False)
        assert sched.step_count_serial <= 18

    def test_circuit_action(self):
        from recoupler import target_circuit

        gates = [
            LogicalGate("rx", (1,), (0.7,)),
            LogicalGate("cphase", (1, 2)),
            LogicalGate("rz", (2,), (-1.2,)),
        ]
        sched = compile_circuit(gates, XXZ)
        u = apply_schedule(sched, XXZ)
        tgt = target_circuit(gates, XXZ)
        assert fidelity(u, tgt, SPEC_SYM) >= 1 - 1e-9

    def test_failing_gate_reports_index(self):
        gates = [LogicalGate("rx", (1,), (0.3,)), LogicalGate("cphase", (1, 2))]
        with pytest.raises(ConnectivityError, match=r"gate 1 \(cphase\)"):
            compile_circuit(gates, XY_no_nnn())

    def test_determinism(self):
        gates = [LogicalGate("euler", (1,), (0.5, 1.2, -0.8))]
        s1 = compile_circuit(gates, XXZ)
        s2 = compile_circuit(gates, XXZ)
        assert s1 == s2

    def test_non_adjacent_cphase_rejected(self):
        with pytest.raises(ConnectivityError):
            LogicalGate("cphase", (1, 3))

    def test_circuit_json_parse(self):
        gates = circuit_from_list(
            [
                {"gate": "rz", "target": 0, "angle": 0.7854},
                {"gate": "cphase", "targets": [0, 1]},
                {"gate": "euler", "target": 1, "angles": [0.1, 0.2, 0.3]},
            ]
        )
        assert gates[0] == LogicalGate("rz", (1,), (0.7854,))
        assert gates[1] == LogicalGate("cphase", (1, 2))
        assert gates[2].targets == (2,)
        with pytest.raises(ValidationError):
            circuit_from_list([{"gate": "rx", "target": 0}])  # missing angle


def XY_no_nnn():
    return ExchangeModel(
        "xy", 4, (1.6, 1.4, 1.2, 1.0),
        {(i, i + 1): Coupling(0.5, 0.5, 0.0) for i in range(1, 4)},
        frozenset({j_plus(i, i + 1) for i in range(1, 4)}),
    )


class TestSectorIndependence:
    @pytest.mark.parametrize(
        "gate",
        [
            LogicalGate("rx", (1,), (1.1,)),
            LogicalGate("rz", (2,), (0.7,)),
            LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
        ],
    )
    def test_single_qubit_gates_trivial_on_other_sector(self, gate):
        sched = compile_gate(gate, XXZ, SYMMETRIC)
        u = apply_schedule(sched, XXZ)
        block, leak = restrict(u, SPEC_ANTI)
        assert leak < 1e-12
        phase = block[0, 0]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.linalg.norm(block - phase * np.eye(4)) < 1e-10

    def test_cphase_block_structure(self):
        sched = compile_gate(CPHASE, XXZ)
        u = apply_schedule(sched, XXZ)
        for spec in (SPEC_SYM, SPEC_ANTI):
            block, leak = restrict(u, spec)
            assert leak < 1e-12
            assert np.linalg.norm(block.conj().T @ block - np.eye(4)) < 1e-10
        v_sym, v_anti = code_isometry(SPEC_SYM), code_isometry(SPEC_ANTI)
        cross = v_anti.conj().T @ u @ v_sym
        assert np.linalg.norm(cross) < 1e-12


class _TwoArgError(RecouplerError):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class TestCompileCircuitErrors:
    def test_prefix_keeps_type_and_instance(self, monkeypatch):
        raised = _TwoArgError("boom", "pair (1,2)")

        def fail(*args, **kwargs):
            raise raised

        monkeypatch.setattr(recoupler.compiler, "compile_gate", fail)
        with pytest.raises(_TwoArgError) as exc:
            compile_circuit([LogicalGate("rx", (1,), (0.3,))], XXZ)
        assert exc.value is raised
        assert str(exc.value) == "gate 0 (rx): boom at pair (1,2)"

    def test_prefix_names_failing_gate(self):
        gates = [LogicalGate("rx", (1,), (0.3,)), LogicalGate("rx", (1,), (0.3,))]
        with pytest.raises(ControllabilityError) as exc:
            compile_circuit(gates, XY, sector=ANTISYMMETRIC)
        assert str(exc.value) == (
            "gate 0 (rx): handle j_minus(1,2) is not controllable in model 'quantum_hall'"
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_gate_params_rejected(self, bad):
        with pytest.raises(ValidationError, match="parameters must be finite"):
            LogicalGate("rz", (1,), (bad,))
        with pytest.raises(ValidationError, match="parameters must be finite"):
            LogicalGate("euler", (1,), (0.1, bad, 0.2))
        with pytest.raises(ValidationError, match="parameters must be finite"):
            circuit_from_list([{"gate": "heis_zz", "targets": [0, 1], "time": bad}])


SECTOR_CASES = {
    "rx": (rx(1, 0.5), XXZ_ANTI),
    "rz": (rz(1, 0.5), XXZ_ANTI),
    "euler": (LogicalGate("euler", (1,), (0.5, 1.2, -0.8)), XXZ_ANTI),
    "cphase_xxz": (CPHASE, XXZ_ANTI),
    "cphase_xy": (CPHASE, XY),
    "heis_zz": (heis_zz(1, 0.5), HEIS),
}


class TestCompileGateSector:
    """compile_gate rejects an unknown sector before lowering anything, for every construction."""

    @pytest.mark.parametrize("sector", ["symmetric", "bogus"])
    @pytest.mark.parametrize("name", sorted(SECTOR_CASES))
    def test_unknown_sector_rejected(self, name, sector):
        gate, model = SECTOR_CASES[name]
        with pytest.raises(ValidationError, match=f"^unknown sector '{sector}'$"):
            compile_gate(gate, model, sector)


class TestGateTable:
    """LogicalGate, gate_from_dict and compile_gate read one table of gate kinds."""

    @pytest.mark.parametrize("kind", sorted(_GATES))
    def test_circuit_record_round_trips(self, kind):
        entry = _GATES[kind]
        params = tuple(0.25 * (i + 1) for i in range(entry.params))
        targets = tuple(range(1, entry.qubits + 1))
        record = {"gate": kind, "targets": [t - 1 for t in targets]}
        if entry.field is not None:
            record[entry.field] = list(params) if entry.params > 1 else params[0]
        gate = LogicalGate(kind, targets, params)
        assert gate_from_dict(record) == gate
        sched = compile_gate(gate, HEIS)
        assert sched.metadata == {
            "gate": kind, "targets": list(targets), "params": list(params), "sector": SYMMETRIC,
        }
        assert schedule_from_dict(json.loads(json.dumps(schedule_to_dict(sched)))) == sched

    def test_isotropic_cphase_past_the_register_is_a_qubit_error(self):
        with pytest.raises(ValidationError, match=r"^logical qubit 3 outside 1\.\.2$"):
            compile_gate(LogicalGate("cphase", (2, 3)), HEIS)

    def test_unhashable_kind_is_unknown(self):
        with pytest.raises(ValidationError, match=r"^unknown gate kind \['rx'\]$"):
            LogicalGate(["rx"], (1,), (1.0,))
        with pytest.raises(ValidationError, match=r"^unknown gate kind \['rx'\]$"):
            gate_from_dict({"gate": ["rx"], "target": 0, "angle": 1.0})


GOLDEN_GATES = [
    LogicalGate("rx", (1,), (1.1,)),
    LogicalGate("rz", (1,), (0.7,)),
    LogicalGate("rz", (2,), (-2.3,)),
    LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
    LogicalGate("cphase", (1, 2)),
    LogicalGate("heis_zz", (1, 2), (1.3,)),
]


def _golden_schedules():
    """Every preset at n=6, both sectors, each gate alone and a 5-gate circuit."""
    for name in PRESET_NAMES:
        model = preset_model(name, 6)
        for sector in (SYMMETRIC, ANTISYMMETRIC):
            for gates in [[g] for g in GOLDEN_GATES] + [GOLDEN_GATES[:5]]:
                for exact in (False, True):
                    try:
                        yield compile_circuit(gates, model, sector, exact_cphase=exact)
                    except RecouplerError as exc:
                        yield type(exc).__name__


class TestScheduleJsonGolden:
    def test_compiled_json_is_pinned(self):
        # digest of the compiled JSON; a refactor must not change it. Isotropic exact cphase
        # (lines 9, 13, 23, 37, 41, 51, 177, 181, 191) carries the rz corrections in the
        # symmetric sector and reads SectorError in the antisymmetric one.
        lines = [
            s if isinstance(s, str) else json.dumps(schedule_to_dict(s)) for s in _golden_schedules()
        ]
        assert len(lines) == 308 and sum('"target"' in line for line in lines) == 111
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "d3306c73928953a812e3a64f7d83c4cc13b06acaeca74bbfde0f92db61f27963"

    def test_compiled_json_round_trips(self):
        for sched in _golden_schedules():
            if isinstance(sched, str):
                continue
            text = json.dumps(schedule_to_dict(sched))
            again = schedule_from_dict(json.loads(text))
            assert again == sched
            assert json.dumps(schedule_to_dict(again)) == text


def _parallel_path_lines():
    """Groups only: per-gate compiles, ZZ lowerings at explicit angles, NMR templates."""

    def groups(thunk):
        try:
            return json.dumps(schedule_to_dict(thunk())["groups"])
        except RecouplerError as exc:
            return type(exc).__name__

    for name in PRESET_NAMES:
        for n in (4, 6, 8):
            model = preset_model(name, n)
            k = n // 2
            gates = [
                LogicalGate("rx", (1,), (1.1,)),
                LogicalGate("rx", (k,), (0.0,)),
                LogicalGate("rz", (1,), (0.7,)),
                LogicalGate("rz", (k,), (-2.3,)),
                LogicalGate("rz", (1,), (0.0,)),
                LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
                LogicalGate("euler", (k,), (0.0, 0.0, 0.0)),
                LogicalGate("euler", (2,), (0.3, 0.0, 0.0)),
                LogicalGate("cphase", (1, 2)),
                LogicalGate("cphase", (k - 1, k)),
                LogicalGate("heis_zz", (1, 2), (1.3,)),
                LogicalGate("heis_zz", (k - 1, k), (0.0,)),
            ]
            for sector in (SYMMETRIC, ANTISYMMETRIC):
                for gate in gates:
                    yield groups(lambda: compile_gate(gate, model, sector))
                for angle in (0.6, -0.3, 0.0, np.pi / 4):
                    yield groups(lambda: PulseSchedule(_cphase_xxz(model, sector, 1, angle)))
                    yield groups(lambda: PulseSchedule(_cphase_xy(model, sector, k - 1, angle)))
    for tau in (0.4, 1.7):
        yield groups(lambda: nmr_ising_schedule(tau))
        for spin in (1, 2):
            yield groups(lambda: nmr_z_rotation_schedule(tau, spin))


class TestParallelPathGolden:
    def test_parallel_groups_are_pinned(self):
        # parallel, non-exact lowering of every construction; layout options must not leak in.
        # The XXZ lowering on an xy-family model reads ValidationError (no zz coupling to
        # recouple): compile_gate routes xy cphase to the xy construction before it.
        lines = list(_parallel_path_lines())
        assert len(lines) == 11 * 3 * 2 * (12 + 8) + 2 * 3
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "0dfae3d66baefc9c9fc256d2bbe23bfcf85b6af7cae74a9440b80935cdea8d9f"
