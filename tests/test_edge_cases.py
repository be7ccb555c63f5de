"""Edge cases the main suites do not reach: the all-zero euler gate, custom
phase angles, serial realistic convergence, and malformed schedule targets."""

import numpy as np
import pytest

from recoupler import (
    ANTISYMMETRIC,
    CodeSpec,
    FREE_EVOLUTION,
    LogicalGate,
    PulseSchedule,
    PulseStep,
    SYMMETRIC,
    ValidationError,
    WindowTarget,
    apply_schedule,
    compile_gate,
    fidelity,
    preset_model,
    restrict,
    verify_gate,
)
from recoupler.compiler import _cphase_xxz, _cphase_xy


class TestEulerBranches:
    def test_identity_compiles_to_zero_steps(self):
        model = preset_model("electrons_on_helium", 4)
        gate = LogicalGate("euler", (1,), (0.0, 0.0, 0.0))
        assert compile_gate(gate, model).step_count_serial == 0


class TestCustomPhaseAngles:
    @pytest.mark.parametrize("angle", [0.3, -0.9, 2.8])
    def test_xxz_zz_phase_angle(self, angle):
        model = preset_model("electrons_on_helium", 4)
        sched = PulseSchedule(_cphase_xxz(model, SYMMETRIC, 1, angle))
        u = apply_schedule(sched, model)
        block, leak = restrict(u, CodeSpec(SYMMETRIC, 4))
        want = np.diag(np.exp(+1j * angle * np.array([1.0, -1.0, -1.0, 1.0])))
        overlap = abs(np.trace(want.conj().T @ block)) / 4
        assert leak < 1e-10 and overlap > 1 - 1e-10

    @pytest.mark.parametrize("angle", [0.3, -0.9])
    def test_xy_zz_phase_angle(self, angle):
        model = preset_model("quantum_hall", 4)
        sched = PulseSchedule(_cphase_xy(model, SYMMETRIC, 1, angle))
        u = apply_schedule(sched, model)
        block, leak = restrict(u, CodeSpec(SYMMETRIC, 4))
        want = np.diag(np.exp(+1j * angle * np.array([1.0, -1.0, -1.0, 1.0])))
        overlap = abs(np.trace(want.conj().T @ block)) / 4
        assert leak < 1e-10 and overlap > 1 - 1e-10

    def test_antisymmetric_sign_flips(self):
        model = preset_model("xxz_antisymmetric", 4)
        sched = PulseSchedule(_cphase_xxz(model, ANTISYMMETRIC, 1, 0.6))
        u = apply_schedule(sched, model)
        block, leak = restrict(u, CodeSpec(ANTISYMMETRIC, 4))
        want = np.diag(np.exp(-1j * 0.6 * np.array([1.0, -1.0, -1.0, 1.0])))
        overlap = abs(np.trace(want.conj().T @ block)) / 4
        assert leak < 1e-10 and overlap > 1 - 1e-10


class TestRealisticSerial:
    def test_serial_cphase_converges(self):
        model = preset_model("electrons_on_helium", 4)
        gate = LogicalGate("cphase", (1, 2))
        fid = verify_gate(gate, model, mode="realistic", ratio=1e5, parallel=False).fidelity
        assert fid >= 1 - 1e-4

    def test_realistic_equals_ideal_in_the_limit_for_euler(self):
        model = preset_model("electrons_on_helium", 4)
        gate = LogicalGate("euler", (1,), (0.5, 1.2, -0.8))
        fid = verify_gate(gate, model, mode="realistic", ratio=1e6).fidelity
        assert fid >= 1 - 1e-6


class TestHeisVariants:
    def test_negative_time(self):
        model = preset_model("spin_dots", 4)
        gate = LogicalGate("heis_zz", (1, 2), (-1.3,))
        rep = verify_gate(gate, model)
        assert rep.passed and rep.step_count_serial == 6

    def test_negative_splitting_keeps_durations_physical(self):
        model = preset_model("spin_dots", 4, epsilon=(1.0, 1.4, 1.2, 1.0))  # eps_1^- < 0
        sched = compile_gate(LogicalGate("heis_zz", (1, 2), (2.0,)), model)
        for group in sched.groups:
            for step in group:
                if step.duration is not None:
                    assert step.duration >= 0
        rep = verify_gate(LogicalGate("heis_zz", (1, 2), (2.0,)), model)
        assert rep.passed


class TestScheduleTargets:
    def test_out_of_range_target_rejected(self):
        model = preset_model("electrons_on_helium", 4)
        step = PulseStep(FREE_EVOLUTION, duration=1.0, target=WindowTarget.parse("t_z(3)"))
        with pytest.raises(ValidationError):
            apply_schedule(PulseSchedule(((step,),), {}), model)

    def test_zz_target_requires_coupling(self):
        from recoupler import ConnectivityError

        model = preset_model("electrons_on_helium", 4)
        step = PulseStep(FREE_EVOLUTION, duration=1.0, target=WindowTarget.parse("zz(1,4)"))
        with pytest.raises(ConnectivityError):
            apply_schedule(PulseSchedule(((step,),), {}), model)


class TestLargerRegisters:
    def test_three_logical_qubits_all_gates(self):
        model = preset_model("electrons_on_helium", 6)
        spec = CodeSpec(SYMMETRIC, 6)
        from recoupler import target_circuit

        gates = [
            LogicalGate("rx", (3,), (0.9,)),
            LogicalGate("rz", (2,), (1.4,)),
            LogicalGate("cphase", (2, 3)),
        ]
        from recoupler import compile_circuit

        sched = compile_circuit(gates, model)
        u = apply_schedule(sched, model)
        assert fidelity(u, target_circuit(gates, model), spec) >= 1 - 1e-9
        # rz on a 3-qubit register refocuses both spectators in parallel groups
        rz_sched = compile_gate(LogicalGate("rz", (2,), (1.4,)), model)
        assert rz_sched.step_count_parallel == 4
        assert rz_sched.step_count_serial == 6  # two spectator pulses per window
