"""Edge cases the main suites do not reach: the all-zero euler gate, custom
phase angles, serial realistic convergence, malformed schedule targets, the
message of each input error that no other test raises, and the one byte
budget that every register-sized array checks."""

import dataclasses

import numpy as np
import pytest

from recoupler import (
    ANTISYMMETRIC,
    CapacityError,
    CodeSpec,
    ControllabilityError,
    FREE_EVOLUTION,
    LogicalGate,
    PauliSum,
    PulseSchedule,
    PulseStep,
    SYMMETRIC,
    ValidationError,
    WindowTarget,
    apply_schedule,
    circuit_from_list,
    code_isometry,
    compile_gate,
    decode,
    encode,
    fidelity,
    j_plus,
    model_from_dict,
    preset_model,
    propagator,
    restrict,
    schedule_from_dict,
    to_matrix,
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


def _without_free_evolution(model):
    return dataclasses.replace(model, controllable=model.controllable - {FREE_EVOLUTION})


def _heisenberg_with_uncoupled_middle_pair():
    couplings = [{"i": i, "j": i + 1, "jx": j, "jy": j, "jz": j}
                 for i, j in ((1, 0.5), (2, 0.0), (3, 0.5))]
    return model_from_dict({
        "kind": "heisenberg", "n_spins": 4, "epsilon": [1.6, 1.4, 1.2, 1.0],
        "couplings": couplings,
        "controllable": ["heis(1,2)", "heis(2,3)", "heis(3,4)", "free_evolution"],
    })


_WINDOW = PulseStep(FREE_EVOLUTION, duration=1.0)
_UNEQUAL_PULSES = (PulseStep(j_plus(1, 2), angle=0.3), PulseStep(j_plus(3, 4), angle=0.6))
_NMR_PAIR = {"kind": "nmr_ising", "n_spins": 2, "epsilon": [1.0, 2.0]}


class TestErrorMessages:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: circuit_from_list([{"gate": "rx", "targets": [0, 1], "angle": 1}]),
         ValidationError, "rx takes 1 target(s)"),
        (lambda: LogicalGate("rx", (1,), (1.0, 2.0)), ValidationError, "rx takes 1 parameter(s)"),
        (lambda: schedule_from_dict({"groups": [[{"handle": "j_plus(1,2)", "angle": 1.0,
                                                  "mode": "fast"}]]}),
         ValidationError, "bad mode 'fast'"),
        (lambda: schedule_from_dict({"groups": [[]]}), ValidationError, "group 0 is empty"),
        (lambda: apply_schedule(PulseSchedule(((_WINDOW,),)),
                                _without_free_evolution(preset_model("xy", 4))),
         ControllabilityError, "free evolution is not controllable in model 'xy'"),
        (lambda: apply_schedule(PulseSchedule((_UNEQUAL_PULSES,)), preset_model("xy", 4),
                                mode="realistic", ratio=10.0),
         ValidationError, "realistic parallel steps must share a pulse duration"),
        (lambda: apply_schedule(PulseSchedule(((_WINDOW,),)), preset_model("xy", 4), mode="bogus"),
         ValidationError, "bad mode 'bogus'"),
        (lambda: model_from_dict({**_NMR_PAIR, "couplings": [{"i": 1, "j": 3, "jz": 0.25}]}),
         ValidationError, "pair (1,3) out of range for n=2"),
        (lambda: model_from_dict({**_NMR_PAIR, "couplings": [{"i": 1, "j": 2, "jz": 0.25}],
                                  "controllable": ["sigma_x(9)"]}),
         ValidationError, "controllable handle sigma_x(9) out of range"),
        (lambda: CodeSpec(SYMMETRIC, 3), ValidationError, "n_spins must be even and positive"),
        (lambda: decode(CodeSpec(SYMMETRIC, 2), np.zeros(4)),
         ValidationError, "cannot decode the zero vector"),
        (lambda: fidelity(np.eye(4), np.eye(3), CodeSpec(SYMMETRIC, 2)),
         ValidationError, "target shape (3, 3), expected (2, 2)"),
    ])
    def test_each_input_error_states_its_message(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message

    def test_a_heisenberg_pair_without_coupling_fails_the_cphase_verdict(self):
        rep = verify_gate(LogicalGate("cphase", (1, 2)), _heisenberg_with_uncoupled_middle_pair())
        assert not rep.passed
        assert rep.reason == "ValidationError: pair (2,3) has no exchange coupling"


def _verdict(n):
    """An rx verdict on `xy`, a refusal raised: a verdict reports it as its reason."""
    report = verify_gate(LogicalGate("rx", (1,), (1.1,)), preset_model("xy", n))
    if not report.passed:
        assert report.reason.startswith("CapacityError: ")
        raise CapacityError(report.reason.removeprefix("CapacityError: "))


class TestOneCapacityRule:
    """Every register-sized array is checked against one budget, 16 * 4**cap bytes."""

    @pytest.mark.parametrize("call, fits, over", [
        (lambda n: to_matrix(PauliSum(n, {"Z" * n: 1.0})), 4, 5),
        (lambda n: apply_schedule(PulseSchedule((), {}), preset_model("xy", n)), 4, 6),
        (_verdict, 8, 10),  # the 2^(n/2) x 2^(n/2) code block
        (lambda n: encode(CodeSpec(SYMMETRIC, n), np.ones(2 ** (n // 2))), 8, 10),
        (lambda n: code_isometry(CodeSpec(SYMMETRIC, n)), 4, 6),  # 2^n x 2^(n/2)
        (lambda n: propagator(PauliSum(n, {"Z" * n: 1.0}), 1.0), 4, 5),
    ], ids=["to_matrix", "apply_schedule", "verify_gate", "encode", "code_isometry",
            "propagator"])
    def test_refused_one_size_over_the_budget(self, monkeypatch, call, fits, over):
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", "4")
        call(fits)
        with pytest.raises(CapacityError, match=rf"^{over} spins: .* needs \d+ bytes, over the"
                           r" 4096-byte budget of a dense 4-spin matrix \(RECOUPLER_MAX_SPINS\)$"):
            call(over)
