import numpy as np
import pytest

from recoupler import (
    ANTISYMMETRIC,
    SYMMETRIC,
    CodeSpec,
    LogicalGate,
    cost_report,
    fidelity,
    identity_suite,
    preset_model,
    target_logical,
    verify_circuit,
    verify_gate,
)
from recoupler.verifier import STANDARD_GATES

XXZ = preset_model("electrons_on_helium", 4)
SPEC = CodeSpec(SYMMETRIC, 4)


class TestFidelity:
    def test_identity(self):
        assert fidelity(np.eye(16), np.eye(4), SPEC) == pytest.approx(1.0)

    def test_orthogonal_paulis(self):
        from recoupler import code_isometry

        v = code_isometry(SPEC)
        z = np.kron(np.eye(2), np.diag([1.0, -1.0]))
        u = v @ z @ v.conj().T + (np.eye(16) - v @ v.conj().T)
        x = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        assert fidelity(u, x.astype(complex), SPEC) == pytest.approx(0.0, abs=1e-14)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(51)
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        q, _ = np.linalg.qr(z)
        tgt = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        base = fidelity(q, tgt, SPEC)
        for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            assert abs(fidelity(np.exp(1j * phi) * q, tgt, SPEC) - base) < 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
            tgt, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            assert fidelity(q, tgt, SPEC) <= 1 + 1e-12


class TestVerifyGate:
    def test_rx_passes(self):
        rep = verify_gate(LogicalGate("rx", (1,), (np.pi,)), XXZ)
        assert rep.passed
        assert rep.step_count_serial == 1 and rep.step_count_parallel == 1
        assert rep.mode == "ideal"

    def test_cphase_xy_passes_with_five_steps(self):
        rep = verify_gate(LogicalGate("cphase", (1, 2)), preset_model("quantum_hall", 4))
        assert rep.passed
        assert rep.step_count_serial == 5 and rep.step_count_parallel == 5

    def test_degenerate_rz_fails_with_reason(self):
        m = preset_model("electrons_on_helium", 4, epsilon=(1.0, 1.0, 1.5, 1.0))
        rep = verify_gate(LogicalGate("rz", (1,), (np.pi / 2,)), m)
        assert not rep.passed
        assert "DegenerateSpectrumError" in rep.reason

    def test_realistic_mode_labels_and_converges(self):
        gate = LogicalGate("rz", (1,), (0.7,))
        fids = []
        for r in (10.0, 1e3, 1e5):
            rep = verify_gate(gate, XXZ, mode="realistic", ratio=r)
            assert rep.mode == f"realistic(r={r:g})"
            fids.append(rep.fidelity)
        assert fids[0] < fids[1] < fids[2]
        assert fids[1] >= 0.999  # two logical qubits at r = 1e3
        assert fids[2] > 1 - 1e-4

    @pytest.mark.parametrize("verify", [verify_gate, verify_circuit])
    def test_realistic_without_ratio_fails_like_a_bad_ratio(self, verify):
        xy = preset_model("xy", 4)
        subject = LogicalGate("rx", (1,), (1.1,))
        if verify is verify_circuit:
            subject = [subject]
        missing = verify(subject, xy, mode="realistic")
        negative = verify(subject, xy, mode="realistic", ratio=-1.0)
        assert not missing.passed and missing.mode == "realistic(r=None)"
        assert missing.reason == negative.reason == (
            "ValidationError: realistic mode needs a finite positive strength ratio"
        )
        assert (missing.step_count_serial, missing.step_count_parallel) == (0, 0)

    def test_verify_circuit(self):
        gates = [LogicalGate("rx", (1,), (0.7,)), LogicalGate("cphase", (1, 2))]
        rep = verify_circuit(gates, XXZ)
        assert rep.passed
        assert rep.step_count_parallel == 5

    def test_report_dict_shape(self):
        rep = verify_gate(LogicalGate("rx", (1,), (1.0,)), XXZ)
        d = rep.to_dict()
        assert set(d) == {
            "gate", "fidelity", "leakage", "step_count_serial", "step_count_parallel",
            "mode", "tol_fidelity", "tol_leakage", "pass", "reason",
        }


class TestIdentitySuite:
    def test_all_entries_pass(self):
        entries = identity_suite()
        names = {e.name for e in entries}
        assert {
            "conjugation_sign_flip",
            "nmr_z_rotation",
            "nmr_ising_recoupling",
            "encoded_zz_action",
            "xy_nnn_conjugation",
            "xy_composite_generator",
            "encoded_sign_flip",
            "heis_zz_conjugation",
            "heis_zz_extraction",
            "delta_code_triviality",
            "tr_commutation",
            "xy_cphase_perturbation",
        } <= names
        for e in entries:
            assert e.passed, f"{e.name}: residual {e.residual}"

    def test_identities_are_tight(self):
        for e in identity_suite():
            if e.require == "below":
                assert e.residual <= 1e-10

    def test_sensitivity_entry_requires_large_residual(self):
        entry = {e.name: e for e in identity_suite()}["xy_cphase_perturbation"]
        assert entry.require == "above"
        assert entry.residual > 1e-3


class TestCostReport:
    def test_xxz_rows(self):
        rows = {r["gate"]: r for r in cost_report(XXZ)}
        assert rows["rx"]["serial"] == 1
        assert rows["rz"]["serial"] == 4
        assert rows["euler"]["serial"] <= 6
        assert rows["cphase"]["serial"] == 6 and rows["cphase"]["parallel"] == 4
        assert all(r["match"] for r in rows.values())

    def test_xy_row(self):
        rows = {r["gate"]: r for r in cost_report(preset_model("quantum_hall", 4))}
        assert rows["cphase"]["serial"] == 5 and rows["cphase"]["parallel"] == 5

    def test_heisenberg_rows_and_literature(self):
        rows = {r["gate"]: r for r in cost_report(preset_model("spin_dots", 4))}
        assert rows["heis_zz"]["serial"] == 6
        lit = rows["isotropic_zz_3spin_encoding"]
        assert lit["serial"] == 19 and lit["parallel"] == 7
        assert "literature" in lit["note"]

    def test_antisymmetric_sector_rows(self):
        rows = {
            r["gate"]: r
            for r in cost_report(preset_model("xxz_antisymmetric", 4), sector=ANTISYMMETRIC)
        }
        assert rows["rx"]["serial"] == 1 and rows["cphase"]["parallel"] == 4

    def test_serial_counts_scale_with_register(self):
        rows = {r["gate"]: r for r in cost_report(preset_model("electrons_on_helium", 6))}
        assert rows["rz"]["serial"] == 6 and rows["rz"]["parallel"] == 4
        assert rows["euler"]["serial"] <= 8
        assert all(r["match"] for r in rows.values())


    def test_rows_share_keys_and_gate_table(self):
        columns = ["gate", "serial", "parallel", "expected_serial", "expected_parallel", "match", "note"]
        rows = cost_report(preset_model("quantum_hall", 4), sector=ANTISYMMETRIC)
        assert [r["gate"] for r in rows[:4]] == list(STANDARD_GATES)
        assert all(list(r) == columns for r in rows)
        rx = rows[0]
        assert (rx["serial"], rx["parallel"], rx["match"]) == (None, None, False)
        assert rx["note"].startswith("ControllabilityError: handle j_minus(1,2)")


class TestMonotoneConvergence:
    @pytest.mark.parametrize(
        "gate",
        [
            LogicalGate("rx", (1,), (1.1,)),
            LogicalGate("rz", (1,), (0.7,)),
            LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
            LogicalGate("cphase", (1, 2)),
        ],
        ids=lambda g: g.kind,
    )
    def test_every_gate_converges(self, gate):
        fids = [
            verify_gate(gate, XXZ, mode="realistic", ratio=10.0**k).fidelity
            for k in range(1, 6)
        ]
        for lo, hi in zip(fids, fids[1:]):
            assert hi >= lo - 1e-6
        assert fids[-1] >= 1 - 1e-4


CONTRACT_MODELS = [
    ("xxz_symmetric", SYMMETRIC),
    ("xy", SYMMETRIC),
    ("xy", ANTISYMMETRIC),  # j_minus is not controllable: every gate fails
    ("heisenberg", SYMMETRIC),
]
CONTRACT_GATES = [
    LogicalGate("rx", (1,), (0.7,)),
    LogicalGate("rz", (2,), (1.3,)),
    LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
    LogicalGate("cphase", (1, 2)),
]
CONTRACT_MODES = [("ideal", None), ("realistic", 100.0)]


class TestVerdictContract:
    """A one-gate circuit and the gate itself get the same verdict, label aside."""

    @pytest.mark.parametrize("mode,ratio", CONTRACT_MODES, ids=["ideal", "realistic"])
    @pytest.mark.parametrize("gate", CONTRACT_GATES, ids=lambda g: g.kind)
    @pytest.mark.parametrize("preset,sector", CONTRACT_MODELS, ids=lambda v: str(v))
    def test_one_gate_circuit_matches_gate(self, preset, sector, gate, mode, ratio):
        model = preset_model(preset, 4)
        kwargs = dict(sector=sector, mode=mode, ratio=ratio)
        g = verify_gate(gate, model, **kwargs)
        c = verify_circuit([gate], model, **kwargs)
        assert g.gate == gate.describe()
        assert c.gate == f"circuit[{gate.describe()}]"
        assert c.mode == g.mode == ("ideal" if ratio is None else "realistic(r=100)")
        assert (c.fidelity, c.leakage, c.passed) == (g.fidelity, g.leakage, g.passed)
        assert (c.step_count_serial, c.step_count_parallel) == (
            g.step_count_serial,
            g.step_count_parallel,
        )
        if g.reason:
            name, msg = g.reason.split(": ", 1)
            assert not msg.startswith("gate ")
            assert c.reason == f"{name}: gate 0 ({gate.kind}): {msg}"
            assert (g.fidelity, g.leakage, g.step_count_serial, g.step_count_parallel) == (
                0.0, 1.0, 0, 0,
            )
        else:
            assert c.reason == ""
            assert g.step_count_serial > 0

    def test_labels(self):
        assert verify_gate(CONTRACT_GATES[0], XXZ).gate == "rx(0.7)@(1,)"
        rep = verify_circuit(CONTRACT_GATES[:2], XXZ)
        assert rep.gate == "circuit[rx(0.7)@(1,), rz(1.3)@(2,)]"

    def test_uncontrollable_rx_reason(self):
        rep = verify_gate(CONTRACT_GATES[0], preset_model("xy", 4), sector=ANTISYMMETRIC)
        assert rep.reason == "ControllabilityError: handle j_minus(1,2) is not controllable in model 'xy'"

    @pytest.mark.parametrize("sector", ["symmetric", "bogus"])
    def test_unknown_sector_reason(self, sector):
        for model in (preset_model("xy", 4), XXZ, preset_model("spin_dots", 4)):
            for gate in CONTRACT_GATES:
                rep = verify_gate(gate, model, sector=sector)
                assert rep.reason == f"ValidationError: unknown sector '{sector}'"

    def test_over_cap_register_fails_with_capacity_reason(self):
        rep = verify_gate(CONTRACT_GATES[0], preset_model("xy", 40))
        assert rep.reason == "CapacityError: 40 spins exceeds dense cap 12 (RECOUPLER_MAX_SPINS)"
        assert not rep.passed

    def test_overflowing_realistic_strength_reason(self):
        m = preset_model("xy", 4, epsilon=(1e308, -1e308, 1e308, -1e308))
        rep = verify_gate(CONTRACT_GATES[0], m, mode="realistic", ratio=10.0)
        assert rep.reason == "ValidationError: realistic pulse strength 10 x 1e+308 overflows"

    @pytest.mark.parametrize("mode,ratio", CONTRACT_MODES, ids=["ideal", "realistic"])
    def test_empty_circuit(self, mode, ratio):
        rep = verify_circuit([], XXZ, mode=mode, ratio=ratio)
        assert rep.gate == "circuit[<empty>]"
        assert rep.passed and rep.reason == ""
        assert (rep.step_count_serial, rep.step_count_parallel) == (0, 0)

    def test_circuit_reason_names_the_failing_gate(self):
        m = preset_model("electrons_on_helium", 4, epsilon=(1.0, 1.0, 1.5, 1.0))
        gates = [LogicalGate("rx", (1,), (0.7,)), LogicalGate("rz", (1,), (0.7,))]
        rep = verify_circuit(gates, m)
        assert rep.reason.startswith("DegenerateSpectrumError: gate 1 (rz): logical qubit 1:")
        assert (rep.step_count_serial, rep.step_count_parallel) == (0, 0)

    def test_one_restrict_per_verdict(self, monkeypatch):
        import recoupler.verifier as verifier

        calls = []
        original = verifier.restrict

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verifier, "restrict", counted)
        verify_gate(CONTRACT_GATES[1], XXZ)
        assert len(calls) == 1
        verify_circuit(CONTRACT_GATES, XXZ, mode="realistic", ratio=100.0)
        assert len(calls) == 2


# -- closed-form oracle for target_logical: the kron embedding, 2x2 rotations and
# diagonal phases it was written with before it went through the Pauli core

_I2 = np.eye(2, dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _embed_1q(op, m, n_logical):
    out = np.array([[1.0 + 0j]])
    for q in range(1, n_logical + 1):  # logical qubit 1 least significant
        out = np.kron(op if q == m else _I2, out)
    return out


def _rx_mat(theta):
    return np.cos(theta / 2) * _I2 - 1j * np.sin(theta / 2) * _X


def _rz_mat(theta):
    return np.cos(theta / 2) * _I2 - 1j * np.sin(theta / 2) * _Z


def _zz_phase(m, angle, n_logical):
    """exp(-i angle Z_m Z_{m+1}) on the logical register."""
    dim = 2**n_logical
    z = np.empty(dim)
    for idx in range(dim):
        zm = 1 - 2 * ((idx >> (m - 1)) & 1)
        zn = 1 - 2 * ((idx >> m) & 1)
        z[idx] = zm * zn
    return np.diag(np.exp(-1j * angle * z))


def _cphase_exact(m, n_logical):
    dim = 2**n_logical
    d = np.ones(dim, dtype=complex)
    for idx in range(dim):
        if (idx >> (m - 1)) & 1 and (idx >> m) & 1:
            d[idx] = -1.0
    return np.diag(d)


def _closed_form_target(gate, model, sector, exact_cphase):
    k = model.n_spins // 2
    m = gate.targets[0]
    sector_sign = -1.0 if sector == SYMMETRIC else 1.0
    if gate.kind == "rx":
        return _embed_1q(_rx_mat(gate.params[0]), m, k)
    if gate.kind == "rz":
        return _embed_1q(_rz_mat(gate.params[0]), m, k)
    if gate.kind == "euler":
        a, b, g = gate.params
        return _embed_1q(_rx_mat(a) @ _rz_mat(b) @ _rx_mat(g), m, k)
    if gate.kind == "heis_zz":
        jz = model.coupling(2 * m, 2 * m + 1).jz
        return _zz_phase(m, sector_sign * jz * gate.params[0], k)
    if exact_cphase:
        return _cphase_exact(m, k)
    return _zz_phase(m, sector_sign * np.pi / 4, k)


def _oracle_gates(k):
    for m in range(1, k + 1):
        for theta in (1.1, np.pi, -2.3, 4 * np.pi):
            yield LogicalGate("rx", (m,), (theta,))
            yield LogicalGate("rz", (m,), (theta,))
        yield LogicalGate("euler", (m,), (0.5, 1.2, -0.8))
        yield LogicalGate("euler", (m,), (np.pi, -np.pi / 2, 0.0))
        if m < k:
            yield LogicalGate("cphase", (m, m + 1))
            yield LogicalGate("heis_zz", (m, m + 1), (1.0,))
            yield LogicalGate("heis_zz", (m, m + 1), (-0.37,))


class TestTargetOracle:
    @pytest.mark.parametrize("exact_cphase", [False, True])
    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_closed_forms(self, k, sector, exact_cphase):
        model = preset_model("heisenberg", 2 * k)
        for gate in _oracle_gates(k):
            got = target_logical(gate, model, sector, exact_cphase)
            want = _closed_form_target(gate, model, sector, exact_cphase)
            assert np.max(np.abs(got - want)) <= 1e-15, gate.describe()

    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_exact_cphase_is_exactly_diagonal_signs(self, k, sector):
        model = preset_model("heisenberg", 2 * k)
        for m in range(1, k):
            got = target_logical(LogicalGate("cphase", (m, m + 1)), model, sector, True)
            assert np.array_equal(got, _cphase_exact(m, k))
            assert set(np.diag(got)) == {1.0, -1.0}
