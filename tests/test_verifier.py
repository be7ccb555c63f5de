import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from recoupler import (
    ANTISYMMETRIC,
    FREE_EVOLUTION,
    PRESET_NAMES,
    SYMMETRIC,
    CodeSpec,
    LogicalGate,
    PulseSchedule,
    PulseStep,
    apply_schedule,
    RecouplerError,
    ValidationError,
    compile_circuit,
    compile_gate,
    cost_report,
    fidelity,
    identity_suite,
    j_plus,
    preset_model,
    target_circuit,
    target_logical,
    to_matrix,
    verify_circuit,
    verify_gate,
)
from recoupler.pauli import PauliSum, site_letters
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

    @pytest.mark.parametrize("verify", [verify_gate, verify_circuit])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_tolerances_must_be_finite_and_non_negative(self, verify, bad):
        # a report holds its tolerances, and JSON has no NaN or Infinity
        subject = LogicalGate("rx", (1,), (1.1,))
        subject = [subject] if verify is verify_circuit else subject
        for tolerances in ({"tol_fidelity": bad}, {"tol_leakage": bad}):
            with pytest.raises(ValidationError,
                               match="^tolerances must be finite and non-negative$"):
                verify(subject, XXZ, **tolerances)

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


    def test_rows_are_pinned(self):
        # every preset at n = 2..8 in both sectors; the expected counts are `_GATES` data
        lines = [
            json.dumps(cost_report(preset_model(name, n), sector))
            for name in PRESET_NAMES
            for n in (2, 4, 6, 8)
            for sector in (SYMMETRIC, ANTISYMMETRIC)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "5326a86f97586d276f3be470a0dce13de317f6692d62520cea506748d3117d01"

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
        assert rep.reason == (
            "CapacityError: 40 spins: a code block of 2^20 x 2^20 entries needs 17592186044416 bytes,"
            " over the 268435456-byte budget of a dense 12-spin matrix (RECOUPLER_MAX_SPINS)"
        )
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

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("preset", ["xxz_symmetric", "xy", "heisenberg"])
    def test_a_new_row_is_verified_against_its_own_target(self, monkeypatch, preset, n):
        # one `_GATES` row, lowering, target and counts, is all a new kind needs
        from recoupler import compiler

        target, counts = (lambda model, m, a: (("ZZ", a),)), compiler._GATES["cphase"].steps
        row = compiler._Gate(2, 1, "angle", compiler._zz_phase, target, counts)
        monkeypatch.setitem(compiler._GATES, "zz", row)
        record = {"gate": "zz", "targets": [0, 1], "angle": 0.3}
        assert compiler.gate_from_dict(record) == LogicalGate("zz", (1, 2), (0.3,))
        model, k = preset_model(preset, n), n // 2
        verified = 0
        for sector in (SYMMETRIC, ANTISYMMETRIC):
            for m, angle in ((1, 0.3), (k - 1, -1.1), (1, 2.5)):
                gate = LogicalGate("zz", (m, m + 1), (angle,))
                try:
                    compile_gate(gate, model, sector)
                except RecouplerError:  # verified only in the sectors that compile
                    continue
                for rep in (verify_gate(gate, model, sector), verify_circuit([gate], model, sector)):
                    assert rep.reason == ""
                    assert 1 - rep.fidelity <= 1e-10 and rep.leakage <= 1e-8
                    verified += 1
        assert verified >= 6

    def test_circuit_reason_names_the_failing_gate(self):
        m = preset_model("electrons_on_helium", 4, epsilon=(1.0, 1.0, 1.5, 1.0))
        gates = [LogicalGate("rx", (1,), (0.7,)), LogicalGate("rz", (1,), (0.7,))]
        rep = verify_circuit(gates, m)
        assert rep.reason.startswith("DegenerateSpectrumError: gate 1 (rz): logical qubit 1:")
        assert (rep.step_count_serial, rep.step_count_parallel) == (0, 0)

    @pytest.mark.parametrize("gate, mode, ratio", [("rz", "ideal", None), ("cphase", "realistic", 100.0)])
    def test_twelve_spin_verdict_never_builds_the_dense_unitary(self, monkeypatch, gate, mode, ratio):
        # a dense 4096 x 4096 complex U alone is 256 MB; the code columns are 4 MB
        monkeypatch.delenv("RECOUPLER_MAX_SPINS", raising=False)
        model = preset_model("electrons_on_helium", 12)
        tracemalloc.start()
        try:
            rep = verify_gate(STANDARD_GATES[gate], model, mode=mode, ratio=ratio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reason == ""
        assert rep.passed or mode == "realistic"  # realistic xxz cphase is poor at n=12 today
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("preset", ["electrons_on_helium", "xy"])
    @pytest.mark.parametrize("mode,ratio", CONTRACT_MODES, ids=["ideal", "realistic"])
    def test_sixteen_spin_verdicts_evolve_only_the_reachable_rows(self, monkeypatch, preset, mode, ratio):
        # the code columns over all 2**16 rows alone would be 256 MB; the reachable
        # rows are the 256 code states, or twice that for xy cphase
        monkeypatch.delenv("RECOUPLER_MAX_SPINS", raising=False)
        model = preset_model(preset, 16)
        for gate in STANDARD_GATES.values():
            tracemalloc.start()
            try:
                rep = verify_gate(gate, model, mode=mode, ratio=ratio)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.reason == "", (gate.kind, rep.reason)
            assert rep.passed or mode == "realistic"
            assert peak < 16 * 2**20, f"{gate.kind}: peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("preset,gate,mode,ratio,bound_mb", [
        ("xy", "rz", "ideal", None, 90), ("xy", "rz", "realistic", 100.0, 80),
        ("spin_dots", "cphase", "ideal", None, 40), ("xy", "cphase", "realistic", 100.0, 40),
    ])
    def test_twenty_spin_rz_peak_memory(self, monkeypatch, preset, gate, mode, ratio, bound_mb):
        # rz's pulse groups hold 512 x 512 blocks; the ideal P(+a) and P(-a) share one
        # block build and eigh, the realistic ones differ by the background's sign. The
        # cphase rows are code ^ S, twice the code states, but each holds only the starts
        # of its own coset of S
        monkeypatch.delenv("RECOUPLER_MAX_SPINS", raising=False)
        model = preset_model(preset, 20)
        tracemalloc.start()
        try:
            rep = verify_gate(STANDARD_GATES[gate], model, mode=mode, ratio=ratio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reason == ""
        assert rep.passed or mode == "realistic"
        assert peak <= bound_mb * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_over_budget_rows_fail_before_any_register_sized_allocation(self, monkeypatch):
        tracemalloc.start()
        try:
            rep = verify_gate(CONTRACT_GATES[0], preset_model("xy", 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reason.startswith("CapacityError: 40 spins: a code block of 2^20 x 2^20")
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"
        # a budget of 16 * 4**4 bytes holds the 4**4-entry code block of 8 spins, and the
        # 16 code-state rows of an XXZ verdict, but not the 32 rows of xy cphase, each
        # with the 10 entries of its groups' unitaries
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", "4")
        assert verify_gate(STANDARD_GATES["cphase"], preset_model("electrons_on_helium", 8)).passed
        rep = verify_gate(STANDARD_GATES["cphase"], preset_model("xy", 8))
        assert rep.reason == (
            "CapacityError: 8 spins: evolving 32 reachable rows needs 5120 bytes,"
            " over the 4096-byte budget of a dense 4-spin matrix (RECOUPLER_MAX_SPINS)"
        )

    def test_one_code_block_split_per_verdict(self, monkeypatch):
        import recoupler.evolution as evolution

        calls = []
        original = evolution._code_block

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evolution, "_code_block", counted)
        verify_gate(CONTRACT_GATES[1], XXZ)
        assert len(calls) == 1
        verify_circuit(CONTRACT_GATES, XXZ, mode="realistic", ratio=100.0)
        assert len(calls) == 2

    def test_model_terms_built_once_per_model(self, monkeypatch):
        import recoupler.model as model_module

        walks, built = [], []
        walk, build = model_module._pair_terms, model_module._build_generator
        monkeypatch.setattr(model_module, "_pair_terms", lambda m: walks.append(m) or walk(m))
        monkeypatch.setattr(model_module, "_build_generator",
                            lambda m, h: built.append(h) or build(m, h))
        model = preset_model("electrons_on_helium", 6)  # nothing built for it yet
        cost_report(model)
        for ratio in (10.0, 100.0):
            for gate in STANDARD_GATES.values():
                verify_gate(gate, model, mode="realistic", ratio=ratio)
                verify_gate(gate, model)
        assert len(walks) == 1  # the background and its magnitude share one walk
        assert built and len(built) == len(set(built))
        assert set(built) <= model.controllable

    @pytest.mark.parametrize("mode,ratio", CONTRACT_MODES, ids=["ideal", "realistic"])
    def test_one_generator_per_distinct_key_and_one_eigh_per_block_size(
        self, monkeypatch, mode, ratio
    ):
        # groups with X masks share one eigh per block size; diagonal groups (the
        # windows) are a phase per row with no eigh; every distinct group is checked
        # for unitarity on its own
        import recoupler.evolution as evolution
        from recoupler.pauli import x_basis

        gates = CONTRACT_GATES + CONTRACT_GATES[:2]  # rx and rz twice, every sandwich repeats
        groups = compile_circuit(gates, XXZ).groups
        strength = ratio and ratio * XXZ.background_magnitude()
        keys = [evolution._group_key(group, XXZ, mode, strength)[0] for group in groups]
        assert len(set(keys)) < len(set(groups)) < len(groups)
        background = evolution.background_hamiltonian(XXZ)
        diagonal = {g for g, key in zip(groups, keys)
                    if not x_basis(evolution._generator(key, XXZ, background))}
        assert set() < diagonal < set(groups)
        built, sizes, owners, phased, defects = [], [], [], [], []
        build, eigh, rebuild = evolution._generator, np.linalg.eigh, evolution._exponential
        phases, check = evolution._phases, evolution._check_defects
        monkeypatch.setattr(evolution, "_generator",
                            lambda key, *args: built.append(key) or build(key, *args))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: sizes.append(h.shape[-1]) or eigh(h))
        monkeypatch.setattr(evolution, "_exponential",
                            lambda *args: owners.append(args[3]) or rebuild(*args))
        monkeypatch.setattr(evolution, "_phases",
                            lambda e, peak, t: phased.append(t) or phases(e, peak, t))
        monkeypatch.setattr(evolution, "_check_defects",
                            lambda d: defects.append(np.size(d)) or check(d))
        rep = verify_circuit(gates, XXZ, mode=mode, ratio=ratio)
        assert rep.reason == ""
        assert built == list(dict.fromkeys(keys))  # once each, in order of first appearance
        assert len(sizes) == len(set(sizes)) == len(owners)  # one eigh and one rebuild per size
        assert 1 not in sizes  # no 1 x 1 blocks: a diagonal generator runs no eigh
        blocked = len(set(groups) - diagonal)
        assert sum(np.unique(owner).size for owner in owners) == blocked  # own defects
        assert len(phased) == len(diagonal)  # one phase array per distinct diagonal group
        assert sum(defects) == len(set(groups))  # one defect per distinct group

    def test_an_ideal_rz_verdict_builds_no_block_for_its_windows(self, monkeypatch):
        # every window of an ideal rz is diagonal: energies once per generator, no block
        import recoupler.evolution as evolution

        model = preset_model("xxz_symmetric", 6)
        gate = LogicalGate("rz", (1,), (0.7,))
        schedule = compile_gate(gate, model)
        windows = {g for g in schedule.groups if g[0].handle == FREE_EVOLUTION}
        assert windows
        blocks, energies, sizes = [], [], []
        coset_blocks, diagonal, eigh = evolution.coset_blocks, evolution.diagonal, np.linalg.eigh
        monkeypatch.setattr(evolution, "coset_blocks", lambda h, states, basis:
                            blocks.append(basis) or coset_blocks(h, states, basis))
        monkeypatch.setattr(evolution, "diagonal",
                            lambda h, rows: energies.append(h) or diagonal(h, rows))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: sizes.append(h.shape[-1]) or eigh(h))
        rep = verify_gate(gate, model)
        assert rep.passed and rep.reason == ""
        assert all(blocks) and 1 not in sizes  # every block has X masks: none is a window
        targets = {g[0].target for g in windows}
        assert len(energies) == len(targets)  # one energy array per distinct window term

    @pytest.mark.parametrize("mode,ratio,pulse_builds", [("ideal", None, 1), ("realistic", 100.0, 2)])
    def test_a_sandwich_builds_its_pulse_generators_once(self, monkeypatch, mode, ratio, pulse_builds):
        # P(+a) . W(1) . P(-a) . W(2): the windows share one generator, and the two
        # pulses share exp(-i a G) in ideal mode but not with the background on
        import recoupler.evolution as evolution

        def pulse(angle):
            return (PulseStep(j_plus(1, 2), angle=angle),)

        def window(duration):
            return (PulseStep(FREE_EVOLUTION, duration=duration),)

        schedule = PulseSchedule((pulse(0.9), window(1.0), pulse(-0.9), window(2.0)))
        built = []
        build = evolution._generator
        monkeypatch.setattr(evolution, "_generator",
                            lambda key, *args: built.append(key) or build(key, *args))
        apply_schedule(schedule, XXZ, mode=mode, ratio=ratio)
        assert [pairs != () for _, pairs in built].count(True) == pulse_builds
        assert len(built) == pulse_builds + 1

    @pytest.mark.parametrize("mode,ratio", CONTRACT_MODES, ids=["ideal", "realistic"])
    def test_a_repeat_verdict_builds_no_pauli_sum_and_no_dense_matrix(self, monkeypatch, mode, ratio):
        # the model owns every term a verdict evolves, and targets are signed permutations
        import recoupler.encoding as encoding
        import recoupler.evolution as evolution
        import recoupler.verifier as verifier

        model = preset_model("electrons_on_helium", 8)
        gates = [LogicalGate("rx", (1,), (1.1,)), LogicalGate("rz", (2,), (0.7,)),
                 LogicalGate("cphase", (1, 2)), LogicalGate("euler", (3,), (0.5, 1.2, -0.8))]
        first = verify_circuit(gates, model, mode=mode, ratio=ratio)
        assert first.reason == ""
        sums, dense = [], []
        init, new = PauliSum.__init__, PauliSum._new
        monkeypatch.setattr(PauliSum, "__init__", lambda s, *args: sums.append(args) or init(s, *args))
        monkeypatch.setattr(PauliSum, "_new", lambda s, terms: sums.append(terms) or new(s, terms))
        for module in (encoding, evolution, verifier):
            build = module.to_matrix
            monkeypatch.setattr(module, "to_matrix", lambda s, build=build: dense.append(s) or build(s))
        assert verify_circuit(gates, model, mode=mode, ratio=ratio) == first
        assert sums == [] and dense == []


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


def _closed_form_target(gate, model, sector):
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
    if gate.kind == "cz":
        return _cphase_exact(m, k)
    return _zz_phase(m, sector_sign * np.pi / 4, k)


def _oracle_gates(k, cphase_kind="cphase"):
    for m in range(1, k + 1):
        for theta in (1.1, np.pi, -2.3, 4 * np.pi):
            yield LogicalGate("rx", (m,), (theta,))
            yield LogicalGate("rz", (m,), (theta,))
        yield LogicalGate("euler", (m,), (0.5, 1.2, -0.8))
        yield LogicalGate("euler", (m,), (np.pi, -np.pi / 2, 0.0))
        if m < k:
            yield LogicalGate(cphase_kind, (m, m + 1))
            yield LogicalGate("heis_zz", (m, m + 1), (1.0,))
            yield LogicalGate("heis_zz", (m, m + 1), (-0.37,))


class TestTargetOracle:
    @pytest.mark.parametrize("cphase_kind", ["cphase", "cz"])
    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_closed_forms(self, k, sector, cphase_kind):
        model = preset_model("heisenberg", 2 * k)
        for gate in _oracle_gates(k, cphase_kind):
            got = target_logical(gate, model, sector)
            want = _closed_form_target(gate, model, sector)
            assert np.max(np.abs(got - want)) <= 1e-15, gate.describe()

    @pytest.mark.parametrize("cphase_kind", ["cphase", "cz"])
    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_circuit_matches_the_dense_rotation_product(self, k, sector, cphase_kind):
        rng = np.random.default_rng(10 * k + 2 * (sector == SYMMETRIC) + (cphase_kind == "cz"))
        model = preset_model("heisenberg", 2 * k)
        kinds = ["rx", "rz", "euler"] + [cphase_kind, "heis_zz"] * (k > 1)
        for _ in range(8):
            gates = [_random_gate(rng, str(rng.choice(kinds)), k) for _ in range(rng.integers(1, 13))]
            want = np.eye(2**k)
            for gate in gates:
                want = _dense_target(gate, model, sector) @ want
            got = target_circuit(gates, model, sector)
            assert np.max(np.abs(got - want)) <= 1e-14, [g.describe() for g in gates]

    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cz_is_exactly_diagonal_signs(self, k, sector):
        model = preset_model("heisenberg", 2 * k)
        for m in range(1, k):
            got = target_logical(LogicalGate("cz", (m, m + 1)), model, sector)
            assert np.array_equal(got, _cphase_exact(m, k))
            assert set(np.diag(got)) == {1.0, -1.0}


# -- dense oracle for target_circuit: each rotation as the dense Pauli sum
# cos(a) I - i sin(a) P, each gate as their matrix product


def _dense_rotation(k, sites, angle):
    terms = {"I" * k: np.cos(angle), site_letters(k, sites): -1j * np.sin(angle)}
    return to_matrix(PauliSum(k, terms))


def _dense_target(gate, model, sector):
    k = model.n_spins // 2
    m = gate.targets[0]
    if gate.kind in ("rx", "rz"):
        return _dense_rotation(k, {m: gate.kind[1].upper()}, gate.params[0] / 2)
    if gate.kind == "euler":
        a, b, g = gate.params
        x = {m: "X"}
        return _dense_rotation(k, x, a / 2) @ _dense_rotation(k, {m: "Z"}, b / 2) @ _dense_rotation(
            k, x, g / 2
        )
    sector_sign = -1.0 if sector == SYMMETRIC else 1.0
    zz = {m: "Z", m + 1: "Z"}
    if gate.kind == "heis_zz":
        jz = model.coupling(2 * m, 2 * m + 1).jz
        return _dense_rotation(k, zz, sector_sign * jz * gate.params[0])
    if gate.kind == "cz":  # (I + Z_m + Z_{m+1} - Z_m Z_{m+1}) / 2
        halves = (({}, 0.5), ({m: "Z"}, 0.5), ({m + 1: "Z"}, 0.5), (zz, -0.5))
        return to_matrix(PauliSum(k, {site_letters(k, s): c for s, c in halves}))
    return _dense_rotation(k, zz, sector_sign * np.pi / 4)


def _random_gate(rng, kind, k):
    m = int(rng.integers(1, k + (kind in ("rx", "rz", "euler"))))
    params = {"rx": 1, "rz": 1, "euler": 3, "cphase": 0, "cz": 0, "heis_zz": 1}[kind]
    targets = (m,) if kind in ("rx", "rz", "euler") else (m, m + 1)
    return LogicalGate(kind, targets, tuple(rng.uniform(-2 * np.pi, 2 * np.pi, size=params)))
