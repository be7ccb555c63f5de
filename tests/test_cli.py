import csv
import json

import pytest

from recoupler import model_to_dict, preset_model
from recoupler.cli import main


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(preset_model("electrons_on_helium", 4))))
    return str(path)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(
        json.dumps(
            [
                {"gate": "rx", "target": 0, "angle": 1.5707963267948966},
                {"gate": "cphase", "targets": [0, 1]},
            ]
        )
    )
    return str(path)


class TestCompile:
    def test_writes_schedule_with_counts(self, model_file, circuit_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        rc = main(["compile", "--model", model_file, "--circuit", circuit_file, "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        steps = sum(len(g) for g in data["groups"])
        assert steps == 1 + 6
        err = capsys.readouterr().err
        assert "7 serial" in err and "5 parallel" in err

    def test_empty_circuit(self, model_file, tmp_path):
        circ = tmp_path / "empty.json"
        circ.write_text("[]")
        out = tmp_path / "s.json"
        rc = main(["compile", "--model", model_file, "--circuit", circ.as_posix(), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["groups"] == []

    def test_non_adjacent_targets_exit_2(self, model_file, tmp_path, capsys):
        circ = tmp_path / "bad.json"
        circ.write_text(json.dumps([{"gate": "cphase", "targets": [0, 2]}]))
        rc = main(["compile", "--model", model_file, "--circuit", str(circ)])
        assert rc == 2
        assert "adjacent" in capsys.readouterr().err

    def test_missing_file_exit_2(self, model_file):
        assert main(["compile", "--model", model_file, "--circuit", "/nonexistent.json"]) == 2

    def test_preset_shortcut(self, circuit_file, tmp_path):
        out = tmp_path / "s.json"
        rc = main([
            "compile", "--model", "preset:electrons_on_helium:4",
            "--circuit", circuit_file, "--out", str(out),
        ])
        assert rc == 0

    def test_exact_cphase_flag(self, model_file, tmp_path):
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps([{"gate": "cphase", "targets": [0, 1]}]))
        out = tmp_path / "s.json"
        rc = main([
            "compile", "--model", model_file, "--circuit", str(circ),
            "--exact-cphase", "--out", str(out),
        ])
        assert rc == 0
        steps = sum(len(g) for g in json.loads(out.read_text())["groups"])
        assert steps == 6 + 8  # bare phase gate plus two local z corrections
        rep_out = tmp_path / "r.json"
        rc = main([
            "verify", "--model", model_file, "--circuit", str(circ),
            "--exact-cphase", "--out", str(rep_out),
        ])
        assert rc == 0
        assert all(r["pass"] for r in json.loads(rep_out.read_text()))


class TestRoundTrip:
    def test_compile_then_simulate_and_verify(self, model_file, circuit_file, tmp_path):
        sched = tmp_path / "sched.json"
        assert main(["compile", "--model", model_file, "--circuit", circuit_file, "--out", str(sched)]) == 0

        sim_out = tmp_path / "sim.json"
        rc = main(["simulate", "--model", model_file, "--schedule", str(sched), "--out", str(sim_out)])
        assert rc == 0
        sim = json.loads(sim_out.read_text())
        assert sim["unitary_defect"] < 1e-10
        assert sim["leakage"] < 1e-10

        rep_out = tmp_path / "rep.json"
        rc = main(["verify", "--model", model_file, "--circuit", circuit_file, "--out", str(rep_out)])
        assert rc == 0
        reports = json.loads(rep_out.read_text())
        assert all(r["pass"] for r in reports)
        circuit_row = reports[-1]
        assert circuit_row["step_count_serial"] == sum(
            len(g) for g in json.loads(sched.read_text())["groups"]
        )

    def test_recompile_is_bitwise_identical(self, model_file, circuit_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["compile", "--model", model_file, "--circuit", circuit_file, "--out", str(a)])
        main(["compile", "--model", model_file, "--circuit", circuit_file, "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestVerify:
    def test_realistic_low_ratio_fails_exit_1(self, model_file, circuit_file, tmp_path):
        rc = main([
            "verify", "--model", model_file, "--circuit", circuit_file,
            "--mode", "realistic", "--ratio", "10", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1

    def test_negative_tolerance_exit_2(self, model_file, circuit_file):
        rc = main([
            "verify", "--model", model_file, "--circuit", circuit_file,
            "--tol-fidelity", "-1e-8",
        ])
        assert rc == 2

    def test_nan_tolerance_exit_2(self, model_file, circuit_file, capsys):
        rc = main([
            "verify", "--model", model_file, "--circuit", circuit_file,
            "--tol-leakage", "nan",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: tolerances must be non-negative\n"

    def test_realistic_without_ratio_exit_2(self, model_file, circuit_file):
        rc = main([
            "verify", "--model", model_file, "--circuit", circuit_file, "--mode", "realistic",
        ])
        assert rc == 2

    def test_suite_flag(self, model_file, tmp_path):
        out = tmp_path / "suite.json"
        rc = main([
            "verify", "--model", model_file, "--suite", "identities",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        entries = json.loads(out.read_text())
        assert all(e["pass"] for e in entries)
        assert len(entries) == 12


class TestSuiteCommand:
    def test_table_output(self, capsys):
        rc = main(["suite"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nmr_ising_recoupling" in out
        assert "xy_cphase_perturbation" in out


class TestCost:
    def test_table(self, model_file, capsys):
        rc = main(["cost", "--model", model_file, "--format", "table"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cphase" in out and "isotropic_zz_3spin_encoding" in out

    def test_json(self, tmp_path, capsys):
        rc = main(["cost", "--model", "preset:spin_dots", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["gate"] for r in rows} >= {"rx", "rz", "euler", "cphase", "heis_zz"}


class TestSweep:
    def test_csv_rows_and_monotone(self, model_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--model", model_file, "--ratios", "10,100,1000",
            "--gates", "rz", "--out", str(out),
        ])
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["ratio"] for r in rows] == ["10", "100", "1000"]
        fids = [float(r["fidelity"]) for r in rows]
        assert fids[0] <= fids[1] + 1e-6 and fids[1] <= fids[2] + 1e-6

    def test_single_ratio(self, model_file, tmp_path, capsys):
        rc = main(["sweep", "--model", model_file, "--ratios", "50", "--gates", "rz"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 1

    def test_inf_sentinel_is_ideal(self, model_file, capsys):
        rc = main(["sweep", "--model", model_file, "--ratios", "inf", "--gates", "rz,cphase"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        for row in rows:
            assert row["ratio"] == "inf"
            assert float(row["fidelity"]) >= 1 - 1e-10

    def test_bad_ratio_exit_2(self, model_file):
        assert main(["sweep", "--model", model_file, "--ratios", "-3"]) == 2

    def test_unparsable_ratio_exit_2(self, model_file, capsys):
        assert main(["sweep", "--model", model_file, "--ratios", "10,abc"]) == 2
        assert capsys.readouterr().err == "error: bad ratio 'abc'\n"

    def test_nan_ratio_exit_2(self, model_file, capsys):
        assert main(["sweep", "--model", model_file, "--ratios", "nan"]) == 2
        assert capsys.readouterr().err == "error: ratio must be positive, got nan\n"

    def test_infinity_spelling_is_ideal(self, model_file, capsys):
        rc = main(["sweep", "--model", model_file, "--ratios", "10,INF,Infinity", "--gates", "rz"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["ratio"] for r in rows] == ["10", "inf", "inf"]

    def test_unknown_gate_exit_2(self, model_file):
        assert main(["sweep", "--model", model_file, "--ratios", "10", "--gates", "bogus"]) == 2


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_verify_without_circuit_or_suite_exit_2(self, model_file):
        assert main(["verify", "--model", model_file]) == 2

    def test_unparsable_spin_count_exit_2(self, capsys):
        assert main(["cost", "--model", "preset:spin_dots:abc"]) == 2
        assert capsys.readouterr().err == (
            "error: bad spin count 'abc' in 'preset:spin_dots:abc'\n"
        )


class TestNonFiniteInput:
    def test_infinite_gate_angle_exit_2(self, model_file, tmp_path, capsys):
        circ = tmp_path / "inf.json"
        circ.write_text('[{"gate": "rz", "target": 0, "angle": Infinity}]')
        assert main(["verify", "--model", model_file, "--circuit", str(circ)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rz parameters must be finite, got (inf,)\n"

    def test_infinite_duration_exit_2(self, model_file, tmp_path, capsys):
        sched = tmp_path / "inf.json"
        sched.write_text('{"groups": [[{"handle": "free_evolution", "duration": Infinity}]]}')
        assert main(["simulate", "--model", model_file, "--schedule", str(sched)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step free_evolution: duration must be finite, got inf\n"

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_realistic_ratio_exit_2(self, model_file, circuit_file, capsys, ratio):
        argv = ["verify", "--model", model_file, "--circuit", circuit_file]
        assert main(argv + ["--mode", "realistic", "--ratio", ratio]) == 2
        assert capsys.readouterr().err.startswith("error: realistic mode needs --ratio")


class TestMalformedJsonInput:
    """Every bad JSON input exits 2 with one `error:` line and no traceback."""

    @staticmethod
    def _one_error_line(capsys, want):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert want in captured.err

    @pytest.mark.parametrize(
        "record, want",
        [
            ({"gate": "rz", "target": 0, "angle": "abc"}, "could not convert string to float"),
            ({"gate": "rz", "target": "x", "angle": 1.0}, "invalid literal for int()"),
        ],
    )
    def test_bad_gate_values(self, model_file, tmp_path, capsys, record, want):
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps([record]))
        assert main(["verify", "--model", model_file, "--circuit", str(circ)]) == 2
        self._one_error_line(capsys, want)

    @pytest.mark.parametrize(
        "content",
        ["5", '"text"', "[1, 2]", '{"kind": "xy", "n_spins": "abc", "epsilon": [], "couplings": []}',
         '{"preset": "xy", "n_spins": "abc"}'],
    )
    def test_bad_model_file(self, circuit_file, tmp_path, capsys, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        assert main(["verify", "--model", str(path), "--circuit", circuit_file]) == 2
        self._one_error_line(capsys, "malformed model JSON")

    @pytest.mark.parametrize(
        "step, want",
        [
            ({"handle": 5, "angle": 1.0}, "cannot parse handle 5"),
            ({"handle": "free_evolution", "duration": 1.0, "target": 5}, "bad free-evolution target 5"),
            ({"handle": "free_evolution", "duration": 1.0, "target": "t_z(x)"}, "bad free-evolution"),
            ({"handle": "j_plus(1,2)", "strength": "abc", "duration": 0.5}, "malformed step"),
        ],
    )
    def test_bad_schedule_step(self, model_file, tmp_path, capsys, step, want):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"groups": [[step]]}))
        assert main(["simulate", "--model", model_file, "--schedule", str(sched)]) == 2
        self._one_error_line(capsys, want)

    @pytest.mark.parametrize("flag", ["--model", "--circuit"])
    def test_directory_as_input_file(self, model_file, circuit_file, tmp_path, capsys, flag):
        files = {"--model": model_file, "--circuit": circuit_file, flag: str(tmp_path)}
        argv = ["verify", "--model", files["--model"], "--circuit", files["--circuit"]]
        assert main(argv) == 2
        self._one_error_line(capsys, f"error: [Errno 21] Is a directory: '{tmp_path}'")

    def test_missing_schedule_message_unchanged(self, model_file, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        assert main(["simulate", "--model", model_file, "--schedule", missing]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_strength_duration_written_back_as_angle(self, model_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        step = {"handle": "j_plus(1,2)", "strength": 3.0, "duration": 0.2}
        sched.write_text(json.dumps({"groups": [[step]]}))
        assert main(["simulate", "--model", model_file, "--schedule", str(sched)]) == 0
        from recoupler import load_schedule, schedule_to_dict

        assert schedule_to_dict(load_schedule(str(sched)))["groups"] == [
            [{"handle": "j_plus(1,2)", "mode": "ideal", "angle": 3.0 * 0.2}]
        ]


class TestOutOfRangeModels:
    """Registers above the spin cap and overflowing strengths fail cleanly."""

    @pytest.fixture
    def rx_file(self, tmp_path):
        path = tmp_path / "rx.json"
        path.write_text(json.dumps([{"gate": "rx", "target": 0, "angle": 0.5}]))
        return str(path)

    def test_verify_over_cap_fails_the_verdict(self, rx_file, capsys):
        assert main(["verify", "--model", "preset:xy:40", "--circuit", rx_file, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        reasons = {row["reason"] for row in json.loads(captured.out)}
        assert reasons == {"CapacityError: 40 spins exceeds dense cap 12 (RECOUPLER_MAX_SPINS)"}

    def test_simulate_over_cap_exit_2(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"groups": [[{"handle": "j_plus(1,2)", "angle": 0.5}]]}))
        assert main(["simulate", "--model", "preset:xy:40", "--schedule", str(sched)]) == 2
        TestMalformedJsonInput._one_error_line(capsys, "40 spins exceeds dense cap 12")

    def test_overflowing_realistic_strength_reason(self, rx_file, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"preset": "xy", "epsilon": [1e308, -1e308, 1e308, -1e308]}))
        argv = ["verify", "--model", str(path), "--circuit", rx_file, "--format", "json"]
        assert main(argv + ["--mode", "realistic", "--ratio", "10"]) == 1
        reasons = {row["reason"] for row in json.loads(capsys.readouterr().out)}
        assert reasons == {"ValidationError: realistic pulse strength 10 x 1e+308 overflows"}
