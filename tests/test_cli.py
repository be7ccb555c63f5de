import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recoupler
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

    def test_cz_gate(self, model_file, tmp_path):
        circ = tmp_path / "c.json"
        circ.write_text(json.dumps([{"gate": "cz", "targets": [0, 1]}]))
        out = tmp_path / "s.json"
        rc = main(["compile", "--model", model_file, "--circuit", str(circ), "--out", str(out)])
        assert rc == 0
        schedule = json.loads(out.read_text())
        steps = sum(len(g) for g in schedule["groups"])
        assert steps == 6 + 8  # bare phase gate plus two local z corrections
        assert schedule["metadata"]["exact_cphase"] is True
        rep_out = tmp_path / "r.json"
        rc = main(["verify", "--model", model_file, "--circuit", str(circ), "--out", str(rep_out)])
        assert rc == 0
        assert all(r["pass"] for r in json.loads(rep_out.read_text()))

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_exact_cphase_flag_is_gone(self, model_file, circuit_file, capsys, command):
        argv = [command, "--model", model_file, "--circuit", circuit_file, "--exact-cphase"]
        assert main(argv) == 2
        assert "unrecognized arguments: --exact-cphase" in capsys.readouterr().err


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
        assert capsys.readouterr().err == "error: tolerances must be finite and non-negative\n"

    @pytest.mark.parametrize("flag", ["--tol-fidelity", "--tol-leakage"])
    @pytest.mark.parametrize("value", ["inf", "Infinity"])
    def test_infinite_tolerance_exit_2(self, model_file, circuit_file, capsys, flag, value):
        # JSON has no Infinity: the report would echo the tolerance as invalid JSON
        rc = main(["verify", "--model", model_file, "--circuit", circuit_file, flag, value])
        assert rc == 2
        assert capsys.readouterr().err == "error: tolerances must be finite and non-negative\n"

    @pytest.mark.parametrize(
        "extra,code", [([], 0), (["--mode", "realistic", "--ratio", "1e-320"], 1)]
    )
    def test_json_report_parses_with_a_strict_parser(self, model_file, circuit_file, capsys,
                                                     extra, code):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        argv = ["verify", "--model", model_file, "--circuit", circuit_file, "--format", "json"]
        assert main(argv + extra) == code
        rows = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert len(rows) == 3 and all(row["tol_fidelity"] == 1e-8 for row in rows)

    def test_realistic_without_ratio_exit_2(self, model_file, circuit_file):
        rc = main([
            "verify", "--model", model_file, "--circuit", circuit_file, "--mode", "realistic",
        ])
        assert rc == 2

    @pytest.mark.parametrize("ratio", ["1e-320", "5e-324"])
    def test_underflowing_pulse_strength_is_each_rows_reason(self, model_file, circuit_file,
                                                             capsys, ratio):
        rc = main([
            "verify", "--model", model_file, "--circuit", circuit_file, "--mode", "realistic",
            "--ratio", ratio,
        ])
        assert rc == 1
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        strength = f"{float(ratio) * 1.6:g}"  # times the background magnitude
        for row in rows:
            assert not row["pass"]
            assert row["reason"] == (
                f"ValidationError: realistic pulse strength {strength} underflows: pulses never end"
            )


class TestSuiteCommand:
    def test_table_output(self, capsys):
        rc = main(["suite"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nmr_ising_recoupling" in out
        assert "xy_cphase_perturbation" in out

    def test_json_out(self, tmp_path):
        out = tmp_path / "suite.json"
        assert main(["suite", "--format", "json", "--out", str(out)]) == 0
        entries = json.loads(out.read_text())
        assert all(e["pass"] for e in entries)
        assert len(entries) == 12


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

    def test_a_ratio_whose_phases_keep_no_digit_exit_2(self, capsys):
        # at ratio 1e-300 a pulse turns the background by ~1e300 rad: no fidelity is
        # printed, one error line instead; at 1e-6 the phases still carry digits
        argv = ["sweep", "--model", "preset:heisenberg:4", "--gates", "rz", "--ratios"]
        assert main([*argv, "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sweep rz at ratio 1e-300: ValidationError: realistic pulse angle 1.5708 at"
            " strength 1.6e-300: the background turns 1.57e+300 rad, over 2**52\n"
        )
        assert main([*argv, "1e-6"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["ratio"] for r in rows] == ["1e-06"]
        assert 0 < float(rows[0]["fidelity"]) <= 1

    def test_distinct_ratios_print_apart(self, model_file, capsys):
        # `g` text alone reads 0.1 twice; a ratio prints as text that reads back as itself
        assert main(["sweep", "--model", model_file, "--ratios", "0.1,0.1000001", "--gates", "rz"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["ratio"] for r in rows] == ["0.1", "0.1000001"]
        assert rows[0]["fidelity"] != rows[1]["fidelity"]

    def test_bad_ratio_exit_2(self, model_file):
        assert main(["sweep", "--model", model_file, "--ratios", "-3"]) == 2

    def test_unparsable_ratio_exit_2(self, model_file, capsys):
        assert main(["sweep", "--model", model_file, "--ratios", "10,abc"]) == 2
        assert capsys.readouterr().err == "error: bad ratio 'abc'\n"
        for empty in ("", ","):  # every split part is a ratio, and an empty one is no number
            assert main(["sweep", "--model", model_file, "--ratios", empty]) == 2
            assert capsys.readouterr().err == "error: bad ratio ''\n"

    def test_nan_ratio_exit_2(self, model_file, capsys):
        assert main(["sweep", "--model", model_file, "--ratios", "nan"]) == 2
        assert capsys.readouterr().err == "error: ratio must be positive, got nan\n"

    def test_infinity_spelling_is_ideal(self, model_file, capsys):
        rc = main(["sweep", "--model", model_file, "--ratios", "10,INF,Infinity", "--gates", "rz"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["ratio"] for r in rows] == ["10", "inf", "inf"]

    def test_signed_inf_is_ideal(self, model_file, capsys):
        rc = main(["sweep", "--model", model_file, "--ratios", "10,+inf", "--gates", "rz"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["ratio"] for r in rows] == ["10", "inf"]
        assert float(rows[1]["fidelity"]) >= 1 - 1e-10

    def test_negative_inf_exit_2(self, model_file, capsys):
        # inside a list: argparse would read a bare "-inf" as an option
        assert main(["sweep", "--model", model_file, "--ratios", "10,-inf"]) == 2
        assert capsys.readouterr().err == "error: ratio must be positive, got -inf\n"

    def test_unknown_gate_exit_2(self, model_file):
        assert main(["sweep", "--model", model_file, "--ratios", "10", "--gates", "bogus"]) == 2

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["--model", "preset:xy:4", "--sector", "antisymmetric", "--ratios", "10,inf"],
                "error: sweep rz at ratio 10: ControllabilityError: handle j_minus(3,4)"
                " is not controllable in model 'xy'\n",
            ),
            (  # the pulse strength ratio x 1.6 is subnormal: |angle| / strength is inf
                ["--model", "preset:heisenberg:4", "--ratios", "1e-320"],
                "error: sweep rz at ratio 9.99989e-321: ValidationError: realistic pulse"
                " strength 1.59978e-320 underflows: pulses never end\n",
            ),
            (
                ["--model", "preset:heisenberg:4", "--ratios", "5e-324"],
                "error: sweep rz at ratio 4.94066e-324: ValidationError: realistic pulse"
                " strength 9.88131e-324 underflows: pulses never end\n",
            ),
        ],
    )
    def test_failed_verdict_exit_2(self, capsys, argv, want):
        # a failed verdict is no measurement: no 0.0,1.0 row, one error line instead
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == want


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_verify_without_circuit_exit_2(self, model_file, capsys):
        assert main(["verify", "--model", model_file]) == 2
        assert "the following arguments are required: --circuit" in capsys.readouterr().err

    def test_unparsable_spin_count_exit_2(self, capsys):
        assert main(["cost", "--model", "preset:spin_dots:abc"]) == 2
        assert capsys.readouterr().err == (
            "error: bad spin count 'abc' in 'preset:spin_dots:abc'\n"
        )

    @pytest.mark.parametrize("value", ["preset:xy:4:junk", "preset:xy:4:", "preset:xy::4"])
    def test_fields_after_the_spin_count_exit_2(self, capsys, value):
        assert main(["cost", "--model", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: extra fields after the spin count in {value!r}\n"

    @pytest.mark.parametrize("value", ["abc", "", "0", "-3"])
    def test_bad_spin_cap_exit_2(self, monkeypatch, capsys, value):
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", value)
        assert main(["suite"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: RECOUPLER_MAX_SPINS must be a positive integer, got {value!r}\n"
        )


def test_out_of_memory_exit_2():
    """A register too large for the address space ends in one error line, not a
    MemoryError traceback; the limit is set in the child process only."""
    script = (
        "import resource, sys\n"
        "from recoupler.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "sys.exit(main(['cost', '--model', 'preset:xy:100000000']))\n"
    )
    src = str(Path(recoupler.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1


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

    @pytest.mark.parametrize("step, message", [
        # the pulse's ZZ is one phase per coset: its blocks stay finite, past 2**52 rad
        pytest.param('{"handle": "heis(1,2)", "angle": -1.7e308}',
                     "propagator phases turn 1.7e+308 rad, over 2**52",
                     id='{"handle": "heis(1,2)", "angle": -1.7e308}'),
        pytest.param('{"handle": "free_evolution", "duration": 1e308}',
                     "propagator lost unitarity (defect nan)",
                     id='{"handle": "free_evolution", "duration": 1e308}'),
    ])
    def test_overflowing_phases_print_only_the_error(self, tmp_path, capsys, step, message):
        # finite inputs whose phases overflow or keep no digit: one message
        sched = tmp_path / "overflow.json"
        sched.write_text('{"groups": [[' + step + ']]}')
        argv = ["simulate", "--model", "preset:spin_dots:4", "--schedule", str(sched)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
            ({"gate": "rx", "target": 0.9, "angle": 1.0}, "index must be an integer, got 0.9"),
            ({"gate": "rz", "target": True, "angle": 1.0}, "index must be an integer, got True"),
            ({"gate": "cphase", "targets": [0.2, 1.7]}, "index must be an integer, got 0.2"),
            ({"gate": "cphase", "targets": "01"}, "expected a list of numbers, got '01'"),
            ({"gate": "euler", "target": 0, "angles": "123"}, "expected a list of numbers, got '123'"),
            ({"gate": "euler", "target": 0, "angles": [1, True, 2]}, "expected a number, got True"),
            ({"gate": "rx", "target": 0, "angle": True}, "expected a number, got True"),
            ({"gate": "rx", "target": -1, "angle": 1}, "targets are 0-based indices, not negative"),
            ({"gate": "cz", "targets": [-1, 0]}, "targets are 0-based indices, not negative"),
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
         '{"preset": "xy", "n_spins": "abc"}',
         '{"kind": "xy", "n_spins": 4.9, "epsilon": [1, 2, 3, 4], "couplings": []}',
         '{"kind": "xy", "n_spins": true, "epsilon": [1, 2, 3, 4], "couplings": []}',
         '{"kind": "xy", "n_spins": 4, "epsilon": [1, 2, 3, 4], "couplings": [{"i": 1.2, "j": 2}]}',
         '{"kind": "xy", "n_spins": 4, "epsilon": [1, 2, 3, 4], "couplings": [{"i": 1, "j": 2.8}]}',
         '{"kind": "xy", "n_spins": 4, "epsilon": "1234", "couplings": []}',
         '{"kind": "xy", "n_spins": 4, "epsilon": [1, 2, 3, true], "couplings": []}',
         '{"kind": "xy", "n_spins": 4, "epsilon": [1, 2, 3, 4],'
         ' "couplings": [{"i": 1, "j": 2, "jx": true, "jy": 1.0}]}',
         '{"preset": "xy", "epsilon": [true, false, true, false]}',
         '{"kind": "xy", "n_spins": 4, "epsilon": [1, 2, 3, 4], "couplings": [],'
         ' "controllable": "free_evolution"}',
         '{"kind": "xy", "n_spins": 4, "epsilon": [1, 2, 3, 4], "couplings": [],'
         ' "controllable": {"free_evolution": 1}}',
         '{"kind": "xy", "n_spins": 4, "epsilon": [1, 2, 3, 4], "couplings": [], "name": ["x"]}'],
    )
    def test_bad_model_file(self, circuit_file, tmp_path, capsys, content):
        path = tmp_path / "m.json"
        path.write_text(content)
        assert main(["verify", "--model", str(path), "--circuit", circuit_file]) == 2
        self._one_error_line(capsys, "malformed model JSON")

    def test_wrong_typed_schedule_metadata(self, model_file, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"groups": [], "metadata": []}))
        assert main(["simulate", "--model", model_file, "--schedule", str(sched)]) == 2
        self._one_error_line(capsys, "malformed schedule JSON: expected 'metadata' as an object")

    @pytest.mark.parametrize(
        "step, want",
        [
            ({"handle": 5, "angle": 1.0}, "cannot parse handle 5"),
            ({"handle": "free_evolution", "duration": 1.0, "target": 5}, "bad free-evolution target 5"),
            ({"handle": "free_evolution", "duration": 1.0, "target": "t_z(x)"}, "bad free-evolution"),
            ({"handle": "j_plus(1,2)", "strength": "abc", "duration": 0.5}, "malformed step"),
            ({"handle": "free_evolution", "duration": True}, "expected a number, got True"),
            ({"handle": "j_plus(1,2)", "angle": False}, "expected a number, got False"),
            ({"handle": "j_plus(1,2)", "strength": True, "duration": 0.5}, "expected a number"),
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

    def test_directory_as_output_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "DIR"
        out.mkdir()
        assert main(["suite", "--out", str(out)]) == 2
        self._one_error_line(capsys, "Is a directory")
        assert [p.name for p in tmp_path.iterdir()] == ["DIR"]

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
        assert reasons == {
            "CapacityError: 40 spins: a code block of 2^20 x 2^20 entries needs 17592186044416 bytes,"
            " over the 268435456-byte budget of a dense 12-spin matrix (RECOUPLER_MAX_SPINS)"
        }

    def test_simulate_over_cap_exit_2(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"groups": [[{"handle": "j_plus(1,2)", "angle": 0.5}]]}))
        assert main(["simulate", "--model", "preset:xy:40", "--schedule", str(sched)]) == 2
        TestMalformedJsonInput._one_error_line(
            capsys,
            "error: 40 spins: a unitary of 2^40 x 2^40 entries needs 19342813113834066795298816"
            " bytes, over the 268435456-byte budget of a dense 12-spin matrix"
            " (RECOUPLER_MAX_SPINS)\n",
        )

    def test_overflowing_realistic_strength_reason(self, rx_file, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"preset": "xy", "epsilon": [1e308, -1e308, 1e308, -1e308]}))
        argv = ["verify", "--model", str(path), "--circuit", rx_file, "--format", "json"]
        assert main(argv + ["--mode", "realistic", "--ratio", "10"]) == 1
        reasons = {row["reason"] for row in json.loads(capsys.readouterr().out)}
        assert reasons == {"ValidationError: realistic pulse strength 10 x 1e+308 overflows"}
