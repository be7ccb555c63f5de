"""Derandomized fuzz of the command-line front end.

Any argv over the six subcommands, presets with at most 6 spins, and
malformed model, circuit and schedule files must return 0, 1 or 2 without
raising; exit 2 must print exactly one `error:` line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoupler import PRESET_NAMES, model_to_dict, preset_model
from recoupler.cli import main

# reproduced malformed inputs that once escaped as tracebacks
KNOWN_BAD_CIRCUITS = [
    '[{"gate": "rz", "target": 0, "angle": "abc"}]',
    '[{"gate": "rz", "target": "x", "angle": 1.0}]',
    '[{"gate": "rz", "target": 0, "angle": Infinity}]',
]
KNOWN_BAD_MODELS = [
    "5",
    '{"kind": "xy", "n_spins": "abc", "epsilon": [1, 2], "couplings": []}',
    '{"preset": "xy", "n_spins": "abc"}',
]
KNOWN_BAD_SCHEDULES = [
    '{"groups": [[{"handle": 5, "angle": 1.0}]]}',
    '{"groups": [[{"handle": "free_evolution", "duration": 1.0, "target": 5}]]}',
    '{"groups": [[{"handle": "free_evolution", "duration": Infinity}]]}',
]
NOT_JSON = ["", "{", "[1,", "nul", "\xff"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(-10, 10)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, 0.0])
    | st.text("abxz_(),01", max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abcdegijknst_", max_size=8), inner, max_size=3),
    max_leaves=8,
)
angles = st.floats(-7, 7)
numbers = angles | scalars
spin_counts = st.sampled_from([2, 4, 6])
records = st.fixed_dictionaries

valid_gates = st.one_of(
    records({"gate": st.sampled_from(["rx", "rz"]), "target": st.integers(0, 2), "angle": angles}),
    records(
        {"gate": st.just("euler"), "target": st.integers(0, 2), "angles": st.tuples(*[angles] * 3)}
    ),
    records({"gate": st.sampled_from(["cphase", "cz"]), "targets": st.sampled_from([[0, 1], [1, 2]])}),
    records({"gate": st.just("heis_zz"), "target": st.integers(0, 1), "time": angles}),
)
gate_records = valid_gates | records(
    {"gate": st.sampled_from(["rx", "rz", "euler", "cphase", "cz", "heis_zz", "bogus"]) | scalars},
    optional={
        "target": st.integers(-1, 3) | scalars,
        "targets": st.lists(st.integers(-1, 3) | scalars, max_size=3),
        "angle": numbers,
        "angles": st.lists(numbers, max_size=4),
        "time": numbers,
    },
)

handles = ["j_plus(1,2)", "j_plus(3,4)", "j_minus(1,2)", "heis(1,2)", "sigma_x(1)", "j_z(2,3)"]
targets = ["t_z(1)", "r_z(2)", "zz(2,3)"]
valid_steps = records(
    {"handle": st.sampled_from(handles), "angle": angles},
    optional={"mode": st.sampled_from(["ideal", "realistic"])},
) | records(
    {"handle": st.just("free_evolution"), "duration": st.floats(0, 5)},
    optional={"target": st.sampled_from(targets)},
)
steps = valid_steps | records(
    {"handle": st.sampled_from(handles + ["free_evolution", "bogus", "j_plus(2,1)"]) | scalars},
    optional={
        "angle": numbers,
        "duration": numbers,
        "strength": numbers,
        "target": st.sampled_from(targets + ["zz(1,4)", "t_z(9)", "zz(3,2)"]) | scalars,
        "mode": st.sampled_from(["ideal", "realistic", "fast"]) | scalars,
    },
)

preset_models = st.builds(
    lambda name, n: model_to_dict(preset_model(name, n)), st.sampled_from(PRESET_NAMES), spin_counts
)
mutated_models = st.builds(
    lambda data, key, value: {**data, key: value},
    preset_models,
    st.sampled_from(["kind", "n_spins", "epsilon", "couplings", "controllable", "name"]),
    json_values,
)
preset_records = records(
    {"preset": st.sampled_from(PRESET_NAMES) | scalars},
    optional={"n_spins": spin_counts | scalars, "epsilon": json_values},
)


def _files(known_bad, *shapes):
    return st.sampled_from(known_bad + NOT_JSON) | st.one_of(*shapes, json_values).map(json.dumps)


model_files = _files(KNOWN_BAD_MODELS, preset_models, mutated_models, preset_records)
circuit_files = _files(
    KNOWN_BAD_CIRCUITS, st.lists(valid_gates, max_size=3), st.lists(gate_records, max_size=3)
)
schedule_files = _files(
    KNOWN_BAD_SCHEDULES,
    records({"groups": st.lists(st.lists(valid_steps, min_size=1, max_size=1), max_size=4)}),
    records(
        {"groups": st.lists(st.lists(steps, min_size=1, max_size=2), max_size=3)},
        optional={"metadata": json_values},
    ),
)
valid_presets = st.builds(
    lambda name, n: f"preset:{name}:{n}", st.sampled_from(PRESET_NAMES), st.sampled_from("246")
)
preset_args = st.builds(
    lambda name, n: f"preset:{name}:{n}",
    st.sampled_from(PRESET_NAMES + ("bogus",)),
    st.sampled_from(["2", "4", "6", "abc", "3", "0"]),
)
ratios = st.sampled_from(["10", "100", "1e4", "0", "-1", "nan", "inf", "abc"])


@st.composite
def invocations(draw):
    """(argv, {file name: content}); paths use the placeholder {work}."""
    files = {
        "model.json": draw(model_files),
        "circuit.json": draw(circuit_files),
        "schedule.json": draw(schedule_files),
    }
    paths = st.sampled_from(["{work}/model.json", "{work}", "{work}/missing.json"])
    model = draw(valid_presets | preset_args | paths)
    command = draw(st.sampled_from(["compile", "simulate", "verify", "suite", "cost", "sweep"]))
    sector = draw(st.sampled_from(["symmetric", "antisymmetric"]))
    argv = [command]
    if command != "suite":
        argv += ["--model", model, "--sector", sector]
    if command in ("compile", "verify"):
        argv += ["--circuit", draw(st.sampled_from(["{work}/circuit.json"] * 3 + ["{work}"]))]
        argv += draw(st.lists(st.just("--serial"), max_size=1))
    if command == "simulate":
        argv += ["--schedule", draw(st.sampled_from(["{work}/schedule.json"] * 3 + ["{work}"]))]
    if command in ("simulate", "verify") and draw(st.booleans()):
        argv += ["--mode", "realistic"]
        ratio = draw(st.none() | ratios)
        if ratio is not None:
            argv += ["--ratio", ratio]
    if command in ("verify", "suite", "cost"):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "table"]))]
    if command == "sweep":
        argv += ["--ratios", ",".join(draw(st.lists(ratios, min_size=1, max_size=3)))]
        argv += ["--gates", draw(st.sampled_from(["rz", "rx,cphase", "euler", "rz,bogus"]))]
    return argv, files


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(invocation=invocations())
def test_any_argv_exits_cleanly(work, invocation):
    argv, files = invocation
    for name, content in files.items():
        (work / name).write_text(content)
    argv = [a.replace("{work}", str(work)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert sum("error:" in line for line in lines) == 1, lines
        if not lines[0].startswith("usage:"):
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
