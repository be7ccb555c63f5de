"""Randomized sweep over models, sectors, and parameter signs.

Every compiled gate must hit its target on the code space in ideal mode no
matter how the energies and couplings are drawn (subject to the model-kind
constraints), which exercises the non-negative-duration normalization of the
free windows for both signs of the z splittings and couplings. Realistic-mode
unitaries of the same models are checked against a kron + `expm` oracle, and
the block-diagonal propagation of every mode against the ordered product of
dense propagators and of `expm`.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm

import recoupler.evolution as evolution
import recoupler.verifier as verifier
from recoupler import (
    ANTISYMMETRIC,
    SYMMETRIC,
    CodeSpec,
    Coupling,
    ExchangeModel,
    FREE_EVOLUTION,
    LogicalGate,
    PauliSum,
    PulseSchedule,
    PulseStep,
    RecouplerError,
    ValidationError,
    WindowTarget,
    apply_schedule,
    background_hamiltonian,
    compile_circuit,
    compile_gate,
    default_epsilon,
    heis,
    j_minus,
    j_plus,
    model_from_dict,
    nmr_ising_schedule,
    nmr_z_rotation_schedule,
    PRESET_NAMES,
    preset_model,
    propagator,
    sigma_x,
    target_circuit,
    target_logical,
    toggled_generator,
    verify_circuit,
    verify_gate,
)
from recoupler.compiler import _GATES
from recoupler.encoding import code_isometry
from recoupler.evolution import _evolve
from recoupler.pauli import coset_blocks, coset_index, x_basis
from recoupler.verifier import STANDARD_GATES

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
    rng = np.random.default_rng(sum(map(ord, family)))
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
    from recoupler import fidelity

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


def group_generators(schedule, model, mode, ratio):
    """(h, t) of every group, rebuilt from the model: an ideal window keeps its
    target term, or the whole background without one; a realistic pulse group
    adds sign(angle) strength G to the background for |angle| / strength. With
    `mode` None each group takes its steps' own mode."""
    background = background_hamiltonian(model)
    strength = None if ratio is None else ratio * model.background_magnitude()
    for group in schedule.groups:
        step = group[0]
        group_mode = mode or step.mode
        if step.handle == FREE_EVOLUTION:
            keeps_target = group_mode == "ideal" and step.target is not None
            yield (step.target.term(model) if keeps_target else background), step.duration
        elif group_mode == "ideal":
            yield sum((s.angle * toggled_generator(model, s.handle) for s in group),
                      PauliSum.zero(model.n_spins)), 1.0
        elif any(s.angle for s in group):
            pulses = [s for s in group if s.angle]
            h = background + sum(
                np.sign(s.angle) * strength * toggled_generator(model, s.handle) for s in pulses
            )
            yield h, abs(pulses[0].angle) / strength


def ordered_product(schedule, model, mode, ratio, exp):
    """The schedule's unitary as the matrix-order product of exp(h, t) over its groups."""
    u = np.eye(2**model.n_spins, dtype=complex)
    for h, t in group_generators(schedule, model, mode, ratio):
        u = u @ exp(h, t)
    return u


def _expm(h, t):
    return expm(-1j * t * dense(h))


def compressed(u, spec):
    """(V^dag U V, ||(I - P) U V||_F / ||P||_F) from the dense isometry V."""
    v = code_isometry(spec)
    uv = u @ v
    block = v.conj().T @ uv
    return block, np.linalg.norm(uv - v @ block) / np.sqrt(v.shape[1])


def flipped(model):
    """The same model with every coupling negated."""
    couplings = {p: Coupling(-c.jx, -c.jy, -c.jz) for p, c in model.couplings.items()}
    return ExchangeModel(model.kind, model.n_spins, model.epsilon, couplings, model.controllable)


def _assert_realistic_matches_oracle(schedule, model, label):
    for ratio in (10, 100):
        got = apply_schedule(schedule, model, mode="realistic", ratio=ratio)
        want = ordered_product(schedule, model, "realistic", ratio, _expm)
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


# -- block-diagonal propagation against dense oracles ---------------------------


def random_nmr_model(rng):
    eps = tuple(rng.uniform(-2, 2, size=4))
    couplings = {(i, i + 1): Coupling(0.0, 0.0, float(rng.uniform(-1, 1))) for i in range(1, 4)}
    ctrl = {sigma_x(i) for i in range(1, 5)} | {FREE_EVOLUTION}
    return ExchangeModel("nmr_ising", 4, eps, couplings, frozenset(ctrl))


def flip_flop_json_model(rng):
    """An xxz JSON model whose middle pair keeps an always-on T flip-flop, so its
    free windows are not diagonal."""
    couplings = []
    for i in range(1, 4):
        jxy, jz = (float(v) for v in rng.uniform(-1, 1, size=2))
        couplings.append({"i": i, "j": i + 1, "jx": jxy, "jy": jxy, "jz": jz})
    return model_from_dict({
        "kind": "xxz_symmetric",
        "n_spins": 4,
        "epsilon": [float(e) for e in rng.uniform(-2, 2, size=4)],
        "couplings": couplings,
        "controllable": ["j_plus(1,2)", "j_plus(3,4)", "free_evolution"],
    })


def _assert_blocks_match_oracles(schedule, model, label):
    """Ideal, hard-pulse (every window target dropped) and realistic modes."""
    hard = PulseSchedule(
        [[dataclasses.replace(s, target=None) for s in g] for g in schedule.groups],
        schedule.metadata,
    )
    for sched, mode, ratio in ((schedule, "ideal", None), (hard, "ideal", None),
                               (schedule, "realistic", 10.0)):
        got = apply_schedule(sched, model, mode=mode, ratio=ratio)
        for exp in (propagator, _expm):
            want = ordered_product(sched, model, mode, ratio, exp)
            err = np.abs(got - want).max()
            assert err < 1e-10, f"{label} {mode} {'hard' if sched is hard else ''}: {err:.2e}"


@pytest.mark.parametrize("family", FAMILIES + ("json_flip_flop",))
def test_block_propagation_matches_dense_and_expm(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    compiled = 0
    for draw in range(2):
        if family == "json_flip_flop":
            drawn = flip_flop_json_model(rng)
            background = background_hamiltonian(drawn)
            basis = x_basis(background.arrays)
            states = coset_index(np.arange(2**background.n), basis)[1]
            blocks = coset_blocks(background.arrays, states, basis)
            assert blocks.shape[-1] == 2  # T_23 couples pairs
        else:
            drawn = random_model(rng, family)[0]
        for sign, model in (("+", drawn), ("-", flipped(drawn))):
            for sector in (SYMMETRIC, ANTISYMMETRIC):
                for kind in GATE_KINDS:
                    gate = gate_of_kind(rng, kind)
                    try:
                        sched = compile_gate(gate, model, sector)
                    except RecouplerError:
                        continue  # the family has no construction for this sector or gate
                    compiled += 1
                    label = f"{family} draw {draw} J{sign} {sector} {gate.describe()}"
                    _assert_blocks_match_oracles(sched, model, label)
    assert compiled >= 8 * (2 if family == "heisenberg" else 1)


def test_block_propagation_matches_oracles_on_nmr_sigma_x():
    rng = np.random.default_rng(sum(map(ord, "nmr_ising")))
    every_spin = tuple(PulseStep(sigma_x(i), angle=0.9 * (-1) ** i) for i in range(1, 5))
    window = (PulseStep(FREE_EVOLUTION, duration=0.8),)
    for draw in range(2):
        drawn = random_nmr_model(rng)
        for sign, model in (("+", drawn), ("-", flipped(drawn))):
            for sched in (
                nmr_z_rotation_schedule(0.7, 1),
                nmr_z_rotation_schedule(1.3, 3),
                nmr_ising_schedule(0.4),
                PulseSchedule((every_spin, window, every_spin), {"gate": "sigma_x on every spin"}),
            ):
                _assert_blocks_match_oracles(sched, model, f"nmr draw {draw} J{sign} {sched.metadata}")


# -- verdicts on the reachable rows against the dense oracle ---------------------


def _drop_targets(schedule):
    """The hard-pulse variant: every free window evolves the whole background."""
    return PulseSchedule(
        [[dataclasses.replace(s, target=None) for s in g] for g in schedule.groups],
        schedule.metadata,
    )


def _assert_row_verdicts_match_dense(monkeypatch, model, sector, gates, schedule_of, label):
    """verify_gate on gates[0] and verify_circuit on `gates`, which evolve only the
    rows the schedule reaches, against the compressed ordered product of dense
    propagators on the schedule schedule_of(subject), in ideal, hard-pulse and
    realistic modes. Returns the number of rows each verdict evolved."""
    spec = CodeSpec(sector, model.n_spins)
    seen = []
    split = evolution._code_block
    monkeypatch.setattr(evolution, "_code_block",
                        lambda columns, rows, *rest: seen.append(rows.size)
                        or split(columns, rows, *rest))
    for hard, mode, ratio in ((False, "ideal", None), (True, "ideal", None),
                              (False, "realistic", 10.0)):
        def compiled(subject, *_):
            return (_drop_targets if hard else lambda s: s)(schedule_of(subject))

        monkeypatch.setattr(verifier, "compile_gate", compiled)
        monkeypatch.setattr(verifier, "compile_circuit", compiled)
        for subject, verify, target in (
            (gates[0], verify_gate, target_logical(gates[0], model, sector)),
            (gates, verify_circuit, target_circuit(gates, model, sector)),
        ):
            rep = verify(subject, model, sector=sector, mode=mode, ratio=ratio)
            sched = compiled(subject)
            block, leak = compressed(ordered_product(sched, model, mode, ratio, propagator), spec)
            fid = abs(np.trace(target.conj().T @ block)) / len(target)
            where = f"{label} {mode}{' hard' if hard else ''} {verify.__name__}"
            assert rep.reason == "", where
            assert abs(rep.fidelity - fid) < 1e-12 and abs(rep.leakage - leak) < 1e-12, where
            assert rep.passed == (fid >= 1 - 1e-8 and leak <= 1e-8), where
            steps = (sched.step_count_serial, sched.step_count_parallel)
            assert (rep.step_count_serial, rep.step_count_parallel) == steps, where
    return seen


@pytest.mark.parametrize("family", FAMILIES + ("json_flip_flop",))
def test_row_verdicts_match_dense_oracle(family, monkeypatch):
    rng = np.random.default_rng(sum(map(ord, family)) + 1)
    if family == "json_flip_flop":
        drawn = flip_flop_json_model(rng)
    else:
        drawn = random_model(rng, family)[0]
    compiled, rows = 0, []
    for sign, model in (("+", drawn), ("-", flipped(drawn))):
        for sector in (SYMMETRIC, ANTISYMMETRIC):
            for kind in GATE_KINDS:
                gate = gate_of_kind(rng, kind)
                try:
                    compile_gate(gate, model, sector)
                except RecouplerError as exc:
                    rep = verify_gate(gate, model, sector=sector)
                    assert rep.reason == f"{type(exc).__name__}: {exc}"
                    continue
                compiled += 1

                def schedule_of(subject, model=model, sector=sector):
                    if isinstance(subject, LogicalGate):
                        return compile_gate(subject, model, sector)
                    return compile_circuit(subject, model, sector)

                label = f"{family} J{sign} {sector} {gate.describe()}"
                with monkeypatch.context() as patched:
                    rows += _assert_row_verdicts_match_dense(
                        patched, model, sector, [gate, gate], schedule_of, label
                    )
    assert compiled >= (14 if family == "heisenberg" else 8)
    if family == "json_flip_flop":  # the always-on T_23 reaches beyond the code states
        assert max(rows) > 2 ** (drawn.n_spins // 2)


def _sandwich(schedule):
    """P(+pi/2) . W . P(-pi/2) . W . P(+pi/2), with W every group of `schedule` and P
    a pulse on its first pulsed handle, so the pulse and every group of W recur."""
    handle = next(s.handle for g in schedule.groups for s in g if s.handle != FREE_EVOLUTION)

    def pulse(angle):
        return (PulseStep(handle, angle=angle),)

    groups = (pulse(np.pi / 2), *schedule.groups, pulse(-np.pi / 2), *schedule.groups,
              pulse(np.pi / 2))
    return PulseSchedule(groups, schedule.metadata)


@pytest.mark.parametrize("family", FAMILIES)
def test_repeated_groups_match_the_dense_product(family):
    """Each distinct group is exponentiated once per schedule; every recurrence of
    it must still act where it stands, in U and in the verdict's reachable rows."""
    rng = np.random.default_rng(sum(map(ord, family)) + 2)
    model = random_model(rng, family)[0]
    checked = 0
    for sector in (SYMMETRIC, ANTISYMMETRIC):
        spec = CodeSpec(sector, model.n_spins)
        for kind in GATE_KINDS:
            try:
                sched = _sandwich(compile_gate(gate_of_kind(rng, kind), model, sector))
            except RecouplerError:
                continue
            assert len(set(sched.groups)) < len(sched.groups)
            for mode, ratio in (("ideal", None), ("realistic", 10.0)):
                label = f"{family} {sector} {kind} {mode}"
                want = ordered_product(sched, model, mode, ratio, propagator)
                got = apply_schedule(sched, model, mode, ratio)
                assert np.abs(got - want).max() < 1e-12, label
                block, leak = _evolve(sched, model, mode, ratio, sector)
                want_block, want_leak = compressed(want, spec)
                assert np.abs(block - want_block).max() < 1e-12, label
                assert abs(leak - want_leak) < 1e-12, label
                checked += 1
    assert checked >= (14 if family == "heisenberg" else 8)


def test_row_verdicts_match_dense_oracle_on_nmr_sigma_x(monkeypatch):
    rng = np.random.default_rng(sum(map(ord, "nmr_ising")) + 1)
    gates = [LogicalGate("rx", (1,), (0.5,)), LogicalGate("rz", (2,), (1.1,))]
    for draw in range(2):
        drawn = random_nmr_model(rng)
        angle = float(rng.uniform(0.1, 2))  # parallel realistic pulses share |angle|
        pulses = tuple(PulseStep(sigma_x(i), angle=angle * rng.choice([-1, 1]))
                       for i in range(1, 5) if rng.random() < 0.6) or (PulseStep(sigma_x(2), angle=angle),)
        window = (PulseStep(FREE_EVOLUTION, duration=float(rng.uniform(0, 2))),)
        for sign, model in (("+", drawn), ("-", flipped(drawn))):
            for sector in (SYMMETRIC, ANTISYMMETRIC):
                for sched in (
                    nmr_z_rotation_schedule(0.7, 1),
                    nmr_ising_schedule(0.4),
                    PulseSchedule((pulses, window, pulses), {"gate": "random sigma_x"}),
                ):
                    label = f"nmr draw {draw} J{sign} {sector} {sched.metadata}"
                    with monkeypatch.context() as patched:
                        _assert_row_verdicts_match_dense(
                            patched, model, sector, gates, lambda _, s=sched: s, label
                        )


@pytest.mark.parametrize("preset", ["electrons_on_helium", "xxz_symmetric", "xxz_antisymmetric"])
def test_xxz_ideal_verdicts_evolve_only_the_code_states(preset):
    """Every XXZ schedule maps the code states among themselves, so the leakage
    is read from no row at all and is exactly zero."""
    model = preset_model(preset, 8)
    verdicts = 0
    for sector in (SYMMETRIC, ANTISYMMETRIC):
        for gate in [*STANDARD_GATES.values(), LogicalGate("cz", (1, 2))]:
            rep = verify_gate(gate, model, sector=sector)
            if rep.reason.startswith("ControllabilityError"):
                continue
            assert rep.passed and rep.leakage == 0.0, (sector, gate.describe(), rep)
            verdicts += 1
    assert verdicts == 5


# -- one eigendecomposition per distinct generator, against expm of every group ----

ORACLE_PRESETS = ("electrons_on_helium", "xxz_antisymmetric", "xy", "spin_dots", "nmr")


def random_pulse_group(rng, model, mode):
    """Parallel pulses on disjoint spins, some at angle zero; ideal angles differ,
    realistic ones share |angle|, as one pulse strength requires."""
    handles = sorted(h for h in model.controllable if h != FREE_EVOLUTION)
    size, angle = int(rng.integers(1, 4)), float(rng.uniform(0.2, 2.5))
    steps, used = [], set()
    for k in rng.permutation(len(handles)):
        spins = {handles[k].i, handles[k].j} - {None}
        if len(steps) == size or used & spins:
            continue
        used |= spins
        if rng.random() < 0.2:
            a = 0.0
        elif mode == "ideal":
            a = float(rng.uniform(-2.5, 2.5))
        else:
            a = angle * float(rng.choice([-1.0, 1.0]))
        steps.append(PulseStep(handles[k], angle=a, mode=mode))
    return tuple(steps)


def random_window(rng, model, mode):
    """A free window, its duration left to the caller, keeping a random term or none."""
    n = model.n_spins
    i, m = int(rng.integers(1, n)), int(rng.integers(1, n // 2 + 1))
    targets = (None, WindowTarget("t_z", m), WindowTarget("r_z", m), WindowTarget("zz", i, i + 1))
    return PulseStep(FREE_EVOLUTION, duration=0.0, target=targets[int(rng.integers(4))], mode=mode)


def oracle_schedule(rng, model):
    """Three sandwiches P . W(d) . P^-1 . W(d'), each group in a random mode: every
    pulse group recurs with its angles negated and every window with another
    duration."""
    groups = []
    for _ in range(3):
        pulse_mode, window_mode = (str(m) for m in rng.choice(["ideal", "realistic"], size=2))
        pulse = random_pulse_group(rng, model, pulse_mode)
        window = random_window(rng, model, window_mode)
        inverse = tuple(dataclasses.replace(s, angle=-s.angle) for s in pulse)
        first, second = (dataclasses.replace(window, duration=float(d)) for d in rng.uniform(0, 2, 2))
        groups += [pulse, (first,), inverse, (second,)]
    return PulseSchedule(groups, {"gate": "oracle sandwiches"})


@pytest.mark.parametrize("preset", ORACLE_PRESETS + ("json_flip_flop",))
def test_shared_generators_match_expm_of_every_group(preset):
    """A group that shares another's generator (a negated pulse, a window of another
    duration) must still act with its own time, in U and in every verdict's rows."""
    rng = np.random.default_rng(sum(map(ord, preset)) + 3)
    for n in (4,) if preset == "json_flip_flop" else (4, 6, 8):
        if preset == "json_flip_flop":
            model = flip_flop_json_model(rng)
        else:
            model = preset_model(preset, n, epsilon=tuple(rng.uniform(-2, 2, size=n)))
        sched = oracle_schedule(rng, model)
        for mode, ratio in ((None, 10.0), ("ideal", None)):
            label = f"{preset} n={n} mode={mode}"
            want = ordered_product(sched, model, mode, ratio, _expm)
            got = apply_schedule(sched, model, mode, ratio)
            assert np.abs(got - want).max() < 1e-10, label
            for sector in (SYMMETRIC, ANTISYMMETRIC):
                block, leak = _evolve(sched, model, mode, ratio, sector)
                want_block, want_leak = compressed(want, CodeSpec(sector, n))
                assert np.abs(block - want_block).max() < 1e-10, f"{label} {sector}"
                assert abs(leak - want_leak) < 1e-10, f"{label} {sector}"


@pytest.mark.parametrize("preset, mode", [("nmr", "ideal"), ("nmr", "realistic"), ("xy", "realistic")])
def test_diagonal_windows_between_block_groups_match_expm(preset, mode):
    """Every window here is diagonal, a phase per row, and sits between pulse groups
    that leave the rows in block order: its phases must land on the slots its rows
    hold, in U and in every verdict's rows."""
    rng = np.random.default_rng(sum(map(ord, preset + mode)))
    ratio = 10.0 if mode == "realistic" else None
    for n in (4, 6):
        model = preset_model(preset, n, epsilon=tuple(rng.uniform(-2, 2, size=n)))
        groups = []
        for duration in rng.uniform(0.1, 2.0, size=4):
            window = dataclasses.replace(random_window(rng, model, mode), duration=float(duration))
            groups += [random_pulse_group(rng, model, mode), (window,)]
        sched = PulseSchedule(groups)
        windows = group_generators(PulseSchedule(groups[1::2]), model, mode, ratio)
        assert not any(x_basis(h.arrays) for h, _ in windows)
        want = ordered_product(sched, model, mode, ratio, _expm)
        label = f"{preset} n={n} {mode}"
        assert np.abs(apply_schedule(sched, model, mode, ratio) - want).max() < 1e-12, label
        for sector in (SYMMETRIC, ANTISYMMETRIC):
            block, leak = _evolve(sched, model, mode, ratio, sector)
            want_block, want_leak = compressed(want, CodeSpec(sector, n))
            assert np.abs(block - want_block).max() < 1e-12, f"{label} {sector}"
            assert abs(leak - want_leak) < 1e-12, f"{label} {sector}"


# -- the full U, one block per neighbour pattern, against expm of every group ------


def pattern_json_model(rng, kind, n):
    """A JSON model on n spins: "flip_flop", an xxz chain whose pairs between logical
    qubits keep an always-on T flip-flop; "chords", a pulsed xxz chain with sigma_z
    sigma_z couplings off it, a ring closure and a chord; "heis", a heisenberg chain
    of heis pulses, whose sigma_z sigma_z part is central to their blocks."""
    couplings, controllable = [], ["free_evolution"]
    for i in range(1, n):
        v, jz = (float(x) for x in rng.uniform(0.2, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2))
        couplings.append({"i": i, "j": i + 1, "jx": v, "jy": v, "jz": v if kind == "heis" else jz})
        if kind != "flip_flop" or i % 2:
            controllable.append(f"{'heis' if kind == 'heis' else 'j_plus'}({i},{i + 1})")
    if kind == "chords":
        for i, j in ((1, n), (2, 5)):
            couplings.append({"i": i, "j": j, "jz": float(rng.uniform(-1.5, 1.5))})
    return model_from_dict({
        "kind": "heisenberg" if kind == "heis" else "xxz_symmetric",
        "n_spins": n,
        "epsilon": [float(e) for e in rng.uniform(-2, 2, size=n)],
        "couplings": couplings,
        "controllable": controllable,
    })


def mixed_schedule(rng, model, groups):
    """Random pulse groups and windows, each group in a random mode."""
    out = []
    for _ in range(groups):
        mode = str(rng.choice(["ideal", "realistic"]))
        if rng.random() < 0.3:
            window = random_window(rng, model, mode)
            out.append((dataclasses.replace(window, duration=float(rng.uniform(0, 2))),))
        else:
            out.append(random_pulse_group(rng, model, mode))
    return PulseSchedule(out)


@pytest.mark.parametrize("source", PRESET_NAMES + ("flip_flop", "chords", "heis"))
def test_full_unitary_by_neighbour_pattern_matches_expm(source, monkeypatch):
    """apply_schedule diagonalizes one block per pattern of the spins a generator's
    non-central terms see, and gives each coset its central phase."""
    rng = np.random.default_rng(sum(map(ord, source)) + 4)
    patterned = []
    split = evolution.split_central

    def split_central(h, basis):
        central, rest, seen = split(h, basis)
        patterned.append(2 ** (seen.bit_count() + len(basis)) < 2**n)
        return central, rest, seen

    monkeypatch.setattr(evolution, "split_central", split_central)
    for n in (6, 8):
        if source in PRESET_NAMES:
            model = preset_model(source, n, epsilon=tuple(rng.uniform(-2, 2, size=n)))
        else:
            model = pattern_json_model(rng, source, n)
        sched = mixed_schedule(rng, model, groups=12 if n == 6 else 6)  # expm of 256 x 256 is slow
        want = ordered_product(sched, model, None, 10.0, _expm)
        err = np.abs(apply_schedule(sched, model, None, 10.0) - want).max()
        assert err < 1e-12, f"{source} n={n}: {err:.2e}"
    assert any(patterned)


# -- property: a verdict's code block and leakage against expm of every group ------

PULSED = {"heisenberg": heis, "xy": j_plus, "xxz_symmetric": j_plus, "xxz_antisymmetric": j_minus}


def signed(draw, low, high):
    return draw(st.floats(low, high)) * draw(st.sampled_from([-1.0, 1.0]))


@st.composite
def json_models(draw, n, chorded=False):
    """A JSON model of an exchange family, every coupling of either sign, with the
    pairs that join two logical qubits pulsed or all of them always on. An xxz model
    may add always-on sigma_z sigma_z couplings off the chain (a ring closure or a
    chord; the other families forbid jx = jy = 0), so a diagonal background need
    not be a chain. A `chorded` model (n > 2) is an xxz one with every pair pulsed,
    so a diagonal background, and at least one such coupling."""
    kind = draw(st.sampled_from([k for k in sorted(PULSED) if k.startswith("xxz") or not chorded]))
    pairs = [(i, i + 1) for i in range(1, n)]
    if kind == "xy":
        pairs += [(i, i + 2) for i in range(1, n - 1)]
    always_on = not chorded and draw(st.booleans())
    couplings, controllable = [], ["free_evolution"]
    for i, j in pairs:
        v = signed(draw, 0.2, 1.5)
        jx, jy, jz = {
            "heisenberg": (v, v, v), "xy": (v, v, 0.0),
            "xxz_symmetric": (v, v, signed(draw, 0.2, 1.5)),
            "xxz_antisymmetric": (v, -v, signed(draw, 0.2, 1.5)),
        }[kind]
        couplings.append({"i": i, "j": j, "jx": jx, "jy": jy, "jz": jz})
        if not always_on or (i % 2 and j == i + 1):
            controllable.append(str(PULSED[kind](i, j)))
    if kind.startswith("xxz") and n > 2:  # pairs off the chain: (1, n) closes a ring
        chords = [(i, j) for i in range(1, n - 1) for j in range(i + 2, n + 1)]
        drawn = st.lists(st.sampled_from(chords), min_size=int(chorded), max_size=2, unique=True)
        for i, j in draw(drawn):
            couplings.append({"i": i, "j": j, "jz": signed(draw, 0.2, 1.5)})
    epsilon = []
    for _ in range(n // 2):  # eps^+ and eps^- of each pair kept away from zero
        plus, minus = signed(draw, 0.1, 1.5), signed(draw, 0.1, 1.0)
        epsilon += [plus + minus, plus - minus]
    return model_from_dict({"kind": kind, "n_spins": n, "epsilon": epsilon,
                            "couplings": couplings, "controllable": controllable})


@st.composite
def compiled_gates(draw):
    """(model, sector, schedule): a preset, a jittered preset, a JSON or a chorded JSON
    model at n <= 6 and one gate of any `_GATES` kind that compiles there, parallel or
    serial. No gate compiles on the nmr preset, whose pulses are sigma_x. A jittered
    preset moves each energy of the preset ladder by up to 0.05, off the commensurate
    phases that can hide a wrong construction. Chorded models are drawn twice as often
    as each other source: a plain JSON model rarely has both a chord and a diagonal
    background."""
    n = draw(st.sampled_from([2, 4, 6]))
    source = draw(st.sampled_from(["preset", "jittered", "json"] + ["chorded"] * 2 * (n > 2)))
    if source in ("preset", "jittered"):
        epsilon = default_epsilon(n)
        if source == "jittered":
            epsilon = tuple(e + draw(st.floats(-0.05, 0.05)) for e in epsilon)
        name = draw(st.sampled_from([p for p in PRESET_NAMES if p != "nmr"]))
        model = preset_model(name, n, epsilon)
    else:
        model = draw(json_models(n, chorded=source == "chorded"))
    sector, parallel = draw(st.sampled_from([SYMMETRIC, ANTISYMMETRIC])), draw(st.booleans())
    schedules = []
    for kind, record in sorted(_GATES.items()):
        if record.qubits > n // 2:
            continue
        m = draw(st.integers(1, n // 2 + 1 - record.qubits))
        params = tuple(draw(st.floats(-7, 7)) for _ in range(record.params))
        gate = LogicalGate(kind, tuple(range(m, m + record.qubits)), params)
        try:
            schedules.append(compile_gate(gate, model, sector, parallel))
        except RecouplerError:
            continue
    assume(schedules)
    return model, sector, draw(st.sampled_from(schedules))


@given(compiled_gates(), st.floats(2, 200))
def test_verdict_block_and_leakage_match_expm_of_every_group(case, ratio):
    model, sector, sched = case
    spec = CodeSpec(sector, model.n_spins)
    for mode, r in (("ideal", None), ("realistic", ratio)):
        block, leak = _evolve(sched, model, mode, r, sector)
        want_block, want_leak = compressed(ordered_product(sched, model, mode, r, _expm), spec)
        assert np.abs(block - want_block).max() < 1e-10, (mode, sched.metadata)
        assert abs(leak - want_leak) < 1e-10, (mode, sched.metadata)


@pytest.mark.parametrize("mode, ratio", [("ideal", None), ("realistic", 10.0)])
def test_a_bad_group_sharing_a_good_groups_generator_raises_its_own_defect(mode, ratio):
    """W(1) and W(1e308) share the background's eigendecomposition; the second one's
    phases overflow to NaN, which raises as it did when each window had its own."""
    model = preset_model("xy", 4)

    def window(duration):
        return (PulseStep(FREE_EVOLUTION, duration=duration),)

    for groups in ((window(1.0), window(1e308)), (window(1e308), window(1.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing phases
            with pytest.raises(ValidationError, match=r"^propagator lost unitarity \(defect nan\)$"):
                apply_schedule(PulseSchedule(groups), model, mode, ratio)
