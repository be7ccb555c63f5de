#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the pool of benchmark inputs and the
outcome the current code gives for each.

    python3 perfbench/make_reference.py

The pool is drawn from a fixed seed, so the same code writes the same file.
Before writing, it recomputes the full-register unitary of every gate and
circuit case (only the first variant of each n=10 slot, to bound the cost) and
every simulate case with scipy's `expm` on independently built dense
generators, and stops if a fidelity, leakage or block checksum differs from
the package's by more than 1e-10. Run it only on code whose outcomes are the
reference, never to make a failing benchmark pass.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "2"

import json
import random
import shutil

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import recoupler as rc  # noqa: E402
import recoupler.cli  # noqa: E402,F401
from cases import TOLERANCE, Op, _sector, _weights  # noqa: E402
from scipy.linalg import expm  # noqa: E402

POOL_SEED = 20261017
RATIO = 100.0
GATES = ("rx", "rz", "euler", "cphase", "heis_zz")
SECTORS = ("symmetric", "antisymmetric")
WORK = os.path.join(HERE, ".work", f"ref-{os.getpid()}")  # files the CLI cases read
MODELS: dict = {}


def _angle(rng, lo=0.3, hi=3.0):
    return round(rng.choice((1, -1)) * rng.uniform(lo, hi), 6)


def random_gate(rng, kind, k):
    """[kind, targets, params] on a k-qubit register; no angle is elided."""
    if kind in ("cphase", "heis_zz"):
        m = rng.randint(1, max(k - 1, 1))
        return [kind, [m, m + 1], [] if kind == "cphase" else [_angle(rng, 0.3, 2.0)]]
    m = rng.randint(1, k)
    nparams = 3 if kind == "euler" else 1
    return [kind, [m], [_angle(rng) for _ in range(nparams)]]


def gate_spec(preset, n, sector, gate, ratio):
    return {
        "kind": "gate", "preset": preset, "n": n, "sector": sector, "gate": gate,
        "mode": "ideal" if ratio is None else "realistic", "ratio": ratio,
    }


def pool_gate_n10(rng):
    # (gate, mode, preset) fixed per slot so every seed's pass costs the same
    plan = (
        ("rx", "ideal", "heisenberg"), ("rx", "realistic", "xy"),
        ("rz", "ideal", "xy"), ("rz", "realistic", "electrons_on_helium"),
        ("cphase", "ideal", "heisenberg"), ("cphase", "realistic", "electrons_on_helium"),
        ("euler", "ideal", "electrons_on_helium"), ("euler", "realistic", "xy"),
    )
    return [
        [
            gate_spec(preset, 10, "symmetric", random_gate(rng, kind, 5),
                      None if mode == "ideal" else RATIO)
            for _ in range(4)
        ]
        for kind, mode, preset in plan
    ]


def pool_circuit_n8(rng):
    plan = (
        ("symmetric", "ideal", 8, "electrons_on_helium"),
        ("symmetric", "realistic", 16, "electrons_on_helium"),
        ("antisymmetric", "ideal", 16, "xxz_antisymmetric"),
        ("antisymmetric", "realistic", 8, "xxz_antisymmetric"),
    )
    slots = []
    for sector, mode, size, preset in plan:
        variants = []
        for _ in range(4):
            kinds = ["rx", "rz", "cphase", "euler"] * (size // 4)
            rng.shuffle(kinds)
            variants.append({
                "kind": "circuit", "preset": preset, "n": 8, "sector": sector,
                "gates": [random_gate(rng, k, 4) for k in kinds],
                "mode": mode, "ratio": None if mode == "ideal" else RATIO,
            })
        slots.append(variants)
    return slots


CIRCUIT_FILE = [
    {"gate": "rx", "target": 0, "angle": 0.7},
    {"gate": "rz", "target": 1, "angle": 1.3},
    {"gate": "cphase", "targets": [0, 1]},
    {"gate": "euler", "target": 0, "angles": [0.4, 0.9, -1.1]},
]


def cli_specs():
    files = {
        "circuit.json": CIRCUIT_FILE,
        "nmr.json": rc.schedule_to_dict(rc.nmr_ising_schedule(0.6)),
    }
    argvs = (
        ["suite", "--format", "json"],
        ["cost", "--model", "preset:spin_dots:4", "--format", "json"],
        ["cost", "--model", "preset:xy:6", "--sector", "antisymmetric", "--format", "csv"],
        ["sweep", "--model", "preset:electrons_on_helium:4", "--ratios", "10,100,1000,inf"],
        ["verify", "--model", "preset:xxz_symmetric:4", "--circuit", "{work}/circuit.json"],
        ["verify", "--model", "preset:quantum_hall:6", "--circuit", "{work}/circuit.json",
         "--mode", "realistic", "--ratio", "100", "--format", "csv"],
        ["verify", "--model", "preset:xy:4", "--circuit", "{work}/circuit.json",
         "--sector", "antisymmetric", "--format", "table"],
        ["compile", "--model", "preset:spin_dots:6", "--circuit", "{work}/circuit.json"],
        ["simulate", "--model", "preset:nmr:4", "--schedule", "{work}/nmr.json",
         "--mode", "realistic", "--ratio", "50"],
        ["sweep", "--model", "preset:xy:4", "--ratios", "10,-5"],
    )
    return [[{"kind": "cli", "argv": list(a), "files": files}] for a in argvs]


def pool_sweep_n4(rng):
    slots = []
    for preset in rc.PRESET_NAMES:
        for n in (4, 6):
            for kind in GATES:
                for sector in SECTORS:
                    gates = [random_gate(rng, kind, n // 2) for _ in range(2)]
                    group = [
                        [gate_spec(preset, n, sector, g, ratio) for g in gates]
                        for ratio in (None, 10.0, 100.0, 1000.0)
                    ]
                    slots.append(group)
    slots = [_collapse_errors(group) for group in slots]
    slots = [slot for group in slots for slot in group]
    slots.append([{"kind": "suite"}])
    for preset in rc.PRESET_NAMES:
        for sector in SECTORS:
            slots.append([{"kind": "cost", "preset": preset, "n": 4, "sector": sector}])
    return slots + cli_specs()


def _collapse_errors(group):
    """Keep one ideal slot when every ratio fails with the same error type:
    the error comes from the compiler, before any ratio is used."""
    errors = {
        _run({"spec": spec})["error"] for slot in group for spec in slot
    }
    if len(errors) == 1 and None not in errors:
        return group[:1]
    return group


def _run(case):
    return Op(rc, case, WORK, MODELS).run()[1]


def schedule_shape(rng, groups=12):
    """Per group: (mode, number of parallel pulses or 0 for a free window, targeted)."""
    shape = []
    for _ in range(groups):
        mode = rng.choice(("ideal", "realistic"))
        if rng.random() < 0.3:
            shape.append((mode, 0, mode == "ideal" and rng.random() < 0.7))
        else:
            shape.append((mode, rng.randint(1, 3), False))
    return shape


def random_schedule(rng, model, shape):
    """Schedule JSON with mixed per-step modes that no compiler construction emits."""
    n = model.n_spins
    pulses = sorted((h for h in model.controllable if h.kind != "free_evolution"), key=str)
    targets = [f"t_z({m})" for m in range(1, n // 2 + 1)]
    targets += [f"r_z({m})" for m in range(1, n // 2 + 1)]
    targets += [f"zz({i},{i + 1})" for i in range(1, n) if model.has_pair(i, i + 1)]
    out = []
    for mode, width, targeted in shape:
        if width == 0:
            step = {"handle": "free_evolution", "duration": round(rng.uniform(0.2, 1.5), 6),
                    "mode": mode}
            if targeted:
                step["target"] = rng.choice(targets)
            out.append([step])
            continue
        rng.shuffle(pulses)
        chosen, used = [], set()
        for h in pulses:
            support = {h.i, h.j} - {None}
            if not support & used and len(chosen) < width:
                chosen.append(h)
                used |= support
        angle = round(rng.uniform(0.3, 2.0), 6)
        out.append([
            {"handle": str(h), "angle": rng.choice((1, -1)) * angle, "mode": mode}
            for h in chosen
        ])
    return {"groups": out, "metadata": {"origin": "random"}}


def pool_simulate_n8(rng):
    # the variants of a slot share one shape, so every seed's pass costs the same
    slots = []
    for preset in ("nmr", "electrons_on_helium", "xy", "heisenberg", "xxz_antisymmetric"):
        model = rc.preset_model(preset, 8)
        sector = "antisymmetric" if preset == "xxz_antisymmetric" else "symmetric"
        for _ in range(2):
            shape = schedule_shape(rng)
            ratio = rng.choice((20.0, 100.0))
            slots.append([
                {"kind": "simulate", "preset": preset, "n": 8, "sector": sector,
                 "ratio": ratio, "schedule": random_schedule(rng, model, shape)}
                for _ in range(4)
            ])
    return slots


# -- scipy expm oracle ---------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(ps, n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for letters, coeff in ps:
        m = np.ones((1, 1), dtype=complex)
        for letter in letters:  # spin 1 is the least significant bit
            m = np.kron(_PAULI[letter], m)
        out += coeff * m
    return out


def _target_term(model, target):
    n = model.n_spins
    name, args = target.rstrip(")").split("(")
    idx = [int(a) for a in args.split(",")]
    if name == "t_z":
        return model.eps_minus(idx[0]) * rc.t_z(n, idx[0])
    if name == "r_z":
        return model.eps_plus(idx[0]) * rc.r_z(n, idx[0])
    return model.coupling(*idx).jz * rc.build_zz(n, *idx)


def expm_unitary(schedule, model, mode, ratio):
    n = model.n_spins
    background = dense(rc.background_hamiltonian(model), n)
    u = np.eye(2**n, dtype=complex)
    for group in schedule.groups:
        step_mode = mode or group[0].mode
        first = group[0]
        if first.handle.kind == "free_evolution":
            if step_mode == "ideal" and first.target is not None:
                h = dense(_target_term(model, first.target), n)
            else:
                h = background
            g = expm(-1j * first.duration * h)
        elif step_mode == "ideal":
            h = sum(s.angle * dense(rc.toggled_generator(model, s.handle), n) for s in group)
            g = expm(-1j * h)
        else:
            strength = ratio * model.background_magnitude()
            angles = [abs(s.angle) for s in group if s.angle]
            h = background + sum(
                np.sign(s.angle) * strength * dense(rc.toggled_generator(model, s.handle), n)
                for s in group
            )
            g = expm(-1j * (angles[0] / strength) * h)
        u = u @ g
    return u


def oracle_check(spec, outcome):
    """Compare one outcome with the expm oracle; raise on a mismatch."""
    model = MODELS[(spec["preset"], spec["n"])]
    code = rc.CodeSpec(_sector(rc, spec["sector"]), spec["n"])
    v = rc.code_isometry(code)
    if spec["kind"] == "simulate":
        schedule = rc.schedule_from_dict(spec["schedule"])
        u = expm_unitary(schedule, model, None, spec["ratio"])
    else:
        sector = _sector(rc, spec["sector"])
        gates = [spec["gate"]] if spec["kind"] == "gate" else spec["gates"]
        gates = [rc.LogicalGate(k, tuple(t), tuple(p)) for k, t, p in gates]
        schedule = rc.compile_circuit(gates, model, sector)
        u = expm_unitary(schedule, model, spec["mode"], spec["ratio"])
    block = v.conj().T @ u @ v
    want = {"leakage": float(np.linalg.norm(u @ v - v @ block) / np.sqrt(v.shape[1]))}
    if spec["kind"] == "simulate":
        w = np.array(_weights(block.shape[0]))
        want["trace"] = np.trace(block)
        want["checksum"] = np.sum(w * block)
        got = {"leakage": outcome["leakage"], "trace": complex(*outcome["trace"]),
               "checksum": complex(*outcome["checksum"])}
    else:
        target = rc.target_circuit(gates, model, sector)
        want["fidelity"] = abs(np.trace(target.conj().T @ block)) / block.shape[0]
        got = {"fidelity": outcome["fidelity"], "leakage": outcome["leakage"]}
    for key in want:
        if abs(got[key] - want[key]) > TOLERANCE:
            raise SystemExit(f"expm oracle disagrees on {key}: {got[key]} vs {want[key]} ({spec})")


def main():
    rng = random.Random(POOL_SEED)
    pools = {
        "gate-n10": pool_gate_n10(rng),
        "circuit-n8": pool_circuit_n8(rng),
        "sweep-n4": pool_sweep_n4(rng),
        "simulate-n8": pool_simulate_n8(rng),
    }
    workloads = {}
    checked = 0
    for name, slots in pools.items():
        cases = []
        for s, slot in enumerate(slots):
            variants = []
            for v, spec in enumerate(slot):
                case = {"id": f"{name}/{s}/{v}", "spec": spec}
                outcome = _run(case)
                if spec["kind"] == "simulate":
                    if not outcome.pop("defect") <= TOLERANCE:
                        raise SystemExit(f"{case['id']}: propagator lost unitarity")
                if spec["kind"] in ("gate", "circuit", "simulate") and outcome.get("error") is None:
                    if name != "gate-n10" or v == 0:
                        oracle_check(spec, outcome)
                        checked += 1
                case["expect"] = outcome
                variants.append(case)
            cases.append(variants)
        workloads[name] = cases
        print(f"{name}: {len(slots)} slots, {sum(map(len, slots))} cases", file=sys.stderr)
    print(f"expm oracle agreed on {checked} cases", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        f.write('{"pool_seed": %d, "tolerance": %r, "workloads": {\n' % (POOL_SEED, TOLERANCE))
        for i, (name, slots) in enumerate(workloads.items()):
            f.write(f" {json.dumps(name)}: [\n")
            f.write(",\n".join("  " + json.dumps(slot, separators=(",", ":")) for slot in slots))
            f.write("\n ]" + (",\n" if i + 1 < len(workloads) else "\n"))
        f.write("}}\n")


if __name__ == "__main__":
    os.makedirs(WORK, exist_ok=True)
    try:
        main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
