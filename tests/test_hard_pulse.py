"""Hard-pulse regression table: every ideal-mode construction, rerun with its
free windows evolving the full always-on background.

Ideal mode lets each free window evolve only its annotated target term, so it
assumes the refocusing sandwiches cancel the rest of the background. The hard-
pulse limit (instantaneous pulses, free windows under the whole background) is
what realistic mode tends to as the pulse/background ratio grows, and it checks
that cancellation instead. Each case that passes in ideal mode is pinned below
with its hard-pulse 1-F and leakage. A value at or below TOL must stay there;
a known failure may only go down. Pins are measured values rounded up in the
third significant digit (after a 1e-9 relative margin for BLAS rounding).
"""

import dataclasses

import numpy as np
import pytest

from recoupler import (
    ANTISYMMETRIC,
    PRESET_NAMES,
    SYMMETRIC,
    CodeSpec,
    LogicalGate,
    PulseSchedule,
    apply_schedule,
    compile_gate,
    preset_model,
    restrict,
    target_logical,
    verify_gate,
)

TOL = 1e-8
SIZES = (4, 6, 8)
SECTORS = {"symmetric": SYMMETRIC, "antisymmetric": ANTISYMMETRIC}
GATES = {
    "rx": LogicalGate("rx", (1,), (1.1,)),
    "rz1": LogicalGate("rz", (1,), (0.7,)),
    "rz2": LogicalGate("rz", (2,), (0.7,)),
    "euler": LogicalGate("euler", (1,), (0.5, 1.2, -0.8)),
    "cphase": LogicalGate("cphase", (1, 2)),
    "heis_zz": LogicalGate("heis_zz", (1, 2), (1.0,)),
}


def _case(key):
    """(gate, model, sector) of a table key 'preset/n/sector/gate'."""
    name, n, sector, gate = key.split("/")
    return GATES[gate], preset_model(name, int(n)), SECTORS[sector]


def _hard_pulse(gate, model, sector):
    """(1-F, leakage) of the compiled schedule with every window's target dropped."""
    schedule = compile_gate(gate, model, sector)
    groups = [[dataclasses.replace(step, target=None) for step in g] for g in schedule.groups]
    u = apply_schedule(PulseSchedule(groups, schedule.metadata), model, mode="ideal")
    block, leak = restrict(u, CodeSpec(sector, model.n_spins))
    target = target_logical(gate, model, sector)
    fid = abs(np.trace(target.conj().T @ block)) / len(target)
    return max(0.0, 1.0 - fid), leak


# preset/n/sector/gate: (1-F, leakage) in the hard-pulse limit
PINNED = {
    "spin_dots/4/symmetric/rx": (2.23e-16, 0.0),
    "spin_dots/4/symmetric/rz1": (2.23e-16, 0.0),
    "spin_dots/4/symmetric/rz2": (4.45e-16, 0.0),
    "spin_dots/4/symmetric/euler": (6.67e-16, 0.0),
    "spin_dots/4/symmetric/cphase": (5.01e-01, 7.08e-01),
    "spin_dots/4/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "spin_dots/4/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "spin_dots/4/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "spin_dots/6/symmetric/rx": (2.23e-16, 0.0),
    "spin_dots/6/symmetric/rz1": (1.12e-16, 1.64e-15),
    "spin_dots/6/symmetric/rz2": (0.0, 1.42e-15),
    "spin_dots/6/symmetric/euler": (6.67e-16, 1.48e-15),
    "spin_dots/6/symmetric/cphase": (5.01e-01, 7.08e-01),
    "spin_dots/6/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "spin_dots/6/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "spin_dots/6/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "spin_dots/8/symmetric/rx": (2.23e-16, 0.0),
    "spin_dots/8/symmetric/rz1": (2.23e-16, 2.71e-15),
    "spin_dots/8/symmetric/rz2": (4.45e-16, 2.64e-15),
    "spin_dots/8/symmetric/euler": (3.34e-16, 2.55e-15),
    "spin_dots/8/symmetric/cphase": (5.01e-01, 7.08e-01),
    "spin_dots/8/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "spin_dots/8/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "spin_dots/8/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "donor_atoms/4/symmetric/rx": (2.23e-16, 0.0),
    "donor_atoms/4/symmetric/rz1": (2.23e-16, 0.0),
    "donor_atoms/4/symmetric/rz2": (4.45e-16, 0.0),
    "donor_atoms/4/symmetric/euler": (6.67e-16, 0.0),
    "donor_atoms/4/symmetric/cphase": (5.01e-01, 7.08e-01),
    "donor_atoms/4/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "donor_atoms/4/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "donor_atoms/4/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "donor_atoms/6/symmetric/rx": (2.23e-16, 0.0),
    "donor_atoms/6/symmetric/rz1": (1.12e-16, 1.64e-15),
    "donor_atoms/6/symmetric/rz2": (0.0, 1.42e-15),
    "donor_atoms/6/symmetric/euler": (6.67e-16, 1.48e-15),
    "donor_atoms/6/symmetric/cphase": (5.01e-01, 7.08e-01),
    "donor_atoms/6/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "donor_atoms/6/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "donor_atoms/6/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "donor_atoms/8/symmetric/rx": (2.23e-16, 0.0),
    "donor_atoms/8/symmetric/rz1": (2.23e-16, 2.71e-15),
    "donor_atoms/8/symmetric/rz2": (4.45e-16, 2.64e-15),
    "donor_atoms/8/symmetric/euler": (3.34e-16, 2.55e-15),
    "donor_atoms/8/symmetric/cphase": (5.01e-01, 7.08e-01),
    "donor_atoms/8/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "donor_atoms/8/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "donor_atoms/8/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "quantum_hall/4/symmetric/rx": (2.23e-16, 0.0),
    "quantum_hall/4/symmetric/rz1": (5.56e-16, 0.0),
    "quantum_hall/4/symmetric/rz2": (4.45e-16, 0.0),
    "quantum_hall/4/symmetric/euler": (1.00e-15, 0.0),
    "quantum_hall/4/symmetric/cphase": (5.56e-16, 1.51e-16),
    "quantum_hall/6/symmetric/rx": (2.23e-16, 0.0),
    "quantum_hall/6/symmetric/rz1": (4.45e-16, 1.06e-15),
    "quantum_hall/6/symmetric/rz2": (0.0, 1.05e-15),
    "quantum_hall/6/symmetric/euler": (1.00e-15, 8.66e-16),
    "quantum_hall/6/symmetric/cphase": (5.56e-16, 1.51e-16),
    "quantum_hall/8/symmetric/rx": (2.23e-16, 0.0),
    "quantum_hall/8/symmetric/rz1": (0.0, 2.85e-15),
    "quantum_hall/8/symmetric/rz2": (4.45e-16, 2.54e-15),
    "quantum_hall/8/symmetric/euler": (0.0, 2.83e-15),
    "quantum_hall/8/symmetric/cphase": (5.56e-16, 1.26e-16),
    "cavity/4/symmetric/rx": (2.23e-16, 0.0),
    "cavity/4/symmetric/rz1": (5.56e-16, 0.0),
    "cavity/4/symmetric/rz2": (4.45e-16, 0.0),
    "cavity/4/symmetric/euler": (1.00e-15, 0.0),
    "cavity/4/symmetric/cphase": (5.56e-16, 1.51e-16),
    "cavity/6/symmetric/rx": (2.23e-16, 0.0),
    "cavity/6/symmetric/rz1": (4.45e-16, 1.06e-15),
    "cavity/6/symmetric/rz2": (0.0, 1.05e-15),
    "cavity/6/symmetric/euler": (1.00e-15, 8.66e-16),
    "cavity/6/symmetric/cphase": (5.56e-16, 1.51e-16),
    "cavity/8/symmetric/rx": (2.23e-16, 0.0),
    "cavity/8/symmetric/rz1": (0.0, 2.85e-15),
    "cavity/8/symmetric/rz2": (4.45e-16, 2.54e-15),
    "cavity/8/symmetric/euler": (0.0, 2.83e-15),
    "cavity/8/symmetric/cphase": (5.56e-16, 1.26e-16),
    "exciton_dots/4/symmetric/rx": (2.23e-16, 0.0),
    "exciton_dots/4/symmetric/rz1": (5.56e-16, 0.0),
    "exciton_dots/4/symmetric/rz2": (4.45e-16, 0.0),
    "exciton_dots/4/symmetric/euler": (1.00e-15, 0.0),
    "exciton_dots/4/symmetric/cphase": (5.56e-16, 1.51e-16),
    "exciton_dots/6/symmetric/rx": (2.23e-16, 0.0),
    "exciton_dots/6/symmetric/rz1": (4.45e-16, 1.06e-15),
    "exciton_dots/6/symmetric/rz2": (0.0, 1.05e-15),
    "exciton_dots/6/symmetric/euler": (1.00e-15, 8.66e-16),
    "exciton_dots/6/symmetric/cphase": (5.56e-16, 1.51e-16),
    "exciton_dots/8/symmetric/rx": (2.23e-16, 0.0),
    "exciton_dots/8/symmetric/rz1": (0.0, 2.85e-15),
    "exciton_dots/8/symmetric/rz2": (4.45e-16, 2.54e-15),
    "exciton_dots/8/symmetric/euler": (0.0, 2.83e-15),
    "exciton_dots/8/symmetric/cphase": (5.56e-16, 1.26e-16),
    "electrons_on_helium/4/symmetric/rx": (2.23e-16, 0.0),
    "electrons_on_helium/4/symmetric/rz1": (6.67e-16, 0.0),
    "electrons_on_helium/4/symmetric/rz2": (5.56e-16, 0.0),
    "electrons_on_helium/4/symmetric/euler": (8.89e-16, 0.0),
    "electrons_on_helium/4/symmetric/cphase": (6.67e-16, 2.68e-16),
    "electrons_on_helium/6/symmetric/rx": (2.23e-16, 0.0),
    "electrons_on_helium/6/symmetric/rz1": (6.62e-01, 1.01e-15),
    "electrons_on_helium/6/symmetric/rz2": (0.0, 1.16e-15),
    "electrons_on_helium/6/symmetric/euler": (4.96e-01, 9.69e-16),
    "electrons_on_helium/6/symmetric/cphase": (2.51e-02, 3.20e-16),
    "electrons_on_helium/8/symmetric/rx": (2.23e-16, 0.0),
    "electrons_on_helium/8/symmetric/rz1": (8.86e-01, 2.84e-15),
    "electrons_on_helium/8/symmetric/rz2": (6.62e-01, 2.51e-15),
    "electrons_on_helium/8/symmetric/euler": (7.46e-01, 2.80e-15),
    "electrons_on_helium/8/symmetric/cphase": (3.27e-01, 2.62e-16),
    "heisenberg/4/symmetric/rx": (2.23e-16, 0.0),
    "heisenberg/4/symmetric/rz1": (2.23e-16, 0.0),
    "heisenberg/4/symmetric/rz2": (4.45e-16, 0.0),
    "heisenberg/4/symmetric/euler": (6.67e-16, 0.0),
    "heisenberg/4/symmetric/cphase": (5.01e-01, 7.08e-01),
    "heisenberg/4/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "heisenberg/4/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "heisenberg/4/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "heisenberg/6/symmetric/rx": (2.23e-16, 0.0),
    "heisenberg/6/symmetric/rz1": (1.12e-16, 1.64e-15),
    "heisenberg/6/symmetric/rz2": (0.0, 1.42e-15),
    "heisenberg/6/symmetric/euler": (6.67e-16, 1.48e-15),
    "heisenberg/6/symmetric/cphase": (5.01e-01, 7.08e-01),
    "heisenberg/6/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "heisenberg/6/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "heisenberg/6/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "heisenberg/8/symmetric/rx": (2.23e-16, 0.0),
    "heisenberg/8/symmetric/rz1": (2.23e-16, 2.71e-15),
    "heisenberg/8/symmetric/rz2": (4.45e-16, 2.64e-15),
    "heisenberg/8/symmetric/euler": (3.34e-16, 2.55e-15),
    "heisenberg/8/symmetric/cphase": (5.01e-01, 7.08e-01),
    "heisenberg/8/symmetric/heis_zz": (2.30e-01, 5.96e-01),
    "heisenberg/8/antisymmetric/cphase": (5.01e-01, 7.08e-01),
    "heisenberg/8/antisymmetric/heis_zz": (2.30e-01, 5.96e-01),
    "xy/4/symmetric/rx": (2.23e-16, 0.0),
    "xy/4/symmetric/rz1": (5.56e-16, 0.0),
    "xy/4/symmetric/rz2": (4.45e-16, 0.0),
    "xy/4/symmetric/euler": (1.00e-15, 0.0),
    "xy/4/symmetric/cphase": (5.56e-16, 1.51e-16),
    "xy/6/symmetric/rx": (2.23e-16, 0.0),
    "xy/6/symmetric/rz1": (4.45e-16, 1.06e-15),
    "xy/6/symmetric/rz2": (0.0, 1.05e-15),
    "xy/6/symmetric/euler": (1.00e-15, 8.66e-16),
    "xy/6/symmetric/cphase": (5.56e-16, 1.51e-16),
    "xy/8/symmetric/rx": (2.23e-16, 0.0),
    "xy/8/symmetric/rz1": (0.0, 2.85e-15),
    "xy/8/symmetric/rz2": (4.45e-16, 2.54e-15),
    "xy/8/symmetric/euler": (0.0, 2.83e-15),
    "xy/8/symmetric/cphase": (5.56e-16, 1.26e-16),
    "xxz_symmetric/4/symmetric/rx": (2.23e-16, 0.0),
    "xxz_symmetric/4/symmetric/rz1": (6.67e-16, 0.0),
    "xxz_symmetric/4/symmetric/rz2": (5.56e-16, 0.0),
    "xxz_symmetric/4/symmetric/euler": (8.89e-16, 0.0),
    "xxz_symmetric/4/symmetric/cphase": (6.67e-16, 2.68e-16),
    "xxz_symmetric/6/symmetric/rx": (2.23e-16, 0.0),
    "xxz_symmetric/6/symmetric/rz1": (6.62e-01, 1.01e-15),
    "xxz_symmetric/6/symmetric/rz2": (0.0, 1.16e-15),
    "xxz_symmetric/6/symmetric/euler": (4.96e-01, 9.69e-16),
    "xxz_symmetric/6/symmetric/cphase": (2.51e-02, 3.20e-16),
    "xxz_symmetric/8/symmetric/rx": (2.23e-16, 0.0),
    "xxz_symmetric/8/symmetric/rz1": (8.86e-01, 2.84e-15),
    "xxz_symmetric/8/symmetric/rz2": (6.62e-01, 2.51e-15),
    "xxz_symmetric/8/symmetric/euler": (7.46e-01, 2.80e-15),
    "xxz_symmetric/8/symmetric/cphase": (3.27e-01, 2.62e-16),
    "xxz_antisymmetric/4/antisymmetric/rx": (2.23e-16, 0.0),
    "xxz_antisymmetric/4/antisymmetric/rz1": (4.45e-16, 0.0),
    "xxz_antisymmetric/4/antisymmetric/rz2": (5.56e-16, 0.0),
    "xxz_antisymmetric/4/antisymmetric/euler": (8.89e-16, 0.0),
    "xxz_antisymmetric/4/antisymmetric/cphase": (4.45e-16, 2.23e-16),
    "xxz_antisymmetric/6/antisymmetric/rx": (2.23e-16, 0.0),
    "xxz_antisymmetric/6/antisymmetric/rz1": (2.08e-03, 1.51e-15),
    "xxz_antisymmetric/6/antisymmetric/rz2": (0.0, 1.05e-15),
    "xxz_antisymmetric/6/antisymmetric/euler": (6.11e-03, 1.49e-15),
    "xxz_antisymmetric/6/antisymmetric/cphase": (2.19e-01, 6.92e-16),
    "xxz_antisymmetric/8/antisymmetric/rx": (2.23e-16, 0.0),
    "xxz_antisymmetric/8/antisymmetric/rz1": (2.84e-03, 2.41e-15),
    "xxz_antisymmetric/8/antisymmetric/rz2": (2.08e-03, 2.08e-15),
    "xxz_antisymmetric/8/antisymmetric/euler": (8.32e-03, 2.41e-15),
    "xxz_antisymmetric/8/antisymmetric/cphase": (4.53e-01, 7.84e-16),
}


def test_table_covers_exactly_the_ideal_passing_cases():
    passing = {
        f"{name}/{n}/{sk}/{gk}"
        for name in PRESET_NAMES
        for n in SIZES
        for sk, sector in SECTORS.items()
        for gk, gate in GATES.items()
        if verify_gate(gate, preset_model(name, n), sector).passed
    }
    assert set(PINNED) == passing


@pytest.mark.parametrize("key", sorted(PINNED))
def test_hard_pulse_no_worse_than_pinned(key):
    infidelity, leakage = _hard_pulse(*_case(key))
    pin_infidelity, pin_leakage = PINNED[key]
    assert infidelity <= max(TOL, pin_infidelity)
    assert leakage <= max(TOL, pin_leakage)
