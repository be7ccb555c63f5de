"""Encoded selective recoupling: compile exchange-only pulse schedules for
two-spins-per-qubit logical gates, simulate them exactly, and verify
fidelity, leakage, and step counts.
"""

from .compiler import (
    LogicalGate,
    circuit_from_list,
    compile_circuit,
    compile_gate,
    nmr_ising_schedule,
    nmr_z_rotation_schedule,
)
from .encoding import (
    ANTISYMMETRIC,
    SYMMETRIC,
    CodeSpec,
    code_isometry,
    decode,
    encode,
    logical_matrix,
    r_x,
    r_z,
    t_x,
    t_z,
)
from .errors import (
    CapacityError,
    ConnectivityError,
    ControllabilityError,
    DegenerateSpectrumError,
    DimensionError,
    RecouplerError,
    SectorError,
    UnsupportedGeneratorError,
    ValidationError,
)
from .evolution import (
    PulseSchedule,
    PulseStep,
    WindowTarget,
    apply_schedule,
    load_schedule,
    propagator,
    restrict,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from .model import (
    FREE_EVOLUTION,
    Coupling,
    ExchangeModel,
    PRESET_NAMES,
    TermHandle,
    background_hamiltonian,
    build_H0,
    build_R,
    build_T,
    build_zz,
    default_epsilon,
    heis,
    j_minus,
    j_plus,
    j_z,
    load_model,
    model_from_dict,
    model_to_dict,
    preset_model,
    sigma_x,
    toggled_generator,
)
from .pauli import PauliSum, conjugate, max_spins, to_matrix
from .verifier import (
    SuiteEntry,
    VerificationReport,
    cost_report,
    fidelity,
    identity_suite,
    target_circuit,
    target_logical,
    verify_circuit,
    verify_gate,
)

__version__ = "0.1.0"
