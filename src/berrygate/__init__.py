"""Simulator and verification library for adiabatic geometric-phase gates on
one and two spin-half qubits.

Conventions: hbar = 1, all angular quantities in rad/s, computational basis
|0> = spin-up and |1> = spin-down, two-qubit basis ordered
{up-up, up-down, down-up, down-down}.
"""

from .bloch import (
    BlochTrajectory,
    RabiParams,
    from_rotating_frame,
    integrate_bloch,
    rotating_rabi_vector,
    rotation_z,
)
from .gates import (
    controlled_phase,
    gate_fidelity,
    hadamard,
    local_phase_equivalence,
    phase_gate,
    prepare_network,
)
from .linalg import expm_hermitian, pauli, tensor
from .phase import (
    DegenerateSpectrumError,
    LoopSpec,
    PhaseDecomposition,
    berry_cone_phase,
    circle_distance,
    cone_state_path,
    cos_theta_resonance,
    eigenstate_path,
    geometric_phase_discrete,
    solid_angle_spherical_polygon,
    wrap_to_pi,
)
from .schedules import PulseSchedule, Segment, build_cone_loop, pi_pulse
from .schrodinger import (
    SchrodingerTrajectory,
    StepSizeError,
    TwoSpinParams,
    bloch_of_state,
    hamiltonian_1q,
    hamiltonian_2q,
    integrate_schrodinger,
)
from .sequences import (
    AdiabaticityError,
    ConditionalPhaseResult,
    ConePhaseMeasurement,
    ConeRunResult,
    EchoResult,
    FaultToleranceSurface,
    RowPeak,
    conditional_target_gate,
    default_times_1q,
    default_times_2q,
    delta_gamma,
    fault_tolerance_surface,
    measure_cone_phase,
    resolve_times,
    run_conditional_sequence,
    run_cone_loop,
    run_spin_echo_1q,
    write_peaks_csv,
    write_surface_csv,
)

__version__ = "0.1.0"
