"""Photon-number statistics of coherent pulses scattered by a two-level
emitter coupled to one or two 1D transmission lines.

The package evolves the emitter's master equation, computes the count
distribution of the monitored output channel along two independent routes
(time-ordered correlator moments with inclusion-exclusion inversion, and
jump-resolved counting), and cross-checks both against a quantum-jump
Monte Carlo unraveling.
"""

from .counting import (
    PhotonStats,
    binomial_moments,
    correlator,
    counting_distribution,
    invert_moments,
    moments_from_probabilities,
    one_photon_probability,
    photon_statistics,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CutoffError,
    NumericalError,
    SpecError,
    TailError,
)
from .liouville import (
    EXCITED,
    GROUND,
    IDENTITY2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    Channel,
    DriveSpec,
    SampledPulse,
    SingleLine,
    SquarePulse,
    TwoLine,
    build_liouvillian,
    decay_channels,
    devectorize,
    dissipator,
    drive_amplitude,
    drive_hamiltonian,
    effective_hamiltonian,
    jump_superop,
    total_decay_rate,
    vectorize,
)
from .propagator import evolve_state, propagator_between, validate_density
from .sweeps import (
    DEFAULT_A_GRID,
    DEFAULT_N_GRID,
    DEFAULT_T_GRID,
    MaximizeResult,
    SweepRecord,
    SweepResult,
    maximize_p1,
    pi_pulse_number,
    sweep_single_line,
    sweep_two_line,
    sweep_two_line_slices,
)
from .trajectories import TrajectoryResult, sample_trajectories, sample_trajectory_range

__version__ = "0.1.0"
