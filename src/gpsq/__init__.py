"""Processor-sharing queues with state-dependent throughput.

The state of the queue is a finite counting measure of remaining
processing times.  The package provides the arrival-to-arrival recursion
on that state, a catalog of service-rate functions, seeded shift-indexable
input sequences, backward (record / constant-drain) constructions of
stationary regimes, exact stationary sampling by regeneration-epoch
search, and the ``simctl`` command-line front end.
"""

from .measures import ATOM_TOL, ZERO, CountingMeasure
from .rates import (
    RateFunction,
    ValidationReport,
    classical_ps,
    half_interference,
    pure_delay,
    scaled_ps,
    table_rate,
    validate,
)
from .dynamics import (
    fluid_oracle_phi,
    gamma,
    gamma_values,
    last_departure_index,
    phi,
    step,
    trajectory,
)
from .input_process import (
    Deterministic,
    Exponential,
    MarkedInputGenerator,
    MarkovModulatedModel,
    Pareto,
    Uniform,
    deterministic_input,
    generator_from_config,
    iid_input,
    replication_seed,
    sample_blocks,
    scale_sigma,
)
from .stationary import (
    CouplingReport,
    LoynesResult,
    StabilityReport,
    StationaryProfileResult,
    backward_coupling_ps,
    backward_coupling_ps_batch,
    check_stability,
    gginf_stationary,
    lindley_W,
)

__version__ = "0.1.0"

__all__ = [
    "ATOM_TOL",
    "ZERO",
    "CountingMeasure",
    "RateFunction",
    "ValidationReport",
    "classical_ps",
    "half_interference",
    "pure_delay",
    "scaled_ps",
    "table_rate",
    "validate",
    "fluid_oracle_phi",
    "gamma",
    "gamma_values",
    "last_departure_index",
    "phi",
    "step",
    "trajectory",
    "Deterministic",
    "Exponential",
    "MarkedInputGenerator",
    "MarkovModulatedModel",
    "Pareto",
    "Uniform",
    "deterministic_input",
    "generator_from_config",
    "iid_input",
    "replication_seed",
    "sample_blocks",
    "scale_sigma",
    "CouplingReport",
    "LoynesResult",
    "StabilityReport",
    "StationaryProfileResult",
    "backward_coupling_ps",
    "backward_coupling_ps_batch",
    "check_stability",
    "gginf_stationary",
    "lindley_W",
    "__version__",
]
