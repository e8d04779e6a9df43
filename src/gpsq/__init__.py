"""Processor-sharing queues with state-dependent throughput.

The state of the queue is a finite counting measure of remaining
processing times.  The package provides the arrival-to-arrival recursion
on that state, a catalog of service-rate functions, seeded shift-indexable
input sequences, backward (record / constant-drain) constructions of
stationary regimes, exact stationary sampling by regeneration-epoch
search, and the ``simctl`` command-line front end.
"""

import os
import sys

# numpy is loaded here, with a one-thread OpenBLAS, unless the caller chose
# a pool size (OpenBLAS reads all three variables) or numpy is already loaded.
# The pthreads OpenBLAS bundled with numpy starts a worker pool at load, and
# its idle worker busy-waits for about 2**28 cycles.  On a 2-vCPU Xeon VM,
# whenever that spin competed with the importing thread for CPU time, it
# took a bare `import numpy` from 0.06-0.09 s to 0.13-0.16 s, and every
# simctl run paid it.  The package's one LAPACK call is a k x k `lstsq`,
# which OpenBLAS runs on one thread anyway.  The variable is set for this
# load only, so os.environ and child processes see no change.
if "numpy" not in sys.modules and not any(
        v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
