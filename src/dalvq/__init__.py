"""Distributed asynchronous online vector quantization, deterministically.

A library plus command line for simulating M processors that interleave
online quantizer descent with delayed averaging over a time-varying
communication schedule, and for checking the resulting trajectories against
the consensus and convergence guarantees of the underlying theory.
"""

__version__ = "0.1.0"

from .agreement import PhiLimitSeries, PhiTable, compute_phi, phi_limit_series
from .baselines import BaselineRun, lloyd_step, run_clvq, run_lloyd
from .diagnostics import (ConvergenceReport, RunMetrics, compute_metrics,
                          consensus_decay, estimate_lipschitz, summarize, theta_series)
from .engine import EventLog, RunArtifacts, RunConfig, StepPolicy, dalvq_tick, run
from .errors import ConfigError, ScheduleValidationError
from .geometry import SampleBatch, batched_cell_stats, min_component_separation, nearest_cell
from .measures import (DistributionSpec, StreamHandle, draw_index, init_quantizer,
                       make_batch, sample)
from .schedule import (CommSchedule, ScheduleSpec, ValidationReport, generate,
                       read_trace, validate, write_trace)

__all__ = [
    "__version__",
    "PhiLimitSeries", "PhiTable", "compute_phi", "phi_limit_series",
    "BaselineRun", "lloyd_step", "run_clvq", "run_lloyd",
    "ConvergenceReport", "RunMetrics", "compute_metrics", "consensus_decay",
    "estimate_lipschitz", "summarize", "theta_series",
    "EventLog", "RunArtifacts", "RunConfig", "StepPolicy", "dalvq_tick", "run",
    "ConfigError", "ScheduleValidationError",
    "SampleBatch", "batched_cell_stats",
    "min_component_separation", "nearest_cell",
    "DistributionSpec", "StreamHandle", "draw_index", "init_quantizer",
    "make_batch", "sample",
    "CommSchedule", "ScheduleSpec", "ValidationReport", "generate",
    "read_trace", "validate", "write_trace",
]
