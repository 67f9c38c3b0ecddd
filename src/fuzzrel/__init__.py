"""Fuzzy reliability analysis of a repairable warm-standby system.

Crisp layer: a six-state Markov chain of two active-parallel units plus
one warm standby under imperfect failure coverage, giving MTTF, steady
availability and transient reliability.

Fuzzy layer: rates given as fuzzy numbers propagate through the crisp
characteristics by interval optimization over alpha-cut boxes, producing
membership curves, decision tables, inverse queries and coverage
calibration, with Monte Carlo simulators as independent cross-checks.
"""

from .errors import (
    CalibrationError,
    ConfigError,
    FuzzrelError,
    KernelEvaluationError,
    NestingError,
    NoContainmentError,
    SolverError,
    UnknownParameterError,
    ValidationError,
)
from .fuzzy import FuzzyNumber, Interval, MembershipCurve
from .markov import (
    ChainMode,
    GeneratorMatrix,
    State,
    SystemParams,
    UP_STATES,
    DOWN_STATES,
    build_generator,
    mttf,
    reliability_at,
    stationary_distribution,
    steady_availability,
)
from .bounds import (
    MTBF,
    STEADY_AVAILABILITY,
    BoundsResult,
    FuzzySystemParams,
    Metric,
    PARAMETER_NAMES,
    bounds_at_levels,
    characteristic_bounds,
    membership_curve,
    reliability_at_time,
)
from .decision import (
    AlphaCutTable,
    CalibrationResult,
    build_table,
    calibrate_coverage,
    invert_query,
    required_parameter_range,
)
from .simulate import SimConfig, SimEstimate, simulate_availability, simulate_mttf

__version__ = "1.0.0"

__all__ = [
    "AlphaCutTable",
    "BoundsResult",
    "CalibrationError",
    "CalibrationResult",
    "ChainMode",
    "ConfigError",
    "DOWN_STATES",
    "FuzzrelError",
    "FuzzyNumber",
    "FuzzySystemParams",
    "GeneratorMatrix",
    "Interval",
    "KernelEvaluationError",
    "MTBF",
    "MembershipCurve",
    "Metric",
    "NestingError",
    "NoContainmentError",
    "PARAMETER_NAMES",
    "STEADY_AVAILABILITY",
    "SimConfig",
    "SimEstimate",
    "SolverError",
    "State",
    "SystemParams",
    "UP_STATES",
    "UnknownParameterError",
    "ValidationError",
    "bounds_at_levels",
    "build_generator",
    "build_table",
    "calibrate_coverage",
    "characteristic_bounds",
    "invert_query",
    "membership_curve",
    "mttf",
    "reliability_at",
    "reliability_at_time",
    "required_parameter_range",
    "simulate_availability",
    "simulate_mttf",
    "stationary_distribution",
    "steady_availability",
]
