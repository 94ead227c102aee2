"""Consensus-based derivative-free global optimization.

A swarm of particles drifts toward a softmin-weighted average of its own
positions, diffuses with a shared per-iteration Gaussian, and optionally
takes an extra step along a forward-difference gradient estimate (the ESCBO
scheme, with a mini-batch variant for expensive objectives).  The package
bundles the steppers with benchmark objectives, a sigmoid-MLP training
target, computable convergence bounds, and a seeded experiment harness.
"""

import importlib

from .benchmarks import BenchmarkSpec, available, lookup
from .harness import (AggregateReport, DiagnosticReport, ExperimentConfig,
                      RunRecord, diagnose, emit_report, run_many, run_once,
                      table_preset)
from .objective import (ConfigurationError, EstimationError, LipschitzData,
                        Objective, forward_difference_gradient,
                        gradient_bounds, minibatch_gradients)
from .swarm import (ComponentGaussian, DivergenceError, RngStream,
                    StepSchedule, SwarmState, UniformBox,
                    check_stop, consensus_point, draw_noise, escbo_step,
                    fescbo_step, init_swarm, softmin_weights,
                    swarm_diameter, vanilla_cbo_step)

# Loaded on first use, as no benchmark campaign runs them: name -> module.
_LAZY = {name: module for module, names in {
    "neural": """neural MLPArchitecture SyntheticDataset dnn_objective forward
        generate_synthetic test_error train_error""",
    "theory": """theory ComplexityConstants ConsensusCondition ErrorBoundCheck
        GrowthConditionParams ParameterConditionWarning ProximityResult
        check_consensus_condition check_error_bound_condition
        consensus_bound_series consensus_distance_bound contraction_constants
        error_budget growth_margin growth_radius iteration_budget
        laplace_value max_on_ball perturbation_series"""}.items()
    for name in names.split()}


def __getattr__(name):  # importlib: ``from . import`` would ask here again
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"
