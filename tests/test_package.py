"""Package-wide rules: every exported name exists, once; ``theory`` and
``neural`` load on first use; every numeric parameter is range-checked by
the one helper, ``objective._check``."""

import ast
import importlib
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import escbo
from escbo import (ComponentGaussian, ExperimentConfig, GrowthConditionParams,
                   MLPArchitecture, Objective, RngStream, StepSchedule,
                   SwarmState, UniformBox, check_consensus_condition,
                   check_error_bound_condition, check_stop,
                   consensus_bound_series, consensus_distance_bound,
                   contraction_constants, draw_noise, error_budget,
                   fescbo_step, generate_synthetic, gradient_bounds,
                   growth_margin, growth_radius, init_swarm, iteration_budget,
                   laplace_value, lookup, max_on_ball, minibatch_gradients,
                   perturbation_series, run_once, softmin_weights,
                   table_preset)
from escbo.objective import ConfigurationError, _check, _intervals

MODULES = sorted(m.name for m in pkgutil.iter_modules(escbo.__path__))


def test_seven_modules():
    assert MODULES == ["benchmarks", "cli", "harness", "neural", "objective",
                       "swarm", "theory"]


# Every name that escbo exports, by the module that defines it.
EXPORTS = {
    "benchmarks": "BenchmarkSpec available lookup",
    "harness": "AggregateReport DiagnosticReport ExperimentConfig RunRecord "
               "diagnose emit_report run_many run_once table_preset",
    "neural": "MLPArchitecture SyntheticDataset dnn_objective forward "
              "generate_synthetic test_error train_error",
    "objective": "ConfigurationError EstimationError LipschitzData Objective "
                 "forward_difference_gradient gradient_bounds "
                 "minibatch_gradients",
    "swarm": "ComponentGaussian DivergenceError RngStream StepSchedule "
             "SwarmState UniformBox check_stop consensus_point draw_noise "
             "escbo_step fescbo_step init_swarm softmin_weights "
             "swarm_diameter vanilla_cbo_step",
    "theory": "ComplexityConstants ConsensusCondition ErrorBoundCheck "
              "GrowthConditionParams ParameterConditionWarning "
              "ProximityResult check_consensus_condition "
              "check_error_bound_condition consensus_bound_series "
              "consensus_distance_bound contraction_constants error_budget "
              "growth_margin growth_radius iteration_budget laplace_value "
              "max_on_ball perturbation_series",
}

# Run in a fresh process, where nothing has imported the lazy modules yet.
IMPORT_BOUNDARY = """
import sys
LAZY = ("escbo.theory", "escbo.neural", "json", "fractions")
def loaded():
    return [m for m in LAZY if m in sys.modules]
import numpy
preloaded = loaded()  # by the interpreter's start-up or numpy, if any
import escbo
assert loaded() == preloaded, ("import escbo", loaded())
import escbo.cli
assert loaded() == preloaded, ("import escbo.cli", loaded())
lazy = {"theory", "neural"} | {name for module in ("theory", "neural")
                               for name in EXPORTS[module].split()}
assert lazy <= set(dir(escbo)), lazy - set(dir(escbo))
assert loaded() == preloaded, ("dir(escbo)", loaded())
from escbo import theory, neural
assert (theory, neural) == (sys.modules["escbo.theory"],
                            sys.modules["escbo.neural"])
for module, names in EXPORTS.items():
    for name in names.split():
        assert getattr(escbo, name) is \\
            getattr(sys.modules["escbo." + module], name), name
"""


def test_theory_neural_and_json_load_on_first_use():
    src = str(pathlib.Path(escbo.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", f"EXPORTS = {EXPORTS!r}\n{IMPORT_BOUNDARY}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert sum(len(names.split()) for names in EXPORTS.values()) == 59


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_resolve(name):
    module = importlib.import_module(f"escbo.{name}")
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        for attr in exported:
            assert hasattr(module, attr), f"escbo.{name}.{attr}"
    namespace: dict = {}
    exec(f"from escbo.{name} import *", namespace)
    if exported is not None:
        assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_no_object_is_exported_under_two_names(name):
    module = importlib.import_module(f"escbo.{name}")
    names_of: dict[int, list[str]] = {}
    for attr in getattr(module, "__all__", ()):
        names_of.setdefault(id(getattr(module, attr)), []).append(attr)
    assert [names for names in names_of.values() if len(names) > 1] == []


def test_only_the_one_helper_words_a_range_error():
    # A second "must lie in" message would be a second range check.
    src = pathlib.Path(escbo.__file__).parent
    modules = [path.name for path in sorted(src.glob("*.py"))
               if path.name != "objective.py"
               and "must lie in" in path.read_text()]
    assert modules == []


def test_one_helper_fits_and_one_box_samples():
    # No input is broadcast to (d,): a box's bounds and a Gaussian's mean
    # are numbers, and a box is sampled only by UniformBox.sample.  An array
    # input is converted only by objective._array (_reals asks numpy whether
    # it holds reals, and a batch is of integers); the benchmark kernels are
    # numpy functions that convert their own input.
    calls = []
    for path in sorted(pathlib.Path(escbo.__file__).parent.glob("*.py")):
        names = {"broadcast_to", "uniform"} | (
            set() if path.stem == "benchmarks" else
            {"asarray", "ascontiguousarray"})
        stack = [(ast.parse(path.read_text()), path.stem)]
        while stack:
            node, where = stack.pop()
            if isinstance(node, DEFINITIONS):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "attr", None) in names:
                calls.append((where, node.func.attr))
            stack.extend((child, where) for child in ast.iter_child_nodes(node))
    assert sorted(calls) == [("objective._array", "asarray"),
                             ("objective._reals", "asarray"),
                             ("objective.minibatch_gradients", "asarray"),
                             ("swarm.UniformBox.sample", "uniform")]


DEFINITIONS =(ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
NAMING = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def test_every_private_definition_is_named_elsewhere_in_the_package():
    # A private top-level function, class or method that no line of the
    # package names outside its own body runs only in tests: dead code.
    defined, named = {}, set()
    for path in sorted(pathlib.Path(escbo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in [top, *(top.body if isinstance(top, ast.ClassDef)
                                else ())]:
                if isinstance(node, DEFINITIONS) and node.name[0] == "_" \
                        and not node.name.endswith("__"):
                    defined[f"{path.stem}.{node.name}"] = node.name
        stack = [(tree, frozenset())]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, DEFINITIONS):
                inside |= {node.name}
            if (field := NAMING.get(type(node))) and \
                    getattr(node, field) not in inside:
                named.add(getattr(node, field))
            stack.extend((child, inside)
                         for child in ast.iter_child_nodes(node))
    assert [key for key, name in defined.items() if name not in named] == []


# ------------------------------------------------------- the range helper

@pytest.mark.parametrize("value, interval, count", [
    (0.0, "[0, inf)", False), (1e308, "[0, inf)", False),
    (1, "(0, 1]", False), (np.float32(0.5), "(0, 1)", False),
    (-5.0, "(-inf, inf)", False), (20, "[1, 20]", True),
    (np.int64(3), "[1, inf)", True), (2 ** 63 - 1, "[0, inf)", True),
    (-2 ** 63, "(-inf, inf)", True),
], ids=repr)
def test_check_accepts_a_number_in_its_interval(value, interval, count):
    # Returned as the Python number it equals, so that numpy scalars compute
    # on exactly like Python floats and ints.
    checked = _check("x", value, interval, count=count)
    assert checked == value and type(checked) is (int if count else float)


@pytest.mark.parametrize("value, interval, count", [
    (math.inf, "[0, inf]", False), (-math.inf, "[-inf, 0]", False),
    (math.nan, "(-inf, inf)", False), (0.0, "(0, 1]", False),
    (21, "[1, 20]", True), (2.0, "[1, 20]", True), (True, "[0, 1]", True),
    (True, "[0, 1]", False), (10 ** 400, "[0, inf)", False),
    (2 ** 63, "[1, 20]", True),
    (np.array(1.0), "[0, inf)", False), (None, "[0, inf)", False),
], ids=repr)
def test_check_rejects_anything_else(value, interval, count):
    with pytest.raises(ConfigurationError) as caught:
        _check("x", value, interval, count=count)
    assert str(caught.value) == f"x must lie in {interval}, got {value!r}"


# A count inside its interval but past int64 is named by the int64 range,
# the interval it lies outside of.
@pytest.mark.parametrize("value, interval", [
    (2 ** 63, "[0, inf)"), (-2 ** 63 - 1, "(-inf, inf)"),
    (np.uint64(2 ** 64 - 1), "[0, inf)"), (10 ** 400, "[0, inf)"),
], ids=repr)
def test_check_names_the_int64_range_for_a_count_past_it(value, interval):
    with pytest.raises(ConfigurationError) as caught:
        _check("x", value, interval, count=True)
    assert str(caught.value) == \
        f"x must lie in [-2**63, 2**63), got {value!r}"


def test_check_keeps_a_bounded_cache_of_parsed_intervals():
    for n in range(1, 600):
        _check("batch_size", 1, f"[1, {n}]", count=True)
    assert 0 < len(_intervals) <= 256


# ------------------------------------- every numeric parameter, one table

GEO = StepSchedule.geometric(0.1, 0.5)
GCP = GrowthConditionParams(1.0, 1.0, 0.5, 1.0)
SPHERE = Objective(2, lambda x: np.einsum("ij,ij->i", x, x))
NET = MLPArchitecture((2, 3, 1))


def _series(**kw):
    args = dict(lam=0.5, delta=0.1, schedule=GEO, L_g=1.0, M_g=1.0,
                var_init=1.0) | kw
    return perturbation_series(**args)


def _error_bound(**kw):
    args = dict(beta=1.0, lam=0.5, delta=0.1, schedule=GEO, L_f=1.0,
                var_init=1.0, epsilon=0.5, f_samples=[0.0, 1.0], fstar=0.0,
                d=1, sigma=0.1) | kw
    return check_error_bound_condition(**args)


def _bound_series(**kw):
    args = dict(k_max=3, lam=0.5, delta=0.1, schedule=GEO, L_g=1.0,
                var_init=1.0) | kw
    return consensus_bound_series(**args)


def _distance(**kw):
    args = dict(positions=np.zeros((2, 1)), fvals=[0.0, 0.0], xstar=[0.0],
                fstar=0.0, gcp=GCP, r=0.05, q=0.1, beta=10.0, f_r=0.0) | kw
    return consensus_distance_bound(**args)


def _fescbo(b):
    state = SwarmState(np.zeros((3, 2)), np.zeros(3))
    cfg = types.SimpleNamespace(lam=0.1, delta=0.1, beta=1.0, sigma=1e-3,
                                schedule=GEO, batch_size=b)
    return fescbo_step(state, SPHERE, cfg, RngStream(0))


def _bowl(points):
    return points[:, 0] ** 2


def _stop(tol):
    return check_stop(SwarmState(np.zeros((3, 2)), np.zeros(3), 0),
                      SwarmState(np.zeros((3, 2)), np.zeros(3), 1), tol)


QUICK = ExperimentConfig(runs=1, max_iters=1, particles=4)

# Every numeric parameter of the config and of a public function: its id,
# a call with the value in its place, one value in range, values just out of
# range, and whether it is a count.
PARAMETERS = [
    ("config-dim", lambda v: ExperimentConfig(dim=v), 1, [-1], True),
    ("config-particles", lambda v: ExperimentConfig(particles=v), 1, [0],
     True),
    ("config-lam", lambda v: ExperimentConfig(lam=v), 0.0, [-0.1], False),
    ("config-delta", lambda v: ExperimentConfig(delta=v), 0.0, [-0.1], False),
    ("config-beta", lambda v: ExperimentConfig(beta=v), 1e-3, [0.0], False),
    ("config-sigma", lambda v: ExperimentConfig(sigma=v), 1e-9, [0.0], False),
    ("config-batch_size",
     lambda v: ExperimentConfig(method="fescbo", batch_size=v), 20, [0, 21],
     True),
    ("config-max_iters", lambda v: ExperimentConfig(max_iters=v), 0, [-1],
     True),
    ("config-stop_tol", lambda v: ExperimentConfig(stop_tol=v), 0.0, [-1e-9],
     False),
    ("config-success_tol", lambda v: ExperimentConfig(success_tol=v), 1e-9,
     [0.0], False),
    ("config-runs", lambda v: ExperimentConfig(runs=v), 1, [0], True),
    ("config-seed", lambda v: ExperimentConfig(seed=v), -3, [], True),
    ("config-data_seed",
     lambda v: ExperimentConfig(benchmark="dnn", arch=(2, 3, 1), dim=0,
                                data_seed=v), 0, [-1], True),
    ("table_preset-scale", lambda v: table_preset("table3", v), 1.0,
     [0.0, 1.5], False),
    ("Objective-dim", lambda v: Objective(v, np.sum), 1, [0], True),
    ("gradient_bounds-L_f", lambda v: gradient_bounds(v, 2, 0.1), 1.0, [0.0],
     False),
    ("gradient_bounds-d", lambda v: gradient_bounds(1.0, v, 0.1), 1, [0],
     True),
    ("gradient_bounds-sigma", lambda v: gradient_bounds(1.0, 2, v), 0.1,
     [0.0], False),
    ("minibatch_gradients-sigma",
     lambda v: minibatch_gradients(SPHERE, np.zeros((3, 2)), None, v), 0.1,
     [0.0], False),
    ("generate_synthetic-seed", lambda v: generate_synthetic(NET, v), 0, [-1],
     True),
    ("lookup-d", lambda v: lookup("rastrigin", v), 1, [0], True),
    ("MLPArchitecture-width", lambda v: MLPArchitecture((v, 3, 1)), 1, [0],
     True),
    ("StepSchedule-c", lambda v: StepSchedule.constant(v), 0.0, [-0.1],
     False),
    ("StepSchedule-r", lambda v: StepSchedule("constant", 1.0, v), 0.0,
     [-5.0, 1.0], False),
    ("StepSchedule-geometric-r", lambda v: StepSchedule.geometric(1.0, v),
     0.5, [0.0, 1.0], False),
    ("ComponentGaussian-variance", lambda v: ComponentGaussian(0.0, v), 0.0,
     [-1.0], False),
    ("ComponentGaussian-mean", lambda v: ComponentGaussian(v, 1.0), 0.0, [],
     False),
    ("UniformBox-lo", lambda v: UniformBox(v, 1.0), 0.0, [1.0, 2.0], False),
    ("UniformBox-hi", lambda v: UniformBox(0.0, v), 1.0, [0.0], False),
    ("init_swarm-n_particles",
     lambda v: init_swarm(UniformBox(-1, 1), v, SPHERE, RngStream(0)), 1,
     [0], True),
    # init_swarm draws in its objective's dimension.
    ("init_swarm-dim",
     lambda v: init_swarm(UniformBox(-1, 1), 3, Objective(v, _bowl),
                          RngStream(0)), 1, [0], True),
    ("RngStream-seed", RngStream, -1, [], True),
    ("run_once-seed", lambda v: run_once(QUICK, v), 0, [], True),
    ("softmin_weights-beta", lambda v: softmin_weights(np.zeros(3), v), 0.0,
     [-1.0], False),
    ("draw_noise-delta", lambda v: draw_noise(v, 2, RngStream(0)), 0.0,
     [-0.1], False),
    ("fescbo_step-batch_size", _fescbo, 3, [0, 4], True),
    ("check_stop-tol", _stop, 0.0, [-1e-9], False),
    ("check_consensus_condition-lam",
     lambda v: check_consensus_condition(v, 0.1, GEO), 0.5, [-0.1], False),
    ("check_consensus_condition-delta",
     lambda v: check_consensus_condition(0.5, v, GEO), 0.0, [-0.1], False),
    # k_max lies in [0, 2**59]: numpy sizes no float64 array of 2**60.
    ("consensus_bound_series-k_max", lambda v: _bound_series(k_max=v), 0,
     [-1, 2 ** 59 + 1, 2 ** 62, 2 ** 63 - 1], True),
    ("consensus_bound_series-lam", lambda v: _bound_series(lam=v), 0.0,
     [-0.1], False),
    ("consensus_bound_series-delta", lambda v: _bound_series(delta=v), 0.0,
     [-0.1], False),
    ("consensus_bound_series-L_g", lambda v: _bound_series(L_g=v), 0.0,
     [-1.0], False),
    ("consensus_bound_series-var_init", lambda v: _bound_series(var_init=v),
     0.0, [-1.0], False),
    ("perturbation_series-lam", lambda v: _series(lam=v), 0.5, [-0.1],
     False),
    ("perturbation_series-delta", lambda v: _series(delta=v), 0.0, [-0.1],
     False),
    ("perturbation_series-L_g", lambda v: _series(L_g=v), 0.0, [-1.0],
     False),
    ("perturbation_series-M_g", lambda v: _series(M_g=v), 0.0, [-1.0],
     False),
    ("perturbation_series-var_init", lambda v: _series(var_init=v), 0.0,
     [-1.0], False),
    ("contraction_constants-lam", lambda v: contraction_constants(v, 0.1),
     0.5, [-0.1], False),
    ("contraction_constants-delta", lambda v: contraction_constants(0.5, v),
     0.0, [-0.1], False),
    ("contraction_constants-xi",
     lambda v: contraction_constants(0.5, 0.1, xi=v), 0.5, [0.0, 1.0], False),
    ("iteration_budget-W0", lambda v: iteration_budget(v, 0.01, 0.5), 1.0,
     [0.0], False),
    ("iteration_budget-eps", lambda v: iteration_budget(1.0, v, 0.5), 0.01,
     [0.0], False),
    ("iteration_budget-gamma", lambda v: iteration_budget(1.0, 0.01, v), 0.5,
     [0.0, 1.0], False),
    *((f"GrowthConditionParams-{name}",
       lambda v, i=i: GrowthConditionParams(*[1.0] * i, v, *[1.0] * (3 - i)),
       1.0, [0.0], False)
      for i, name in enumerate(("f_inf", "R0", "nu", "mu"))),
    ("growth_margin-c4k", lambda v: growth_margin(GCP, v), 1.0, [0.0],
     False),
    ("consensus_distance_bound-r", lambda v: _distance(r=v), 1.0, [0.0, 1.5],
     False),
    ("consensus_distance_bound-q", lambda v: _distance(q=v), 0.1, [0.0],
     False),
    ("consensus_distance_bound-beta", lambda v: _distance(beta=v), 0.0,
     [-1000.0], False),
    ("consensus_distance_bound-fstar", lambda v: _distance(fstar=v), 0.0,
     [], False),
    ("consensus_distance_bound-f_r", lambda v: _distance(f_r=v), 0.0, [],
     False),
    ("laplace_value-beta", lambda v: laplace_value(v, [0.0, 1.0]), 1e-3,
     [0.0], False),
    ("error_budget-beta", lambda v: error_budget(v, 0.5, [0.0], 0.0), 1.0,
     [0.0], False),
    ("error_budget-epsilon", lambda v: error_budget(1.0, v, [0.0], 0.0), 1.0,
     [0.0, 1.5], False),
    ("error_budget-fstar", lambda v: error_budget(1.0, 0.5, [0.0], v), 0.0,
     [], False),
    *((f"check_error_bound_condition-{name}",
       lambda v, name=name: _error_bound(**{name: v}), good, bad, count)
      for name, good, bad, count in (
          ("beta", 1.0, [0.0], False), ("lam", 0.5, [-0.1], False),
          ("delta", 0.1, [-0.1], False), ("L_f", 1.0, [0.0], False),
          ("var_init", 0.0, [-1.0], False), ("epsilon", 0.5, [0.0, 1.0],
                                             False),
          ("d", 1, [0], True), ("sigma", 0.1, [0.0], False),
          ("fstar", 0.0, [], False))),
    ("max_on_ball-radius", lambda v: max_on_ball(_bowl, [0.0], v, 0.5), 0.5,
     [0.0], False),
    ("max_on_ball-resolution", lambda v: max_on_ball(_bowl, [0.0], 1.0, v),
     1.0, [0.0, 1.5], False),
    ("growth_radius-fstar",
     lambda v: growth_radius(_bowl, [0.0], v, 0.5, 1.0, 0.1), 0.0, [], False),
    ("growth_radius-q",
     lambda v: growth_radius(_bowl, [0.0], 0.0, v, 1.0, 0.1), 0.5, [0.0],
     False),
    ("growth_radius-R0",
     lambda v: growth_radius(_bowl, [0.0], 0.0, 0.5, v, 0.1), 0.1, [0.0],
     False),
    ("growth_radius-resolution",
     lambda v: growth_radius(_bowl, [0.0], 0.0, 0.5, 1.0, v), 1.0,
     [0.0, 1.5], False),
    # In dimension 2 the squared offsets of a 1e160 grid pass the float range.
    ("max_on_ball-radius-2d",
     lambda v: max_on_ball(lambda p: p[:, 0], [0.0, 0.0], v, v), 1e160,
     [0.0], False),
    ("growth_radius-R0-2d",
     lambda v: growth_radius(lambda p: p[:, 0], [0.0, 0.0], 0.0, 0.5, v, v),
     1e160, [0.0], False),
    # Near the float maximum the span radius - (-radius) of an unscaled
    # grid overflows.
    ("max_on_ball-radius-max",
     lambda v: max_on_ball(lambda p: p[:, 0], [0.0], v, v), 1e308, [0.0],
     False),
    ("growth_radius-R0-max",
     lambda v: growth_radius(lambda p: p[:, 0], [0.0, 0.0], 0.0, 0.5, v, v),
     1e308, [0.0], False),
]


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=name)
    for name, call, good, _, _ in PARAMETERS])
def test_numeric_parameter_accepts_a_value_in_range(call, good):
    call(good)


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, call, _, out_of_range, count in PARAMETERS
    for bad in [math.nan, math.inf, -math.inf, True, "1", *out_of_range,
                *([2.5, 2 ** 63] if count else [])]])
def test_numeric_parameter_rejects_anything_else(call, bad):
    with pytest.raises(ConfigurationError):
        call(bad)
