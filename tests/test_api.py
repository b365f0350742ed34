"""The public API's parameter names, so that an added or removed option
shows up as a visible diff here."""

import dataclasses
import inspect

import sublin

SIGNATURES = {
    "ambiguity_set_from_dict": ["doc", "mode"],
    "bernoulli": ["p"],
    "check_peng_independence": ["model", "n", "mode"],
    "check_pseudo_independence": ["model", "n"],
    "clt_experiment": ["aset", "phi", "n_schedule", "grid", "truncate_sqrt_n", "mode"],
    "counterexample_family": ["K"],
    "dirac": ["x"],
    "enlarge_vertices": ["model"],
    "g_normal_expectation": ["phi", "params", "config"],
    "gaussian_quadrature": ["phi", "sigma"],
    "joint_model_from_dict": ["doc", "mode"],
    "lattice_embed": ["seq"],
    "lln_bounds": ["phi", "mu_lo", "mu_bar"],
    "lln_experiment": ["aset", "phi", "n_schedule", "mode"],
    "load_ambiguity_set": ["path", "mode"],
    "load_joint_model": ["path", "mode"],
    "lower_expectation": ["aset", "f"],
    "lower_probability": ["aset", "event"],
    "moment_summary": ["seq", "n_max", "schedule"],
    "parse_phi": ["text"],
    "prop62_experiment": ["K", "n", "clamp", "mode"],
    "prop63_experiment": ["K", "n", "clamp", "mode"],
    "rademacher": ["scale"],
    "same_distribution": ["a", "b", "tol"],
    "solve_g_heat": ["phi", "params", "T", "config"],
    "squared_counterexample_family": ["K"],
    "sublinear_eval_sum": ["seq", "f", "direction", "scale"],
    "upper_expectation": ["aset", "f"],
    "upper_probability": ["aset", "event"],
}


def test_exported_function_parameters():
    exported = {name: obj for name, obj in vars(sublin).items()
                if not name.startswith("_") and inspect.isfunction(obj)}
    assert {name: list(inspect.signature(f).parameters)
            for name, f in exported.items()} == SIGNATURES


def test_grid_config_fields():
    assert [f.name for f in dataclasses.fields(sublin.GridConfig)] == ["dx"]
