import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import billingsley
from billingsley import BoxCriterion, BoxSpec, ParameterError

#: the public API; a name added or dropped here is a change to review
PUBLIC_NAMES = [
    "BillingsleyError", "BoxCriterion", "BoxSpec", "ConvergenceReport",
    "DEFAULT_SEED", "DickmanTable", "DomainError", "EmpiricalEstimate",
    "ExactProbability", "NumericalError", "ParameterError",
    "PrimeSieve", "ResourceError", "box_admissible", "box_probability_exact",
    "box_probability_via_psi", "build_rho_table", "build_sieve",
    "distance_to_complement", "h_function", "inf_density_on_box",
    "mertens_constant_estimate", "mertens_sum", "pd_box_probability_refined",
    "pd_density", "pd_sample_batch", "power_ceil", "power_floor", "prime_bounds",
    "psi_bruteforce", "psi_dickman", "psi_exact", "rho",
    "rho_via_alternating_sum", "run_criterion", "sample_box_probability",
    "sample_factor_vectors",
]

#: parameter names of every public callable but the exceptions that take the
#: builtin Exception arguments (a dataclass's are its fields); a parameter
#: that only tests set should not come back unnoticed
PUBLIC_PARAMETERS = {
    "BoxCriterion": ("epsilon", "k", "R"),
    "BoxSpec": ("t", "dt"),
    "ConvergenceReport": ("box", "epsilon", "R", "volume", "inf_density", "lower_bound",
                          "entries", "trend"),
    "DickmanTable": ("u_max", "cells"),
    "EmpiricalEstimate": ("hits", "total"),
    "ExactProbability": ("count", "total"),
    "PrimeSieve": ("limit", "largest_prime_factor", "prime_array"),
    "box_admissible": ("box", "crit"),
    "box_probability_exact": ("sieve", "n", "box"),
    "box_probability_via_psi": ("sieve", "n", "box"),
    "build_rho_table": ("u_max",),
    "build_sieve": ("limit",),
    "distance_to_complement": ("box",),
    "h_function": ("i", "u"),
    "inf_density_on_box": ("table", "box"),
    "mertens_constant_estimate": ("sieve", "x"),
    "mertens_sum": ("sieve", "a", "b"),
    "pd_box_probability_refined": ("table", "box", "grid"),
    "pd_density": ("table", "point"),
    "pd_sample_batch": ("seed", "count", "truncation", "start", "k"),
    "power_ceil": ("n", "t"),
    "power_floor": ("n", "t"),
    "prime_bounds": ("n", "box"),
    "psi_bruteforce": ("sieve", "x", "y"),
    "psi_dickman": ("table", "x", "y"),
    "psi_exact": ("x", "y"),
    "rho": ("table", "u"),
    "rho_via_alternating_sum": ("u",),
    "run_criterion": ("sieve", "table", "ladder", "box", "crit", "budget", "seed",
                      "exact_threshold"),
    "sample_box_probability": ("sieve", "n", "box", "samples", "seed"),
    "sample_factor_vectors": ("sieve", "n", "count", "k", "seed"),
}

EXCEPTION_ARGS = {"BillingsleyError", "DomainError", "NumericalError", "ParameterError",
                  "ResourceError"}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_api_is_pinned():
    assert sorted(billingsley.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(billingsley, name) is not None


def test_public_parameters_are_pinned():
    got = {}
    for name in PUBLIC_NAMES:
        obj = getattr(billingsley, name)
        if callable(obj) and name not in EXCEPTION_ARGS:
            got[name] = tuple(inspect.signature(obj).parameters)
    assert got == PUBLIC_PARAMETERS


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    assert sketch is not None, "README has no library sketch"
    exec(compile(sketch.group(1), str(README), "exec"), {})


@pytest.mark.parametrize("entry", ["run_criterion", "mertens_sum", "mertens_constant_estimate",
                                   "build_sieve", "BoxCriterion", "pd_box_probability_refined"])
def test_integer_arguments_refuse_floats_and_take_numpy_integers(sieve5, table, entry):
    # a float is refused before any work, integral or not, and a numpy
    # integer gives the same answer as the int
    box = BoxSpec.from_string("0.5,0.1")
    call, value, bad = {
        "run_criterion": (lambda v: billingsley.run_criterion(
            sieve5, table, [v], box, BoxCriterion(epsilon=0.25, k=1)).to_dict(), 10**4, 10000.7),
        "mertens_sum": (lambda v: billingsley.mertens_sum(sieve5, v, 10), 3, 2.5),
        "mertens_constant_estimate": (
            lambda v: billingsley.mertens_constant_estimate(sieve5, v), 10, 10.5),
        "build_sieve": (lambda v: (type(billingsley.build_sieve(v).limit),
                                   billingsley.build_sieve(v).prime_array.tolist()), 100, 10.5),
        "BoxCriterion": (lambda v: (BoxCriterion(epsilon=0.25, k=v),
                                    type(BoxCriterion(epsilon=0.25, k=v).k)), 1, 1.5),
        "pd_box_probability_refined": (lambda v: billingsley.pd_box_probability_refined(
            table, BoxSpec.from_string("0.45,0.1;0.2,0.05"), grid=v), 8, 8.0),
    }[entry]
    for v in (bad, float(value)):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(v)
    assert call(np.int64(value)) == call(value)


@pytest.mark.parametrize("entry", ["psi_exact", "BoxCriterion", "build_sieve",
                                   "pd_sample_batch", "box_probability_exact"])
def test_integer_arguments_refuse_bools(sieve5, entry):
    # a bool is an int to Python, but never a count, a rank or a limit
    call = {
        "psi_exact": lambda v: billingsley.psi_exact(v, 10),
        "BoxCriterion": lambda v: BoxCriterion(epsilon=0.25, k=v),
        "build_sieve": billingsley.build_sieve,
        "pd_sample_batch": lambda v: billingsley.pd_sample_batch(42, v),
        "box_probability_exact": lambda v: billingsley.box_probability_exact(
            sieve5, v, BoxSpec.from_string("0.5,0.1")),
    }[entry]
    for v in (True, np.True_):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(v)
