import re
from pathlib import Path

import billingsley

#: the public API; a name added or dropped here is a change to review
PUBLIC_NAMES = [
    "BillingsleyError", "BoxCriterion", "BoxSpec", "ConvergenceReport",
    "DEFAULT_SEED", "DickmanTable", "DomainError", "EmpiricalEstimate",
    "ExactProbability", "FactorVector", "NumericalError", "ParameterError",
    "PrimeSieve", "ResourceError", "box_admissible", "box_probability_exact",
    "box_probability_via_psi", "build_rho_table", "build_sieve",
    "distance_to_complement", "h_function", "inf_density_on_box",
    "mertens_constant_estimate", "mertens_sum", "pd_box_probability_refined",
    "pd_density", "pd_sample_batch", "power_ceil", "power_floor", "prime_bounds",
    "psi_bruteforce", "psi_dickman", "psi_exact", "ranked_factors", "rho",
    "rho_via_alternating_sum", "run_criterion", "sample_box_probability",
    "sample_factor_vectors",
]

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_api_is_pinned():
    assert sorted(billingsley.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(billingsley, name) is not None


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    assert sketch is not None, "README has no library sketch"
    exec(compile(sketch.group(1), str(README), "exec"), {})
