"""Exception types shared across the package.

The CLI maps ParameterError/DomainError/ResourceError/NumericalError to
exit code 1; argument-parsing problems exit 2.
"""


class BillingsleyError(Exception):
    """Base class for all library errors."""


class ParameterError(BillingsleyError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(BillingsleyError, ValueError):
    """An input is outside the domain an operation supports."""


class ResourceError(BillingsleyError, RuntimeError):
    """A computation would exceed the configured memory budget."""


#: refuse computations whose arrays would need more than this many bytes
DEFAULT_MEMORY_BUDGET = 4 << 30


def check_memory(need: float, what: str) -> None:
    """Raise ResourceError, before anything is allocated, when `what` needs
    more than DEFAULT_MEMORY_BUDGET bytes."""
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceError(f"{what} needs ~{need / 2**30:.3g} GiB, "
                            f"budget is {DEFAULT_MEMORY_BUDGET / 2**30:.3g} GiB")


class NumericalError(BillingsleyError, RuntimeError):
    """A numerical routine failed to converge."""
