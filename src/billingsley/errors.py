"""Exception types shared across the package, and the checks on arguments
that every module makes: the memory budget and integer arguments.

The CLI maps ParameterError/DomainError/ResourceError/NumericalError to
exit code 1; argument-parsing problems exit 2.
"""
from __future__ import annotations

import operator

import numpy as np


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


def _integer_n(n, name: str = "n") -> int:
    """n as a Python int, so that its powers never wrap: a numpy integer
    converts exactly; a float, integral or not, or a bool is a
    ParameterError."""
    try:
        if not isinstance(n, bool):
            return operator.index(n)
    except TypeError:
        pass
    raise ParameterError(f"{name} must be an integer, got {n!r}")


def _integer_array(x, name: str = "x") -> np.ndarray:
    """x as an int64 array of its shape, 0-d for a scalar: an int, a numpy
    integer, or an array or sequence of integers.  A float, integral or
    not, or a non-empty array of any other dtype is a ParameterError, so
    that nothing is truncated; an int past int64 raises OverflowError."""
    a = np.asarray(x)
    if a.dtype.kind in "iu" or not a.size:  # an empty list comes as float64
        return a.astype(np.int64, copy=False)
    if a.ndim and a.dtype != object:
        raise ParameterError(f"{name} must be integers, got an array of {a.dtype}")
    # a scalar, or objects such as ints past int64: each one through _integer_n
    return np.array([_integer_n(v, name) for v in a.ravel().tolist()],
                    dtype=np.int64).reshape(a.shape)


class NumericalError(BillingsleyError, RuntimeError):
    """A numerical routine failed to converge."""
