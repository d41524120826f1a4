"""Exception types shared across the package, and the input rules that raise them.

Each input rule has one owner here; `_array` decides what counts as a number
at every entry.  A caller names its argument and, where sites differ, passes
the error class, so every site keeps its class.
"""

import math
import numbers
from itertools import chain

import numpy as np


class DimensionError(ValueError):
    """Inputs whose shapes or index ranges do not fit the declared space."""


class DomainError(ValueError):
    """Inputs outside the mathematical domain of an operation."""


class OrthochronousError(DomainError):
    """Matrix is not a proper orthochronous transformation of the form."""


class BranchError(DomainError):
    """Rotation angle pi: the principal matrix logarithm is ambiguous."""


class ClosureError(ValueError):
    """Structure constants violate the reductive split or the Jacobi identity."""


def _check_int(x, least: int, what: str, error: type[Exception]) -> int:
    """x as an int if it is an integer (not a bool) of at least `least`, else error."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise error(f"{what} must be an integer, got {x!r}")
    if x < least:
        raise error(f"{what} must be >= {least}, got {x}")
    return int(x)


def _check_real(x, what: str) -> float:
    """x as a float if it is a finite real number (not a bool), else DomainError."""
    try:
        ok = not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:
        ok = False
    if not ok:
        raise DomainError(f"{what} must be finite and real, got {x!r}")
    return float(x)


def _check_finite(x: np.ndarray, message: str, error: type[Exception]) -> None:
    """Raise error(message) unless every entry of the array x is finite; a
    count of the finite entries costs about half of .all() on a small array."""
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise error(message)


def _check_square(x: np.ndarray, least: int, what: str) -> int:
    """The size d of x, a square matrix or a stack of them (..., d, d) with
    d >= least; any other shape raises DimensionError."""
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.shape[-1] < least:
        raise DimensionError(f"{what} must be square, of shape (..., d, d) with d >= {least}, got {x.shape}")
    return x.shape[-1]


def _check_size(size: float, bound: float, what: str, why: str) -> None:
    """Raise DomainError unless size <= bound, so a NaN or inf size raises too."""
    if not size <= bound:
        raise DomainError(f"{what} = {size:.6g} exceeds {bound:g}, {why}")


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, kept as an axis of length 1: a hypot
    reduction, with no BLAS call and the same bits for a row in any stack.  It
    overflows or underflows only where the norm does; a size check reads it
    under np.errstate(over="ignore"), so that the inf fails the check."""
    return np.hypot.reduce(x, axis=-1, keepdims=True, initial=0.0)


def _array(x, what: str, error: type[Exception] = DimensionError) -> np.ndarray:
    """x as a float array, not copied when it is one.  Any value but a float
    or integer ndarray is first walked by reject_non_numbers: a string, a
    boolean or None in it raises error, as does what numpy cannot read as one
    float array (a ragged nesting, an int past the float range).  Complex
    input raises DomainError: a cast to float would drop its imaginary parts."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "fiu":
        return np.asarray(x, dtype=float)
    try:
        reject_non_numbers([x], what)
        arr = np.asarray(x)
        if arr.dtype.kind != "c":
            return np.asarray(arr, dtype=float)
    except DomainError as exc:
        raise error(str(exc)) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must hold numbers: {exc}") from exc
    raise DomainError(f"{what} must be real, got complex entries")


def _frozen(x, what: str = "the array") -> np.ndarray:
    """A read-only C-ordered float copy of x, which no caller can write through."""
    out = np.array(_array(x, what), order="C")
    out.setflags(write=False)
    return out


# values np.asarray(..., dtype=float) reads as numbers although an input
# holding them is malformed: "0.5" becomes 0.5, True becomes 1.0 and None NaN
_NOT_NUMBERS = (str, bytes, bool, np.bool_, type(None))


def reject_non_numbers(fields, what: str) -> None:
    """Raise DomainError when a string, a boolean or None sits anywhere in
    `fields`, a sequence of numeric values: numbers, or lists, tuples and
    arrays of them nested to any depth.

    The check runs one pass of map(type) per nesting level, so the fields of
    every node of a large section are checked together at C speed.
    """
    level = list(fields)
    while level:
        kinds = set(map(type, level))
        if any(issubclass(k, _NOT_NUMBERS) for k in kinds):
            raise DomainError(f"{what} must hold numbers, not strings, booleans or null")
        if kinds == {list}:
            level = list(chain.from_iterable(level))
        elif any(issubclass(k, (list, tuple, np.ndarray)) for k in kinds):
            nested = []
            for x in level:
                if isinstance(x, (list, tuple)):
                    nested.extend(x)
                elif isinstance(x, np.ndarray) and x.dtype.kind not in "iuf":
                    nested.append(x.tolist())
            level = nested
        else:
            return

