"""Shared helpers used across the :mod:`repro` package.

This module intentionally stays dependency-free (standard library only) so
that every subpackage can import it without cycles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

#: Relative tolerance used whenever two costs are compared for equilibrium
#: or optimality conditions.  All social costs in this package are sums of
#: a modest number of floating point divisions, so ``1e-9`` is far below any
#: meaningful cost difference while being far above accumulated round-off.
TOLERANCE = 1e-9


class ExplosionError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its guard size.

    The paper's constructions are small by design; generic solvers in this
    package enumerate strategy spaces, edge subsets, or equilibrium
    candidates exactly.  Rather than silently hanging on an infeasibly
    large input, they raise this error carrying the offending size.
    """

    def __init__(self, what: str, size: float, limit: float) -> None:
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(
            f"{what}: enumeration size {size:g} exceeds guard limit {limit:g}"
        )

    def __reduce__(self):
        # ``args`` holds only the message, so the default reduction would
        # call ``__init__`` with one argument and fail on unpickling (as
        # when a process-pool worker sends one back).
        return (type(self), (self.what, self.size, self.limit))


def harmonic(n: int) -> float:
    """Return the ``n``-th harmonic number ``H(n) = 1 + 1/2 + ... + 1/n``.

    ``H(0)`` is 0 by convention (an edge bought by nobody contributes no
    potential).  Negative ``n`` is rejected.
    """
    if n < 0:
        raise ValueError(f"harmonic number undefined for n={n}")
    return sum(1.0 / i for i in range(1, n + 1))


def harmonic_fraction(n: int) -> Fraction:
    """Exact rational ``n``-th harmonic number (used in exactness tests)."""
    if n < 0:
        raise ValueError(f"harmonic number undefined for n={n}")
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    """Return True when ``a`` and ``b`` are equal up to mixed abs/rel ``tol``.

    Infinities compare equal only to themselves.
    """
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def leq(a: float, b: float, tol: float = TOLERANCE) -> bool:
    """Tolerant ``a <= b`` (``a`` may exceed ``b`` by the tolerance)."""
    if math.isinf(a) or math.isinf(b):
        return a <= b
    return a <= b + tol * max(1.0, abs(a), abs(b))


def lt(a: float, b: float, tol: float = TOLERANCE) -> bool:
    """Tolerant strict ``a < b`` (must beat ``b`` by more than the tolerance)."""
    if math.isinf(a) or math.isinf(b):
        return a < b
    return a < b - tol * max(1.0, abs(a), abs(b))


def validate_distribution(
    probabilities: Mapping[object, float] | Sequence[float],
    tol: float = 1e-8,
) -> None:
    """Raise ``ValueError`` unless the values form a probability distribution.

    Accepts either a mapping (values are probabilities) or a sequence of
    probabilities.  Entries must be non-negative and sum to 1 within ``tol``.
    """
    if isinstance(probabilities, Mapping):
        values: Iterable[float] = probabilities.values()
    else:
        values = probabilities
    total = 0.0
    for value in values:
        if value < -tol:
            raise ValueError(f"negative probability {value}")
        total += value
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total}, expected 1.0")


def normalize_distribution(weights: Mapping[object, float]) -> dict:
    """Return a copy of ``weights`` scaled to sum to 1.

    Zero-weight entries are dropped; an all-zero (or empty) input is
    rejected.
    """
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("cannot normalize: total weight is not positive")
    return {key: value / total for key, value in weights.items() if value > 0}


def product_size(sizes: Iterable[int]) -> float:
    """Return the product of ``sizes`` as a float (avoids huge-int blowups)."""
    result = 1.0
    for size in sizes:
        result *= size
    return result


def nearest_rank(sorted_values: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile of an already-sorted non-empty list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])
