"""Small dense complex-matrix helpers: unitarity, matrix order."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonUnitaryError
from .tolerances import TOL_MAT


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting non-square input."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def identity_deviation(a: np.ndarray) -> float:
    """Max entry magnitude of A - I."""
    a = as_complex_matrix(a)
    return float(np.abs(a - np.eye(a.shape[0])).max())


def is_unitary(a: np.ndarray, tol: float = TOL_MAT) -> bool:
    """True iff both A.A† and A†.A are the identity within ``tol`` (max entry)."""
    a = as_complex_matrix(a)
    return (
        identity_deviation(a @ a.conj().T) <= tol
        and identity_deviation(a.conj().T @ a) <= tol
    )


def matrix_order(a: np.ndarray, max_order: int, tol: float = TOL_MAT) -> int | None:
    """Smallest t in 1..max_order with A^t = I within ``tol``, or None.

    Raises NonUnitaryError if A is not unitary within ``tol``: orders are
    only meaningful on the unit circle, and powers of a non-unitary matrix
    drift instead of cycling.
    """
    a = as_complex_matrix(a)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if not is_unitary(a, tol):
        raise NonUnitaryError("matrix_order requires a unitary input")
    power = np.eye(a.shape[0], dtype=np.complex128)
    for t in range(1, max_order + 1):
        power = power @ a
        if identity_deviation(power) <= tol:
            return t
    return None
