import numpy as np
import pytest

from revivalwalk import NonUnitaryError, matrix_order
from revivalwalk.linalg import is_unitary

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def test_is_unitary_identity():
    assert is_unitary(np.eye(5))


def test_is_unitary_hadamard_form():
    assert is_unitary(HADAMARD)


def test_is_unitary_rejects_shear():
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_is_unitary_tolerance_is_respected():
    near = np.eye(2, dtype=complex)
    near[0, 0] = 1 + 1e-6
    assert not is_unitary(near, tol=1e-8)
    assert is_unitary(near, tol=1e-4)


def test_matrix_order_identity_is_one():
    assert matrix_order(np.eye(3), 5) == 1


def test_matrix_order_plain_three_cycle():
    w = np.zeros((3, 3), dtype=complex)
    w[0, 2] = w[1, 0] = w[2, 1] = 1.0
    assert matrix_order(w, 10) == 3


def test_matrix_order_swap_is_two():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert matrix_order(swap, 10) == 2


def test_matrix_order_absent_for_irrational_rotation():
    phase = np.exp(1j * 0.7)  # 0.7 rad is no rational multiple of 2*pi
    assert matrix_order(np.diag([phase, np.conj(phase)]), 50) is None


def test_matrix_order_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        matrix_order(np.array([[2, 0], [0, 1]], dtype=complex), 5)


def test_matrix_order_rejects_bad_max_order():
    with pytest.raises(ValueError):
        matrix_order(np.eye(2), 0)
