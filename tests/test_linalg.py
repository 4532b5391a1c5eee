import numpy as np
import pytest

from qjsd.errors import NotHermitian, NotPositive
from qjsd.linalg import check_hermitian, sqrt_from_eigh

from conftest import rand_hermitian, rand_pure

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_eigh_identity():
    w, v = np.linalg.eigh(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_eigh_diagonal():
    w, _ = np.linalg.eigh(np.diag([0.25, 0.75]))
    assert np.allclose(w, [0.25, 0.75], atol=1e-14)


def test_eigh_pauli_x():
    # characteristic polynomial lambda^2 = 1 by hand
    w, v = np.linalg.eigh(PAULI_X)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    assert np.max(np.abs((v * w) @ v.conj().T - PAULI_X)) < 1e-10


@pytest.mark.parametrize("dim", range(2, 9))
def test_eigh_reconstruction_random(dim):
    for seed in range(100):
        m = rand_hermitian(np.random.default_rng(1000 * dim + seed), dim)
        w, v = np.linalg.eigh(m)
        assert np.all(np.diff(w) >= 0.0)  # cmd_compare reads a pure state's vector from column -1
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10


def test_check_hermitian_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_sqrt_identity():
    assert np.allclose(sqrt_from_eigh(*np.linalg.eigh(np.eye(3))), np.eye(3), atol=1e-14)


def test_matrix_sqrt_diagonal():
    assert np.allclose(sqrt_from_eigh(*np.linalg.eigh(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_sqrt_projector_idempotent():
    plus = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
    assert np.max(np.abs(sqrt_from_eigh(*np.linalg.eigh(plus)) - plus)) < 1e-12
    # random projectors: their round-off zero eigenvalues must not leak through the sqrt
    rng = np.random.default_rng(3)
    for _ in range(200):
        psi = rand_pure(rng, 3)
        p = np.outer(psi, psi.conj())
        assert np.max(np.abs(sqrt_from_eigh(*np.linalg.eigh(p)) - p)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_matrix_sqrt_squares_back(dim):
    for seed in range(25):
        rng = np.random.default_rng(7000 + 10 * dim + seed)
        m = rand_hermitian(rng, dim)
        psd = m @ m.conj().T
        s = sqrt_from_eigh(*np.linalg.eigh(psd))
        assert np.max(np.abs(s @ s - psd)) < 1e-9


def test_matrix_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        sqrt_from_eigh(*np.linalg.eigh(np.diag([1.0, -1e-6])))


def test_matrix_sqrt_clamps_roundoff():
    s = sqrt_from_eigh(*np.linalg.eigh(np.diag([1.0, -5e-11])))
    assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-12)
