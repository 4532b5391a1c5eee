"""Dense complex linear algebra: matrix checks, the PSD verdict on a spectrum,
and the square root of a matrix from its eigensystem.

All matrices are square numpy arrays of complex128. Dimensions of interest are
small (2 to a few dozen), so callers use LAPACK's dense Hermitian solvers,
np.linalg.eigh and eigvalsh, directly; a failure stays a np.linalg.LinAlgError.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NotHermitian, NotPositive

# Validation tolerances, shared across the package.
HERMITIAN_TOL = 1e-12
PSD_CLAMP = 1e-10  # eigenvalues in [-PSD_CLAMP, 0) are round-off, below is an error
TRACE_TOL = 1e-10
UNITARY_TOL = 1e-10


def as_complex_matrix(m, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries; with
    stack=True, to a stack (..., N, N) of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or (a.ndim > 2 and not stack):
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """a, a matrix or a stack (..., N, N) from as_complex_matrix; NotHermitian
    unless its max entrywise deviation from a† is within HERMITIAN_TOL."""
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max()
    if dev > HERMITIAN_TOL:
        raise NotHermitian(f"deviation from conjugate transpose is {dev:.3e} > {HERMITIAN_TOL:.0e}")
    return a


def clamped_spectrum(w: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in [-PSD_CLAMP, 0) to 0; below -PSD_CLAMP raise
    NotPositive. The package's one PSD verdict on a spectrum."""
    lo = w.min()
    if lo < -PSD_CLAMP:
        raise NotPositive(f"eigenvalue {lo:.3e} below -{PSD_CLAMP:.0e}")
    return np.maximum(w, 0.0)


def sqrt_from_eigh(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Principal square root V diag(sqrt w) V† of a PSD Hermitian matrix from
    its eigensystem.

    Eigenvalues at or below the eigensolver's round-off level N*eps*max|w|
    count as zero: a true zero comes out near 1e-16, and its square root,
    near 1e-8, would otherwise pass into the result.
    """
    w = clamped_spectrum(w)
    s = np.sqrt(np.where(w > w.size * np.finfo(np.float64).eps * np.max(w), w, 0.0))
    return (v * s) @ v.conj().T
