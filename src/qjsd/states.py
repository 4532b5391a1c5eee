"""Quantum state types and generation: density matrices, pure states, POVMs,
purifications, and seeded random sampling.

Random mixed states are drawn from the product measure "Haar unitary times
uniform eigenvalue simplex": rho = U diag(lam) U† with U Haar on U(N) and lam
uniform on the probability simplex. All randomness flows through numpy
Generators; derived streams come from a splitmix64-style hash so parallel
work is reproducible triplet by triplet.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (
    DimMismatch,
    InvalidConfig,
    NotPositive,
    NotUnitary,
    ParseError,
    RejectionBudgetExceeded,
)
from .linalg import (
    HERMITIAN_TOL,
    PSD_CLAMP,
    TRACE_TOL,
    UNITARY_TOL,
    check_hermitian,
    clamped_spectrum,
    eigh,
)

REJECTION_BUDGET = 10**6

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Stable 64-bit hash of (seed, *indices), used to derive RNG sub-streams."""
    x = seed & _MASK64
    for k in indices:
        x = _mix64(x ^ _mix64((k + _GOLDEN) & _MASK64))
    return x


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def check_density(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD up to round-off."""
    a = check_hermitian(rho)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace is {tr!r}, expected 1 within {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh(a)
    if w[0] < -PSD_CLAMP:
        raise NotPositive(f"eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.0e}")
    return a


def check_pure_state(psi) -> np.ndarray:
    """Validate a unit-norm complex state vector."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise DimMismatch(f"expected a 1-d state vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"norm is {nrm!r}, expected 1 within 1e-12")
    return v


def check_unitary(u, dim: int | None = None) -> np.ndarray:
    a = np.asarray(u, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimMismatch(f"expected dimension {dim}, got {a.shape[0]}")
    dev = np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0])))
    if dev > UNITARY_TOL:
        raise NotUnitary(f"deviation from unitarity is {dev:.3e}")
    return a


def check_povm(elements) -> list[np.ndarray]:
    """Validate a POVM: PSD Hermitian elements summing to the identity."""
    if len(elements) == 0:
        raise ValueError("POVM needs at least one element")
    mats = [check_hermitian(e) for e in elements]
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != dim:
            raise DimMismatch("POVM elements have mixed dimensions")
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_CLAMP:
            raise NotPositive(f"POVM element eigenvalue {w[0]:.3e}")
    dev = np.max(np.abs(sum(mats) - np.eye(dim)))
    if dev > TRACE_TOL:
        raise ValueError(f"POVM elements sum to identity only within {dev:.3e}")
    return mats


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def density_from_pure(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a unit vector."""
    v = check_pure_state(psi)
    return np.outer(v, v.conj())


def linear_entropy(rho) -> float:
    """1 - Tr(rho^2); zero for pure states, 1 - 1/N for maximally mixed."""
    a = np.asarray(rho, dtype=np.complex128)
    return float(1.0 - np.vdot(a, a).real)


def projective_povm(basis) -> list[np.ndarray]:
    """Rank-1 projective POVM from the columns of a unitary."""
    u = check_unitary(basis)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(u.shape[0])]


def purification(rho, v) -> np.ndarray:
    """Purify rho into dimension N^2 with environment freedom v.

    Returns sum_i sqrt(r_i) |r_i> (x) (v |i>), with {r_i, |r_i>} the spectral
    decomposition of rho and v an N x N unitary. Tracing out the second factor
    recovers rho.
    """
    a = check_density(rho)
    n = a.shape[0]
    u = check_unitary(v, n)
    w, vecs = eigh(a)
    s = np.sqrt(clamped_spectrum(w))
    return ((vecs * s) @ u.T).reshape(-1)


def partial_trace_second(psi, dim_a: int) -> np.ndarray:
    """Reduced density matrix on the first factor of a bipartite pure state."""
    v = check_pure_state(psi)
    if dim_a < 1 or v.size % dim_a != 0:
        raise DimMismatch(f"vector of size {v.size} does not factor as {dim_a} x b")
    r = v.reshape(dim_a, v.size // dim_a)
    return r @ r.conj().T


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

def unitaries_from_ginibre(z: np.ndarray) -> np.ndarray:
    """QR-orthonormalize a stack of complex Ginibre matrices into Haar unitaries.

    The R-diagonal phase correction U -> U diag(R_kk/|R_kk|) is what makes the
    QR output Haar-distributed; plain QR is not.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    absd = np.abs(d)
    ph = d / np.where(absd > 0, absd, 1.0)
    ph = np.where(absd > 0, ph, 1.0)
    return q * ph[..., None, :]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One Haar-random unitary drawn from rng."""
    s = rng.standard_normal((2, dim, dim))
    z = (s[0] + 1j * s[1]) / np.sqrt(2.0)
    return unitaries_from_ginibre(z[None])[0]


def simplex_point(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform point on the probability simplex (normalized exponentials)."""
    e = rng.standard_exponential(dim)
    return e / e.sum()


def draw_state_params(rng, dim, mixedness_floor=None):
    """Draw the raw (ginibre, eigenvalues) pair for one state, applying the
    optional mixedness filter by rejection on the eigenvalues.

    Separated from the QR step so large batches can orthonormalize in one
    LAPACK call while staying bit-identical to single draws.
    """
    for _ in range(REJECTION_BUDGET):
        s = rng.standard_normal((2, dim, dim))
        lam = rng.standard_exponential(dim)
        lam /= lam.sum()
        if mixedness_floor is None or 1.0 - float(lam @ lam) >= mixedness_floor:
            return (s[0] + 1j * s[1]) / np.sqrt(2.0), lam
    raise RejectionBudgetExceeded(
        f"mixedness_floor={mixedness_floor} rejected {REJECTION_BUDGET} consecutive draws"
    )


def states_from_params(z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Assemble U diag(lam) U† for a stack of (ginibre, eigenvalue) draws."""
    u = unitaries_from_ginibre(z)
    return (u * lam[..., None, :]) @ np.conj(np.swapaxes(u, -2, -1))


def sample_state(rng: np.random.Generator, dim: int, mixedness_floor: float | None = None) -> np.ndarray:
    """One random density matrix, rho = U diag(lam) U†."""
    z, lam = draw_state_params(rng, dim, mixedness_floor)
    return states_from_params(z[None], lam[None])[0]


class StateSampler:
    """Seeded stream of Haar x simplex random states of a fixed dimension.

    Identical (dim, seed, call sequence) gives bit-identical outputs. An
    optional mixedness_floor in [0, 1) keeps only states whose linear entropy
    1 - Tr(rho^2) reaches the floor, by rejection.
    """

    def __init__(self, dim: int, seed: int, mixedness_floor: float | None = None):
        if dim < 1:
            raise InvalidConfig(f"dim must be >= 1, got {dim}")
        if mixedness_floor is not None and not 0.0 <= mixedness_floor < 1.0:
            raise InvalidConfig(f"mixedness_floor must lie in [0, 1), got {mixedness_floor}")
        self.dim = int(dim)
        self.seed = int(seed)
        self.mixedness_floor = mixedness_floor
        self._rng = np.random.default_rng(self.seed)

    def haar_unitary(self) -> np.ndarray:
        return haar_unitary(self._rng, self.dim)

    def simplex(self) -> np.ndarray:
        return simplex_point(self._rng, self.dim)

    def state(self) -> np.ndarray:
        return sample_state(self._rng, self.dim, self.mixedness_floor)


# ---------------------------------------------------------------------------
# State file format
# ---------------------------------------------------------------------------
# {"dim": N, "matrix": [[[re, im], ...N], ...N]}

def state_to_dict(rho) -> dict:
    a = np.asarray(rho, dtype=np.complex128)
    return {
        "dim": int(a.shape[0]),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def write_state_file(rho, path) -> None:
    """Write a state file; floats use their shortest round-trip repr, so
    reading it back gives the same matrix bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(state_to_dict(rho)) + "\n")


def state_from_dict(obj) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        mat = obj["matrix"]
        a = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in mat],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"malformed state object: {exc}") from exc
    if a.shape != (dim, dim):
        raise ParseError(f"matrix shape {a.shape} does not match dim {dim}")
    try:
        return check_density(a)
    except Exception as exc:
        raise ParseError(f"not a valid density matrix: {exc}") from exc


def read_state_file(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read state file {path}: {exc}") from exc
    return state_from_dict(obj)
