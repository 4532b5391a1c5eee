"""Quantum state types and generation: density matrices, pure states, POVMs,
purifications, and seeded random sampling.

Random mixed states are drawn from the product measure "Haar unitary times
uniform eigenvalue simplex": rho = U diag(lam) U† with U Haar on U(N) and lam
uniform on the probability simplex. The unitary is the phase-corrected QR of
a complex Ginibre matrix, and lam is a vector of normalized exponentials.

All randomness comes from one source, a `CounterStream`: a counter-based
stream in the style of Salmon et al., "Parallel random numbers: as easy as
1, 2, 3" (SC'11). Its variates are pure functions of a 64-bit key and a slot
number, the splitmix64 hash `derive_seed(key, slot)` turned into a 53-bit
uniform u in (0, 1], so any number of keys is drawn in a few numpy passes and
a key drawn alone gives the same bits as inside a batch. State i of
`sample_states(dim, seed, ...)` is the state of key derive_seed(seed, i); the
audit keys the states of its triplets the same way (see `qjsd.audit`).
`draw_state_params` draws one state per key, with this slot layout for
dimension N:

- Ginibre entry (i, j) is the complex normal sqrt(-ln u1) exp(2 pi i u2),
  with u1 from slot 2(iN + j) and u2 from slot 2(iN + j) + 1. Slots 0 to 2N² - 1
  are drawn once, after the spectrum is accepted.
- Rejection attempt a = 0, 1, ... draws the simplex point as the normalized
  exponentials -ln u from slots 2N² + aN to 2N² + aN + N - 1. A mixedness
  floor tests only the spectrum, so a rejected attempt draws no normals.

Derived seeds and keys come from the same hash, so parallel work is
reproducible state by state, whichever worker draws it.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

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
    PSD_CLAMP,
    TRACE_TOL,
    UNITARY_TOL,
    as_complex_matrix,
    check_hermitian,
    clamped_spectrum,
    eigh,
)

REJECTION_BUDGET = 10**6

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x):
    """splitmix64 finalizer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed, *indices):
    """Stable 64-bit hash of (seed, *indices), used to derive RNG sub-streams.

    Takes Python ints, or uint64 arrays that broadcast together; an array
    element hashes to the same value as the int.
    """
    x = seed & _MASK64
    for k in indices:
        x = _mix64(x ^ _mix64((k + _GOLDEN) & _MASK64))
    return x


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_groups(fn, n_tasks: int, workers: int) -> list:
    """Split range(n_tasks) into contiguous groups and return
    [fn(group) for group in groups].

    There are at most `workers` groups, and no more than there are tasks or
    CPUs. One group runs in this process; more run in a process pool, one
    process per group, and `fn` must then be picklable: a top-level function
    or a functools.partial of one, binding only picklable values, not a
    lambda or a closure.
    """
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    k = max(1, min(workers, n_tasks, available_cpus()))
    groups = [range(n_tasks * g // k, n_tasks * (g + 1) // k) for g in range(k)]
    if k == 1:
        return [fn(groups[0])]
    with ProcessPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, groups))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def check_density(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD up to round-off."""
    a = check_hermitian(rho)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace is {tr!r}, expected 1 within {TRACE_TOL:.0e}")
    clamped_spectrum(np.linalg.eigvalsh(a))  # raises NotPositive below -PSD_CLAMP
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
    """Validate a unitary, or every matrix of a stack (..., N, N) of them:
    the max entrywise deviation of U†U from the identity is within
    UNITARY_TOL."""
    a = as_complex_matrix(u, stack=True)
    if dim is not None and a.shape[-1] != dim:
        raise DimMismatch(f"expected dimension {dim}, got {a.shape[-1]}")
    dev = np.max(np.abs(np.swapaxes(a.conj(), -1, -2) @ a - np.eye(a.shape[-1])))
    if dev > UNITARY_TOL:
        raise NotUnitary(f"deviation from unitarity is {dev:.3e}")
    return a


def check_povm(elements) -> np.ndarray:
    """Validate a POVM: PSD Hermitian elements summing to the identity.

    Takes a list of N x N elements or a (K, N, N) stack, or a stack
    (..., K, N, N) of POVMs, and returns the stack as a complex array. A
    stack with one bad POVM raises what that POVM raises alone.
    """
    if len(elements) == 0:
        raise ValueError("POVM needs at least one element")
    if len({np.shape(e) for e in elements}) > 1:
        raise DimMismatch("POVM elements have mixed dimensions")
    mats = check_hermitian(elements, stack=True)
    if mats.ndim < 3:
        raise DimMismatch(f"expected a list of square matrices, got shape {mats.shape}")
    w = np.linalg.eigvalsh(mats).min()
    if w < -PSD_CLAMP:
        raise NotPositive(f"POVM element eigenvalue {w:.3e}")
    dev = np.max(np.abs(mats.sum(axis=-3) - np.eye(mats.shape[-1])))
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


def projective_povm(basis):
    """Rank-1 projective POVM from the columns of a unitary, as the list of
    the N projectors. A stack (..., N, N) of unitaries gives the stack
    (..., N, N, N) of their POVMs."""
    u = check_unitary(basis)
    v = np.swapaxes(u, -1, -2)  # v[..., k, :] is column k
    e = v[..., :, None] * v[..., None, :].conj()
    return list(e) if u.ndim == 2 else e


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


class CounterStream:
    """Counter-based random variates over a vector of 64-bit keys.

    The variate at (key, slot) is a pure function of the two, so a stream
    has no state to advance and a key gives the same bits at any position in
    any batch. Each method takes a uint64 array of slots and the keys to draw
    for (`rows`, an index into `keys`; all keys by default), and returns an
    array of shape (number of keys,) + slots.shape.
    """

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.uint64).reshape(-1)

    def _uniform(self, slots, rows) -> np.ndarray:
        """53-bit uniforms in (0, 1] from the hash of (key, slot)."""
        keys = self.keys if rows is None else self.keys[rows]
        h = derive_seed(keys.reshape((-1,) + (1,) * slots.ndim), slots)
        h >>= 11
        u = h.astype(np.float64)
        u += 1.0
        u *= 2.0**-53
        return u

    def standard_exponential(self, slots, rows=None) -> np.ndarray:
        """Exp(1) variates -ln u, one slot each."""
        u = self._uniform(slots, rows)
        np.log(u, out=u)
        return np.negative(u, out=u)

    def standard_normal(self, slots, rows=None) -> np.ndarray:
        """Complex standard normals (x + iy)/sqrt(2), by Box-Muller on the
        uniforms at slots s and s + 1: sqrt(-ln u_s) exp(2 pi i u_{s+1})."""
        r = np.sqrt(self.standard_exponential(slots, rows))
        theta = self._uniform(slots + 1, rows)
        theta *= 2.0 * np.pi
        z = np.empty(r.shape, dtype=np.complex128)
        np.multiply(r, np.cos(theta), out=z.real)
        np.multiply(r, np.sin(theta), out=z.imag)
        return z


def draw_state_params(stream, dim, mixedness_floor=None):
    """Draw the raw (ginibre, eigenvalues) pair of one state per key of a
    CounterStream, as (n, dim, dim) and (n, dim) arrays.

    The slot layout is the module docstring's. With a mixedness floor, each
    attempt redraws the spectra of the keys still rejected, all at the same
    attempt number; the Ginibre matrices are drawn once, after every spectrum
    is accepted. Only the stream's standard_exponential and standard_normal
    are called, so a wrapper that forwards those two methods can stand in.
    """
    base = 2 * dim * dim
    comps = np.arange(dim, dtype=np.uint64)
    lam = stream.standard_exponential(base + comps)
    lam /= lam.sum(axis=-1, keepdims=True)
    if mixedness_floor is not None:
        pending = np.flatnonzero(1.0 - (lam * lam).sum(axis=-1) < mixedness_floor)
        attempt = 1
        while pending.size:
            if attempt == REJECTION_BUDGET:
                raise RejectionBudgetExceeded(
                    f"mixedness_floor={mixedness_floor} rejected {REJECTION_BUDGET} consecutive draws"
                )
            e = stream.standard_exponential(base + attempt * dim + comps, pending)
            e /= e.sum(axis=-1, keepdims=True)
            lam[pending] = e
            pending = pending[1.0 - (e * e).sum(axis=-1) < mixedness_floor]
            attempt += 1
    entries = 2 * np.arange(dim * dim, dtype=np.uint64).reshape(dim, dim)
    return stream.standard_normal(entries), lam


def states_from_params(z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Assemble U diag(lam) U† for a stack of (ginibre, eigenvalue) draws."""
    u = unitaries_from_ginibre(z)
    return (u * lam[..., None, :]) @ np.conj(np.swapaxes(u, -2, -1))


def check_sampling(dim: int, mixedness_floor: float | None = None) -> None:
    """Reject a dimension below 2, or a mixedness floor no state can reach."""
    if dim < 2:
        raise InvalidConfig(f"dim must be >= 2, got {dim}")
    # 1 - Tr(rho^2) <= 1 - 1/dim, with equality only at the maximally mixed
    # state, so a higher floor would reject every draw until the budget ends
    if mixedness_floor is not None and not 0.0 <= mixedness_floor < 1.0 - 1.0 / dim:
        raise InvalidConfig(f"mixedness_floor must lie in [0, 1 - 1/{dim}), got {mixedness_floor}")


def sample_states(dim: int, seed: int, indices, mixedness_floor: float | None = None) -> np.ndarray:
    """The random states with the given indices, as a (len(indices), dim, dim)
    stack; state i is drawn from the key derive_seed(seed, i).

    A state has the same bits whichever other indices are drawn with it. With
    a mixedness floor in [0, 1 - 1/dim), only states whose linear entropy
    1 - Tr(rho^2) reaches the floor are kept, by rejection.
    """
    check_sampling(dim, mixedness_floor)
    keys = derive_seed(seed, np.asarray(indices, dtype=np.uint64).reshape(-1))
    return states_from_params(*draw_state_params(CounterStream(keys), dim, mixedness_floor))


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
    """The density matrix of a state object, read in one numpy pass as a
    float64 (N, N, 2) array viewed as complex128; ParseError if malformed."""
    try:
        dim = int(obj["dim"])
        m = np.array(obj["matrix"])  # a ragged matrix raises ValueError
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ParseError(f"malformed state object: {exc}") from exc
    if m.dtype.kind not in "biuf":  # astype would parse the string "1.0"
        raise ParseError(f"matrix entries are not all numbers (numpy dtype {m.dtype})")
    if m.shape != (dim, dim, 2):
        raise ParseError(f"matrix shape {m.shape} does not match dim {dim} with [re, im] entries")
    a = m.astype(np.float64, copy=False).view(np.complex128)[..., 0]
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
