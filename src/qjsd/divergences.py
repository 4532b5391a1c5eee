"""Distance and divergence measures between quantum states.

Everything entropic is in bits (base-2 logarithms), so the Jensen-Shannon
divergence is bounded by 1 and its square root by 1. The quantum JSD of
density matrices rho, sigma is

    D(rho, sigma) = H((rho+sigma)/2) - H(rho)/2 - H(sigma)/2,

with H the von Neumann entropy; the square root of D is the candidate metric
this package exists to compute and stress-test.
"""

from __future__ import annotations

import functools

from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, DomainError
from .linalg import clamped_spectrum, sqrt_from_eigh
from .states import (
    CounterStream,
    check_cap,
    check_count,
    check_pure_state,
    check_seed,
    check_states,
    check_unitary,
    derive_seed,
    unitaries_from_ginibre,
)

# caps on what one call holds at once: about 105 B per pair-grid point of
# pure_triangle_scan, and 120-130 B per entry of djs1_lower_bound's bases
_MAX_SCAN_POINTS = 10**7
_MAX_BASIS_ENTRIES = 10**7
# side i of a state pair or triplet joins state i to state _PARTNER[k][i]
_PARTNER = {2: np.array([1]), 3: np.array([1, 2, 0])}
_MINUS_PLUS = np.array([-1.0, 1.0])


# ---------------------------------------------------------------------------
# Entropies of spectra and probability laws
# ---------------------------------------------------------------------------

def entropy_from_eigenvalues(w) -> np.ndarray | float:
    """Shannon entropy in bits of a spectrum, along the last axis.

    0 log 0 is taken as 0, and a negative entry adds 0 (see clamped_spectrum).
    """
    lam = np.asarray(w, dtype=np.float64)
    terms = np.where(lam > 0.0, lam, 1.0)
    np.log2(terms, out=terms)
    terms *= lam
    out = -np.add.reduce(terms, axis=-1)
    return float(out) if out.ndim == 0 else out


def _jsd_from_probs(p: np.ndarray, q: np.ndarray):
    """JSD of probability laws along the last axis of (..., n) stacks, clamped
    at 0; a float for one pair of laws. The one place the package evaluates
    the JSD of two probability laws."""
    h = entropy_from_eigenvalues(np.stack([(p + q) / 2.0, p, q]))
    out = np.maximum(h[0] - 0.5 * h[1] - 0.5 * h[2], 0.0)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Quantum states
# ---------------------------------------------------------------------------

class StatePair(NamedTuple):
    """Two density matrices a and b of one dimension, with the eigensystem
    w, v of the stack [a - b, a, b, (a + b)/2], as np.linalg.eigh gives it.

    solve_pair builds it, and hilbert_schmidt_distance, fidelity,
    qjsd_spectral and djs1_lower_bound read it, so a compare of a pair checks
    the pair and solves the stack once.
    Entries 1 and 2 are the spectra and eigenbases of a and b themselves.
    """

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    v: np.ndarray


def solve_pair(rho, sigma) -> StatePair:
    """The pair checked by check_states, and as PSD from its own spectra w[1]
    and w[2], with the eigensystem of its stack (see StatePair). The stack is
    not checked again, since a - b may deviate from Hermitian by twice the
    tolerance of its inputs.
    """
    a, b = check_states(rho, sigma)
    w, v = np.linalg.eigh(np.stack([a - b, a, b, (a + b) / 2.0]))
    clamped_spectrum(w[1:3])  # raises NotPositive below -PSD_CLAMP
    return StatePair(a, b, w, v)


def qjsd_sides(states, spectra=None) -> np.ndarray:
    """Quantum JSD of the sides of each state pair or triplet, clamped at 0.

    `states` has shape (..., k, N, N). A pair (k = 2) has the one side
    D(s0, s1), a triplet (k = 3) the sides D(s0, s1), D(s1, s2), D(s2, s0)
    in the order defect_from_sides reads; the result has shape (..., 1) or
    (..., 3). Each side is H(m) - (H(a) + H(b))/2 with the midpoint
    m = (a + b)/2, clamped at 0, from one eigvalsh call over the states and
    the midpoints. A caller that already knows the spectra of the states
    passes them as `spectra`, shape (..., k, N); their entropies are then
    taken from those and only the midpoints are eigensolved. This is the one
    place the package evaluates that entropy difference for density matrices.

    Raises NotPositive, a DomainError, when an eigensolved matrix has an
    eigenvalue below -1e-10 (see clamped_spectrum).
    """
    s = np.asarray(states)
    k = s.shape[-3]
    partner = _PARTNER.get(k)
    if partner is None:
        raise DimMismatch(f"expected a pair or a triplet of states, got {k}")
    n = partner.size
    mids = s.take(partner, axis=-3)
    mids += s[..., :n, :, :]
    mids /= 2.0
    w = np.linalg.eigvalsh(mids if spectra is not None else np.concatenate((s, mids), axis=-3))
    h = entropy_from_eigenvalues(clamped_spectrum(w))
    h_state = h[..., :k] if spectra is None else entropy_from_eigenvalues(spectra)
    return np.maximum(h[..., -n:] - 0.5 * (h_state[..., :n] + h_state.take(partner, axis=-1)), 0.0)


def defect_from_sides(sides) -> np.ndarray:
    """Triangle defect sqrt(D01) + sqrt(D12) - sqrt(D20), pivot s1, of the
    sides (..., 3) of triplets in qjsd_sides' order; shape (...)."""
    d = np.sqrt(sides).T  # side axis first: a lone triplet's d[k] are scalars, not 0-d views
    return (d[0] + d[1] - d[2]).T


def qjsd(rho, sigma):
    """Quantum Jensen-Shannon divergence, in bits.

    H((rho+sigma)/2) - H(rho)/2 - H(sigma)/2; symmetric, always defined,
    bounded by 1, and zero exactly when the states coincide.

    Takes two states, or two stacks (..., N, N) of one shape, and gives one
    divergence per pair: a float for one pair, an array of shape (...) for a
    stack. The pairs are checked once by check_states, and all go through one
    qjsd_sides call, which raises NotPositive for a matrix that is not PSD;
    a pair gets the same bits in a stack as alone.
    """
    out = qjsd_sides(check_states(rho, sigma, stack=True))[..., 0]
    return float(out) if out.ndim == 0 else out


def qjsd_spectral(pair: StatePair) -> float:
    """The divergence of a solved pair, assembled from the three eigensystems
    involved.

    With rho = sum_i r_i |r_i><r_i|, sigma = sum_j s_j |s_j><s_j| and the
    unnormalized sum rho + sigma = sum_k t_k |t_k><t_k|, this evaluates

      (1/2) [ sum_{k,i} |<t_k|r_i>|^2 r_i log2(2 r_i / tau_k)
            + sum_{k,j} |<t_k|s_j>|^2 s_j log2(2 s_j / tau_k) ],

    where tau_k = sum_i r_i |<t_k|r_i>|^2 + sum_j s_j |<t_k|s_j>|^2. Terms
    with r_i = 0 or s_j = 0 contribute nothing.

    The eigensystems are read from the StatePair; the |t_k> are the
    eigenvectors of (a + b)/2, which are those of a + b (tau_k is built from
    the overlaps, not from the eigenvalues). qjsd solves nothing from that
    stack, so this route agrees with qjsd to 1e-9 and shares no intermediate
    values with it beyond the inputs. The sums over rho and over sigma are
    taken in one stacked pass, each over its own (k, i) block.
    """
    lam = clamped_spectrum(pair.w[1:3])[:, None, :]  # [state, ., i]
    over = np.abs(pair.v[3].conj().T @ pair.v[1:3]) ** 2  # [state, k, i]
    tau = (over[0] @ lam[0, 0] + over[1] @ lam[1, 0])[:, None]  # [k, .]
    mask = (lam > 0.0) & (tau > 0.0)
    ratio = np.where(mask, 2.0 * lam / np.where(tau > 0.0, tau, 1.0), 1.0)
    terms = np.where(mask, over * lam * np.log2(ratio), 0.0)
    s_rho, s_sigma = terms.reshape(2, -1).sum(axis=-1).tolist()
    return 0.5 * (0.0 + s_rho + s_sigma)


def qjsd_sqrt(rho, sigma):
    """sqrt of the quantum Jensen-Shannon divergence; the candidate metric.

    Takes two states or two stacks of one shape, as qjsd does: a float for
    one pair, an array of shape (...) for a stack.
    """
    out = np.sqrt(qjsd(rho, sigma))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Pure states
# ---------------------------------------------------------------------------

def _phi_raw(x):
    """Divergence of two pure states with overlap magnitude x; no domain check."""
    xm = np.minimum(np.asarray(x, dtype=np.float64), 1.0)
    p = xm[..., None] * _MINUS_PLUS  # the spectrum ((1 - xm)/2, (1 + xm)/2) on the last axis
    p += 1.0
    p /= 2.0
    return np.maximum(entropy_from_eigenvalues(p), 0.0)


def phi_pure(x):
    """Pure-state divergence as a function of the overlap magnitude.

    phi(x) = -((1-x)/2) log2((1-x)/2) - ((1+x)/2) log2((1+x)/2); strictly
    decreasing on [0, 1] with phi(0) = 1 and phi(1) = 0.
    """
    a = np.asarray(x, dtype=np.float64)
    if not np.all((a >= 0.0) & (a <= 1.0)):  # NaN fails both comparisons
        raise DomainError("overlap magnitude must lie in [0, 1]")
    out = _phi_raw(a)
    return float(out) if np.ndim(out) == 0 else out


class ScanResult(NamedTuple):
    """Minimum triangle defect found by the pure-state grid scan. Its fields
    are keys of the purescan JSON object, with a and b written as [re, im]."""

    min_g: float
    x: float
    y: float
    z: float
    a: complex
    b: complex


def pure_triangle_scan(grid_steps: int, x_steps: int = 20) -> ScanResult:
    """Grid scan of the pure-state triangle defect over realizable overlaps.

    Fix |<psi|phi>| = x (phase absorbed so x is real) and decompose the third
    state as chi = a psi + b phi + chi_perp. The grid runs over the unit
    disks |a| <= 1, |b| <= 1 in polar form, keeping only normalizable points
    (|a|^2 + |b|^2 + 2 x Re(a conj(b)) <= 1); then y = |a + b x| and
    z = |conj(a) x + conj(b)| and the defect is g = sqrt(phi(y)) +
    sqrt(phi(z)) - sqrt(phi(x)), that of defect_from_sides written out:
    stacking the sides would copy phi(x) and two grid-sized arrays into one
    of three grid sizes at each x. Returns the minimum and its location.
    """
    grid_steps = check_count("grid_steps", grid_steps, least=2)
    x_steps = check_count("x_steps", x_steps, least=2)
    check_cap("grid_steps**4", grid_steps**4, _MAX_SCAN_POINTS, "pair-grid points")
    radii = np.linspace(0.0, 1.0, grid_steps)
    angles = np.linspace(0.0, 2.0 * np.pi, grid_steps, endpoint=False)
    disk = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    a = disk[:, None]
    b = disk[None, :]
    cross = 2.0 * (a * b.conj()).real
    aa = np.abs(a) ** 2
    bb = np.abs(b) ** 2
    best = ScanResult(np.inf, 0.0, 0.0, 0.0, 0j, 0j)
    for x in np.linspace(0.0, 1.0, x_steps):
        ok = aa + bb + x * cross <= 1.0 + 1e-12
        y = np.minimum(np.abs(a + b * x), 1.0)
        z = np.minimum(np.abs(a * x + b), 1.0)  # |conj(a) x + conj(b)| for real x
        g = np.sqrt(_phi_raw(y)) + np.sqrt(_phi_raw(z)) - np.sqrt(_phi_raw(x))
        g = np.where(ok, g, np.inf)
        k = int(np.argmin(g))
        if g.flat[k] < best.min_g:
            i, j = np.unravel_index(k, g.shape)
            best = ScanResult(
                float(g[i, j]), float(x), float(y[i, j]), float(z[i, j]),
                complex(disk[i]), complex(disk[j]),
            )
    return best


def wootters_distance(psi, phi) -> float:
    """Angle arccos(|<psi|phi>|) between two pure states, in radians."""
    u = check_pure_state(psi)
    v = check_pure_state(phi)
    if u.size != v.size:
        raise DimMismatch(f"dimensions {u.size} and {v.size} differ")
    return float(np.arccos(np.clip(np.abs(np.vdot(u, v)), 0.0, 1.0)))


def hilbert_schmidt_distance(pair: StatePair) -> float:
    """Frobenius-norm distance sqrt(Tr[(a-b)†(a-b)]) between the states of a
    solved pair (a, b); it reads the checked states and solves nothing."""
    d = pair.a - pair.b
    return float(np.sqrt(np.vdot(d, d).real))


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def _jsd_of_outcomes(p: np.ndarray):
    """JSD of the outcome laws p[..., 0, :] and p[..., 1, :] of a measurement
    on two states, with round-off negatives clamped to 0 and renormalized."""
    p = np.maximum(p, 0.0)
    p /= p.sum(axis=-1, keepdims=True)
    return _jsd_from_probs(p[..., 0, :], p[..., 1, :])


def djs1_lower_bound(pair: StatePair, restarts: int, seed: int = 0) -> float:
    """Certified lower bound on the best measured JSD over all POVMs, for a
    solved pair (a, b).

    Takes the maximum of the measured JSD over rank-1 projective measurements
    in the eigenbases of a - b, a, b, and (a + b)/2, read from the StatePair,
    plus `restarts` Haar-random orthonormal bases, drawn as one stack of
    Ginibre matrices from the counter stream of key derive_seed(seed, 0x5B0B).
    The true supremum is at least this value and never exceeds qjsd(a, b).

    All 4 + restarts bases are checked as one stack of unitaries. Outcome k of
    basis U has probability Re (U† x U)_kk, read for every basis and both
    states from one O(N³) contraction over the stack; no projector is built.
    That needs no PSD check: the projectors of a basis that passes
    check_unitary are PSD, and their outcome laws sum to 1 up to round-off.
    """
    restarts, seed = check_count("restarts", restarts), check_seed(seed)
    a, b, _, eigenbases = pair
    n = a.shape[0]
    check_cap("restarts * dim**2", restarts * n * n, _MAX_BASIS_ENTRIES, "random-basis entries")
    entries = 2 * np.arange(restarts * n * n, dtype=np.uint64).reshape(restarts, n, n)
    z = CounterStream([derive_seed(seed, 0x5B0B)]).standard_normal(entries)[0]
    u = check_unitary(np.concatenate([eigenbases, unitaries_from_ginibre(z)]))[:, None]
    # p[basis, state, k] = sum_i conj(u_ik) (x u)_ik = (u† x u)_kk
    return float(np.max(_jsd_of_outcomes((u.conj() * (np.stack([a, b]) @ u)).sum(axis=-2).real)))


# ---------------------------------------------------------------------------
# Fidelity and the purification metric
# ---------------------------------------------------------------------------

def fidelity(pair: StatePair) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)) of
    a solved pair (rho, sigma).

    Lies in [0, 1]; for pure states it reduces to the overlap |<psi|phi>|.

    Computed as the trace norm ||sqrt(rho) sqrt(sigma)||_1 (the sum of its
    singular values), which is the same quantity since M M† = sqrt(rho) sigma
    sqrt(rho) for M = sqrt(rho) sqrt(sigma). Taking square roots of the
    eigenvalues of sqrt(rho) sigma sqrt(rho) instead amplifies round-off: for
    rank-deficient states its true zero eigenvalues come out near 1e-17 and
    each adds about 3e-9 after the square root, while the matching singular
    values of M stay near 1e-17. Both square roots come from one stacked
    sqrt_from_eigh call on the eigensystems of rho and sigma that the
    StatePair holds.
    """
    root_rho, root_sigma = sqrt_from_eigh(pair.w[1:3], pair.v[1:3])
    s = np.linalg.svd(root_rho @ root_sigma, compute_uv=False)
    return min(max(float(np.sum(s)), 0.0), 1.0)


def d_h_closed_form(rho, sigma) -> float:
    """Purification metric sqrt(phi(F(rho, sigma))).

    The minimal midpoint entropy over joint purifications is attained at the
    maximal purification overlap, which is the fidelity; phi being decreasing
    turns the maximum overlap into the minimum entropy. The fidelity is
    read from the StatePair of solve_pair(rho, sigma).
    """
    return float(np.sqrt(phi_pure(fidelity(solve_pair(rho, sigma)))))


def _unitary_from_params(theta: np.ndarray, n: int) -> np.ndarray:
    """Polar factor of the complex matrix encoded by 2 n^2 reals.

    Smooth, surjective onto U(n), and scale-invariant, so the annealer can
    gauge-fix the parameter norm without changing the decoded unitary. Takes
    one parameter vector or a stack (..., 2 n^2), giving (..., n, n).
    """
    b = np.empty(theta.shape[:-1] + (n * n,), dtype=np.complex128)
    b.real = theta[..., : n * n]
    b.imag = theta[..., n * n :]
    u, _, wh = np.linalg.svd(b.reshape(theta.shape[:-1] + (n, n)))
    return u @ wh


def _dh_objective(theta: np.ndarray, weighted: np.ndarray, psi_conj: np.ndarray, n: int) -> np.ndarray:
    """sqrt(phi(|<psi|phi_theta>|)) of each row theta of a stack (K, 2 n^2).

    The averaged projector of two unit vectors has the spectrum
    (1 -+ |<psi|phi>|)/2, whose entropy is phi(|<psi|phi>|). Each overlap is
    a product summed along its row: a matrix product of the stack would give
    row bits that depend on the number of rows.
    """
    phi_vecs = (weighted @ _unitary_from_params(theta, n).swapaxes(-2, -1)).reshape(len(theta), -1)
    return np.sqrt(_phi_raw(np.abs((phi_vecs * psi_conj).sum(axis=-1))))


def d_h_by_optimization(rho, sigma, restarts: int, seed: int = 0, *, schedule) -> float:
    """Purification metric found by direct minimization.

    Anneals over the unitary purification freedom of sigma (rho's purification
    stays canonical, which costs nothing since the objective depends only on
    the overlap magnitude) and minimizes the square root of the entropy of the
    averaged purification projectors. Serves as an independent check on
    d_h_closed_form: it can approach but not beat it.
    """
    from .anneal import minimize  # deferred: anneal imports this module

    a, b = check_states(rho, sigma)
    n = a.shape[0]
    (rw, rv), (sw, sv) = np.linalg.eigh(a), np.linalg.eigh(b)
    psi_conj = (rv * np.sqrt(clamped_spectrum(rw))).reshape(-1).conj()  # purification(a, I)
    weighted = sv * np.sqrt(clamped_spectrum(sw))
    objective = functools.partial(_dh_objective, weighted=weighted, psi_conj=psi_conj, n=n)
    best, _, _ = minimize(objective, n, 1, schedule, seed=seed, restarts=restarts)
    return best
