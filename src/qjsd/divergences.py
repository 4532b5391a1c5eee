"""Distance and divergence measures between probability distributions and
quantum states.

Everything entropic is in bits (base-2 logarithms), so the Jensen-Shannon
divergence is bounded by 1 and its square root by 1. The quantum JSD of
density matrices rho, sigma is

    D(rho, sigma) = H((rho+sigma)/2) - H(rho)/2 - H(sigma)/2,

with H the von Neumann entropy; the square root of D is the candidate metric
this package exists to compute and stress-test.
"""

from __future__ import annotations

import math

from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, DomainError, InvalidConfig, NonConvergence, SupportViolation, Undefined
from .linalg import PSD_CLAMP, check_hermitian, clamped_spectrum, eigh, hs_inner, matrix_sqrt
from .states import (
    CounterStream,
    check_density,
    check_povm,
    check_pure_state,
    check_unitary,
    derive_seed,
    purification,
    unitaries_from_ginibre,
)

SUPPORT_CUTOFF = 1e-12  # eigenvalues below this count as outside the support
_SUPPORT_WEIGHT_TOL = 1e-9
# side i of a state pair or triplet joins state i to state _PARTNER[k][i]
_PARTNER = {2: np.array([1]), 3: np.array([1, 2, 0])}


# ---------------------------------------------------------------------------
# Classical distributions
# ---------------------------------------------------------------------------

def check_prob_vector(p) -> np.ndarray:
    """Validate a probability vector: nonnegative entries summing to 1."""
    v = np.asarray(p, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-d probability vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("probability vector has non-finite entries")
    if np.min(v) < -1e-12:
        raise ValueError(f"negative probability {np.min(v)!r}")
    s = float(v.sum())
    if abs(s - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {s!r}, expected 1 within 1e-12")
    return np.maximum(v, 0.0)


def entropy_from_eigenvalues(w) -> np.ndarray | float:
    """Shannon entropy in bits of a spectrum, along the last axis.

    Round-off negatives are clamped to 0 and 0 log 0 is taken as 0.
    """
    lam = np.maximum(np.asarray(w, dtype=np.float64), 0.0)
    safe = np.where(lam > 0.0, lam, 1.0)
    out = -np.sum(lam * np.log2(safe), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def shannon_entropy(p) -> float:
    """H(P) = -sum_i p_i log2 p_i, in bits."""
    return float(entropy_from_eigenvalues(check_prob_vector(p)))


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum_i p_i log2(p_i / q_i), in bits.

    Undefined when some p_i > 0 sits where q_i = 0.
    """
    a = check_prob_vector(p)
    b = check_prob_vector(q)
    if a.size != b.size:
        raise DimMismatch(f"lengths {a.size} and {b.size} differ")
    bad = (a > 0.0) & (b == 0.0)
    if np.any(bad):
        raise Undefined("support of p is not contained in support of q")
    m = a > 0.0
    return float(np.sum(a[m] * (np.log2(a[m]) - np.log2(b[m]))))


def _jsd_from_probs(p: np.ndarray, q: np.ndarray):
    """JSD of probability laws along the last axis of (..., n) stacks, clamped
    at 0; a float for one pair of laws. The one place the package evaluates
    the JSD of two probability laws."""
    h = entropy_from_eigenvalues(np.stack([(p + q) / 2.0, p, q]))
    out = np.maximum(h[0] - 0.5 * h[1] - 0.5 * h[2], 0.0)
    return float(out) if np.ndim(out) == 0 else out


def classical_jsd(p, q) -> float:
    """Jensen-Shannon divergence H((P+Q)/2) - H(P)/2 - H(Q)/2, in bits.

    Symmetric, always defined, and bounded: 0 <= D <= 1.
    """
    a = check_prob_vector(p)
    b = check_prob_vector(q)
    if a.size != b.size:
        raise DimMismatch(f"lengths {a.size} and {b.size} differ")
    return _jsd_from_probs(a, b)


def classical_jsd_sqrt_metric_check(triplets) -> float:
    """Worst triangle defect of sqrt(JSD) over (p, r, q) triplets.

    Returns min over triplets of sqrt(D(p,r)) + sqrt(D(r,q)) - sqrt(D(p,q)),
    with r the pivot. Nonnegative for every input (sqrt(JSD) is a metric on
    distributions), so anything below -1e-12 would be a counterexample.
    """
    worst = np.inf
    for p, r, q in triplets:
        d = (
            np.sqrt(classical_jsd(p, r))
            + np.sqrt(classical_jsd(r, q))
            - np.sqrt(classical_jsd(p, q))
        )
        worst = min(worst, float(d))
    return worst


def schoenberg_check(coefficients, distributions) -> float:
    """Negative-definite-kernel form sum_ij c_i c_j D(P_i, P_j).

    Requires sum_i c_i = 0 (within 1e-12) and at least two distributions.
    For the classical JSD the result is <= 0 up to round-off.
    """
    c = np.asarray(coefficients, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need at least two coefficients")
    if abs(float(c.sum())) > 1e-12:
        raise ValueError(f"coefficients sum to {float(c.sum())!r}, expected 0")
    ps = [check_prob_vector(p) for p in distributions]
    if len(ps) != c.size:
        raise DimMismatch("one distribution per coefficient required")
    k = c.size
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += 2.0 * c[i] * c[j] * _jsd_from_probs(ps[i], ps[j])
    return total  # diagonal terms vanish: D(P, P) = 0


# ---------------------------------------------------------------------------
# Quantum states
# ---------------------------------------------------------------------------

def _two_states(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    a = check_hermitian(rho)
    b = check_hermitian(sigma)
    if a.shape != b.shape:
        raise DimMismatch(f"state dimensions {a.shape[0]} and {b.shape[0]} differ")
    return a, b


def von_neumann_entropy(rho) -> float:
    """H(rho) = -Tr(rho log2 rho); the Shannon entropy of the spectrum."""
    a = check_density(rho)
    return float(entropy_from_eigenvalues(np.linalg.eigvalsh(a)))


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (log2 rho - log2 sigma)].

    Defined only when the support of rho lies inside the support of sigma
    (eigenvalue cutoff 1e-12); otherwise raises SupportViolation.
    """
    a, b = _two_states(rho, sigma)
    r = clamped_spectrum(np.linalg.eigvalsh(a))
    sw, sv = eigh(b)
    sw = clamped_spectrum(sw)
    weights = np.einsum("ij,jk,ki->i", sv.conj().T, a, sv).real
    weights = np.maximum(weights, 0.0)
    null = sw < SUPPORT_CUTOFF
    if float(weights[null].sum()) > _SUPPORT_WEIGHT_TOL:
        raise SupportViolation(
            f"rho has weight {float(weights[null].sum()):.3e} outside the support of sigma"
        )
    tr_rho_log_rho = float(np.sum(r[r > 0.0] * np.log2(r[r > 0.0])))
    keep = ~null
    tr_rho_log_sigma = float(np.sum(weights[keep] * np.log2(sw[keep])))
    return tr_rho_log_rho - tr_rho_log_sigma


def qjsd_sides(states, spectra=None) -> np.ndarray:
    """Quantum JSD of the sides of each state pair or triplet, clamped at 0.

    `states` has shape (..., k, N, N). A pair (k = 2) has the one side
    D(s0, s1) and a triplet (k = 3) the three sides D(s0, s1), D(s1, s2),
    D(s2, s0); the result has shape (..., 1) or (..., 3). Each side is
    H(m) - (H(a) + H(b))/2 with the midpoint m = (a + b)/2, clamped at 0,
    from one eigvalsh call over the states and the midpoints. A caller that
    already knows the spectra of the states passes them as `spectra`, shape
    (..., k, N); their entropies are then taken from those and only the
    midpoints are eigensolved. This is the one place the package evaluates
    that entropy difference for density matrices.

    Raises DomainError when an eigensolved matrix has an eigenvalue below
    -PSD_CLAMP.
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
    if w.min() < -PSD_CLAMP:
        raise DomainError("inputs must be positive semidefinite")
    h = entropy_from_eigenvalues(w)
    h_state = h[..., :k] if spectra is None else entropy_from_eigenvalues(spectra)
    return np.maximum(h[..., -n:] - 0.5 * (h_state[..., :n] + h_state.take(partner, axis=-1)), 0.0)


def qjsd(rho, sigma) -> float:
    """Quantum Jensen-Shannon divergence, in bits.

    H((rho+sigma)/2) - H(rho)/2 - H(sigma)/2; symmetric, always defined,
    bounded by 1, and zero exactly when the states coincide.
    """
    a, b = _two_states(rho, sigma)
    return float(qjsd_sides(np.array([a, b]))[0])


def qjsd_via_relative_entropy(rho, sigma) -> float:
    """Same divergence computed as the symmetrized relative entropy to the
    midpoint state, (S(rho, m) + S(sigma, m))/2 with m = (rho+sigma)/2.

    An independent computation path used to cross-check qjsd.
    """
    a, b = _two_states(rho, sigma)
    m = (a + b) / 2.0
    return 0.5 * (relative_entropy(a, m) + relative_entropy(b, m))


def qjsd_spectral(rho, sigma) -> float:
    """The divergence assembled from the three eigensystems involved.

    With rho = sum_i r_i |r_i><r_i|, sigma = sum_j s_j |s_j><s_j| and the
    unnormalized sum rho + sigma = sum_k t_k |t_k><t_k|, this evaluates

      (1/2) [ sum_{k,i} |<t_k|r_i>|^2 r_i log2(2 r_i / tau_k)
            + sum_{k,j} |<t_k|s_j>|^2 s_j log2(2 s_j / tau_k) ],

    where tau_k = sum_i r_i |<t_k|r_i>|^2 + sum_j s_j |<t_k|s_j>|^2. Terms
    with r_i = 0 or s_j = 0 contribute nothing. Agrees with qjsd to 1e-9;
    the two routes share no intermediate values beyond the inputs.
    """
    a, b = _two_states(rho, sigma)
    rw, rv = eigh(a)
    sw, sv = eigh(b)
    tw, tv = eigh(a + b)
    rw = clamped_spectrum(rw)
    sw = clamped_spectrum(sw)
    over_r = np.abs(tv.conj().T @ rv) ** 2  # [k, i]
    over_s = np.abs(tv.conj().T @ sv) ** 2  # [k, j]
    tau = over_r @ rw + over_s @ sw
    total = 0.0
    for w, over in ((rw, over_r), (sw, over_s)):
        mask = (w[None, :] > 0.0) & (tau[:, None] > 0.0)
        ratio = np.where(mask, 2.0 * w[None, :] / np.where(tau[:, None] > 0.0, tau[:, None], 1.0), 1.0)
        total += float(np.sum(np.where(mask, over * w[None, :] * np.log2(ratio), 0.0)))
    return 0.5 * total


def qjsd_sqrt(rho, sigma) -> float:
    """sqrt of the quantum Jensen-Shannon divergence; the candidate metric."""
    return float(np.sqrt(qjsd(rho, sigma)))


# ---------------------------------------------------------------------------
# Pure states
# ---------------------------------------------------------------------------

def _phi_raw(x):
    """Divergence of two pure states with overlap magnitude x; no domain check."""
    xm = np.minimum(np.asarray(x, dtype=np.float64), 1.0)
    return np.maximum(entropy_from_eigenvalues(np.stack([(1.0 - xm) / 2.0, (1.0 + xm) / 2.0], -1)), 0.0)


def phi_pure(x):
    """Pure-state divergence as a function of the overlap magnitude.

    phi(x) = -((1-x)/2) log2((1-x)/2) - ((1+x)/2) log2((1+x)/2); strictly
    decreasing on [0, 1] with phi(0) = 1 and phi(1) = 0.
    """
    a = np.asarray(x, dtype=np.float64)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise DomainError("overlap magnitude must lie in [0, 1]")
    out = _phi_raw(a)
    return float(out) if np.ndim(out) == 0 else out


def g_function(x: float, y: float, z: float) -> float:
    """Pure-state triangle defect sqrt(phi(y)) + sqrt(phi(z)) - sqrt(phi(x))."""
    for v in (x, y, z):
        if not 0.0 <= v <= 1.0:
            raise DomainError("arguments must lie in [0, 1]")
    return float(np.sqrt(phi_pure(y)) + np.sqrt(phi_pure(z)) - np.sqrt(phi_pure(x)))


class ScanResult(NamedTuple):
    """Minimum triangle defect found by the pure-state grid scan."""

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
    sqrt(phi(z)) - sqrt(phi(x)). Returns the minimum and its location.
    """
    if grid_steps < 2:
        raise InvalidConfig(f"grid_steps must be >= 2, got {grid_steps}")
    if x_steps < 2:
        raise InvalidConfig(f"x_steps must be >= 2, got {x_steps}")
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


def hilbert_schmidt_distance(a, b) -> float:
    """Frobenius-norm distance sqrt(Tr[(a-b)†(a-b)]) between two operators."""
    x, y = _two_states(a, b)
    d = x - y
    return float(np.sqrt(max(hs_inner(d, d).real, 0.0)))


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def _jsd_of_outcomes(p: np.ndarray):
    """JSD of the outcome laws p[..., 0, :] and p[..., 1, :] of a measurement
    on two states, with round-off negatives clamped to 0 and renormalized."""
    p = np.maximum(p, 0.0)
    p /= p.sum(axis=-1, keepdims=True)
    return _jsd_from_probs(p[..., 0, :], p[..., 1, :])


def _measured_jsd(a: np.ndarray, b: np.ndarray, elements: np.ndarray):
    """Classical JSD of the outcome laws of POVMs on two states, no checks.

    `elements` is a validated stack (..., K, N, N) of POVMs; the result has
    shape (...). All outcome probabilities Tr(E_k a), Tr(E_k b) come from one
    contraction, and every JSD from one entropy call, so a POVM gets the same
    bits whichever other POVMs share its stack.
    """
    return _jsd_of_outcomes(np.einsum("...kij,sij->...sk", elements.conj(), np.stack([a, b])).real)


def measured_jsd(rho, sigma, povm) -> float:
    """Classical JSD of the outcome distributions a POVM induces on two states.

    p_i = Tr(E_i rho), q_i = Tr(E_i sigma). Never exceeds qjsd(rho, sigma);
    equality holds when the states commute and the POVM measures their common
    eigenbasis. The states are validated as Hermitian and the POVM with
    check_povm. A projective POVM gets what djs1_lower_bound gives for its
    basis to a few ulps; djs1_lower_bound contracts over basis columns.
    """
    a, b = _two_states(rho, sigma)
    elements = check_povm(povm)
    if elements.ndim != 3 or elements.shape[1:] != a.shape:
        raise DimMismatch("POVM dimension does not match the states")
    return _measured_jsd(a, b, elements)


def djs1_lower_bound(rho, sigma, restarts: int, seed: int = 0) -> float:
    """Certified lower bound on the best measured JSD over all POVMs.

    Takes the maximum of the measured JSD over rank-1 projective measurements
    in the eigenbases of rho - sigma, rho, sigma, and (rho+sigma)/2, plus
    `restarts` Haar-random orthonormal bases, drawn as one stack of Ginibre
    matrices from the counter stream of key derive_seed(seed, 0x5B0B). The
    true supremum is at least this value and never exceeds qjsd(rho, sigma).

    The inputs are validated once, as Hermitian matrices of one dimension;
    the four derived operators are eigendecomposed as one stack without a
    second check, since a - b may deviate from Hermitian by twice the
    tolerance of its inputs. All 4 + restarts bases are checked as one stack
    of unitaries. Outcome k of basis U has probability Re (U† x U)_kk, read
    for every basis and both states from one O(N³) contraction over the
    stack; no projector is built. That needs no PSD check: the projectors of
    a basis that passes check_unitary are PSD, and their outcome laws sum to
    1 up to round-off.
    """
    if restarts < 1:
        raise InvalidConfig(f"restarts must be >= 1, got {restarts}")
    a, b = _two_states(rho, sigma)
    try:
        eigenbases = np.linalg.eigh(np.stack([a - b, a, b, (a + b) / 2.0])).eigenvectors
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    n = a.shape[0]
    entries = 2 * np.arange(restarts * n * n, dtype=np.uint64).reshape(restarts, n, n)
    z = CounterStream([derive_seed(seed, 0x5B0B)]).standard_normal(entries)[0]
    u = check_unitary(np.concatenate([eigenbases, unitaries_from_ginibre(z)]))[:, None]
    # p[basis, state, k] = sum_i conj(u_ik) (x u)_ik = (u† x u)_kk
    return float(np.max(_jsd_of_outcomes((u.conj() * (np.stack([a, b]) @ u)).sum(axis=-2).real)))


# ---------------------------------------------------------------------------
# Fidelity and the purification metric
# ---------------------------------------------------------------------------

def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Lies in [0, 1]; for pure states it reduces to the overlap |<psi|phi>|.

    Computed as the trace norm ||sqrt(rho) sqrt(sigma)||_1 (the sum of its
    singular values), which is the same quantity since M M† = sqrt(rho) sigma
    sqrt(rho) for M = sqrt(rho) sqrt(sigma). Taking square roots of the
    eigenvalues of sqrt(rho) sigma sqrt(rho) instead amplifies round-off: for
    rank-deficient states its true zero eigenvalues come out near 1e-17 and
    each adds about 3e-9 after the square root, while the matching singular
    values of M stay near 1e-17.
    """
    a, b = _two_states(rho, sigma)
    s = np.linalg.svd(matrix_sqrt(a) @ matrix_sqrt(b), compute_uv=False)
    return min(max(float(np.sum(s)), 0.0), 1.0)


def d_h_closed_form(rho, sigma) -> float:
    """Purification metric sqrt(phi(F(rho, sigma))).

    The minimal midpoint entropy over joint purifications is attained at the
    maximal purification overlap, which is the fidelity; phi being decreasing
    turns the maximum overlap into the minimum entropy.
    """
    a, b = _two_states(rho, sigma)
    return float(np.sqrt(phi_pure(fidelity(a, b))))


def _unitary_from_params(theta: np.ndarray, n: int) -> np.ndarray:
    """Polar factor of the complex matrix encoded by 2 n^2 reals.

    Smooth, surjective onto U(n), and scale-invariant, so the annealer can
    gauge-fix the parameter norm without changing the decoded unitary. Takes
    one parameter vector or a stack (..., 2 n^2), giving (..., n, n).
    """
    b = (theta[..., : n * n] + 1j * theta[..., n * n :]).reshape(theta.shape[:-1] + (n, n))
    u, _, wh = np.linalg.svd(b)
    return u @ wh


def d_h_by_optimization(rho, sigma, restarts: int, seed: int = 0, schedule=None) -> float:
    """Purification metric found by direct minimization.

    Anneals over the unitary purification freedom of sigma (rho's purification
    stays canonical, which costs nothing since the objective depends only on
    the overlap magnitude) and minimizes the square root of the entropy of the
    averaged purification projectors. Serves as an independent check on
    d_h_closed_form: it can approach but not beat it.
    """
    from .anneal import minimize  # deferred: anneal imports this module

    a, b = _two_states(rho, sigma)
    check_density(a)
    n = a.shape[0]
    psi = purification(a, np.eye(n))
    sw, sv = eigh(check_density(b))
    weighted = sv * np.sqrt(clamped_spectrum(sw))

    def objective(theta: np.ndarray) -> np.ndarray:
        phi_vecs = (weighted @ np.swapaxes(_unitary_from_params(theta, n), -2, -1)).reshape(len(theta), -1)
        ov = np.array([np.vdot(psi, row) for row in phi_vecs])
        # the averaged projector of two unit vectors has the spectrum
        # (1 -+ |<psi|phi>|)/2, whose entropy is phi(|<psi|phi>|); hypot
        # rounds as abs() of one complex does, np.abs on complex arrays not
        return np.sqrt(_phi_raw(np.hypot(ov.real, ov.imag)))

    def gauge(theta: np.ndarray) -> np.ndarray:
        # per row sqrt(t.dot(t)), as np.linalg.norm takes it for one vector
        nrm = np.array([math.sqrt(t.dot(t)) for t in theta]) / math.sqrt(n)
        return theta / np.where(nrm > 0.0, nrm, 1.0)[:, None]

    best, _, _ = minimize(objective, 2 * n * n, schedule, seed=seed, restarts=restarts, canonicalize=gauge)
    return best
