"""Reference routes: independent computations that the tests and `tools/golden.py`
check the `qjsd` package against; nothing under `src/` imports them. They reuse
the package's entropy and JSD kernels, so each keeps its bits, and look up
`np.linalg`'s solvers at call time, so a test that patches one counts their solves."""

from __future__ import annotations

import math

import numpy as np

from qjsd.divergences import _jsd_from_probs, _jsd_of_outcomes, entropy_from_eigenvalues
from qjsd.errors import DimMismatch, QjsdError
from qjsd.linalg import TRACE_TOL, as_complex_matrix, check_hermitian, clamped_spectrum
from qjsd.states import check_states, check_unitary

SUPPORT_CUTOFF = 1e-12  # eigenvalues below this count as outside the support
_SUPPORT_WEIGHT_TOL = 1e-9


class SupportViolation(QjsdError):
    """Relative entropy S(rho, sigma) requested with support(rho) not inside support(sigma)."""


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


def _prob_stack(laws) -> np.ndarray:
    """The laws, each checked by check_prob_vector, as one (k, n) stack;
    DimMismatch unless they have one length."""
    ps = [check_prob_vector(p) for p in laws]
    if len({p.size for p in ps}) > 1:
        raise DimMismatch(f"probability vector lengths {sorted({p.size for p in ps})} differ")
    return np.array(ps)


def classical_jsd(p, q) -> float:
    """Jensen-Shannon divergence H((P+Q)/2) - H(P)/2 - H(Q)/2, in bits.

    Symmetric, always defined, and bounded: 0 <= D <= 1.
    """
    return _jsd_from_probs(*_prob_stack([p, q]))


def classical_jsd_sqrt_metric_check(triplets) -> float:
    """Worst triangle defect of sqrt(JSD) over (p, r, q) triplets.

    Returns min over triplets of sqrt(D(p,r)) + sqrt(D(r,q)) - sqrt(D(p,q)),
    with r the pivot, and inf for no triplets. Nonnegative for every input
    (sqrt(JSD) is a metric on distributions), so anything below -1e-12 would
    be a counterexample. All vectors must have one length; the 3T sides of T
    triplets go through one _jsd_from_probs call, bit for bit as classical_jsd.
    """
    laws = [v for p, r, q in triplets for v in (p, r, q)]
    if not laws:
        return math.inf
    stack = _prob_stack(laws).reshape(len(laws) // 3, 3, -1)  # (T, 3, n): p, r, q
    d = np.sqrt(_jsd_from_probs(stack[:, [0, 1, 0]], stack[:, [1, 2, 2]]))
    return float(np.min(d[:, 0] + d[:, 1] - d[:, 2]))


def schoenberg_check(coefficients, distributions) -> float:
    """Negative-definite-kernel form sum_ij c_i c_j D(P_i, P_j).

    Requires sum_i c_i = 0 (within 1e-12) and at least two distributions,
    all of one length. For the classical JSD the result is <= 0 up to
    round-off. The D(P_i, P_j), i < j, come from one _jsd_from_probs call
    over the stacked pairs and are summed in row-major order of (i, j).
    """
    c = np.asarray(coefficients, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need at least two coefficients")
    if abs(float(c.sum())) > 1e-12:
        raise ValueError(f"coefficients sum to {float(c.sum())!r}, expected 0")
    p = _prob_stack(distributions)
    if len(p) != c.size:
        raise DimMismatch("one distribution per coefficient required")
    iu, ju = np.triu_indices(c.size, 1)
    total = 0.0
    for ci, cj, d in zip(c[iu].tolist(), c[ju].tolist(), _jsd_from_probs(p[iu], p[ju]).tolist()):
        total += 2.0 * ci * cj * d
    return total  # diagonal terms vanish: D(P, P) = 0


def von_neumann_entropy(rho) -> float:
    """H(rho) = -Tr(rho log2 rho); the Shannon entropy of the spectrum."""
    w = np.linalg.eigvalsh(check_states(rho)[0])
    return float(entropy_from_eigenvalues(clamped_spectrum(w)))


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (log2 rho - log2 sigma)] of two density matrices.

    Defined only when the support of rho lies inside the support of sigma
    (eigenvalue cutoff 1e-12); otherwise raises SupportViolation.
    """
    a, b = check_states(rho, sigma)
    sw, sv = np.linalg.eigh(b)
    return _relative_entropy(a, clamped_spectrum(np.linalg.eigvalsh(a)), clamped_spectrum(sw), sv)


def _relative_entropy(a: np.ndarray, r: np.ndarray, sw: np.ndarray, sv: np.ndarray) -> float:
    """Tr[a (log2 a - log2 sigma)] from the clamped spectrum r of a state a
    checked by check_states, and sigma's eigensystem with sw clamped."""
    weights = np.maximum(np.einsum("ij,jk,ki->i", sv.conj().T, a, sv).real, 0.0)
    keep = sw >= SUPPORT_CUTOFF
    outside = float(weights[~keep].sum())
    if outside > _SUPPORT_WEIGHT_TOL:
        raise SupportViolation(f"rho has weight {outside:.3e} outside the support of sigma")
    return -entropy_from_eigenvalues(r) - float(np.sum(weights[keep] * np.log2(sw[keep])))


def qjsd_via_relative_entropy(rho, sigma) -> float:
    """Same divergence computed as the symmetrized relative entropy to the
    midpoint state, (S(rho, m) + S(sigma, m))/2 with m = (rho+sigma)/2.

    An independent computation path used to cross-check qjsd. The pair is
    checked once by check_states and as PSD from its spectra, and rho, sigma
    and m are each solved once.
    """
    a, b = check_states(rho, sigma)
    ra, rb = (clamped_spectrum(np.linalg.eigvalsh(x)) for x in (a, b))
    mw, mv = np.linalg.eigh((a + b) / 2.0)
    mw = clamped_spectrum(mw)
    return 0.5 * (_relative_entropy(a, ra, mw, mv) + _relative_entropy(b, rb, mw, mv))


def check_povm(elements) -> np.ndarray:
    """Validate a POVM: PSD Hermitian elements summing to the identity.

    Takes a list of N x N elements or a (K, N, N) stack, and returns the
    stack as a complex array.
    """
    if len(elements) == 0:
        raise ValueError("POVM needs at least one element")
    if len({np.shape(e) for e in elements}) > 1:
        raise DimMismatch("POVM elements have mixed dimensions")
    mats = check_hermitian(as_complex_matrix(elements, stack=True))
    if mats.ndim != 3:
        raise DimMismatch(f"expected a list of square matrices, got shape {mats.shape}")
    clamped_spectrum(np.linalg.eigvalsh(mats))  # raises NotPositive below -PSD_CLAMP
    dev = np.max(np.abs(mats.sum(axis=0) - np.eye(mats.shape[-1])))
    if dev > TRACE_TOL:
        raise ValueError(f"POVM elements sum to identity only within {dev:.3e}")
    return mats


def projective_povm(basis) -> list:
    """Rank-1 projective POVM from the columns of a unitary, as the list of
    the N projectors."""
    u = check_unitary(as_complex_matrix(basis))
    return [np.outer(col, col.conj()) for col in u.T]


def measured_jsd(rho, sigma, povm) -> float:
    """Classical JSD of the outcome distributions a POVM induces on two states.

    p_i = Tr(E_i rho), q_i = Tr(E_i sigma). Never exceeds qjsd(rho, sigma);
    equality holds when the states commute and the POVM measures their common
    eigenbasis. The states are checked by check_states and as PSD from one solve of
    the pair, the POVM with check_povm. A projective POVM gets what
    djs1_lower_bound gives for its basis to a few ulps; djs1_lower_bound
    contracts over basis columns.
    """
    pair = check_states(rho, sigma)
    clamped_spectrum(np.linalg.eigvalsh(pair))  # raises NotPositive below -PSD_CLAMP
    elements = check_povm(povm)
    if elements.shape[1:] != pair.shape[1:]:
        raise DimMismatch("POVM dimension does not match the states")
    # p[s, k] = Tr(E_k x_s), with x_0 = rho and x_1 = sigma
    return _jsd_of_outcomes(np.einsum("kij,sij->sk", elements.conj(), pair).real)
