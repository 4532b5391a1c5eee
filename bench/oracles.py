"""Reference values for the benchmark's output checks.

Every value here is computed with scipy or mpmath from the input matrices
alone; nothing is imported from qjsd. The checks compare the program's
outputs against these values, or against properties the method must have
(the triangle inequality for sqrt-QJSD holds for all states, so a defect
below round-off is a fault in the program).

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import linalg, special

EPS = np.finfo(np.float64).eps
LN2 = math.log(2.0)
NEG_SLACK = 1e-9  # the program's own violation tolerance
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def entropy_delta(dim: int) -> float:
    """Round-off bound on a divergence assembled from three dim-by-dim spectra.

    An eigenvalue of a unit-trace matrix is off by about dim * eps; near zero
    that becomes about 40 * eps in -x log2 x. Three spectra of dim values
    each, times a safety factor of about 10, give this bound.
    """
    return 1e-13 * dim


def sqrt_tol(d: float, delta: float) -> float:
    """Bound on |sqrt(a) - sqrt(d)| when |a - d| <= delta and a, d >= 0.

    |sqrt(a) - sqrt(d)| = |a - d| / (sqrt(a) + sqrt(d)), which is at most
    sqrt(delta) and at most delta / sqrt(d).
    """
    if d <= 0.0:
        return math.sqrt(delta)
    return min(math.sqrt(delta), delta / math.sqrt(d))


def entropy_bits(w) -> float:
    """Shannon entropy in bits of a spectrum; round-off negatives count as 0."""
    return float(np.sum(special.entr(np.clip(np.asarray(w, dtype=np.float64), 0.0, None))) / LN2)


def qjsd(rho, sigma) -> float:
    """H((rho+sigma)/2) - H(rho)/2 - H(sigma)/2 from LAPACK spectra via scipy."""
    h_mid = entropy_bits(linalg.eigvalsh((rho + sigma) / 2.0))
    return max(h_mid - 0.5 * (entropy_bits(linalg.eigvalsh(rho)) + entropy_bits(linalg.eigvalsh(sigma))), 0.0)


def defect(rho, xi, sigma) -> tuple[float, float]:
    """Triangle defect d(rho,xi) + d(xi,sigma) - d(rho,sigma) and its round-off bound."""
    delta = entropy_delta(rho.shape[0])
    ds = [qjsd(rho, xi), qjsd(xi, sigma), qjsd(rho, sigma)]
    value = math.sqrt(ds[0]) + math.sqrt(ds[1]) - math.sqrt(ds[2])
    return value, sum(sqrt_tol(d, delta) for d in ds) + 8.0 * EPS


def psd_sqrt(a) -> np.ndarray:
    w, v = linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity as the sum of the singular values of sqrt(rho) sqrt(sigma)."""
    return float(np.sum(linalg.svdvals(psd_sqrt(rho) @ psd_sqrt(sigma))))


def phi_bits(x: float) -> float:
    """Pure-state divergence h2((1 - x)/2) in bits for overlap magnitude x."""
    x = min(max(x, 0.0), 1.0)
    return float((special.entr((1.0 - x) / 2.0) + special.entr((1.0 + x) / 2.0)) / LN2)


def d_h(rho, sigma) -> float:
    """Purification metric sqrt(phi(F))."""
    return math.sqrt(phi_bits(fidelity(rho, sigma)))


def d_h_tol(f: float, f_tol: float = 1e-12) -> float:
    """Bound on the error of sqrt(phi(F)) when F is off by at most f_tol."""
    ref = phi_bits(f)
    dphi = max(abs(phi_bits(f + f_tol) - ref), abs(phi_bits(f - f_tol) - ref))
    return sqrt_tol(ref, dphi + 4.0 * EPS) + 4.0 * EPS


def hilbert_schmidt(rho, sigma) -> float:
    return float(linalg.norm(rho - sigma, "fro"))


def measured_jsd(rho, sigma, basis) -> float:
    """Classical JSD of the outcome laws of a projective measurement."""
    p = np.clip(np.einsum("ki,kl,li->i", basis.conj(), rho, basis).real, 0.0, None)
    q = np.clip(np.einsum("ki,kl,li->i", basis.conj(), sigma, basis).real, 0.0, None)
    p, q = p / p.sum(), q / q.sum()
    return max(entropy_bits((p + q) / 2.0) - 0.5 * (entropy_bits(p) + entropy_bits(q)), 0.0)


def measured_floor(rho, sigma) -> float:
    """Best measured JSD over the eigenbases of rho - sigma and (rho+sigma)/2.

    Both bases are among those `djs1_lower_bound` maximizes over. Where either
    operator has a degenerate eigenspace, that space lies in the kernel of both
    states or of their difference, so every choice of basis inside it gives
    the same outcome law.
    """
    return max(
        measured_jsd(rho, sigma, linalg.eigh(rho - sigma)[1]),
        measured_jsd(rho, sigma, linalg.eigh((rho + sigma) / 2.0)[1]),
    )


def overlap(psi, phi) -> float:
    return float(abs(np.vdot(psi, phi)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def density_problems(rho, floor: float | None = None) -> list[str]:
    """Hermitian, unit trace, PSD, and linear entropy at least `floor`."""
    out = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITIAN_TOL:
        out.append(f"not Hermitian: {herm:.2e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        out.append(f"trace {tr!r}")
    w = linalg.eigvalsh(rho)
    if w[0] < -PSD_TOL:
        out.append(f"eigenvalue {w[0]:.2e}")
    if floor is not None:
        le = 1.0 - float(np.sum(w * w))
        if le < floor - 1e-12:
            out.append(f"linear entropy {le!r} below floor {floor}")
    return out


def defect_problems(value: float, triplet) -> list[str]:
    """A reported triangle defect against the oracle and the metric property."""
    ref, tol = defect(*triplet)
    out = []
    if value < -NEG_SLACK:
        out.append(f"defect {value!r} violates the triangle inequality")
    if abs(value - ref) > tol:
        out.append(f"defect {value!r} vs oracle {ref!r} (tol {tol:.1e})")
    return out


def audit_problems(report: dict, csv_text: str, samples: int, floor, triplets) -> list[str]:
    """Check an audit report (as `report_to_dict` gives it).

    `triplets` maps each recorded triplet seed to the states regenerated from it.
    """
    out = []
    hist = report["histogram"]
    if report["violations"] != 0:
        out.append(f"{report['violations']} violations")
    binned = sum(hist["counts"]) + hist["underflow_count"] + hist["overflow_count"]
    if binned != samples or hist["total"] != samples:
        out.append(f"histogram holds {binned} (total {hist['total']}) of {samples} samples")
    if csv_text.count("\n") != len(hist["counts"]) + 3:
        out.append("histogram CSV has the wrong number of rows")
    smallest = report["smallest_defects"]
    if len(smallest) != min(10, samples):
        out.append(f"{len(smallest)} smallest defects recorded")
    if smallest and smallest[0]["defect"] != report["min_defect"]:
        out.append("min_defect differs from the smallest recorded defect")
    for s in smallest:
        triplet = triplets[s["triplet_seed"]]
        for rho in triplet:
            out.extend(density_problems(rho, floor))
        out.extend(defect_problems(s["defect"], triplet))
    return out


def anneal_problems(best: float, states, trace) -> list[str]:
    """Check an annealing result: the metric property and the recomputed defect."""
    out = []
    if best != min(t[-1] for t in trace):
        out.append("best objective is not the best restart's last trace value")
    for rho in states:
        out.extend(density_problems(rho))
    out.extend(defect_problems(best, states))
    return out


def d_h_problems(value: float, rho, sigma) -> list[str]:
    """The optimized purification metric can approach, never beat, the closed form."""
    ref = d_h(rho, sigma)
    if value < ref - 1e-6:
        return [f"d_h by optimization {value!r} below closed form {ref!r}"]
    return []


def compare_problems(table: dict, rho, sigma, vectors=None) -> list[str]:
    """Check one `qjsd compare` table; `vectors` holds (psi, phi) for a pure pair."""
    out = []
    dim = rho.shape[0]
    delta = entropy_delta(dim)
    ref = qjsd(rho, sigma)

    def near(key, want, tol):
        if abs(table[key] - want) > tol:
            out.append(f"{key} {table[key]!r} vs oracle {want!r} (tol {tol:.1e})")

    near("qjsd", ref, delta)
    near("qjsd_spectral", ref, 1e-9)
    near("qjsd_sqrt", math.sqrt(ref), sqrt_tol(ref, delta))
    near("hilbert_schmidt", hilbert_schmidt(rho, sigma), 1e-12)
    if abs(table["qjsd_sqrt"] ** 2 - table["qjsd"]) > 4.0 * EPS * max(table["qjsd"], EPS):
        out.append("qjsd_sqrt squared differs from qjsd")
    if table["djs1_lower_bound"] > table["qjsd"] + delta:
        out.append("djs1_lower_bound exceeds qjsd (Holevo bound)")
    if table["djs1_lower_bound"] < measured_floor(rho, sigma) - 1e-12:
        out.append("djs1_lower_bound is below the measured JSD in a basis it searches")
    if vectors is None:
        f = fidelity(rho, sigma)
        near("fidelity", f, 1e-10)
        near("d_h_closed_form", math.sqrt(phi_bits(f)), d_h_tol(f))
        if "wootters" in table:
            out.append("wootters reported for a mixed pair")
    else:
        x = overlap(*vectors)
        near("fidelity", x, 1e-10)
        near("d_h_closed_form", math.sqrt(phi_bits(x)), d_h_tol(x))
        if "wootters" not in table:
            out.append("wootters missing for a pure pair")
        else:
            # arccos has slope 1/sqrt(1 - x^2); the program's overlap is good to ~1e-15
            near("wootters", float(mpmath.acos(x)), 1e-12 + 1e-13 / math.sqrt(max(1.0 - x * x, 1e-26)))
    return out
