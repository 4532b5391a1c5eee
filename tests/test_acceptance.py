"""Acceptance suite: one check per shipped claim, each printing a PASS/FAIL
line (run with `pytest -s` to see them inline).

The Monte Carlo sample counts are desk-scale versions of the full runs; all
tolerances are fixed here, not calibrated.
"""

import numpy as np
import pytest
from scipy import stats

from qjsd.anneal import AnnealSchedule, run_anneal
from qjsd.audit import run_audit
from qjsd.divergences import (
    d_h_by_optimization,
    d_h_closed_form,
    djs1_lower_bound,
    hilbert_schmidt_distance,
    phi_pure,
    pure_triangle_scan,
    qjsd,
    qjsd_spectral,
    qjsd_sqrt,
    solve_pair,
)
from qjsd.states import sample_states

from conftest import commuting_pair, projector, rand_density, rand_pure, random_povm, simplex_point
from reference import classical_jsd_sqrt_metric_check, measured_jsd, projective_povm, qjsd_via_relative_entropy
from reference import schoenberg_check
from test_divergences import _bloch_circle_scan_max

AUDIT_DIMS = (2, 3, 4, 5)
AUDIT_SEEDS = (1, 2, 3)
AUDIT_SAMPLES = 100_000
VIOLATION_TOL = 1e-9

KET0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def audit_reports():
    return {
        (dim, seed): run_audit(dim=dim, samples=AUDIT_SAMPLES, seed=seed, tolerance=VIOLATION_TOL)
        for dim in AUDIT_DIMS
        for seed in AUDIT_SEEDS
    }


@pytest.fixture(scope="module")
def anneal_results():
    out = {}
    for dim in (2, 3, 4):
        n_params = 6 * dim * dim
        schedule = AnnealSchedule(
            steps_per_temperature=50 * n_params,
            t_initial=1.0,
            t_final=1e-7,
            cooling_ratio=0.85,
            proposal_scale_ratio=3.0,
        )
        for objective in ("single", "symmetrized"):
            out[(dim, objective)] = run_anneal(
                objective, dim, schedule=schedule, seed=11, restarts=2
            )
    return out


def test_criterion_1_zero_violation_audit(audit_reports):
    worst_min = min(rep.min_defect for rep in audit_reports.values())
    violations = sum(rep.violations for rep in audit_reports.values())
    ok = violations == 0 and worst_min >= -VIOLATION_TOL
    _verdict(
        "criterion 1 (zero triangle violations, dims 2-5, 3 seeds x 1e5)",
        ok,
        f"violations={violations}, smallest defect={worst_min:.3e}",
    )


def _tail_fraction(reports, dim):
    below = total = 0
    for seed in AUDIT_SEEDS:
        h = reports[(dim, seed)].histogram
        below += int(h.counts.sum()) + h.underflow_count
        total += h.total
    return below, total


def _clopper_pearson(k, n, conf=0.99):
    alpha = 1.0 - conf
    lo = 0.0 if k == 0 else float(stats.beta.ppf(alpha / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(stats.beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    return lo, hi


def test_criterion_2_tail_thins_with_dimension(audit_reports):
    bounds, fracs = {}, {}
    for dim in AUDIT_DIMS:
        k, n = _tail_fraction(audit_reports, dim)
        bounds[dim] = _clopper_pearson(k, n)
        fracs[dim] = k / n
    strict = bounds[5][1] < bounds[2][0]
    monotone = all(
        bounds[b][0] <= bounds[a][1]  # non-increase not confidently contradicted
        for a, b in zip(AUDIT_DIMS, AUDIT_DIMS[1:])
    )
    ok = strict and monotone
    _verdict(
        "criterion 2 (P(defect<0.2) thins with dimension, 99% CI)",
        ok,
        "P=" + ", ".join(f"N={d}: {fracs[d]:.4f}" for d in AUDIT_DIMS),
    )


def test_criterion_3a_annealed_minimum(anneal_results):
    worst = max(res.best_objective for res in anneal_results.values())
    ok = worst < 1e-4 and all(r.best_objective >= -VIOLATION_TOL for r in anneal_results.values())
    _verdict(
        "criterion 3a (annealed defect minimum < 1e-4, dims 2-4, both objectives)",
        ok,
        f"worst best_objective={worst:.3e}",
    )


def test_criterion_3b_symmetrized_reaches_maximally_mixed(anneal_results):
    # Documented expected failure: the symmetrized objective equals the mean
    # of the three pairwise distances, which vanishes on every coincident
    # triplet, so the search has no pressure toward the maximally mixed state
    # and the A A† parametrization lands elsewhere. CHANGES.md records why
    # this test fails (the entry on criterion 3b).
    dists = {
        dim: max(
            np.linalg.norm(s - np.eye(dim) / dim)
            for s in anneal_results[(dim, "symmetrized")].decoded_states
        )
        for dim in (2, 3, 4)
    }
    ok = all(d < 1e-2 for d in dists.values())
    _verdict(
        "criterion 3b (symmetrized optimum at maximally mixed state, HS < 1e-2)",
        ok,
        ", ".join(f"N={d}: dist={v:.3f}" for d, v in dists.items()),
    )


def test_criterion_3c_single_objective_merges_pivot(anneal_results):
    gaps = {
        dim: float(
            np.linalg.norm(
                anneal_results[(dim, "single")].decoded_states[0]
                - anneal_results[(dim, "single")].decoded_states[1]
            )
        )
        for dim in (2, 3, 4)
    }
    ok = all(g < 1e-2 for g in gaps.values())
    _verdict(
        "criterion 3c (single objective: pivot merges with an endpoint, HS < 1e-2)",
        ok,
        ", ".join(f"N={d}: |rho-xi|={g:.2e}" for d, g in gaps.items()),
    )


def test_criterion_4_two_path_equivalence():
    worst_spectral = worst_relent = 0.0
    for dim in (2, 3, 4, 5):
        rng = np.random.default_rng(4000 + dim)
        for _ in range(1000):
            a, b = rand_density(rng, dim), rand_density(rng, dim)
            d = qjsd(a, b)
            worst_spectral = max(worst_spectral, abs(qjsd_spectral(solve_pair(a, b)) - d))
            worst_relent = max(worst_relent, abs(qjsd_via_relative_entropy(a, b) - d))
    ok = worst_spectral < 1e-9 and worst_relent < 1e-10
    _verdict(
        "criterion 4 (spectral and relative-entropy paths agree, 1000 pairs x dims 2-5)",
        ok,
        f"max|spectral-direct|={worst_spectral:.2e}, max|relent-direct|={worst_relent:.2e}",
    )


def test_criterion_5_pure_state_closed_form():
    worst = 0.0
    for dim in (2, 3, 4):
        rng = np.random.default_rng(5000 + dim)
        for _ in range(1000):
            psi, phi = rand_pure(rng, dim), rand_pure(rng, dim)
            overlap = min(abs(np.vdot(psi, phi)), 1.0)
            got = qjsd(projector(psi), projector(phi))
            worst = max(worst, abs(got - phi_pure(overlap)))
    scan = pure_triangle_scan(25, 20)
    ok = worst < 1e-10 and scan.min_g >= -1e-12
    _verdict(
        "criterion 5 (pure-state overlap formula and grid scan)",
        ok,
        f"max closed-form error={worst:.2e}, scan min={scan.min_g:.2e}",
    )


def test_criterion_6_measurement_bound():
    rng = np.random.default_rng(66)
    worst_excess = -np.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        a, b = rand_density(rng, dim), rand_density(rng, dim)
        povm = random_povm(rng, dim)
        worst_excess = max(worst_excess, measured_jsd(a, b, povm) - qjsd(a, b))
    worst_eq = 0.0
    for _ in range(100):
        rho, sigma, u, _, _ = commuting_pair(rng, 3)
        worst_eq = max(worst_eq, abs(measured_jsd(rho, sigma, projective_povm(u)) - qjsd(rho, sigma)))
    full = qjsd(KET0, PLUS)
    scan_max = _bloch_circle_scan_max(KET0, PLUS)
    bound = djs1_lower_bound(solve_pair(KET0, PLUS), restarts=16, seed=5)
    gap_ok = bound <= scan_max + 1e-9 and (full - scan_max) > 1e-6 and (full - bound) > 1e-6
    ok = worst_excess <= 1e-10 and worst_eq < 1e-10 and gap_ok
    _verdict(
        "criterion 6 (measured JSD never exceeds quantum JSD; gap for fixed pair)",
        ok,
        f"max excess={worst_excess:.2e}, commuting mismatch={worst_eq:.2e}, "
        f"gap={full - max(bound, scan_max):.4f}",
    )


def test_criterion_7_schoenberg_and_classical_metric():
    rng = np.random.default_rng(7000)
    worst_kernel = -np.inf
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 6))
        c = rng.standard_normal(k)
        c -= c.mean()
        dists = [simplex_point(rng, dim) for _ in range(k)]
        worst_kernel = max(worst_kernel, schoenberg_check(c, dists))
    rng2 = np.random.default_rng(7)
    trips = [tuple(simplex_point(rng2, 4) for _ in range(3)) for _ in range(10_000)]
    worst_defect = classical_jsd_sqrt_metric_check(trips)
    ok = worst_kernel <= 1e-10 and worst_defect >= -1e-12
    _verdict(
        "criterion 7 (negative-definite kernel and classical sqrt-JSD triangle)",
        ok,
        f"max kernel value={worst_kernel:.2e}, min triangle defect={worst_defect:.2e}",
    )


def test_criterion_8_purification_metric_consistency():
    schedule_for = {
        dim: AnnealSchedule(
            steps_per_temperature=30 * 2 * dim * dim,
            t_initial=0.5,
            t_final=1e-6,
            cooling_ratio=0.85,
            proposal_scale_ratio=10.0,
        )
        for dim in (2, 3)
    }
    worst_gap, most_negative = 0.0, 0.0
    for dim in (2, 3):
        states = sample_states(dim, 9, np.arange(50))
        for i in range(25):
            rho, sigma = states[2 * i], states[2 * i + 1]
            cf = d_h_closed_form(rho, sigma)
            opt = d_h_by_optimization(rho, sigma, restarts=2, seed=100 + i, schedule=schedule_for[dim])
            worst_gap = max(worst_gap, abs(opt - cf))
            most_negative = min(most_negative, opt - cf)
    worst_pure = 0.0
    rng = np.random.default_rng(88)
    for dim in (2, 3):
        for _ in range(25):
            a = projector(rand_pure(rng, dim))
            b = projector(rand_pure(rng, dim))
            worst_pure = max(worst_pure, abs(d_h_closed_form(a, b) - qjsd_sqrt(a, b)))
    ok = most_negative >= -1e-6 and worst_gap <= 1e-4 and worst_pure < 1e-10
    _verdict(
        "criterion 8 (purification metric: optimizer vs closed form, 50 pairs)",
        ok,
        f"max |opt-closed|={worst_gap:.2e}, most negative={most_negative:.2e}, "
        f"pure-pair mismatch={worst_pure:.2e}",
    )


def test_criterion_9_metric_axioms():
    rng = np.random.default_rng(909)
    worst_sym, min_distinct = 0.0, np.inf
    implication_holds = True
    for dim in (2, 3):
        for _ in range(100):
            a, b = rand_density(rng, dim), rand_density(rng, dim)
            d_ab, d_ba = qjsd_sqrt(a, b), qjsd_sqrt(b, a)
            worst_sym = max(worst_sym, abs(d_ab - d_ba))
            min_distinct = min(min_distinct, d_ab)
            assert d_ab >= 0.0
        # identity of indiscernibles on nearly-equal pairs
        for eps in (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2):
            base = rand_density(rng, dim)
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (h + h.conj().T) / 2.0
            h -= np.trace(h).real * np.eye(dim) / dim
            w, v = np.linalg.eigh(base + eps * h / max(np.linalg.norm(h), 1e-300))
            w = np.maximum(w, 0.0)
            sigma = (v * (w / w.sum())) @ v.conj().T
            if qjsd_sqrt(base, sigma) < 1e-7 and hilbert_schmidt_distance(solve_pair(base, sigma)) >= 1e-5:
                implication_holds = False
    ok = worst_sym < 1e-12 and min_distinct > 0.0 and implication_holds
    _verdict(
        "criterion 9 (metric axioms: positivity, indiscernibles, symmetry)",
        ok,
        f"max asymmetry={worst_sym:.2e}, min distance on distinct pairs={min_distinct:.2e}",
    )
