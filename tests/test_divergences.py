import importlib
import pkgutil

import mpmath
import numpy as np
import pytest
from mpmath import iv

from qjsd.anneal import AnnealSchedule
from qjsd.audit import triangle_defect
from qjsd.divergences import (
    _phi_raw,
    _unitary_from_params,
    d_h_by_optimization,
    d_h_closed_form,
    djs1_lower_bound,
    entropy_from_eigenvalues,
    fidelity,
    hilbert_schmidt_distance,
    phi_pure,
    pure_triangle_scan,
    qjsd,
    qjsd_spectral,
    qjsd_sqrt,
    qjsd_sides,
    solve_pair,
    wootters_distance,
)
import qjsd as package
import qjsd.anneal as anneal_mod
import qjsd.divergences as div_mod
from qjsd.errors import DimMismatch, DomainError, InvalidConfig, NotHermitian, NotPositive, QjsdError
from qjsd.states import CounterStream, derive_seed, linear_entropy, purification, sample_states, unitaries_from_ginibre

from conftest import commuting_pair, haar_unitary, projector, rand_density, rand_pure, random_povm
import reference
from reference import SupportViolation, classical_jsd, measured_jsd, projective_povm, relative_entropy
from reference import qjsd_via_relative_entropy, von_neumann_entropy

# frozen reference values (direct high-precision evaluation)
H_QUARTER = 0.81127812445913286
JSD_HALF = 0.31127812445913286
SQRT_JSD_HALF = 0.55792304528414388
PHI_INV_SQRT2 = 0.60087603669285620
DH_MIXED_VS_KET = 0.77516194223714060
DJS1_KET0_PLUS = 0.39912396330714390

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2.0


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def test_von_neumann_pure_vanishes(rng):
    for n in (2, 3, 4):
        assert von_neumann_entropy(projector(rand_pure(rng, n))) == pytest.approx(0.0, abs=1e-10)


def test_von_neumann_maximally_mixed():
    for n in (2, 3, 5):
        assert von_neumann_entropy(np.eye(n) / n) == pytest.approx(np.log2(n), abs=1e-12)


def test_von_neumann_reduces_to_classical():
    assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(H_QUARTER, abs=1e-14)


def test_relative_entropy_equal_states():
    rho = rand_density(np.random.default_rng(4), 3)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_pure_reference_violates_support():
    with pytest.raises(SupportViolation):
        relative_entropy(KET0, KET1)


def test_relative_entropy_commuting_case():
    assert relative_entropy(KET0, MIXED) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Quantum JSD and its computation paths
# ---------------------------------------------------------------------------

def _triplet(rng, dim, kind):
    if kind == "pure":
        return np.stack([projector(rand_pure(rng, dim)) for _ in range(3)])
    rho, sigma = rand_density(rng, dim), rand_density(rng, dim)
    if kind == "coincident":
        return np.stack([rho, rho, sigma])
    return np.stack([rho, sigma, rand_density(rng, dim)])


def test_qjsd_sides_qubit_values():
    sides = qjsd_sides(np.stack([KET0, MIXED, KET1]))
    assert sides.shape == (3,)
    assert sides == pytest.approx([JSD_HALF, JSD_HALF, 1.0], abs=1e-14)
    assert qjsd_sides(np.stack([KET0, MIXED])) == pytest.approx([JSD_HALF], abs=1e-14)
    with pytest.raises(DimMismatch):
        qjsd_sides(np.stack([KET0, MIXED, KET1, MIXED]))


def test_qjsd_sides_stack_matches_one_at_a_time(rng):
    # the audit's worker-count invariance rests on batching changing no bit
    for dim in (2, 3, 4, 5):
        trips = np.stack([_triplet(rng, dim, kind) for kind in ("mixed", "pure", "coincident") * 4])
        spectra = np.linalg.eigvalsh(trips)
        for k in (2, 3):
            one_by_one = np.stack([qjsd_sides(t[:k]) for t in trips])
            assert np.array_equal(qjsd_sides(trips[:, :k]), one_by_one)
            assert np.array_equal(
                qjsd_sides(trips[:, :k].reshape(3, 4, k, dim, dim)), one_by_one.reshape(3, 4, -1)
            )
            assert np.array_equal(
                qjsd_sides(trips[:, :k], spectra=spectra[:, :k]),
                np.stack([qjsd_sides(t[:k], spectra=w[:k]) for t, w in zip(trips, spectra)]),
            )
            assert np.all(one_by_one[2::3, 0] == 0.0)  # coincident states: D(rho, rho) is exactly 0


def test_qjsd_equal_states_exact_zero():
    rho = rand_density(np.random.default_rng(1), 3)
    assert qjsd(rho, rho) == 0.0


def test_qjsd_orthogonal_pure_states():
    assert qjsd(KET0, KET1) == pytest.approx(1.0, abs=1e-12)


def test_qjsd_mixed_vs_ket():
    assert qjsd(MIXED, KET0) == pytest.approx(JSD_HALF, abs=1e-14)
    assert qjsd_sqrt(MIXED, KET0) == pytest.approx(SQRT_JSD_HALF, abs=1e-14)


def test_qjsd_sqrt_extremes():
    rho = rand_density(np.random.default_rng(2), 2)
    assert qjsd_sqrt(rho, rho) == 0.0
    assert qjsd_sqrt(KET0, KET1) == pytest.approx(1.0, abs=1e-12)


def test_qjsd_dim_mismatch():
    with pytest.raises(DimMismatch):
        qjsd(np.eye(2) / 2.0, np.eye(3) / 3.0)


def test_qjsd_stack_of_pairs_matches_each_pair_alone(rng):
    for dim in range(2, 9):
        pairs = [_triplet(rng, dim, kind)[:2] for kind in ("mixed", "pure", "coincident") * 2]
        rhos = np.stack([p[0] for p in pairs]).reshape(2, 3, dim, dim)
        sigmas = np.stack([p[1] for p in pairs]).reshape(2, 3, dim, dim)
        for fn in (qjsd, qjsd_sqrt):
            alone = [fn(a, b) for a, b in pairs]
            assert all(type(v) is float for v in alone)
            assert fn(rhos, sigmas).tolist() == np.reshape(alone, (2, 3)).tolist()
            assert fn(rhos[0], sigmas[0]).tolist() == alone[:3]
            with pytest.raises(DimMismatch):
                fn(rhos, sigmas[0])
            with pytest.raises(DimMismatch):
                fn(rhos[0, 0], sigmas[0])


def test_spectral_path_commuting_reduces_to_classical(rng):
    for _ in range(20):
        p = np.sort(rng.dirichlet(np.ones(3)))
        q = np.sort(rng.dirichlet(np.ones(3)))
        got = qjsd_spectral(solve_pair(np.diag(p), np.diag(q)))
        assert got == pytest.approx(classical_jsd(p, q), abs=1e-12)


def test_spectral_path_equal_states():
    rho = rand_density(np.random.default_rng(6), 4)
    assert qjsd_spectral(solve_pair(rho, rho)) == pytest.approx(0.0, abs=1e-12)


def test_two_paths_agree_on_random_qubits():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        assert abs(qjsd_spectral(solve_pair(a, b)) - qjsd(a, b)) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_three_paths_agree(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(200):
        a, b = rand_density(rng, dim), rand_density(rng, dim)
        d = qjsd(a, b)
        assert abs(qjsd_spectral(solve_pair(a, b)) - d) < 1e-9
        assert abs(qjsd_via_relative_entropy(a, b) - d) < 1e-10


def test_classical_embedding():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        assert abs(qjsd(np.diag(p), np.diag(q)) - classical_jsd(p, q)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_unitary_invariance(dim):
    for seed in range(100):
        rng = np.random.default_rng(9000 + 100 * dim + seed)
        a, b = rand_density(rng, dim), rand_density(rng, dim)
        w = haar_unitary(rng, dim)
        wa, wb = w @ a @ w.conj().T, w @ b @ w.conj().T
        assert abs(qjsd(wa, wb) - qjsd(a, b)) < 1e-10
        assert abs(qjsd_sqrt(wa, wb) - qjsd_sqrt(a, b)) < 1e-10
        assert abs(fidelity(solve_pair(wa, wb)) - fidelity(solve_pair(a, b))) < 1e-10
        assert abs(hilbert_schmidt_distance(solve_pair(wa, wb)) - hilbert_schmidt_distance(solve_pair(a, b))) < 1e-10


def test_binary_distances_symmetric(rng):
    for _ in range(50):
        a, b = rand_density(rng, 3), rand_density(rng, 3)
        for f in (qjsd, qjsd_sqrt, lambda x, y: hilbert_schmidt_distance(solve_pair(x, y))):
            assert abs(f(a, b) - f(b, a)) < 1e-12
        assert abs(fidelity(solve_pair(a, b)) - fidelity(solve_pair(b, a))) < 1e-10


def test_qjsd_bounds_on_samples(rng):
    for dim in (2, 4):
        for _ in range(100):
            d = qjsd(rand_density(rng, dim), rand_density(rng, dim))
            assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# Pure-state formulas
# ---------------------------------------------------------------------------

def test_phi_endpoints():
    assert phi_pure(0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi_pure(1.0) == 0.0


def test_phi_at_inv_sqrt2():
    assert phi_pure(1.0 / np.sqrt(2.0)) == pytest.approx(PHI_INV_SQRT2, abs=1e-14)


def test_phi_strictly_decreasing():
    xs = np.linspace(0.0, 1.0, 200)
    vals = phi_pure(xs)
    assert np.all(np.diff(vals) < 0.0)


def test_phi_domain_error():
    with pytest.raises(DomainError):
        phi_pure(1.5)
    with pytest.raises(DomainError):
        phi_pure(-0.1)


def test_pure_state_reduction(rng):
    for dim in (2, 3, 4):
        for _ in range(200):
            psi, phi = rand_pure(rng, dim), rand_pure(rng, dim)
            overlap = abs(np.vdot(psi, phi))
            got = qjsd(projector(psi), projector(phi))
            assert abs(got - phi_pure(min(overlap, 1.0))) < 1e-10


def test_g_domain_error():
    nan = float("nan")
    for x in (nan, [0.5, nan]):  # the range test alone let NaN through
        with pytest.raises(DomainError):
            phi_pure(x)
    with pytest.raises(DomainError):  # the mixed-state defect rejects a non-PSD state
        triangle_defect(KET0, MIXED, np.diag([1.2, -0.2]).astype(complex))


def _g_terms(ctx, theta):
    """g(theta) = phi(cos theta) = h2(sin^2(theta/2)) and its first two
    derivatives g' = sin(theta) log2 cot(theta/2) and
    g'' = cos(theta) log2 cot(theta/2) - 1/ln 2, in mpmath context ctx
    (mpmath.mp for points, mpmath.iv for enclosures)."""
    ln2 = ctx.log(2)
    s, c = ctx.sin(theta / 2), ctx.cos(theta / 2)
    log2_cot = ctx.log(c / s) / ln2
    g = -(s**2 * ctx.log(s**2) + c**2 * ctx.log(c**2)) / ln2
    return g, ctx.sin(theta) * log2_cot, ctx.cos(theta) * log2_cot - 1 / ln2


def _concavity_q(theta):
    """2 g g'' - g'^2, which has the sign of f'' for f = sqrt(g)."""
    g, g1, g2 = _g_terms(iv, theta)
    return 2 * g * g2 - g1**2


def _certify_negative(fn, lo, hi, max_boxes=20_000):
    """Prove fn < 0 on [lo, hi] by interval bisection: returns the number of
    boxes whose enclosure lies below 0, or, at the first box whose enclosure
    lies above 0 (fn > 0 proven there), that box (a, b)."""
    boxes, todo = 0, [(mpmath.mpf(lo), mpmath.mpf(hi))]
    while todo:
        a, b = todo.pop()  # depth first, leftmost box first
        y = fn(iv.mpf([a, b]))
        if y.b < 0:
            boxes += 1
        elif y.a > 0:
            return a, b
        else:
            assert boxes + len(todo) < max_boxes, f"undecided after {boxes} boxes, at [{a}, {b}]"
            m = (a + b) / 2
            todo += [(m, b), (a, m)]
    return boxes


def test_sqrt_pure_divergence_concave_on_1e_6_to_half_pi():
    """For pure states at Fubini-Study angle theta, sqrt D = f(theta) with
    f = sqrt(g), g(theta) = phi(cos theta). Interval bisection certifies
    f'' < 0 on [1e-6, pi/2]; (0, 1e-6] still needs an analytic lemma."""
    for theta in (1e-2, 0.3, 1.0, 1.5):  # the formulas are phi's, and its derivatives
        g, g1, g2 = _g_terms(mpmath.mp, mpmath.mpf(theta))
        assert float(g) == pytest.approx(phi_pure(np.cos(theta)), rel=1e-12)
        assert float(g1) == pytest.approx(mpmath.diff(lambda t: _g_terms(mpmath.mp, t)[0], theta), rel=1e-8)
        assert float(g2) == pytest.approx(mpmath.diff(lambda t: _g_terms(mpmath.mp, t)[1], theta), rel=1e-8)
    half_pi = (iv.pi / 2).b  # an upper bound of pi/2
    boxes = _certify_negative(_concavity_q, 1e-6, half_pi)
    assert isinstance(boxes, int), f"f'' > 0 proven on {boxes}"
    # mutation: g itself (D, not sqrt D) is convex near 0, so the same routine
    # run on g'' must stop at once, at a box where g'' > 0 is proven
    refuted = _certify_negative(lambda t: _g_terms(iv, t)[2], 1e-6, half_pi, max_boxes=10)
    assert isinstance(refuted, tuple) and refuted[0] == mpmath.mpf(1e-6)


def test_scan_corner_grid():
    assert pure_triangle_scan(2, 2).min_g >= -1e-12


def test_scan_fine_grid_nonnegative_and_degenerate_argmin():
    res = pure_triangle_scan(25, 20)
    assert res.min_g >= -1e-12
    assert res.min_g <= 1e-12  # the zero is attained
    on_phi_branch = abs(res.y - res.x) < 1e-9 and abs(res.z - 1.0) < 1e-9
    on_psi_branch = abs(res.z - res.x) < 1e-9 and abs(res.y - 1.0) < 1e-9
    assert on_phi_branch or on_psi_branch


@pytest.mark.parametrize("grid_steps, x_steps", [(25, 20), (9, 5), (3, 3)])
def test_scan_overlaps_are_those_of_its_states(grid_steps, x_steps):
    # rebuild psi, phi and chi = a psi + b phi + chi_perp in C^3 from the
    # scan's x, a and b; its y, z and min_g must be what those states give
    res = pure_triangle_scan(grid_steps, x_steps)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    phi = np.array([res.x, np.sqrt(1.0 - res.x**2), 0.0], dtype=complex)
    chi = res.a * psi + res.b * phi
    chi[2] = np.sqrt(max(1.0 - np.vdot(chi, chi).real, 0.0))
    assert abs(np.linalg.norm(chi) - 1.0) < 1e-12
    assert abs(abs(np.vdot(psi, chi)) - res.y) < 1e-12
    assert abs(abs(np.vdot(phi, chi)) - res.z) < 1e-12
    # the gap is the square-root round-off of the mixed-state defect near 0
    assert abs(triangle_defect(projector(psi), projector(chi), projector(phi)) - res.min_g) < 1e-7


def test_scan_caps_its_pair_grid(small_linspace, monkeypatch):
    # about 105 B per point of the grid_steps**4 pair grid, held at once: a
    # grid of 100 would need about 10 GB
    for grid_steps in (57, 100, 10**9):
        with pytest.raises(InvalidConfig, match="cap of 10000000 pair-grid points"):
            pure_triangle_scan(grid_steps)
    monkeypatch.setattr(div_mod, "_MAX_SCAN_POINTS", 3**4)
    assert pure_triangle_scan(3, 3) == pure_triangle_scan(np.int64(3), 3)  # the cap itself is admitted
    with pytest.raises(InvalidConfig, match="grid_steps\\*\\*4 = 256 exceeds the cap of 81"):
        pure_triangle_scan(4, 3)


def test_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        pure_triangle_scan(1)
    for args in ((2.5,), (3, 3.0), (True,), (3, True)):
        with pytest.raises(InvalidConfig):
            pure_triangle_scan(*args)
    assert pure_triangle_scan(np.int64(3), np.int64(3)) == pure_triangle_scan(3, 3)


# ---------------------------------------------------------------------------
# Wootters and Hilbert-Schmidt
# ---------------------------------------------------------------------------

def test_wootters_basics(rng):
    psi = rand_pure(rng, 3)
    assert wootters_distance(psi, psi) == pytest.approx(0.0, abs=1e-8)
    e0, e1 = np.eye(2)[0] + 0j, np.eye(2)[1] + 0j
    assert wootters_distance(e0, e1) == pytest.approx(np.pi / 2.0, abs=1e-12)
    half = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert wootters_distance(e0, half) == pytest.approx(np.pi / 4.0, abs=1e-12)


def test_wootters_is_metric_on_samples(rng):
    for _ in range(300):
        a, b, c = (rand_pure(rng, 3) for _ in range(3))
        assert wootters_distance(a, c) <= wootters_distance(a, b) + wootters_distance(b, c) + 1e-12


def test_wootters_unitary_invariant(rng):
    a, b = rand_pure(rng, 3), rand_pure(rng, 3)
    w = haar_unitary(rng, 3)
    assert abs(wootters_distance(w @ a, w @ b) - wootters_distance(a, b)) < 1e-12


def test_hs_distance_values():
    assert hilbert_schmidt_distance(solve_pair(KET0, KET0)) == 0.0
    assert hilbert_schmidt_distance(solve_pair(KET0, KET1)) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_hs_distance_triangle(rng):
    for _ in range(10_000):
        a, b, c = (rand_density(rng, 2) for _ in range(3))
        defect = (
            hilbert_schmidt_distance(solve_pair(a, b))
            + hilbert_schmidt_distance(solve_pair(b, c))
            - hilbert_schmidt_distance(solve_pair(a, c))
        )
        assert defect >= -1e-12


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def test_measured_jsd_trivial_povm(rng):
    a, b = rand_density(rng, 3), rand_density(rng, 3)
    assert measured_jsd(a, b, [np.eye(3)]) == 0.0


def test_measured_jsd_commuting_equality():
    rng = np.random.default_rng(31)
    for _ in range(25):
        rho, sigma, u, lam, mu = commuting_pair(rng, 3)
        got = measured_jsd(rho, sigma, projective_povm(u))
        assert abs(got - qjsd(rho, sigma)) < 1e-10


def test_measured_jsd_bounded_by_qjsd():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        povm = random_povm(rng, 2)
        assert measured_jsd(a, b, povm) <= qjsd(a, b) + 1e-10


def test_djs1_equal_states(rng):
    rho = rand_density(rng, 2)
    assert djs1_lower_bound(solve_pair(rho, rho), restarts=2) == 0.0


def test_djs1_commuting_reaches_qjsd():
    rng = np.random.default_rng(77)
    for _ in range(10):
        rho, sigma, *_ = commuting_pair(rng, 3)
        assert djs1_lower_bound(solve_pair(rho, sigma), restarts=2) == pytest.approx(qjsd(rho, sigma), abs=1e-10)


def _djs1_bases(a, b, restarts, seed):
    """The bases djs1_lower_bound searches, built one at a time."""
    n = a.shape[0]
    bases = [np.linalg.eigh(m)[1] for m in (a - b, a, b, (a + b) / 2.0)]
    entries = 2 * np.arange(restarts * n * n, dtype=np.uint64).reshape(restarts, n, n)
    z = CounterStream([derive_seed(seed, 0x5B0B)]).standard_normal(entries)[0]
    return bases + list(unitaries_from_ginibre(z))


def _djs1_pairs(seed):
    """Four state pairs per dimension 2 to 8; the first of each is pure."""
    rng = np.random.default_rng(seed)
    for n in range(2, 9):
        yield projector(rand_pure(rng, n)), projector(rand_pure(rng, n))
        for _ in range(3):
            yield rand_density(rng, n), rand_density(rng, n)


def test_djs1_is_the_best_basis_of_an_independent_loop():
    # classical_jsd of the diagonals of U†rho U and U†sigma U, and
    # measured_jsd of the basis's projectors, each round differently from
    # djs1_lower_bound's contraction; all sit within a few ulps of 1 of the
    # exact value
    tol = 8 * np.finfo(np.float64).eps
    for i, (a, b) in enumerate(_djs1_pairs(42)):
        bases = _djs1_bases(a, b, restarts=6, seed=i)
        got = djs1_lower_bound(solve_pair(a, b), restarts=6, seed=i)
        best = max(
            classical_jsd(np.diag(u.conj().T @ a @ u).real, np.diag(u.conj().T @ b @ u).real) for u in bases
        )
        assert abs(got - best) <= tol
        assert abs(got - max(measured_jsd(a, b, projective_povm(u)) for u in bases)) <= tol


def test_djs1_eigensolves_only_the_four_derived_operators(monkeypatch):
    # solve_pair eigensolves the four derived operators as one stack; the
    # bases are checked as unitaries, so djs1_lower_bound solves no projector
    rng = np.random.default_rng(43)
    pairs = [(rand_density(rng, n), rand_density(rng, n)) for n in (2, 5, 8)]
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def counted(m, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(m)))
            return _fn(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for a, b in pairs:
        calls.clear()
        pair = solve_pair(a, b)
        assert calls == [("eigh", (4,) + a.shape)]
        calls.clear()
        djs1_lower_bound(pair, restarts=3)
        assert calls == []


def test_djs1_rejects_a_non_count(rng):
    a, b = rand_density(rng, 2), rand_density(rng, 2)
    for restarts in (0, 2.5, 2.0, True, "2"):
        with pytest.raises(InvalidConfig):
            djs1_lower_bound(solve_pair(a, b), restarts=restarts)
    assert djs1_lower_bound(solve_pair(a, b), restarts=np.int64(2)) == djs1_lower_bound(solve_pair(a, b), restarts=2)


def test_djs1_accepts_states_qjsd_accepts():
    # each input is within the 1e-12 Hermitian tolerance, but a - b is not
    a = np.array([[0.6, 0.1 + 0.9e-12j], [0.1, 0.4]])
    b = np.array([[0.5, 0.2 - 0.9e-12j], [0.2, 0.5]])
    full = qjsd(a, b)
    assert full == pytest.approx(0.01522, abs=1e-5)
    assert 0.0 < djs1_lower_bound(solve_pair(a, b), restarts=2) <= full


def _bloch_circle_scan_max(rho, sigma, step=1e-3):
    """Brute-force measured JSD over rank-1 projective qubit measurements.

    Both states lie in the x-z plane of the Bloch ball, and the induced
    probabilities depend only on (n_x, n_z); tilting the measurement axis out
    of plane shrinks the reachable (n_x, n_z) disk, so scanning the in-plane
    circle is exhaustive. The grid alone misses the supremum by O(step^2)
    (3.4e-9 for |0> vs |+> at the default step), so the grid maximum is then
    refined by golden-section search within one step of the grid argmax.
    """
    bloch = lambda r: (np.real(r[0, 1] + r[1, 0]), np.real(r[0, 0] - r[1, 1]))
    ax, az = bloch(rho)
    bx, bz = bloch(sigma)

    def h(v):
        v = np.clip(v, 0.0, 1.0)
        out = np.zeros_like(v)
        for t in (v, 1.0 - v):
            out -= np.where(t > 0.0, t * np.log2(np.where(t > 0.0, t, 1.0)), 0.0)
        return out

    def djs(theta):
        nx, nz = np.sin(theta), np.cos(theta)
        p = (1.0 + nx * ax + nz * az) / 2.0
        q = (1.0 + nx * bx + nz * bz) / 2.0
        return h((p + q) / 2.0) - 0.5 * h(p) - 0.5 * h(q)

    grid = np.arange(0.0, 2.0 * np.pi, step)
    values = djs(grid)
    k = int(np.argmax(values))
    lo, hi = grid[k] - step, grid[k] + step
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):  # bracket width 2 * step * 0.618^60, about 1e-15 rad
        m = np.array([hi - shrink * (hi - lo), lo + shrink * (hi - lo)])
        f1, f2 = djs(m)
        if f1 < f2:
            lo = m[0]
        else:
            hi = m[1]
    return float(max(values[k], djs(np.array([(lo + hi) / 2.0]))[0]))


def test_djs1_caps_its_random_bases(small_arange, monkeypatch):
    # about 125 B per entry of the restarts x N x N bases, held at once:
    # 10**6 restarts at N = 8 would need about 8 GB
    a, b = sample_states(8, 1, [0, 1])
    for restarts in (156_251, 10**6):  # 156_250 * 64 is the cap
        with pytest.raises(InvalidConfig, match="cap of 10000000 random-basis entries"):
            djs1_lower_bound(solve_pair(a, b), restarts=restarts)
    monkeypatch.setattr(div_mod, "_MAX_BASIS_ENTRIES", 3 * 64)
    djs1_lower_bound(solve_pair(a, b), restarts=3)  # the cap itself is admitted
    with pytest.raises(InvalidConfig, match="restarts \\* dim\\*\\*2 = 256 exceeds"):
        djs1_lower_bound(solve_pair(a, b), restarts=4)


def test_djs1_gap_for_noncommuting_pair():
    # |0><0| vs |+><+|: the measured divergence cannot reach the quantum one
    full = qjsd(KET0, PLUS)
    assert full == pytest.approx(PHI_INV_SQRT2, abs=1e-12)
    scan_max = _bloch_circle_scan_max(KET0, PLUS)
    # sup at theta = 3 pi / 4, where p + q = 1: 1 - h2((2 - sqrt 2) / 4)
    assert scan_max == pytest.approx(DJS1_KET0_PLUS, abs=1e-6)
    bound = djs1_lower_bound(solve_pair(KET0, PLUS), restarts=16, seed=5)
    assert bound <= scan_max + 1e-9
    assert bound > scan_max - 1e-3  # the candidate-basis search is tight here
    assert full - bound > 1e-6
    assert full - scan_max > 1e-6


# ---------------------------------------------------------------------------
# Fidelity and the purification metric
# ---------------------------------------------------------------------------

_BASIS_POVM = projective_povm(np.eye(2))
# each function of a pair of states, as a function of the pair; triangle_defect
# takes the pair as the outer states and, in a second entry, as its pivot
_PAIR_FUNCTIONS = {
    "qjsd": qjsd,
    "qjsd_sqrt": qjsd_sqrt,
    "triangle_defect": lambda a, b: triangle_defect(a, MIXED, b),
    "triangle_defect_pivot": lambda a, b: triangle_defect(MIXED, a, b),
    "relative_entropy": relative_entropy,
    "qjsd_via_relative_entropy": qjsd_via_relative_entropy,
    "fidelity": lambda a, b: fidelity(solve_pair(a, b)),
    "qjsd_spectral": lambda a, b: qjsd_spectral(solve_pair(a, b)),
    "djs1_lower_bound": lambda a, b: djs1_lower_bound(solve_pair(a, b), restarts=2),
    "hilbert_schmidt_distance": lambda a, b: hilbert_schmidt_distance(solve_pair(a, b)),
    "measured_jsd": lambda a, b: measured_jsd(a, b, _BASIS_POVM),
}


@pytest.mark.parametrize("name", sorted(_PAIR_FUNCTIONS))
def test_pair_functions_reject_what_is_not_a_state(name):
    fn = _PAIR_FUNCTIONS[name]
    not_psd = np.diag([1.2, -0.2]).astype(complex)  # unit trace
    for bad, good in [(2.0 * MIXED, MIXED), (5.0 * np.eye(2), np.zeros((2, 2))), (4.0 * np.eye(2), 4.0 * np.eye(2))]:
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="trace is .*, expected 1 within 1e-10"):
                fn(*pair)
    for pair in ((not_psd, MIXED), (MIXED, not_psd)):
        with pytest.raises(QjsdError):  # DomainError from the qjsd kernel, NotPositive elsewhere
            fn(*pair)
    assert np.isfinite(fn(KET0, MIXED))


_DH_SCHEDULE = AnnealSchedule(steps_per_temperature=2, t_initial=0.5, t_final=0.4, cooling_ratio=0.7)
# every function of two states: those above, and d_h_by_optimization, the
# one that reads no PSD verdict from a spectrum of the pair itself
_TWO_STATE_FUNCTIONS = {
    **_PAIR_FUNCTIONS,
    "d_h_by_optimization": lambda a, b: d_h_by_optimization(a, b, restarts=1, schedule=_DH_SCHEDULE),
}


@pytest.mark.parametrize("name", sorted(_TWO_STATE_FUNCTIONS))
def test_two_state_functions_check_each_argument_before_stacking(name):
    # two length-2 vectors stack to one 2 x 2 matrix, and a (3, 2, 2) stack
    # is not one state
    fn = _TWO_STATE_FUNCTIONS[name]
    with pytest.raises(DimMismatch):
        fn(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    if name not in ("qjsd", "qjsd_sqrt"):  # these two take stacks of pairs
        with pytest.raises(DimMismatch):
            fn(np.stack([MIXED] * 3), np.stack([MIXED] * 3))


def test_qjsd_names_the_negative_eigenvalue():
    not_psd = np.diag([1.2, -0.2]).astype(complex)
    for fn in (qjsd, lambda a, b: triangle_defect(a, MIXED, b)):
        with pytest.raises(NotPositive, match="eigenvalue -2.000e-01 below -1e-10") as info:
            fn(not_psd, MIXED)
        assert isinstance(info.value, DomainError)


def test_hilbert_schmidt_distance_checks_the_trace():
    with pytest.raises(ValueError, match="trace is 2.0, expected 1 within 1e-10"):
        hilbert_schmidt_distance(solve_pair(2.0 * MIXED, MIXED))
    assert hilbert_schmidt_distance(solve_pair(KET0, KET1)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_each_state_is_solved_once(rng, monkeypatch):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    povm = projective_povm(np.eye(3))
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _solve=solve, **k: calls.append(1) or _solve(*a, **k))
    monkeypatch.setattr(anneal_mod, "minimize", lambda *args, **kwargs: (0.0, None, None))
    cases = [
        (1, lambda: von_neumann_entropy(rho)),
        (1, lambda: purification(rho, np.eye(3))),
        (2, lambda: d_h_by_optimization(rho, sigma, restarts=1, schedule=_DH_SCHEDULE)),
        (2, lambda: measured_jsd(rho, sigma, povm)),  # the pair's solve and the POVM's check
        (3, lambda: qjsd_via_relative_entropy(rho, sigma)),  # rho, sigma and their midpoint
    ]
    for want, call in cases:
        calls.clear()
        call()
        assert len(calls) == want


def test_each_input_is_checked_for_finiteness_once(rng, monkeypatch):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **k: calls.append(1) or isfinite(*a, **k))
    cases = [
        (2, lambda: qjsd(rho, sigma)),
        (2, lambda: qjsd_sqrt(rho, sigma)),
        (2, lambda: relative_entropy(rho, sigma)),
        (2, lambda: qjsd_via_relative_entropy(rho, sigma)),
        (2, lambda: hilbert_schmidt_distance(solve_pair(rho, sigma))),
        (1, lambda: von_neumann_entropy(rho)),
        (2, lambda: purification(rho, np.eye(3))),  # the state and the unitary
    ]
    for want, call in cases:
        calls.clear()
        call()
        assert len(calls) == want


# each function of one state; linear_entropy solves no spectrum, so reads no
# PSD verdict
_STATE_FUNCTIONS = {
    "von_neumann_entropy": von_neumann_entropy,
    "linear_entropy": linear_entropy,
    "purification": lambda a: purification(a, np.eye(2)),
}


@pytest.mark.parametrize("name", sorted(_STATE_FUNCTIONS))
def test_state_functions_reject_what_is_not_a_state(name):
    fn = _STATE_FUNCTIONS[name]
    for bad in (2.0 * MIXED, np.eye(2), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="trace is .*, expected 1 within 1e-10"):
            fn(bad)
    with pytest.raises(NotHermitian):
        fn(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="non-finite"):
        fn(np.full((2, 2), np.nan))
    for bad in (np.array([0.5, 0.5]), np.stack([MIXED] * 3)):
        with pytest.raises(DimMismatch):
            fn(bad)
    if name != "linear_entropy":
        with pytest.raises(NotPositive):
            fn(np.diag([1.2, -0.2]))
    assert np.all(np.isfinite(fn(KET0)))


def test_shared_eigensystem_follows_inputs_overwritten_in_place(rng):
    # a solved pair holds its own copy of the inputs: overwriting an input
    # leaves the pair's measures bit for bit as they were, and a fresh
    # solve_pair follows the new input
    for fn in (hilbert_schmidt_distance, fidelity, qjsd_spectral, lambda p: djs1_lower_bound(p, restarts=2)):
        for dim in (2, 5):
            a, b = rand_density(rng, dim), rand_density(rng, dim)
            pair = solve_pair(a, b)
            before = fn(pair)
            a[...] = rand_density(rng, dim)
            assert fn(pair) == before
            got = fn(solve_pair(a, b))
            assert got != before
            assert got == fn(solve_pair(a.copy(), b.copy()))


def test_pair_measures_solve_nothing(rng, monkeypatch):
    # the four measures read the pair and solve no spectrum of their own
    measures = (hilbert_schmidt_distance, fidelity, qjsd_spectral, lambda p: djs1_lower_bound(p, restarts=3))
    pairs = [solve_pair(rand_density(rng, n), rand_density(rng, n)) for n in (2, 5, 8)]
    before = [[fn(p) for fn in measures] for p in pairs]
    for name in ("eigh", "eigvalsh"):
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"np.linalg.{_name} called")

        monkeypatch.setattr(np.linalg, name, refuse)
    assert [[fn(p) for fn in measures] for p in pairs] == before


def test_fidelity_equal_states(rng):
    rho = rand_density(rng, 3)
    assert fidelity(solve_pair(rho, rho)) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure():
    assert fidelity(solve_pair(KET0, KET1)) == pytest.approx(0.0, abs=1e-8)


def test_fidelity_pure_pairs_overlap(rng):
    for _ in range(50):
        psi, phi = rand_pure(rng, 3), rand_pure(rng, 3)
        got = fidelity(solve_pair(projector(psi), projector(phi)))
        assert got == pytest.approx(abs(np.vdot(psi, phi)), abs=1e-10)


def test_d_h_closed_form_values():
    rho = rand_density(np.random.default_rng(8), 2)
    assert d_h_closed_form(rho, rho) == pytest.approx(0.0, abs=1e-6)
    assert d_h_closed_form(KET0, KET1) == pytest.approx(1.0, abs=1e-8)
    assert d_h_closed_form(MIXED, KET0) == pytest.approx(DH_MIXED_VS_KET, abs=1e-12)


def test_d_h_equals_sqrt_qjsd_for_pure_pairs(rng):
    for _ in range(50):
        psi, phi = rand_pure(rng, 2), rand_pure(rng, 2)
        a, b = projector(psi), projector(phi)
        assert abs(d_h_closed_form(a, b) - qjsd_sqrt(a, b)) < 1e-10


_DH_SCHED = AnnealSchedule(
    steps_per_temperature=240, t_initial=0.5, cooling_ratio=0.85,
    t_final=1e-8, proposal_scale_ratio=10.0,
)


def test_d_h_optimizer_equal_states():
    rho = rand_density(np.random.default_rng(14), 2)
    assert d_h_by_optimization(rho, rho, restarts=2, seed=1, schedule=_DH_SCHED) < 1e-6


def test_d_h_optimizer_matches_closed_form_qubit_example():
    cf = d_h_closed_form(MIXED, KET0)
    opt = d_h_by_optimization(MIXED, KET0, restarts=2, seed=2, schedule=_DH_SCHED)
    assert cf == pytest.approx(DH_MIXED_VS_KET, abs=1e-12)
    assert abs(opt - cf) < 1e-4


def test_d_h_optimizer_never_beats_closed_form():
    # one-sided: the closed form is the analytic minimum
    rng = np.random.default_rng(9)
    cheap = AnnealSchedule(steps_per_temperature=80, t_initial=0.5, cooling_ratio=0.7, proposal_scale_ratio=10.0)
    for i in range(20):
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        opt = d_h_by_optimization(a, b, restarts=1, seed=200 + i, schedule=cheap)
        assert opt >= d_h_closed_form(a, b) - 1e-6


# Bit-identity of the lean kernels with the reference expressions they
# replaced, written out here as the oracles.

def _entropy_oracle(w):
    lam = np.maximum(np.asarray(w, dtype=np.float64), 0.0)
    safe = np.where(lam > 0.0, lam, 1.0)
    out = -np.sum(lam * np.log2(safe), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _phi_oracle(x):
    xm = np.minimum(np.asarray(x, dtype=np.float64), 1.0)
    return np.maximum(_entropy_oracle(np.stack([(1.0 - xm) / 2.0, (1.0 + xm) / 2.0], -1)), 0.0)


def _unitary_oracle(theta, n):
    b = (theta[..., : n * n] + 1j * theta[..., n * n :]).reshape(theta.shape[:-1] + (n, n))
    u, _, wh = np.linalg.svd(b)
    return u @ wh


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_entropy_from_eigenvalues_bit_identical_to_reference(rng, dim):
    stack = np.linalg.eigvalsh(np.stack([rand_density(rng, dim) for _ in range(6)]))
    stack[1, 0] = 0.0  # an exact-zero eigenvalue
    stack[2, 0] = -1e-17  # a round-off negative
    stack[3] = np.eye(dim)[0]  # a pure state's spectrum: zeros and a one
    stack[4] = 1.0 / dim
    for w in (stack, stack[0], stack[1], stack[2], stack[3], stack.reshape(2, 3, dim), stack.tolist()):
        got, want = entropy_from_eigenvalues(w), _entropy_oracle(w)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


def test_phi_raw_bit_identical_to_reference(rng):
    grid = np.linspace(0.0, 1.0, 101)
    edges = np.array([0.0, 1.0, 1.0 + 2e-16, 0.5, 1e-300, 1.0 - 1e-16])  # overlaps 0 and 1, and round-off past 1
    for x in (grid, edges, rng.random((7, 5)), rng.random((2, 3, 4)), 0.0, 1.0, 0.3, np.float64(0.7)):
        got, want = _phi_raw(x), _phi_oracle(x)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitary_from_params_bit_identical_to_reference(rng, n):
    stack = rng.standard_normal((6, 2 * n * n))
    stack[1, : n * n] = 0.0  # a purely imaginary matrix
    stack[2, n * n :] = 0.0  # a real one
    for theta in (stack, stack[0], stack[1], stack[2], stack.reshape(2, 3, -1)):
        got = _unitary_from_params(theta, n)
        assert got.shape == theta.shape[:-1] + (n, n)
        assert np.array_equal(got, _unitary_oracle(theta, n))


# the 29 names of README's "Python API"; the cross-checks live in tests/reference.py
_EXPORTS = """run_anneal minimize objective_single objective_symmetrized AnnealSchedule AnnealResult run_audit
regenerate_triplet triangle_defect AuditReport Histogram TriangleSample qjsd qjsd_sqrt hilbert_schmidt_distance
fidelity d_h_closed_form d_h_by_optimization djs1_lower_bound wootters_distance phi_pure pure_triangle_scan
qjsd_spectral solve_pair sample_states derive_seed read_state_file write_state_file purification""".split()
_MOVED = """von_neumann_entropy relative_entropy _relative_entropy qjsd_via_relative_entropy measured_jsd check_prob_vector
_prob_stack classical_jsd classical_jsd_sqrt_metric_check schoenberg_check SUPPORT_CUTOFF _SUPPORT_WEIGHT_TOL check_povm
projective_povm SupportViolation""".split()


def test_the_package_exports_the_instrument_and_no_reference_route():
    names = {k for k, v in vars(package).items() if not k.startswith("_") and not isinstance(v, type(package))}
    assert names == set(_EXPORTS) and len(_EXPORTS) == 29
    for name in _MOVED:
        assert not any(hasattr(m, name) for m in (package, div_mod, package.states, package.errors)), name
        assert hasattr(reference, name), name


def test_no_module_keeps_a_cache():
    # no part of the package holds state between calls; the parser is built
    # once per process, and parse_args keeps no state in it
    cached = [
        f"{info.name}.{k}"
        for info in pkgutil.iter_modules(package.__path__)
        for k, v in vars(importlib.import_module(f"qjsd.{info.name}")).items()
        if hasattr(v, "cache_info")
    ]
    assert cached == ["cli.build_parser"]
