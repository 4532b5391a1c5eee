import numpy as np
import pytest

from qjsd.anneal import AnnealSchedule
from qjsd.audit import triangle_defect
from qjsd.divergences import (
    _measured_jsd,
    classical_jsd,
    d_h_by_optimization,
    d_h_closed_form,
    djs1_lower_bound,
    fidelity,
    g_function,
    hilbert_schmidt_distance,
    measured_jsd,
    phi_pure,
    pure_triangle_scan,
    qjsd,
    qjsd_spectral,
    qjsd_sqrt,
    qjsd_via_relative_entropy,
    relative_entropy,
    qjsd_sides,
    von_neumann_entropy,
    wootters_distance,
)
from qjsd.errors import DimMismatch, DomainError, SupportViolation
from qjsd.states import (
    CounterStream,
    check_povm,
    density_from_pure,
    derive_seed,
    projective_povm,
    unitaries_from_ginibre,
)

from conftest import commuting_pair, haar_unitary, rand_density, rand_pure, random_povm

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
        assert von_neumann_entropy(density_from_pure(rand_pure(rng, n))) == pytest.approx(0.0, abs=1e-10)


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
        return np.stack([density_from_pure(rand_pure(rng, dim)) for _ in range(3)])
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


def test_spectral_path_commuting_reduces_to_classical(rng):
    for _ in range(20):
        p = np.sort(rng.dirichlet(np.ones(3)))
        q = np.sort(rng.dirichlet(np.ones(3)))
        got = qjsd_spectral(np.diag(p), np.diag(q))
        assert got == pytest.approx(classical_jsd(p, q), abs=1e-12)


def test_spectral_path_equal_states():
    rho = rand_density(np.random.default_rng(6), 4)
    assert qjsd_spectral(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_two_paths_agree_on_random_qubits():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        assert abs(qjsd_spectral(a, b) - qjsd(a, b)) < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_three_paths_agree(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(200):
        a, b = rand_density(rng, dim), rand_density(rng, dim)
        d = qjsd(a, b)
        assert abs(qjsd_spectral(a, b) - d) < 1e-9
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
        assert abs(fidelity(wa, wb) - fidelity(a, b)) < 1e-10
        assert abs(hilbert_schmidt_distance(wa, wb) - hilbert_schmidt_distance(a, b)) < 1e-10


def test_binary_distances_symmetric(rng):
    for _ in range(50):
        a, b = rand_density(rng, 3), rand_density(rng, 3)
        for f in (qjsd, qjsd_sqrt, hilbert_schmidt_distance):
            assert abs(f(a, b) - f(b, a)) < 1e-12
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10


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
            got = qjsd(density_from_pure(psi), density_from_pure(phi))
            assert abs(got - phi_pure(min(overlap, 1.0))) < 1e-10


def test_g_vanishes_at_degeneracies():
    # chi = phi gives (y, z) = (x, 1); chi = psi gives (y, z) = (1, x)
    for x in (0.0, 0.3, 0.99):
        assert g_function(x, x, 1.0) == 0.0
        assert g_function(x, 1.0, x) == 0.0


def test_g_nonnegative_when_x_is_one():
    for y, z in ((0.0, 0.0), (0.5, 0.9), (1.0, 0.2)):
        assert g_function(1.0, y, z) >= 0.0


def test_g_domain_error():
    with pytest.raises(DomainError):
        g_function(1.2, 0.5, 0.5)
    with pytest.raises(DomainError):  # the mixed-state defect rejects a non-PSD state
        triangle_defect(KET0, MIXED, np.diag([1.2, -0.2]).astype(complex))


def test_scan_corner_grid():
    assert pure_triangle_scan(2, 2).min_g >= -1e-12


def test_scan_fine_grid_nonnegative_and_degenerate_argmin():
    res = pure_triangle_scan(25, 20)
    assert res.min_g >= -1e-12
    assert res.min_g <= 1e-12  # the zero is attained
    on_phi_branch = abs(res.y - res.x) < 1e-9 and abs(res.z - 1.0) < 1e-9
    on_psi_branch = abs(res.z - res.x) < 1e-9 and abs(res.y - 1.0) < 1e-9
    assert on_phi_branch or on_psi_branch


def test_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        pure_triangle_scan(1)


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
    assert hilbert_schmidt_distance(KET0, KET0) == 0.0
    assert hilbert_schmidt_distance(KET0, KET1) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_hs_distance_triangle(rng):
    for _ in range(10_000):
        a, b, c = (rand_density(rng, 2) for _ in range(3))
        defect = (
            hilbert_schmidt_distance(a, b)
            + hilbert_schmidt_distance(b, c)
            - hilbert_schmidt_distance(a, c)
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
    assert djs1_lower_bound(rho, rho, restarts=2) == 0.0


def test_djs1_commuting_reaches_qjsd():
    rng = np.random.default_rng(77)
    for _ in range(10):
        rho, sigma, *_ = commuting_pair(rng, 3)
        assert djs1_lower_bound(rho, sigma, restarts=2) == pytest.approx(qjsd(rho, sigma), abs=1e-10)


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
        yield density_from_pure(rand_pure(rng, n)), density_from_pure(rand_pure(rng, n))
        for _ in range(3):
            yield rand_density(rng, n), rand_density(rng, n)


def test_measured_jsd_stack_matches_each_basis_alone():
    for i, (a, b) in enumerate(_djs1_pairs(41)):
        bases = _djs1_bases(a, b, restarts=8, seed=i)
        stacked = _measured_jsd(a, b, check_povm(projective_povm(np.array(bases))))
        alone = [measured_jsd(a, b, projective_povm(u)) for u in bases]
        assert stacked.tolist() == alone


def test_djs1_is_the_best_basis_of_an_independent_loop():
    # classical_jsd of the diagonals of U†rho U and U†sigma U, and
    # measured_jsd of the basis's projectors, each round differently from
    # djs1_lower_bound's contraction; all sit within a few ulps of 1 of the
    # exact value
    tol = 8 * np.finfo(np.float64).eps
    for i, (a, b) in enumerate(_djs1_pairs(42)):
        bases = _djs1_bases(a, b, restarts=6, seed=i)
        got = djs1_lower_bound(a, b, restarts=6, seed=i)
        best = max(
            classical_jsd(np.diag(u.conj().T @ a @ u).real, np.diag(u.conj().T @ b @ u).real) for u in bases
        )
        assert abs(got - best) <= tol
        assert abs(got - max(measured_jsd(a, b, projective_povm(u)) for u in bases)) <= tol


def test_djs1_eigensolves_only_the_four_derived_operators(monkeypatch):
    # the bases are checked as unitaries, so no projector is eigensolved
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
        djs1_lower_bound(a, b, restarts=3)
        assert calls == [("eigh", (4,) + a.shape)]


def test_djs1_accepts_states_qjsd_accepts():
    # each input is within the 1e-12 Hermitian tolerance, but a - b is not
    a = np.array([[0.6, 0.1 + 0.9e-12j], [0.1, 0.4]])
    b = np.array([[0.5, 0.2 - 0.9e-12j], [0.2, 0.5]])
    full = qjsd(a, b)
    assert full == pytest.approx(0.01522, abs=1e-5)
    assert 0.0 < djs1_lower_bound(a, b, restarts=2) <= full


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


def test_djs1_gap_for_noncommuting_pair():
    # |0><0| vs |+><+|: the measured divergence cannot reach the quantum one
    full = qjsd(KET0, PLUS)
    assert full == pytest.approx(PHI_INV_SQRT2, abs=1e-12)
    scan_max = _bloch_circle_scan_max(KET0, PLUS)
    # sup at theta = 3 pi / 4, where p + q = 1: 1 - h2((2 - sqrt 2) / 4)
    assert scan_max == pytest.approx(DJS1_KET0_PLUS, abs=1e-6)
    bound = djs1_lower_bound(KET0, PLUS, restarts=16, seed=5)
    assert bound <= scan_max + 1e-9
    assert bound > scan_max - 1e-3  # the candidate-basis search is tight here
    assert full - bound > 1e-6
    assert full - scan_max > 1e-6


# ---------------------------------------------------------------------------
# Fidelity and the purification metric
# ---------------------------------------------------------------------------

def test_fidelity_equal_states(rng):
    rho = rand_density(rng, 3)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure():
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-8)


def test_fidelity_pure_pairs_overlap(rng):
    for _ in range(50):
        psi, phi = rand_pure(rng, 3), rand_pure(rng, 3)
        got = fidelity(density_from_pure(psi), density_from_pure(phi))
        assert got == pytest.approx(abs(np.vdot(psi, phi)), abs=1e-10)


def test_d_h_closed_form_values():
    rho = rand_density(np.random.default_rng(8), 2)
    assert d_h_closed_form(rho, rho) == pytest.approx(0.0, abs=1e-6)
    assert d_h_closed_form(KET0, KET1) == pytest.approx(1.0, abs=1e-8)
    assert d_h_closed_form(MIXED, KET0) == pytest.approx(DH_MIXED_VS_KET, abs=1e-12)


def test_d_h_equals_sqrt_qjsd_for_pure_pairs(rng):
    for _ in range(50):
        psi, phi = rand_pure(rng, 2), rand_pure(rng, 2)
        a, b = density_from_pure(psi), density_from_pure(phi)
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
