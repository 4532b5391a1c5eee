import json

import numpy as np
import pytest
from scipy import stats

import qjsd.states as states_mod
from qjsd.errors import DimMismatch, NotUnitary, ParseError, RejectionBudgetExceeded
from qjsd.states import (
    CounterStream,
    StateSampler,
    density_from_pure,
    derive_seed,
    haar_unitary,
    linear_entropy,
    partial_trace_second,
    purification,
    read_state_file,
    sample_state,
    simplex_point,
    write_state_file,
)

from conftest import rand_pure


# ---------------------------------------------------------------------------
# density_from_pure
# ---------------------------------------------------------------------------

def test_density_from_basis_ket():
    rho = density_from_pure([1.0, 0.0])
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_density_from_superposition():
    rho = density_from_pure(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-14)


def test_density_from_pure_is_idempotent(rng):
    for n in (2, 3, 5):
        psi = rand_pure(rng, n)
        rho = density_from_pure(psi)
        assert np.max(np.abs(rho @ rho - rho)) < 1e-10
        assert np.vdot(rho, rho).real == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Haar unitaries
# ---------------------------------------------------------------------------

def test_haar_unitary_is_unitary():
    for seed in range(20):
        u = haar_unitary(np.random.default_rng(seed), 4)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_haar_determinism_seed_42():
    a = StateSampler(3, seed=42).haar_unitary()
    b = StateSampler(3, seed=42).haar_unitary()
    assert np.array_equal(a, b)


def _gram_schmidt_unitary(rng, n):
    """Independent Haar sampler: orthonormalize Gaussian columns in order."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.empty_like(z)
    for k in range(n):
        v = z[:, k].copy()
        for j in range(k):
            v -= q[:, j] * np.vdot(q[:, j], z[:, k])
        q[:, k] = v / np.linalg.norm(v)
    return q


def test_haar_moment_against_gram_schmidt_oracle():
    # E|U_00|^2 = 1/N for Haar; check both samplers against it
    n_samples, dim = 10_000, 2
    rng = np.random.default_rng(7)
    qr_mean = np.mean([abs(haar_unitary(rng, dim)[0, 0]) ** 2 for _ in range(n_samples)])
    rng2 = np.random.default_rng(8)
    gs_mean = np.mean([abs(_gram_schmidt_unitary(rng2, dim)[0, 0]) ** 2 for _ in range(n_samples)])
    assert qr_mean == pytest.approx(0.5, abs=0.02)
    assert gs_mean == pytest.approx(0.5, abs=0.02)


def test_haar_left_invariance_statistic():
    # |(WU)_00|^2 must be distributed like |U_00|^2 for fixed W
    dim, n = 2, 8000
    w = haar_unitary(np.random.default_rng(99), dim)
    r1 = np.random.default_rng(1)
    r2 = np.random.default_rng(2)
    plain = np.array([abs(haar_unitary(r1, dim)[0, 0]) ** 2 for _ in range(n)])
    rotated = np.array([abs((w @ haar_unitary(r2, dim))[0, 0]) ** 2 for _ in range(n)])
    assert stats.ks_2samp(plain, rotated).statistic < 0.03


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------

def test_simplex_degenerate():
    assert np.array_equal(simplex_point(np.random.default_rng(0), 1), [1.0])


@pytest.mark.parametrize("dim,tol", [(2, 0.01), (3, 0.01)])
def test_simplex_uniform_means(dim, tol):
    rng = np.random.default_rng(5)
    pts = np.array([simplex_point(rng, dim) for _ in range(100_000)])
    assert np.all(pts >= 0.0)
    assert np.max(np.abs(pts.sum(axis=1) - 1.0)) < 1e-12
    assert np.allclose(pts.mean(axis=0), 1.0 / dim, atol=tol)


# ---------------------------------------------------------------------------
# sample_state
# ---------------------------------------------------------------------------

def test_sample_state_is_valid_density():
    rho = StateSampler(2, seed=3).state()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_sample_state_eigenvalues_match_simplex_draw():
    # rho = U diag(lam) U†: the sampled simplex point is the spectrum
    z, lam = states_mod.draw_state_params(CounterStream([17]), 4)
    rho = states_mod.states_from_params(z, lam)[0]
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), np.sort(lam[0]), atol=1e-10)


def _counter_draw(dim, n, floor=None, seed=99):
    keys = derive_seed(seed, np.arange(n, dtype=np.uint64))
    return states_mod.draw_state_params(CounterStream(keys), dim, floor)


def _within(samples, mean, n_se=5.0):
    """The sample mean lies within n_se standard errors of `mean`."""
    se = samples.std(axis=0) / np.sqrt(samples.shape[0])
    assert np.all(np.abs(samples.mean(axis=0) - mean) <= n_se * se + 1e-15)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_counter_sampler_law(dim):
    n = 20_000
    z, lam = _counter_draw(dim, n)
    # Ginibre entries are circular complex normals with E|z|^2 = 1, E|z|^4 = 2
    entries = z.reshape(-1)
    _within(np.abs(entries) ** 2, 1.0)
    _within(np.abs(entries) ** 4, 2.0)
    for circular in (entries, entries * entries):  # E z = E z^2 = 0
        _within(circular.real, 0.0)
        _within(circular.imag, 0.0)
    # uniform simplex: E sum lam^2 = 2/(d+1)
    _within((lam * lam).sum(axis=-1), 2.0 / (dim + 1))
    # Haar unitary: E|U_00|^4 = 2/(d(d+1)), and E rho = 1/d
    u = states_mod.unitaries_from_ginibre(z)
    _within(np.abs(u[:, 0, 0]) ** 4, 2.0 / (dim * (dim + 1)))
    rhos = states_mod.states_from_params(z, lam).reshape(n, -1)
    _within(rhos.real, np.eye(dim).reshape(-1) / dim)
    _within(rhos.imag, 0.0)


@pytest.mark.parametrize("dim, floor", [(2, 0.4), (3, 0.5), (16, 0.85)])
def test_counter_sampler_meets_floor(dim, floor):
    n = 2000 if dim < 16 else 200
    z, lam = _counter_draw(dim, n, floor)
    z0, lam0 = _counter_draw(dim, n)
    assert np.all(1.0 - (lam * lam).sum(axis=-1) >= floor)
    rhos = states_mod.states_from_params(z, lam)
    assert np.all(1.0 - np.einsum("kij,kij->k", rhos, rhos.conj()).real >= floor - 1e-12)
    # the floor redraws only rejected spectra; normals never depend on it
    kept = 1.0 - (lam0 * lam0).sum(axis=-1) >= floor
    assert 0 < np.count_nonzero(~kept)
    assert np.array_equal(z, z0)
    assert np.array_equal(lam[kept], lam0[kept])


def test_counter_sampler_rejection_budget(monkeypatch):
    monkeypatch.setattr(states_mod, "REJECTION_BUDGET", 50)
    with pytest.raises(RejectionBudgetExceeded):
        _counter_draw(2, 4, floor=0.6)  # qubit linear entropy tops out at 1/2


def test_mean_purity_qubit():
    # brute-force quadrature oracle: E[l^2 + (1-l)^2] over uniform l = 2/3
    grid = np.linspace(0.0, 1.0, 100_001)
    oracle = np.trapezoid(grid**2 + (1 - grid) ** 2, grid)
    assert oracle == pytest.approx(2.0 / 3.0, abs=1e-8)
    smp = StateSampler(2, seed=12)
    purities = [1.0 - linear_entropy(smp.state()) for _ in range(100_000)]
    assert np.mean(purities) == pytest.approx(oracle, abs=0.01)


def test_zero_floor_matches_unfiltered_stream():
    plain = StateSampler(3, seed=6)
    floored = StateSampler(3, seed=6, mixedness_floor=0.0)
    for _ in range(20):
        assert np.array_equal(plain.state(), floored.state())


def test_mixedness_floor_filters():
    smp = StateSampler(2, seed=9, mixedness_floor=0.4)
    for _ in range(200):
        assert linear_entropy(smp.state()) >= 0.4


def test_rejection_budget(monkeypatch):
    monkeypatch.setattr(states_mod, "REJECTION_BUDGET", 500)
    smp = StateSampler(2, seed=1, mixedness_floor=0.9999)  # qubit linear entropy tops out at 1/2
    with pytest.raises(RejectionBudgetExceeded):
        smp.state()


def test_sampler_unitary_invariance_of_moments():
    # purity/third-moment statistics unchanged by a fixed rotation of the stream
    dim, n = 3, 10_000
    w = haar_unitary(np.random.default_rng(123), dim)
    s1, s2 = StateSampler(dim, seed=21), StateSampler(dim, seed=22)
    m2a, m3a, m2b, m3b = [], [], [], []
    for _ in range(n):
        r = s1.state()
        q = w @ s2.state() @ w.conj().T
        m2a.append(np.vdot(r, r).real)
        m3a.append(np.trace(r @ r @ r).real)
        m2b.append(np.vdot(q, q).real)
        m3b.append(np.trace(q @ q @ q).real)
    assert stats.ks_2samp(m2a, m2b).statistic < 0.03
    assert stats.ks_2samp(m3a, m3b).statistic < 0.03


# ---------------------------------------------------------------------------
# Purification and partial trace
# ---------------------------------------------------------------------------

def test_purify_pure_state_is_product(rng):
    psi = rand_pure(rng, 3)
    rho = density_from_pure(psi)
    purified = purification(rho, np.eye(3))
    reduced = partial_trace_second(purified, 3)
    assert np.max(np.abs(reduced - rho)) < 1e-9
    # rank-1 reduced state means the purification is a product state
    assert np.vdot(reduced, reduced).real == pytest.approx(1.0, abs=1e-9)


def test_purify_maximally_mixed_gives_uniform_schmidt():
    purified = purification(np.eye(2) / 2.0, np.eye(2))
    coeffs = np.linalg.svd(purified.reshape(2, 2), compute_uv=False)
    assert np.allclose(coeffs, [1.0 / np.sqrt(2.0)] * 2, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_purification_roundtrip(dim):
    for seed in range(100):
        rng = np.random.default_rng(40_000 + 100 * dim + seed)
        smp = StateSampler(dim, seed=int(rng.integers(2**32)))
        rho = smp.state()
        v = haar_unitary(rng, dim)
        assert np.max(np.abs(partial_trace_second(purification(rho, v), dim) - rho)) < 1e-9


def test_purification_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        purification(np.eye(2) / 2.0, np.diag([1.0, 2.0]))


def test_partial_trace_product_state(rng):
    a, b = rand_pure(rng, 2), rand_pure(rng, 3)
    reduced = partial_trace_second(np.kron(a, b), 2)
    assert np.max(np.abs(reduced - density_from_pure(a))) < 1e-12


def test_partial_trace_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(partial_trace_second(bell, 2), np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_dim_mismatch(rng):
    with pytest.raises(DimMismatch):
        partial_trace_second(rand_pure(rng, 6), 4)


# ---------------------------------------------------------------------------
# Seed derivation and state files
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable():
    # regression-pinned values: parallel shards depend on this hash
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    vals = {derive_seed(5, k) for k in range(1000)}
    assert len(vals) == 1000
    assert all(0 <= v < 2**64 for v in vals)


def test_derive_seed_vectorized_matches_scalar():
    idx = np.arange(1000, dtype=np.uint64)
    for seed in (0, 5, -1, 2**63, 2**64 - 1, 2**64 - 1000):
        vec = derive_seed(seed, idx)
        assert vec.dtype == np.uint64
        assert [int(v) for v in vec] == [derive_seed(seed, k) for k in range(1000)]
    # array seeds and indices near 2**64, broadcast as the audit keys its states
    big = [2**64 - 1 - k for k in range(1000)]
    vec = derive_seed(np.array(big, dtype=np.uint64)[:, None], np.array(big[:3], dtype=np.uint64))
    assert vec.shape == (1000, 3)
    assert [[int(v) for v in row] for row in vec] == [[derive_seed(s, k) for k in big[:3]] for s in big]


def test_state_file_roundtrip(tmp_path, rng):
    smp = StateSampler(3, seed=77)
    rho = smp.state()
    path = tmp_path / "state.json"
    write_state_file(rho, path)
    again = read_state_file(path)
    assert np.array_equal(rho.real, again.real) and np.array_equal(rho.imag, again.imag)


def test_state_file_17_digits(tmp_path):
    path = tmp_path / "half.json"
    write_state_file(np.eye(2) / 2.0, path)
    obj = json.loads(path.read_text())
    assert obj["dim"] == 2
    assert obj["matrix"][0][0] == [0.5, 0.0]
    # a full-precision irrational entry survives the decimal round trip
    rho = np.array([[2.0 / 3.0, 0.1 + 0.2j], [0.1 - 0.2j, 1.0 / 3.0]])
    write_state_file(rho, path)
    assert np.array_equal(read_state_file(path), rho)


def test_read_state_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "matrix": [[[1, 0]]]}')
    with pytest.raises(ParseError):
        read_state_file(bad)
    bad.write_text('{"dim": 2, "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.3, 0]]]}')
    with pytest.raises(ParseError):  # trace 1.2
        read_state_file(bad)
    bad.write_text("not json")
    with pytest.raises(ParseError):
        read_state_file(bad)


def test_sample_state_function_matches_sampler():
    direct = sample_state(np.random.default_rng(55), 3)
    via_class = StateSampler(3, seed=55).state()
    assert np.array_equal(direct, via_class)
