import json

import numpy as np
import pytest
from scipy import stats

import qjsd.states as states_mod
from qjsd.errors import (
    DimMismatch,
    InvalidConfig,
    NotHermitian,
    NotPositive,
    NotUnitary,
    ParseError,
    RejectionBudgetExceeded,
)
from qjsd.states import (
    CounterStream,
    check_povm,
    check_unitary,
    density_from_pure,
    derive_seed,
    linear_entropy,
    map_groups,
    partial_trace_second,
    projective_povm,
    purification,
    read_state_file,
    sample_states,
    write_state_file,
)

from conftest import haar_unitary, rand_pure


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


def _counter_draw(dim, n, floor=None, seed=99):
    keys = derive_seed(seed, np.arange(n, dtype=np.uint64))
    return states_mod.draw_state_params(CounterStream(keys), dim, floor)


def _counter_unitaries(dim, n, seed):
    """n Haar unitaries from the counter stream: a Ginibre stack, then QR."""
    return states_mod.unitaries_from_ginibre(_counter_draw(dim, n, seed=seed)[0])


def _within(samples, mean, n_se=5.0):
    """The sample mean lies within n_se standard errors of `mean`."""
    se = samples.std(axis=0) / np.sqrt(samples.shape[0])
    assert np.all(np.abs(samples.mean(axis=0) - mean) <= n_se * se + 1e-15)


# ---------------------------------------------------------------------------
# Haar unitaries
# ---------------------------------------------------------------------------

def test_haar_unitary_is_unitary():
    for u in _counter_unitaries(4, 20, seed=0):
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_haar_determinism_seed_42():
    a = _counter_unitaries(3, 1, seed=42)
    b = _counter_unitaries(3, 1, seed=42)
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
    qr_mean = np.mean(np.abs(_counter_unitaries(dim, n_samples, seed=7)[:, 0, 0]) ** 2)
    rng2 = np.random.default_rng(8)
    gs_mean = np.mean([abs(_gram_schmidt_unitary(rng2, dim)[0, 0]) ** 2 for _ in range(n_samples)])
    assert qr_mean == pytest.approx(0.5, abs=0.02)
    assert gs_mean == pytest.approx(0.5, abs=0.02)


def test_haar_left_invariance_statistic():
    # |(WU)_00|^2 must be distributed like |U_00|^2 for fixed W
    dim, n = 2, 8000
    w = _counter_unitaries(dim, 1, seed=99)[0]
    plain = np.abs(_counter_unitaries(dim, n, seed=1)[:, 0, 0]) ** 2
    rotated = np.abs((w @ _counter_unitaries(dim, n, seed=2))[:, 0, 0]) ** 2
    assert stats.ks_2samp(plain, rotated).statistic < 0.03


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------

def test_simplex_degenerate():
    assert np.array_equal(_counter_draw(1, 5)[1], np.ones((5, 1)))


@pytest.mark.parametrize("dim,tol", [(2, 0.01), (3, 0.01)])
def test_simplex_uniform_means(dim, tol):
    pts = _counter_draw(dim, 100_000, seed=5)[1]
    assert np.all(pts >= 0.0)
    assert np.max(np.abs(pts.sum(axis=1) - 1.0)) < 1e-12
    assert np.allclose(pts.mean(axis=0), 1.0 / dim, atol=tol)


# ---------------------------------------------------------------------------
# sample_states
# ---------------------------------------------------------------------------

def test_sample_state_is_valid_density():
    rho = sample_states(2, 3, [0])[0]
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_sample_state_eigenvalues_match_simplex_draw():
    # rho = U diag(lam) U†: the sampled simplex point is the spectrum
    z, lam = states_mod.draw_state_params(CounterStream([17]), 4)
    rho = states_mod.states_from_params(z, lam)[0]
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), np.sort(lam[0]), atol=1e-10)


def test_sample_states_state_i_has_key_derive_seed_i():
    z, lam = states_mod.draw_state_params(CounterStream([derive_seed(5, 7)]), 3)
    assert np.array_equal(sample_states(3, 5, [7]), states_mod.states_from_params(z, lam))


@pytest.mark.parametrize("dim, floor", [(2, None), (2, 0.4), (3, None), (3, 0.5), (16, None), (16, 0.85)])
def test_sample_states_subset_matches_full_range(dim, floor):
    n = 40
    full = sample_states(dim, 3, np.arange(n), floor)
    subset = [n - 1, 7, 0, 22]
    assert np.array_equal(sample_states(dim, 3, subset, floor), full[subset])
    for i in (0, 13, n - 1):
        assert np.array_equal(sample_states(dim, 3, [i], floor)[0], full[i])


@pytest.mark.parametrize("dim, floor", [(1, None), (0, None), (2, -0.1), (2, 0.5), (3, 1.5)])
def test_sample_states_checks_dim_and_floor(dim, floor):
    with pytest.raises(InvalidConfig):
        sample_states(dim, 0, [0], floor)


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
    rhos = sample_states(2, 12, np.arange(100_000))
    purities = np.einsum("kij,kij->k", rhos, rhos.conj()).real
    assert np.mean(purities) == pytest.approx(oracle, abs=0.01)


def test_zero_floor_matches_unfiltered_stream():
    assert np.array_equal(sample_states(3, 6, np.arange(20)), sample_states(3, 6, np.arange(20), 0.0))


def test_mixedness_floor_filters():
    for rho in sample_states(2, 9, np.arange(200), 0.4):
        assert linear_entropy(rho) >= 0.4


def test_rejection_budget(monkeypatch):
    # qubit linear entropy tops out at 1/2, so this floor is refused before
    # any draw instead of spending the rejection budget
    monkeypatch.setattr(states_mod, "draw_state_params", None)
    with pytest.raises(InvalidConfig):
        sample_states(2, 1, [0], mixedness_floor=0.9999)


def test_sampler_unitary_invariance_of_moments():
    # purity/third-moment statistics unchanged by a fixed rotation of the stream
    dim, n = 3, 10_000
    w = _counter_unitaries(dim, 1, seed=123)[0]
    r = sample_states(dim, 21, np.arange(n))
    q = w @ sample_states(dim, 22, np.arange(n)) @ w.conj().T

    def moments(s):
        return np.einsum("kij,kij->k", s, s.conj()).real, np.trace(s @ s @ s, axis1=-2, axis2=-1).real

    (m2a, m3a), (m2b, m3b) = moments(r), moments(q)
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
        rho = sample_states(dim, int(rng.integers(2**32)), [0])[0]
        v = haar_unitary(rng, dim)
        assert np.max(np.abs(partial_trace_second(purification(rho, v), dim) - rho)) < 1e-9


def test_purification_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        purification(np.eye(2) / 2.0, np.diag([1.0, 2.0]))


def test_purification_rejects_non_finite_unitary():
    # a NaN matrix used to pass check_unitary and purify to an all-NaN vector
    with pytest.raises(ValueError, match="non-finite"):
        purification(np.eye(2) / 2.0, np.full((2, 2), np.nan))


# ---------------------------------------------------------------------------
# Stacks of unitaries and POVMs
# ---------------------------------------------------------------------------

def _raised_alone_and_stacked(check, stack, bad, error):
    """The message `check` raises for stack[bad] alone, after checking that
    the whole stack raises the same error with the same message."""
    with pytest.raises(error) as alone:
        check(stack[bad])
    with pytest.raises(error) as stacked:
        check(stack)
    assert str(stacked.value) == str(alone.value)
    return str(alone.value)


def test_check_unitary_stack_fails_with_its_bad_member():
    stack = _counter_unitaries(3, 5, seed=8)
    assert np.array_equal(check_unitary(stack), stack)
    stack[2] *= 1.01
    assert "unitarity" in _raised_alone_and_stacked(check_unitary, stack, 2, NotUnitary)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_unitary_stack_fails_with_its_non_finite_member(bad):
    stack = _counter_unitaries(3, 5, seed=8)
    stack[1, 0, 2] = bad
    assert "non-finite" in _raised_alone_and_stacked(check_unitary, stack, 1, ValueError)


def _skew(e):
    e[0, 0, 1] += 1e-9


def _negative(e):
    # E0 - d P1 has the eigenvalue -d, and E1 + d P1 keeps the sum at 1
    shift = 1e-9 * e[1]
    e[0] -= shift
    e[1] += shift


def _unnormalized(e):
    e *= 1.001


@pytest.mark.parametrize("corrupt, error", [(_skew, NotHermitian), (_negative, NotPositive), (_unnormalized, ValueError)])
def test_check_povm_stack_fails_with_its_bad_member(corrupt, error):
    povms = projective_povm(_counter_unitaries(3, 5, seed=9))
    assert povms.shape == (5, 3, 3, 3)
    assert np.array_equal(check_povm(povms), povms)
    corrupt(povms[2])
    _raised_alone_and_stacked(check_povm, povms, 2, error)
    with pytest.raises(error):
        check_povm(list(povms[2]))


def test_check_povm_mixed_dimensions():
    elements = projective_povm(_counter_unitaries(3, 1, seed=10)[0])
    assert isinstance(elements, list) and len(elements) == 3
    with pytest.raises(DimMismatch):
        check_povm(elements[:2] + [np.eye(2)])
    povms = list(projective_povm(_counter_unitaries(3, 4, seed=10)))
    povms[2] = projective_povm(_counter_unitaries(2, 1, seed=10))[0]
    with pytest.raises(DimMismatch):
        check_povm(povms)


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
# Worker groups
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n_tasks, workers, cpus",
    [(10, 3, 8), (10, 8, 3), (2, 5, 8), (7, 7, 64), (1000, 4, 4), (5, 1, 8), (1, 4, 4), (9, 4, 1)],
)
def test_map_groups_splits_contiguously(monkeypatch, pool_sizes, n_tasks, workers, cpus):
    monkeypatch.setattr(states_mod, "available_cpus", lambda: cpus)
    groups = map_groups(lambda g: g, n_tasks, workers)
    k = min(workers, n_tasks, cpus)
    assert len(groups) == k
    assert all(isinstance(g, range) and g.step == 1 for g in groups)
    assert [i for g in groups for i in g] == list(range(n_tasks))
    assert max(map(len, groups)) - min(map(len, groups)) <= 1
    # one group runs in this process, more in one pool of one process per group
    assert pool_sizes == ([k] if k > 1 else [])


@pytest.mark.parametrize("workers", [0, -1])
def test_map_groups_rejects_fewer_than_one_worker(pool_sizes, workers):
    with pytest.raises(InvalidConfig, match="workers"):
        map_groups(list, 4, workers)
    assert pool_sizes == []


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
    rho = sample_states(3, 77, [0])[0]
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
    half = "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"
    for text in [
        '{"dim": 2, "matrix": [[[1, 0]]]}',
        '{"dim": 2, "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.3, 0]]]}',  # trace 1.2
        "not json",
        '{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0]]]}',  # ragged row
        '{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5]]]}',  # ragged entry
        '{"dim": 2, "matrix": [[[0.5, 0, 0], [0, 0, 0]], [[0, 0, 0], [0.5, 0, 0]]]}',  # three numbers
        '{"dim": 2, "matrix": [[0.5, 0], [0, 0.5]]}',  # bare reals
        '{"dim": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]}',  # a string numpy would parse
        '{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, null]]]}',
        '{"dim": 2, "matrix": "[[[0.5, 0]]]"}',
        '{"dim": 3, "matrix": ' + half + "}",  # dim mismatch
        '{"dim": "two", "matrix": ' + half + "}",
        '{"dim": 1e999, "matrix": ' + half + "}",
        '{"matrix": ' + half + "}",
        "[" + half + "]",
    ]:
        bad.write_text(text)
        with pytest.raises(ParseError):
            read_state_file(bad)
    bad.write_text('{"dim": 2, "matrix": ' + half + "}")
    assert np.array_equal(read_state_file(bad), np.eye(2) / 2.0)