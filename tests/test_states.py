import json
from functools import partial

import numpy as np
import pytest
from scipy import stats

import qjsd.states as states_mod
from qjsd.anneal import AnnealSchedule, minimize, objective_single, result_to_dict, run_anneal
from qjsd.audit import report_to_dict, run_audit
from qjsd.divergences import d_h_by_optimization, djs1_lower_bound, solve_pair
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
    chunk_len,
    check_unitary,
    derive_seed,
    linear_entropy,
    map_groups,
    purification,
    read_state_file,
    sample_states,
    write_state_file,
)

from conftest import haar_unitary, projector, rand_pure, reduced_first
from reference import check_povm, projective_povm


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


@pytest.mark.parametrize("dim, floor", [(1, None), (0, None), (2, -0.1), (2, 0.5), (3, 1.5), (2.5, None),
                                        (2.0, None), (True, None)])
def test_sample_states_checks_dim_and_floor(dim, floor):
    with pytest.raises(InvalidConfig):
        sample_states(dim, 0, [0], floor)


def _no_draws(*args, **kwargs):
    raise AssertionError("an over-cap size reached the sampler")


def test_sample_states_caps_its_state_entries(monkeypatch):
    # about 81 B per entry of the len(indices) x dim x dim states, held at
    # once: qjsd sample's chunks of chunk_len(1, dim) states are admitted up
    # to dim 3162, where a chunk is one state
    with monkeypatch.context() as m:
        m.setattr(states_mod, "draw_state_params", _no_draws)
        for dim, n in ((3163, 1), (140, 512), (10**4, 1)):
            with pytest.raises(InvalidConfig, match="cap of 10000000 state entries"):
                sample_states(dim, 0, np.arange(n))
    assert chunk_len(1, 3162) == chunk_len(1, 3163) == 1
    assert 3162**2 <= states_mod._MAX_SAMPLE_ENTRIES < 3163**2
    monkeypatch.setattr(states_mod, "_MAX_SAMPLE_ENTRIES", 3 * 4)
    assert sample_states(2, 0, [0, 1, 2]).shape == (3, 2, 2)  # the cap itself is admitted
    with pytest.raises(InvalidConfig, match=r"len\(indices\) \* dim\*\*2 = 16 exceeds the cap of 12"):
        sample_states(2, 0, [0, 1, 2, 3])


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
    rho = projector(psi)
    purified = purification(rho, np.eye(3))
    reduced = reduced_first(purified, 3)
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
        assert np.max(np.abs(reduced_first(purification(rho, v), dim) - rho)) < 1e-9


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
def test_check_povm_rejects_a_bad_povm(corrupt, error):
    elements = np.array(projective_povm(_counter_unitaries(3, 1, seed=9)[0]))
    assert np.array_equal(check_povm(elements), elements)
    corrupt(elements)
    with pytest.raises(error):
        check_povm(list(elements))


def test_check_povm_mixed_dimensions():
    elements = projective_povm(_counter_unitaries(3, 1, seed=10)[0])
    assert isinstance(elements, list) and len(elements) == 3
    with pytest.raises(DimMismatch):
        check_povm(elements[:2] + [np.eye(2)])


# ---------------------------------------------------------------------------
# Worker groups
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n_tasks, workers, cpus",
    [(10, 3, 8), (10, 8, 3), (2, 5, 8), (7, 7, 64), (1000, 4, 4), (5, 1, 8), (1, 4, 4), (9, 4, 1),
     (10, np.int64(3), 8)],
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


@pytest.mark.parametrize("workers", [0, -1, 1.5, True])
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
    top = 2**64 - 1
    known = {
        (0, 0): 5197578548964807871,
        (1, 2): 17474652204475260503,
        (2, 1): 583880340377267059,
        (5, 999): 15311471686981149260,
        (top, top): 5066756352113716771,
        (top, 0): 17492683508065611904,
        (0, top): 4922461756044938104,
        (-1, 3): 12829775716370249571,  # a negative seed is masked to 64 bits
        (2**63, 7): 8456223730658713157,
    }
    assert {pair: derive_seed(*pair) for pair in known} == known
    vec = derive_seed(7, np.array([0, 1, 2, top], dtype=np.uint64))
    assert vec.tolist() == [236966933211079599, 12966676493058619558, 3270201391739464176, 18102033877536474386]
    stream = CounterStream([derive_seed(5, 7), 0, top])
    assert stream.standard_exponential(np.arange(3, dtype=np.uint64)).tolist() == [
        [1.058487550558795, 0.5681117751066543, 2.405573196996302],
        [1.2666950284719023, 0.14750728909146993, 0.10689886474542896],
        [0.05310517368960958, 0.7818641250326247, 2.7229321504687167],
    ]
    assert stream.standard_exponential(np.array([4, 5], dtype=np.uint64), np.array([2, 0])).tolist() == [
        [3.93910444741804, 0.046855471472090945],
        [1.7584367873985085, 2.9963663412909702],
    ]
    assert stream.standard_normal(np.array([0, 2], dtype=np.uint64)).tolist() == [
        [-0.9400715763749113 - 0.41803466584816146j, -1.5218710420003991 + 0.29913496705821807j],
        [0.7328511209764701 - 0.8541804627568073j, 0.17325705662383012 - 0.277273974753268j],
        [-0.2222979742987178 + 0.06073536294693715j, -0.5540470873835867 - 1.5543371498585759j],
    ]


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


def _tiny(real):
    """A short schedule with its real-valued fields given as `real`."""
    return AnnealSchedule(steps_per_temperature=5, t_initial=real(1.0), t_final=real(0.25), cooling_ratio=real(0.5))


def _audit(seed, real):
    reals = {"tolerance": 2.0**-30, "mixedness_floor": 0.25, "bin_width": 0.125, "tail_max": 0.25}
    return json.dumps(report_to_dict(run_audit(2, 10, seed, **{k: real(v) for k, v in reals.items()})))


def _minimize(seed, real):
    f, x, traces = minimize(partial(objective_single, dim=2), 2, 3, _tiny(real), seed, 2)
    return repr((f, traces)).encode() + x.tobytes()


_PAIR = (np.diag([0.7, 0.3]).astype(complex), np.full((2, 2), 0.5, dtype=complex))
# each entry point that takes a seed, as a function of the seed and of the type
# its real-valued options are given as, giving JSON text or bytes; the values
# are exact in float32
_SEEDED = {
    "run_audit": _audit,
    "run_anneal": lambda seed, real: json.dumps(result_to_dict(run_anneal("single", 2, _tiny(real), seed))),
    "sample_states": lambda seed, real: sample_states(2, seed, [0, 1], real(0.25)).tobytes(),
    "djs1_lower_bound": lambda seed, real: repr(djs1_lower_bound(solve_pair(*_PAIR), restarts=2, seed=seed)),
    "minimize": _minimize,
    "d_h_by_optimization": lambda seed, real: repr(
        d_h_by_optimization(*_PAIR, restarts=1, seed=seed, schedule=_tiny(real))
    ),
}


@pytest.mark.parametrize("entry", sorted(_SEEDED))
def test_seed_contract(entry):
    run = _SEEDED[entry]
    # numpy integers are seeds and act as the int; a negative seed is masked to
    # 64 bits; numpy reals act as the float, so outputs stay JSON-native
    for numpy_seed, seed in [(np.int64(3), 3), (np.int64(-1), -1), (np.uint64(2**64 - 1), 2**64 - 1)]:
        assert run(numpy_seed, np.float32) == run(seed, float)
    for bad in (2.5, True, "1"):
        with pytest.raises(InvalidConfig, match="seed"):
            run(bad, float)
    if entry != "djs1_lower_bound":  # it takes no real-valued option
        for bad in (True, "0.25"):  # a bool or a string is not a real
            with pytest.raises(InvalidConfig):
                run(0, lambda _: bad)


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
        '{"dim": "2", "matrix": ' + half + "}",  # int() reads these three
        '{"dim": 2.5, "matrix": ' + half + "}",
        '{"dim": true, "matrix": [[[1, 0]]]}',
        '{"dim": 2, "matrix": [[[0.5, false], [0, 0]], [[0, 0], [0.5, false]]]}',  # numpy reads 1/2
        '{"dim": 1, "matrix": [[[true, false]]]}',  # and [[1]]
        '{"matrix": ' + half + "}",
        "[" + half + "]",
    ]:
        bad.write_text(text)
        with pytest.raises(ParseError):
            read_state_file(bad)
    bad.write_text('{"dim": 2, "matrix": ' + half + "}")
    assert np.array_equal(read_state_file(bad), np.eye(2) / 2.0)