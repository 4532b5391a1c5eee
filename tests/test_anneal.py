import json
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

import qjsd.anneal as anneal_mod
from qjsd.anneal import (
    AnnealResult,
    AnnealSchedule,
    _chains,
    _decode_triplet,
    _normalize_blocks,
    minimize,
    objective_single,
    objective_symmetrized,
    result_to_dict,
    run_anneal,
)
from qjsd.audit import triangle_defect
from qjsd.divergences import d_h_by_optimization, qjsd_sides
from qjsd.errors import DegenerateBlock, InvalidConfig
from qjsd.linalg import sqrt_from_eigh
from qjsd.states import state_to_dict

from conftest import rand_density

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2.0
QUBIT_DEFECT = 0.11584609056828776

_FAST = AnnealSchedule(steps_per_temperature=200, t_initial=0.5, t_final=1e-2, cooling_ratio=0.7)


def _block_from_matrix(a):
    a = np.asarray(a, dtype=complex)
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def _params_from_states(*states):
    # A = sqrt(rho) decodes back to rho since A A† = rho with unit trace
    return np.concatenate([_block_from_matrix(sqrt_from_eigh(*np.linalg.eigh(s))) for s in states])


def test_decode_identity_block():
    assert np.allclose(_decode_triplet(_block_from_matrix(np.eye(3)), 3)[0], np.eye(3) / 3.0, atol=1e-14)


def test_decode_rank_one_block():
    a = np.zeros((2, 2), dtype=complex)
    a[0, 0] = 1.0
    assert np.allclose(_decode_triplet(_block_from_matrix(a), 2)[0], KET0, atol=1e-14)


def test_decode_scale_invariance(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = _decode_triplet(_block_from_matrix(a), 3)[0]
    for c in (2.0, -1.0, 1j):
        scaled = _decode_triplet(_block_from_matrix(c * a), 3)[0]
        assert np.max(np.abs(scaled - base)) < 1e-12


def test_decode_degenerate_block():
    with pytest.raises(DegenerateBlock):
        _decode_triplet(np.zeros(8), 2)


def test_objective_single_zero_when_pivot_matches():
    params = _params_from_states(MIXED, MIXED, KET0)
    assert objective_single(params, 2) == 0.0


def test_objective_single_all_identity_blocks():
    params = np.concatenate([_block_from_matrix(np.eye(2))] * 3)
    assert objective_single(params, 2) == 0.0


def test_objective_single_qubit_oracle():
    params = _params_from_states(KET0, MIXED, KET1)
    assert objective_single(params, 2) == pytest.approx(QUBIT_DEFECT, abs=1e-13)


def test_objective_symmetrized_equal_states():
    params = _params_from_states(MIXED, MIXED, MIXED)
    assert objective_symmetrized(params, 2) == 0.0


def test_objective_symmetrized_matches_pivot_mean():
    params = _params_from_states(KET0, MIXED, KET1)
    expected = (
        triangle_defect(KET0, MIXED, KET1)
        + triangle_defect(MIXED, KET0, KET1)
        + triangle_defect(KET0, KET1, MIXED)
    ) / 3.0
    assert objective_symmetrized(params, 2) == pytest.approx(expected, abs=1e-12)


def test_objective_symmetrized_permutation_invariant(rng):
    states = [_decode_triplet(rng.standard_normal(8), 2)[0] for _ in range(3)]
    base = objective_symmetrized(_params_from_states(*states), 2)
    for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
        permuted = objective_symmetrized(_params_from_states(*(states[i] for i in perm)), 2)
        assert permuted == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_objectives_keep_the_bits_of_the_written_out_defects(rng, dim):
    # each objective against its formula spelled out on the three sides,
    # in the order of the terms it sums
    stack = rng.standard_normal((16, 6 * dim * dim))
    d = np.sqrt(qjsd_sides(_decode_triplet(stack, dim)))
    d01, d12, d02 = d[..., 0], d[..., 1], d[..., 2]
    single = d01 + d12 - d02
    symmetrized = ((d01 + d12 - d02) + (d01 + d02 - d12) + (d02 + d12 - d01)) / 3.0
    assert objective_single(stack, dim).tobytes() == single.tobytes()
    assert objective_symmetrized(stack, dim).tobytes() == symmetrized.tobytes()


def test_schedule_defaults_and_validation():
    sched = AnnealSchedule.defaults_for(24)
    assert sched.steps_per_temperature == 200 * 24
    assert sched.t_initial == 1.0 and sched.t_final == 1e-6
    assert sched.cooling_ratio == 0.95 and sched.proposal_scale_ratio == 1.0
    with pytest.raises(InvalidConfig):
        AnnealSchedule(steps_per_temperature=10, t_initial=1e-7, t_final=1e-6).validate()
    with pytest.raises(InvalidConfig):
        AnnealSchedule(steps_per_temperature=10, cooling_ratio=1.0).validate()
    with pytest.raises(InvalidConfig):
        AnnealSchedule(steps_per_temperature=0).validate()
    for steps in (2.5, 2.0, True, "10", None):  # range() needs an int, and True would run as 1
        with pytest.raises(InvalidConfig):
            AnnealSchedule(steps_per_temperature=steps).validate()
    assert AnnealSchedule(steps_per_temperature=np.int64(10)).validate().steps_per_temperature == 10
    for bad in ({"t_initial": np.inf}, {"proposal_scale_ratio": np.inf}, {"proposal_scale_ratio": np.nan}):
        with pytest.raises(InvalidConfig):
            AnnealSchedule(steps_per_temperature=10, **bad).validate()
    # a bool or a string is not a real; True used to run as 1.0 and to be written as true
    for bad in ({"t_initial": True}, {"t_final": "1e-6"}, {"cooling_ratio": "0.5"}, {"proposal_scale_ratio": True}):
        with pytest.raises(InvalidConfig):
            AnnealSchedule(steps_per_temperature=10, **bad).validate()
    with pytest.raises(InvalidConfig):
        run_anneal("single", 2, AnnealSchedule(5, t_initial=True, t_final=0.5, cooling_ratio=0.5), 1)
    # the checked schedule holds Python numbers, and run_anneal records it
    given = AnnealSchedule(np.int64(5), t_initial=np.float32(1.0), t_final=np.float32(0.25),
                           cooling_ratio=np.float32(0.5), proposal_scale_ratio=np.float32(2.0))
    want = AnnealSchedule(5, t_initial=1.0, t_final=0.25, cooling_ratio=0.5, proposal_scale_ratio=2.0)
    for checked in (given.validate(), run_anneal("single", 2, given, 1).schedule):
        assert checked == want
        assert [type(v) for v in asdict(checked).values()] == [int, float, float, float, float]


def test_run_anneal_deterministic():
    a = run_anneal("single", 2, schedule=_FAST, seed=4, restarts=2)
    b = run_anneal("single", 2, schedule=_FAST, seed=4, restarts=2)
    assert a.best_objective == b.best_objective
    assert np.array_equal(a.best_params, b.best_params)
    assert a.objective_trace == b.objective_trace


def test_run_anneal_worker_invariance():
    a = run_anneal("symmetrized", 2, schedule=_FAST, seed=6, restarts=2, workers=1)
    b = run_anneal("symmetrized", 2, schedule=_FAST, seed=6, restarts=2, workers=2)
    assert a.best_objective == b.best_objective
    assert np.array_equal(a.best_params, b.best_params)


def _dh_problem(dim):
    """The objective, block dimension and block count that d_h_by_optimization
    hands to minimize, for a fixed pair of states of dimension dim."""
    rng = np.random.default_rng(dim)
    pair = rand_density(rng, dim), rand_density(rng, dim)
    seen = []

    def capture(objective, dim, blocks, *args, **kwargs):
        seen.append((objective, dim, blocks))
        return 0.0, None, None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(anneal_mod, "minimize", capture)
        d_h_by_optimization(*pair, restarts=1, schedule=_FAST)
    return seen[0]


def _problem(objective, dim):
    if objective is d_h_by_optimization:
        return _dh_problem(dim)
    return partial(objective, dim=dim), dim, 3


@pytest.mark.parametrize(
    "objective, dim", [(objective_single, 2), (objective_symmetrized, 3), (d_h_by_optimization, 3)]
)
def test_lockstep_rows_match_lone_chains(objective, dim):
    fn, dim, blocks = _problem(objective, dim)
    chains = partial(_chains, fn, dim, blocks * 2 * dim * dim, _FAST, 5)
    together = chains([0, 1, 2, 3])
    for r, (best_f, best_x, trace) in enumerate(together):
        [(lone_f, lone_x, lone_trace)] = chains([r])
        assert best_f == lone_f
        assert best_x.tobytes() == lone_x.tobytes()
        assert trace == lone_trace
    assert len({f for f, _, _ in together}) == 4  # the rows are distinct chains


def test_run_anneal_result_independent_of_workers():
    dumps = {
        json.dumps(result_to_dict(run_anneal("single", 2, schedule=_FAST, seed=3, restarts=3, workers=w)))
        for w in (1, 2, 3)
    }
    assert len(dumps) == 1


def _coincident_row(rng, dim):
    block = rng.standard_normal(2 * dim * dim)
    return np.concatenate([block, 2.0 * block, rng.standard_normal(2 * dim * dim)])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_batched_kernels_match_row_by_row(rng, dim, k):
    stack = rng.standard_normal((k, 6 * dim * dim))
    stack[-1] = _coincident_row(rng, dim)  # states 0 and 1 decode alike
    for fn in (objective_single, objective_symmetrized):
        batched = fn(stack, dim)
        assert batched.shape == (k,)
        rows = [fn(row, dim) for row in stack]
        assert all(isinstance(v, float) for v in rows)
        assert batched.tolist() == rows
    normalized = _normalize_blocks(stack, dim)
    assert normalized.shape == stack.shape
    for got, row in zip(normalized, stack):
        assert got.tobytes() == _normalize_blocks(row, dim).tobytes()


def _decode_oracle(params, dim):
    # the reference expression: a from x0 + 1j*x1, np.trace, a new quotient
    x = np.asarray(params, dtype=np.float64)
    x = x.reshape(x.shape[:-1] + (-1, 2, dim, dim))
    a = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    g = a @ np.conj(np.swapaxes(a, -2, -1))
    tr = np.trace(g, axis1=-2, axis2=-1).real
    if np.min(tr) <= 1e-30:
        raise DegenerateBlock(f"Tr(A A†) = {float(np.min(tr))!r}")
    return g / tr[..., None, None]


def _normalize_oracle(params, dim):
    # the reference expression: np.linalg.norm along each block of 2*dim^2 reals
    b = params.reshape(params.shape[:-1] + (-1, 2 * dim * dim))
    nrm = np.linalg.norm(b, axis=-1, keepdims=True) / np.sqrt(dim)
    return (b / np.where(nrm > 0.0, nrm, 1.0)).reshape(params.shape)


def _kernel_inputs(rng, dim):
    """Single vectors and stacks of triplet parameters, with structured rows:
    exact zeros, a rank-one block, a coincident pair and tiny and huge scales."""
    n = 2 * dim * dim
    structured = np.zeros((4, 3 * n))
    structured[0, [0, n, 2 * n]] = 1.0  # three rank-one blocks, mostly exact zeros
    structured[1] = _coincident_row(rng, dim)
    structured[2] = rng.standard_normal(3 * n) * 1e-7
    structured[3] = rng.standard_normal(3 * n) * 1e7
    stack = rng.standard_normal((5, 3 * n))
    return [stack[0], structured[0], stack, structured, np.concatenate([stack, structured]).reshape(3, 3, -1)]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_decode_triplet_bit_identical_to_reference(rng, dim):
    for params in _kernel_inputs(rng, dim):
        got = _decode_triplet(params, dim)
        want = _decode_oracle(params, dim)
        assert got.shape == want.shape == params.shape[:-1] + (3, dim, dim)
        assert np.array_equal(got, want)
    block = rng.standard_normal(2 * dim * dim)
    assert np.array_equal(_decode_triplet(block, dim)[0], _decode_oracle(block, dim)[0])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_decode_triplet_raises_on_a_vanishing_trace(rng, dim):
    n = 2 * dim * dim
    for scale in (0.0, 1e-16):  # Tr(A A†) of 0 and of about 1e-31, both below the floor
        stack = rng.standard_normal((3, 3 * n))
        stack[1, n : 2 * n] *= scale
        for params in (stack, stack[1]):
            with pytest.raises(DegenerateBlock):
                _decode_oracle(params, dim)
            with pytest.raises(DegenerateBlock):
                _decode_triplet(params, dim)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_normalize_blocks_bit_identical_to_reference(rng, dim):
    n = 2 * dim * dim
    zero_block = rng.standard_normal((2, 3 * n))
    zero_block[0, :n] = 0.0  # a zero-norm block is left as it is
    triplets = _kernel_inputs(rng, dim) + [zero_block, zero_block[0]]
    for params in triplets + [p[..., :n] for p in triplets]:  # three blocks a row, then one
        got = _normalize_blocks(params, dim)
        assert got.shape == params.shape
        assert np.array_equal(got, _normalize_oracle(params, dim))
    assert np.array_equal(_normalize_blocks(zero_block, dim)[0, :n], np.zeros(n))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_dh_rows_bit_identical_alone_and_stacked(rng, dim):
    # the overlaps are taken row by row: a matrix product of the stack gives
    # row bits that depend on how many rows it holds
    objective, dim, blocks = _dh_problem(dim)
    gauge = partial(_normalize_blocks, dim=dim)
    stack = rng.standard_normal((50, blocks * 2 * dim * dim)) * np.logspace(-3, 3, 50)[:, None]
    alone = [(objective(row[None]).tobytes(), gauge(row[None]).tobytes()) for row in stack]
    for k in range(2, 51):
        values, gauged = objective(stack[:k]), gauge(stack[:k])
        assert [(values[i : i + 1].tobytes(), gauged[i : i + 1].tobytes()) for i in range(k)] == alone[:k]


def test_run_anneal_contract_invariants():
    res = run_anneal("single", 2, schedule=_FAST, seed=8, restarts=3)
    assert res.best_objective >= -1e-9
    assert abs(objective_single(res.best_params, 2) - res.best_objective) < 1e-12
    for trace in res.objective_trace:
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_run_anneal_converges_smoke():
    n_p = 24
    sched = AnnealSchedule(
        steps_per_temperature=30 * n_p, t_initial=1.0, t_final=1e-6,
        cooling_ratio=0.8, proposal_scale_ratio=3.0,
    )
    res = run_anneal("single", 2, schedule=sched, seed=1, restarts=2)
    assert res.best_objective < 1e-3
    rho, xi, sigma = res.decoded_states
    # canonical orientation puts the merged degenerate pair on (rho, xi)
    assert np.linalg.norm(rho - xi) <= np.linalg.norm(sigma - xi)


def test_run_anneal_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        run_anneal("nonsense", 2, schedule=_FAST)
    with pytest.raises(InvalidConfig):
        run_anneal("single", 1, schedule=_FAST)
    with pytest.raises(InvalidConfig):
        run_anneal("single", 2, schedule=_FAST, restarts=0)
    for restarts in (2.0, 1.5, True, "2"):
        with pytest.raises(InvalidConfig):
            run_anneal("single", 2, schedule=_FAST, restarts=restarts)
    with pytest.raises(InvalidConfig):
        minimize(lambda x: x[:, 0], 1, 1, _FAST, restarts=2.0)
    for bad in (0, 2.5, 2.0, True):
        with pytest.raises(InvalidConfig, match="dim"):
            minimize(lambda x: x[:, 0], bad, 1, _FAST)
        with pytest.raises(InvalidConfig, match="blocks"):
            minimize(lambda x: x[:, 0], 1, bad, _FAST)
    for kw in ({"dim": 2.0}, {"workers": 1.5}):
        with pytest.raises(InvalidConfig):
            run_anneal(**{"objective": "single", "dim": 2, "schedule": _FAST, **kw})
    got = run_anneal("single", np.int64(2), schedule=_FAST, restarts=np.int64(1), workers=np.int64(1))
    want = run_anneal("single", 2, schedule=_FAST)
    assert got.best_objective == want.best_objective
    assert json.dumps(result_to_dict(got)) == json.dumps(result_to_dict(want))  # numpy counts come back as ints


def test_every_anneal_entry_point_needs_a_schedule():
    with pytest.raises(TypeError, match="schedule"):
        run_anneal("single", 2)
    with pytest.raises(TypeError, match="schedule"):
        minimize(lambda x: x[:, 0], 1, 1)
    with pytest.raises(TypeError, match="schedule"):
        d_h_by_optimization(MIXED, KET0, restarts=1)


def test_minimize_rows_hold_blocks_of_the_dimension():
    # the row length is blocks * 2*dim^2, and every kept point is gauged blockwise
    rows = []

    def objective(x):
        rows.append(x.copy())
        return x[:, 0]

    _, best_x, _ = minimize(objective, 3, 2, _FAST, restarts=2)
    assert best_x.shape == (2 * 2 * 9,)
    for x in rows[:1] + [best_x[None]]:
        assert np.allclose(np.linalg.norm(x.reshape(len(x), 2, 18), axis=-1), np.sqrt(3.0))


def test_result_dict_shape():
    res = run_anneal("symmetrized", 2, schedule=_FAST, seed=2, restarts=1)
    d = result_to_dict(res)
    assert set(d) == {
        "best_objective", "seed", "dim", "objective", "schedule",
        "decoded_states", "objective_trace",
    }
    assert len(d["decoded_states"]) == 3
    assert d["decoded_states"][0]["dim"] == 2
    assert len(d["objective_trace"]) == 1


def test_result_needs_a_schedule():
    with pytest.raises(TypeError, match="schedule"):
        AnnealResult(0.0, np.zeros(24), [], [[0.0]])
    # the file layout: the fields in this order, the schedule as its five fields
    res = run_anneal("single", 2, schedule=_FAST, seed=3, restarts=2)
    layout = {
        "best_objective": res.best_objective,
        "seed": 3,
        "dim": 2,
        "objective": "single",
        "schedule": {
            "steps_per_temperature": 200, "t_initial": 0.5, "t_final": 0.01,
            "cooling_ratio": 0.7, "proposal_scale_ratio": 1.0,
        },
        "decoded_states": [state_to_dict(s) for s in res.decoded_states],
        "objective_trace": res.objective_trace,
    }
    assert json.dumps(result_to_dict(res)) == json.dumps(layout)


def test_minimize_caps_restarts_and_temperatures(monkeypatch):
    # the default schedule has 270 temperatures, and a dim-2 triplet row 24
    # reals: at most 23,809 restarts
    assert 23_809 * (270 + 24) <= anneal_mod._MAX_RUN_ENTRIES < 23_810 * (270 + 24)
    objective = partial(objective_single, dim=2)
    schedule = replace(_FAST, steps_per_temperature=1)
    _, _, traces = minimize(objective, 2, 3, schedule, restarts=2)
    assert len(traces[0]) == 11
    at_cap = 2 * (11 + 24)
    monkeypatch.setattr(anneal_mod, "_MAX_RUN_ENTRIES", at_cap)
    assert minimize(objective, 2, 3, schedule, restarts=2)[2] == traces

    def no_chains(*args, **kwargs):
        raise AssertionError("an over-cap run reached the annealer")

    monkeypatch.setattr(anneal_mod, "_MAX_RUN_ENTRIES", at_cap - 1)
    monkeypatch.setattr(anneal_mod, "_chains", no_chains)
    cap = f"cap of {at_cap - 1} trace and parameter entries"
    with pytest.raises(InvalidConfig, match=cap):
        minimize(objective, 2, 3, schedule, restarts=2)
    with pytest.raises(InvalidConfig, match=cap):  # 4 * (11 + 8) entries
        d_h_by_optimization(MIXED, KET0, restarts=4, schedule=schedule)
    # about 1.4e16 temperatures: counted by logarithm, the loop never runs
    with pytest.raises(InvalidConfig, match=cap):
        minimize(objective, 2, 3, replace(schedule, cooling_ratio=1.0 - 1e-15))
