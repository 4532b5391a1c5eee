import json
from functools import partial

import numpy as np
import pytest

from qjsd.anneal import (
    AnnealResult,
    AnnealSchedule,
    _chains,
    _normalize_blocks,
    decode_state,
    objective_single,
    objective_symmetrized,
    result_to_dict,
    run_anneal,
)
from qjsd.audit import triangle_defect
from qjsd.errors import DegenerateBlock, InvalidConfig
from qjsd.linalg import matrix_sqrt
from qjsd.states import state_to_dict

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
    return np.concatenate([_block_from_matrix(matrix_sqrt(s)) for s in states])


def test_decode_identity_block():
    assert np.allclose(decode_state(_block_from_matrix(np.eye(3)), 3), np.eye(3) / 3.0, atol=1e-14)


def test_decode_rank_one_block():
    a = np.zeros((2, 2), dtype=complex)
    a[0, 0] = 1.0
    assert np.allclose(decode_state(_block_from_matrix(a), 2), KET0, atol=1e-14)


def test_decode_scale_invariance(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = decode_state(_block_from_matrix(a), 3)
    for c in (2.0, -1.0, 1j):
        scaled = decode_state(_block_from_matrix(c * a), 3)
        assert np.max(np.abs(scaled - base)) < 1e-12


def test_decode_degenerate_block():
    with pytest.raises(DegenerateBlock):
        decode_state(np.zeros(8), 2)


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
    states = [decode_state(rng.standard_normal(8), 2) for _ in range(3)]
    base = objective_symmetrized(_params_from_states(*states), 2)
    for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
        permuted = objective_symmetrized(_params_from_states(*(states[i] for i in perm)), 2)
        assert permuted == pytest.approx(base, abs=1e-12)


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
    for bad in ({"t_initial": np.inf}, {"proposal_scale_ratio": np.inf}, {"proposal_scale_ratio": np.nan}):
        with pytest.raises(InvalidConfig):
            AnnealSchedule(steps_per_temperature=10, **bad).validate()


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


@pytest.mark.parametrize("objective, dim", [(objective_single, 2), (objective_symmetrized, 3)])
def test_lockstep_rows_match_lone_chains(objective, dim):
    n_params = 6 * dim * dim
    chains = partial(_chains, partial(objective, dim=dim), n_params, _FAST, 5, partial(_normalize_blocks, dim=dim))
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
