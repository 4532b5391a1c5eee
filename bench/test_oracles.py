"""Tests of the benchmark's oracles and of how its runner counts failures."""

import json
import math

import mpmath
import numpy as np
import pytest

import oracles
import workloads

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def mp_entropy(p):
    return -sum(x * mpmath.log(x, 2) for x in p if x > 0)


def mp_phi(x):
    """Pure-state divergence h2((1 - x)/2) for overlap magnitude x."""
    return mp_entropy([(1 - x) / 2, (1 + x) / 2])


def mp_jsd(p, q):
    with mpmath.workdps(40):
        p = [mpmath.mpf(float(x)) for x in p]
        q = [mpmath.mpf(float(x)) for x in q]
        mid = [(a + b) / 2 for a, b in zip(p, q)]
        return mp_entropy(mid) - (mp_entropy(p) + mp_entropy(q)) / 2


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_pure_pairs_match_sqrt_phi_of_overlap(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        psi, phi = workloads.pure_vector(rng, dim), workloads.pure_vector(rng, dim)
        x = abs(np.vdot(psi, phi))
        with mpmath.workdps(40):
            want = float(mpmath.sqrt(mp_phi(mpmath.mpf(float(x)))))
        got = math.sqrt(oracles.qjsd(np.outer(psi, psi.conj()), np.outer(phi, phi.conj())))
        assert abs(got - want) <= oracles.sqrt_tol(want * want, oracles.entropy_delta(dim))


@pytest.mark.parametrize("dim", [2, 4, 7])
def test_commuting_pairs_match_classical_jsd_of_spectra(dim):
    rng = np.random.default_rng(10 + dim)
    for _ in range(20):
        u = workloads.haar(rng, dim)
        p, q = rng.dirichlet(np.ones(dim)), rng.dirichlet(np.ones(dim))
        rho, sigma = (u * p) @ u.conj().T, (u * q) @ u.conj().T
        assert abs(oracles.qjsd(rho, sigma) - float(mp_jsd(p, q))) <= oracles.entropy_delta(dim)


def test_ket0_plus_measured_jsd_closed_form(tmp_path):
    with mpmath.workdps(40):
        p = (2 - mpmath.sqrt(2)) / 4
        exact = 1 - mp_entropy([p, 1 - p])
    assert abs(float(exact) - 0.39912396330714390) < 1e-16
    assert abs(oracles.measured_floor(KET0, PLUS) - float(exact)) < 1e-14

    from qjsd import cli

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    workloads.write_state(KET0, a)
    workloads.write_state(PLUS, b)
    pair = workloads.Pair(str(a), str(b), KET0, PLUS, (np.array([1, 0], dtype=complex), np.full(2, 2 ** -0.5, dtype=complex)))
    out = workloads.compare(cli, pair, 0)
    _, verify = workloads.check_compare(out, pair)
    assert verify() == []
    assert abs(json.loads(out[1])["djs1_lower_bound"] - float(exact)) < 1e-12


def test_corrupted_outputs_count_as_failed_operations(tmp_path, monkeypatch):
    from qjsd import divergences

    inputs = workloads.make_inputs(3, tmp_path)
    ops = workloads._compare_ops(1)
    clean = workloads.Runner(inputs)
    clean.run(ops)
    assert clean.attempted == len(ops) == 2 * len(workloads.COMPARE_DIMS)
    assert clean.failed == 0

    true_qjsd = divergences.qjsd
    monkeypatch.setattr(divergences, "qjsd", lambda rho, sigma: true_qjsd(rho, sigma) + 1e-7)
    bad = workloads.Runner(inputs)
    bad.run(ops)
    assert bad.attempted == len(ops)
    assert bad.failed == len(ops)  # every compare table and every defect is off
    assert not bad.times

    # held to the clean outputs, a corrupted rerun fails as a changed output
    rerun = workloads.Runner(inputs, clean.reference)
    rerun.run(ops)
    assert rerun.failed == len(ops)
    assert all("differs" in msg for _, msg in rerun.problems)


def test_anneal_check_rejects_a_shifted_objective():
    rng = np.random.default_rng(5)
    states = [workloads.mixed_state(rng, 3) for _ in range(3)]
    best, _ = oracles.defect(*states)
    assert oracles.anneal_problems(best, states, [[best]]) == []
    assert oracles.anneal_problems(best + 1e-6, states, [[best + 1e-6]]) != []
    assert oracles.anneal_problems(best, states, [[best + 1e-6]]) != []
