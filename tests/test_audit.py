import json
import tracemalloc

import numpy as np
import pytest

import qjsd.audit as audit_mod
import qjsd.states as states_mod
from qjsd.anneal import AnnealSchedule, result_to_dict, run_anneal
from qjsd.audit import (
    histogram_csv,
    histogram_edges,
    regenerate_triplet,
    report_to_dict,
    run_audit,
    triangle_defect,
)
from qjsd.divergences import defect_from_sides, qjsd_sides, qjsd_sqrt
from qjsd.errors import DimMismatch, InvalidConfig
from qjsd.states import check_states, chunk_len, derive_seed

from conftest import projector, rand_density, rand_pure

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2.0

# 2 sqrt(H(3/4,1/4) - 1/2) - 1, frozen from direct evaluation
QUBIT_DEFECT = 0.11584609056828776


def test_defect_pivot_equals_endpoint_is_exactly_zero(rng):
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    assert triangle_defect(rho, rho, sigma) == 0.0
    assert triangle_defect(rho, sigma, sigma) == 0.0


def test_defect_qubit_oracle_value():
    assert triangle_defect(KET0, MIXED, KET1) == pytest.approx(QUBIT_DEFECT, abs=1e-13)


def test_defect_is_the_sum_of_three_single_pair_calls(rng):
    # one qjsd call on the stacked pairs gives each side the bits of its own
    # call, and one qjsd_sides call on the triplet (6 eigensolves, not 9)
    # gives the defect's bits too
    for dim in range(2, 9):
        for _ in range(3):
            mixed = [rand_density(rng, dim) for _ in range(3)]
            pure = [projector(rand_pure(rng, dim)) for _ in range(3)]
            for rho, xi, sigma in (mixed, pure):
                want = qjsd_sqrt(rho, xi) + qjsd_sqrt(xi, sigma) - qjsd_sqrt(rho, sigma)
                assert triangle_defect(rho, xi, sigma) == want
                triplet_route = defect_from_sides(qjsd_sides(check_states(rho, xi, sigma)))
                assert float(triplet_route) == triangle_defect(rho, xi, sigma)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_defect_rejects_a_state_of_another_dimension(position):
    triplet = [KET0, MIXED, KET1]
    triplet[position] = np.eye(3, dtype=complex) / 3.0
    with pytest.raises(DimMismatch):
        triangle_defect(*triplet)


def test_histogram_edges_tile_range(small_arange):
    edges = histogram_edges(0.002, 0.2)
    assert edges.size == 201
    assert edges[0] == -0.2 and edges[-1] == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(InvalidConfig):
        histogram_edges(0.003, 0.2)  # does not tile
    with pytest.raises(InvalidConfig):
        histogram_edges(-0.1, 0.2)
    # 2*tail_max/bin_width overflows to inf, or asks for 2e9 bins (16 GB of edges)
    for bin_width, tail_max in [(1e-300, 1e300), (1e-9, 1.0)]:
        with pytest.raises(InvalidConfig, match="cap of 1000000"):
            histogram_edges(bin_width, tail_max)
    assert histogram_edges(1e-6, 0.5).size == 10**6 + 1  # the cap itself is allowed


def test_run_audit_caps_its_chunk(monkeypatch):
    # about 81 B per state entry of a chunk of chunk_len(3, dim) triplets,
    # held at once by each worker; from dim 91 a chunk is one triplet, and
    # dims up to 1825 are admitted
    def no_shards(*args, **kwargs):
        raise AssertionError("an over-cap chunk reached the shards")

    with monkeypatch.context() as m:
        m.setattr(audit_mod, "map_groups", no_shards)
        for dim, samples in ((1826, 1), (1826, 10**9), (10**4, 1)):
            with pytest.raises(InvalidConfig, match="cap of 10000000 state entries"):
                run_audit(dim, samples, 0)
    assert chunk_len(3, 1825) == chunk_len(3, 1826) == 1
    assert 3 * 1825**2 <= audit_mod._MAX_CHUNK_ENTRIES < 3 * 1826**2
    monkeypatch.setattr(audit_mod, "_MAX_CHUNK_ENTRIES", 3 * 10 * 4)
    assert run_audit(2, 10, 0).samples == 10  # the cap itself is admitted
    with pytest.raises(InvalidConfig, match=r"3 \* min\(samples, chunk_len\(3, dim\)\) \* dim\*\*2 = 132 exceeds the cap of 120"):
        run_audit(2, 11, 0)
    monkeypatch.setattr(audit_mod, "_MAX_CHUNK_ENTRIES", 3 * 512 * 4)
    assert run_audit(2, 600, 0).samples == 600  # only one chunk is held at once
    with pytest.raises(InvalidConfig, match="= 13824 exceeds"):
        run_audit(3, 600, 0)


def test_audit_working_set_is_bounded_by_the_chunk_budget():
    # a chunk holds about 81 B per state entry; 512 triplets of dim 16 would
    # peak near 31 MB
    kw = dict(dim=16, samples=600, seed=0, mixedness_floor=0.85)
    run_audit(**kw)  # first calls allocate lazily
    tracemalloc.start()
    try:
        run_audit(**kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * states_mod._CHUNK_ENTRIES


def test_single_sample_bookkeeping():
    rep = run_audit(dim=2, samples=1, seed=9)
    h = rep.histogram
    assert h.total == 1
    assert int(h.counts.sum()) + h.underflow_count + h.overflow_count == 1


def test_audit_deterministic_rerun():
    a = report_to_dict(run_audit(dim=3, samples=2000, seed=5))
    b = report_to_dict(run_audit(dim=3, samples=2000, seed=5))
    assert a == b


def test_audit_worker_count_invariance():
    # shard split and merge must not affect a single bit of the report
    one = report_to_dict(run_audit(dim=2, samples=10_000, seed=13, workers=1))
    four = report_to_dict(run_audit(dim=2, samples=10_000, seed=13, workers=4))
    assert one == four


def test_pools_are_capped_at_available_cpus(monkeypatch, pool_sizes):
    sizes = pool_sizes  # max_workers of each pool opened; none starts a process
    monkeypatch.setattr(states_mod, "available_cpus", lambda: 3)
    audit_kw = dict(dim=2, samples=8 * 512 + 5, seed=13)
    schedule = AnnealSchedule(steps_per_temperature=20, t_initial=0.5, t_final=1e-2, cooling_ratio=0.5)
    anneal_kw = dict(objective="single", dim=2, schedule=schedule, seed=3, restarts=5)
    audits = [report_to_dict(run_audit(**audit_kw, workers=5000))]
    anneals = [result_to_dict(run_anneal(**anneal_kw, workers=5000))]
    assert sizes == [3, 3]
    monkeypatch.setattr(states_mod, "available_cpus", lambda: 64)
    audits.append(report_to_dict(run_audit(**audit_kw, workers=4)))
    anneals.append(result_to_dict(run_anneal(**anneal_kw, workers=4)))
    assert sizes == [3, 3, 4, 4]
    # more groups than tasks are never opened, and no split changes a result
    audits.append(report_to_dict(run_audit(**audit_kw, workers=64)))
    anneals.append(result_to_dict(run_anneal(**anneal_kw, workers=64)))
    assert sizes == [3, 3, 4, 4, 9, 5]
    audits.append(report_to_dict(run_audit(**audit_kw, workers=1)))
    anneals.append(result_to_dict(run_anneal(**anneal_kw, workers=1)))
    assert sizes == [3, 3, 4, 4, 9, 5]
    assert all(a == audits[0] for a in audits)
    assert all(a == anneals[0] for a in anneals)


@pytest.mark.parametrize("dim", [2, 3])
def test_audit_no_violations_small(dim):
    rep = run_audit(dim=dim, samples=5000, seed=1)
    assert rep.violations == 0
    assert rep.min_defect >= -1e-9


def test_smallest_defects_regenerate(rng):
    rep = run_audit(dim=2, samples=5000, seed=21)
    assert len(rep.smallest) == 10
    defects = [s.defect for s in rep.smallest]
    assert defects == sorted(defects)
    assert rep.min_defect == defects[0]
    for s in rep.smallest[:3]:
        trip = regenerate_triplet(2, s.triplet_seed)
        assert triangle_defect(*trip) == pytest.approx(s.defect, abs=1e-12)


def test_mixedness_floor_fattens_small_defect_tail():
    # restricting to highly mixed states raises P(defect < 0.05)
    floor = 0.9 * (1.0 - 1.0 / 2.0)
    plain = run_audit(dim=2, samples=20_000, seed=2)
    mixed = run_audit(dim=2, samples=20_000, seed=2, mixedness_floor=floor)

    def p_below(rep, cut):
        h = rep.histogram
        k = int(np.searchsorted(h.bin_edges, cut) - 1)
        return (h.counts[: k + 1].sum() + h.underflow_count) / h.total

    assert p_below(mixed, 0.05) >= p_below(plain, 0.05)


def test_histogram_csv_layout():
    rep = run_audit(dim=4, samples=10, seed=1)
    text = histogram_csv(rep.histogram)
    lines = text.strip().split("\n")
    assert lines[0] == "bin_low,bin_high,count,probability"
    assert lines[-2].startswith("# underflow,")
    assert lines[-1].startswith("# overflow,")
    assert len(lines) == 1 + rep.histogram.counts.size + 2
    total = sum(int(l.split(",")[2]) for l in lines[1:-2])
    total += int(lines[-2].split(",")[1]) + int(lines[-1].split(",")[1])
    assert total == 10


def test_report_dict_fields():
    rep = run_audit(dim=2, samples=50, seed=3)
    d = report_to_dict(rep)
    # the keys of the audit JSON file
    assert set(d) == {
        "sampler_version", "dim", "samples", "seed", "tolerance", "violations", "noise_negatives",
        "min_defect", "mixedness_floor", "histogram", "smallest_defects",
    }
    assert set(d["histogram"]) == {"bin_edges", "counts", "underflow_count", "overflow_count", "total"}
    assert set(d["smallest_defects"][0]) == {"defect", "triplet_index", "triplet_seed"}
    assert json.loads(json.dumps(d)) == d  # JSON-native as it stands: lists, ints, floats and None
    assert d["dim"] == 2 and d["samples"] == 50 and d["seed"] == 3
    assert d["histogram"]["total"] == 50
    assert len(d["smallest_defects"]) == 10
    assert d["violations"] == 0
    assert d["sampler_version"] == 2


def test_invalid_configs():
    with pytest.raises(InvalidConfig):
        run_audit(dim=1, samples=10, seed=0)
    with pytest.raises(InvalidConfig):
        run_audit(dim=2, samples=0, seed=0)
    with pytest.raises(InvalidConfig):
        run_audit(dim=2, samples=10, seed=0, bin_width=0.003)
    with pytest.raises(InvalidConfig):
        run_audit(dim=2, samples=10, seed=0, mixedness_floor=1.5)
    # 1 - Tr(rho^2) never exceeds 1 - 1/dim, so these floors reject every draw
    with pytest.raises(InvalidConfig):
        run_audit(dim=2, samples=1, seed=0, mixedness_floor=0.6)
    with pytest.raises(InvalidConfig):
        run_audit(dim=3, samples=1, seed=0, mixedness_floor=1.0 - 1.0 / 3.0)  # only 1/3 reaches it
    for kw in ({"samples": True}, {"samples": 2.0}, {"samples": 10.5}, {"dim": 2.0}, {"workers": 1.5}):
        with pytest.raises(InvalidConfig):  # a bool or a float is not a count
            run_audit(**{"dim": 2, "samples": 10, "seed": 0, **kw})
    with pytest.raises(InvalidConfig):
        regenerate_triplet(2, 5, 1.5)
    for dim, triplet_seed in [(0, 5), (1, 5), (2, -1), (2, 2**64), (2, 2.0), (2, True), (2.0, 5)]:
        with pytest.raises(InvalidConfig):
            regenerate_triplet(dim, triplet_seed)
    # numpy integers are counts; a numpy dim used to turn the uint64 sampler slots into floats
    got, want = report_to_dict(run_audit(np.int64(2), np.int64(10), 0, workers=np.int64(1))), report_to_dict(
        run_audit(2, 10, 0)
    )
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # numpy counts come back as ints
    assert np.array_equal(regenerate_triplet(np.int64(2), np.uint64(5)), regenerate_triplet(2, 5))
    # a bool or a string is not a real-valued option; True used to tile [-1, 1)
    # and to be written as "tail_max": true, and a string raised a bare TypeError
    for kw in ({"tolerance": True}, {"tolerance": "1e-9"}, {"mixedness_floor": False},
               {"mixedness_floor": "0.25"}, {"bin_width": "0.002"}, {"tail_max": True}):
        with pytest.raises(InvalidConfig):
            run_audit(**{"dim": 2, "samples": 10, "seed": 0, **kw})
    # numpy reals act as the float, so the report stays JSON-native
    reals = {"tolerance": 2.0**-30, "mixedness_floor": 0.25, "bin_width": 0.125, "tail_max": 0.25}
    got = report_to_dict(run_audit(2, 10, 0, **{k: np.float32(v) for k, v in reals.items()}))
    want = report_to_dict(run_audit(2, 10, 0, **reals))
    assert json.dumps(got) == json.dumps(want)


def test_audit_worker_count_invariance_with_floor():
    kw = dict(dim=3, samples=3 * 512 + 100, seed=17, mixedness_floor=0.5)
    one, three = run_audit(**kw, workers=1), run_audit(**kw, workers=3)
    assert report_to_dict(one) == report_to_dict(three)
    assert histogram_csv(one.histogram) == histogram_csv(three.histogram)


@pytest.mark.parametrize("dim, floor", [(2, None), (2, 0.4), (3, None), (3, 0.5),
                                        (4, None), (4, 0.6), (16, None), (16, 0.85)])
def test_regenerate_triplet_is_the_chunk_draw(monkeypatch, dim, floor):
    # every state the audit's chunks assembled, in triplet index order
    drawn = []

    def recording(z, lam):
        rhos = assemble(z, lam)
        drawn.append(rhos.reshape(-1, 3, dim, dim))
        return rhos

    assemble = audit_mod.states_from_params
    monkeypatch.setattr(audit_mod, "states_from_params", recording)
    samples = 600  # 512 + 88 triplets up to dim 5, nine chunks of 64 and one of 24 at dim 16
    rep = run_audit(dim=dim, samples=samples, seed=4, mixedness_floor=floor)
    monkeypatch.undo()
    drawn = np.concatenate(drawn)
    assert drawn.shape[0] == samples
    picked = [(s.triplet_index, s.triplet_seed) for s in rep.smallest]
    picked += [(i, derive_seed(4, i)) for i in range(0, samples, 59)]
    for index, triplet_seed in picked:
        trip = regenerate_triplet(dim, triplet_seed, floor)
        for rho, chunk_rho in zip(trip, drawn[index]):
            assert np.array_equal(rho, chunk_rho)
            if floor is not None:
                assert 1.0 - np.vdot(rho, rho).real >= floor - 1e-12
    for s in rep.smallest:
        assert triangle_defect(*regenerate_triplet(dim, s.triplet_seed, floor)) == pytest.approx(s.defect, abs=1e-12)
