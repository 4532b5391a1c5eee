import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qjsd.anneal as anneal_mod
import qjsd.audit as audit_mod
import qjsd.states as states_mod
from qjsd.anneal import AnnealSchedule, result_to_dict, run_anneal
from qjsd.cli import _dump, build_parser, main
from qjsd.states import chunk_len, linear_entropy, read_state_file, sample_states, write_state_file

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2.0

ANNEAL_FAST = ["--steps-per-temp", "200", "--t-initial", "0.5", "--t-final", "1e-2", "--cooling-ratio", "0.7"]


def test_sample_writes_valid_deterministic_files(tmp_path):
    out = tmp_path / "st"
    argv = ["sample", "--dim", "3", "--samples", "2", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    first = [(tmp_path / f"st_{i:05d}.json").read_bytes() for i in range(2)]
    read_state_file(tmp_path / "st_00000.json")  # validates
    assert main(argv) == 0
    second = [(tmp_path / f"st_{i:05d}.json").read_bytes() for i in range(2)]
    assert first == second


def test_sample_honors_mixedness_floor(tmp_path):
    out = tmp_path / "mix"
    assert main(["sample", "--dim", "2", "--samples", "200", "--seed", "1",
                 "--mixedness-floor", "0.45", "--out", str(out)]) == 0
    for i in range(200):
        rho = read_state_file(tmp_path / f"mix_{i:05d}.json")
        assert linear_entropy(rho) >= 0.45


def test_sample_file_i_is_state_i(tmp_path):
    # files are written a chunk of indices at a time; file i must be state i
    # on both sides of a chunk boundary
    n = 600
    assert chunk_len(1, 3) < n
    assert main(["sample", "--dim", "3", "--samples", str(n), "--seed", "4",
                 "--mixedness-floor", "0.5", "--out", str(tmp_path / "s")]) == 0
    for i in range(n):
        rho = read_state_file(tmp_path / f"s_{i:05d}.json")
        assert np.array_equal(rho, sample_states(3, 4, [i], 0.5)[0])


@pytest.mark.parametrize("per_chunk", [1, 7])
def test_sample_files_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch, per_chunk):
    # 600 states at dim 3 are a chunk of 512 and one of 88 by default
    argv = ["sample", "--dim", "3", "--samples", "600", "--seed", "4", "--mixedness-floor", "0.5"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(states_mod, "_CHUNK_ENTRIES", per_chunk * 3**2)
    assert chunk_len(1, 3) == per_chunk
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for i in range(600):
        assert (tmp_path / f"a_{i:05d}.json").read_bytes() == (tmp_path / f"b_{i:05d}.json").read_bytes()


@pytest.mark.parametrize("dim, floor", [(2, None), (2, "0.4"), (4, None), (4, "0.6"), (16, None), (16, "0.85")])
def test_audit_files_do_not_depend_on_the_chunk_layout(tmp_path, monkeypatch, dim, floor):
    # the default layout runs 600 triplets as 512 + 88 at dims 2 and 4, and as
    # 9 x 64 + 24 at dim 16; every draw and solve acts on one matrix at a time
    argv = ["audit", "--dim", str(dim), "--samples", "600", "--seed", "6"]
    argv += ["--mixedness-floor", floor] if floor else []
    assert main(argv + ["--out", str(tmp_path / "ref")]) == 0
    want = [(tmp_path / f"ref.{ext}").read_bytes() for ext in ("json", "csv")]
    for per_chunk in (1, 7, 512):
        monkeypatch.setattr(states_mod, "_CHUNK_ENTRIES", 3 * per_chunk * dim**2)
        assert chunk_len(3, dim) == per_chunk
        for workers in ("1", "2"):
            out = tmp_path / f"c{per_chunk}w{workers}"
            assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
            assert [(tmp_path / f"{out.name}.{ext}").read_bytes() for ext in ("json", "csv")] == want


def test_dump_writes_the_bytes_of_json_dumps(tmp_path, capsys):
    # _dump streams the encoder's output into the open file, never joining it
    # into one string; the bytes are those of json.dumps and a newline
    schedule = AnnealSchedule(steps_per_temperature=3, t_initial=1.0, t_final=1e-2, cooling_ratio=0.5)
    result = result_to_dict(run_anneal("single", 2, schedule, seed=3, restarts=2))
    paths = [str(tmp_path / f"{k}.json") for k in "ab"]
    for rho, path in zip(sample_states(3, 8, [0, 1]), paths):
        write_state_file(rho, path)
    assert main(["compare", *paths, "--restarts", "2"]) == 0
    out = capsys.readouterr().out
    table = json.loads(out)
    assert out == json.dumps(table, indent=2, sort_keys=True) + "\n"
    for obj in (result, table):
        buf = io.StringIO()
        _dump(obj, buf)
        assert buf.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_audit_outputs_and_worker_invariance(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["audit", "--dim", "2", "--samples", "2000", "--seed", "1"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    rep = json.loads((tmp_path / "a.json").read_text())
    assert rep["violations"] == 0 and rep["samples"] == 2000


def test_audit_tiny_run_bookkeeping(tmp_path):
    out = tmp_path / "tiny"
    assert main(["audit", "--dim", "4", "--samples", "10", "--seed", "1", "--out", str(out)]) == 0
    lines = (tmp_path / "tiny.csv").read_text().strip().split("\n")
    assert lines[0] == "bin_low,bin_high,count,probability"
    counted = sum(int(l.split(",")[2]) for l in lines[1:-2])
    counted += int(lines[-2].split(",")[1]) + int(lines[-1].split(",")[1])
    assert counted == 10


def test_anneal_writes_result_and_repeats(tmp_path):
    out = tmp_path / "an.json"
    argv = ["anneal", "--dim", "2", "--objective", "symmetrized", "--seed", "3",
            "--restarts", "1", "--out", str(out)] + ANNEAL_FAST
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    doc = json.loads(first)
    assert doc["objective"] == "symmetrized"
    assert doc["schedule"]["steps_per_temperature"] == 200
    assert len(doc["decoded_states"]) == 3


def test_compare_same_file(tmp_path, capsys):
    p = tmp_path / "m.json"
    write_state_file(MIXED, p)
    assert main(["compare", str(p), str(p)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["qjsd"] == pytest.approx(0.0, abs=1e-12)
    assert table["qjsd_sqrt"] == pytest.approx(0.0, abs=1e-12)
    assert table["hilbert_schmidt"] == 0.0
    assert table["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert table["d_h_closed_form"] == pytest.approx(0.0, abs=1e-6)
    assert "wootters" not in table  # mixed input


def test_compare_orthogonal_pure(tmp_path, capsys):
    pa, pb = tmp_path / "0.json", tmp_path / "1.json"
    write_state_file(KET0, pa)
    write_state_file(KET1, pb)
    assert main(["compare", str(pa), str(pb)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["qjsd"] == pytest.approx(1.0, abs=1e-12)
    assert table["fidelity"] == pytest.approx(0.0, abs=1e-8)
    assert table["wootters"] == pytest.approx(np.pi / 2.0, abs=1e-8)


def test_compare_mixed_vs_ket(tmp_path, capsys):
    pa, pb = tmp_path / "m.json", tmp_path / "0.json"
    write_state_file(MIXED, pa)
    write_state_file(KET0, pb)
    assert main(["compare", str(pa), str(pb)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["qjsd"] == pytest.approx(0.31127812445913286, abs=1e-12)
    assert table["djs1_lower_bound"] <= table["qjsd"] + 1e-10


def test_compare_accepts_states_qjsd_accepts(tmp_path, capsys):
    # each file is within the 1e-12 Hermitian tolerance, but their difference is not
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_state_file(np.array([[0.6, 0.1 + 0.9e-12j], [0.1, 0.4]]), pa)
    write_state_file(np.array([[0.5, 0.2 - 0.9e-12j], [0.2, 0.5]]), pb)
    assert main(["compare", str(pa), str(pb)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert 0.0 < table["djs1_lower_bound"] <= table["qjsd"]


def test_parser_is_built_once_and_keeps_no_options(tmp_path, capsys):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    # a qubit pair whose best basis is one of the default random ones, so
    # that --restarts and --seed move djs1_lower_bound
    for rho, path in zip(sample_states(2, 320, [0, 1]), paths):
        write_state_file(rho, path)
    build_parser.cache_clear()
    assert main(["compare"] + paths) == 0
    fresh = capsys.readouterr().out
    assert build_parser() is build_parser()
    assert main(["compare"] + paths + ["--restarts", "1", "--seed", "3"]) == 0
    assert capsys.readouterr().out != fresh  # the options change the table
    assert main(["compare"] + paths) == 0
    assert capsys.readouterr().out == fresh


def test_compare_dim_mismatch_exits_65(tmp_path, capsys):
    pa, pb = tmp_path / "two.json", tmp_path / "three.json"
    write_state_file(MIXED, pa)
    write_state_file(np.eye(3) / 3.0, pb)
    assert main(["compare", str(pa), str(pb)]) == 65


def test_compare_malformed_file_exits_65(tmp_path):
    bad = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    write_state_file(MIXED, good)
    for text in [
        b"{}",
        b'{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0]]]}',
        b'{"dim": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        b'{"dim": 3, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        b'{"dim": 2, "matrix": [[[0.5, false], [0, 0]], [[0, 0], [0.5, false]]]}',  # booleans
        b'{"dim": 2, "matrix": "\xff"}',  # not UTF-8
        b"[" * 200000 + b"]" * 200000,  # nested past the recursion limit
    ]:
        bad.write_bytes(text)
        assert main(["compare", str(bad), str(good)]) == 65


@pytest.mark.parametrize("solver", ["eigvalsh", "eigh", "svd", "qr"])
def test_a_lapack_failure_exits_1(tmp_path, monkeypatch, capsys, solver):
    # compare fails reading a state (eigvalsh), in solve_pair (eigh) or in fidelity (svd),
    # the audit as it draws (qr)
    paths = [str(tmp_path / "m.json"), str(tmp_path / "0.json")]
    for rho, path in zip((MIXED, KET0), paths):
        write_state_file(rho, path)
    monkeypatch.setattr(np.linalg, solver, mock.Mock(side_effect=np.linalg.LinAlgError(f"{solver} failed")))
    audit = ["audit", "--dim", "2", "--samples", "4", "--out", str(tmp_path / "a")]
    assert main(audit if solver == "qr" else ["compare", *paths]) == 1
    assert capsys.readouterr().err == f"qjsd: linear algebra failure: {solver} failed\n"


def test_compare_solves_each_pair_once(tmp_path, monkeypatch, capsys):
    # two eigvalsh to read the files, one for qjsd, and one eigh of the stack
    # [a - b, a, b, (a + b)/2] that hilbert_schmidt_distance, fidelity,
    # qjsd_spectral and djs1_lower_bound share; a pure pair reads its vectors
    # for the Wootters angle from that stack too. The states are checked four
    # times: once by each file read, once by qjsd and once by solve_pair, whose
    # checked pair the purity test reads.
    rng = np.random.default_rng(44)
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def counted(m, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(m)))
            return _fn(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    checks = []
    check_hermitian = states_mod.check_hermitian  # one call per check_states pass
    monkeypatch.setattr(states_mod, "check_hermitian", lambda a: checks.append(a.shape) or check_hermitian(a))
    for n in (2, 5, 8):
        paths = [str(tmp_path / f"{n}{side}.json") for side in "ab"]
        for path in paths:
            u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            lam = rng.dirichlet(np.ones(n))
            write_state_file((u * lam) @ u.conj().T, path)
        calls.clear()
        checks.clear()
        assert main(["compare", *paths]) == 0
        assert "wootters" not in json.loads(capsys.readouterr().out)
        want = [("eigvalsh", (n, n))] * 2 + [("eigvalsh", (3, n, n)), ("eigh", (4, n, n))]
        assert sorted(calls) == sorted(want)
        want_checks = [(1, n, n)] * 2 + [(2, n, n)] * 2
        assert sorted(checks) == want_checks

        psi, phi = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        for path, v in zip(paths, (psi, phi)):
            v = v / np.linalg.norm(v)
            write_state_file(np.outer(v, v.conj()), path)
        calls.clear()
        checks.clear()
        assert main(["compare", *paths]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["wootters"] == pytest.approx(np.arccos(table["fidelity"]), abs=1e-6)
        assert sorted(calls) == sorted(want)
        assert sorted(checks) == want_checks


def test_purescan_exit_and_payload(capsys):
    assert main(["purescan", "--grid-steps", "8", "--x-steps", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"min_g", "x", "y", "z", "a", "b", "grid_steps", "x_steps"}
    assert doc["grid_steps"] == 8 and doc["x_steps"] == 6
    assert doc["min_g"] >= -1e-12


def test_invalid_configuration_exits_64(tmp_path, capsys, small_arange):
    audit = ["audit", "--dim", "2", "--samples", "10", "--seed", "1", "--out", str(tmp_path / "x")]
    assert main(audit + ["--samples", "0"]) == 64
    assert main(audit + ["--mixedness-floor", "0.6"]) == 64  # above 1 - 1/dim, no state qualifies
    # non-finite settings; a nan tolerance would count a violation as neither
    # a violation nor noise
    assert main(audit + ["--tolerance", "nan"]) == 64
    assert main(audit + ["--bin-width", "nan"]) == 64
    assert main(audit + ["--tail-max", "inf"]) == 64
    capsys.readouterr()
    for width, tail in [("1e-300", "1e300"), ("1e-9", "1")]:  # inf bins, or 2e9 (16 GB of edges)
        assert main(audit + ["--bin-width", width, "--tail-max", tail]) == 64
        assert "cap of 1000000" in capsys.readouterr().err
    # the invalid value comes last: argparse keeps the last occurrence, and
    # ANNEAL_FAST[2:] sets --t-initial too
    anneal = ["anneal", "--dim", "2", "--out", str(tmp_path / "y.json")]
    assert main(anneal + ANNEAL_FAST[2:] + ["--t-initial", "1e-9"]) == 64
    assert main(anneal + ANNEAL_FAST + ["--workers", "0"]) == 64
    assert main(anneal + ANNEAL_FAST + ["--t-initial", "inf"]) == 64  # would never cool
    capsys.readouterr()
    for dim in ("0", "1"):  # dim is checked before the default schedule is built from it
        assert main(["anneal", "--dim", dim, "--out", str(tmp_path / "y.json")]) == 64
        assert "dim must be an integer >= 2" in capsys.readouterr().err
    out = str(tmp_path / "z")
    assert main(["sample", "--dim", "2", "--samples", "1", "--mixedness-floor", "1.5", "--out", out]) == 64
    assert main(["sample", "--dim", "2", "--samples", "1", "--mixedness-floor", "0.6", "--out", out]) == 64
    assert main(["sample", "--dim", "0", "--samples", "1", "--out", out]) == 64
    assert main(["sample", "--dim", "1", "--samples", "1", "--out", out]) == 64
    assert main(["sample", "--dim", "2", "--samples", "-3", "--out", out]) == 64
    assert main(["purescan", "--grid-steps", "1"]) == 64
    p = tmp_path / "m.json"
    write_state_file(MIXED, p)
    assert main(["compare", str(p), str(p), "--restarts", "0"]) == 64


def test_count_caps_exit_64(tmp_path, capsys, small_arange, small_linspace):
    # each would hold gigabytes at once: a pair grid of 100**4 points, and
    # 10**6 random bases of dim 8
    assert main(["purescan", "--grid-steps", "100"]) == 64
    assert "cap of 10000000 pair-grid points" in capsys.readouterr().err
    paths = [str(tmp_path / f"{k}.json") for k in "ab"]
    for rho, path in zip(sample_states(8, 4, [0, 1]), paths):
        write_state_file(rho, path)
    assert main(["compare"] + paths + ["--restarts", "1000000"]) == 64
    captured = capsys.readouterr()
    assert "cap of 10000000 random-basis entries" in captured.err and captured.out == ""


def test_state_caps_exit_64(tmp_path, capsys, monkeypatch):
    # a chunk of one triplet of dim 1826, or of one state of dim 3163, would
    # hold over 10**7 state entries at once
    def no_draws(*args, **kwargs):
        raise AssertionError("an over-cap size reached the sampler")

    monkeypatch.setattr(states_mod, "draw_state_params", no_draws)
    monkeypatch.setattr(audit_mod, "draw_state_params", no_draws)
    out = str(tmp_path / "x")
    for argv in (["audit", "--dim", "1826", "--samples", "512"], ["sample", "--dim", "3163", "--samples", "512"]):
        assert main(argv + ["--out", out]) == 64
        assert "cap of 10000000 state entries" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_anneal_cap_exits_64(tmp_path, capsys, monkeypatch):
    # 23,810 restarts of the default dim-2 schedule would hold over 7 * 10**6
    # trace and parameter entries at once, and 4 restarts of ANNEAL_FAST's 11
    # temperatures over a cap lowered to 3 * (11 + 24)
    def no_chains(*args, **kwargs):
        raise AssertionError("an over-cap run reached the annealer")

    monkeypatch.setattr(anneal_mod, "_chains", no_chains)
    out = str(tmp_path / "a.json")
    assert main(["anneal", "--dim", "2", "--restarts", "23810", "--out", out]) == 64
    assert "cap of 7000000 trace and parameter entries" in capsys.readouterr().err
    monkeypatch.setattr(anneal_mod, "_MAX_RUN_ENTRIES", 3 * (11 + 24))
    assert main(["anneal", "--dim", "2", "--restarts", "4", *ANNEAL_FAST, "--out", out]) == 64
    assert "cap of 105 trace and parameter entries" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_usage_errors_exit_64(capsys):
    assert main(["audit", "--dim", "2"]) == 64  # missing --samples
    assert main(["anneal", "--dim", "2", "--objective", "bogus"]) == 64
    assert main(["--help"]) == 0


def test_log_env_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("QJSD_LOG", "debug")
    assert main(["audit", "--dim", "2", "--samples", "20", "--seed", "1",
                 "--out", str(tmp_path / "log")]) == 0
    # an attribute of logging that is not a level falls back to WARNING; in a
    # fresh interpreter, since pytest's root handlers make basicConfig a no-op
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, QJSD_LOG="basic_format", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "qjsd.cli", "purescan", "--grid-steps", "4", "--x-steps", "3"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "min_g" in json.loads(run.stdout)
