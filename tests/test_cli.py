import json

import numpy as np
import pytest

from qjsd.cli import SAMPLE_CHUNK, build_parser, main
from qjsd.states import linear_entropy, read_state_file, sample_states, write_state_file

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
    assert SAMPLE_CHUNK < n
    assert main(["sample", "--dim", "3", "--samples", str(n), "--seed", "4",
                 "--mixedness-floor", "0.5", "--out", str(tmp_path / "s")]) == 0
    for i in range(n):
        rho = read_state_file(tmp_path / f"s_{i:05d}.json")
        assert np.array_equal(rho, sample_states(3, 4, [i], 0.5)[0])


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
        "{}",
        '{"dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0]]]}',
        '{"dim": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"dim": 3, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
    ]:
        bad.write_text(text)
        assert main(["compare", str(bad), str(good)]) == 65


def test_purescan_exit_and_payload(capsys):
    assert main(["purescan", "--grid-steps", "8", "--x-steps", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_g"] >= -1e-12


def test_invalid_configuration_exits_64(tmp_path, capsys):
    audit = ["audit", "--dim", "2", "--samples", "10", "--seed", "1", "--out", str(tmp_path / "x")]
    assert main(audit + ["--samples", "0"]) == 64
    assert main(audit + ["--mixedness-floor", "0.6"]) == 64  # above 1 - 1/dim, no state qualifies
    # non-finite settings; a nan tolerance would count a violation as neither
    # a violation nor noise
    assert main(audit + ["--tolerance", "nan"]) == 64
    assert main(audit + ["--bin-width", "nan"]) == 64
    assert main(audit + ["--tail-max", "inf"]) == 64
    # the invalid value comes last: argparse keeps the last occurrence, and
    # ANNEAL_FAST[2:] sets --t-initial too
    anneal = ["anneal", "--dim", "2", "--out", str(tmp_path / "y.json")]
    assert main(anneal + ANNEAL_FAST[2:] + ["--t-initial", "1e-9"]) == 64
    assert main(anneal + ANNEAL_FAST + ["--workers", "0"]) == 64
    assert main(anneal + ANNEAL_FAST + ["--t-initial", "inf"]) == 64  # would never cool
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


def test_usage_errors_exit_64(capsys):
    assert main(["audit", "--dim", "2"]) == 64  # missing --samples
    assert main(["anneal", "--dim", "2", "--objective", "bogus"]) == 64
    assert main(["--help"]) == 0


def test_log_env_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("QJSD_LOG", "debug")
    assert main(["audit", "--dim", "2", "--samples", "20", "--seed", "1",
                 "--out", str(tmp_path / "log")]) == 0
