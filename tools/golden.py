"""Golden-output manifest: SHA-256 of a fixed set of qjsd outputs.

    python tools/golden.py            # check the outputs against tools/golden.json
    python tools/golden.py --write    # record them for the current sampler_version

Run from anywhere; it imports qjsd from `src/` of this checkout, the
benchmark's compare inputs from `bench/workloads.py` and the reference routes
from `tests/reference.py`, read-only, and runs every command in this process
through `qjsd.cli.main`. Commands that take `--workers` run with 1 and with 2
workers, and both must give the same bytes.
Each audit runs a third time, with 2 workers and chunks of 50 triplets, and
must give the same bytes again. The set:

- `qjsd audit --seed 7 --samples 20000` at dims 2, 3 and 4, and at dim 16
  with `--mixedness-floor 0.85` and 3,000 samples: the JSON and the CSV;
- `qjsd anneal --seed 4 --restarts 2` on a short fixed schedule, at dims 2
  and 3 with each objective: the result JSON;
- `qjsd sample --dim 3 --samples 20 --seed 5`: the files, concatenated in
  index order;
- `qjsd compare` on the 210 pairs of `make_inputs(1, dir)`, pair k with
  `--seed k`: f"{status}\\n{stdout}" of each table, concatenated in order;
- `repr(triangle_defect(*t))` of the same inputs' 210 triplets, concatenated;
- `repr` of `von_neumann_entropy` of each state, `qjsd_via_relative_entropy`
  and `measured_jsd` in the computational basis, and the bytes of
  `purification(rho, I)`, of the same inputs' 210 pairs, concatenated;
- `repr(relative_entropy(rho, sigma))` of the same inputs' 210 pairs, or the
  name of the error it raises, concatenated;
- `repr(d_h_by_optimization(rho, sigma, restarts=2, seed=k))` on a short fixed
  schedule, of the same inputs' four dim-2 and four dim-3 pairs, pair k of a
  dim with seed k, concatenated;
- `repr(float(...))` of `classical_jsd_sqrt_metric_check` on single triplets
  and on batches, and of `schoenberg_check`, on probability vectors drawn
  from `np.random.default_rng(CLASSICAL_SEED)`, some with zero entries,
  concatenated;
- `qjsd purescan` with the default grid and with `--grid-steps 9 --x-steps 5`:
  f"{status}\\n{stdout}" of each, concatenated.

The manifest is keyed by the audit's `sampler_version`, since a new sampler
changes the audit and sample outputs on purpose, and it records the numpy
version and BLAS the hashes were taken with: they hold for that build only.
A deliberate output change that is not a sampler change re-records the
current version's entry with `--write`, and CHANGES.md names the entries it
changed. Both modes print `name: old -> new` for each changed entry. Exit
status 0 when every output matches (or the manifest was written), 1
otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from qjsd import audit, cli, divergences, states  # noqa: E402
from qjsd.anneal import AnnealSchedule  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

AUDITS = [  # (name, dim, samples, extra options)
    ("audit-dim2", 2, 20000, []),
    ("audit-dim3", 3, 20000, []),
    ("audit-dim4", 4, 20000, []),
    ("audit-dim16-floor0.85", 16, 3000, ["--mixedness-floor", "0.85"]),
]
ANNEAL_OPTIONS = ["--seed", "4", "--restarts", "2", "--steps-per-temp", "100", "--t-initial", "1",
                  "--t-final", "1e-5", "--cooling-ratio", "0.8", "--proposal-scale", "3"]
DH_SCHEDULE = AnnealSchedule(50, t_initial=1.0, t_final=1e-4, cooling_ratio=0.7, proposal_scale_ratio=3.0)
CLASSICAL_SEED = 7707
PURESCANS = ([], ["--grid-steps", 9, "--x-steps", 5])
WORKERS = (1, 2)
SMALL_CHUNK = 50  # triplets per chunk of the third audit run
SPLIT = "differs between worker counts or chunk layouts"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list) -> tuple[int, str]:
    """Exit status and standard output of one qjsd command."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main([str(a) for a in argv])
    return status, buf.getvalue()


def run_ok(argv: list) -> None:
    status, _ = run(argv)
    if status != 0:
        raise SystemExit(f"golden: `qjsd {' '.join(map(str, argv))}` exited {status}")


def by_workers(argv: list, files: dict, audit_dim: int | None = None) -> dict:
    """Run argv with --workers w for each w of WORKERS, and for an audit of
    dimension audit_dim once more with 2 workers at SMALL_CHUNK triplets per
    chunk, and hash the files ({name: path}) it writes; {name: hash}, with
    SPLIT where the runs differ."""
    layouts = [(w, states._CHUNK_ENTRIES) for w in WORKERS]
    if audit_dim is not None:
        layouts.append((2, 3 * SMALL_CHUNK * audit_dim**2))
    runs = []
    for w, entries in layouts:
        with mock.patch.object(states, "_CHUNK_ENTRIES", entries):
            run_ok(argv + ["--workers", w])
        runs.append({name: sha256(path.read_bytes()) for name, path in files.items()})
    return {name: h if all(r[name] == h for r in runs) else SPLIT for name, h in runs[0].items()}


def classical_values() -> list:
    """The classical checks on fixed inputs: lengths 2 to 17, some entries zero."""
    rng = np.random.default_rng(CLASSICAL_SEED)

    def law(n):
        v = rng.dirichlet(np.ones(n))
        v[rng.random(n) < 0.2] = 0.0
        return v / v.sum() if v.sum() > 0 else np.eye(n)[0]

    out = []
    for _ in range(300):
        n = int(rng.integers(2, 7))
        p, r, q = law(n), law(n), law(n)
        out.append(reference.classical_jsd_sqrt_metric_check([(p, r, q)]))
        out.append(reference.classical_jsd_sqrt_metric_check([(p, p, q), (p, r, r)]))
    for n, t in ((4, 500), (4, 500), (3, 200), (17, 100)):
        out.append(reference.classical_jsd_sqrt_metric_check([(law(n), law(n), law(n)) for _ in range(t)]))
    for _ in range(300):
        k, n = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        c = rng.standard_normal(k)
        c -= c.mean()
        out.append(reference.schoenberg_check(c, [law(n) for _ in range(k)]))
    return out


def state_paths(rho, sigma) -> bytes:
    """The single-state and measured outputs of one pair, as bytes."""
    n = rho.shape[0]
    values = (reference.von_neumann_entropy(rho), reference.von_neumann_entropy(sigma),
              reference.qjsd_via_relative_entropy(rho, sigma),
              reference.measured_jsd(rho, sigma, reference.projective_povm(np.eye(n))))
    return "".join(map(repr, values)).encode() + states.purification(rho, np.eye(n)).tobytes()


def relative_entropy(rho, sigma) -> str:
    """repr of S(rho || sigma), or the name of the error it raises."""
    try:
        return repr(reference.relative_entropy(rho, sigma))
    except Exception as exc:
        return type(exc).__name__


def collect(tmp: Path) -> dict:
    """{entry name: SHA-256 hex digest, or SPLIT}."""
    out = {}
    for name, dim, samples, extra in AUDITS:
        argv = ["audit", "--dim", dim, "--samples", samples, "--seed", 7, *extra, "--out", tmp / name]
        out.update(by_workers(argv, {f"{name}.{ext}": tmp / f"{name}.{ext}" for ext in ("json", "csv")}, dim))
    for dim in (2, 3):
        for objective in ("single", "symmetrized"):
            name = f"anneal-dim{dim}-{objective}.json"
            argv = ["anneal", "--dim", dim, "--objective", objective, *ANNEAL_OPTIONS, "--out", tmp / name]
            out.update(by_workers(argv, {name: tmp / name}))
    run_ok(["sample", "--dim", 3, "--samples", 20, "--seed", 5, "--out", tmp / "sample"])
    out["sample-dim3"] = sha256(b"".join((tmp / f"sample_{i:05d}.json").read_bytes() for i in range(20)))
    inputs = workloads.make_inputs(1, tmp / "compare")
    tables = [run(["compare", p.path_a, p.path_b, "--seed", k]) for k, p in enumerate(inputs.pairs)]
    out["compare-tables"] = sha256("".join(f"{status}\n{text}" for status, text in tables).encode())
    out["defects"] = sha256("".join(repr(audit.triangle_defect(*t)) for t in inputs.triplets).encode())
    out["state-paths"] = sha256(b"".join(state_paths(p.rho, p.sigma) for p in inputs.pairs))
    out["relative-entropy"] = sha256("".join(relative_entropy(p.rho, p.sigma) for p in inputs.pairs).encode())
    dh = [divergences.d_h_by_optimization(rho, sigma, restarts=2, seed=k, schedule=DH_SCHEDULE)
          for dim in (2, 3) for k, (rho, sigma) in enumerate(inputs.dh_pairs[dim])]
    out["dh"] = sha256("".join(map(repr, dh)).encode())
    out["classical"] = sha256("".join(repr(float(v)) for v in classical_values()).encode())
    scans = [run(["purescan", *extra]) for extra in PURESCANS]
    out["purescan"] = sha256("".join(f"{status}\n{text}" for status, text in scans).encode())
    return out


def build() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="record the current outputs as the manifest entry of this sampler_version")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        got = collect(Path(tmp))
    elapsed = time.perf_counter() - t0
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    version = str(audit.SAMPLER_VERSION)
    entry = manifest.get(version)
    want = entry["outputs"] if entry else {}
    changed = [name for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    if entry is not None and {k: entry[k] for k in ("numpy", "blas")} != build():
        print(f"golden: recorded with numpy {entry['numpy']} and {entry['blas']}, running "
              f"numpy {build()['numpy']} and {build()['blas']}; the hashes may not carry over")
    for name in changed:
        print(f"golden: {name}: {want.get(name, 'absent')} -> {got.get(name, 'absent')}")

    if args.write:
        split = sorted(name for name, h in got.items() if h == SPLIT)
        if split:
            print(f"golden: nothing written; {', '.join(split)} {SPLIT}")
            return 1
        manifest[version] = {**build(), "outputs": dict(sorted(got.items()))}
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"golden: wrote {len(got)} outputs for sampler_version {version} to {MANIFEST}, "
              f"{len(changed)} changed ({elapsed:.1f} s)")
        return 0

    if entry is None:
        print(f"golden: {MANIFEST} has no entry for sampler_version {version}; record one with --write")
        return 1
    print(f"golden: sampler_version {version}: {sum(n not in changed for n in want)} of {len(want)} outputs match, "
          f"{len(changed)} changed ({elapsed:.1f} s)")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
