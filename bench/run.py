"""Benchmark of the qjsd package: one workload per run.

    python3 bench/run.py --workload audit-dim4 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It imports qjsd from `src/` of that checkout,
makes its inputs from --seed, repeats whole rounds of the workload for about
--seconds seconds, checks every output, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 each round runs once
untraced and once traced, the two outputs must match byte for byte, and the
metrics are the per-layer ones. Outputs go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """The commit of the checkout from .git, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(qjsd) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "qjsd": qjsd.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "argv": sys.argv[1:],
    }


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import qjsd from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qjsd"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qjsd" / "__init__.py").is_file():
        print(f"bench: no qjsd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qjsd

    if args.workload not in workloads.PLANS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    plan = workloads.PLANS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"states-{tag}-{os.getpid()}"

    # set-up: a fresh interpreter's import, input generation, one warm-up
    # operation of each kind; scaled by the calibration like operation times
    setups, warm_runners = [], []
    try:
        for _ in range(SETUP_REPEATS):
            cals = [workloads.calibrate() for _ in range(5)]
            t0 = time.perf_counter()
            import_s = import_seconds()
            shutil.rmtree(workdir, ignore_errors=True)
            inputs = workloads.make_inputs(args.seed, workdir)
            warm = workloads.Runner(inputs)
            warm.run(workloads.WARM_UP, calibrated=False)
            warm_runners.append(warm)
            raw = time.perf_counter() - t0
            cal = statistics.median(cals + [workloads.calibrate() for _ in range(5)])
            setups.append({"raw_s": raw, "import_s": import_s, "cal_s": cal,
                           "scaled_s": raw * workloads.CAL_REF / cal})
        result, record = measure(args, plan, inputs, warm_runners)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(s["scaled_s"] for s in setups)
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
    record.update(provenance=provenance(qjsd), setups=setups, result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def measure(args, plan, inputs, warm_runners):
    runner = workloads.Runner(inputs)
    tracer = Tracer() if args.trace else None
    traced = workloads.Runner(inputs, runner.reference, tracer) if tracer else None
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    rounds = 0
    need = 2 if args.trace else workloads.min_rounds(plan)
    while rounds < need or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        runner.run(plan)
        plain_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced.run(plan, calibrated=False)
                traced_s += time.perf_counter() - t0
            finally:
                tracer.uninstall()
        rounds += 1

    runners = warm_runners + [runner] + ([traced] if traced else [])
    failed = sum(x.failed for x in runners)
    attempted = sum(x.attempted for x in runners)
    for key, msg in [m for x in runners for m in x.problems]:
        print(f"bench: {key} failed: {msg}", file=sys.stderr)

    def calls(kind):
        return [t for k, ts in runner.times.items() if k[0] == kind for t in ts]

    def rate(kind):
        keys = [k for k in runner.times if k[0] == kind]
        return sum(runner.work[k] for k in keys) / sum(runner.median_time(k) for k in keys)

    compare = calls("compare")
    correct = bool(args.trace) or len(compare) >= 200  # p95 needs ten calls above it
    if args.trace:
        metrics = tracer.per_layer(rounds, traced.op_s / runner.op_s)
    else:
        p50, p95 = (float(v) * 1e3 for v in np.quantile(compare, (0.5, 0.95)))
        metrics = {
            "audit_triplets_per_s": {"value": rate("audit"), "unit": "triplets/s"},
            "anneal_steps_per_s": {"value": rate("anneal"), "unit": "steps/s"},
            "dh_steps_per_s": {"value": rate("dh"), "unit": "steps/s"},
            "compare_ms_p50": {"value": p50, "unit": "ms"},
            "compare_ms_p95": {"value": p95, "unit": "ms"},
            "defect_us_p50": {"value": statistics.median(calls("defect")) * 1e6, "unit": "us"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    outputs = hashlib.sha256()
    for op in plan:
        outputs.update(runner.reference[op.key][0])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "operations_per_round": len(plan),
        "outputs_sha256": outputs.hexdigest(),
        "compare_calls_timed": len(compare),
        "untraced_s": plain_s,
        "calibration_s": statistics.quantiles(runner.cals, n=10) if len(runner.cals) > 1 else runner.cals,
    }
    if tracer is not None:
        record["traced_s"] = traced_s
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", rounds)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


if __name__ == "__main__":
    sys.exit(main())
