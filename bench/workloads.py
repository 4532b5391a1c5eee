"""Inputs, operations and round plans of the benchmark's workloads.

A run repeats whole rounds, and every round runs the same list of
operations on the same inputs, all drawn from --seed. The first time an
operation runs, its output is checked against the oracles; every later run
of it must give the same bytes.

Times are scaled by a calibration. The host this was built on alternates,
for tens of seconds to minutes at a time, between a fast mode and a mode
about 1.5x slower, and the slowdown hits interpreted code and LAPACK alike.
So the runner times fixed work (`calibrate`) every CAL_EVERY seconds, and
multiplies each operation's duration by CAL_REF / (the median of the
CAL_NEAR calibrations nearest to it in time): it reads as seconds on a host
whose calibration takes CAL_REF. The calibration calls nothing of qjsd, so
no change to the program can move it.

Every workload runs every kind of operation, because every run reports every
end-to-end metric: the kind the workload is named for takes most of the
round, and the other kinds run as short probes spread through it. Latencies
are taken over all scaled calls of a run; a throughput is total work over
the summed median scaled times of its operations. Inputs for `compare`,
`defect` and `dh` come from this file's own generator (scipy QR for Haar
unitaries, Dirichlet spectra), not from qjsd's sampler, so a sampler change
moves only the audit operations.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import zlib
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import linalg

import oracles

COMPARE_DIMS = range(2, 9)
PAIRS_PER_DIM = 30  # every third pair of each dimension, from the first, is pure
DH_POOL = 4  # state pairs per dimension for the d_h optimizer
RESTARTS = 2
CAL_EVERY = 0.05  # seconds between calibrations
CAL_NEAR = 5  # an operation is scaled by the median of the calibrations nearest in time
CAL_REF = 1.75e-3  # seconds; about the calibration's median time on the host this was built on


_CAL_SYM = np.random.default_rng(0).standard_normal((8, 4, 4))
_CAL_SYM = _CAL_SYM + np.swapaxes(_CAL_SYM, -1, -2)
_CAL_MAT = np.random.default_rng(1).standard_normal((6, 6))


def calibrate() -> float:
    """Seconds taken by fixed work in three parts: integer arithmetic, small
    float/list/dict objects, and small numpy and LAPACK calls. Together they
    track the host's slowdowns in the program's own mix better than any one."""
    t0 = perf_counter()
    s = 0
    for i in range(5000):
        s += i * i
    d = {}
    for i in range(750):
        x = [float(i), i * 0.5, math.sqrt(i + 1.0)]
        d[i % 97] = sum(x) / (1.0 + len(d))
    for _ in range(15):
        np.linalg.eigvalsh(_CAL_SYM)
        np.maximum(_CAL_MAT @ _CAL_MAT, 0.0).sum()
    return perf_counter() - t0


@dataclass(frozen=True)
class Schedule:
    """An AnnealSchedule of a tier-1 test's shape, with fewer steps per temperature."""

    steps_per_temperature: int
    t_initial: float
    t_final: float
    cooling_ratio: float
    proposal_scale_ratio: float

    def steps(self) -> int:
        """Chain steps of one run: temperatures x steps per temperature x restarts."""
        n, t = 0, self.t_initial
        while t > self.t_final:  # the loop of anneal._chain
            n += 1
            t *= self.cooling_ratio
        return n * self.steps_per_temperature * RESTARTS

    def build(self):
        from qjsd.anneal import AnnealSchedule

        return AnnealSchedule(
            steps_per_temperature=self.steps_per_temperature,
            t_initial=self.t_initial,
            t_final=self.t_final,
            cooling_ratio=self.cooling_ratio,
            proposal_scale_ratio=self.proposal_scale_ratio,
        )


ANNEAL_SCHEDULE = Schedule(8, 1.0, 1e-7, 0.85, 3.0)  # the tier-1 anneal fixture's shape
DH_SCHEDULE = Schedule(8, 0.5, 1e-6, 0.85, 10.0)  # criterion 8's shape
AUDIT_SAMPLES = 512  # one batched chunk of run_audit
AUDIT16_FLOOR = 0.85  # about the 10th percentile of linear entropy at N = 16


@dataclass(frozen=True)
class Op:
    kind: str  # audit, anneal, dh, compare or defect
    index: int  # which input of its kind and dimension
    dim: int
    floor: float | None = None
    schedule: Schedule | None = None
    samples: int = AUDIT_SAMPLES

    @property
    def key(self):
        return (self.kind, self.dim, self.floor, self.index)


def _spread(main: list, probes: list) -> list:
    """Interleave the probes evenly through the main operations."""
    slots = [(j / len(main), 0, op) for j, op in enumerate(main)]
    slots += [((j + 0.5) / len(probes), 1, op) for j, op in enumerate(probes)]
    return [op for _, _, op in sorted(slots, key=lambda s: s[:2])]


def _compare_ops(per_dim: int) -> list:
    """`qjsd compare` and `triangle_defect` on the first per_dim inputs of each dimension."""
    ops = []
    for d, n in enumerate(COMPARE_DIMS):
        for k in range(per_dim):
            i = d * PAIRS_PER_DIM + k
            ops += [Op("compare", i, n), Op("defect", i, n)]
    return ops


def _ops(kind: str, dim: int, count: int, floor=None) -> list:
    schedule = {"anneal": ANNEAL_SCHEDULE, "dh": DH_SCHEDULE}.get(kind)
    return [Op(kind, i, dim, floor, schedule) for i in range(count)]


_COMPARE_PROBE = _compare_ops(9)  # 63 pairs, a third of them pure
_AUDIT_PROBE = _ops("audit", 4, 4)
_ANNEAL_PROBE = _ops("anneal", 2, 2) + _ops("dh", 2, 2)
PLANS = {
    "audit-dim4": _spread(_ops("audit", 4, 20), _ANNEAL_PROBE + _COMPARE_PROBE),
    "audit-dim16-floor": _spread(_ops("audit", 16, 6, AUDIT16_FLOOR), _ANNEAL_PROBE + _COMPARE_PROBE),
    "anneal": _spread(
        _ops("anneal", 2, 2) + _ops("dh", 2, 2) + _ops("anneal", 3, 2) + _ops("dh", 3, 2),
        _AUDIT_PROBE + _COMPARE_PROBE,
    ),
    "compare": _spread(_compare_ops(PAIRS_PER_DIM), _AUDIT_PROBE + _ANNEAL_PROBE),
}


def min_rounds(plan: list) -> int:
    """Rounds for at least 200 compare calls, so that ten lie above p95; at least 3."""
    return max(3, math.ceil(200 / sum(op.kind == "compare" for op in plan)))


# one small operation of every kind, run before timing starts
WARM_UP = [
    Op("audit", 0, 4, samples=64),
    Op("anneal", 0, 2, schedule=Schedule(8, 1.0, 0.1, 0.5, 3.0)),
    Op("dh", 0, 2, schedule=Schedule(8, 0.5, 0.05, 0.5, 10.0)),
    Op("compare", 0, 2),
    Op("defect", 0, 2),
]


def sub_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def haar(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def mixed_state(rng, n: int) -> np.ndarray:
    u = haar(rng, n)
    rho = (u * rng.dirichlet(np.ones(n))) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


def pure_vector(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def write_state(rho, path: Path) -> None:
    """The state-file format: {"dim": N, "matrix": [[[re, im], ...], ...]}."""
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    path.write_text(json.dumps({"dim": rho.shape[0], "matrix": matrix}) + "\n", encoding="utf-8")


@dataclass
class Pair:
    path_a: str
    path_b: str
    rho: np.ndarray
    sigma: np.ndarray
    vectors: tuple | None  # (psi, phi) for a pure pair


@dataclass
class Inputs:
    seed: int
    pairs: list  # compare inputs, stored as state files
    triplets: list  # defect inputs
    dh_pairs: dict  # dim -> list of (rho, sigma)


def make_inputs(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng([seed, 0xC0])
    workdir.mkdir(parents=True, exist_ok=True)
    pairs, triplets = [], []
    for n in COMPARE_DIMS:
        for k in range(PAIRS_PER_DIM):
            pure = k % 3 == 0
            if pure:
                psi, phi = pure_vector(rng, n), pure_vector(rng, n)
                rho, sigma, vectors = np.outer(psi, psi.conj()), np.outer(phi, phi.conj()), (psi, phi)
                vs = [pure_vector(rng, n) for _ in range(3)]
                triplets.append(tuple(np.outer(v, v.conj()) for v in vs))
            else:
                rho, sigma, vectors = mixed_state(rng, n), mixed_state(rng, n), None
                triplets.append(tuple(mixed_state(rng, n) for _ in range(3)))
            a, b = workdir / f"d{n}_{k}_a.json", workdir / f"d{n}_{k}_b.json"
            write_state(rho, a)
            write_state(sigma, b)
            pairs.append(Pair(str(a), str(b), rho, sigma, vectors))
    dh_pairs = {n: [(mixed_state(rng, n), mixed_state(rng, n)) for _ in range(DH_POOL)] for n in (2, 3)}
    return Inputs(seed, pairs, triplets, dh_pairs)


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations, times the program calls, and checks the outputs.

    An operation fails when the program raises or returns a nonzero status,
    when its first output fails a check (then every run of it fails), or when
    a later output differs from the first by a single byte; a failure counts
    once in `failed`. `reference` maps each operation to its first output and
    that output's problems. It may be shared between runners, so that a
    traced runner is held to the untraced outputs.
    """

    def __init__(self, inputs: Inputs, reference: dict | None = None, tracer=None):
        self.inputs = inputs
        self.reference = {} if reference is None else reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (operation key, message), the first few
        self.times = {}  # operation key -> scaled seconds, one per round
        self.work = {}  # operation key -> work units
        self.cals = []  # calibration seconds, all rounds
        self.op_s = 0.0  # unscaled seconds of all operations that did not fail

    def run(self, plan: list, calibrated: bool = True) -> None:
        """One round; without calibration, times are neither scaled nor kept."""
        ran, cals, last = [], [], -math.inf
        for op in plan:
            if calibrated and perf_counter() - last >= CAL_EVERY:
                t0 = perf_counter()
                cals.append((t0, calibrate()))
                last = perf_counter()
            t0 = perf_counter()
            dt = self.run_op(op)
            if dt is not None:
                ran.append((op.key, t0 + dt / 2.0, dt))
        if not calibrated:
            return
        cals.append((perf_counter(), calibrate()))
        self.cals += [c for _, c in cals]
        cal_t = np.array([t for t, _ in cals])
        cal_v = np.array([c for _, c in cals])
        for key, mid, dt in ran:
            near = cal_v[np.argsort(np.abs(cal_t - mid))[:CAL_NEAR]]
            self.times.setdefault(key, []).append(dt * CAL_REF / float(np.median(near)))

    def median_time(self, key) -> float:
        return statistics.median(self.times[key])

    def run_op(self, op: Op) -> float | None:
        """Seconds the program took, or None if the operation failed."""
        self.attempted += 1
        call, check, work = self._prepare(op)
        scope = self.tracer.op(op.kind) if self.tracer is not None else nullcontext()
        try:
            with scope:
                t0 = perf_counter()
                out = call()
                dt = perf_counter() - t0
            blob, verify = check(out)
            if op.key not in self.reference:
                self.reference[op.key] = (blob, verify())
            first, problems = self.reference[op.key]
            if blob != first:
                problems = ["output differs from the first run of this operation"]
        except Exception as exc:  # a fault in the program fails this operation only
            problems = [f"raised {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append((op.key, "; ".join(problems)))
            return None
        self.work[op.key] = work
        self.op_s += dt
        return dt

    def _prepare(self, op: Op):
        """(call, check, work) for one operation; check(out) -> (bytes, verify)."""
        from qjsd import anneal, audit, cli, divergences

        seed = sub_seed(self.inputs.seed, zlib.crc32(repr(op.key).encode()))
        if op.kind == "audit":
            def check(report):
                d = audit.report_to_dict(report)
                csv = audit.histogram_csv(report.histogram)

                def verify():
                    triplets = {
                        t["triplet_seed"]: audit.regenerate_triplet(op.dim, t["triplet_seed"], op.floor)
                        for t in d["smallest_defects"]
                    }
                    return oracles.audit_problems(d, csv, op.samples, op.floor, triplets)

                return (json.dumps(d, sort_keys=True) + csv).encode(), verify

            def call():
                return audit.run_audit(dim=op.dim, samples=op.samples, seed=seed,
                                       mixedness_floor=op.floor, workers=1)

            return call, check, op.samples
        if op.kind == "anneal":
            def check(res):
                blob = json.dumps(anneal.result_to_dict(res), sort_keys=True).encode()
                return blob, lambda: oracles.anneal_problems(
                    res.best_objective, res.decoded_states, res.objective_trace)

            def call():
                return anneal.run_anneal("single", op.dim, schedule=op.schedule.build(), seed=seed,
                                         restarts=RESTARTS, workers=1)

            return call, check, op.schedule.steps()
        if op.kind == "dh":
            rho, sigma = self.inputs.dh_pairs[op.dim][op.index % DH_POOL]

            def call():
                return divergences.d_h_by_optimization(rho, sigma, restarts=RESTARTS, seed=seed,
                                                       schedule=op.schedule.build())

            return call, lambda v: (repr(v).encode(), lambda: oracles.d_h_problems(v, rho, sigma)), op.schedule.steps()
        if op.kind == "compare":
            pair = self.inputs.pairs[op.index]
            return lambda: compare(cli, pair, op.index), lambda out: check_compare(out, pair), 1
        triplet = self.inputs.triplets[op.index]
        return (
            lambda: audit.triangle_defect(*triplet),
            lambda v: (repr(v).encode(), lambda: oracles.defect_problems(v, triplet)),
            1,
        )


def compare(cli, pair: Pair, k: int):
    """`qjsd compare` in process; returns (exit status, standard output)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(["compare", pair.path_a, pair.path_b, "--seed", str(k)])
    return status, buf.getvalue()


def check_compare(out, pair: Pair):
    status, text = out

    def verify():
        if status != 0:
            return [f"exit status {status}"]
        return oracles.compare_problems(json.loads(text), pair.rho, pair.sigma, pair.vectors)

    return f"{status}\n{text}".encode(), verify
