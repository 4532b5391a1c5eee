"""Monte Carlo audit of the triangle inequality for the square root of the
quantum Jensen-Shannon divergence.

Each triplet index hashes to its own 64-bit triplet seed, and the three
states of a triplet are drawn from a counter-based stream keyed by
derive_seed(triplet_seed, t), t = 0, 1, 2 (see `qjsd.states`). A whole chunk
of triplets, `states.chunk_len(3, dim)` of them, is drawn in a few numpy
passes, and a run is reproducible triplet by triplet: the report records the
seeds of the smallest defects found, and `regenerate_triplet` rebuilds such a
triplet exactly, bit for bit, with no dependence on worker count, chunk
length or scheduling.

Reports carry `sampler_version`. Version 2 is the counter-based stream;
version 1, from reports without the field, drew each triplet from its own
numpy Generator, so its triplet seeds do not regenerate under version 2.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import divergences
from .divergences import entropy_from_eigenvalues  # noqa: F401 -- bench/tracing.py patches this name
from .divergences import defect_from_sides, qjsd_sides
from .errors import DimMismatch, InvalidConfig
from .states import (
    CounterStream,
    check_cap,
    check_count,
    check_real,
    check_sampling,
    check_seed,
    chunk_len,
    derive_seed,
    draw_state_params,
    map_groups,
    states_from_params,
)

log = logging.getLogger("qjsd.audit")

_K_SMALLEST = 10
# caps on what one call holds at once: the histogram edges, and a chunk's
# states at about 81 B per state entry (tracemalloc, dims 4 to 256)
_MAX_BINS = 10**6
_MAX_CHUNK_ENTRIES = 10**7
_TRIPLET = np.arange(3, dtype=np.uint64)  # state index within a triplet
SAMPLER_VERSION = 2


def triangle_defect(rho, xi, sigma) -> float:
    """d(rho, xi) + d(xi, sigma) - d(rho, sigma) with d the sqrt-QJSD.

    The middle argument is the pivot. Nonnegative everywhere if the triangle
    inequality holds; the audit hunts for counterexamples.

    The three sides come from one divergences.qjsd call, looked up at call
    time for bench/tracing.py, on the stacked pairs (rho, xi), (xi, sigma),
    (rho, sigma): nine eigensolves in one LAPACK call, with the bits of
    three single-pair calls.
    """
    states = [np.asarray(m) for m in (rho, xi, sigma)]
    if len({m.shape for m in states}) > 1 or states[0].ndim != 2:
        raise DimMismatch(f"expected three N x N states, got shapes {[m.shape for m in states]}")
    r, x, s = states
    return float(defect_from_sides(divergences.qjsd(np.stack([r, x, r]), np.stack([x, s, s]))))


@dataclass(frozen=True)
class Histogram:
    """Fixed-edge counting histogram with explicit under/overflow bins."""

    bin_edges: np.ndarray
    counts: np.ndarray
    underflow_count: int
    overflow_count: int
    total: int

    def probabilities(self) -> np.ndarray:
        if self.total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / self.total


def histogram_edges(bin_width: float, tail_max: float) -> np.ndarray:
    """Edges tiling [-tail_max, tail_max) in steps of bin_width."""
    bin_width, tail_max = check_real("bin_width", bin_width, 0.0), check_real("tail_max", tail_max, 0.0)
    bins = 2.0 * tail_max / bin_width  # inf when the quotient overflows
    check_cap("2*tail_max/bin_width", bins, _MAX_BINS, "histogram bins")
    nbins = int(round(bins))
    if nbins < 1 or abs(nbins * bin_width - 2.0 * tail_max) > 1e-9:
        raise InvalidConfig(
            f"bin_width {bin_width} does not tile [-{tail_max}, {tail_max})"
        )
    return -tail_max + bin_width * np.arange(nbins + 1)


@dataclass(frozen=True)
class TriangleSample:
    """One audited triplet: its defect and the seed that regenerates it."""

    defect: float
    triplet_index: int
    triplet_seed: int


@dataclass(frozen=True)
class AuditReport:
    """The outcome of run_audit. Its fields, and those of its Histogram and
    TriangleSamples, are the keys of the audit JSON file (see report_to_dict)."""

    dim: int
    samples: int
    seed: int
    tolerance: float
    violations: int
    noise_negatives: int  # defects in (-tolerance, 0), attributed to round-off
    histogram: Histogram
    smallest: tuple[TriangleSample, ...]
    mixedness_floor: float | None = None

    @property
    def min_defect(self) -> float:
        """The smallest defect of the run; equals smallest[0].defect."""
        return self.smallest[0].defect


def _by_defect(samples) -> list[TriangleSample]:
    """The _K_SMALLEST samples of least defect, ties broken by triplet index."""
    return sorted(samples, key=lambda s: (s.defect, s.triplet_index))[:_K_SMALLEST]


def _draw_triplets(seeds: np.ndarray, dim: int, floor: float | None):
    """The states (n, 3, dim, dim) and spectra (n, 3, dim) of the triplets
    with the given uint64 triplet seeds."""
    stream = CounterStream(derive_seed(seeds[:, None], _TRIPLET))
    z, lam = draw_state_params(stream, dim, floor)
    rhos = states_from_params(z, lam)
    return rhos.reshape(-1, 3, dim, dim), lam.reshape(-1, 3, dim)


def _shard(
    dim, seed, floor, samples, edges, tolerance, chunk, chunks: range
) -> tuple[np.ndarray, np.ndarray, list[TriangleSample]]:
    """Audit the triplets of the given chunks, `chunk` triplet indices each and
    none past `samples`; returns the tally and signs count arrays (see
    below) and the smallest defects."""
    start, stop = chunks.start * chunk, min(chunks.stop * chunk, samples)
    # tally holds the underflow, the bins and the overflow (NaN sorts last, into it);
    # signs the violations (below -tolerance), the noise (below 0) and the rest
    tally = np.zeros(edges.size + 1, dtype=np.int64)
    signs = np.zeros(3, dtype=np.int64)
    cuts = np.array([-tolerance, 0.0])
    smallest: list[TriangleSample] = []
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        seeds = derive_seed(seed, np.arange(lo, hi, dtype=np.uint64))
        rhos, lams = _draw_triplets(seeds, dim, floor)
        # state entropies come from the sampled spectra (rho = U diag(lam) U†)
        defects = defect_from_sides(qjsd_sides(rhos, spectra=lams))
        tally += np.bincount(np.searchsorted(edges, defects, side="right"), minlength=tally.size)
        signs += np.bincount(np.searchsorted(cuts, defects, side="right"), minlength=3)
        order = np.argsort(defects, kind="stable")[:_K_SMALLEST]
        smallest = _by_defect(
            smallest + [TriangleSample(float(defects[j]), lo + int(j), int(seeds[j])) for j in order]
        )
    return tally, signs, smallest


def run_audit(
    dim: int,
    samples: int,
    seed: int,
    bin_width: float = 0.002,
    tail_max: float = 0.2,
    tolerance: float = 1e-9,
    mixedness_floor: float | None = None,
    workers: int = 1,
) -> AuditReport:
    """Audit `samples` random triplets of dimension `dim` for triangle defects.

    The histogram resolves the tail [-tail_max, tail_max) at bin_width, with
    anything above falling into the overflow bin. Defects below -tolerance
    count as violations; defects in (-tolerance, 0) are logged as round-off
    noise. The report is identical for any worker count. A worker holds one
    chunk at a time, of states.chunk_len(3, dim) triplets: at most 512, and
    at most 49,152 state entries (about 4 MB) unless one triplet alone holds
    more. A chunk is capped at 10**7 state entries (dim <= 1825).
    """
    dim, mixedness_floor = check_sampling(dim, mixedness_floor)
    samples, seed = check_count("samples", samples), check_seed(seed)
    chunk = chunk_len(3, dim)
    chunk_entries = 3 * min(samples, chunk) * dim * dim  # held at once by each worker
    check_cap("3 * min(samples, chunk_len(3, dim)) * dim**2", chunk_entries, _MAX_CHUNK_ENTRIES, "state entries")
    tolerance = check_real("tolerance", tolerance, 0.0, inclusive=True)
    edges = histogram_edges(bin_width, tail_max)

    # shards are split by whole chunks so batch compositions, and hence every
    # floating-point result, match the single-worker run exactly
    shard = partial(_shard, dim, seed, mixedness_floor, samples, edges, tolerance, chunk)
    parts = map_groups(shard, (samples + chunk - 1) // chunk, workers)
    tallies, signs, tops = zip(*parts)
    tally, (violations, noise, _) = sum(tallies), sum(signs).tolist()

    if noise:
        log.info("dim=%d seed=%d: %d defects in (-%g, 0) attributed to round-off", dim, seed, noise, tolerance)
    if violations:
        log.warning("dim=%d seed=%d: %d TRIANGLE VIOLATIONS below -%g", dim, seed, violations, tolerance)

    return AuditReport(
        dim=dim,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        violations=violations,
        noise_negatives=noise,
        histogram=Histogram(edges, tally[1:-1], int(tally[0]), int(tally[-1]), total=samples),
        smallest=tuple(_by_defect(s for top in tops for s in top)),
        mixedness_floor=mixedness_floor,
    )


def regenerate_triplet(dim: int, triplet_seed: int, mixedness_floor: float | None = None):
    """Rebuild the (rho, xi, sigma) triplet recorded for a TriangleSample,
    bit for bit as the audit drew it, given the audit's dim and floor."""
    dim, mixedness_floor = check_sampling(dim, mixedness_floor)
    triplet_seed = check_count("triplet_seed", triplet_seed, least=0)
    if triplet_seed >= 2**64:
        raise InvalidConfig(f"triplet_seed must lie below 2**64, got {triplet_seed!r}")
    rhos, _ = _draw_triplets(np.array([triplet_seed], dtype=np.uint64), dim, mixedness_floor)
    return tuple(rhos[0])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def histogram_csv(hist: Histogram) -> str:
    """CSV with one row per bin plus underflow/overflow comment rows.

    Probabilities are per-bin counts over the full sample total, printed to
    12 significant digits.
    """
    lines = ["bin_low,bin_high,count,probability"]
    probs = hist.probabilities()
    for i in range(hist.counts.size):
        lines.append(
            f"{hist.bin_edges[i]:.12g},{hist.bin_edges[i + 1]:.12g},"
            f"{int(hist.counts[i])},{probs[i]:.12g}"
        )
    lines.append(f"# underflow,{hist.underflow_count}")
    lines.append(f"# overflow,{hist.overflow_count}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: AuditReport) -> dict:
    """The audit JSON object: the report's fields, with the histogram arrays as
    lists and `smallest` as `smallest_defects`, plus min_defect and sampler_version."""
    d = asdict(report)
    d["histogram"].update(bin_edges=report.histogram.bin_edges.tolist(), counts=report.histogram.counts.tolist())
    d["smallest_defects"] = list(d.pop("smallest"))
    return {**d, "min_defect": report.min_defect, "sampler_version": SAMPLER_VERSION}
