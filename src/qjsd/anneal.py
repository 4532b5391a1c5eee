"""Simulated-annealing minimization of the triangle defect of the quantum
Jensen-Shannon metric candidate.

A triplet of states (rho, xi, sigma) is encoded as three unconstrained real
blocks, each decoding to a state through A -> A A† / Tr(A A†), so every
proposal is a valid triplet and no repair step is needed. Proposals are
Gaussian with standard deviation proportional to the current temperature;
acceptance is Metropolis. The minimizer is deliberately adversarial: a
negative best objective would be a counterexample to the triangle
inequality and is surfaced loudly by the CLI, never clipped.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .divergences import entropy_from_eigenvalues  # noqa: F401 -- bench/tracing.py patches this name
from .divergences import defect_from_sides, qjsd_sides
from .errors import DegenerateBlock, InvalidConfig
from .states import check_cap, check_count, check_real, check_seed, derive_seed, map_groups, state_to_dict

_TRACE_FLOOR = 1e-30
# cap on what one minimize call holds at once: each restart's row and one
# best value per temperature, at about 21 B per entry (tracemalloc, dim 2),
# also while `qjsd anneal` streams its JSON
_MAX_RUN_ENTRIES = 7 * 10**6
# sides (D01, D12, D20) reordered so that defect_from_sides pivots on states 1, 0 and 2
_PIVOTS = np.array([[0, 1, 2], [0, 2, 1], [2, 1, 0]])


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule with temperature-scaled proposals."""

    steps_per_temperature: int
    t_initial: float = 1.0
    t_final: float = 1e-6
    cooling_ratio: float = 0.95
    proposal_scale_ratio: float = 1.0

    def validate(self) -> "AnnealSchedule":
        """This schedule with an int step count and float fields; InvalidConfig if one is out of range."""
        return replace(
            self,
            steps_per_temperature=check_count("steps_per_temperature", self.steps_per_temperature),
            t_final=check_real("t_final", self.t_final, 0.0),  # checked first: it bounds t_initial below
            t_initial=check_real("t_initial", self.t_initial, self.t_final),  # an infinite t_initial never cools
            cooling_ratio=check_real("cooling_ratio", self.cooling_ratio, 0.0, 1.0),
            proposal_scale_ratio=check_real("proposal_scale_ratio", self.proposal_scale_ratio, 0.0),
        )

    @classmethod
    def defaults_for(cls, n_params: int) -> "AnnealSchedule":
        """Default budget: 200 chain steps per temperature per parameter."""
        return cls(steps_per_temperature=200 * n_params)


def _decode_triplet(params: np.ndarray, dim: int) -> np.ndarray:
    """Decode consecutive 2*dim^2-real blocks into density matrices, each via
    A A† / Tr(A A†): (..., blocks * 2*dim^2) -> (..., blocks, dim, dim).

    Scale-invariant: any nonzero rescaling of a block decodes to the same
    state. Raises DegenerateBlock when a trace underflows.
    """
    x = np.asarray(params, dtype=np.float64)
    x = x.reshape(x.shape[:-1] + (-1, 2, dim, dim))
    a = np.empty(x.shape[:-3] + (dim, dim), dtype=np.complex128)
    a.real = x[..., 0, :, :]
    a.imag = x[..., 1, :, :]
    g = a @ a.conj().swapaxes(-2, -1)
    tr = g.trace(axis1=-2, axis2=-1).real
    if tr.min() <= _TRACE_FLOOR:
        raise DegenerateBlock(f"Tr(A A†) = {float(tr.min())!r}")
    g /= tr[..., None, None]
    return g


def objective_single(params: np.ndarray, dim: int):
    """Triangle defect d(rho,xi) + d(xi,sigma) - d(rho,sigma) of the decoded triplet.

    Takes one parameter vector, giving a numpy float64 scalar (a float), or a
    stack (..., 6*dim^2), giving an array of the leading shape; each row's
    value is bit for bit what the row alone gives.
    """
    return defect_from_sides(qjsd_sides(_decode_triplet(params, dim)))


def objective_symmetrized(params: np.ndarray, dim: int):
    """Mean triangle defect over the three choices of pivot state.

    The three defects sum to the perimeter, so this is (d01 + d12 + d02) / 3.
    It is therefore never negative and cannot exhibit a triangle violation;
    its minimum 0 is reached on every coincident triplet, wherever it lies.
    Takes one parameter vector or a stack, as objective_single does.
    """
    t = defect_from_sides(qjsd_sides(_decode_triplet(params, dim)).take(_PIVOTS, axis=-1))
    return (t[..., 0] + t[..., 1] + t[..., 2]) / 3.0


_OBJECTIVES = {"single": objective_single, "symmetrized": objective_symmetrized}


def _normalize_blocks(params: np.ndarray, dim: int) -> np.ndarray:
    """Rescale each block of 2*dim^2 reals to Frobenius norm sqrt(dim); decode-equivalent.

    Takes one vector or a stack (..., blocks * 2*dim^2): 3 blocks per triplet
    row, 1 per d_h_by_optimization row. Without it, block norms random-walk
    upward in the hot phase and the proposals stop moving the decoded states.
    """
    b = params.reshape(params.shape[:-1] + (-1, 2 * dim * dim))
    nrm = np.sqrt(np.add.reduce(b * b, axis=-1, keepdims=True))  # np.linalg.norm's own formula
    nrm /= math.sqrt(dim)
    return np.divide(b, nrm, out=b.copy(), where=nrm > 0.0).reshape(params.shape)


def _chains(
    objective: Callable[[np.ndarray], np.ndarray],
    dim: int,
    n_params: int,
    schedule: AnnealSchedule,
    seed: int,
    restarts: Sequence[int],
) -> list[tuple[float, np.ndarray, list[float]]]:
    """Metropolis chains of the listed restarts through the cooling schedule,
    advanced in lockstep as the rows of one array; returns each one's
    best-ever objective, point and best-so-far trace.

    Each step makes one objective call and, if any row accepts, one
    _normalize_blocks call over all rows. Restart r draws from its own
    derive_seed(seed, r) stream in the order a lone chain would (proposal
    noise, then a Metropolis uniform only when the proposal goes uphill), so
    every row is bit for bit the chain of its restart run alone, in any
    company and in any process.
    """
    rngs = [np.random.default_rng(derive_seed(seed, r)) for r in restarts]
    x = _normalize_blocks(np.stack([rng.standard_normal(n_params) for rng in rngs]), dim)
    fx = objective(x).tolist()
    best_f, best_x = list(fx), x.copy()
    cand = np.empty_like(x)
    trace: list[list[float]] = []  # per temperature, one best value per row
    t = schedule.t_initial
    while t > schedule.t_final:
        sigma = schedule.proposal_scale_ratio * t
        for _ in range(schedule.steps_per_temperature):
            for rng, row in zip(rngs, cand):
                rng.standard_normal(out=row)
            cand *= sigma  # cand = x + sigma * noise, in the proposal's buffer
            cand += x
            fc = objective(cand).tolist()
            accept = []
            for i, (c, f) in enumerate(zip(fc, fx)):
                delta = (c - f) / t  # a NaN fails both tests
                if c <= f or delta < 700.0 and rngs[i].random() < math.exp(-delta):
                    accept.append(i)
            if accept:
                kept = _normalize_blocks(cand, dim)
                for i in accept:
                    x[i] = kept[i]
                    fx[i] = fc[i]
                    if fc[i] < best_f[i]:
                        best_x[i] = kept[i]
                        best_f[i] = fc[i]
        trace.append(list(best_f))
        t *= schedule.cooling_ratio
    return [(f, bx, list(tr)) for f, bx, tr in zip(best_f, best_x, zip(*trace))]


def minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    dim: int,
    blocks: int,
    schedule: AnnealSchedule,
    seed: int = 0,
    restarts: int = 1,
    *,
    workers: int = 1,
) -> tuple[float, np.ndarray, list[list[float]]]:
    """Best-of-restarts annealing over rows of `blocks` blocks of 2*dim^2
    reals; returns the best objective, its parameters and each restart's
    best-so-far trace.

    The restarts run in lockstep as the rows of one (restarts, n_params)
    array, n_params = blocks * 2*dim^2. So `objective` maps rows
    (K, n_params) to values (K,), and must treat each row as it would treat
    it alone; every kept point is gauged by _normalize_blocks, which does.
    The outcome is then bit-identical to running each restart alone.

    Each restart owns a derived RNG stream and ties keep the earliest
    restart, so the result does not depend on `workers`. The restarts are
    split into groups by states.map_groups, whose picklability rule then
    applies to `objective`.

    At most 7 * 10**6 entries, restarts * (temperatures + n_params), are
    held at once; a larger run raises InvalidConfig before it starts.
    """
    dim, blocks = check_count("dim", dim), check_count("blocks", blocks)
    schedule = schedule.validate()
    restarts, seed = check_count("restarts", restarts), check_seed(seed)
    n_params = blocks * 2 * dim * dim
    temperatures = math.ceil(
        (math.log(schedule.t_final) - math.log(schedule.t_initial)) / math.log(schedule.cooling_ratio)
    )
    check_cap("restarts * (temperatures + n_params)", restarts * (temperatures + n_params),
              _MAX_RUN_ENTRIES, "trace and parameter entries")
    chains = partial(_chains, objective, dim, n_params, schedule, seed)
    outcomes = [o for part in map_groups(chains, restarts, workers) for o in part]
    best_f, best_x, _ = min(outcomes, key=lambda o: o[0])  # min keeps the first of equals
    return best_f, best_x, [trace for _, _, trace in outcomes]


@dataclass
class AnnealResult:
    """Outcome of an annealing run over state triplets."""

    best_objective: float
    best_params: np.ndarray
    decoded_states: list[np.ndarray]
    objective_trace: list[list[float]] = field(repr=False)
    schedule: AnnealSchedule
    seed: int
    dim: int
    objective: str


def run_anneal(
    objective: str,
    dim: int,
    schedule: AnnealSchedule,
    seed: int = 0,
    restarts: int = 1,
    workers: int = 1,
) -> AnnealResult:
    """Anneal a state triplet against the chosen defect objective.

    Deterministic given (objective, dim, schedule, seed, restarts), no matter
    how many workers execute the restarts. The result records the schedule
    as checked; AnnealSchedule.defaults_for(6 * dim**2) is the default budget.
    """
    if objective not in _OBJECTIVES:
        raise InvalidConfig(f"objective must be one of {sorted(_OBJECTIVES)}, got {objective!r}")
    dim, seed = check_count("dim", dim, least=2), check_seed(seed)
    schedule = schedule.validate()
    best_f, best_x, traces = minimize(
        partial(_OBJECTIVES[objective], dim=dim), dim, 3, schedule, seed, restarts, workers=workers
    )
    states = list(_decode_triplet(best_x, dim))
    if objective == "single":
        # The defect is exactly invariant under exchanging the outer states,
        # so the minimum's degenerate branch (pivot = one outer state) carries
        # arbitrary labels; orient the orbit so the merged pair is (rho, xi).
        if np.linalg.norm(states[1] - states[2]) < np.linalg.norm(states[1] - states[0]):
            states = [states[2], states[1], states[0]]
            blocks = best_x.reshape(3, -1)
            best_x = np.concatenate([blocks[2], blocks[1], blocks[0]])
    return AnnealResult(
        best_objective=best_f,
        best_params=best_x,
        decoded_states=states,
        objective_trace=traces,
        seed=seed,
        dim=dim,
        objective=objective,
        schedule=schedule,
    )


def result_to_dict(result: AnnealResult) -> dict:
    return {
        "best_objective": result.best_objective,
        "seed": result.seed,
        "dim": result.dim,
        "objective": result.objective,
        "schedule": asdict(result.schedule),
        "decoded_states": [state_to_dict(s) for s in result.decoded_states],
        "objective_trace": result.objective_trace,
    }
