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
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .divergences import entropy_from_eigenvalues  # noqa: F401 -- bench/tracing.py patches this name
from .divergences import qjsd_sides
from .errors import DegenerateBlock, InvalidConfig
from .states import check_sampling, derive_seed, map_groups, state_to_dict

_TRACE_FLOOR = 1e-30


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule with temperature-scaled proposals."""

    steps_per_temperature: int
    t_initial: float = 1.0
    t_final: float = 1e-6
    cooling_ratio: float = 0.95
    proposal_scale_ratio: float = 1.0

    def validate(self) -> "AnnealSchedule":
        if not math.inf > self.t_initial > self.t_final > 0.0:  # an infinite t_initial never cools
            raise InvalidConfig(f"need inf > t_initial > t_final > 0, got {self.t_initial}, {self.t_final}")
        if not 0.0 < self.cooling_ratio < 1.0:
            raise InvalidConfig(f"cooling_ratio must lie in (0, 1), got {self.cooling_ratio}")
        if self.steps_per_temperature < 1:
            raise InvalidConfig(f"steps_per_temperature must be >= 1, got {self.steps_per_temperature}")
        if not math.inf > self.proposal_scale_ratio > 0.0:
            raise InvalidConfig(f"proposal_scale_ratio must lie in (0, inf), got {self.proposal_scale_ratio}")
        return self

    @classmethod
    def defaults_for(cls, n_params: int) -> "AnnealSchedule":
        """Default budget: 200 chain steps per temperature per parameter."""
        return cls(steps_per_temperature=200 * n_params)


def decode_state(block: np.ndarray, dim: int) -> np.ndarray:
    """Decode 2*dim^2 reals into a density matrix via A A† / Tr(A A†).

    Scale-invariant: any nonzero rescaling of the block decodes to the same
    state. Raises DegenerateBlock when the trace underflows.
    """
    return _decode_triplet(block, dim)[0]


def _decode_triplet(params: np.ndarray, dim: int) -> np.ndarray:
    """Decode consecutive 2*dim^2-real blocks into density matrices, as
    decode_state does one: (..., blocks * 2*dim^2) -> (..., blocks, dim, dim)."""
    x = np.asarray(params, dtype=np.float64)
    x = x.reshape(x.shape[:-1] + (-1, 2, dim, dim))
    a = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    g = a @ np.conj(np.swapaxes(a, -2, -1))
    tr = np.trace(g, axis1=-2, axis2=-1).real
    if np.min(tr) <= _TRACE_FLOOR:
        raise DegenerateBlock(f"Tr(A A†) = {float(np.min(tr))!r}")
    return g / tr[..., None, None]


def _sides(params: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = np.sqrt(qjsd_sides(_decode_triplet(params, dim)))
    return d[..., 0], d[..., 1], d[..., 2]


def _float_if_scalar(f):
    return float(f) if np.ndim(f) == 0 else f


def objective_single(params: np.ndarray, dim: int):
    """Triangle defect d(rho,xi) + d(xi,sigma) - d(rho,sigma) of the decoded triplet.

    Takes one parameter vector, giving a float, or a stack (..., 6*dim^2),
    giving an array of the leading shape; each row's value is bit for bit
    what the row alone gives.
    """
    d01, d12, d02 = _sides(params, dim)
    return _float_if_scalar(d01 + d12 - d02)


def objective_symmetrized(params: np.ndarray, dim: int):
    """Mean triangle defect over the three choices of pivot state.

    The three defects sum to the perimeter, so this is (d01 + d12 + d02) / 3.
    It is therefore never negative and cannot exhibit a triangle violation;
    its minimum 0 is reached on every coincident triplet, wherever it lies.
    Takes one parameter vector or a stack, as objective_single does.
    """
    d01, d12, d02 = _sides(params, dim)
    return _float_if_scalar(((d01 + d12 - d02) + (d01 + d02 - d12) + (d02 + d12 - d01)) / 3.0)


_OBJECTIVES = {"single": objective_single, "symmetrized": objective_symmetrized}


def _normalize_blocks(params: np.ndarray, dim: int) -> np.ndarray:
    """Rescale each block to Frobenius norm sqrt(dim); decode-equivalent.

    Takes one parameter vector or a stack (..., 6*dim^2). Without this, the
    block norms random-walk upward during the hot phase and the
    temperature-scaled proposals stop moving the decoded states.
    """
    b = params.reshape(params.shape[:-1] + (3, -1))
    nrm = np.linalg.norm(b, axis=-1, keepdims=True) / math.sqrt(dim)
    return (b / np.where(nrm > 0.0, nrm, 1.0)).reshape(params.shape)


def _chains(
    objective: Callable[[np.ndarray], np.ndarray],
    n_params: int,
    schedule: AnnealSchedule,
    seed: int,
    canonicalize: Callable[[np.ndarray], np.ndarray] | None,
    restarts: Sequence[int],
) -> list[tuple[float, np.ndarray, list[float]]]:
    """Metropolis chains of the listed restarts through the cooling schedule,
    advanced in lockstep as the rows of one array; returns each one's
    best-ever objective, point and best-so-far trace.

    Each step makes one objective call and, if any row accepts, one
    canonicalize call over all rows. Restart r draws from its own
    derive_seed(seed, r) stream in the order a lone chain would (proposal
    noise, then a Metropolis uniform only when the proposal goes uphill), so
    every row is bit for bit the chain of its restart run alone, in any
    company and in any process.
    """
    rngs = [np.random.default_rng(derive_seed(seed, r)) for r in restarts]
    x = np.stack([rng.standard_normal(n_params) for rng in rngs])
    if canonicalize is not None:
        x = canonicalize(x)
    fx = objective(x)
    best_f, best_x = fx.copy(), x.copy()
    noise = np.empty_like(x)
    trace: list[list[float]] = []  # per temperature, one best value per row
    t = schedule.t_initial
    while t > schedule.t_final:
        sigma = schedule.proposal_scale_ratio * t
        for _ in range(schedule.steps_per_temperature):
            for rng, row in zip(rngs, noise):
                rng.standard_normal(out=row)
            cand = x + sigma * noise
            fc = objective(cand)
            accept = fc <= fx
            for i in np.flatnonzero(~accept):
                delta = float(fc[i] - fx[i]) / t
                accept[i] = delta < 700.0 and rngs[i].random() < math.exp(-delta)
            if accept.any():
                if canonicalize is not None:
                    cand = canonicalize(cand)
                np.copyto(x, cand, where=accept[:, None])
                np.copyto(fx, fc, where=accept)
                better = accept & (fc < best_f)
                np.copyto(best_x, x, where=better[:, None])
                np.copyto(best_f, fc, where=better)
        trace.append(best_f.tolist())
        t *= schedule.cooling_ratio
    return [(f, bx, list(tr)) for f, bx, tr in zip(best_f.tolist(), best_x, zip(*trace))]


def minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    n_params: int,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    restarts: int = 1,
    canonicalize: Callable[[np.ndarray], np.ndarray] | None = None,
    workers: int = 1,
) -> tuple[float, np.ndarray, list[list[float]]]:
    """Best-of-restarts annealing; returns the best objective, its parameters
    and each restart's best-so-far trace.

    The restarts run in lockstep as the rows of one (restarts, n_params)
    array. So `objective` maps rows (K, n_params) to values (K,), and
    `canonicalize`, a decode-equivalent gauge applied to accepted points,
    maps rows to rows; both must treat each row as they would treat it
    alone. The outcome is then bit-identical to running each restart alone.

    The schedule defaults to AnnealSchedule.defaults_for(n_params). Each
    restart owns a derived RNG stream and ties keep the earliest restart, so
    the result does not depend on `workers`. The restarts are split into
    groups by states.map_groups, whose picklability rule then applies to
    `objective` and `canonicalize`.
    """
    if schedule is None:
        schedule = AnnealSchedule.defaults_for(n_params)
    schedule.validate()
    if restarts < 1:
        raise InvalidConfig(f"restarts must be >= 1, got {restarts}")
    chains = partial(_chains, objective, n_params, schedule, seed, canonicalize)
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
    schedule: AnnealSchedule  # required: the result file records it
    seed: int = 0
    dim: int = 2
    objective: str = "single"


def run_anneal(
    objective: str,
    dim: int,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    restarts: int = 1,
    workers: int = 1,
) -> AnnealResult:
    """Anneal a state triplet against the chosen defect objective.

    Deterministic given (objective, dim, schedule, seed, restarts), no matter
    how many workers execute the restarts.
    """
    if objective not in _OBJECTIVES:
        raise InvalidConfig(f"objective must be one of {sorted(_OBJECTIVES)}, got {objective!r}")
    check_sampling(dim)
    n_params = 6 * dim * dim
    if schedule is None:  # resolved here too: the result records it
        schedule = AnnealSchedule.defaults_for(n_params)
    best_f, best_x, traces = minimize(
        partial(_OBJECTIVES[objective], dim=dim), n_params, schedule, seed, restarts,
        partial(_normalize_blocks, dim=dim), workers,
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
