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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .divergences import entropy_from_eigenvalues  # noqa: F401 -- bench/tracing.py patches this name
from .divergences import qjsd_sides
from .errors import DegenerateBlock, InvalidConfig
from .states import derive_seed, state_to_dict

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
    """Decode any number of consecutive 2*dim^2-real blocks into a
    (blocks, dim, dim) stack of density matrices, as decode_state does one."""
    x = np.asarray(params, dtype=np.float64).reshape(-1, 2, dim, dim)
    a = x[:, 0] + 1j * x[:, 1]
    g = a @ np.conj(np.swapaxes(a, -2, -1))
    tr = np.trace(g, axis1=-2, axis2=-1).real
    if np.min(tr) <= _TRACE_FLOOR:
        raise DegenerateBlock(f"Tr(A A†) = {float(np.min(tr))!r}")
    return g / tr[:, None, None]


def objective_single(params: np.ndarray, dim: int) -> float:
    """Triangle defect d(rho,xi) + d(xi,sigma) - d(rho,sigma) of the decoded triplet."""
    d01, d12, d02 = np.sqrt(qjsd_sides(_decode_triplet(params, dim))).tolist()
    return d01 + d12 - d02


def objective_symmetrized(params: np.ndarray, dim: int) -> float:
    """Mean triangle defect over the three choices of pivot state.

    The three defects sum to the perimeter, so this is (d01 + d12 + d02) / 3.
    It is therefore never negative and cannot exhibit a triangle violation;
    its minimum 0 is reached on every coincident triplet, wherever it lies.
    """
    d01, d12, d02 = np.sqrt(qjsd_sides(_decode_triplet(params, dim))).tolist()
    return ((d01 + d12 - d02) + (d01 + d02 - d12) + (d02 + d12 - d01)) / 3.0


_OBJECTIVES = {"single": objective_single, "symmetrized": objective_symmetrized}


def _normalize_blocks(params: np.ndarray, dim: int) -> np.ndarray:
    """Rescale each block to Frobenius norm sqrt(dim); decode-equivalent.

    Without this, the block norms random-walk upward during the hot phase and
    the temperature-scaled proposals stop moving the decoded states.
    """
    b = params.reshape(3, -1)
    nrm = np.linalg.norm(b, axis=1, keepdims=True) / math.sqrt(dim)
    return (b / np.where(nrm > 0.0, nrm, 1.0)).reshape(-1)


def _chain(
    objective: Callable[[np.ndarray], float],
    n_params: int,
    schedule: AnnealSchedule,
    seed: int,
    restart: int,
    canonicalize: Callable[[np.ndarray], np.ndarray] | None,
) -> tuple[float, np.ndarray, list[float]]:
    """One Metropolis chain through the cooling schedule; returns best-ever.

    Restart r draws from derive_seed(seed, r), so a restart gives the same
    chain in any process.
    """
    rng = np.random.default_rng(derive_seed(seed, restart))
    x = rng.standard_normal(n_params)
    if canonicalize is not None:
        x = canonicalize(x)
    fx = objective(x)
    best_f, best_x = fx, x.copy()
    trace: list[float] = []
    t = schedule.t_initial
    while t > schedule.t_final:
        sigma = schedule.proposal_scale_ratio * t
        for _ in range(schedule.steps_per_temperature):
            cand = x + sigma * rng.standard_normal(n_params)
            fc = objective(cand)
            if fc <= fx:
                accept = True
            else:
                delta = (fc - fx) / t
                accept = delta < 700.0 and rng.random() < math.exp(-delta)
            if accept:
                x = canonicalize(cand) if canonicalize is not None else cand
                fx = fc
                if fc < best_f:
                    best_f, best_x = fc, x.copy()
        trace.append(best_f)
        t *= schedule.cooling_ratio
    return best_f, best_x, trace


def minimize(
    objective: Callable[[np.ndarray], float],
    n_params: int,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    restarts: int = 1,
    canonicalize: Callable[[np.ndarray], np.ndarray] | None = None,
    workers: int = 1,
) -> tuple[float, np.ndarray, list[list[float]]]:
    """Best-of-restarts annealing; returns the best objective, its parameters
    and each restart's best-so-far trace.

    The schedule defaults to AnnealSchedule.defaults_for(n_params). Each
    restart owns a derived RNG stream and ties keep the earliest restart, so
    the result does not depend on `workers`. With workers > 1 the restarts
    run in a process pool, and `objective` and `canonicalize` must then be
    picklable: top-level functions or functools.partial of them, not lambdas
    or closures.
    """
    if schedule is None:
        schedule = AnnealSchedule.defaults_for(n_params)
    schedule.validate()
    if restarts < 1:
        raise InvalidConfig(f"restarts must be >= 1, got {restarts}")
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    chain = partial(_chain, objective, n_params, schedule, seed, canonicalize=canonicalize)
    if workers > 1 and restarts > 1:
        with ProcessPoolExecutor(max_workers=min(workers, restarts)) as pool:
            outcomes = list(pool.map(chain, range(restarts)))
    else:
        outcomes = [chain(r) for r in range(restarts)]
    best_f, best_x, _ = min(outcomes, key=lambda o: o[0])  # min keeps the first of equals
    return best_f, best_x, [trace for _, _, trace in outcomes]


@dataclass
class AnnealResult:
    """Outcome of an annealing run over state triplets."""

    best_objective: float
    best_params: np.ndarray
    decoded_states: list[np.ndarray]
    objective_trace: list[list[float]] = field(repr=False)
    seed: int = 0
    dim: int = 2
    objective: str = "single"
    schedule: AnnealSchedule | None = None


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
    if dim < 2:
        raise InvalidConfig(f"dim must be >= 2, got {dim}")
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
    sched = result.schedule
    return {
        "best_objective": result.best_objective,
        "seed": result.seed,
        "dim": result.dim,
        "objective": result.objective,
        "schedule": {
            "t_initial": sched.t_initial,
            "t_final": sched.t_final,
            "cooling_ratio": sched.cooling_ratio,
            "steps_per_temperature": sched.steps_per_temperature,
            "proposal_scale_ratio": sched.proposal_scale_ratio,
        },
        "decoded_states": [state_to_dict(s) for s in result.decoded_states],
        "objective_trace": result.objective_trace,
    }
