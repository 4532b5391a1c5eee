import numpy as np
import pytest

import qjsd.states as states_mod
from qjsd.states import unitaries_from_ginibre
from reference import projective_povm


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One Haar-random unitary drawn from rng."""
    s = rng.standard_normal((2, dim, dim))
    z = (s[0] + 1j * s[1]) / np.sqrt(2.0)
    return unitaries_from_ginibre(z[None])[0]


def simplex_point(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform point on the probability simplex (normalized exponentials)."""
    e = rng.standard_exponential(dim)
    return e / e.sum()


def rand_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def rand_pure(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def projector(psi):
    """The pure state |psi><psi| of a unit vector."""
    return np.outer(psi, psi.conj())


def reduced_first(psi, dim_a):
    """Reduced state on the first factor (dim dim_a) of a bipartite pure state."""
    r = psi.reshape(dim_a, -1)
    return r @ r.conj().T


def rand_density(rng, n):
    u = haar_unitary(rng, n)
    lam = simplex_point(rng, n)
    return (u * lam) @ u.conj().T


def commuting_pair(rng, n):
    """Two states diagonal in one random basis."""
    u = haar_unitary(rng, n)
    lam = simplex_point(rng, n)
    mu = simplex_point(rng, n)
    return (u * lam) @ u.conj().T, (u * mu) @ u.conj().T, u, lam, mu


def random_povm(rng, n):
    """Projective, smoothed, or coarse-grained random POVM."""
    elements = projective_povm(haar_unitary(rng, n))
    kind = rng.integers(3)
    if kind == 1:
        alpha = float(rng.uniform(0.1, 1.0))
        eye = np.eye(n)
        elements = [(e + alpha * eye / n) / (1.0 + alpha) for e in elements]
    elif kind == 2 and n > 2:
        elements = [elements[0] + elements[1]] + elements[2:]
    return elements


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool states.map_groups opens; a stand-in pool
    maps in this process, so no process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(states_mod, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.fixture
def small_arange(monkeypatch):
    """np.arange refuses more than 10**6 + 1 entries (a million histogram
    bins), so a test of the bin cap fails instead of allocating gigabytes."""
    arange = np.arange

    def guarded(stop, *args, **kwargs):
        assert stop <= 10**6 + 1, f"np.arange asked for {stop} entries"
        return arange(stop, *args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)


@pytest.fixture
def small_linspace(monkeypatch):
    """np.linspace refuses more than 56 points, the largest grid_steps whose
    pair grid of grid_steps**4 points is within pure_triangle_scan's cap, so
    a test of that cap fails instead of allocating gigabytes."""
    linspace = np.linspace

    def guarded(start, stop, num=50, *args, **kwargs):
        assert num <= 56, f"np.linspace asked for {num} points"
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
