import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjsd.divergences import entropy_from_eigenvalues
from qjsd.errors import DimMismatch

from conftest import simplex_point
from reference import classical_jsd, classical_jsd_sqrt_metric_check, schoenberg_check

# value of -sum p log2 p at (1/4, 3/4), frozen from direct evaluation
H_QUARTER = 0.81127812445913286
JSD_HALF = 0.31127812445913286  # H(3/4,1/4) - 1/2


def test_shannon_deterministic():
    assert entropy_from_eigenvalues([1.0, 0.0]) == 0.0


def test_shannon_fair_bit():
    assert entropy_from_eigenvalues([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)


def test_shannon_quarter():
    assert entropy_from_eigenvalues([0.25, 0.75]) == pytest.approx(H_QUARTER, abs=1e-15)


def test_jsd_equal_is_zero():
    assert classical_jsd([0.2, 0.8], [0.2, 0.8]) == 0.0


def test_jsd_orthogonal_is_one():
    assert classical_jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_jsd_half():
    assert classical_jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(JSD_HALF, abs=1e-15)


def test_jsd_defined_on_disjoint_support():
    classical_jsd([1.0, 0.0, 0.0], [0.0, 0.5, 0.5])  # no support condition


def test_jsd_length_mismatch():
    with pytest.raises(DimMismatch):
        classical_jsd([1.0], [0.5, 0.5])


@st.composite
def prob_vectors(draw, size=4):
    raw = draw(
        st.lists(st.floats(1e-9, 1.0), min_size=size, max_size=size)
    )
    v = np.asarray(raw)
    return v / v.sum()


@settings(max_examples=200, deadline=None)
@given(prob_vectors(), prob_vectors())
def test_jsd_symmetric_and_bounded(p, q):
    d = classical_jsd(p, q)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert d == pytest.approx(classical_jsd(q, p), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(prob_vectors(size=3))
def test_shannon_bounds(p):
    h = entropy_from_eigenvalues(p)
    assert -1e-12 <= h <= np.log2(3) + 1e-12


def test_metric_check_degenerate_triplets():
    p = np.array([0.4, 0.6])
    assert classical_jsd_sqrt_metric_check([(p, p, p)]) == 0.0
    q = np.array([0.9, 0.1])
    assert classical_jsd_sqrt_metric_check([(p, p, q)]) == pytest.approx(0.0, abs=1e-15)
    assert classical_jsd_sqrt_metric_check([]) == np.inf
    with pytest.raises(DimMismatch):  # the triplets are stacked, so one length throughout
        classical_jsd_sqrt_metric_check([(p, p, q), (p, p, np.array([1.0]))])


def test_metric_check_random_dim4():
    rng = np.random.default_rng(7)
    trips = [tuple(simplex_point(rng, 4) for _ in range(3)) for _ in range(10_000)]
    assert classical_jsd_sqrt_metric_check(trips) >= -1e-12


def test_schoenberg_all_equal():
    p = np.array([0.5, 0.3, 0.2])
    assert schoenberg_check([1.0, -2.0, 1.0], [p, p, p]) == 0.0


def test_schoenberg_two_point_expansion():
    p, q = np.array([0.9, 0.1]), np.array([0.2, 0.8])
    got = schoenberg_check([1.0, -1.0], [p, q])
    assert type(got) is float
    assert got == pytest.approx(-2.0 * classical_jsd(p, q), abs=1e-14)
    assert got <= 0.0


def test_schoenberg_random_negative():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = 5
        c = rng.standard_normal(k)
        c -= c.mean()
        dists = [simplex_point(rng, 3) for _ in range(k)]
        assert schoenberg_check(c, dists) <= 1e-10


def test_schoenberg_validates_coefficients():
    with pytest.raises(ValueError):
        schoenberg_check([1.0, 1.0], [np.array([1.0]), np.array([1.0])])
    with pytest.raises(DimMismatch):  # distributions of unequal length
        schoenberg_check([1.0, -1.0], [np.array([1.0]), np.array([0.5, 0.5])])
