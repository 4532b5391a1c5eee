"""Quantum Jensen-Shannon divergence and related quantum-state distances,
with Monte Carlo and simulated-annealing verification that the square root
of the divergence behaves as a metric."""

from .anneal import (
    AnnealResult,
    AnnealSchedule,
    minimize,
    objective_single,
    objective_symmetrized,
    run_anneal,
)
from .audit import (
    AuditReport,
    Histogram,
    TriangleSample,
    regenerate_triplet,
    run_audit,
    triangle_defect,
)
from .divergences import (
    d_h_by_optimization,
    d_h_closed_form,
    djs1_lower_bound,
    fidelity,
    hilbert_schmidt_distance,
    phi_pure,
    pure_triangle_scan,
    qjsd,
    qjsd_spectral,
    qjsd_sqrt,
    solve_pair,
    wootters_distance,
)
from .states import (
    derive_seed,
    purification,
    read_state_file,
    sample_states,
    write_state_file,
)

__version__ = "0.1.0"
