"""The benchmark's tracer patches module attributes of qjsd by name; a refactor
that drops one of those names must fail here rather than in a traced run."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def _current(obj, attr):
    return obj[attr] if isinstance(obj, dict) else getattr(obj, attr)


def test_tracer_patches_and_restores_every_hook():
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises AttributeError or KeyError on a missing name
        patched = list(tracer._saved)
        assert patched
        for obj, attr, orig in patched:
            assert _current(obj, attr) is not orig
    finally:
        tracer.uninstall()
    for obj, attr, orig in patched:
        assert _current(obj, attr) is orig, attr


def test_every_hook_records_spans(tmp_path, capsys):
    """Each hook is still looked up at call time: a name the program binds
    early keeps its attribute, so the test above passes, but records nothing."""
    from qjsd import anneal, audit, cli, divergences
    from qjsd.states import write_state_file

    rho = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
    xi = np.diag([0.4, 0.6]).astype(complex)
    sigma = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    write_state_file(rho, tmp_path / "a.json")
    write_state_file(sigma, tmp_path / "b.json")
    tiny = anneal.AnnealSchedule(steps_per_temperature=2, t_initial=1.0, t_final=0.5, cooling_ratio=0.5)
    ops = {
        "anneal": lambda: anneal.run_anneal("single", 2, schedule=tiny, seed=0, restarts=1),
        "dh": lambda: divergences.d_h_by_optimization(rho, sigma, restarts=1, seed=0, schedule=tiny),
        "audit": lambda: audit.run_audit(dim=2, samples=4, seed=0),
        "compare": lambda: cli.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                                     "--restarts", "1"]),
        "defect": lambda: audit.triangle_defect(rho, xi, sigma),
    }
    expected = {
        "anneal": {"decode", "normalize", "objective"},
        "dh": {"polar"},
        "audit": {"seed", "draw", "assemble", "eig"},
        "compare": {"read", "dump", "djs1", "fidelity", "hs", "qjsd", "spectral"},
        "defect": {"qjsd"},
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for ctx, call in ops.items():
            with tracer.op(ctx):
                call()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for ctx, names in expected.items():
        recorded = {name for (c, name), (calls, _) in tracer.stats.items() if c == ctx and calls > 0}
        assert names <= recorded, (ctx, sorted(names - recorded))
