"""The benchmark's tracer patches module attributes of qjsd by name; a refactor
that drops one of those names must fail here rather than in a traced run."""

import sys
from pathlib import Path

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
