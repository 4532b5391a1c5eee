"""Per-layer tracing from outside the program.

While installed, the tracer replaces module attributes of qjsd (and two numpy
entry points) with timed wrappers. A wrapper records a span only while an
operation of one of its contexts runs (`audit`, `anneal`, `dh`, `compare` or
`defect`), so the same numpy function is charged to the layer that called it.
Each span's self time is its duration minus the time of its child spans.
Spans are summed in memory per (context, name); the first `SPAN_CAP` raw spans
are also kept and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import RESTARTS

SPAN_CAP = 20000

# (metric, context, span names whose self times it sums)
SELF_TIME = [
    ("states.seed_s", "audit", ("seed",)),
    ("states.draw_s", "audit", ("draw",)),
    ("states.assemble_s", "audit", ("assemble",)),
    ("audit.eig_s", "audit", ("eig",)),
    ("audit.entropy_s", "audit", ("entropy",)),
    ("audit.self_s", "audit", ("op",)),
    ("anneal.decode_s", "anneal", ("decode",)),
    ("anneal.eig_s", "anneal", ("eig",)),
    ("anneal.entropy_s", "anneal", ("entropy",)),
    ("anneal.normalize_s", "anneal", ("normalize",)),
    ("anneal.self_s", "anneal", ("op", "objective")),
    ("dh.polar_s", "dh", ("polar",)),
    ("dh.eig_s", "dh", ("eig",)),
    ("dh.self_s", "dh", ("op",)),
    ("cli.self_s", "compare", ("op",)),
    ("cli.dump_s", "compare", ("dump",)),
    ("states.read_s", "compare", ("read",)),
    ("divergences.djs1_s", "compare", ("djs1",)),
    ("divergences.fidelity_s", "compare", ("fidelity",)),
    ("divergences.spectral_s", "compare", ("spectral",)),
    ("divergences.hs_s", "compare", ("hs",)),
]


class CountingRng:
    """Forwards the two draws `draw_state_params` makes; counts its attempts."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._rng.standard_normal(*args, **kwargs)

    def standard_exponential(self, *args, **kwargs):
        self._tracer.counts[("audit", "attempts")] += 1
        return self._rng.standard_exponential(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.ctx = None
        self.stats = defaultdict(lambda: [0, 0.0])  # (ctx, name) -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.ops = defaultdict(int)
        self.spans = []  # (ctx, name, start, end, parent index), the first SPAN_CAP
        self._stack = []  # [name, start, child seconds, span index]
        self._saved = []

    def _enter(self, name):
        self._stack.append([name, perf_counter(), 0.0, -1])

    def _exit(self):
        end = perf_counter()
        name, start, child, _ = frame = self._stack.pop()
        dur = end - start
        st = self.stats[(self.ctx, name)]
        st[0] += 1
        st[1] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < SPAN_CAP:
            frame[3] = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append((self.ctx, name, start, end, parent))

    @contextmanager
    def op(self, ctx):
        """Root span of one benchmark operation; sets the context of its children."""
        self.ctx = ctx
        self.ops[ctx] += 1
        self._enter("op")
        try:
            yield
        finally:
            self._exit()
            self.ctx = None

    def _wrap(self, fn, name, contexts, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.ctx not in contexts:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _patch(self, obj, attr, wrapper_of):
        if isinstance(obj, dict):
            orig = obj[attr]
            obj[attr] = wrapper_of(orig)
        else:
            orig = getattr(obj, attr)
            setattr(obj, attr, wrapper_of(orig))
        self._saved.append((obj, attr, orig))

    def install(self):
        from qjsd import anneal, audit, cli, divergences

        def count_matrices(w):
            self.counts[(self.ctx, "eig_matrices")] += w.size // w.shape[-1]

        def counting_rng(args):
            return (CountingRng(args[0], self),) + tuple(args[1:])

        table = [
            (audit, "derive_seed", "seed", {"audit"}, None, None),
            (np.random, "default_rng", "seed", {"audit"}, None, None),
            (audit, "draw_state_params", "draw", {"audit"}, counting_rng, None),
            (audit, "states_from_params", "assemble", {"audit"}, None, None),
            (audit, "entropy_from_eigenvalues", "entropy", {"audit"}, None, None),
            (np.linalg, "eigvalsh", "eig", {"audit", "anneal", "dh"}, None, count_matrices),
            (anneal, "_decode_triplet", "decode", {"anneal"}, None, None),
            (anneal, "entropy_from_eigenvalues", "entropy", {"anneal"}, None, None),
            (anneal, "_normalize_blocks", "normalize", {"anneal"}, None, None),
            (anneal._OBJECTIVES, "single", "objective", {"anneal"}, None, None),
            (divergences, "_unitary_from_params", "polar", {"dh"}, None, None),
            (cli, "read_state_file", "read", {"compare"}, None, None),
            (cli, "_dump", "dump", {"compare"}, None, None),
            (divergences, "qjsd", "qjsd", {"compare", "defect"}, None, None),
            (divergences, "qjsd_sqrt", "qjsd", {"compare", "defect"}, None, None),
            (divergences, "qjsd_spectral", "spectral", {"compare"}, None, None),
            (divergences, "hilbert_schmidt_distance", "hs", {"compare"}, None, None),
            (divergences, "fidelity", "fidelity", {"compare"}, None, None),
            (divergences, "d_h_closed_form", "fidelity", {"compare"}, None, None),
            (divergences, "djs1_lower_bound", "djs1", {"compare"}, None, None),
        ]
        for obj, attr, name, contexts, before, after in table:
            self._patch(obj, attr, lambda fn, n=name, c=contexts, b=before, a=after: self._wrap(fn, n, c, b, a))

    def uninstall(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            if isinstance(obj, dict):
                obj[attr] = orig
            else:
                setattr(obj, attr, orig)

    def per_layer(self, rounds: int, overhead_ratio: float) -> dict:
        """Per-layer metrics, normalised per round of the workload."""
        def self_s(ctx, names):
            return sum(self.stats[(ctx, n)][1] for n in names if (ctx, n) in self.stats)

        def calls(ctx, name):
            return self.stats[(ctx, name)][0] if (ctx, name) in self.stats else 0

        out = {m: (self_s(ctx, names) / rounds, "s/round") for m, ctx, names in SELF_TIME}
        out["divergences.qjsd_s"] = ((self_s("compare", ("qjsd",)) + self_s("defect", ("qjsd",))) / rounds, "s/round")
        draws, attempts = calls("audit", "draw"), self.counts[("audit", "attempts")]
        out["states.draw_calls"] = (draws / rounds, "count/round")
        out["states.draw_attempts"] = (attempts / rounds, "count/round")
        out["states.accept_ratio"] = (draws / attempts if attempts else 0.0, "ratio")
        out["audit.eig_matrices"] = (self.counts[("audit", "eig_matrices")] / rounds, "count/round")
        chains = RESTARTS * self.ops["anneal"]
        proposals = calls("anneal", "objective") - chains
        accepted = calls("anneal", "normalize") - chains
        out["anneal.objective_calls"] = (calls("anneal", "objective") / rounds, "count/round")
        out["anneal.accept_ratio"] = (accepted / proposals if proposals else 0.0, "ratio")
        out["dh.objective_calls"] = (calls("dh", "polar") / rounds, "count/round")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")  # traced over untraced operation time
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}

    def write(self, path, rounds: int) -> None:
        """The raw spans kept and the per-(context, name) sums, as JSON."""
        names = ["ctx", "name", "start", "end", "parent"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "rounds": rounds,
                    "span_cap": SPAN_CAP,
                    "sums": {f"{c}/{n}": {"calls": k, "self_s": s} for (c, n), (k, s) in sorted(self.stats.items())},
                    "counts": {f"{c}/{n}": v for (c, n), v in sorted(self.counts.items())},
                    "spans": [dict(zip(names, s)) for s in self.spans],
                },
                fh,
            )
