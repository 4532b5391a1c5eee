"""Command-line front end: audit, anneal, compare, sample, purescan.

All randomness flows from --seed; outputs are byte-identical across reruns
and worker counts. Exit 2 marks a counterexample: an audit triangle
violation, an annealed defect below -1e-9 or a purescan minimum below -1e-12.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import logging
import os
import sys

import numpy as np

from . import anneal as anneal_mod
from . import audit as audit_mod
from . import divergences as div
from .errors import DimMismatch, InvalidConfig, ParseError, QjsdError
from .states import _linear_entropy, check_count, chunk_len, read_state_file, sample_states, write_state_file

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

log = logging.getLogger("qjsd")


def _dump(obj, fh) -> None:
    """Write obj to the open text file fh as indented JSON and a newline. The
    encoder's output is streamed, never joined into one string in memory."""
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _schedule_from(args, n_params: int) -> anneal_mod.AnnealSchedule:
    """The default schedule for n_params, with the options given on the command line; run_anneal checks it."""
    names = [f.name for f in dataclasses.fields(anneal_mod.AnnealSchedule)]
    given = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    return dataclasses.replace(anneal_mod.AnnealSchedule.defaults_for(n_params), **given)


def _call(fn, args, **computed):
    """fn called with the computed arguments, and each other parameter set to the parsed
    option of its name; one with no option raises AttributeError, never takes its default."""
    names = inspect.signature(fn).parameters.keys() - computed.keys()
    return fn(**{k: getattr(args, k) for k in names}, **computed)


def cmd_audit(args) -> int:
    report = _call(audit_mod.run_audit, args)
    prefix = args.out or f"audit_dim{args.dim}_seed{args.seed}"
    with open(prefix + ".csv", "w", encoding="utf-8") as fh:
        fh.write(audit_mod.histogram_csv(report.histogram))
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        _dump(audit_mod.report_to_dict(report), fh)
    print(
        f"audit dim={args.dim} samples={args.samples} seed={args.seed}: "
        f"violations={report.violations} min_defect={report.min_defect:.6g}"
    )
    if report.violations:
        print("TRIANGLE INEQUALITY VIOLATED; counterexample seeds are in the report", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_anneal(args) -> int:
    n_params = 6 * check_count("dim", args.dim, least=2) ** 2  # dim first: the default schedule is built from it
    result = _call(anneal_mod.run_anneal, args, schedule=_schedule_from(args, n_params))
    out = args.out or f"anneal_dim{args.dim}_seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        _dump(anneal_mod.result_to_dict(result), fh)
    print(
        f"anneal dim={args.dim} objective={args.objective} seed={args.seed}: "
        f"best_objective={result.best_objective:.6g}"
    )
    if result.best_objective < -1e-9:
        print("NEGATIVE DEFECT FOUND; decoded states are in the result file", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_compare(args) -> int:
    rho = read_state_file(args.state_a)
    sigma = read_state_file(args.state_b)
    q = div.qjsd(rho, sigma)
    # one check of the pair, and one solve of its stack, for every entry below
    pair = div.solve_pair(rho, sigma)
    f = div.fidelity(pair)
    table = {
        "qjsd": q,
        "qjsd_spectral": div.qjsd_spectral(pair),
        "qjsd_sqrt": float(np.sqrt(q)),  # qjsd_sqrt(rho, sigma) without a second qjsd
        "hilbert_schmidt": div.hilbert_schmidt_distance(pair),
        "fidelity": f,
        "d_h_closed_form": float(np.sqrt(div.phi_pure(f))),  # d_h_closed_form(rho, sigma)
        "djs1_lower_bound": div.djs1_lower_bound(pair, restarts=args.restarts, seed=args.seed),
    }
    pure_cut = 1.0 - 1e-10
    # the purity test reads the pair's checked states, and the Wootters angle
    # the eigenvectors of rho and sigma, entries 1 and 2 of the pair's stack
    if 1.0 - _linear_entropy(pair.a) > pure_cut and 1.0 - _linear_entropy(pair.b) > pure_cut:
        table["wootters"] = div.wootters_distance(pair.v[1][:, -1], pair.v[2][:, -1])
    _dump(table, sys.stdout)
    return EXIT_OK


def cmd_sample(args) -> int:
    check_count("samples", args.samples)
    prefix = args.out or "state"
    chunk = chunk_len(1, check_count("dim", args.dim, least=2))
    for lo in range(0, args.samples, chunk):
        indices = np.arange(lo, min(lo + chunk, args.samples))
        for i, rho in zip(indices, _call(sample_states, args, indices=indices)):
            write_state_file(rho, f"{prefix}_{i:05d}.json")
    print(f"wrote {args.samples} state files with prefix {prefix!r}")
    return EXIT_OK


def cmd_purescan(args) -> int:
    res = _call(div.pure_triangle_scan, args)
    scan = {
        **res._asdict(),
        "a": [res.a.real, res.a.imag],
        "b": [res.b.real, res.b.imag],
        "grid_steps": args.grid_steps,
        "x_steps": args.x_steps,
    }
    _dump(scan, sys.stdout)
    return EXIT_OK if res.min_g >= -1e-12 else EXIT_COUNTEREXAMPLE


@functools.cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qjsd",
        description="Quantum Jensen-Shannon distances: compute, audit, anneal.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("audit", help="Monte Carlo triangle-inequality audit")
    a.add_argument("--dim", type=int, required=True)
    a.add_argument("--samples", type=int, required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--workers", type=int, default=1)
    a.add_argument("--bin-width", type=float, default=0.002)
    a.add_argument("--tail-max", type=float, default=0.2)
    a.add_argument("--tolerance", type=float, default=1e-9)
    a.add_argument("--mixedness-floor", type=float, default=None)
    a.add_argument("--out", help="output prefix for <out>.csv and <out>.json")
    a.set_defaults(func=cmd_audit)

    n = sub.add_parser("anneal", help="simulated-annealing defect minimization")
    n.add_argument("--dim", type=int, required=True)
    n.add_argument("--objective", choices=("single", "symmetrized"), default="single")
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--restarts", type=int, default=1)
    n.add_argument("--workers", type=int, default=1)
    # schedule overrides; each dest is an AnnealSchedule field
    n.add_argument("--t-initial", type=float, default=None)
    n.add_argument("--t-final", type=float, default=None)
    n.add_argument("--cooling-ratio", type=float, default=None)
    n.add_argument("--steps-per-temp", dest="steps_per_temperature", type=int, default=None)
    n.add_argument("--proposal-scale", dest="proposal_scale_ratio", type=float, default=None)
    n.add_argument("--out", help="output path for the result JSON")
    n.set_defaults(func=cmd_anneal)

    c = sub.add_parser("compare", help="distance table for two state files")
    c.add_argument("state_a")
    c.add_argument("state_b")
    c.add_argument("--restarts", type=int, default=8, help="random bases for the measured-JSD bound")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("sample", help="draw random states to files")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mixedness-floor", type=float, default=None)
    s.add_argument("--out", help="output filename prefix")
    s.set_defaults(func=cmd_sample)

    g = sub.add_parser("purescan", help="grid scan of the pure-state triangle defect")
    g.add_argument("--grid-steps", type=int, default=25)
    g.add_argument("--x-steps", type=int, default=20)
    g.set_defaults(func=cmd_purescan)

    return p


def main(argv=None) -> int:
    # the level names are the int attributes of logging; BASIC_FORMAT, for one, is a str
    level = getattr(logging, os.environ.get("QJSD_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING, format="%(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for counterexamples
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except InvalidConfig as exc:
        parser.print_usage(sys.stderr)
        print(f"qjsd: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DimMismatch) as exc:
        print(f"qjsd: {exc}", file=sys.stderr)
        return EXIT_DATA
    except QjsdError as exc:
        print(f"qjsd: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"qjsd: linear algebra failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qjsd: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
