"""Command-line surface: ingestion, algorithm runs, certification, reports.

Exit codes are stable: 0 success, 2 unreadable/malformed input, 3 invalid
parameters, 4 size-cap exceeded, 1 anything else. Every subcommand checks
its parameters (the lambda list first) and its output paths before it reads
the input, reads the graph and enumerates its wedges once, and builds one
document per lambda. Output files are written atomically (temp file +
rename), and JSON reports are byte-identical for identical configurations:
wall-clock fields stay null unless --timings is given, which also prints
per-phase timer lines to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import (
    _report,
    _rounded_graph,
    assignment_text,
    derived_graph_from_labeling,
    lambda_louvain,
    pivot,
)
from .errors import (
    EdgeListParseError,
    InfeasibleSolutionError,
    InvalidLabelingError,
    LamccError,
    ParameterError,
    SizeCapError,
)
from .graph import _key_pairs, enumerate_wedges, graph_stats, load_graph
from .lp import (
    _check_epsilon,
    build_intermediate_lp,
    build_lambda_stc_lp,
    certify_canonical_feasibility,
    solve_exact,
    solve_mwu,
)
from .oracle import exact_canonical_lp, exact_lambda_cc_sweep, exact_lambda_stc
from .stc import check_lambda, cover_label, stc_objective, stc_regime

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INPUT = 2
EXIT_PARAMETER = 3
EXIT_SIZE = 4

SCHEMA_VERSION = 1
CLUSTER_ALGS = ("cfp", "pivot", "lp-round", "lp3-round", "louvain")
ENGINES = ("highs", "mwu")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_OK
    try:
        return args.func(args)
    except (EdgeListParseError, FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ParameterError, InvalidLabelingError, InfeasibleSolutionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARAMETER
    except SizeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIZE
    except LamccError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamcc",
        description="Parameterized graph clustering via wedge-cover lower bounds",
    )
    parser.add_argument("--version", action="version", version=f"lamcc {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    def common(p, lam=True):
        p.add_argument("input", help="graph file (edge list or MatrixMarket)")
        if lam:
            p.add_argument(
                "--lambda", dest="lambdas", required=True, metavar="L[,L...]",
                help="resolution parameter(s) in (0,1); comma-separated sweep",
            )
        p.add_argument("-o", "--output", default=None, help="output file (atomic write)")
        p.add_argument("--timings", action="store_true",
                       help="report phase timings and include elapsed_ms in records")

    p = sub.add_parser("stats", help="graph and constraint-count statistics")
    common(p, lam=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("constraints", help="constraint-count comparison CSV over many graphs")
    p.add_argument("inputs", nargs="+", help="graph files")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("label", help="wedge-cover edge labeling with dual lower bound")
    common(p)
    p.add_argument("--minimal", action="store_true", help="greedy redundancy-removal post-pass")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("cluster", help="run a clustering algorithm")
    common(p)
    p.add_argument("--alg", required=True, choices=CLUSTER_ALGS)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--seeds", type=int, default=1, metavar="N",
                   help="repetitions; run r uses seed base+r")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="approximation parameter for the mwu LP engine")
    p.add_argument("--engine", default="highs", choices=ENGINES,
                   help="covering-LP engine for lp-round: exact HiGHS or (1+epsilon) mwu")
    p.add_argument("--assignment-out", default=None,
                   help="write the best run's 'vertex cluster' assignment here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("lp-solve", help="solve a wedge-restricted LP relaxation")
    common(p)
    p.add_argument("--intermediate", action="store_true",
                   help="wedge+triangle LP instead of the covering LP")
    p.add_argument("--engine", default="highs", choices=ENGINES,
                   help="exact HiGHS, or (1+epsilon) mwu for the covering LP only")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--certify", action="store_true",
                   help="also check all-triples feasibility of the solution")
    p.set_defaults(func=cmd_lp_solve)

    p = sub.add_parser("certify", help="solve the covering LP and certify it canonically")
    common(p)
    p.add_argument("--engine", default="highs", choices=ENGINES,
                   help="covering-LP engine: exact HiGHS or (1+epsilon) mwu")
    p.add_argument("--epsilon", type=float, default=0.001)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("exact", help="brute-force optimum on a tiny instance")
    common(p)
    p.add_argument("--problem", required=True, choices=("cc", "stc", "lp"))
    p.set_defaults(func=cmd_exact)

    return parser


# ---------------------------------------------------------------------------
# Shared plumbing


class _Phases:
    """Per-phase wall-clock accounting, printed to stderr with --timings."""

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.add(name, time.perf_counter() - t0)
        return out

    def add(self, name: str, seconds: float) -> None:
        if self.enabled:
            print(f"[phase] {name}: {seconds:.3f}s", file=sys.stderr)


def _resolve_output(path_str: str | None) -> Path | None:
    """The path to write (relative to $LAMCC_OUT_DIR if set); a directory there or a
    file in its way exits 1."""
    if path_str is None:
        return None
    path = Path(path_str)
    base = os.environ.get("LAMCC_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    if path.is_dir():
        raise LamccError(f"cannot write {path}: {path} is a directory")
    folder = next((p for p in path.parents if os.path.exists(p)), None)  # nearest that exists
    if folder is not None and not os.path.isdir(folder):
        raise LamccError(f"cannot write {path}: {folder} is not a directory")
    return path


def _atomic_write(path: Path, text: str) -> None:
    """Write through a temp file and a rename; a path that cannot be written exits 1."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise LamccError(f"cannot write {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None:  # leave no temp file behind
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _emit(out: Path | None, text: str) -> None:
    """Print ``text``, or write it to ``out``, a path from ``_resolve_output``."""
    if out is None:
        try:
            print(text, end="" if text.endswith("\n") else "\n", flush=True)
        except BrokenPipeError:
            # the reader left: exit 1 quietly, and let devnull take the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(EXIT_ERROR) from None
    else:
        _atomic_write(out, text)


def _dump_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, a FractionalSolution standing
    for its (u, v, value) triples. json indents in pure Python, so a solution is
    dumped as a placeholder, then replaced by its triples as json prints them at
    that depth, one %-template each with ``float.__repr__`` values."""
    sols = []
    pieces = json.dumps(doc, sort_keys=True, indent=2,
                        default=lambda sol: sols.append(sol) or "\0").split('"\\u0000"')
    out = pieces[:1]
    for sol, after in zip(sols, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        pad = " " * (len(line) - len(line.lstrip(" ")))
        row = f"{pad}  [\n{pad}    %d,\n{pad}    %d,\n{pad}    %s\n{pad}  ]"
        u, v = np.divmod(sol.keys, sol.n)
        vals = map(float.__repr__, sol.vals.tolist())
        body = ",\n".join(map(row.__mod__, zip(u.tolist(), v.tolist(), vals)))
        out += [f"[\n{body}\n{pad}]" if body else "[]", after]
    return "".join(out)


def _parse_lambdas(spec: str) -> list[float]:
    try:
        lams = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse lambda list {spec!r}") from None
    if not lams:
        raise ParameterError("no lambda values given")
    return [check_lambda(l) for l in lams]


def _read(path, timings: bool, wedges: bool = False):
    """Parse the graph and, when asked, enumerate its wedges, each once."""
    phases = _Phases(timings)
    g = phases.run("parse", lambda: load_graph(path))
    widx = phases.run("wedges", lambda: enumerate_wedges(g)) if wedges else None
    return phases, g, widx


def _per_lambda(args, doc, *, wedges=True, intermediate=None) -> int:
    """Parse --lambda, check the LP engine (unless intermediate is None), read
    once, and emit doc(phases, g, widx, lam) for each lambda: one document
    as itself, several as a list."""
    lams = _parse_lambdas(args.lambdas)
    if intermediate is not None:
        _check_engine(args, intermediate)
    out = _resolve_output(args.output)
    phases, g, widx = _read(args.input, args.timings, wedges)
    docs = [{"schema_version": SCHEMA_VERSION, "lambda": lam, **doc(phases, g, widx, lam)}
            for lam in lams]
    _emit(out, _dump_json(docs[0] if len(docs) == 1 else docs))
    return EXIT_OK


def _check_engine(args, intermediate: bool) -> None:
    """Before the read: MWU needs a valid --epsilon, and the intermediate LP HiGHS."""
    if args.engine == "mwu":
        if intermediate:
            raise ParameterError(
                "the intermediate LP is not a covering program; only the highs engine solves it"
            )
        _check_epsilon(args.epsilon)


def _solve_lp(args, g, widx, lam, phases, *, intermediate=False):
    """Build and solve the covering LP (or the intermediate LP) at one lambda."""
    if intermediate:
        lp = phases.run("build-lp", lambda: build_intermediate_lp(g, widx, lam))
    else:
        _, lp = phases.run("build-lp", lambda: build_lambda_stc_lp(g, widx, lam))
    if args.engine == "mwu":
        return phases.run("solve", lambda: solve_mwu(lp, args.epsilon))
    return phases.run("solve", lambda: solve_exact(lp))


def _certify(phases, g, res):
    """Check a solution's distances against every triangle inequality."""
    return phases.run("certify", lambda: certify_canonical_feasibility(g, res.solution.to_x(g)))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_stats(args) -> int:
    out = _resolve_output(args.output)
    phases, g, _ = _read(args.input, args.timings)
    stats = phases.run("wedges", lambda: graph_stats(g))
    _emit(out, _dump_json({"schema_version": SCHEMA_VERSION, "name": Path(args.input).stem,
                            **stats}))
    return EXIT_OK


def cmd_constraints(args) -> int:
    out = _resolve_output(args.output)
    lines = ["# lamcc-constraints v1"]
    lines.append("name,n,m,wedge_constraints,intermediate_constraints,canonical_constraints")
    failed = False
    for inp in args.inputs:
        try:
            _, g, _ = _read(inp, False)
            s = graph_stats(g)
        except (LamccError, OSError) as e:
            print(f"error: {inp}: {e}", file=sys.stderr)
            failed = True
            continue
        inter = s["wedge_count"] + 3 * s["triangle_count"]
        lines.append(
            f"{Path(inp).stem},{s['n']},{s['m']},{s['wedge_count']},"
            f"{inter},{s['canonical_constraint_count']}"
        )
    _emit(out, "\n".join(lines) + "\n")
    return EXIT_INPUT if failed else EXIT_OK


def cmd_label(args) -> int:
    def doc(phases, g, widx, lam):
        lab, cert = phases.run(
            "label", lambda: cover_label(g, widx, lam, minimal=args.minimal)
        )
        return {
            "weak": list(_key_pairs(lab.n, lab.weak_keys)),
            "miss": list(_key_pairs(lab.n, lab.missing_keys)),
            "objective": stc_objective(g, lam, lab),
            "lower_bound": cert.lower_bound,
            "regime": stc_regime(lam, g.m).value,
        }

    return _per_lambda(args, doc)


def _record(report, elapsed_ms: float | None) -> dict:
    # how many clusters have each size, without building the member tuples
    hist = np.bincount(np.bincount(report.clustering.labels))
    return {
        "record": "run",
        "algorithm": report.algorithm,
        "lambda": report.lam,
        "seed": report.seed,
        "objective": report.objective,
        "lower_bound": report.lower_bound,
        "lb_provenance": report.lb_provenance,
        "ratio": report.ratio,
        "num_clusters": report.num_clusters,
        "elapsed_ms": elapsed_ms,
        "cluster_size_hist": {str(s): int(c) for s, c in enumerate(hist) if c},
    }


def _aggregate(lam: float, reports, elapsed) -> dict:
    def stats_of(values):
        vals = [v for v in values if v is not None]
        if not vals:
            return {"mean": None, "std": None, "min": None, "max": None}
        arr = np.asarray(vals, dtype=float)
        return {
            "mean": float(arr.mean()),
            "std": float(arr.std()),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }

    return {
        "record": "aggregate",
        "lambda": lam,
        "runs": len(reports),
        "objective": stats_of([r.objective for r in reports]),
        "ratio": stats_of([r.ratio for r in reports]),
        "elapsed_ms": stats_of(elapsed),
    }


def _seed_run(args, g, widx, lam, phases):
    """Fix one lambda's derived graph and lower bound; return the run for one seed."""
    if args.alg == "louvain":
        return lambda seed: lambda_louvain(g, lam, seed)
    if args.alg == "cfp":
        lab, cert = phases.run("label", lambda: cover_label(g, widx, lam))
        gh = derived_graph_from_labeling(g, lab)
        lb, provenance = cert.lower_bound, "dual_certificate"
    elif args.alg == "pivot":
        gh, lb, provenance = g, None, None
    else:
        intermediate = args.alg == "lp3-round"
        res = _solve_lp(args, g, widx, lam, phases, intermediate=intermediate)
        gh = phases.run("round", lambda: _rounded_graph(
            g, widx, lam, res.solution, intermediate=intermediate))
        lb, provenance = res.solution.dual_objective, "lp_dual"
    return lambda seed: _report(args.alg, g, lam, seed, pivot(gh, seed), lb, provenance)


def cmd_cluster(args) -> int:
    lams = _parse_lambdas(args.lambdas)
    if args.seeds < 1:
        raise ParameterError("--seeds must be >= 1")
    if args.seed < 0:
        raise ParameterError("--seed must be >= 0")
    if args.alg in ("lp-round", "lp3-round"):
        _check_engine(args, intermediate=args.alg == "lp3-round")
    if args.assignment_out and len(lams) > 1:
        raise ParameterError("--assignment-out takes a single lambda")
    out = _resolve_output(args.output)
    assignment_out = _resolve_output(args.assignment_out)
    wedges = args.alg in ("cfp", "lp-round", "lp3-round")
    phases, g, widx = _read(args.input, args.timings, wedges)

    records: list[dict] = []
    aggregates: list[dict] = []
    best = None
    for lam in lams:
        run = _seed_run(args, g, widx, lam, phases)
        reports, elapsed = [], []
        for r in range(args.seeds):
            t0 = time.perf_counter()
            reports.append(run(args.seed + r))
            elapsed.append((time.perf_counter() - t0) * 1000.0)
        if args.alg != "louvain":
            phases.add("pivot", sum(elapsed) / 1000.0)
        if not args.timings:
            elapsed = [None] * len(reports)
        for rep, ms in zip(reports, elapsed):
            records.append(_record(rep, ms))
            if best is None or rep.objective < best.objective:
                best = rep
        aggregates.append(_aggregate(lam, reports, elapsed))

    if assignment_out is not None:
        _atomic_write(assignment_out, assignment_text(best.clustering))

    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": Path(args.input).stem,
        "algorithm": args.alg,
        "base_seed": args.seed,
        "repetitions": args.seeds,
        "records": records,
        "aggregates": aggregates,
    }
    _emit(out, _dump_json(doc))
    return EXIT_OK


def cmd_lp_solve(args) -> int:
    def doc(phases, g, widx, lam):
        res = _solve_lp(args, g, widx, lam, phases, intermediate=args.intermediate)
        sol = res.solution
        return {
            "orientation": sol.orientation,
            "objective": sol.objective,
            "values": sol,
            "certified_canonical": _certify(phases, g, res).certified if args.certify else None,
            "engine": res.engine,
            "dual_bound": res.dual_objective,
        }

    return _per_lambda(args, doc, intermediate=args.intermediate)


def cmd_certify(args) -> int:
    def doc(phases, g, widx, lam):
        res = _solve_lp(args, g, widx, lam, phases)
        cres = _certify(phases, g, res)
        # only an optimal wedge-LP solution proves the canonical optimum
        proven = cres.certified and res.engine != "mwu"
        return {
            "lp_value": res.solution.objective,
            "certified": cres.certified,
            "violation_count": len(cres.violations),
            "canonical_optimum": res.solution.objective if proven else None,
            "engine": res.engine,
            "dual_bound": res.dual_objective,
            "epsilon": args.epsilon if res.engine == "mwu" else None,
        }

    return _per_lambda(args, doc, intermediate=False)


def cmd_exact(args) -> int:
    sweep: dict = {}

    def doc(phases, g, widx, lam):
        if args.problem == "cc":
            if not sweep:  # one partition scan serves every lambda
                lams = _parse_lambdas(args.lambdas)
                sweep.update(phases.run("enumerate", lambda: exact_lambda_cc_sweep(g, lams)))
            r = sweep[lam]
            witness = {"assignment": list(r.witness.assignment)}
        elif args.problem == "stc":
            r = phases.run("enumerate", lambda: exact_lambda_stc(g, widx, lam))
            witness = {
                "weak": list(_key_pairs(r.witness.n, r.witness.weak_keys)),
                "miss": list(_key_pairs(r.witness.n, r.witness.missing_keys)),
            }
        else:
            r = phases.run("solve", lambda: exact_canonical_lp(g, lam))
            witness = {"values": r.witness}
        return {
            "problem": args.problem,
            "optimum": r.optimum,
            "enumerated_count": r.enumerated_count,
            "witness": witness,
        }

    return _per_lambda(args, doc, wedges=args.problem == "stc")


if __name__ == "__main__":
    sys.exit(main())
