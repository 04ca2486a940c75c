"""Command-line surface: ingestion, algorithm runs, certification, reports.

Exit codes are stable: 0 success, 2 unreadable/malformed input, 3 invalid
parameters, 4 size-cap exceeded, 1 anything else. Output files are written
atomically (temp file + rename), and JSON reports are byte-identical for
identical configurations: wall-clock fields stay null unless --timings
is given, which also prints per-phase timer lines to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import (
    RunReport,
    assignment_text,
    cover_flip_pivot,
    lambda_cc_objective,
    lambda_louvain,
    pivot,
    round_intermediate_lp,
    round_lambda_stc_lp,
)
from .errors import (
    EdgeListParseError,
    InfeasibleSolutionError,
    InvalidLabelingError,
    LamccError,
    ParameterError,
    SizeCapError,
)
from .graph import Graph, WedgeIndex, enumerate_wedges, graph_stats, load_graph
from .lp import (
    build_intermediate_lp,
    build_lambda_stc_lp,
    certify_canonical_feasibility,
    dump_covering_instance,
    solve_exact,
    solve_general_exact,
    solve_mwu,
)
from .oracle import exact_canonical_lp, exact_lambda_cc, exact_lambda_stc
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
        p.add_argument("--format", default="auto", choices=("auto", "edgelist", "mtx"))
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
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="process wedges in a seeded shuffle instead of canonical order")
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
    p.add_argument("--force", action="store_true",
                   help="run cfp outside its guaranteed lambda >= 1/2 regime")
    p.add_argument("--max-passes", type=int, default=16, help="louvain pass limit")
    p.add_argument("--multilevel", action="store_true", help="louvain aggregation levels")
    p.add_argument("--fmt", default="json", choices=("json", "csv"))
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
    p.add_argument("--dump-instance", default=None,
                   help="write the covering instance in sparse text form")
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
    if path_str is None:
        return None
    path = Path(path_str)
    base = os.environ.get("LAMCC_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(args, text: str) -> None:
    out = _resolve_output(getattr(args, "output", None))
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _atomic_write(out, text)


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _values_doc(sol) -> list[list]:
    """A solution's [u, v, value] triples, walking its sorted pair keys."""
    u, v = np.divmod(sol.keys, sol.n)
    return [list(t) for t in zip(u.tolist(), v.tolist(), sol.vals.tolist())]


def _pairs_doc(keys, n: int) -> list[list[int]]:
    """[u, v] lists of sorted pair keys, in the same (lexicographic) order."""
    return np.stack(np.divmod(keys, n), axis=1).tolist()


def _parse_lambdas(spec: str) -> list[float]:
    try:
        lams = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse lambda list {spec!r}") from None
    if not lams:
        raise ParameterError("no lambda values given")
    return [check_lambda(l) for l in lams]


def _load(args, phases: _Phases) -> Graph:
    return phases.run("parse", lambda: load_graph(args.input, args.format))


def _solve_covering(inst, engine: str, epsilon: float):
    if engine == "mwu":
        return solve_mwu(inst, epsilon)
    return solve_exact(inst)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_stats(args) -> int:
    phases = _Phases(args.timings)
    g = _load(args, phases)
    stats = phases.run("wedges", lambda: graph_stats(g))
    doc = {"schema_version": SCHEMA_VERSION, "name": Path(args.input).stem, **stats}
    _emit(args, _dump_json(doc))
    return EXIT_OK


def cmd_constraints(args) -> int:
    lines = ["# lamcc-constraints v1"]
    lines.append("name,n,m,wedge_constraints,intermediate_constraints,canonical_constraints")
    failed = False
    for inp in args.inputs:
        try:
            g = load_graph(inp)
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
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_INPUT if failed else EXIT_OK


def cmd_label(args) -> int:
    if args.shuffle_seed is not None and args.shuffle_seed < 0:
        raise ParameterError("--shuffle-seed must be >= 0")
    phases = _Phases(args.timings)
    g = _load(args, phases)
    widx = phases.run("wedges", lambda: enumerate_wedges(g))
    docs = []
    for lam in _parse_lambdas(args.lambdas):
        lab, cert = phases.run(
            "label",
            lambda: cover_label(
                g, widx, lam, shuffle_seed=args.shuffle_seed, minimal=args.minimal
            ),
        )
        docs.append({
            "schema_version": SCHEMA_VERSION,
            "lambda": lam,
            "weak": _pairs_doc(lab.weak_keys, lab.n),
            "miss": _pairs_doc(lab.missing_keys, lab.n),
            "objective": stc_objective(g, lam, lab),
            "lower_bound": cert.lower_bound,
            "regime": stc_regime(lam, g.m).value,
        })
    _emit(args, _dump_json(docs[0] if len(docs) == 1 else docs))
    return EXIT_OK


def _record(report, include_timing: bool) -> dict:
    # how many clusters have each size, without building the member tuples
    hist = np.bincount(np.bincount(report.clustering.assignment))
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
        "elapsed_ms": report.elapsed_ms if include_timing else None,
        "cluster_size_hist": {str(s): int(c) for s, c in enumerate(hist) if c},
    }


def _aggregate(lam: float, reports, include_timing: bool) -> dict:
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
        "elapsed_ms": stats_of(
            [r.elapsed_ms for r in reports] if include_timing else []
        ),
    }


def cmd_cluster(args) -> int:
    if args.seeds < 1:
        raise ParameterError("--seeds must be >= 1")
    if args.seed < 0:
        raise ParameterError("--seed must be >= 0")
    lams = _parse_lambdas(args.lambdas)
    if args.alg == "lp3-round" and any(l < 0.5 for l in lams):
        raise ParameterError("lp3-round requires lambda >= 1/2")
    if args.alg == "cfp" and not args.force and any(l < 0.5 for l in lams):
        raise ParameterError(
            "cfp's guarantee requires lambda >= 1/2 (use --force to run anyway)"
        )
    phases = _Phases(args.timings)
    g = _load(args, phases)
    widx: WedgeIndex | None = None
    if args.alg in ("cfp", "lp-round", "lp3-round"):
        widx = phases.run("wedges", lambda: enumerate_wedges(g))

    records: list[dict] = []
    aggregates: list[dict] = []
    best = None
    for lam in lams:
        reports = []
        if args.alg == "cfp":
            lab, cert = phases.run("label", lambda: cover_label(g, widx, lam))
            for r in range(args.seeds):
                rep = cover_flip_pivot(
                    g, widx, lam, args.seed + r, force=args.force,
                    labeling=lab, certificate=cert,
                )
                reports.append(rep)
        elif args.alg == "pivot":
            for r in range(args.seeds):
                t0 = time.perf_counter()
                c = pivot(g, args.seed + r)
                t1 = time.perf_counter()
                obj = lambda_cc_objective(g, lam, c)
                reports.append(RunReport(
                    "pivot", lam, args.seed + r, c, obj, None, None, None,
                    (time.perf_counter() - t0) * 1000.0, (t1 - t0) * 1000.0,
                ))
        elif args.alg == "lp-round":
            _, inst = phases.run("build-lp", lambda: build_lambda_stc_lp(g, widx, lam))
            res = phases.run(
                "solve", lambda: _solve_covering(inst, args.engine, args.epsilon)
            )
            xsol = res.solution.to_x(g)
            for r in range(args.seeds):
                reports.append(round_lambda_stc_lp(g, widx, lam, xsol, args.seed + r))
        elif args.alg == "lp3-round":
            lp = phases.run("build-lp", lambda: build_intermediate_lp(g, widx, lam))
            res = phases.run("solve", lambda: solve_general_exact(lp))
            for r in range(args.seeds):
                reports.append(
                    round_intermediate_lp(g, widx, lam, res.solution, args.seed + r)
                )
        elif args.alg == "louvain":
            for r in range(args.seeds):
                reports.append(lambda_louvain(
                    g, lam, args.seed + r, args.max_passes,
                    multilevel=args.multilevel,
                ))
        if args.alg != "louvain":
            phases.add("pivot", sum(rep.pivot_ms for rep in reports) / 1000.0)
        for rep in reports:
            records.append(_record(rep, args.timings))
            if best is None or rep.objective < best.objective:
                best = rep
        aggregates.append(_aggregate(lam, reports, args.timings))

    if args.assignment_out and best is not None:
        _atomic_write(_resolve_output(args.assignment_out), assignment_text(best.clustering))

    if args.fmt == "csv":
        _emit(args, _reports_csv(records, aggregates))
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "input": Path(args.input).stem,
            "algorithm": args.alg,
            "base_seed": args.seed,
            "repetitions": args.seeds,
            "records": records,
            "aggregates": aggregates,
        }
        _emit(args, _dump_json(doc))
    return EXIT_OK


def _reports_csv(records, aggregates) -> str:
    lines = ["# lamcc-report v1"]
    lines.append("record,algorithm,lambda,seed,objective,lower_bound,ratio,num_clusters,elapsed_ms")
    fmt = lambda v: "" if v is None else (repr(v) if isinstance(v, float) else str(v))
    for r in records:
        lines.append(",".join(fmt(r[k]) for k in (
            "record", "algorithm", "lambda", "seed", "objective",
            "lower_bound", "ratio", "num_clusters", "elapsed_ms",
        )))
    for a in aggregates:
        lines.append(",".join([
            "aggregate", "", fmt(a["lambda"]), "",
            fmt(a["objective"]["mean"]), "", fmt(a["ratio"]["mean"]), "",
            fmt(a["elapsed_ms"]["mean"]),
        ]))
    return "\n".join(lines) + "\n"


def cmd_lp_solve(args) -> int:
    phases = _Phases(args.timings)
    g = _load(args, phases)
    widx = phases.run("wedges", lambda: enumerate_wedges(g))
    if args.intermediate and args.engine == "mwu":
        raise ParameterError(
            "the intermediate LP is not a covering program; "
            "only the highs engine solves it"
        )
    docs = []
    for lam in _parse_lambdas(args.lambdas):
        if args.intermediate:
            lp = phases.run("build-lp", lambda: build_intermediate_lp(g, widx, lam))
            res = phases.run("solve", lambda: solve_general_exact(lp))
        else:
            _, inst = phases.run("build-lp", lambda: build_lambda_stc_lp(g, widx, lam))
            if args.dump_instance:
                _atomic_write(
                    _resolve_output(args.dump_instance), dump_covering_instance(inst)
                )
            res = phases.run(
                "solve", lambda: _solve_covering(inst, args.engine, args.epsilon)
            )
        certified = None
        if args.certify:
            cres = phases.run(
                "certify",
                lambda: certify_canonical_feasibility(g, res.solution.to_x(g)),
            )
            certified = cres.certified
        sol = res.solution
        docs.append({
            "schema_version": SCHEMA_VERSION,
            "lambda": lam,
            "orientation": sol.orientation,
            "objective": sol.objective,
            "values": _values_doc(sol),
            "certified_canonical": certified,
            "engine": res.engine,
            "dual_bound": res.dual_objective,
        })
    _emit(args, _dump_json(docs[0] if len(docs) == 1 else docs))
    return EXIT_OK


def cmd_certify(args) -> int:
    phases = _Phases(args.timings)
    g = _load(args, phases)
    widx = phases.run("wedges", lambda: enumerate_wedges(g))
    docs = []
    for lam in _parse_lambdas(args.lambdas):
        _, inst = phases.run("build-lp", lambda: build_lambda_stc_lp(g, widx, lam))
        res = phases.run("solve", lambda: _solve_covering(inst, args.engine, args.epsilon))
        cres = phases.run(
            "certify", lambda: certify_canonical_feasibility(g, res.solution.to_x(g))
        )
        docs.append({
            "schema_version": SCHEMA_VERSION,
            "lambda": lam,
            "lp_value": res.solution.objective,
            "certified": cres.certified,
            "violation_count": len(cres.violations),
            "canonical_optimum": res.solution.objective if cres.certified else None,
            "engine": res.engine,
            "epsilon": args.epsilon if res.engine == "mwu" else None,
        })
    _emit(args, _dump_json(docs[0] if len(docs) == 1 else docs))
    return EXIT_OK


def cmd_exact(args) -> int:
    phases = _Phases(args.timings)
    g = _load(args, phases)
    docs = []
    for lam in _parse_lambdas(args.lambdas):
        if args.problem == "cc":
            r = phases.run("enumerate", lambda: exact_lambda_cc(g, lam))
            witness = {"assignment": list(r.witness.assignment)}
        elif args.problem == "stc":
            widx = phases.run("wedges", lambda: enumerate_wedges(g))
            r = phases.run("enumerate", lambda: exact_lambda_stc(g, widx, lam))
            witness = {
                "weak": _pairs_doc(r.witness.weak_keys, r.witness.n),
                "miss": _pairs_doc(r.witness.missing_keys, r.witness.n),
            }
        else:
            r = phases.run("solve", lambda: exact_canonical_lp(g, lam))
            witness = {"values": _values_doc(r.witness)}
        docs.append({
            "schema_version": SCHEMA_VERSION,
            "problem": args.problem,
            "lambda": lam,
            "optimum": r.optimum,
            "enumerated_count": r.enumerated_count,
            "witness": witness,
        })
    _emit(args, _dump_json(docs[0] if len(docs) == 1 else docs))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
