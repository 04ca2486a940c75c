"""Benchmark of lamcc: certified clustering, end to end and layer by layer.

    python3 bench/run.py --workload hepph-cfp --seed 1 --seconds 10 --trace 0

Runs one workload from the root of a source checkout (``src/lamcc``) and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced pass. Generated inputs, CLI outputs, traces and result files go to
``.bench_work/`` in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "cli_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ratio": ("ratio", "lower"),
}
PER_LAYER = {
    "graph.load_s": ("s", "lower"),
    "graph.enumerate_s": ("s", "lower"),
    "graph.wedges": ("count", "lower"),
    "graph.triangles": ("count", "lower"),
    "stc.cover_label_s": ("s", "lower"),
    "stc.dual_positive": ("count", "lower"),
    "cluster.cfp_seed_s": ("s", "lower"),
    "cluster.derive_s": ("s", "lower"),
    "cluster.pivot_s": ("s", "lower"),
    "cluster.objective_s": ("s", "lower"),
    "cluster.round_s": ("s", "lower"),
    "lp.build_s": ("s", "lower"),
    "lp.variables": ("count", "lower"),
    "lp.rows": ("count", "lower"),
    "lp.highs_s": ("s", "lower"),
    "lp.highs_iterations": ("count", "lower"),
    "lp.orient_s": ("s", "lower"),
    "lp.certify_s": ("s", "lower"),
    "simplex.solve_s": ("s", "lower"),
    "simplex.pivots": ("count", "lower"),
    "lp.mwu_s": ("s", "lower"),
    "lp.mwu_iterations": ("count", "lower"),
    "lp.mwu_certified": ("%", "higher"),
    "oracle.check_s": ("s", "lower"),
    "oracle.partitions": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
}


def per_layer_values(tr, rounds: int) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Times of the ``cluster`` layer are means per call; every other time and
    count is a total over one set-up, one round of the sweep and its CLI
    commands, and one check phase.
    """
    per_round = 1.0 / rounds
    solves = tr.count("lp.mwu", "solves")
    imports = tr.self_times("cli.import")
    return {
        "graph.load_s": tr.total("graph.load"),
        "graph.enumerate_s": tr.total("graph.enumerate"),
        "graph.wedges": tr.count("graph.enumerate", "wedges"),
        "graph.triangles": tr.count("graph.enumerate", "triangles"),
        "stc.cover_label_s": tr.total("stc.cover_label") * per_round,
        "stc.dual_positive": tr.count("stc.cover_label", "dual_positive") * per_round,
        "cluster.cfp_seed_s": tr.mean("cluster.cfp_seed"),
        "cluster.derive_s": tr.mean("cluster.derive"),
        "cluster.pivot_s": tr.mean("cluster.pivot"),
        "cluster.objective_s": tr.mean("cluster.objective"),
        "cluster.round_s": tr.mean("cluster.round"),
        "lp.build_s": tr.total("lp.build") * per_round,
        "lp.variables": tr.count("lp.build", "variables") * per_round,
        "lp.rows": tr.count("lp.build", "rows") * per_round,
        "lp.highs_s": tr.total("lp.highs") * per_round,
        "lp.highs_iterations": tr.count("lp.highs", "iterations") * per_round,
        "lp.orient_s": tr.total("lp.orient") * per_round,
        "lp.certify_s": tr.total("lp.certify") * per_round,
        "simplex.solve_s": tr.total("simplex.solve") * per_round,
        "simplex.pivots": tr.count("simplex.solve", "pivots") * per_round,
        "lp.mwu_s": tr.total("lp.mwu") * per_round,
        "lp.mwu_iterations": tr.count("lp.mwu", "iterations") * per_round,
        "lp.mwu_certified": 100.0 * tr.count("lp.mwu", "certified") / solves if solves else 0.0,
        "oracle.check_s": tr.total("oracle.check"),
        "oracle.partitions": tr.count("oracle.check", "partitions"),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.cpu_s": tr.count("cli.command", "cpu_s") * per_round,
    }


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hepph-cfp", "grqc-lp", "desk-engines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    src = ROOT / "src"
    if not (src / "lamcc" / "__init__.py").is_file():
        return fail(f"no lamcc sources under {src}; run from a source checkout")
    for var in THREAD_VARS:  # before numpy loads; children inherit it
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import lamcc

    if not Path(lamcc.__file__).resolve().is_relative_to(src.resolve()):
        return fail(f"imported lamcc from {lamcc.__file__}, not from {src}")

    import checks
    from tracing import Tracer
    from workloads import WORKLOADS, Ops, import_probe, run_cli, setup

    wl = WORKLOADS[args.workload](WORK, args.seed)
    traced = bool(args.trace)
    tr = Tracer(traced)
    ops = Ops()

    setup_times = []
    if traced:
        with tr.span("setup"):
            ready = setup(tr, wl.ins)
    else:
        while (len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS) \
                and len(setup_times) < SETUP_MAX_REPEATS:
            ready = None  # release the previous set-up before timing the next
            t0 = time.perf_counter()
            ready = setup(tr, wl.ins)
            setup_times.append(time.perf_counter() - t0)

    # Whole rounds only, so the failed share of attempted never moves.
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        with tr.span("round"):
            t0 = time.perf_counter()
            with tr.span("sweep"):
                result = wl.sweep(tr, ready, ops)
            sweep_s = time.perf_counter() - t0
            if traced:
                wl.traced_extra(tr, ready, result)
            runs, docs = run_cli(tr, ROOT, WORK, wl.cli_commands(), ops)
        rounds.append((sweep_s, runs, docs, wl.ratio(result)))
        if len(rounds) == 1:
            first, first_docs = result, docs
    if traced:
        import_probe(tr, ROOT, WORK)

    problems = list(wl.errors)
    with tr.span("checks"):
        try:
            for rd in ready:
                rd.prepare_checks()
                checks.check_wedges(rd.n, rd.ekeys, rd.widx.wedge_center, rd.widx.wedge_lo,
                                    rd.widx.wedge_hi, rd.widx.triangle_count)
                checks.check_graph(rd.n, rd.ekeys, rd.g.n, rd.g.degree, rd.g.indices)
            wl.check(tr, ready, first, first_docs)
        except checks.CheckError as err:
            problems.append(str(err))
    if any(r[3] != rounds[0][3] for r in rounds):
        problems.append("rounds with the same seed gave different ratios")

    if traced:
        metrics = per_layer_values(tr, len(rounds))
        spec = PER_LAYER
        tr.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "sweep_s": statistics.median(r[0] for r in rounds),
            "cli_s": statistics.median(sum(c.wall_s for c in r[1]) for r in rounds),
            "peak_rss_mb": max(c.maxrss_mb for r in rounds for c in r[1]),
            "ratio": rounds[0][3],
        }
        spec = END_TO_END
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    for f in ops.failures:
        print(f"bench: operation failed: {f}", file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": spec[k][0]} for k in spec},
    }
    detail = dict(out, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(rounds), setup_repeats=len(setup_times), problems=problems,
                  failures=ops.failures,
                  inputs=[{"name": rd.inp.name, "n": rd.g.n, "m": rd.g.m,
                           "wedges": rd.widx.wedge_count,
                           "triangles": rd.widx.triangle_count} for rd in ready])
    if traced:  # for the tracing overhead: compare with setup_s + sweep_s of --trace 0
        detail["traced_s"] = {name: sum(sp.end - sp.start for sp in tr.spans if sp.name == name)
                              for name in ("setup", "sweep")}
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
