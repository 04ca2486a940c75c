"""The three workloads: inputs, set-up, in-process sweep, CLI commands, checks.

Each workload runs its in-process sweep through the public ``lamcc``
functions in the same pattern as ``lamcc.cli`` (``cmd_cluster``,
``cmd_certify``, ``cmd_lp_solve``), so waste on the CLI path shows in both
the in-process and the CLI numbers. Spans go around each call into a
``lamcc`` module; with tracing off they cost nothing measurable.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lamcc import (
    Graph,
    build_intermediate_lp,
    build_lambda_stc_lp,
    certify_canonical_feasibility,
    cover_flip_pivot,
    cover_label,
    enumerate_wedges,
    exact_lambda_cc_sweep,
    lambda_cc_objective,
    load_graph,
    pivot,
    round_intermediate_lp,
    round_lambda_stc_lp,
    solve_exact,
    solve_exact_sparse,
    solve_general_exact,
    solve_mwu,
)
from lamcc.cluster import derived_graph_from_labeling
from lamcc.errors import InfeasibleSolutionError, MwuConvergenceError, SimplexError

import checks
import inputs
from tracing import Tracer, run_child

LAMBDAS = (0.55, 0.75)  # guaranteed regime lambda >= 1/2 of cfp and lp3-round
# grqc-lp leaves out lambda 0.55: there solve_exact_sparse rejects its own
# optimum on some seeds (a bound z <= 1 is active; see README), and an
# operation that fails on some seeds only would move the failed share.
GRQC_LAMBDAS = (0.75,)
LOW_LAMBDA = 0.3  # desk-engines: one lambda below 1/2, lp-round only
CFP_SEEDS = 15
LP_ROUND_SEEDS = 5
MWU_EPSILON = 0.1
ORACLE_MAX_N = 9
CHILD_TIMEOUT_S = 150.0
# lp-round's expected factor: 7 - 2/lam for lam >= 1/2, 1 + 1/lam below.
LP_ROUND_FACTOR = {lam: (7.0 - 2.0 / lam if lam >= 0.5 else 1.0 + 1.0 / lam)
                   for lam in LAMBDAS + (LOW_LAMBDA,)}


@dataclass
class Input:
    """One generated input file and the benchmark's own copy of its edges."""

    name: str
    path: Path
    n: int  # generator vertex count (the file's '# vertices' comment)
    edges: np.ndarray  # (m, 2) in file ids, u < v
    keep_file_ids: bool  # in-process graph keeps file ids (else parser ids)

    def parser_edges(self) -> tuple[int, np.ndarray]:
        """Vertex count and edges in the ids the lamcc parser assigns."""
        order = inputs.first_appearance(self.edges)
        inv = np.empty(int(order.max()) + 1, dtype=np.int64)
        inv[order] = np.arange(order.shape[0])
        e = inv[self.edges]
        return order.shape[0], np.sort(e, axis=1)


@dataclass
class Ready:
    """Set-up output for one input: the graph the sweep uses and its wedges."""

    inp: Input
    g: Graph
    widx: object
    n: int = 0
    edges: np.ndarray | None = None  # benchmark copy, in the graph's ids
    ekeys: np.ndarray | None = None
    keys3: np.ndarray | None = None
    pairs: tuple | None = None  # checks.wedge_pairs(keys3)

    def prepare_checks(self) -> None:
        if self.inp.keep_file_ids:
            self.n, self.edges = self.inp.n, self.inp.edges
        else:
            self.n, self.edges = self.inp.parser_edges()
        self.ekeys = checks.edge_keys(self.edges, self.n)
        w = self.widx
        c, a, b = (x.astype(np.int64) for x in (w.wedge_center, w.wedge_lo, w.wedge_hi))
        n = self.n
        self.keys3 = np.stack([np.minimum(c, a) * n + np.maximum(c, a),
                               np.minimum(c, b) * n + np.maximum(c, b), a * n + b], axis=1)
        self.pairs = checks.wedge_pairs(self.keys3)


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


def file_id_graph(g: Graph, inp: Input) -> Graph:
    """Rebuild a parsed graph with the vertex ids written in its file."""
    fa = inputs.first_appearance(inp.edges)
    rows = np.repeat(np.arange(g.n), g.degree)
    upper = g.indices > rows
    return Graph.from_edges(inp.n, zip(fa[rows[upper]].tolist(),
                                       fa[g.indices[upper]].tolist()))


def setup(tr: Tracer, ins: list[Input]) -> list[Ready]:
    """The lambda-independent work a sweep reuses: parse and wedge enumeration."""
    out = []
    for inp in ins:
        with tr.span("graph.load"):
            g = load_graph(inp.path)
        if inp.keep_file_ids:
            with tr.span("bench.relabel"):
                g = file_id_graph(g, inp)
        with tr.span("graph.enumerate") as sp:
            widx = enumerate_wedges(g)
            sp.add("wedges", widx.wedge_count)
            sp.add("triangles", widx.triangle_count)
        out.append(Ready(inp, g, widx))
    return out


@dataclass
class CliCommand:
    args: list[str]
    output: Path


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("LAMCC_OUT_DIR", None)
    return env


def run_cli(tr: Tracer, root: Path, work: Path, cmds: list[CliCommand], ops: Ops):
    """Run each command in a fresh child, one at a time; return (runs, docs)."""
    env = child_env(root)
    runs, docs = [], []
    for i, cmd in enumerate(cmds):
        cmd.output.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "lamcc.cli", *cmd.args, "-o", str(cmd.output)]
        with tr.span("cli.command") as sp:
            r = run_child(argv, env, work / "logs" / f"cli-{i}.log", CHILD_TIMEOUT_S)
            sp.add("cpu_s", r.cpu_s)
            sp.add("maxrss_mb", r.maxrss_mb)
        ops.attempted += 1
        runs.append(r)
        if r.returncode != 0:
            ops.fail(f"lamcc {' '.join(cmd.args)}: exit {r.returncode}")
            docs.append(None)
        else:
            docs.append(json.loads(cmd.output.read_text()))
    return runs, docs


def import_probe(tr: Tracer, root: Path, work: Path, repeats: int = 3) -> None:
    env = child_env(root)
    for _ in range(repeats):
        with tr.span("cli.import"):
            run_child([sys.executable, "-c", "import lamcc.cli"], env,
                      work / "logs" / "import.log", CHILD_TIMEOUT_S)


def check_run(rd: Ready, rep) -> None:
    obj = checks.cc_objective(rd.n, rd.edges, rep.clustering.assignment, rep.lam)
    checks.check_objective(rep.objective, obj,
                           f"{rep.algorithm} lambda={rep.lam} seed={rep.seed}")
    if rep.lower_bound is not None and rep.lower_bound > 0:
        checks.check_objective(rep.ratio, obj / rep.lower_bound, "ratio")


def check_cover(rd: Ready, lam: float, lab, cert) -> None:
    checks.check_cover_dual(rd.pairs, rd.ekeys, lam, cert.wedge_values, cert.lower_bound)
    checks.check_labeling(rd.keys3, rd.ekeys, checks.pair_keys(lab.weak, rd.n),
                          checks.pair_keys(lab.missing, rd.n), lam, cert.lower_bound)


def covering_z(inst, res) -> np.ndarray:
    vals = res.solution.values
    return np.array([vals[p] for p in inst.space.pairs])


def check_covering(rd: Ready, lam: float, inst, res) -> None:
    checks.check_covering_instance(rd.keys3, rd.ekeys, lam, inst.space.keys,
                                   inst.costs, inst.rows)
    checks.check_covering_solution(inst.rows, inst.costs, covering_z(inst, res), res.dual,
                                   res.solution.objective, res.dual_objective)


def _record(rep) -> tuple:
    """The fields of a CLI run record that must equal the in-process run's."""
    return rep.lam, rep.seed, rep.objective, rep.lower_bound


def mean_ratio(reports) -> float:
    ratios = [r.ratio for r in reports if r.ratio is not None]
    return math.fsum(ratios) / len(ratios)


# ---------------------------------------------------------------------------
# Workload base


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.errors: list[str] = []
        self.ins = self.make_inputs()

    def make_inputs(self) -> list[Input]:
        raise NotImplementedError

    def sweep(self, tr: Tracer, ready: list[Ready], ops: Ops):
        raise NotImplementedError

    def cli_commands(self) -> list[CliCommand]:
        raise NotImplementedError

    def check(self, tr: Tracer, ready: list[Ready], result, docs) -> None:
        raise NotImplementedError

    def ratio(self, result) -> float:
        raise NotImplementedError

    def traced_extra(self, tr: Tracer, ready: list[Ready], result) -> None:
        """Traced-only calls that split a layer further; outside the sweep span."""

    def out(self, name: str) -> Path:
        return self.work / "out" / name


def _collab_input(work: Path, name: str, params, seed: int) -> Input:
    edges = inputs.collaboration_edges(params, seed)
    path = work / "inputs" / f"{name}-seed{seed}.txt"
    inputs.write_edge_list(path, edges, params.n)
    return Input(name, path, params.n, edges, keep_file_ids=False)


# ---------------------------------------------------------------------------
# hepph-cfp: cover_label once per lambda, then cover/flip/pivot per seed


@dataclass
class CfpResult:
    labels: dict  # lam -> (labeling, certificate)
    reports: list  # RunReport, lambda-major then seed


class HepphCfp(Workload):
    name = "hepph-cfp"

    def make_inputs(self):
        return [_collab_input(self.work, "hepph", inputs.HEPPH, self.seed)]

    def sweep(self, tr, ready, ops):
        rd = ready[0]
        res = CfpResult({}, [])
        for lam in LAMBDAS:  # as cli.cmd_cluster --alg cfp
            with tr.span("stc.cover_label") as sp:
                lab, cert = cover_label(rd.g, rd.widx, lam)
                sp.add("dual_positive", int(np.count_nonzero(cert.wedge_values > 0)))
            res.labels[lam] = (lab, cert)
            for r in range(CFP_SEEDS):
                with tr.span("cluster.cfp_seed"):
                    rep = cover_flip_pivot(rd.g, rd.widx, lam, self.seed + r,
                                           labeling=lab, certificate=cert)
                ops.attempted += 1
                res.reports.append(rep)
        return res

    def traced_extra(self, tr, ready, result):
        rd = ready[0]
        with tr.span("cfp.split"):
            for lam, (lab, _) in result.labels.items():
                with tr.span("cluster.derive"):
                    gh = derived_graph_from_labeling(rd.g, lab)
                for rep in (r for r in result.reports if r.lam == lam):
                    with tr.span("cluster.pivot"):
                        c = pivot(gh, rep.seed)
                    with tr.span("cluster.objective"):
                        obj = lambda_cc_objective(rd.g, lam, c)
                    if c != rep.clustering or obj != rep.objective:
                        self.errors.append(f"split cfp differs at lambda={lam} seed={rep.seed}")

    def cli_commands(self):
        return [CliCommand(["cluster", str(self.ins[0].path), "--alg", "cfp",
                            "--lambda", ",".join(map(str, LAMBDAS)),
                            "--seeds", str(CFP_SEEDS), "--seed", str(self.seed)],
                           self.out("hepph-cfp.json"))]

    def check(self, tr, ready, result, docs):
        rd = ready[0]
        for lam, (lab, cert) in result.labels.items():
            check_cover(rd, lam, lab, cert)
        for rep in result.reports:
            check_run(rd, rep)
        checks.check_ratios([r.ratio for r in result.reports], 6.0, "cfp")
        if docs[0] is not None:
            checks.check_cli_records(docs[0]["records"],
                                     [_record(r) for r in result.reports], "cfp")

    def ratio(self, result):
        return mean_ratio(result.reports)


# ---------------------------------------------------------------------------
# grqc-lp: covering LP through HiGHS, orientation flip, certify, lp-round


@dataclass
class LpResult:
    solves: dict  # lam -> (instance, SolveResult, x solution, CertifyResult)
    reports: list


class GrqcLp(Workload):
    name = "grqc-lp"

    def make_inputs(self):
        return [_collab_input(self.work, "grqc", inputs.GRQC, self.seed)]

    def sweep(self, tr, ready, ops):
        rd = ready[0]
        res = LpResult({}, [])
        for lam in GRQC_LAMBDAS:  # as cli.cmd_cluster --alg lp-round, then cmd_certify
            with tr.span("lp.build") as sp:
                _, inst = build_lambda_stc_lp(rd.g, rd.widx, lam)
                sp.add("variables", inst.num_variables)
                sp.add("rows", inst.num_constraints)
            with tr.span("lp.highs") as sp:
                sol = solve_exact_sparse(inst)
                sp.add("iterations", sol.iterations)
            ops.attempted += 1
            with tr.span("lp.orient"):
                x = sol.solution.to_x(rd.g)
            with tr.span("lp.certify"):
                cres = certify_canonical_feasibility(rd.g, x)
            res.solves[lam] = (inst, sol, x, cres)
            for r in range(LP_ROUND_SEEDS):
                with tr.span("cluster.round"):
                    rep = round_lambda_stc_lp(rd.g, rd.widx, lam, x, self.seed + r)
                ops.attempted += 1
                res.reports.append(rep)
        return res

    def cli_commands(self):
        lams = ",".join(map(str, GRQC_LAMBDAS))
        path = str(self.ins[0].path)
        return [
            CliCommand(["cluster", path, "--alg", "lp-round", "--lambda", lams,
                        "--seeds", str(LP_ROUND_SEEDS), "--seed", str(self.seed)],
                       self.out("grqc-lp-round.json")),
            CliCommand(["certify", path, "--lambda", lams], self.out("grqc-certify.json")),
        ]

    def check(self, tr, ready, result, docs):
        rd = ready[0]
        for lam, (inst, sol, x, cres) in result.solves.items():
            check_covering(rd, lam, inst, sol)
            keys = np.array([u * rd.n + v for u, v in x.values], dtype=np.int64)
            checks.check_certificate(rd.n, keys, np.fromiter(x.values.values(), float),
                                     cres.certified, cres.violations)
        for rep in result.reports:
            check_run(rd, rep)
        for lam in GRQC_LAMBDAS:
            checks.check_ratios([r.ratio for r in result.reports if r.lam == lam],
                                LP_ROUND_FACTOR[lam], f"lp-round lambda={lam}")
        if docs[0] is not None:
            checks.check_cli_records(docs[0]["records"],
                                     [_record(r) for r in result.reports], "lp-round")
        if docs[1] is not None:
            certs = docs[1] if isinstance(docs[1], list) else [docs[1]]  # one lambda: one doc
            got = [(d["lambda"], d["lp_value"], d["certified"]) for d in certs]
            want = [(lam, s[1].solution.objective, s[3].certified)
                    for lam, s in result.solves.items()]
            if got != want:
                raise checks.CheckError(f"certify CLI {got} != in-process {want}")

    def ratio(self, result):
        return mean_ratio(result.reports)


# ---------------------------------------------------------------------------
# desk-engines: a fixed corpus of tiny G(n, p) graphs through every engine


@dataclass
class DeskEntry:
    """Everything one corpus graph produced in the sweep."""

    lp: dict = field(default_factory=dict)  # lam -> (inst, exact, highs, mwu)
    inter: dict = field(default_factory=dict)  # lam -> SolveResult or None
    labels: dict = field(default_factory=dict)  # lam -> (labeling, certificate)
    reports: list = field(default_factory=list)


# Corpus graphs whose files the CLI commands read: the first replicate at
# p = 0.4 for each n. Per-process start-up dominates these commands.
DESK_CLI_GRAPHS = (4, 16, 28, 40, 52)


class DeskEngines(Workload):
    name = "desk-engines"

    def make_inputs(self):
        ins = []
        for d in inputs.DESK_CORPUS:
            edges = inputs.gnp_edges(d.n, d.p, d.seed)
            path = self.work / "inputs" / "desk" / f"gnp-{d.n}-{d.p}-{d.seed}.txt"
            inputs.write_edge_list(path, edges, d.n)
            ins.append(Input(f"gnp({d.n},{d.p},{d.seed})", path, d.n, edges,
                             keep_file_ids=True))
        return ins

    def sweep(self, tr, ready, ops):
        out = []
        s = self.seed
        for rd in ready:
            e = DeskEntry()
            g, w = rd.g, rd.widx
            for lam in LAMBDAS:
                with tr.span("lp.build") as sp:
                    _, inst = build_lambda_stc_lp(g, w, lam)
                    sp.add("variables", inst.num_variables)
                    sp.add("rows", inst.num_constraints)
                with tr.span("simplex.solve") as sp:
                    exact = solve_exact(inst)
                    sp.add("pivots", exact.iterations)
                ops.attempted += 1
                highs = self.highs(tr, rd, lam, inst, ops)
                mwu = None
                with tr.span("lp.mwu") as sp:
                    try:
                        mwu = solve_mwu(inst, MWU_EPSILON)
                    except MwuConvergenceError as err:
                        ops.fail(f"{rd.inp.name} lambda={lam} solve_mwu: {err}")
                    else:
                        sp.add("iterations", mwu.iterations)
                        sp.add("certified", int(mwu.solution.objective
                                                <= (1 + MWU_EPSILON) * mwu.dual_objective))
                    sp.add("solves", 1)
                ops.attempted += 1
                e.lp[lam] = (inst, exact, highs, mwu)
                with tr.span("lp.build") as sp:
                    lp3 = build_intermediate_lp(g, w, lam)
                    sp.add("variables", lp3.num_variables)
                    sp.add("rows", lp3.num_constraints)
                inter = None
                with tr.span("simplex.solve") as sp:
                    try:
                        inter = solve_general_exact(lp3)
                    except SimplexError as err:
                        ops.fail(f"{rd.inp.name} lambda={lam} solve_general_exact: {err}")
                    else:
                        sp.add("pivots", inter.iterations)
                ops.attempted += 1
                e.inter[lam] = inter
                if inter is not None:
                    with tr.span("cluster.round"):
                        e.reports.append(round_intermediate_lp(g, w, lam, inter.solution, s))
                    ops.attempted += 1
                with tr.span("stc.cover_label") as sp:
                    lab, cert = cover_label(g, w, lam)
                    sp.add("dual_positive", int(np.count_nonzero(cert.wedge_values > 0)))
                e.labels[lam] = (lab, cert)
                with tr.span("cluster.cfp_seed"):
                    e.reports.append(cover_flip_pivot(g, w, lam, s, labeling=lab,
                                                      certificate=cert))
                ops.attempted += 1
            with tr.span("lp.build") as sp:
                _, inst = build_lambda_stc_lp(g, w, LOW_LAMBDA)
                sp.add("variables", inst.num_variables)
                sp.add("rows", inst.num_constraints)
            with tr.span("simplex.solve") as sp:
                exact = solve_exact(inst)
                sp.add("pivots", exact.iterations)
            ops.attempted += 1
            highs = self.highs(tr, rd, LOW_LAMBDA, inst, ops)
            e.lp[LOW_LAMBDA] = (inst, exact, highs, None)
            with tr.span("lp.orient"):
                x = exact.solution.to_x(g)
            with tr.span("cluster.round"):
                e.reports.append(round_lambda_stc_lp(g, w, LOW_LAMBDA, x, s))
            ops.attempted += 1
            out.append(e)
        return out

    @staticmethod
    def highs(tr, rd, lam, inst, ops):
        """HiGHS on the same covering LP, the reference the exact engine must match."""
        with tr.span("lp.highs") as sp:
            try:
                res = solve_exact_sparse(inst)
            except InfeasibleSolutionError as err:
                ops.fail(f"{rd.inp.name} lambda={lam} solve_exact_sparse: {err}")
                res = None
            else:
                sp.add("iterations", res.iterations)
        ops.attempted += 1
        return res

    def cli_commands(self):
        cmds = []
        lams = ",".join(map(str, LAMBDAS))
        s = str(self.seed)
        for i in DESK_CLI_GRAPHS:
            path = str(self.ins[i].path)
            cmds += [
                CliCommand(["cluster", path, "--alg", "cfp", "--lambda", lams, "--seed", s],
                           self.out(f"desk-{i}-cfp.json")),
                CliCommand(["cluster", path, "--alg", "lp3-round", "--lambda", lams,
                            "--seed", s], self.out(f"desk-{i}-lp3.json")),
                CliCommand(["lp-solve", path, "--lambda", lams],
                           self.out(f"desk-{i}-lp.json")),
                CliCommand(["cluster", path, "--alg", "lp-round", "--lambda",
                            str(LOW_LAMBDA), "--seed", s], self.out(f"desk-{i}-lpr.json")),
            ]
        return cmds

    def check(self, tr, ready, result, docs):
        by_alg: dict[tuple[str, float], list[float]] = {}
        for rd, e in zip(ready, result):
            opt = {}
            if rd.n <= ORACLE_MAX_N:
                with tr.span("oracle.check") as sp:
                    sweep = exact_lambda_cc_sweep(rd.g, LAMBDAS + (LOW_LAMBDA,))
                    sp.add("partitions", sweep[LOW_LAMBDA].enumerated_count)
                opt = {lam: r.optimum for lam, r in sweep.items()}
            for lam, (inst, exact, highs, mwu) in e.lp.items():
                check_covering(rd, lam, inst, exact)
                if highs is not None:
                    check_covering(rd, lam, inst, highs)
                    checks.check_lp_values(exact.solution.objective, None,
                                           highs.solution.objective, None, MWU_EPSILON)
                if mwu is not None:
                    checks.check_covering_solution(
                        inst.rows, inst.costs, covering_z(inst, mwu), None,
                        mwu.solution.objective)
                    if mwu.dual is not None:
                        checks.check_covering_solution(
                            inst.rows, inst.costs, covering_z(inst, mwu), mwu.dual,
                            mwu.solution.objective, mwu.dual_objective,
                            gap_tol=math.inf)
                    checks.check_lp_values(exact.solution.objective, None, None,
                                           mwu.solution.objective, MWU_EPSILON)
                inter = e.inter.get(lam)
                if inter is not None:
                    checks.check_lp_values(exact.solution.objective,
                                           inter.solution.objective, None, None, MWU_EPSILON)
            for lam, (lab, cert) in e.labels.items():
                check_cover(rd, lam, lab, cert)
            for rep in e.reports:
                check_run(rd, rep)
                by_alg.setdefault((rep.algorithm, rep.lam), []).append(rep.ratio)
            for lam, o in opt.items():
                lower = {"covering LP": e.lp[lam][1].solution.objective}
                if lam in e.labels:
                    lower["cover_label bound"] = e.labels[lam][1].lower_bound
                if e.inter.get(lam) is not None:
                    lower["intermediate LP"] = e.inter[lam].solution.objective
                checks.check_sandwich(lower, o, {f"{r.algorithm}": r.objective
                                                 for r in e.reports if r.lam == lam})
        for (alg, lam), ratios in by_alg.items():
            limit = {"cfp": 6.0, "lp3-round": 3.0}.get(alg) or LP_ROUND_FACTOR[lam]
            checks.check_ratios([r for r in ratios if r is not None], limit,
                                f"{alg} lambda={lam}")
        self.check_cli(docs)

    def check_cli(self, docs):
        """Recompute each CLI command in-process on the graph the CLI parsed."""
        s = self.seed
        it = iter(docs)
        for i in DESK_CLI_GRAPHS:
            g = load_graph(self.ins[i].path)
            w = enumerate_wedges(g)
            cfp, lp3, lps, lpr = (next(it) for _ in range(4))
            covering = {lam: solve_exact(build_lambda_stc_lp(g, w, lam)[1])
                        for lam in LAMBDAS + (LOW_LAMBDA,)}
            if cfp is not None:
                runs = [cover_flip_pivot(g, w, lam, s) for lam in LAMBDAS]
                checks.check_cli_records(cfp["records"], [_record(r) for r in runs],
                                         f"desk {i} cfp")
            if lp3 is not None:
                runs = [round_intermediate_lp(
                    g, w, lam, solve_general_exact(build_intermediate_lp(g, w, lam)).solution, s)
                    for lam in LAMBDAS]
                checks.check_cli_records(lp3["records"], [_record(r) for r in runs],
                                         f"desk {i} lp3-round")
            if lps is not None and [d["objective"] for d in lps] != [
                    covering[lam].solution.objective for lam in LAMBDAS]:
                raise checks.CheckError(f"desk {i} lp-solve values differ from in-process")
            if lpr is not None:
                x = covering[LOW_LAMBDA].solution.to_x(g)
                r = round_lambda_stc_lp(g, w, LOW_LAMBDA, x, s)
                checks.check_cli_records(lpr["records"], [_record(r)], f"desk {i} lp-round")

    def ratio(self, result):
        return mean_ratio([r for e in result for r in e.reports])


WORKLOADS = {w.name: w for w in (HepphCfp, GrqcLp, DeskEngines)}
