import argparse
import itertools
import json
import os
import re
import stat
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import lamcc.cli
import lamcc.cluster
import lamcc.graph
from lamcc.certificate import check_primal
from lamcc.cli import CLUSTER_ALGS, _build_parser, _record, main
from lamcc.cluster import (
    Clustering,
    RunReport,
    cover_flip_pivot,
    lambda_cc_objective,
    pivot,
    round_intermediate_lp,
    round_lambda_stc_lp,
)
from lamcc.graph import enumerate_wedges, load_graph, to_edge_list_text
from lamcc.lp import (
    FractionalSolution,
    build_intermediate_lp,
    build_lambda_stc_lp,
    solve_exact,
    solve_general_exact,
    solve_mwu,
)
from lamcc.oracle import exact_lambda_cc, exact_lambda_cc_sweep
from lamcc.testing import erdos_renyi


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.txt"
    f.write_text("0 1\n1 2\n")
    return str(f)


@pytest.fixture
def k3_file(tmp_path):
    f = tmp_path / "K3.txt"
    f.write_text("0 1\n1 2\n0 2\n")
    return str(f)


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "C4.txt"
    f.write_text("0 1\n1 2\n2 3\n0 3\n")
    return str(f)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# stats / constraints


def test_stats_k3(capsys, k3_file):
    doc = run_json(capsys, ["stats", k3_file])
    assert doc["n"] == 3 and doc["m"] == 3
    assert doc["wedge_count"] == 0 and doc["triangle_count"] == 1
    assert doc["canonical_constraint_count"] == 3


def test_stats_takes_the_format_from_the_first_line(capsys, tmp_path):
    # the same edges as MatrixMarket, as an edge list, and as an edge list
    # that opens with a '%' comment; each file's name is "g"
    edges = "0 1\n1 2\n2 0\n2 3\n"
    files = {"mm": "%%MatrixMarket matrix coordinate pattern symmetric\n"
                   "4 4 4\n1 2\n2 3\n3 1\n3 4\n",
             "el": edges, "comment": "% 1 2\n" + edges}
    outs = []
    for kind, text in files.items():
        (tmp_path / kind).mkdir()
        f = tmp_path / kind / ("g.mtx" if kind == "mm" else "g.txt")
        f.write_text(text)
        assert main(["stats", str(f)]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0].out)["m"] == 4
    # the format is not a flag
    with pytest.raises(SystemExit) as info:
        main(["stats", "--format", "mtx", str(f)])
    assert info.value.code == 2


def test_constraints_csv(capsys, k3_file, path_file, c4_file):
    rc = main(["constraints", k3_file, path_file, c4_file])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert "K3,3,3,0,3,3" in lines
    assert "path,3,2,1,1,3" in lines
    assert "C4,4,4,4,4,12" in lines


def test_constraints_partial_failure(capsys, k3_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not numbers\n")
    rc = main(["constraints", k3_file, str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "K3,3,3,0,3,3" in captured.out  # good file still processed
    assert "bad" in captured.err


# ---------------------------------------------------------------------------
# cluster


def test_cluster_cfp_path_example(capsys, path_file):
    doc = run_json(
        capsys,
        ["cluster", path_file, "--alg", "cfp", "--lambda", "0.6", "--seeds", "15"],
    )
    assert len(doc["records"]) == 15
    agg = doc["aggregates"][0]
    assert agg["objective"]["mean"] == pytest.approx(0.8)
    assert agg["ratio"]["mean"] == pytest.approx(2.0)
    assert doc["records"][0]["lower_bound"] == pytest.approx(0.4)


def test_cluster_records_ordered_by_lambda_then_seed(capsys, path_file):
    doc = run_json(
        capsys,
        ["cluster", path_file, "--alg", "louvain", "--lambda", "0.6,0.8",
         "--seeds", "3", "--seed", "5"],
    )
    key = [(r["lambda"], r["seed"]) for r in doc["records"]]
    assert key == sorted(key)
    assert key[0] == (0.6, 5)


@pytest.mark.parametrize("alg", ["pivot", "lp-round", "lp3-round", "louvain"])
def test_cluster_all_algorithms_run(capsys, c4_file, alg):
    doc = run_json(
        capsys,
        ["cluster", c4_file, "--alg", alg, "--lambda", "0.75", "--seeds", "2"],
    )
    assert len(doc["records"]) == 2
    for rec in doc["records"]:
        assert rec["objective"] >= 0.0


def test_cluster_assignment_out(tmp_path, capsys, path_file):
    out = tmp_path / "asg.txt"
    rc = main(["cluster", path_file, "--alg", "cfp", "--lambda", "0.6",
               "-o", str(tmp_path / "rep.json"), "--assignment-out", str(out)])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3 and all(len(l.split()) == 2 for l in lines)


@pytest.mark.parametrize(
    "labels", [[], [0], [3, 3, 1, 3, 2, 1, 9, 9, 9, 9, *range(20, 32)]]
)
def test_cluster_size_hist_counts_the_member_lists(labels):
    c = Clustering.from_assignment(labels)
    rep = RunReport("pivot", 0.5, 0, c, 0.0, None, None, None)
    want = Counter(Counter(c.assignment).values())  # member-list sizes
    got = _record(rep, None)["cluster_size_hist"]
    assert list(got.items()) == [(str(s), want[s]) for s in sorted(want)]
    assert all(type(v) is int for v in got.values())


def test_cluster_pivot_records(capsys, tmp_path):
    # each record equals the report of the matching per-seed library call
    f = tmp_path / "g.txt"
    f.write_text(to_edge_list_text(erdos_renyi(12, 0.35, 4)))
    g = load_graph(f)
    widx = enumerate_wedges(g)

    def pivot_run(lam, seed):
        return pivot(g, seed), None, None

    def cfp(lam, seed):
        rep = cover_flip_pivot(g, widx, lam, seed)
        return rep.clustering, rep.lower_bound, rep.lb_provenance

    def lp_round(lam, seed):
        sol = solve_exact(build_lambda_stc_lp(g, widx, lam)[1]).solution
        rep = round_lambda_stc_lp(g, widx, lam, sol.to_x(g), seed)
        return rep.clustering, rep.lower_bound, rep.lb_provenance

    def lp_round_mwu(lam, seed):
        sol = solve_mwu(build_lambda_stc_lp(g, widx, lam)[1], 0.2).solution
        rep = round_lambda_stc_lp(g, widx, lam, sol.to_x(g), seed)
        return rep.clustering, rep.lower_bound, rep.lb_provenance

    def lp3_round(lam, seed):
        sol = solve_general_exact(build_intermediate_lp(g, widx, lam)).solution
        rep = round_intermediate_lp(g, widx, lam, sol, seed)
        return rep.clustering, rep.lower_bound, rep.lb_provenance

    for alg, extra, library in [
        ("pivot", [], pivot_run),
        ("cfp", [], cfp),
        ("lp-round", [], lp_round),
        ("lp-round", ["--engine", "mwu", "--epsilon", "0.2"], lp_round_mwu),
        ("lp3-round", [], lp3_round),
    ]:
        argv = ["cluster", str(f), "--alg", alg, "--lambda", "0.4,0.75",
                "--seeds", "2", "--seed", "5", *extra]
        records = run_json(capsys, argv)["records"]
        assert [(r["lambda"], r["seed"]) for r in records] == [
            (0.4, 5), (0.4, 6), (0.75, 5), (0.75, 6)
        ]
        for rec in records:
            c, lb, provenance = library(rec["lambda"], rec["seed"])
            objective = lambda_cc_objective(g, rec["lambda"], c)
            sizes = Counter(Counter(c.assignment).values())
            assert rec["algorithm"] == alg
            assert rec["objective"] == objective
            assert rec["lower_bound"] == lb and rec["lb_provenance"] == provenance
            assert rec["ratio"] == (None if lb is None else objective / lb)
            assert rec["num_clusters"] == c.num_clusters
            assert rec["cluster_size_hist"] == {str(k): v for k, v in sizes.items()}


@pytest.mark.parametrize("alg", ["lp-round", "lp3-round"])
def test_cluster_checks_the_rounded_solution_once_per_lambda(capsys, monkeypatch, tmp_path, alg):
    f = tmp_path / "g.txt"
    f.write_text(to_edge_list_text(erdos_renyi(12, 0.35, 4)))
    calls = []

    def counted(*a):
        calls.append(a)
        return check_primal(*a)

    monkeypatch.setattr(lamcc.cluster, "check_primal", counted)
    run_json(capsys, ["cluster", str(f), "--alg", alg, "--lambda", "0.55,0.75", "--seeds", "4"])
    assert len(calls) == 2


def test_cluster_refuses_a_solution_that_violates_a_wedge_row(capsys, monkeypatch, path_file):
    # the path 0-1-2 has one wedge; z = 0 on every pair leaves it uncovered
    def solve_zero(inst):
        res = solve_exact(inst)
        return replace(res, solution=replace(res.solution, vals=0.0 * res.solution.vals))

    monkeypatch.setattr(lamcc.cli, "solve_exact", solve_zero)
    argv = ["cluster", path_file, "--alg", "lp-round", "--lambda", "0.6", "--seeds", "3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"violates a row .* first row 0$", captured.err.strip())


def test_byte_identical_reports(tmp_path, capsys, path_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["cluster", path_file, "--alg", "cfp", "--lambda", "0.6",
            "--seeds", "5", "--seed", "3"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# label / lp-solve / certify / exact


def test_label_json(capsys, path_file):
    doc = run_json(capsys, ["label", path_file, "--lambda", "0.6"])
    assert doc["weak"] == [[0, 1], [1, 2]]
    assert doc["miss"] == []
    assert doc["objective"] == pytest.approx(0.8)
    assert doc["lower_bound"] == pytest.approx(0.4)


def test_lp_solve_and_dump(capsys, tmp_path, path_file):
    # the solution goes to stdout, or with -o to a file holding the same bytes
    out = tmp_path / "lp.json"
    argv = ["lp-solve", path_file, "--lambda", "0.6", "--certify"]
    doc = run_json(capsys, argv)
    assert doc["objective"] == pytest.approx(0.4)
    assert doc["values"] == [[0, 1, 1.0], [0, 2, 0.0], [1, 2, 0.0]]
    assert doc["certified_canonical"] is True
    assert doc["engine"] == "highs"
    assert main([*argv, "-o", str(out)]) == 0
    assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2)


def _solution(n, pairs, vals):
    keys = np.array([u * n + v for u, v in pairs], dtype=np.int64)
    return FractionalSolution("x", 0.5, n, keys, np.array(vals, dtype=float), 0.0)


def _triples(doc):
    """The document json itself would print: each solution as its (u, v, x) triples."""
    if isinstance(doc, FractionalSolution):
        return [(int(k) // doc.n, int(k) % doc.n, x) for k, x in zip(doc.keys, doc.vals.tolist())]
    if isinstance(doc, dict):
        return {k: _triples(v) for k, v in doc.items()}
    return [_triples(v) for v in doc] if isinstance(doc, list) else doc


def test_dump_json_splices_the_values_as_json_prints_them():
    odd = _solution(1000, [(0, 1), (2, 999), (5, 7), (998, 999)], [1e-05, 0.1 + 0.2, 1.0, 0.0])
    plain = _solution(3, [(0, 2)], [1 / 3])
    empty = _solution(4, [], [])
    one = {"schema_version": 1, "lambda": 0.05, "values": odd, "z": None, "engine": "highs"}
    several = [one, {**one, "values": plain, "lambda": 1e-05}, {**one, "values": empty}]
    nested = {"witness": {"values": plain}, "optimum": 0.1 + 0.2, "a": [empty, odd]}
    for doc in (one, several, nested, odd, [odd]):
        want = json.dumps(_triples(doc), sort_keys=True, indent=2)
        assert lamcc.cli._dump_json(doc) == want
    assert "1e-05" in want and "0.30000000000000004" in want


def test_lp_solve_mwu_engine(capsys, path_file):
    doc = run_json(
        capsys,
        ["lp-solve", path_file, "--lambda", "0.6", "--engine", "mwu",
         "--epsilon", "0.05"],
    )
    assert doc["engine"] == "mwu"
    assert doc["objective"] <= 0.4 * 1.05 + 1e-9


@pytest.mark.parametrize("command", [
    ["certify"],
    ["lp-solve", "--epsilon", "0.001"],
])
def test_mwu_engine_with_an_edge_in_no_open_wedge(capsys, tmp_path, command):
    # the edge 4-5 lies only in triangles, so no covering row holds it
    f = tmp_path / "tri.txt"
    f.write_text("0 3\n2 4\n2 5\n3 4\n3 5\n3 6\n4 5\n")
    doc = run_json(
        capsys, [command[0], str(f), "--lambda", "0.5", "--engine", "mwu", *command[1:]]
    )
    assert doc["engine"] == "mwu"


@pytest.mark.parametrize("extra", [
    [],
    ["--intermediate"],
    ["--engine", "mwu", "--epsilon", "0.001"],
])
def test_lp_solve_prints_no_signed_zero(capsys, tmp_path, extra):
    # each engine left a -0.0 here: HiGHS at 0.3, intermediate at 0.5,
    # and the MWU grid snap at both
    f = tmp_path / "tri.txt"
    f.write_text("0 3\n2 4\n2 5\n3 4\n3 5\n3 6\n4 5\n")
    assert main(["lp-solve", str(f), "--lambda", "0.3,0.5", *extra]) == 0
    assert not re.search(r"-0\.0\b", capsys.readouterr().out)


EDGE_CASE_INPUTS = {
    "self-loops-only": "1 1\n2 2\n",
    "single-edge": "0 1\n",
    "disconnected": "0 1\n2 3\n4 5\n5 6\n",
}


@pytest.mark.parametrize("text", EDGE_CASE_INPUTS.values(), ids=EDGE_CASE_INPUTS)
@pytest.mark.parametrize("command", [
    ["label", "--minimal"],
    ["cluster", "--alg", "cfp"],
    ["cluster", "--alg", "lp-round", "--engine", "mwu"],
    ["cluster", "--alg", "lp3-round"],
    ["certify"],
    ["lp-solve", "--intermediate", "--certify"],
])
def test_edge_case_inputs_report_a_bound(capsys, tmp_path, text, command):
    f = tmp_path / "g.txt"
    f.write_text(text)
    doc = run_json(capsys, [command[0], str(f), "--lambda", "0.55,0.75", *command[1:]])
    if command[0] == "cluster":
        pairs = [(r["lower_bound"], r["objective"]) for r in doc["records"]]
    elif command[0] == "label":
        pairs = [(d["lower_bound"], d["objective"]) for d in doc]
    elif command[0] == "certify":
        pairs = [(0.0, d["lp_value"]) for d in doc if d["certified"]]
    else:
        pairs = [(d["dual_bound"], d["objective"]) for d in doc if d["certified_canonical"]]
    assert len(pairs) == 2
    assert all(bound <= objective + 1e-9 for bound, objective in pairs)


def test_lp_round_mwu_reports_the_checked_dual_as_its_bound(capsys, tmp_path):
    # the MWU primal here (3.15) lies above the clustering optimum (2.8);
    # HiGHS reports its checked dual too
    g = erdos_renyi(8, 0.55, 9008)
    f = tmp_path / "g.txt"
    f.write_text(to_edge_list_text(g))
    argv = ["cluster", str(f), "--alg", "lp-round", "--lambda", "0.55"]
    (rec,) = run_json(capsys, [*argv, "--engine", "mwu", "--epsilon", "0.2"])["records"]
    assert (rec["lower_bound"], rec["lb_provenance"]) == (2.786170212765957, "lp_dual")
    assert rec["ratio"] == rec["objective"] / rec["lower_bound"]
    assert rec["lower_bound"] <= exact_lambda_cc(g, 0.55).optimum == 2.8
    (rec,) = run_json(capsys, argv)["records"]
    res = solve_exact(build_lambda_stc_lp(g, enumerate_wedges(g), 0.55)[1])
    assert (rec["lower_bound"], rec["lb_provenance"]) == (res.dual_objective, "lp_dual")
    assert rec["lower_bound"] <= 2.8


SANDWICH_ARGS = {
    "pivot": ["--alg", "pivot"],
    "louvain": ["--alg", "louvain"],
    "cfp": ["--alg", "cfp"],
    "lp-round-highs": ["--alg", "lp-round"],
    "lp-round-mwu-0.2": ["--alg", "lp-round", "--engine", "mwu", "--epsilon", "0.2"],
    "lp-round-mwu-0.1": ["--alg", "lp-round", "--engine", "mwu", "--epsilon", "0.1"],
    "lp3-round": ["--alg", "lp3-round"],
}


@pytest.mark.parametrize("args", SANDWICH_ARGS.values(), ids=SANDWICH_ARGS)
def test_cluster_bounds_and_objectives_sandwich_the_optimum(capsys, tmp_path, args):
    f = tmp_path / "g.txt"
    for graph_seed in range(300, 312):
        g = erdos_renyi(9, 0.45, graph_seed)
        f.write_text(to_edge_list_text(g))
        optimum = exact_lambda_cc_sweep(g, (0.3, 0.55, 0.75))
        argv = ["cluster", str(f), "--lambda", "0.3,0.55,0.75", "--seeds", "2", *args]
        records = run_json(capsys, argv)["records"]
        assert len(records) == 6
        for rec in records:
            opt = optimum[rec["lambda"]].optimum
            assert opt <= rec["objective"] + 1e-9
            if args[1] in ("pivot", "louvain"):
                assert rec["lower_bound"] is None
            else:
                assert rec["lower_bound"] <= opt + 1e-9


def test_lp3_round_beyond_the_former_dense_cap(capsys, tmp_path):
    # the intermediate LP here has 9488 rows; lp3-round used to stop at
    # 5000 rows or variables with exit code 4
    g = erdos_renyi(60, 0.3, 7)
    assert build_intermediate_lp(g, enumerate_wedges(g), 0.75).num_constraints > 5000
    f = tmp_path / "gnp60.txt"
    f.write_text(to_edge_list_text(g))
    doc = run_json(capsys, ["cluster", str(f), "--alg", "lp3-round", "--lambda", "0.75"])
    (rec,) = doc["records"]
    assert rec["lower_bound"] == pytest.approx(67.5)
    assert 1.0 <= rec["ratio"] <= 3.0


def test_lp_solve_loads_highs_without_scipy_optimize(tmp_path, python_child):
    # a fresh process, so nothing else has imported scipy.optimize yet
    g = erdos_renyi(12, 0.4, 9054)
    f = tmp_path / "desk.txt"
    f.write_text(to_edge_list_text(g))
    script = f"""
import sys
from lamcc.cli import main
from lamcc.lp import _highs
for extra in ([], ["--intermediate"]):
    assert main(["lp-solve", {str(f)!r}, "--lambda", "0.55,0.75", *extra,
                 "-o", {str(tmp_path / "out.json")!r}]) == 0
assert "scipy.optimize" not in sys.modules and "scipy.sparse" not in sys.modules
from scipy.optimize._highspy import _highs_wrapper
assert _highs_wrapper._h is _highs()
"""
    r = python_child(script)
    assert r.returncode == 0, r.stderr
    assert [d["engine"] for d in json.loads((tmp_path / "out.json").read_text())] == [
        "highs", "highs"]


def test_cfp_and_certify_leave_numpy_ma_unloaded(tmp_path, python_child):
    # numpy 2.x imports numpy.ma on the first plain np.unique (12-16 ms);
    # numpy 1.24 imports it with numpy, so compare with the state after import
    f = tmp_path / "desk.txt"
    f.write_text(to_edge_list_text(erdos_renyi(12, 0.4, 9054)))
    script = f"""
import sys
from lamcc.cli import main
before = "numpy.ma" in sys.modules
assert main(["cluster", {str(f)!r}, "--alg", "cfp", "--lambda", "0.55,0.75", "--seeds", "3",
             "-o", {str(tmp_path / "cfp.json")!r}]) == 0
assert main(["certify", {str(f)!r}, "--lambda", "0.55,0.75",
             "-o", {str(tmp_path / "certify.json")!r}]) == 0
assert ("numpy.ma" in sys.modules) == before, before
"""
    r = python_child(script)
    assert r.returncode == 0, r.stderr
    assert all(d["certified"] for d in json.loads((tmp_path / "certify.json").read_text()))


def test_certify(capsys, k3_file):
    doc = run_json(capsys, ["certify", k3_file, "--lambda", "0.75"])
    assert doc["certified"] is True
    assert doc["lp_value"] == pytest.approx(0.0, abs=1e-9)
    assert doc["canonical_optimum"] == pytest.approx(0.0, abs=1e-9)


def test_certify_mwu_reports_a_bracket_not_a_canonical_optimum(capsys, tmp_path):
    # the desk graph G(10, 0.25) of seed 9025: the MWU primal satisfies every
    # triangle inequality, yet it lies above the LP optimum 2.025
    f = tmp_path / "gnp-10-0.25-9025.txt"
    f.write_text("1 3\n1 4\n2 6\n3 8\n4 7\n5 6\n5 9\n7 8\n7 9\n")
    lp = run_json(capsys, ["exact", str(f), "--problem", "lp", "--lambda", "0.55"])
    assert lp["optimum"] == pytest.approx(2.025)
    doc = run_json(capsys, ["certify", str(f), "--lambda", "0.55",
                            "--engine", "mwu", "--epsilon", "0.2"])
    assert doc["certified"] is True and doc["engine"] == "mwu"
    assert doc["canonical_optimum"] is None
    assert doc["dual_bound"] <= lp["optimum"] + 1e-9 <= doc["lp_value"] + 2e-9
    assert doc["lp_value"] > lp["optimum"] + 0.1
    doc = run_json(capsys, ["certify", str(f), "--lambda", "0.55"])
    assert doc["engine"] == "highs"
    assert doc["canonical_optimum"] == doc["lp_value"] == pytest.approx(lp["optimum"])
    assert doc["dual_bound"] == pytest.approx(lp["optimum"])


def test_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path, python_child):
    f = tmp_path / "path.txt"
    f.write_text("0 1\n1 2\n")
    # stdout is a pipe whose reading end is already closed, as after `| head`
    script = f"""
import os, sys
r, w = os.pipe()
os.close(r)
os.dup2(w, 1)
from lamcc.cli import main
sys.exit(main(["label", {str(f)!r}, "--lambda", "0.55"]))
"""
    r = python_child(script)
    assert r.returncode == 1
    assert r.stderr == ""


# the 'vertex cluster' lines of the best of seeds 0-2 at lambda 0.6 on G(9, 0.4, 5)
ASSIGNMENT_PINS = {
    "cfp": "0 4;1 3;2 0;3 2;4 0;5 1;6 1;7 0;8 3",
    "pivot": "0 0;1 0;2 1;3 0;4 0;5 1;6 1;7 0;8 2",
    "louvain": "0 0;1 0;2 1;3 2;4 0;5 3;6 3;7 1;8 2",
}


@pytest.mark.parametrize("alg", ASSIGNMENT_PINS)
def test_assignment_out_bytes_are_pinned(capsys, tmp_path, alg):
    f, out = tmp_path / "g.txt", tmp_path / "a.txt"
    f.write_text(to_edge_list_text(erdos_renyi(9, 0.4, 5)))
    run_json(capsys, ["cluster", str(f), "--alg", alg, "--lambda", "0.6", "--seeds", "3",
                      "--assignment-out", str(out)])
    assert out.read_bytes() == ASSIGNMENT_PINS[alg].replace(";", "\n").encode() + b"\n"


def test_exact_cc_bytes_are_pinned(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(to_edge_list_text(erdos_renyi(9, 0.4, 5)))
    assert main(["exact", str(f), "--problem", "cc", "--lambda", "0.6"]) == 0
    witness = "".join(f"\n      {c}," for c in (0, 0, 0, 1, 2, 3, 3, 2, 1))[:-1]
    assert capsys.readouterr().out == (
        '{\n  "enumerated_count": 21147,\n  "lambda": 0.6,\n  "optimum": 3.6,\n'
        '  "problem": "cc",\n  "schema_version": 1,\n  "witness": {\n'
        f'    "assignment": [{witness}\n    ]\n  }}\n}}\n'
    )


def test_exact_problems(capsys, path_file):
    doc = run_json(capsys, ["exact", path_file, "--problem", "cc", "--lambda", "0.7"])
    assert doc["optimum"] == pytest.approx(0.3)
    assert doc["enumerated_count"] == 5
    doc = run_json(capsys, ["exact", path_file, "--problem", "stc", "--lambda", "0.6"])
    assert doc["optimum"] == pytest.approx(0.4)
    doc = run_json(capsys, ["exact", path_file, "--problem", "lp", "--lambda", "0.5"])
    assert doc["optimum"] == pytest.approx(0.5)


@pytest.mark.parametrize("problem, phase", [("cc", "enumerate"), ("stc", "wedges")])
def test_exact_sweep_lists_the_single_lambda_documents(capsys, tmp_path, problem, phase):
    f = tmp_path / "g.txt"
    f.write_text(to_edge_list_text(erdos_renyi(8, 0.4, 11)))
    argv = ["exact", str(f), "--problem", problem, "--lambda"]
    singles = [run_json(capsys, [*argv, lam]) for lam in ("0.35", "0.7")]
    assert run_json(capsys, [*argv, "0.35,0.7"]) == singles
    # the lambda-independent step runs once per command
    assert main([*argv, "0.35,0.7", "--timings"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert sum(line.startswith(f"[phase] {phase}: ") for line in lines) == 1


# ---------------------------------------------------------------------------
# Exit codes and atomicity


def test_exit_code_missing_file(capsys):
    assert main(["stats", "/nonexistent/nope.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\n")
    assert main(["stats", str(bad)]) == 2


def test_non_utf8_input_exits_2_at_its_line(capsys, tmp_path):
    txt, mtx, good = tmp_path / "bad.txt", tmp_path / "bad.mtx", tmp_path / "good.txt"
    txt.write_bytes(b"0 1\n1 2\n\xff\xfe 3\n")
    mtx.write_bytes(b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n\xff 2\n")
    good.write_text("0 1\n1 2\n")
    for f in (txt, mtx):
        assert main(["stats", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 3: ")
        assert captured.out == ""
    # constraints names each unreadable file and keeps reading the others
    assert main(["constraints", str(txt), str(good), str(mtx)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0].startswith(f"error: {txt}: line 3: ")
    assert captured.err.splitlines()[1].startswith(f"error: {mtx}: line 3: ")
    assert captured.out.splitlines()[2:] == ["good,3,2,1,1,3"]


def test_exit_code_bad_lambda(capsys, path_file):
    assert main(["cluster", path_file, "--alg", "cfp", "--lambda", "1.5"]) == 3
    assert main(["cluster", path_file, "--alg", "cfp", "--lambda", "x"]) == 3


@pytest.mark.parametrize("lambdas", [",", " , "])
def test_an_empty_lambda_list_exits_3(capsys, path_file, lambdas):
    assert main(["label", path_file, "--lambda", lambdas]) == 3
    assert capsys.readouterr() == ("", "error: no lambda values given\n")


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_exit_code_no_seeds(capsys, path_file, seeds):
    argv = ["cluster", path_file, "--alg", "pivot", "--lambda", "0.75", "--seeds", seeds]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: --seeds must be >= 1\n")


def test_exit_code_parameter_regime(capsys, tmp_path):
    # cfp and lp3-round run below 1/2 too, with bounds below the optimum
    f = tmp_path / "g.txt"
    g = erdos_renyi(9, 0.45, 301)
    f.write_text(to_edge_list_text(g))
    optimum = exact_lambda_cc_sweep(g, (0.05, 0.4))
    for alg in ("cfp", "lp3-round"):
        argv = ["cluster", str(f), "--alg", alg, "--lambda", "0.05,0.4"]
        for rec in run_json(capsys, argv)["records"]:
            opt = optimum[rec["lambda"]].optimum
            assert rec["lower_bound"] <= opt + 1e-9
            assert opt <= rec["objective"] + 1e-9


@pytest.mark.parametrize("exists", [True, False], ids=["real-path", "missing-path"])
def test_exit_code_intermediate_mwu_rejected_before_reading(capsys, path_file, exists):
    # the rejection does not depend on the graph, so it comes before the parse
    path = path_file if exists else path_file + ".missing"
    for argv in (
        ["lp-solve", path, "--lambda", "0.6", "--intermediate", "--engine", "mwu"],
        ["cluster", path, "--lambda", "0.6", "--alg", "lp3-round", "--engine", "mwu"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the intermediate LP is not a covering program; "
            "only the highs engine solves it\n"
        )
        assert captured.out == ""


_MWU = ["--lambda", "0.6", "--engine", "mwu", "--epsilon"]


@pytest.mark.parametrize("exists", [True, False], ids=["real-path", "missing-path"])
@pytest.mark.parametrize(
    "command, extra, message",
    [
        *[
            (command, ["--lambda", "1.5"], "lambda must lie in (0, 1), got 1.5")
            for command in (["label"], ["lp-solve"], ["certify"], ["exact", "--problem", "cc"])
        ],
        *[
            (command, [*_MWU, "1.5"], "epsilon must lie in (0, 1), got 1.5")
            for command in (["lp-solve"], ["certify"], ["cluster", "--alg", "lp-round"])
        ],
        (["certify"], [*_MWU, "0"], "epsilon must lie in (0, 1), got 0.0"),
    ],
    ids=[
        "label-lambda", "lp-solve-lambda", "certify-lambda", "exact-lambda",
        "lp-solve-epsilon", "certify-epsilon", "lp-round-epsilon", "certify-epsilon-0",
    ],
)
def test_argument_errors_come_before_the_read(capsys, path_file, exists, command, extra, message):
    path = path_file if exists else path_file + ".missing"
    assert main([command[0], path, *command[1:], *extra]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("exists", [True, False], ids=["real-path", "missing-path"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["cluster", "--alg", "pivot", "--lambda", "0.1,0.9", "--assignment-out"],
         "--assignment-out takes a single lambda"),
    ],
    ids=["assignment-lambda-list"],
)
def test_side_files_take_a_single_lambda(tmp_path, capsys, path_file, exists, argv, message):
    # each side file holds one lambda's result, so a lambda list is refused
    # before the read instead of writing one lambda and dropping the others
    path = path_file if exists else path_file + ".missing"
    side = tmp_path / "side.txt"
    assert main([argv[0], path, *argv[1:], str(side)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not side.exists()


def test_malformed_matrix_market_dimensions_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.mtx"
    f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n% c\nfoo bar\n1 2\n")
    assert main(["stats", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: line 3: dimensions line must hold three integers, got 'foo bar'\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "command", [["lp-solve"], ["certify"], ["cluster", "--alg", "lp-round"]],
    ids=["lp-solve", "certify", "lp-round"],
)
def test_highs_engine_ignores_epsilon(capsys, path_file, command):
    argv = [command[0], path_file, *command[1:], "--lambda", "0.6"]
    assert main([*argv, "--epsilon", "5"]) == 0
    ignored = capsys.readouterr()
    assert main(argv) == 0
    assert ignored == capsys.readouterr()


@pytest.mark.parametrize("alg", CLUSTER_ALGS)
def test_exit_code_negative_seed(capsys, path_file, alg):
    argv = ["cluster", path_file, "--alg", alg, "--lambda", "0.75", "--seed", "-1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0\n"
    assert captured.out == ""


COMMON_OPTIONS = {"-h", "--help", "-o", "--output", "--timings"}


def test_cli_options_are_exactly_these():
    # a new option shows up here as a deliberate diff
    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in p._actions for s in a.option_strings} - COMMON_OPTIONS
        for name, p in sub.choices.items()
    }
    assert {s for a in parser._actions for s in a.option_strings} == {
        "-h", "--help", "--version"
    }
    assert options == {
        "stats": set(),
        "constraints": set(),
        "label": {"--lambda", "--minimal"},
        "cluster": {
            "--lambda", "--alg", "--seed", "--seeds", "--epsilon", "--engine",
            "--assignment-out",
        },
        "lp-solve": {"--lambda", "--intermediate", "--engine", "--epsilon", "--certify"},
        "certify": {"--lambda", "--engine", "--epsilon"},
        "exact": {"--lambda", "--problem"},
    }


def test_public_names_are_exactly_these():
    # a new library name shows up here as a deliberate diff
    import dataclasses
    import inspect
    import types

    import lamcc
    from lamcc import certificate, cluster, graph, lp, oracle, stc, testing

    assert {
        k for k, v in vars(lamcc).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    } == {
        "Clustering", "RunReport", "cover_flip_pivot", "lambda_cc_objective",
        "lambda_louvain", "pivot", "round_intermediate_lp", "round_lambda_stc_lp",
        "EdgeListParseError", "InfeasibleSolutionError", "InvalidLabelingError",
        "LamccError", "MwuConvergenceError", "ParameterError", "SimplexError",
        "SizeCapError",
        "Graph", "WedgeIndex", "enumerate_wedges", "graph_stats", "load_graph",
        "parse_edge_list", "parse_matrix_market", "to_edge_list_text",
        "FractionalSolution", "LinearProgram", "PairVariableSpace", "SolveResult",
        "build_canonical_lp", "build_intermediate_lp", "build_lambda_stc_lp",
        "certify_canonical_feasibility", "solve_exact", "solve_exact_sparse",
        "solve_general_exact", "solve_mwu",
        "OracleResult", "exact_canonical_lp", "exact_lambda_cc", "exact_lambda_cc_sweep",
        "exact_lambda_stc",
        "DualCertificate", "StcLabeling", "StcRegime", "cover_label", "is_feasible",
        "stc_objective", "stc_regime",
    }
    assert {m.__name__: set(m.__all__) for m in (
        certificate, cluster, graph, lp, oracle, stc, testing
    )} == {
        "lamcc.certificate": {"check_primal", "dual_bound", "row_activity", "verify_certificate"},
        "lamcc.cluster": {
            "Clustering", "RunReport", "assignment_text", "cover_flip_pivot",
            "derived_graph_from_labeling", "lambda_cc_objective",
            "lambda_louvain", "pivot", "round_intermediate_lp", "round_lambda_stc_lp",
        },
        "lamcc.graph": {
            "Graph", "WedgeIndex", "count_wedges_and_triangles", "enumerate_wedges",
            "graph_stats", "load_graph", "parse_edge_list", "parse_matrix_market",
            "to_edge_list_text",
        },
        "lamcc.lp": {
            "FractionalSolution", "LinearProgram", "PairVariableSpace",
            "SolveResult", "build_canonical_lp", "build_intermediate_lp",
            "build_lambda_stc_lp", "certify_canonical_feasibility", "solve_exact",
            "solve_exact_sparse", "solve_general_exact", "solve_mwu",
        },
        "lamcc.oracle": {
            "OracleResult", "exact_canonical_lp", "exact_lambda_cc",
            "exact_lambda_cc_sweep", "exact_lambda_stc",
        },
        "lamcc.stc": {
            "DualCertificate", "StcLabeling", "StcRegime", "check_lambda", "cover_label",
            "is_feasible", "stc_objective", "stc_regime",
        },
        "lamcc.testing": {"erdos_renyi"},
    }
    keywords = inspect.signature(graph.parse_edge_list).parameters
    assert {k for k, p in keywords.items() if p.kind is p.KEYWORD_ONLY} == {"delimiter"}
    assert [f.name for f in dataclasses.fields(lp.LinearProgram)] == [
        "space", "lam", "orientation", "costs", "rows", "c0"
    ]
    # one exact entry under three names; the two program types it replaced stay gone
    assert lp.solve_general_exact is lp.solve_exact is lp.solve_exact_sparse
    for gone in ("CoveringInstance", "GeneralLp", "_solve_highs", "_covering_solution"):
        assert not hasattr(lp, gone)
    # the tuple and scalar views the arrays replaced stay gone
    for cls, gone in ((graph.WedgeIndex, "wedges"), (graph.WedgeIndex, "triangles"),
                      (lp.FractionalSolution, "value"), (cluster.Clustering, "clusters")):
        assert not hasattr(cls, gone)


@pytest.mark.parametrize(
    "argv, removed",
    [
        (["cluster", "--alg", "cfp"], ["--fmt", "csv"]),
        (["cluster", "--alg", "louvain"], ["--max-passes", "16"]),
        (["label"], ["--shuffle-seed", "0"]),
        (["lp-solve"], ["--dump-instance", "inst.txt"]),
        (["cluster", "--alg", "cfp"], ["--force"]),
        (["cluster", "--alg", "louvain"], ["--multilevel"]),
    ],
    ids=["fmt", "max-passes", "shuffle-seed", "dump-instance", "force", "multilevel"],
)
def test_removed_options_exit_2(capsys, path_file, argv, removed):
    with pytest.raises(SystemExit) as exit_:
        main([argv[0], path_file, *argv[1:], "--lambda", "0.75", *removed])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(removed)}\n")
    assert captured.out == ""


def test_exit_code_size_cap(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{i} {i+1}\n" for i in range(14)))
    assert main(["exact", str(big), "--problem", "cc", "--lambda", "0.5"]) == 4


def test_exit_code_int32_row_cap(capsys, monkeypatch, path_file):
    # the path's covering program has 3 variables
    monkeypatch.setattr(lamcc.graph, "MAX_ROW_INDEX", 2)
    assert main(["cluster", path_file, "--alg", "cfp", "--lambda", "0.6"]) == 4
    assert capsys.readouterr() == (
        "", "error: the covering program has 3 variables; int32 program rows index at most 2\n")


def test_output_written_atomically(tmp_path, capsys, path_file):
    target = tmp_path / "deep" / "dir" / "out.json"
    rc = main(["stats", path_file, "-o", str(target)])
    capsys.readouterr()
    assert rc == 0
    assert target.exists()
    assert json.loads(target.read_text())["n"] == 3
    leftovers = [p for p in target.parent.iterdir() if p.name != "out.json"]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_output_files_follow_the_umask(tmp_path, capsys, path_file, umask):
    outs = [tmp_path / "stats.json", tmp_path / "assign.txt"]
    old = os.umask(umask)
    try:
        assert main(["stats", path_file, "-o", str(outs[0])]) == 0
        assert main(["cluster", path_file, "--alg", "pivot", "--lambda", "0.75",
                     "--assignment-out", str(outs[1])]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    for out in outs:
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("target", ["under-a-file", "a-directory"])
@pytest.mark.parametrize("option", ["-o", "--assignment-out"])
def test_an_output_path_that_cannot_be_written_exits_1(tmp_path, capsys, path_file, option,
                                                        target):
    (tmp_path / "some_file").write_text("kept\n")
    (tmp_path / "some_dir").mkdir()
    path = tmp_path / ("some_file/x.json" if target == "under-a-file" else "some_dir")
    before = sorted(tmp_path.rglob("*"))
    argv = ["cluster", path_file, "--alg", "pivot", "--lambda", "0.75", option, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if target == "a-directory":
        assert err == f"error: cannot write {path}: {path} is a directory\n"
    assert sorted(tmp_path.rglob("*")) == before  # no temp file left behind
    assert (tmp_path / "some_file").read_text() == "kept\n"


@pytest.mark.parametrize("argv, option", [
    (["stats"], "-o"),
    (["cluster", "--alg", "cfp", "--lambda", "0.6"], "-o"),
    (["cluster", "--alg", "cfp", "--lambda", "0.6"], "--assignment-out"),
], ids=["stats-o", "cluster-o", "cluster-assignment-out"])
@pytest.mark.parametrize("under", ["some_file", "some_file/sub"])
def test_a_file_in_the_way_of_an_output_path_is_named(tmp_path, capsys, path_file, argv,
                                                      option, under):
    (tmp_path / "some_file").write_text("kept\n")
    path = tmp_path / under / "x.json"
    assert main([argv[0], path_file, *argv[1:], option, str(path)]) == 1
    captured = capsys.readouterr()
    in_the_way = tmp_path / "some_file"
    assert captured.err == f"error: cannot write {path}: {in_the_way} is not a directory\n"
    assert (captured.out, in_the_way.read_text()) == ("", "kept\n")


@pytest.mark.parametrize("argv", [
    ["stats"],
    ["constraints"],
    ["label", "--lambda", "0.6"],
    ["cluster", "--alg", "cfp", "--lambda", "0.6", "--timings"],
    ["cluster", "--alg", "pivot", "--lambda", "0.6", "--assignment-out", "a.txt"],
    ["lp-solve", "--lambda", "0.6"],
    ["certify", "--lambda", "0.6"],
    ["exact", "--problem", "cc", "--lambda", "0.6"],
], ids=["stats", "constraints", "label", "cluster-timings", "cluster-assignment-out",
        "lp-solve", "certify", "exact"])
@pytest.mark.parametrize("target", ["under-a-file", "a-directory"])
def test_an_unwritable_output_fails_before_the_read(tmp_path, capsys, monkeypatch, path_file,
                                                    argv, target):
    (tmp_path / "some_file").write_text("kept\n")
    (tmp_path / "some_dir").mkdir()
    monkeypatch.chdir(tmp_path)
    path = tmp_path / ("some_file/x.json" if target == "under-a-file" else "some_dir")
    reason = (f"{tmp_path / 'some_file'} is not a directory" if target == "under-a-file"
              else f"{path} is a directory")
    argv = [argv[0], path_file, *argv[1:], "-o", str(path)]
    before = sorted(tmp_path.rglob("*"))
    if "--lambda" in argv:  # the lambda list is still checked first
        assert main([a if a != "0.6" else "1.5" for a in argv]) == 3
        assert "lambda" in capsys.readouterr().err
    monkeypatch.setattr(lamcc.cli, "_read", lambda *a: pytest.fail("the input was read"))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {path}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_assignment_out_under_a_file_fails_before_the_read(tmp_path, capsys, path_file,
                                                           monkeypatch):
    (tmp_path / "some_file").write_text("kept\n")
    path = tmp_path / "some_file" / "a.txt"
    monkeypatch.setattr(lamcc.cli, "_read", lambda *a: pytest.fail("the input was read"))
    argv = ["cluster", path_file, "--alg", "cfp", "--lambda", "0.6", "--assignment-out", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err.count("\n")) == ("", 1)
    assert captured.err.startswith(f"error: cannot write {path}: ")


def test_no_output_file_on_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x y\n")
    target = tmp_path / "out.json"
    rc = main(["stats", str(bad), "-o", str(target)])
    capsys.readouterr()
    assert rc == 2
    assert not target.exists()


def test_out_dir_env_var(tmp_path, capsys, path_file, monkeypatch):
    monkeypatch.setenv("LAMCC_OUT_DIR", str(tmp_path / "outputs"))
    rc = main(["stats", path_file, "-o", "stats.json"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "outputs" / "stats.json").exists()


def test_timings_go_to_stderr(capsys, path_file):
    rc = main(["stats", path_file, "--timings"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[phase] parse" in captured.err
    json.loads(captured.out)  # stdout stays pure JSON


@pytest.mark.parametrize("alg", ["cfp", "pivot", "lp-round", "lp3-round"])
def test_cluster_pivot_line_sums_the_seeds_elapsed_ms(capsys, monkeypatch, tmp_path, alg):
    f = tmp_path / "g.txt"
    f.write_text(to_edge_list_text(erdos_renyi(12, 0.35, 4)))
    argv = ["cluster", str(f), "--alg", alg, "--lambda", "0.6,0.8", "--seeds", "3"]
    doc = run_json(capsys, argv)
    assert {r["elapsed_ms"] for r in doc["records"]} == {None}
    assert all(set(a["elapsed_ms"].values()) == {None} for a in doc["aggregates"])

    def timed_run():
        assert main([*argv, "--timings"]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if l.startswith("[phase] pivot: ")]
        return json.loads(captured.out)["records"], lines

    records, lines = timed_run()
    assert all(r["elapsed_ms"] > 0.0 for r in records)
    for lam, line in zip((0.6, 0.8), lines, strict=True):
        seconds = sum(r["elapsed_ms"] for r in records if r["lambda"] == lam) / 1000
        assert line == f"[phase] pivot: {seconds:.3f}s"
    # on a clock that ticks 0.125 s per reading, each seed spans exactly one tick
    ticks = itertools.count()
    monkeypatch.setattr(lamcc.cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 8))
    records, lines = timed_run()
    assert [r["elapsed_ms"] for r in records] == [125.0] * 6
    assert lines == ["[phase] pivot: 0.375s"] * 2


@pytest.mark.parametrize("alg", ["cfp", "pivot", "lp-round", "lp3-round", "louvain"])
def test_cluster_timings_print_pivot_once_per_lambda(capsys, c4_file, alg):
    argv = ["cluster", c4_file, "--alg", alg, "--lambda", "0.6,0.8", "--seeds", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--timings"]) == 0
    timed = capsys.readouterr()
    assert plain.err == ""
    pivot_lines = [l for l in timed.err.splitlines() if l.startswith("[phase] pivot: ")]
    assert len(pivot_lines) == (0 if alg == "louvain" else 2)
    # the reports differ only in the wall-clock fields --timings fills in
    doc = json.loads(timed.out)
    for rec in doc["records"]:
        rec["elapsed_ms"] = None
    for agg in doc["aggregates"]:
        agg["elapsed_ms"] = dict.fromkeys(agg["elapsed_ms"])
    assert doc == json.loads(plain.out)
