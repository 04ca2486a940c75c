import json
import os
import re
import stat
from collections import Counter

import pytest

from lamcc.cli import CLUSTER_ALGS, _record, main
from lamcc.cluster import Clustering, RunReport
from lamcc.graph import enumerate_wedges, to_edge_list_text
from lamcc.lp import build_intermediate_lp
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


def test_cluster_csv_format(capsys, path_file):
    rc = main(["cluster", path_file, "--alg", "cfp", "--lambda", "0.6",
               "--seeds", "2", "--fmt", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# lamcc-report v1"
    assert lines[1].startswith("record,algorithm,lambda")
    assert sum(1 for l in lines if l.startswith("run,")) == 2
    assert sum(1 for l in lines if l.startswith("aggregate,")) == 1


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
    rep = RunReport("pivot", 0.5, 0, c, 0.0, None, None, None, 0.0)
    want = Counter(len(members) for members in c.clusters)
    got = _record(rep, include_timing=False)["cluster_size_hist"]
    assert list(got.items()) == [(str(s), want[s]) for s in sorted(want)]
    assert all(type(v) is int for v in got.values())


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
    dump = tmp_path / "inst.txt"
    doc = run_json(
        capsys,
        ["lp-solve", path_file, "--lambda", "0.6", "--certify",
         "--dump-instance", str(dump)],
    )
    assert doc["objective"] == pytest.approx(0.4)
    assert doc["values"] == [[0, 1, 1.0], [0, 2, 0.0], [1, 2, 0.0]]
    assert doc["certified_canonical"] is True
    assert doc["engine"] == "highs"
    assert dump.read_text().startswith("# covering-lp v1")


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


def test_certify(capsys, k3_file):
    doc = run_json(capsys, ["certify", k3_file, "--lambda", "0.75"])
    assert doc["certified"] is True
    assert doc["lp_value"] == pytest.approx(0.0, abs=1e-9)
    assert doc["canonical_optimum"] == pytest.approx(0.0, abs=1e-9)


def test_exact_problems(capsys, path_file):
    doc = run_json(capsys, ["exact", path_file, "--problem", "cc", "--lambda", "0.7"])
    assert doc["optimum"] == pytest.approx(0.3)
    assert doc["enumerated_count"] == 5
    doc = run_json(capsys, ["exact", path_file, "--problem", "stc", "--lambda", "0.6"])
    assert doc["optimum"] == pytest.approx(0.4)
    doc = run_json(capsys, ["exact", path_file, "--problem", "lp", "--lambda", "0.5"])
    assert doc["optimum"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Exit codes and atomicity


def test_exit_code_missing_file(capsys):
    assert main(["stats", "/nonexistent/nope.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\n")
    assert main(["stats", str(bad)]) == 2


def test_exit_code_bad_lambda(capsys, path_file):
    assert main(["cluster", path_file, "--alg", "cfp", "--lambda", "1.5"]) == 3
    assert main(["cluster", path_file, "--alg", "cfp", "--lambda", "x"]) == 3


def test_exit_code_parameter_regime(capsys, path_file):
    assert main(["cluster", path_file, "--alg", "lp3-round", "--lambda", "0.4"]) == 3
    assert main(["cluster", path_file, "--alg", "cfp", "--lambda", "0.4"]) == 3
    # --force lifts the cfp restriction
    assert main(["cluster", path_file, "--alg", "cfp", "--lambda", "0.4", "--force"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag",
    [(["cluster", "--alg", alg], "--seed") for alg in CLUSTER_ALGS]
    + [(["label"], "--shuffle-seed")],
    ids=[*CLUSTER_ALGS, "label"],
)
def test_exit_code_negative_seed(capsys, path_file, command, flag):
    argv = [command[0], path_file, *command[1:], "--lambda", "0.75", flag, "-1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be >= 0\n"
    assert captured.out == ""


def test_exit_code_size_cap(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{i} {i+1}\n" for i in range(14)))
    assert main(["exact", str(big), "--problem", "cc", "--lambda", "0.5"]) == 4


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
    outs = [tmp_path / "stats.json", tmp_path / "assign.txt", tmp_path / "inst.txt"]
    old = os.umask(umask)
    try:
        assert main(["stats", path_file, "-o", str(outs[0])]) == 0
        assert main(["cluster", path_file, "--alg", "pivot", "--lambda", "0.75",
                     "--assignment-out", str(outs[1])]) == 0
        assert main(["lp-solve", path_file, "--lambda", "0.75",
                     "--dump-instance", str(outs[2])]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    for out in outs:
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


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
