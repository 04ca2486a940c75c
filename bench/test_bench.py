"""Fast tests of the benchmark itself: every check rejects a corrupted output.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402
from lamcc import (  # noqa: E402
    Graph,
    build_lambda_stc_lp,
    cover_flip_pivot,
    cover_label,
    enumerate_wedges,
    solve_exact,
    solve_exact_sparse,
)
from lamcc.testing import erdos_renyi  # noqa: E402

LAM = 0.6


@pytest.fixture(scope="module")
def case():
    """A small graph with its wedges in the benchmark's own key form."""
    edges = inputs.gnp_edges(10, 0.45, 3)
    g = Graph.from_edges(10, map(tuple, edges.tolist()))
    w = enumerate_wedges(g)
    n = g.n
    c, a, b = (x.astype(np.int64) for x in (w.wedge_center, w.wedge_lo, w.wedge_hi))
    keys3 = np.stack([np.minimum(c, a) * n + np.maximum(c, a),
                      np.minimum(c, b) * n + np.maximum(c, b), a * n + b], axis=1)
    return g, w, edges, checks.edge_keys(edges, n), keys3


def test_gnp_matches_the_library_generator():
    for n, p, seed in [(8, 0.25, 9000), (12, 0.55, 9059)]:
        g = erdos_renyi(n, p, seed)
        got = inputs.gnp_edges(n, p, seed)
        assert np.array_equal(checks.edge_keys(got, n), g.edge_keys())


def test_inputs_repeat_for_a_seed_and_move_with_it():
    a = inputs.collaboration_edges(inputs.GRQC, 5)
    assert np.array_equal(a, inputs.collaboration_edges(inputs.GRQC, 5))
    assert not np.array_equal(a, inputs.collaboration_edges(inputs.GRQC, 6))
    assert np.all(a[:, 0] < a[:, 1])
    assert len(inputs.DESK_CORPUS) == 60 and inputs.DESK_CORPUS[59].seed == 9059


def test_graph_check_rejects_a_lost_edge(case):
    g, _, edges, ekeys, _ = case
    checks.check_graph(g.n, ekeys, g.n, g.degree, g.indices)
    with pytest.raises(CheckError):
        checks.check_graph(g.n, ekeys[1:], g.n, g.degree, g.indices)


def test_wedge_check_rejects_a_dropped_or_closed_wedge(case):
    g, w, _, ekeys, _ = case
    args = (w.wedge_center, w.wedge_lo, w.wedge_hi, w.triangle_count)
    checks.check_wedges(g.n, ekeys, *args)
    with pytest.raises(CheckError):
        checks.check_wedges(g.n, ekeys, *(x[1:] for x in args[:3]), w.triangle_count)
    u, v = int(ekeys[0] // g.n), int(ekeys[0] % g.n)
    with pytest.raises(CheckError):  # an edge listed as the open pair
        checks.check_wedges(g.n, ekeys, np.append(w.wedge_center, u), np.append(w.wedge_lo, u),
                            np.append(w.wedge_hi, v), w.triangle_count)


def test_partition_and_objective_checks_reject_corruption(case):
    g, w, edges, _, _ = case
    rep = cover_flip_pivot(g, w, LAM, 0)
    asg = np.array(rep.clustering.assignment)
    obj = checks.cc_objective(g.n, edges, asg, LAM)
    checks.check_objective(rep.objective, obj, "cfp")
    with pytest.raises(CheckError):
        checks.cc_objective(g.n, edges, asg[:-1], LAM)
    bad = asg.copy()
    bad[0] = -1
    with pytest.raises(CheckError):
        checks.check_partition(bad, g.n)
    with pytest.raises(CheckError):
        checks.check_objective(rep.objective - LAM, obj, "cfp")


def test_cover_dual_check_rejects_an_overloaded_pair_or_a_raised_bound(case):
    g, w, _, ekeys, keys3 = case
    _, cert = cover_label(g, w, LAM)
    y = cert.wedge_values
    pairs = checks.wedge_pairs(keys3)
    checks.check_cover_dual(pairs, ekeys, LAM, y, cert.lower_bound)
    with pytest.raises(CheckError):
        checks.check_cover_dual(pairs, ekeys, LAM, y, cert.lower_bound + 0.5)
    over = y.copy()
    over[0] += 1.0
    with pytest.raises(CheckError):
        checks.check_cover_dual(pairs, ekeys, LAM, over, float(over.sum()))
    neg = y.copy()
    neg[np.argmax(y)] = -1e-3
    with pytest.raises(CheckError):
        checks.check_cover_dual(pairs, ekeys, LAM, neg, float(neg.sum()))


def test_labeling_check_rejects_an_uncovered_wedge_or_a_low_bound(case):
    g, w, _, ekeys, keys3 = case
    lab, cert = cover_label(g, w, LAM)
    weak = checks.pair_keys(lab.weak, g.n)
    miss = checks.pair_keys(lab.missing, g.n)
    checks.check_labeling(keys3, ekeys, weak, miss, LAM, cert.lower_bound)
    with pytest.raises(CheckError):
        checks.check_labeling(keys3, ekeys, weak[:0], miss[:0], LAM, cert.lower_bound)
    with pytest.raises(CheckError):
        checks.check_labeling(keys3, ekeys, weak, miss, LAM, cert.lower_bound / 4)


def test_covering_checks_reject_an_infeasible_primal_dual_or_bound(case):
    g, w, _, ekeys, keys3 = case
    _, inst = build_lambda_stc_lp(g, w, LAM)
    checks.check_covering_instance(keys3, ekeys, LAM, inst.space.keys, inst.costs, inst.rows)
    with pytest.raises(CheckError):
        checks.check_covering_instance(keys3, ekeys, LAM, inst.space.keys,
                                       inst.costs[::-1], inst.rows)
    for res in (solve_exact(inst), solve_exact_sparse(inst)):
        vals = res.solution.values
        z = np.array([vals[p] for p in inst.space.pairs])
        args = (inst.rows, inst.costs, z, res.dual, res.solution.objective, res.dual_objective)
        checks.check_covering_solution(*args)
        with pytest.raises(CheckError):  # bound raised above the optimum
            checks.check_covering_solution(*args[:5], res.dual_objective + 0.1)
        with pytest.raises(CheckError):  # dual scaled past feasibility
            checks.check_covering_solution(inst.rows, inst.costs, z, res.dual * 1.5,
                                           res.solution.objective)
        low = z.copy()
        low[inst.rows[0]] = 0.0
        with pytest.raises(CheckError):  # a wedge row left uncovered
            checks.check_covering_solution(inst.rows, inst.costs, low, None,
                                           float(inst.costs @ low))


def test_two_path_scan_rejects_a_false_certificate():
    n = 4
    keys = np.array([0 * n + 1, 1 * n + 2, 2 * n + 3])  # x(0,2) defaults to 1
    x = np.array([0.0, 0.0, 1.0])
    assert checks.violated_triples(n, keys, x) == [(0, 1, 2)]
    checks.check_certificate(n, keys, x, False, [(0, 1, 2)])
    with pytest.raises(CheckError):
        checks.check_certificate(n, keys, x, True, [])
    with pytest.raises(CheckError):
        checks.check_certificate(n, keys, x, False, [(1, 2, 3)])
    checks.check_certificate(n, keys, np.array([0.0, 1.0, 1.0]), True, [])


def test_ratio_sandwich_and_lp_value_checks_reject_bad_values():
    checks.check_ratios([1.0, 2.0], 6.0, "cfp")
    with pytest.raises(CheckError):
        checks.check_ratios([0.99, 2.0], 6.0, "cfp")
    with pytest.raises(CheckError):
        checks.check_ratios([6.5, 6.1], 6.0, "cfp")
    checks.check_sandwich({"lp": 2.0}, 2.5, {"cfp": 3.0})
    with pytest.raises(CheckError):  # a bound raised above the optimum
        checks.check_sandwich({"lp": 2.6}, 2.5, {"cfp": 3.0})
    with pytest.raises(CheckError):
        checks.check_sandwich({"lp": 2.0}, 2.5, {"cfp": 2.4})
    checks.check_lp_values(2.0, 2.2, 2.0, 2.15, 0.1)
    with pytest.raises(CheckError):
        checks.check_lp_values(2.0, 1.9, None, None, 0.1)
    with pytest.raises(CheckError):
        checks.check_lp_values(2.0, None, 2.01, None, 0.1)
    with pytest.raises(CheckError):
        checks.check_lp_values(2.0, None, None, 2.3, 0.1)


def test_cli_record_check_rejects_a_changed_objective():
    recs = [{"lambda": 0.55, "seed": 1, "objective": 3.5, "lower_bound": 1.25}]
    checks.check_cli_records(recs, [(0.55, 1, 3.5, 1.25)], "cfp")
    with pytest.raises(CheckError):
        checks.check_cli_records(recs, [(0.55, 1, 3.25, 1.25)], "cfp")
    with pytest.raises(CheckError):
        checks.check_cli_records(recs, [], "cfp")


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["hepph-cfp", "grqc-lp", "desk-engines"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
