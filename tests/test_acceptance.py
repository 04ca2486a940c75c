"""Acceptance suite: every criterion, at its stated tolerance and budget.

Each test prints one PASS line with its headline numbers (visible with
``pytest -s``); a failed assertion is the corresponding FAIL. Criteria 9
and 10 need real public datasets on disk and skip with instructions when
the files are absent (scripts/fetch_datasets.py downloads them where
network access exists).
"""

import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lamcc.cluster import (
    derived_graph_from_labeling,
    lambda_cc_objective,
    pivot,
    round_lambda_stc_lp,
    round_intermediate_lp,
    stc_rounding_factor,
    stc_rounding_threshold,
)
from lamcc.graph import enumerate_wedges, graph_stats, load_graph
from lamcc.lp import (
    build_intermediate_lp,
    build_lambda_stc_lp,
    certify_canonical_feasibility,
    solve_exact,
    solve_exact_sparse,
    solve_general_exact,
    solve_mwu,
)
from lamcc.oracle import exact_canonical_lp, exact_lambda_cc_sweep, exact_lambda_stc
from lamcc.stc import cover_label, stc_objective
from lamcc.testing import erdos_renyi

CC_LAMBDAS = (0.5, 0.6, 0.8, 0.95)
ALL_LAMBDAS = (0.3, 0.4) + CC_LAMBDAS
SEEDS = 500


def _report(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS - {detail}")


# Exact-arithmetic value helpers: both objectives are integer combinations
# a*(1-lambda) + b*lambda, so witness counts plus Fraction(lambda) compare
# the "no tolerance" criteria without float summation noise.


def _exact_cc_value(g, clustering, lam) -> Fraction:
    cut = inside = 0
    asg = clustering.assignment
    for u in range(g.n):
        for v in range(u + 1, g.n):
            together = asg[u] == asg[v]
            if g.has_edge(u, v) and not together:
                cut += 1
            elif not g.has_edge(u, v) and together:
                inside += 1
    lam = Fraction(str(lam))
    return cut * (1 - lam) + inside * lam


def _exact_stc_value(labeling, lam) -> Fraction:
    lam = Fraction(str(lam))
    return len(labeling.weak) * (1 - lam) + len(labeling.missing) * lam


def _exact_cover_lower_bound(g, widx, lam) -> Fraction:
    """The cover algorithm's residual recurrence, replayed in rationals."""
    lam = Fraction(str(lam))
    keys3 = widx.wedge_pair_keys()
    residual: dict[int, Fraction] = {}

    def cost(key: int) -> Fraction:
        u, v = divmod(int(key), g.n)
        return 1 - lam if g.has_edge(u, v) else lam

    total = Fraction(0)
    for row in keys3:
        rs = [residual.setdefault(int(k), cost(int(k))) for k in row]
        m = min(rs)
        if m > 0:
            for k in row:
                residual[int(k)] -= m
            total += m
    return total


@pytest.fixture(scope="module")
def corpus():
    graphs = []
    for i in range(200):
        n = 4 + i % 6
        p = (0.2, 0.4, 0.6)[i % 3]
        g = erdos_renyi(n, p, 1000 + i)
        graphs.append((g, enumerate_wedges(g)))
    return graphs


@pytest.fixture(scope="module")
def cc_opts(corpus):
    return [exact_lambda_cc_sweep(g, ALL_LAMBDAS) for g, _ in corpus]


@pytest.fixture(scope="module")
def stc_opts(corpus):
    out = []
    for g, widx in corpus:
        out.append({lam: exact_lambda_stc(g, widx, lam) for lam in ALL_LAMBDAS})
    return out


def test_criterion_1_oracle_sandwich(corpus, cc_opts, stc_opts):
    t0 = time.perf_counter()
    checked = 0
    for (g, widx), cc, stc in zip(corpus, cc_opts, stc_opts):
        for lam in CC_LAMBDAS:
            stc_v = _exact_stc_value(stc[lam].witness, lam)
            cc_v = _exact_cc_value(g, cc[lam].witness, lam)
            assert stc_v <= cc_v, (g, lam, stc_v, cc_v)
            assert cc_v <= 2 * stc_v, (g, lam, stc_v, cc_v)
            # the float optima agree with the exact witness values
            assert abs(stc[lam].optimum - float(stc_v)) < 1e-9
            assert abs(cc[lam].optimum - float(cc_v)) < 1e-9
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(1, "oracle sandwich", f"{checked} (graph, lambda) pairs, exact arithmetic, {elapsed:.1f}s")


def test_criterion_2_cover_label_three_approx(corpus, stc_opts):
    t0 = time.perf_counter()
    checked = 0
    for (g, widx), stc in zip(corpus, stc_opts):
        for lam in ALL_LAMBDAS:
            labeling, cert = cover_label(g, widx, lam)
            lb = _exact_cover_lower_bound(g, widx, lam)
            opt = _exact_stc_value(stc[lam].witness, lam)
            obj = _exact_stc_value(labeling, lam)
            assert lb <= opt, (lam, lb, opt)
            assert obj <= 3 * lb, (lam, obj, lb)
            # the float bound tracks its exact counterpart
            assert abs(cert.lower_bound - float(lb)) < 1e-9
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, "cover-label 3-approx", f"{checked} labelings, exact arithmetic, {elapsed:.1f}s")


def test_criterion_3_cfp_six_approx(corpus, cc_opts):
    t0 = time.perf_counter()
    worst_vs_opt = 0.0
    configs = 0
    for (g, widx), cc in zip(corpus, cc_opts):
        for lam in CC_LAMBDAS:
            labeling, cert = cover_label(g, widx, lam)
            cost = stc_objective(g, lam, labeling)
            gh = derived_graph_from_labeling(g, labeling)
            objs = np.array([
                lambda_cc_objective(g, lam, pivot(gh, s)) for s in range(SEEDS)
            ])
            mean = float(objs.mean())
            opt = cc[lam].optimum
            assert mean <= 6.0 * opt + 1e-9, (lam, mean, opt)
            assert mean <= 2.0 * cost * 1.15 + 1e-9, (lam, mean, cost)
            if opt > 0:
                worst_vs_opt = max(worst_vs_opt, mean / opt)
            configs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        3, "cover-flip-pivot 6-approx",
        f"{configs} configs x {SEEDS} seeds, worst mean/opt {worst_vs_opt:.2f}, {elapsed:.1f}s",
    )


def _mean_rounded_objective(g, widx, lam, xsol, build_flip) -> float:
    flipped = build_flip(g, lam, xsol)
    gh = g.toggled(_flip_keys(g, flipped))
    objs = [lambda_cc_objective(g, lam, pivot(gh, s)) for s in range(SEEDS)]
    return float(np.mean(objs))


def _flip_keys(g, pairs):
    return np.array(sorted(u * g.n + v for u, v in pairs), dtype=np.int64)


def _stc_flip(g, lam, xsol):
    thr = stc_rounding_threshold(lam)
    flipped = set()
    for (u, v), val in xsol.values.items():
        if lam >= 0.5:
            if g.has_edge(u, v) and val >= thr:
                flipped.add((u, v))
        else:
            if not g.has_edge(u, v) and val < thr:
                flipped.add((u, v))
    return flipped


def _third_flip(g, lam, xsol):
    flipped = set()
    for (u, v), val in xsol.values.items():
        if g.has_edge(u, v) != (val < 1.0 / 3.0):
            flipped.add((u, v))
    return flipped


def test_criterion_4_stc_lp_rounding(corpus):
    t0 = time.perf_counter()
    sub = corpus[:50]
    configs = 0
    for lam in (0.5, 0.7, 0.95, 0.25, 0.4):
        factor = stc_rounding_factor(lam)
        assert factor == pytest.approx(
            7.0 - 2.0 / lam if lam >= 0.5 else 1.0 + 1.0 / lam
        )
        for idx, (g, widx) in enumerate(sub):
            res = solve_exact(build_lambda_stc_lp(g, widx, lam)[1])
            xsol = res.solution.to_x(g)
            # spot-check the public pipeline agrees with the bulk path
            if idx == 0:
                rep = round_lambda_stc_lp(g, widx, lam, xsol, seed=0)
                gh = g.toggled(_flip_keys(g, _stc_flip(g, lam, xsol)))
                assert rep.clustering == pivot(gh, 0)
            mean = _mean_rounded_objective(g, widx, lam, xsol, _stc_flip)
            bound = factor * res.solution.objective * 1.15
            assert mean <= bound + 1e-9, (lam, mean, res.solution.objective)
            configs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(4, "wedge-LP rounding bound", f"{configs} configs x {SEEDS} seeds in {elapsed:.1f}s")


def test_criterion_5_intermediate_lp_rounding(corpus):
    t0 = time.perf_counter()
    sub = corpus[:50]
    configs = 0
    for lam in (0.5, 0.75, 0.95):
        for idx, (g, widx) in enumerate(sub):
            res = solve_general_exact(build_intermediate_lp(g, widx, lam))
            xsol = res.solution
            if idx == 0:
                rep = round_intermediate_lp(g, widx, lam, xsol, seed=0)
                gh = g.toggled(_flip_keys(g, _third_flip(g, lam, xsol)))
                assert rep.clustering == pivot(gh, 0)
            mean = _mean_rounded_objective(g, widx, lam, xsol, _third_flip)
            bound = 3.0 * res.solution.objective * 1.15
            assert mean <= bound + 1e-9, (lam, mean, res.solution.objective)
            configs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(5, "intermediate-LP rounding bound", f"{configs} configs x {SEEDS} seeds in {elapsed:.1f}s")


def test_criterion_6_lp_hierarchy():
    t0 = time.perf_counter()
    checked = 0
    for i in range(100):
        n = 4 + i % 5
        g = erdos_renyi(n, (0.2, 0.4, 0.6)[i % 3], 3000 + i)
        widx = enumerate_wedges(g)
        sweep = exact_lambda_cc_sweep(g, (0.5, 0.75))
        for lam in (0.5, 0.75):
            v_cover = solve_exact(build_lambda_stc_lp(g, widx, lam)[1]).solution.objective
            v_inter = solve_general_exact(build_intermediate_lp(g, widx, lam)).solution.objective
            v_canon = exact_canonical_lp(g, lam).optimum
            v_cc = sweep[lam].optimum
            assert v_cover <= v_inter + 1e-7, (lam, v_cover, v_inter)
            assert v_inter <= v_canon + 1e-7, (lam, v_inter, v_canon)
            assert v_canon <= v_cc + 1e-7, (lam, v_canon, v_cc)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(6, "LP hierarchy", f"{checked} chains in {elapsed:.1f}s")


def test_criterion_7_mwu_quality():
    t0 = time.perf_counter()
    runs = 0
    for i in range(200):
        n = 4 + i % 9
        g = erdos_renyi(n, (0.2, 0.4, 0.6)[i % 3], 4000 + i)
        widx = enumerate_wedges(g)
        lam = (0.3, 0.5, 0.75, 0.95)[i % 4]
        _, inst = build_lambda_stc_lp(g, widx, lam)
        exact_obj = solve_exact(inst).solution.objective
        for eps in (0.1, 0.01):
            res = solve_mwu(inst, eps)
            assert res.solution.objective <= (1 + eps) * exact_obj + 1e-9, (
                i, eps, res.solution.objective, exact_obj,
            )
            z = np.array([res.solution.values[p] for p in inst.space.pairs])
            assert np.all(z >= -1e-12) and np.all(z <= 1 + 1e-12)
            for row in inst.rows:
                assert z[[j for j in row if j >= 0]].sum() >= 1 - 1e-9
            runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(7, "MWU solver quality", f"{runs} solves in {elapsed:.1f}s")


def test_criterion_8_wedge_count_identity():
    t0 = time.perf_counter()
    for i in range(1000):
        n = 4 + i % 27  # up to 30
        g = erdos_renyi(n, (0.1, 0.25, 0.5)[i % 3], 5000 + i)
        widx = enumerate_wedges(g)
        from_degrees = sum(int(d) * (int(d) - 1) // 2 for d in g.degree)
        assert widx.wedge_count == from_degrees - 3 * widx.triangle_count, i
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(8, "wedge-count identity", f"1000 graphs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Dataset-gated criteria


def _data_dir() -> Path:
    return Path(os.environ.get("LAMCC_DATA_DIR", Path(__file__).parent.parent / "data"))


def _dataset(name: str) -> Path:
    path = _data_dir() / name
    if not path.exists():
        pytest.skip(
            f"dataset {name} not found under {_data_dir()}; run "
            "scripts/fetch_datasets.py on a machine with network access "
            "and point LAMCC_DATA_DIR at the download directory"
        )
    return path


def test_criterion_9_collaboration_network_reproduction():
    path = _dataset("ca-GrQc.txt")
    g = load_graph(path)
    assert (g.n, g.m) == (5242, 14484)
    widx = enumerate_wedges(g)

    t_lp = time.perf_counter()
    _, inst = build_lambda_stc_lp(g, widx, 0.55)
    res = solve_exact_sparse(inst)
    lp_value = res.solution.objective
    lp_elapsed = time.perf_counter() - t_lp
    assert lp_elapsed < 1800.0
    assert abs(lp_value - 2236.5) <= 0.001 * 2236.5, lp_value

    cres = certify_canonical_feasibility(g, res.solution.to_x(g))
    assert cres.certified

    t_cfp = time.perf_counter()
    labeling, cert = cover_label(g, widx, 0.55)
    gh = derived_graph_from_labeling(g, labeling)
    ratios = []
    for s in range(15):
        obj = lambda_cc_objective(g, 0.55, pivot(gh, s))
        ratios.append(obj / cert.lower_bound)
    cfp_elapsed = time.perf_counter() - t_cfp
    mean_ratio = float(np.mean(ratios))
    assert cfp_elapsed < 10.0, cfp_elapsed
    assert 1.7 <= mean_ratio <= 2.3, mean_ratio

    # the combinatorial lower bound depends on wedge order; informational
    lb_note = "within" if abs(cert.lower_bound - 2064) <= 0.10 * 2064 else "OUTSIDE"
    _report(
        9, "collaboration-network reproduction",
        f"LP {lp_value:.1f} (certified, {lp_elapsed:.0f}s), CFP ratio "
        f"{mean_ratio:.2f} in {cfp_elapsed:.1f}s; combinatorial LB "
        f"{cert.lower_bound:.0f} {lb_note} 10% of 2064 (informational)",
    )


def test_criterion_10_constraint_scaling_smoke():
    names = ["ca-GrQc.txt", "ca-HepTh.txt", "ca-HepPh.txt"]
    paths = [p for p in (_data_dir() / n for n in names) if p.exists()]
    if len(paths) < 3:
        pytest.skip(
            f"need >= 3 dataset graphs under {_data_dir()}; run "
            "scripts/fetch_datasets.py where network access exists"
        )
    lines = []
    for path in paths:
        t0 = time.perf_counter()
        g = load_graph(path)
        stats = graph_stats(g)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, (path.name, elapsed)
        ratio = stats["wedge_count"] / stats["canonical_constraint_count"]
        assert ratio < 1e-3, (path.name, ratio)
        lines.append(f"{path.stem}: {ratio:.2e}")
    _report(10, "constraint scaling smoke", "; ".join(lines))
