import math

import numpy as np
import pytest
from scipy.optimize import linprog

from lamcc.certificate import check_primal, dual_bound, verify_certificate
from lamcc.errors import InfeasibleSolutionError, MwuConvergenceError, ParameterError
from lamcc.graph import Graph, enumerate_wedges
from lamcc.lp import (
    CoveringInstance,
    PairVariableSpace,
    build_canonical_lp,
    build_intermediate_lp,
    build_lambda_stc_lp,
    certify_canonical_feasibility,
    dump_covering_instance,
    solve_exact,
    solve_exact_sparse,
    solve_general_exact,
    solve_mwu,
)
from lamcc.oracle import exact_canonical_lp, exact_lambda_cc, exact_lambda_stc
from lamcc.testing import erdos_renyi


# ---------------------------------------------------------------------------
# Builders


def test_covering_lp_path(path3, wedges_of):
    space, inst = build_lambda_stc_lp(path3, wedges_of(path3), 0.6)
    assert space.pairs == ((0, 1), (1, 2), (0, 2))
    assert np.allclose(inst.costs, [0.4, 0.4, 0.6])
    assert inst.num_constraints == 1


def test_covering_lp_k3(k3, wedges_of):
    space, inst = build_lambda_stc_lp(k3, wedges_of(k3), 0.5)
    assert inst.num_variables == 3
    assert inst.num_constraints == 0


def test_covering_lp_star(star4, wedges_of):
    space, inst = build_lambda_stc_lp(star4, wedges_of(star4), 0.5)
    assert inst.num_variables == 6
    assert inst.num_constraints == 3
    assert np.allclose(inst.costs, 0.5)


def test_inactive_pairs_carry_no_variables():
    # two disjoint edges: the cross pairs have no common neighbor
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    space, inst = build_lambda_stc_lp(g, enumerate_wedges(g), 0.5)
    assert space.pairs == ((0, 1), (2, 3))
    assert inst.num_constraints == 0


def test_intermediate_lp_counts(path3, k3, cycle4, wedges_of):
    assert build_intermediate_lp(k3, wedges_of(k3), 0.5).num_constraints == 3
    lp = build_intermediate_lp(path3, wedges_of(path3), 0.6)
    assert lp.num_variables == 3 and lp.num_constraints == 1
    lp = build_intermediate_lp(cycle4, wedges_of(cycle4), 0.5)
    assert lp.num_variables == 6 and lp.num_constraints == 4
    # every row is x_a + x_b - x_c >= 0: one broadcast, read-only sign
    for lp in (lp, build_canonical_lp(cycle4, 0.5)):
        assert lp.col_sign.tolist() == [1.0, 1.0, -1.0]
        assert not lp.col_sign.flags.writeable


# ---------------------------------------------------------------------------
# Exact solvers


def test_solve_exact_path(path3, wedges_of):
    _, inst = build_lambda_stc_lp(path3, wedges_of(path3), 0.6)
    res = solve_exact(inst)
    assert res.solution.objective == pytest.approx(0.4)
    assert res.dual_objective == pytest.approx(0.4)


def test_solve_exact_no_constraints(k3, wedges_of):
    _, inst = build_lambda_stc_lp(k3, wedges_of(k3), 0.5)
    res = solve_exact(inst)
    assert res.solution.objective == 0.0
    assert all(v == 0.0 for v in res.solution.values.values())


def test_solve_exact_star_half_integral(star4, wedges_of):
    # the fractional optimum is 0.75, strictly below the integral 1.0:
    # z = 1/2 on the three edges covers each wedge at 0.5+0.5+0,
    # and the matching dual (1/4, 1/4, 1/4) certifies it
    _, inst = build_lambda_stc_lp(star4, wedges_of(star4), 0.5)
    res = solve_exact(inst)
    assert res.solution.objective == pytest.approx(0.75)
    assert res.dual_objective == pytest.approx(0.75)
    assert exact_lambda_stc(star4, wedges_of(star4), 0.5).optimum == pytest.approx(1.0)


def test_solve_exact_dual_certificate_random():
    for seed in range(20):
        g = erdos_renyi(9, 0.5, seed)
        widx = enumerate_wedges(g)
        _, inst = build_lambda_stc_lp(g, widx, 0.7)
        res = solve_exact(inst)
        assert res.dual_objective == pytest.approx(res.solution.objective, abs=1e-7)
        if inst.num_constraints:
            assert np.all(res.dual >= -1e-9)


def _dense_ipm_value(inst) -> float:
    """Covering LP optimum from a dense constraint matrix, by HiGHS' interior
    point method: another algorithm than the dual simplex under test."""
    A = np.zeros((inst.num_constraints, inst.num_variables))
    for col in range(3):
        ok = inst.rows[:, col] >= 0
        A[np.flatnonzero(ok), inst.rows[ok, col]] = 1.0
    ref = linprog(inst.costs, A_ub=-A, b_ub=-np.ones(inst.num_constraints),
                  bounds=(0.0, 1.0), method="highs-ipm")
    assert ref.status == 0
    return float(ref.fun)


def test_sparse_backend_matches_dense():
    for seed in range(15):
        g = erdos_renyi(10, 0.4, 50 + seed)
        _, inst = build_lambda_stc_lp(g, enumerate_wedges(g), 0.55)
        ref = _dense_ipm_value(inst)
        sparse = solve_exact_sparse(inst)
        assert sparse.solution.objective == pytest.approx(ref, abs=1e-6)
        assert sparse.dual_objective == pytest.approx(ref, abs=1e-6)
        assert sparse.dual_objective == math.fsum(sparse.dual)


def test_sparse_backend_with_active_bound_matches_dense():
    # at lambda 0.3 an optimum here sets some z to 1; the z <= 1 bound
    # marginals would be missing from a row-only dual
    for n, p, seed in ((8, 0.25, 9001), (12, 0.4, 9054), (12, 0.55, 9059)):
        g = erdos_renyi(n, p, seed)
        _, inst = build_lambda_stc_lp(g, enumerate_wedges(g), 0.3)
        ref = _dense_ipm_value(inst)
        sparse = solve_exact_sparse(inst)
        assert sparse.solution.objective == pytest.approx(ref, abs=1e-6)
        y = sparse.dual
        load = np.zeros(inst.num_variables)
        for col in range(3):
            ok = inst.rows[:, col] >= 0
            np.add.at(load, inst.rows[ok, col], y[ok])
        assert np.all(y >= -1e-7) and np.all(load <= inst.costs + 1e-7)
        assert sparse.dual_objective == pytest.approx(y.sum())
        assert sparse.dual_objective == pytest.approx(
            sparse.solution.objective, abs=1e-6
        )


def test_solve_general_exact_k3(k3, wedges_of):
    lp = build_intermediate_lp(k3, wedges_of(k3), 0.9)
    res = solve_general_exact(lp)
    assert res.solution.objective == pytest.approx(0.0)
    assert all(v == pytest.approx(0.0) for v in res.solution.values.values())


def test_solve_general_exact_path(path3, wedges_of):
    lp = build_intermediate_lp(path3, wedges_of(path3), 0.6)
    res = solve_general_exact(lp)
    # equals the covering-LP value: the constraint sets coincide on
    # triangle-free graphs
    assert res.solution.objective == pytest.approx(0.4)


def test_solve_general_exact_cycle_matches_canonical(cycle4, wedges_of):
    lp = build_intermediate_lp(cycle4, wedges_of(cycle4), 0.5)
    res = solve_general_exact(lp)
    assert res.solution.objective == pytest.approx(
        exact_canonical_lp(cycle4, 0.5).optimum, abs=1e-7
    )


def test_solve_general_exact_degenerate_intermediate_value():
    # a highly degenerate intermediate LP (a simplex with Dantzig's rule
    # alone cycles on it)
    g = erdos_renyi(12, 0.55, 9059)
    res = solve_general_exact(build_intermediate_lp(g, enumerate_wedges(g), 0.75))
    assert res.solution.objective == pytest.approx(4.875, abs=1e-7)
    assert res.dual_objective == pytest.approx(4.875, abs=1e-7)


def test_verify_certificate_rejects_perturbed_primal_or_dual(star4, path3, wedges_of):
    # covering LP of the star: x = 1/2 on the edges, y = 1/4 per wedge
    _, inst = build_lambda_stc_lp(star4, wedges_of(star4), 0.5)
    res = solve_exact(inst)
    cover = (inst.rows, 1.0, 1.0, inst.costs, np.inf)
    z = res.solution.at(inst.space.keys)
    # distance-form intermediate LP of the path, whose x <= 1 bounds bind
    lp = build_intermediate_lp(path3, wedges_of(path3), 0.6)
    gres = solve_general_exact(lp)
    dist = (lp.col_idx, lp.col_sign, 0.0, lp.c, 1.0)
    x = gres.solution.at(lp.space.keys)
    for args, primal, dual, c0 in ((cover, z, res.dual, 0.0), (dist, x, gres.dual, lp.c0)):
        bound = verify_certificate(*args, primal, dual, c0)
        assert bound == pytest.approx(float(args[3] @ primal) + c0, abs=1e-12)
        for j in range(primal.shape[0]):
            for step in (-1e-5, 1e-5):
                bad = primal.copy()
                bad[j] += step
                if 0.0 <= bad[j] <= args[4]:
                    with pytest.raises(InfeasibleSolutionError):
                        verify_certificate(*args, bad, dual, c0)
        for i in range(dual.shape[0]):
            for step in (-1e-5, 1e-5):
                bad = dual.copy()
                bad[i] += step
                with pytest.raises(InfeasibleSolutionError):
                    verify_certificate(*args, primal, bad, c0)


def test_exact_solve_of_an_infeasible_program_raises():
    # a row padded to no variable at all reads 0 >= 1
    inst = _toy_instance()
    rows = np.array([[0, 1, 2], [-1, -1, -1]])
    bad = CoveringInstance(inst.space, inst.lam, inst.costs, rows)
    with pytest.raises(InfeasibleSolutionError, match="HiGHS solve failed: Infeasible"):
        solve_exact(bad)


def test_highs_loader_names_the_scipy_floor(tmp_path, python_child):
    # a scipy without optimize/_highspy/_core (as before 1.15)
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "1.14.1"\n')
    r = python_child("from lamcc.lp import _highs\n_highs()", tmp_path)
    assert r.returncode != 0
    assert "ImportError" in r.stderr and "scipy>=1.15" in r.stderr


def test_dual_bound_rejects_an_overloaded_cover_dual(star4, wedges_of):
    _, inst = build_lambda_stc_lp(star4, wedges_of(star4), 0.5)
    y = np.full(3, 0.25)
    assert dual_bound(inst.rows, 1.0, 1.0, inst.costs, np.inf, y) == 0.75
    with pytest.raises(InfeasibleSolutionError, match="overloads"):
        dual_bound(inst.rows, 1.0, 1.0, inst.costs, np.inf, y + 1e-11, tol=1e-12)


# ---------------------------------------------------------------------------
# MWU solver


def _toy_instance():
    space = PairVariableSpace(3, np.array([1, 5, 2], dtype=np.int64), 2)
    costs = np.array([0.4, 0.4, 0.6])
    rows = np.array([[0, 1, 2]])
    return CoveringInstance(space, 0.6, costs, rows)


def test_mwu_single_constraint():
    res = solve_mwu(_toy_instance(), 0.05)
    assert res.solution.objective <= 0.42


def test_mwu_no_constraints(k3, wedges_of):
    _, inst = build_lambda_stc_lp(k3, wedges_of(k3), 0.5)
    assert solve_mwu(inst, 0.1).solution.objective == 0.0


def test_mwu_star(star4, wedges_of):
    _, inst = build_lambda_stc_lp(star4, wedges_of(star4), 0.5)
    res = solve_mwu(inst, 0.01)
    assert 0.75 - 1e-9 <= res.solution.objective <= 0.75 * 1.01 + 1e-9
    # the reported bound is the checked fsum of the dual
    assert res.dual_objective == math.fsum(res.dual) <= res.solution.objective


def test_mwu_epsilon_validation():
    with pytest.raises(ParameterError):
        solve_mwu(_toy_instance(), 0.0)
    with pytest.raises(ParameterError):
        solve_mwu(_toy_instance(), 1.0)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_mwu_quality_and_feasibility(eps):
    for seed in range(25):
        g = erdos_renyi(4 + seed % 9, (0.2, 0.4, 0.6)[seed % 3], 700 + seed)
        _, inst = build_lambda_stc_lp(g, enumerate_wedges(g), (0.3, 0.5, 0.75, 0.95)[seed % 4])
        exact_obj = solve_exact(inst).solution.objective
        res = solve_mwu(inst, eps)
        assert res.solution.objective <= (1 + eps) * exact_obj + 1e-9
        z = np.array([res.solution.values[p] for p in inst.space.pairs])
        assert np.all(z >= -1e-12) and np.all(z <= 1 + 1e-12)
        for row in inst.rows:
            assert z[[i for i in row if i >= 0]].sum() >= 1 - 1e-9
        # dual bound is a true lower bound
        assert res.dual_objective <= exact_obj + 1e-9
        # and the result is certified against it
        assert res.solution.objective <= (1 + eps) * res.dual_objective
        assert res.dual_objective == dual_bound(
            inst.rows, 1.0, 1.0, inst.costs, np.inf, res.dual
        )


def test_mwu_variable_in_no_row():
    # the edge (4, 5) lies only in triangles, so no open wedge covers it;
    # tightening used to take a minimum over its empty row set
    g = erdos_renyi(7, 0.2, 4165)
    _, inst = build_lambda_stc_lp(g, enumerate_wedges(g), 0.5)
    res = solve_mwu(inst, 0.001)
    z = np.array([res.solution.values[p] for p in inst.space.pairs])
    check_primal(inst.rows, 1.0, 1.0, 1.0, z)
    assert res.solution.objective <= 1.001 * res.dual_objective
    assert res.solution.objective == pytest.approx(solve_exact(inst).solution.objective)


def test_mwu_raises_when_its_dual_does_not_certify(monkeypatch):
    import lamcc.lp

    def deflated(*args, **kwargs):
        return dual_bound(*args, **kwargs) / 1.05

    monkeypatch.setattr(lamcc.lp, "dual_bound", deflated)
    g = erdos_renyi(10, 0.4, 4003)
    _, inst = build_lambda_stc_lp(g, enumerate_wedges(g), 0.75)
    with pytest.raises(MwuConvergenceError) as err:
        solve_mwu(inst, 0.1)
    assert err.value.certified_ratio > 1.1
    check_primal(inst.rows, 1.0, 1.0, 1.0, np.array(
        [err.value.best_solution.values[p] for p in inst.space.pairs]
    ))


# ---------------------------------------------------------------------------
# Orientation and hierarchy


def test_orientation_round_trip():
    for seed in range(10):
        g = erdos_renyi(9, 0.5, 40 + seed)
        _, inst = build_lambda_stc_lp(g, enumerate_wedges(g), 0.65)
        z = solve_exact(inst).solution
        x = z.to_x(g)
        back = x.to_z(g)
        assert back.values == z.values
        assert back.objective == z.objective


def _dict_flip(g, values):
    """Reference orientation flip: one has_edge lookup per pair."""
    return {p: (val if g.has_edge(*p) else 1.0 - val) for p, val in values.items()}


def _loop_certify(g, xvalues, tol=1e-9):
    """Reference canonical certification: nested loops over sub-unit pairs."""
    xmap = {}
    n = g.n
    sub_unit = {}
    for (u, v), val in xvalues.items():
        xmap[u * n + v] = val
        if val < 1.0 - 1e-12:
            sub_unit.setdefault(u, []).append((v, val))
            sub_unit.setdefault(v, []).append((u, val))
    violations = set()
    for j, nbrs in sub_unit.items():
        nbrs = sorted(nbrs)
        for a in range(len(nbrs)):
            i, x_ij = nbrs[a]
            for b in range(a + 1, len(nbrs)):
                k, x_jk = nbrs[b]
                key = i * n + k if i < k else k * n + i
                if xmap.get(key, 1.0) > x_ij + x_jk + tol:
                    violations.add(tuple(sorted((i, j, k))))
    return sorted(violations)


def _perturbed(rng, values):
    """Drop some pairs (inactive: x = 1) and force others to 0, 1/3, 1/2 or 1."""
    out = {}
    for p, val in values.items():
        r = rng.random()
        if r >= 0.1:
            out[p] = float(rng.choice([0.0, 1.0 / 3.0, 0.5, 1.0])) if r < 0.3 else val
    return out


@pytest.mark.parametrize("lam", [0.3, 0.55, 0.75])
def test_array_flip_and_certify_match_dict_references(lam, solution_of):
    rng = np.random.default_rng(int(lam * 100))
    violated = 0
    for seed in range(12):
        g = erdos_renyi(6 + seed % 7, (0.3, 0.5)[seed % 2], 300 + seed)
        z = solve_exact(build_lambda_stc_lp(g, enumerate_wedges(g), lam)[1]).solution
        zvals = z.values
        for orientation, vals in (("z", zvals), ("z", _perturbed(rng, zvals)),
                                  ("x", _perturbed(rng, _dict_flip(g, zvals)))):
            sol = solution_of(g, orientation, lam, vals, z.objective)
            flipped = sol.to_x(g) if orientation == "z" else sol.to_z(g)
            assert flipped.values == _dict_flip(g, vals)
            assert flipped.objective == sol.objective
            xvals = vals if orientation == "x" else flipped.values
            expected = _loop_certify(g, xvals)
            got = certify_canonical_feasibility(g, sol)
            assert got.violations == expected
            assert got.certified == (not expected)
            violated += bool(expected)
    assert violated > 0


def test_lp_hierarchy_small_sample():
    for seed in range(12):
        g = erdos_renyi(7, (0.3, 0.5)[seed % 2], 800 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.5, 0.8):
            v_cover = solve_exact(build_lambda_stc_lp(g, widx, lam)[1]).solution.objective
            v_inter = solve_general_exact(build_intermediate_lp(g, widx, lam)).solution.objective
            v_canon = exact_canonical_lp(g, lam).optimum
            v_ilp_stc = exact_lambda_stc(g, widx, lam).optimum
            v_ilp_cc = exact_lambda_cc(g, lam).optimum
            assert v_cover <= v_inter + 1e-7
            assert v_inter <= v_canon + 1e-7
            assert v_canon <= v_ilp_cc + 1e-7
            assert v_cover <= v_ilp_stc + 1e-7
            assert v_ilp_stc <= v_ilp_cc + 1e-7


# ---------------------------------------------------------------------------
# Canonical-feasibility certification


def test_certify_trivial_zero(k3, solution_of):
    sol = solution_of(k3, "x", 0.5, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0}, 0.0)
    assert certify_canonical_feasibility(k3, sol).certified


def test_certify_detects_violation(path3, solution_of):
    sol = solution_of(path3, "x", 0.6, {(0, 1): 1.0, (1, 2): 0.0, (0, 2): 0.0}, 0.0)
    res = certify_canonical_feasibility(path3, sol)
    assert not res.certified
    assert res.violations == [(0, 1, 2)]


def _certify_exhaustive(g, sol):
    x = sol.to_x(g)
    for i in range(g.n):
        for j in range(g.n):
            for k in range(g.n):
                if len({i, j, k}) < 3:
                    continue
                if x.value(i, k) > x.value(i, j) + x.value(j, k) + 1e-9:
                    return False
    return True


def test_certify_pruned_agrees_with_exhaustive():
    for seed in range(25):
        g = erdos_renyi(4 + seed % 9, (0.3, 0.6)[seed % 2], 900 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.45, 0.7):
            sol = solve_exact(build_lambda_stc_lp(g, widx, lam)[1]).solution.to_x(g)
            got = certify_canonical_feasibility(g, sol).certified
            assert got == _certify_exhaustive(g, sol)


def test_certified_solution_value_matches_canonical_optimum():
    hits = 0
    for seed in range(15):
        g = erdos_renyi(7, 0.4, 60 + seed)
        widx = enumerate_wedges(g)
        sol = solve_exact(build_lambda_stc_lp(g, widx, 0.55)[1]).solution.to_x(g)
        if certify_canonical_feasibility(g, sol).certified:
            hits += 1
            assert sol.objective == pytest.approx(
                exact_canonical_lp(g, 0.55).optimum, abs=1e-7
            )
    assert hits > 0  # certification does happen in practice


# ---------------------------------------------------------------------------
# Serialization


def test_instance_dump_round_readable(star4, wedges_of):
    # 1 - 0.55 is 0.44999999999999996, so costs only read back exactly
    # when they are written as full-precision plain floats
    _, inst = build_lambda_stc_lp(star4, wedges_of(star4), 0.55)
    text = dump_covering_instance(inst)
    lines = text.strip().splitlines()
    assert lines[0] == "# covering-lp v1"
    assert lines[1] == "# vars 6 constraints 3"
    cost_lines = [l.split() for l in lines if l.startswith("# cost ")]
    assert [int(f[2]) for f in cost_lines] == list(range(inst.num_variables))
    assert [float(f[3]) for f in cost_lines] == inst.costs.tolist()
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 3
    assert all(len(l.split()) == 3 for l in body)
