import pytest

from lamcc.errors import InvalidLabelingError, ParameterError
from lamcc.graph import enumerate_wedges, pair_key
from lamcc.oracle import exact_lambda_stc
from lamcc.stc import (
    StcLabeling,
    StcRegime,
    cover_label,
    is_feasible,
    pair_cost,
    stc_objective,
    stc_regime,
)
from lamcc.testing import erdos_renyi

LAB_EMPTY = StcLabeling(frozenset(), frozenset())


def lab(weak=(), missing=()):
    return StcLabeling(StcLabeling.normalize(weak), StcLabeling.normalize(missing))


# ---------------------------------------------------------------------------
# Objective and feasibility


def test_objective_examples(path3, k3, star4):
    assert stc_objective(k3, 0.7, LAB_EMPTY) == 0.0
    assert stc_objective(path3, 0.6, lab(weak=[(0, 1)])) == pytest.approx(0.4)
    full = lab(weak=[(0, 1), (0, 2)], missing=[(1, 2)])
    assert stc_objective(star4, 0.5, full) == pytest.approx(1.5)


def test_objective_rejects_mislabeled_pairs(path3):
    with pytest.raises(InvalidLabelingError):
        stc_objective(path3, 0.5, lab(weak=[(0, 2)]))  # not an edge
    with pytest.raises(InvalidLabelingError):
        stc_objective(path3, 0.5, lab(missing=[(0, 1)]))  # an edge


def test_lambda_validation(path3):
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ParameterError):
            stc_objective(path3, bad, LAB_EMPTY)


def test_pair_cost():
    assert pair_cost(0.3, True) == pytest.approx(0.7)
    assert pair_cost(0.3, False) == pytest.approx(0.3)


def test_feasibility_examples(path3, star4):
    wp = enumerate_wedges(path3)
    assert not is_feasible(path3, wp, LAB_EMPTY)
    assert is_feasible(path3, wp, lab(missing=[(0, 2)]))
    ws = enumerate_wedges(star4)
    assert is_feasible(star4, ws, lab(weak=[(0, 1), (0, 2)]))
    assert not is_feasible(star4, ws, lab(weak=[(0, 1)]))


def test_feasibility_no_wedges_always_true(k3):
    assert is_feasible(k3, enumerate_wedges(k3), LAB_EMPTY)


# ---------------------------------------------------------------------------
# Cover algorithm


def test_cover_label_k3(k3):
    labeling, cert = cover_label(k3, enumerate_wedges(k3), 0.4)
    assert labeling == LAB_EMPTY
    assert cert.lower_bound == 0.0


def test_cover_label_path(path3):
    widx = enumerate_wedges(path3)
    labeling, cert = cover_label(path3, widx, 0.6)
    # single wedge, M = min(0.4, 0.4, 0.6) = 0.4 zeroes both edges
    assert labeling.weak == frozenset({(0, 1), (1, 2)})
    assert labeling.missing == frozenset()
    assert cert.lower_bound == pytest.approx(0.4)
    assert is_feasible(path3, widx, labeling)


def test_cover_label_star_tight_for_factor_three(star4):
    widx = enumerate_wedges(star4)
    labeling, cert = cover_label(star4, widx, 0.5)
    assert labeling.weak == frozenset({(0, 1), (0, 2)})
    assert labeling.missing == frozenset({(1, 2)})
    assert cert.lower_bound == pytest.approx(0.5)
    obj = stc_objective(star4, 0.5, labeling)
    assert obj == pytest.approx(1.5)
    assert obj == pytest.approx(3.0 * cert.lower_bound)  # factor 3 is tight here
    assert exact_lambda_stc(star4, widx, 0.5).optimum == pytest.approx(1.0)


def test_cover_label_deterministic(star4):
    widx = enumerate_wedges(star4)
    a = cover_label(star4, widx, 0.5)
    b = cover_label(star4, widx, 0.5)
    assert a[0] == b[0]
    assert a[1].lower_bound == b[1].lower_bound


def test_cover_label_shuffled_order_still_feasible():
    g = erdos_renyi(10, 0.4, 3)
    widx = enumerate_wedges(g)
    for seed in (0, 1, 2):
        labeling, cert = cover_label(g, widx, 0.6, shuffle_seed=seed)
        assert is_feasible(g, widx, labeling)
        assert stc_objective(g, 0.6, labeling) <= 3.0 * cert.lower_bound + 1e-12


def test_minimal_post_pass_keeps_feasibility_and_never_costs_more():
    for seed in range(15):
        g = erdos_renyi(9, 0.5, 100 + seed)
        widx = enumerate_wedges(g)
        plain, _ = cover_label(g, widx, 0.7)
        slim, _ = cover_label(g, widx, 0.7, minimal=True)
        assert is_feasible(g, widx, slim)
        assert slim.weak <= plain.weak and slim.missing <= plain.missing
        assert stc_objective(g, 0.7, slim) <= stc_objective(g, 0.7, plain)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.75, 0.95])
def test_cover_label_properties_random_graphs(lam):
    for seed in range(25):
        g = erdos_renyi(4 + seed % 6, (0.2, 0.4, 0.6)[seed % 3], 200 + seed)
        widx = enumerate_wedges(g)
        labeling, cert = cover_label(g, widx, lam)
        assert is_feasible(g, widx, labeling)
        obj = stc_objective(g, lam, labeling)
        assert obj <= 3.0 * cert.lower_bound + 1e-12
        # dual feasibility: per-pair wedge contributions stay within cost
        contributions: dict[int, float] = {}
        keys = widx.wedge_pair_keys()
        for w in range(widx.wedge_count):
            for key in keys[w]:
                contributions[int(key)] = contributions.get(int(key), 0.0) + float(
                    cert.wedge_values[w]
                )
        for key, total in contributions.items():
            u, v = key // g.n, key % g.n
            assert total <= pair_cost(lam, g.has_edge(u, v)) + 1e-12


def test_dual_lower_bound_below_exact_optimum():
    for seed in range(20):
        g = erdos_renyi(8, 0.5, 300 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.4, 0.6):
            _, cert = cover_label(g, widx, lam)
            opt = exact_lambda_stc(g, widx, lam).optimum
            assert cert.lower_bound <= opt + 1e-12


def test_minstc_equivalent_regime_places_no_missing_pairs():
    for seed in range(10):
        g = erdos_renyi(8, 0.5, 500 + seed)
        if g.m == 0:
            continue
        lam = (g.m + 0.9) / (g.m + 1.0)  # just above m/(m+1)
        assert stc_regime(lam, g.m) is StcRegime.MINSTC_EQUIVALENT
        labeling, _ = cover_label(g, enumerate_wedges(g), lam)
        assert labeling.missing == frozenset()


# ---------------------------------------------------------------------------
# Regimes


def test_regime_examples():
    assert stc_regime(0.5, 100) is StcRegime.MINSTC_PLUS_EQUIVALENT
    assert stc_regime(0.995, 100) is StcRegime.MINSTC_EQUIVALENT  # > 100/101
    assert stc_regime(0.7, 100) is StcRegime.GENERAL


def test_regime_boundary_is_strict():
    # lambda exactly m/(m+1) does not qualify
    assert stc_regime(0.5, 1) is StcRegime.MINSTC_PLUS_EQUIVALENT
    assert stc_regime(2.0 / 3.0, 2) is StcRegime.GENERAL
    assert stc_regime(0.67, 2) is StcRegime.MINSTC_EQUIVALENT


def test_regime_precedence_with_no_edges():
    assert stc_regime(0.5, 0) is StcRegime.MINSTC_PLUS_EQUIVALENT
