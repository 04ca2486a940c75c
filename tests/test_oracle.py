import pytest

from lamcc.cluster import cover_flip_pivot, lambda_cc_objective, lambda_louvain
from lamcc.errors import SizeCapError
from lamcc.graph import enumerate_wedges
from lamcc.lp import build_lambda_stc_lp
from lamcc.oracle import (
    OracleResult,
    _labeling_of,
    exact_canonical_lp,
    exact_lambda_cc,
    exact_lambda_cc_sweep,
    exact_lambda_stc,
)
from lamcc.stc import cover_label, is_feasible, stc_objective
from lamcc.testing import erdos_renyi


# ---------------------------------------------------------------------------
# Clustering optimum


def test_cc_k3(k3):
    res = exact_lambda_cc(k3, 0.4)
    assert res.optimum == 0.0
    assert res.witness.num_clusters == 1


def test_cc_path_both_regimes(path3):
    res = exact_lambda_cc(path3, 0.3)
    assert res.optimum == pytest.approx(0.3)
    assert res.witness.num_clusters == 1  # all-in-one beats one cut (0.7)
    res = exact_lambda_cc(path3, 0.7)
    assert res.optimum == pytest.approx(0.3)
    a = res.witness.assignment
    assert a[0] == a[1] != a[2]


def test_cc_witness_achieves_reported_value():
    for seed in range(15):
        g = erdos_renyi(7, 0.5, seed)
        for lam in (0.35, 0.6):
            res = exact_lambda_cc(g, lam)
            assert lambda_cc_objective(g, lam, res.witness) == pytest.approx(res.optimum)


def test_cc_enumeration_visits_bell_number_partitions():
    # Bell(5) = 52, Bell(6) = 203
    assert exact_lambda_cc(erdos_renyi(5, 0.5, 0), 0.5).enumerated_count == 52
    assert exact_lambda_cc(erdos_renyi(6, 0.5, 0), 0.5).enumerated_count == 203


def test_cc_sweep_shares_one_enumeration():
    g = erdos_renyi(7, 0.4, 3)
    sweep = exact_lambda_cc_sweep(g, [0.3, 0.6, 0.9])
    for lam, res in sweep.items():
        alone = exact_lambda_cc(g, lam)
        assert res.optimum == pytest.approx(alone.optimum)


def test_cc_size_cap():
    with pytest.raises(SizeCapError):
        exact_lambda_cc(erdos_renyi(13, 0.2, 0), 0.5)


# ---------------------------------------------------------------------------
# Labeling optimum


def test_stc_k3(k3):
    res = exact_lambda_stc(k3, enumerate_wedges(k3), 0.5)
    assert res.optimum == 0.0
    assert res.witness.weak == frozenset() and res.witness.missing == frozenset()


def test_stc_path(path3):
    res = exact_lambda_stc(path3, enumerate_wedges(path3), 0.6)
    assert res.optimum == pytest.approx(0.4)
    assert len(res.witness.weak) == 1 and not res.witness.missing


def test_stc_star(star4):
    res = exact_lambda_stc(star4, enumerate_wedges(star4), 0.5)
    assert res.optimum == pytest.approx(1.0)


def test_stc_witness_feasible_and_achieves_value():
    for seed in range(20):
        g = erdos_renyi(8, 0.5, 30 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.3, 0.55, 0.9):
            res = exact_lambda_stc(g, widx, lam)
            assert is_feasible(g, widx, res.witness)
            assert stc_objective(g, lam, res.witness) == pytest.approx(res.optimum)


def _exact_minstc_plus(g, widx, *, max_active=20):
    """Minimum |weak| + |missing| by plain subset enumeration.

    Deliberately independent of ``exact_lambda_stc``'s branch search (it
    shares no search code), so the two can validate each other; exponential
    in the active-pair count, hence the small cap.
    """
    space, inst = build_lambda_stc_lp(g, widx, 0.5)
    if space.size > max_active:
        raise SizeCapError(
            f"subset enumeration capped at {max_active} active pairs, "
            f"got {space.size}"
        )
    wedge_masks = []
    for row in inst.rows:
        mask = 0
        for i in row:
            if i >= 0:
                mask |= 1 << int(i)
        wedge_masks.append(mask)
    best_size = space.size + 1
    best_mask = (1 << space.size) - 1
    for subset in range(1 << space.size):
        size = subset.bit_count()
        if size >= best_size:
            continue
        if all(subset & mk for mk in wedge_masks):
            best_size = size
            best_mask = subset
    return OracleResult(
        float(best_size), _labeling_of(space, best_mask), 1 << space.size
    )


def test_stc_branch_search_matches_subset_enumeration():
    # the two oracles share no search code; on instances small enough for
    # subset enumeration they must agree exactly (lambda = 1/2 makes costs
    # uniform 0.5, so optimum = count / 2)
    checked = 0
    for seed in range(40):
        g = erdos_renyi(6, 0.45, 900 + seed)
        widx = enumerate_wedges(g)
        try:
            subset = _exact_minstc_plus(g, widx, max_active=14)
        except SizeCapError:
            continue
        branch = exact_lambda_stc(g, widx, 0.5)
        assert branch.optimum == pytest.approx(subset.optimum * 0.5)
        checked += 1
    assert checked >= 10


def test_stc_size_cap():
    g = erdos_renyi(12, 0.8, 1)  # 66 active pairs
    widx = enumerate_wedges(g)
    with pytest.raises(SizeCapError, match="capped at 40 active pairs, got 66"):
        exact_lambda_stc(g, widx, 0.5)


# ---------------------------------------------------------------------------
# Canonical LP optimum


def test_canonical_k3(k3):
    assert exact_canonical_lp(k3, 0.5).optimum == pytest.approx(0.0, abs=1e-9)


def test_canonical_path(path3):
    # fractional and integral optima coincide at lambda = 1/2
    assert exact_canonical_lp(path3, 0.5).optimum == pytest.approx(0.5)


def test_canonical_below_clustering_optimum():
    for seed in range(12):
        g = erdos_renyi(6, 0.5, 50 + seed)
        for lam in (0.4, 0.7):
            lp = exact_canonical_lp(g, lam).optimum
            ilp = exact_lambda_cc(g, lam).optimum
            assert lp <= ilp + 1e-7


def test_labeling_lower_bounds_clustering():
    for seed in range(15):
        g = erdos_renyi(7, 0.5, 70 + seed)
        widx = enumerate_wedges(g)
        for lam in (0.35, 0.5, 0.8):
            stc = exact_lambda_stc(g, widx, lam).optimum
            cc = exact_lambda_cc(g, lam).optimum
            assert stc <= cc + 1e-9


@pytest.mark.parametrize("lam", [1e-9, 1 - 1e-9])
def test_extreme_lambda_bounds_and_clusterings_bracket_the_optimum(lam):
    # near 0 every missing pair costs almost nothing, near 1 every weak edge
    for seed in range(40):
        g = erdos_renyi(8, 0.4, seed)
        widx = enumerate_wedges(g)
        opt = exact_lambda_cc(g, lam).optimum
        for minimal in (False, True):
            lab, cert = cover_label(g, widx, lam, minimal=minimal)
            assert is_feasible(g, widx, lab)
            assert cert.lower_bound <= stc_objective(g, lam, lab) + 1e-12
            assert cert.lower_bound <= opt + 1e-12
        assert lambda_louvain(g, lam, seed).objective >= opt - 1e-12
        assert cover_flip_pivot(g, widx, lam, seed).objective >= opt - 1e-12


def test_canonical_size_cap():
    with pytest.raises(SizeCapError):
        exact_canonical_lp(erdos_renyi(11, 0.2, 0), 0.5)
