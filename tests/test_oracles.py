"""Self-tests of the oracle code that only the tests run: the Gamma_0(N)
cusp classes and the Hecke action T_r on them (tests/oracles.py), checked
against explicit matrices of Gamma_0(N) and sigma_1. The count of cusp
classes against the classical formula, level by level, is
test_cusp_count_and_pairwise_inequivalence in tests/test_rel_homology.py."""

import pytest

from oracles import (
    Cusp,
    apply_mat_to_cusp,
    bruteforce_cusp_equivalent,
    cusp_equivalent,
    cusp_representatives,
    gamma0_matrices,
    hecke_cusp_action,
    sigma1,
)


def test_cusp_normalization():
    assert Cusp.of(2, 4) == Cusp(1, 2)
    assert Cusp.of(-3, -6) == Cusp(1, 2)
    assert Cusp.of(5, 0) == Cusp(1, 0)
    assert Cusp.of(-7, 0) == Cusp(1, 0)
    with pytest.raises(ValueError):
        Cusp(2, 4)
    assert str(Cusp(1, 0)) == "oo"


@pytest.mark.parametrize("n_level", [11, 25, 27])
def test_cusp_equivalence_certified_by_matrix_search(n_level):
    mats = gamma0_matrices(n_level, amax=8, gmax=6, tmax=6)
    reps = cusp_representatives(n_level)
    # images under explicit matrices must test equivalent (and the brute
    # search trivially confirms); distinct representatives must test
    # inequivalent and the search must find no connecting matrix.
    for x in reps:
        for mat in mats[:: max(1, len(mats) // 40)]:
            y = apply_mat_to_cusp(mat, x)
            assert cusp_equivalent(x, y, n_level)
    for i, x in enumerate(reps):
        for y in reps[i + 1 :]:
            assert not bruteforce_cusp_equivalent(x, y, mats)


def test_hecke_cusp_action_examples():
    zero, inf = Cusp.of(0, 1), Cusp.of(1, 0)
    for r in (1, 2):
        for cusp in (zero, inf):
            classes = hecke_cusp_action(11, r, cusp)
            assert len(classes) == 1
            rep, count = classes[0]
            assert cusp_equivalent(rep, cusp, 11)
            assert count == sigma1(r)
    with pytest.raises(ValueError):
        hecke_cusp_action(11, 11, zero)


def test_hecke_cusp_action_total_count():
    for n_level, r in [(11, 6), (25, 4)]:
        classes = hecke_cusp_action(n_level, r, Cusp.of(1, 5))
        assert sum(c for _, c in classes) == sigma1(r)
