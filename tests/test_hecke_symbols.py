import pytest

from windsym.hecke_symbols import (
    _coordinate_rank,
    admissible_pairs,
    check_kamienny_condition3,
    hecke_span_rank,
    sigma_r_set,
    winding_image,
)
from windsym.residue_p1 import PrimePower
from oracles import get_table, winding_pairs_bruteforce


def test_winding_image_r1():
    table = get_table(11, 1)
    assert winding_image(1, table).coeffs == {0: 1}


def test_winding_image_r2_mod_11():
    # 2 xi(0,1) + xi(0,2) + xi(1,2) = 3 [(0:1)] + [(6:1)]  (2^{-1} = 6 mod 11)
    table = get_table(11, 1)
    assert winding_image(2, table).coeffs == {0: 3, 6: 1}


def test_winding_image_gcd_drop():
    # r = 2, p = 2: the xi(0,2) term has p | gcd(0,2) and vanishes
    table = get_table(2, 5)
    v = winding_image(2, table)
    assert v.total() == 3  # four tuples, one dropped
    assert table.index(0, 2) is None


@pytest.mark.parametrize("r", range(1, 9))
def test_admissible_pairs_against_bruteforce(r):
    ours: dict = {}
    for w, t, mult in admissible_pairs(r):
        ours[(w, t)] = ours.get((w, t), 0) + mult
    assert ours == winding_pairs_bruteforce(r)
    # determinant inequality: admissible pairs satisfy t <= r
    assert all(t <= r for _, t in ours)


@pytest.mark.parametrize("r", range(1, 9))
def test_winding_image_matches_bruteforce(r):
    table = get_table(31, 1)
    expected: dict = {}
    for (w, t), mult in winding_pairs_bruteforce(r).items():
        idx = table.index(w, t)
        if idx is not None:
            expected[idx] = expected.get(idx, 0) + mult
    assert winding_image(r, table).coeffs == expected


def test_sigma_r_examples():
    table = get_table(11, 1)
    s2 = sigma_r_set(2, table)
    assert s2.members == frozenset({0})
    assert s2.leading_index == 6  # class of (1, 2)
    s1 = sigma_r_set(1, table)
    assert s1.members == frozenset({0})
    assert s1.leading_index == 1  # class of (1, 1)


def test_sigma_r_monotone():
    table = get_table(13, 1)
    for r in range(1, 12):
        cur = sigma_r_set(r, table)
        nxt = sigma_r_set(r + 1, table)
        assert cur.members <= nxt.members | {nxt.leading_index}


@pytest.mark.parametrize("p, n", [(11, 1), (3, 5), (1999, 1)])
def test_winding_support_inside_sigma_r(p, n):
    table = get_table(p, n)
    for r in (1, 5, 12):
        sig = sigma_r_set(r, table)
        allowed = sig.members | {sig.leading_index}
        for i in range(1, r + 1):
            assert winding_image(i, table).support() <= allowed


@pytest.mark.parametrize("p, n", [(11, 1), (2, 5)])
def test_coefficient_total_cross_check(p, n):
    table = get_table(p, n)
    for r in range(1, 10):
        tuple_count = 0
        dropped = 0
        for w, t, mult in admissible_pairs(r):
            tuple_count += mult
            if table.index(w, t) is None:
                dropped += mult
        assert winding_image(r, table).total() == tuple_count - dropped


def test_hecke_span_rank_examples():
    pp = PrimePower(11, 1)
    assert hecke_span_rank(pp, 0, 0) == 0
    assert hecke_span_rank(pp, 1, 0) == 1
    with pytest.raises(ValueError, match="6 is not prime"):
        hecke_span_rank(pp, 1, 6)


def test_coordinate_rank_is_exact():
    # float division would see the second row as a multiple of the first
    assert _coordinate_rank([[3, 3 * 2**60 + 1], [1, 2**60]], 0) == 2
    assert _coordinate_rank([[3, 3 * 2**60], [1, 2**60]], 0) == 1
    assert _coordinate_rank([[0, 2, 4], [0, 3, 6], [1, 0, 1]], 0) == 2
    assert _coordinate_rank([[2, 4], [1, 3]], 2) == 1
    assert _coordinate_rank([[0, 0], [5, 10]], 5) == 0


def test_hecke_span_rank_monotone_and_field_bound():
    pp = PrimePower(31, 1)
    prev = 0
    ranks_q = []
    for imax in range(1, 6):
        r = hecke_span_rank(pp, imax, 0)
        assert r >= prev
        prev = r
        ranks_q.append(r)
    for l in (2, 3, 5):
        for imax in range(1, 6):
            rl = hecke_span_rank(pp, imax, l)
            assert rl <= ranks_q[imax - 1]


def test_criterion_report_below_threshold():
    rep = check_kamienny_condition3(11, 1, 1, 3)
    assert rep.s == 2 and rep.required_rank == 2
    assert rep.threshold == 4160
    assert not rep.threshold_satisfied  # 11 < 4160: nothing asserted
    assert rep.to_json()["pass"] == rep.passed


def test_criterion_s_for_p2():
    rep = check_kamienny_condition3(2, 3, 1, 5)
    assert rep.s == 3
    assert rep.threshold == 129 * 3**6


def test_criterion_l_equals_p_flagged():
    rep = check_kamienny_condition3(11, 1, 1, 11)
    assert rep.l_equals_p
    assert "warning" in rep.to_json()


def test_criterion_validation():
    with pytest.raises(ValueError):
        check_kamienny_condition3(11, 1, 1, 4)
    with pytest.raises(ValueError):
        check_kamienny_condition3(11, 1, 0, 3)
