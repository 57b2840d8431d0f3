import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from windsym.hecke_symbols import SigmaRSet, sigma_r_set
from windsym.residue_p1 import P1Table, PrimePower
from windsym.winding_paths import (
    CHAIN_A,
    CHAIN_B,
    CHAIN_B_PRIME,
    STOP_LEADING,
    STOP_SIGMA_R,
    STOP_WRAPPED,
    IntervalPair,
    find_inverse_pair,
    interval_bound,
    lemma53_requirement,
    walk_chain_A,
    walk_chain_B,
    walk_chain_B_prime,
)
from oracles import (
    DIFFERENTIAL_LEVELS,
    chain_definition,
    get_table,
    prime_powers,
    stepwise_walk,
    walk_oracle,
)

WALKERS = {CHAIN_A: walk_chain_A, CHAIN_B: walk_chain_B, CHAIN_B_PRIME: walk_chain_B_prime}


def test_chain_A_start_and_bound_101_r2():
    table = get_table(101, 1)
    chain = walk_chain_A(2, table, sigma_r_set(2, table))
    assert chain.start_index == 98  # -r-1 = -3 = 98 mod 101
    bound = interval_bound(CHAIN_A, table.pp, 2)
    assert bound == Fraction(101, 2) - 4
    assert chain.interval_length >= bound
    assert chain.interval_length >= 47  # ceil(101/2 - 4)


def test_chain_B_start_101_r3():
    table = get_table(101, 1)
    chain = walk_chain_B(3, table, sigma_r_set(3, table))
    assert chain.start_index == 34  # 3^{-1} mod 101
    assert chain.interval_length >= interval_bound(CHAIN_B, table.pp, 3)


def test_chain_dispatch_validation():
    table = get_table(101, 1)
    sig = sigma_r_set(2, table)
    with pytest.raises(ValueError):
        walk_chain_B_prime(2, table, sig)  # 101 does not divide 2
    table2 = get_table(2, 7)
    sig2 = sigma_r_set(2, table2)
    with pytest.raises(ValueError):
        walk_chain_B(2, table2, sig2)  # p | r


def test_chain_B_prime_starts():
    # p = 2, n = 7, r = 2: start is (2 : 1) since r - 1 = 1
    table = get_table(2, 7)
    chain = walk_chain_B_prime(2, table, sigma_r_set(2, table))
    assert chain.start_index == 2
    # p = 3, r = 6 mod 729: start is (6 : 5), 5^{-1} = 146, 6*146 = 876 = 147
    table = get_table(3, 6)
    chain = walk_chain_B_prime(6, table, sigma_r_set(6, table))
    assert chain.start_index == 147
    assert 5 * 146 % 729 == 1


def test_chain_interval_is_consecutive_and_clean():
    for p, n, r in [(101, 1, 2), (101, 1, 5), (2, 10, 4), (7, 3, 3)]:
        table = get_table(p, n)
        sig = sigma_r_set(r, table)
        chains = [walk_chain_A(r, table, sig)]
        if r % p == 0:
            chains.append(walk_chain_B_prime(r, table, sig))
        else:
            chains.append(walk_chain_B(r, table, sig))
        for chain in chains:
            step = -1 if chain.label in (CHAIN_A, CHAIN_B) else 1
            m = table.pp.modulus
            for a, b in zip(chain.interval, chain.interval[1:]):
                assert (a + step) % m == b
            # no visited vertex lies in Sigma_r (the stop vertex is never
            # appended to visited)
            for idx in chain.visited:
                assert idx not in sig.members
            assert chain.stop_index is None or (
                chain.stop_index in sig.members
                or chain.stop_index == sig.leading_index
            )


@pytest.mark.parametrize("p, n", DIFFERENTIAL_LEVELS)
def test_walks_match_permutation_oracle(p, n):
    # r up to 8 covers B' (p | r) at p = 2, 3, 5 and 7
    table = get_table(p, n)
    for r in range(1, 9):
        sig = sigma_r_set(r, table)
        second = walk_chain_B_prime if r % p == 0 else walk_chain_B
        for chain in (walk_chain_A(r, table, sig), second(r, table, sig)):
            got = (chain.start_index, chain.visited, chain.interval,
                   chain.stop_reason, chain.stop_index)
            assert got == walk_oracle(chain.label, r, table.pp, sig)


@st.composite
def chain_cases(draw):
    """A chain with its r (B' needs p | r, B needs p not dividing r) at a
    level p^n <= 2*10^5, and either the real Sigma_r or a synthetic one:
    random indices on both branches, plus main vertices and intermediates a
    few steps down the walk so that stops land early and in both phases,
    and a leading index that may lie off P^1 (-1) as well as on it."""
    label = draw(st.sampled_from(sorted(WALKERS)))
    if label == CHAIN_B_PRIME:
        pp = draw(prime_powers(2 * 10**5, primes=[2, 3, 5, 7, 11]))
        r = pp.p * draw(st.integers(1, 12 // pp.p))
    else:
        pp = draw(prime_powers(2 * 10**5))
        r = draw(st.integers(1, 12))
        assume(label == CHAIN_A or r % pp.p)
    table = P1Table(pp)
    if draw(st.booleans()):
        return label, r, table, sigma_r_set(r, table)
    m = pp.modulus
    start, step, _ = chain_definition(label, r, m)
    inter_of = table.sigma if step == -1 else table.tau
    members = set(draw(st.frozensets(st.integers(0, table.size - 1), max_size=8)))
    for k, on_main in draw(st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=3)):
        a = (start + step * k) % m
        members.add(a if on_main else inter_of(a))
    leading = draw(st.one_of(st.just(-1), st.integers(0, table.size - 1)))
    return label, r, table, SigmaRSet(r, frozenset(members), leading)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(chain_cases())
def test_closed_form_stop_matches_stepwise_walk(case):
    label, r, table, sig = case
    chain = WALKERS[label](r, table, sig)
    start, step, skip_start_check = chain_definition(label, r, table.pp.modulus)
    got = (chain.start_index, chain.visited, chain.interval,
           chain.stop_reason, chain.stop_index)
    assert got == stepwise_walk(start, step, table, sig, skip_start_check)
    assert chain.visited_count == len(chain.visited)


def test_walks_build_no_permutation():
    for p, n, r in [(101, 1, 3), (2, 7, 2)]:
        table = P1Table(PrimePower(p, n))
        sig = sigma_r_set(r, table)
        walk_chain_A(r, table, sig)
        (walk_chain_B_prime if r % p == 0 else walk_chain_B)(r, table, sig)
        assert "sigma_perm" not in vars(table)
        assert "tau_perm" not in vars(table)


def test_chain_A_sigma_images_of_mains_are_on_chain():
    table = get_table(101, 1)
    chain = walk_chain_A(4, table, sigma_r_set(4, table))
    visited = set(chain.visited)
    for a in chain.interval:
        assert table.sigma_perm[a] in visited


def test_chain_A_r1_exact_length():
    # Sigma_1 = {(0:1)}, leading class (1:1): walking back from -2 stops at
    # the leading class, after exactly p^n - 3 clean steps (the bound is met
    # with equality).
    table = get_table(101, 1)
    chain = walk_chain_A(1, table, sigma_r_set(1, table))
    assert chain.stop_reason == STOP_LEADING
    assert chain.interval_length == 98 == interval_bound(CHAIN_A, table.pp, 1)


def test_chain_B_r1_degenerates():
    # the first backward step from (1:1) lands on (0:1), which is in
    # Sigma_1: recorded, and no bound is asserted for this walk
    table = get_table(101, 1)
    chain = walk_chain_B(1, table, sigma_r_set(1, table))
    assert chain.stop_reason == STOP_SIGMA_R
    assert chain.interval_length == 1
    assert chain.interval_length < interval_bound(CHAIN_B, table.pp, 1)


def test_chain_out_of_regime_stops_cleanly():
    table = get_table(5, 1)
    chain = walk_chain_A(7, table, sigma_r_set(7, table))
    assert chain.stop_reason in (STOP_SIGMA_R, STOP_LEADING, STOP_WRAPPED)


def test_chain_wraps_when_nothing_stops_it():
    table = get_table(7, 1)
    empty = SigmaRSet(1, frozenset(), leading_index=-1)
    chain = walk_chain_A(1, table, empty)
    assert chain.stop_reason == STOP_WRAPPED
    assert chain.interval_length == 7


def test_find_inverse_pair_examples():
    pp7 = PrimePower(7, 1)
    assert find_inverse_pair(IntervalPair(1, 6, 1, 6), pp7) == (1, 6)
    pp5 = PrimePower(5, 1)
    assert find_inverse_pair(IntervalPair(1, 1, 1, 1), pp5) is None
    with pytest.raises(ValueError):
        IntervalPair(1, 0, 1, 3)
    with pytest.raises(ValueError):
        find_inverse_pair(IntervalPair(0, 3, 1, 3), pp7)


def test_find_inverse_pair_smallest_y_and_postcheck():
    rng = random.Random(11)
    pp = PrimePower(101, 1)
    for _ in range(50):
        a0 = rng.randint(1, 60)
        b0 = rng.randint(1, 60)
        pair = IntervalPair(a0, rng.randint(1, 100 - a0), b0, rng.randint(1, 100 - b0))
        got = find_inverse_pair(pair, pp)
        wanted = None
        for y in range(pair.a_start, pair.a_start + pair.a_len):
            z = -pow(y, -1, 101) % 101
            if pair.b_start <= z < pair.b_start + pair.b_len:
                wanted = (y, z)
                break
        assert got == wanted
        if got:
            assert (got[0] * got[1] + 1) % 101 == 0


@st.composite
def inverse_pair_cases(draw):
    pp = draw(prime_powers(5000))
    m = pp.modulus
    bounds = []
    for _ in range(2):
        start = draw(st.integers(1, m - 1))
        bounds += [start, draw(st.integers(1, m - start))]
    return pp, IntervalPair(*bounds)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(inverse_pair_cases())
def test_find_inverse_pair_matches_full_scan(case):
    pp, pair = case
    m = pp.modulus
    b = range(pair.b_start, pair.b_start + pair.b_len)
    wanted = next(
        ((y, -pow(y, -1, m) % m) for y in range(pair.a_start, pair.a_start + pair.a_len)
         if y % pp.p and -pow(y, -1, m) % m in b),
        None,
    )
    assert find_inverse_pair(pair, pp) == wanted


def test_find_inverse_pair_scans_smaller_side_same_answer():
    pp = PrimePower(103, 1)
    wide_a = IntervalPair(1, 100, 40, 3)
    got = find_inverse_pair(wide_a, pp)
    assert got is not None
    y, z = got
    assert 40 <= z <= 42 and (y * z + 1) % 103 == 0
    # the smallest valid y, regardless of scan order
    for yy in range(1, y):
        zz = -pow(yy, -1, 103) % 103
        assert not 40 <= zz <= 42


def test_lemma53_requirement_values():
    req101 = lemma53_requirement(PrimePower(101, 1))
    assert req101.c_prime_squared == 64
    assert req101.min_product == 8121  # ceil(8 * 101^{3/2})
    assert req101.satisfied(8121) and not req101.satisfied(8120)
    assert not req101.satisfied(0)
    req2 = lemma53_requirement(PrimePower(2, 10))
    assert req2.c_prime_squared == 128
    assert req2.min_product**2 >= 128 * 2**30
    assert (req2.min_product - 1) ** 2 < 128 * 2**30


def test_interval_bound_values():
    pp = PrimePower(101, 1)
    assert interval_bound(CHAIN_A, pp, 2) == Fraction(93, 2)
    assert interval_bound(CHAIN_B, pp, 3) == Fraction(101, 9) - 2
    assert interval_bound(CHAIN_B_PRIME, pp, 6) == Fraction(101, 36) - 2
    with pytest.raises(ValueError):
        interval_bound("C", pp, 2)
