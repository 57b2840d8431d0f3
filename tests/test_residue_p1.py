import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from windsym import residue_p1
from windsym.arith import is_prime
from windsym.residue_p1 import (
    KIND_AFFINE,
    KIND_INFINITE,
    P1Point,
    P1Table,
    PrimePower,
    normalize,
)
from oracles import DIFFERENTIAL_LEVELS, eager_permutations, get_table, p1_size_bruteforce


def test_prime_power_validation():
    pp = PrimePower(3, 2)
    assert pp.modulus == 9
    with pytest.raises(ValueError):
        PrimePower(15, 1)
    with pytest.raises(ValueError):
        PrimePower(7, 0)
    with pytest.raises(ValueError):
        PrimePower(7, 2, modulus=50)


@pytest.mark.parametrize(
    "p, n, size",
    [(11, 1, 12), (3, 2, 12), (2, 1, 3)],
)
def test_table_sizes_against_enumeration_oracle(p, n, size):
    table = get_table(p, n)
    assert table.size == size
    assert table.size == p1_size_bruteforce(p**n)
    assert table.size == p**n + p ** (n - 1)


def test_normalize_examples():
    pp11 = PrimePower(11, 1)
    # 3^{-1} = 4 mod 11 and 2*4 = 8
    assert normalize(2, 3, pp11) == P1Point(KIND_AFFINE, 8)
    assert normalize(0, 1, pp11) == P1Point(KIND_AFFINE, 0)
    # p | gcd(2, 4): no point
    assert normalize(2, 4, PrimePower(2, 5)) is None
    # (-1, 0) is the infinite-branch point (1, 0)
    assert normalize(-1, 0, pp11) == P1Point(KIND_INFINITE, 0)


def test_normalize_idempotent_random():
    rng = random.Random(7)
    for p, n in [(5, 2), (2, 4), (13, 1)]:
        pp = PrimePower(p, n)
        for _ in range(200):
            c, d = rng.randrange(pp.modulus), rng.randrange(pp.modulus)
            pt = normalize(c, d, pp)
            if pt is None:
                assert c % p == 0 and d % p == 0
            else:
                assert normalize(*pt.pair(pp), pp) == pt


def test_sigma_tau_examples():
    table = get_table(11, 1)
    sig, tau = table.sigma_perm, table.tau_perm
    # (0,1).sigma = (-1,0) = (1,0), the infinite-branch point
    assert sig[0] == 11
    assert table.pair(11) == (1, 0)
    # (3,1).tau sigma = (4,1)
    assert sig[tau[3]] == 4
    # tau^3 = identity, sampled
    for idx in range(table.size):
        assert tau[tau[tau[idx]]] == idx


@pytest.mark.parametrize(
    "p, n", [(2, 1), (3, 1), (5, 1), (7, 2), (3, 4), (2, 5), (11, 1), (101, 2)]
)
def test_action_properties_exhaustive(p, n):
    table = get_table(p, n)
    m = p**n
    sig, tau = table.sigma_perm, table.tau_perm
    assert sorted(sig) == list(range(table.size))
    assert sorted(tau) == list(range(table.size))
    for x in range(table.size):
        assert sig[sig[x]] == x
        assert tau[tau[tau[x]]] == x
    for a in range(m):
        # tau sigma = +1 and sigma tau^2 = -1 on affine coordinates
        assert sig[tau[a]] == (a + 1) % m
        assert tau[tau[sig[a]]] == (a - 1) % m


def test_index_map_consistency():
    pp = PrimePower(3, 2)
    table = P1Table(pp)
    for i in range(table.size):
        assert table.index(*table.pair(i)) == i
    assert table.index(3, 3) is None


def test_size_guard():
    pp = PrimePower(1000003, 2)
    assert pp.modulus + pp.modulus // pp.p > residue_p1.MAX_P1_SIZE
    with pytest.raises(ValueError, match="exceeds the limit"):
        P1Table(pp)


@pytest.mark.parametrize("p, n", DIFFERENTIAL_LEVELS)
def test_actions_match_eager_oracle(p, n):
    table = P1Table(PrimePower(p, n))
    sigma_perm, tau_perm = eager_permutations(p, n)
    assert [table.sigma(i) for i in range(table.size)] == sigma_perm
    assert [table.tau(i) for i in range(table.size)] == tau_perm
    assert table.sigma_perm == sigma_perm
    assert table.tau_perm == tau_perm


# Levels p^n <= 10^12: p is the largest prime at most a draw, with extra
# weight on 2, 3, 5 and 7 so that deep infinite branches come up.
@st.composite
def prime_powers(draw, limit=10**12):
    p = draw(st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers(2, limit)))
    while not is_prime(p):
        p -= 1
    n_max = 1
    while p ** (n_max + 1) <= limit:
        n_max += 1
    return PrimePower(p, draw(st.integers(1, n_max)))


@st.composite
def levels_and_indices(draw):
    """A table at a level up to 10^12, mostly past MAX_P1_SIZE, with a point
    on either branch and an affine residue.  The guard bounds the dense
    permutations; these tests call only the O(1) methods, so it is lifted
    for them."""
    pp = draw(prime_powers())
    with mock.patch.object(residue_p1, "MAX_P1_SIZE", 2 * pp.modulus):
        table = P1Table(pp)
    m = pp.modulus
    on_branch = draw(st.booleans())
    i = draw(st.integers(m, table.size - 1) if on_branch else st.integers(0, m - 1))
    return table, i, draw(st.integers(0, m - 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(levels_and_indices())
def test_action_properties_random_levels(case):
    table, i, a = case
    m = table.pp.modulus
    assert table.index(*table.pair(i)) == i
    assert table.sigma(table.sigma(i)) == i
    assert table.tau(table.tau(table.tau(i))) == i
    assert table.sigma(table.tau(a)) == (a + 1) % m
    assert table.tau(table.tau(table.sigma(a))) == (a - 1) % m


@settings(derandomize=True, deadline=None, max_examples=200)
@given(prime_powers(), st.data())
def test_normalize_unit_scaling_random_levels(pp, data):
    m = pp.modulus
    c, d, u = (data.draw(st.integers(0, m - 1)) for _ in range(3))
    if u % pp.p == 0:
        u += 1
    assert normalize(u * c, u * d, pp) == normalize(c, d, pp)
