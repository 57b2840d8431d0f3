import random

import pytest

from windsym.residue_p1 import (
    KIND_AFFINE,
    KIND_INFINITE,
    P1Point,
    P1Table,
    PrimePower,
    normalize,
)
from oracles import get_table, p1_size_bruteforce


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
    assert table.points[11] == P1Point(KIND_INFINITE, 0)
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
    for i, pt in enumerate(table.points):
        assert table.index(*pt.pair(pp)) == i
    assert table.index(3, 3) is None
