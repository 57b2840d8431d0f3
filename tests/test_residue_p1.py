import random

import pytest
from hypothesis import example, given, settings, strategies as st

from windsym import residue_p1
from windsym.arith import factorize
from windsym.rel_homology import elliptic_point_counts
from windsym.residue_p1 import P1Table, PrimePower
from oracles import (
    DIFFERENTIAL_LEVELS,
    crossing,
    eager_permutations,
    get_table,
    normalized_index,
    p1_size_bruteforce,
    pointwise_cross,
    pointwise_vertex,
    prime_powers,
)


def test_prime_power_validation():
    pp = PrimePower(3, 2)
    assert pp.modulus == 9
    with pytest.raises(ValueError):
        PrimePower(15, 1)
    with pytest.raises(ValueError):
        PrimePower(7, 0)
    # the modulus is derived from p and n, never passed
    with pytest.raises(TypeError):
        PrimePower(7, 2, modulus=49)


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
    table = P1Table(PrimePower(11, 1))
    # 3^{-1} = 4 mod 11 and 2*4 = 8
    assert table.index(2, 3) == 8
    assert table.index(0, 1) == 0
    # p | gcd(2, 4): no point
    assert P1Table(PrimePower(2, 5)).index(2, 4) is None
    # (-1, 0) is the infinite-branch point (1, 0), the first index after 0..10
    assert table.index(-1, 0) == 11
    assert table.pair(11) == (1, 0)
    # at 3^2, (2 : 3) = (1 : 3 * 2^{-1}) = (1 : 6) = (1, 3 * 2): r' = 2
    assert P1Table(PrimePower(3, 2)).index(2, 3) == 9 + 2


def test_normalize_idempotent_random():
    rng = random.Random(7)
    for p, n in [(5, 2), (2, 4), (13, 1)]:
        table = P1Table(PrimePower(p, n))
        m = table.pp.modulus
        for _ in range(200):
            c, d = rng.randrange(-m, m), rng.randrange(-m, m)
            i = table.index(c, d)
            if i is None:
                assert c % p == 0 and d % p == 0
            else:
                assert 0 <= i < table.size
                assert table.index(*table.pair(i)) == i


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
    # the O(1) methods work at any level; only the dense permutations are refused
    table = P1Table(pp)
    assert table.sigma(table.sigma(5)) == 5
    with pytest.raises(ValueError, match="exceeds the limit"):
        table.sigma_perm
    with pytest.raises(ValueError, match="exceeds the limit"):
        table.tau_perm
    # refused before tau_perm reads sigma_perm or calls tau() on any point
    assert "sigma_perm" not in vars(table) and "tau_perm" not in vars(table)


@pytest.mark.parametrize("p, n", DIFFERENTIAL_LEVELS)
def test_actions_match_eager_oracle(p, n):
    table = P1Table(PrimePower(p, n))
    sigma_perm, tau_perm = eager_permutations(p, n)
    assert [table.sigma(i) for i in range(table.size)] == sigma_perm
    assert [table.tau(i) for i in range(table.size)] == tau_perm
    # the dense permutations are arrays, which never compare equal to a list
    assert list(table.sigma_perm) == sigma_perm
    assert list(table.tau_perm) == tau_perm


@pytest.mark.parametrize("p, n", DIFFERENTIAL_LEVELS)
def test_index_matches_normalize_oracle(p, n):
    pp = PrimePower(p, n)
    table = P1Table(pp)
    m = pp.modulus
    rng = random.Random(p * 1000 + n)
    pairs = [(rng.randrange(-2 * m, 2 * m), rng.randrange(-2 * m, 2 * m)) for _ in range(300)]
    # pairs on the infinite branch and pairs defining no point, which uniform
    # draws at large p almost never hit
    pairs += [(rng.randrange(m), p * rng.randrange(m)) for _ in range(100)]
    pairs += [(p * rng.randrange(m), p * rng.randrange(m)) for _ in range(20)]
    for c, d in pairs:
        assert table.index(c, d) == normalized_index(c, d, pp), (c, d)


@st.composite
def levels_and_indices(draw):
    """A table at a level up to 10^12, mostly past MAX_P1_SIZE, with a point
    on either branch and an affine residue.  The tests call only the O(1)
    methods, which the size guard on the dense permutations leaves alone."""
    pp = draw(prime_powers())
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
    table = P1Table(pp)
    m = pp.modulus
    c, d, u = (data.draw(st.integers(0, m - 1)) for _ in range(3))
    if u % pp.p == 0:
        u += 1
    assert table.index(u * c, u * d) == table.index(c, d)


def _pointwise_sigma(table):
    return [table.sigma(i) for i in range(table.size)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(prime_powers(limit=5 * 10**4))
def test_batch_sigma_matches_pointwise_random_levels(pp):
    # Montgomery's batch inversion against one index() call per point
    table = P1Table(pp)
    assert list(table.sigma_perm) == _pointwise_sigma(table)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 15), (3, 9)])
def test_batch_sigma_matches_pointwise_edge_levels(p, n):
    # m/2 is a unit at m = 2 and a multiple of p at every other power of 2
    table = P1Table(PrimePower(p, n))
    assert list(table.sigma_perm) == _pointwise_sigma(table)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(prime_powers(limit=10**5))
# the levels whose infinite branch, p^{n-1} of the p^n + p^{n-1} points, is
# the largest share, and the single-point branch of a prime
@example(PrimePower(2, 16))
@example(PrimePower(3, 10))
@example(PrimePower(5, 7))
@example(PrimePower(2, 1))
@example(PrimePower(99991, 1))
def test_sliced_tau_matches_pointwise_random_levels(pp):
    # tau_perm is sigma_perm shifted by one on the affine points; the
    # pointwise tau() reaches every entry by its own modular inverse
    table = P1Table(pp)
    assert list(table.tau_perm) == [table.tau(i) for i in range(table.size)]


def test_dense_permutations_are_4_byte_arrays():
    # every index is below MAX_P1_SIZE < 2^31, so a 4-byte C int holds it
    assert residue_p1.MAX_P1_SIZE < 2**31
    table = P1Table(PrimePower(101, 2))
    for perm in (table.sigma_perm, table.tau_perm):
        assert perm.itemsize == 4
        assert len(perm) == table.size


@pytest.mark.parametrize("p, n", [(2, 1), (11, 1), (2, 10), (3, 6), (7, 3)])
def test_tau_perm_calls_tau_only_on_the_infinite_branch(p, n, monkeypatch):
    calls = []
    pointwise = P1Table.tau

    def spy(self, i):
        calls.append(i)
        return pointwise(self, i)

    monkeypatch.setattr(P1Table, "tau", spy)
    table = P1Table(PrimePower(p, n))
    tau = table.tau_perm
    # the infinite branch is sliced out of sigma too: tau(p^n + j) is
    # p^n - 1 - sigma(1 + pj), so no point takes a tau() call
    assert calls == []
    assert list(tau) == [pointwise(table, i) for i in range(table.size)]


def test_vertex_matches_pointwise_route():
    # every point of every prime power below 3000, powers of 2 and 3 and
    # the last affine point p^n - 1 among them, with the edges whose tails
    # are multiples of 3 removed; the fixed points the pointwise route sees
    # are those the elliptic-point counts predict
    levels = [m for m in range(2, 3000) if len(factorize(m)) == 1]
    fixed = {"sigma": 0, "tau": 0}
    for m in levels:
        ((p, n),) = factorize(m).items()
        pp = PrimePower(p, n)
        table = P1Table(pp)
        removed = set(range(0, table.size, 3))
        nu2 = nu3 = 0
        for i in range(table.size):
            orbit, far = pointwise_vertex(table, i)
            assert table.cross(i, removed) == crossing(orbit, far, removed), (p, n, i)
            nu2 += far[0] == i
            nu3 += len(orbit) == 1
        assert (nu2, nu3) == elliptic_point_counts(pp), (p, n)
        fixed["sigma"] += nu2
        fixed["tau"] += nu3
    assert fixed["sigma"] > 0 and fixed["tau"] > 0


@settings(derandomize=True, deadline=None, max_examples=100)
@given(prime_powers(limit=2 * 10**5), st.data())
def test_vertex_matches_pointwise_route_random_levels(pp, data):
    table = P1Table(pp)
    p, m = pp.p, pp.modulus
    # both ends of either branch, multiples of p and their neighbours (where
    # x or x + 1 is no unit), and points drawn anywhere; no edge removed,
    # and then the edges at drawn tails
    k = data.draw(st.integers(0, m // p - 1))
    points = {0, 1, m - 1, m, table.size - 1, p * k, p * k - 1, p * k + 1, m + k}
    points.update(data.draw(st.lists(st.integers(0, table.size - 1), max_size=30)))
    points = sorted(x % table.size for x in points)
    removed = set(data.draw(st.lists(st.sampled_from(points), max_size=len(points))))
    for i in points:
        assert table.cross(i, set()) == pointwise_cross(table, i, set()), (pp, i)
        assert table.cross(i, removed) == pointwise_cross(table, i, removed), (pp, i)
