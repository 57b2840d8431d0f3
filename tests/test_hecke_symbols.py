import functools
import json
import math
import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from windsym import hecke_symbols, rel_homology
from windsym.arith import factorize, is_prime, prime_power, rank, smallest_prime_excluding
from windsym.bounds_cli import cli_main
from windsym.hecke_symbols import (
    admissible_pairs,
    check_kamienny_condition3,
    hecke_span_rank,
    sigma_r_set,
    sigma_r_sets,
    winding_image,
)
from windsym.rel_homology import H1Presentation
from windsym.residue_p1 import P1Table, PrimePower
from oracles import (
    get_table,
    pointwise_cross,
    pointwise_sigma,
    pointwise_tau,
    prefix_ranks,
    prime_powers,
    sigma_r_union,
    winding_pairs_bruteforce,
)


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
    assert sum(v.coeffs.values()) == 3  # four tuples, one dropped
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


def test_sigma_r_sets_match_the_union_route():
    # at every prime power below 500, each Sigma_r of the grown union, r = 1..15,
    # against T_1..T_r{0,oo} listed afresh; a later r_min yields the same tail
    for m in range(2, 500):
        if (found := prime_power(m)) is None:
            continue
        table = P1Table(PrimePower(*found))
        grown = list(sigma_r_sets(table, 1, 15))
        assert grown == [sigma_r_union(r, table) for r in range(1, 16)], m
        assert list(sigma_r_sets(table, 6, 15)) == grown[5:]
        assert sigma_r_set(15, table) == grown[-1]


def test_sigma_r_sets_refuses_r_below_1_and_yields_nothing_on_an_empty_range():
    table = get_table(11, 1)
    for r in (0, -3):
        with pytest.raises(ValueError, match="r must be >= 1"):
            sigma_r_set(r, table)
        with pytest.raises(ValueError, match="r must be >= 1"):
            next(sigma_r_sets(table, r, 5))
    assert list(sigma_r_sets(table, 5, 4)) == []


@pytest.mark.parametrize("p, n", [(11, 1), (3, 5), (1999, 1)])
def test_winding_support_inside_sigma_r(p, n):
    table = get_table(p, n)
    for r in (1, 5, 12):
        sig = sigma_r_set(r, table)
        allowed = sig.members | {sig.leading_index}
        for i in range(1, r + 1):
            assert winding_image(i, table).coeffs.keys() <= allowed


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
        assert sum(winding_image(r, table).coeffs.values()) == tuple_count - dropped


def test_hecke_span_rank_examples():
    pp = PrimePower(11, 1)
    assert hecke_span_rank(pp, 0, 0) == 0
    assert hecke_span_rank(pp, 1, 0) == 1
    with pytest.raises(ValueError, match="6 is not prime"):
        hecke_span_rank(pp, 1, 6)


def test_coordinate_rank_is_exact():
    # float division would see the second row as a multiple of the first
    assert rank([[3, 3 * 2**60 + 1], [1, 2**60]], 0) == 2
    assert rank([[3, 3 * 2**60], [1, 2**60]], 0) == 1
    assert rank([[0, 2, 4], [0, 3, 6], [1, 0, 1]], 0) == 2
    assert rank([[2, 4], [1, 3]], 2) == 1
    assert rank([[0, 0], [5, 10]], 5) == 0


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


CHARS = (0, 2, 3, 5, 7)


def _forest_ranks(pp: PrimePower, imax: int) -> dict[int, list[int]]:
    """Per field, the ranks of T_1..T_k{0,oo} for k = 1..imax by the forest
    route: quotient coordinates from H1Presentation.reduce, ranked by
    prefix_ranks."""
    table = P1Table(pp)
    pres = H1Presentation(table)
    rows = [pres.reduce(winding_image(i, table).coeffs) for i in range(1, imax + 1)]
    return {l: prefix_ranks(rows, l) for l in CHARS}


PRIMES_BELOW_100 = [l for l in range(100) if is_prime(l)]


def _labels_route(span_matrices, pp: PrimePower, imax: int):
    """span_matrices(pp, imax) with the pivot structure ignored: the
    component labels and their cut rows, with no search or walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke_symbols, "_pivots", lambda *args: None)
        return span_matrices(pp, imax)


def _share_and_record_search(monkeypatch) -> dict[str, set]:
    """Share each level's search across the fields, and record the (p^n, d)
    by the route that decided them: every pivot edge joined ("pivots"), or
    the component labels, which find G minus S connected ("connected", no
    cut row) or split ("split"), and those whose rows are not triangular
    on the pivots ("no pivots").  _all_joined is only ever given the pivot
    tails e_2..e_sd of the level being decided.  Wherever the pivots
    decide, the labels route must give rank(cuts + rows) - #cuts = sd over
    Q and every prime l < 100, on the same image rows."""
    runs = {"pivots": set(), "connected": set(), "split": set(), "no pivots": set()}
    span, pivots, all_joined = hecke_symbols._span_matrices, hecke_symbols._pivots, hecke_symbols._all_joined
    search = functools.lru_cache(maxsize=1)(span)
    found = [None]  # what _pivots last returned

    def pivots_spy(table, tails, rows):
        found[0] = pivots(table, tails, rows)
        if found[0] is None:
            runs["no pivots"].add((table.pp.modulus, len(rows) // smallest_prime_excluding(table.pp.p)))
        return found[0]

    def all_joined_spy(table, removed, tails, heads):
        assert found[0] is not None and tails == found[0][1:], table.pp
        return all_joined(table, removed, tails, heads)

    def span_matrices(pp, imax):
        cuts, rows = search(pp, imax)
        level = (pp.modulus, imax // smallest_prime_excluding(pp.p))
        if cuts is None and level not in runs["pivots"]:
            found[0] = None
            all_cuts, all_rows = _labels_route(span, pp, imax)
            assert all_rows == rows, level
            for l in (0, *PRIMES_BELOW_100):
                assert rank(all_cuts + rows, l) - len(all_cuts) == imax, (level, l)
        runs["pivots" if cuts is None else "split" if cuts else "connected"].add(level)
        return cuts, rows

    monkeypatch.setattr(hecke_symbols, "_span_matrices", span_matrices)
    monkeypatch.setattr(hecke_symbols, "_pivots", pivots_spy)
    monkeypatch.setattr(hecke_symbols, "_all_joined", all_joined_spy)
    return runs


def _check_against_forest(pp: PrimePower, ds) -> None:
    s = smallest_prime_excluding(pp.p)
    ranks = _forest_ranks(pp, s * max(ds))
    for d in ds:
        for l in CHARS:
            assert hecke_span_rank(pp, s * d, l) == ranks[l][s * d - 1], (pp, d, l)


def test_span_rank_against_forest_route(monkeypatch):
    runs = _share_and_record_search(monkeypatch)
    levels = [m for m in range(2, 3000) if len(factorize(m)) == 1]
    assert len(levels) == 466
    for m in levels:
        ((p, n),) = factorize(m).items()
        _check_against_forest(PrimePower(p, n), (1, 2, 3))
    routes = {
        name: {d: {m for m, e in decided if e == d} for d in (1, 2, 3)}
        for name, decided in runs.items()
    }
    split = routes["split"]
    # G minus S splits only at small levels; removing more edges splits more.
    # 64 at d = 2 and 256 at d = 3 split, but no pivot edge does there
    assert split[1] == {3, 4, 7, 8, 9, 13, 16, 25}
    assert (len(split[2]), max(split[2])) == (23, 121)
    assert (len(split[3]), max(split[3])) == (40, 169)
    assert split[1] <= split[2] <= split[3]
    # the rows fail to be triangular on the pivots only where p^n <
    # sd(sd + 1), so that T_1..T_sd can meet mod p^n (p = 2 has s = 3)
    assert routes["no pivots"] == {
        1: {2, 5},
        2: {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 32},
        3: {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 64},
    }
    for m, d in runs["no pivots"]:
        s = smallest_prime_excluding(factorize(m).popitem()[0])
        assert m < s * d * (s * d + 1), (m, d)
    # the labels find G minus S connected only where the pivots fail
    assert routes["connected"] == {1: {2, 5}, 2: {2}, 3: {2}}
    for d in (1, 2, 3):
        assert routes["connected"][d] <= routes["no pivots"][d] <= split[d] | routes["connected"][d]
        assert routes["pivots"][d] == set(levels) - split[d] - routes["connected"][d]
    # hecke_span_rank subtracts len(cuts): the k - 1 cut rows are independent
    for m, d in sorted(runs["split"]):
        ((p, n),) = factorize(m).items()
        cuts, _ = hecke_symbols._span_matrices(PrimePower(p, n), smallest_prime_excluding(p) * d)
        assert [rank(cuts, l) for l in (0, 2)] == [len(cuts)] * 2, (m, d)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(prime_powers(limit=2 * 10**5), st.sampled_from((1, 2, 3)))
def test_span_rank_against_forest_route_random_levels(pp, d):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _share_and_record_search(monkeypatch)
        _check_against_forest(pp, (d,))


# the benchmark ladder's levels, with its drawn primes at their least
# values, where every edge is joined, and two levels that need the labels
SEARCH_LEVELS = [(2, 13, 1), (10007, 1, 1), (5, 6, 1), (3, 9, 1), (20011, 1, 1),
                 (5, 2, 1), (11, 2, 2)]


def _record_crossings(cross, pp: PrimePower, imax: int):
    """_span_matrices(pp, imax) with P1Table.cross replaced by cross, and
    every call it made: (point, removed edges, result), in order."""
    trace = []

    def spy(table, x, removed):
        out = cross(table, x, removed)
        trace.append((x, sorted(removed), out))
        return out

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(P1Table, "cross", spy)
        return hecke_symbols._span_matrices(pp, imax), trace


@pytest.mark.parametrize("p, n, d", SEARCH_LEVELS)
def test_search_matches_pointwise_route(p, n, d, monkeypatch):
    # every crossing _all_joined and _component_labels make, in order,
    # against the same searches run on one tau or sigma call per point;
    # 10007, 5^6, 3^9 and 20011 are past the d = 1 threshold, where the walk
    # certificate would decide them with no search, so it declines here
    monkeypatch.setattr(hecke_symbols, "_walk_joins", lambda *args: False)
    pp, imax = PrimePower(p, n), smallest_prime_excluding(p) * d
    kernel = _record_crossings(P1Table.cross, pp, imax)
    pointwise = _record_crossings(pointwise_cross, pp, imax)
    assert kernel == pointwise
    (cuts, _), trace = kernel
    assert bool(cuts) == (p**n in (25, 121))
    assert trace


def test_search_crosses_each_edge_once(monkeypatch):
    # one search of the pivot edges e_2..e_sd, all of S removed, decides
    # each level, with one P1Table.cross call per crossing.  At the first
    # prime past the d = 2 threshold 266240 it makes 10,872 crossings, where
    # reading every vertex once to expand it and again to name it took
    # 35,721 calls.  The walk is tried only at d = 1 with p odd, so none is
    # tried here
    count = [0]
    cross = P1Table.cross

    def spy(table, x, removed):
        count[0] += 1
        return cross(table, x, removed)

    monkeypatch.setattr(P1Table, "cross", spy)
    taken = _walks_taken(monkeypatch)
    for p, n, d, crossings in [(266261, 1, 2, 10872), (2, 13, 1, 1075), (1000003, 1, 2, 26761),
                               (3032641, 1, 3, 49929)]:
        count[0] = 0
        cuts, _ = hecke_symbols._span_matrices(PrimePower(p, n), smallest_prime_excluding(p) * d)
        assert cuts is None and taken == []
        assert count[0] == crossings, (p, n, d)


def test_pivots_decide_without_labels_or_elimination(capsys, monkeypatch):
    # where every pivot edge is joined the rank is sd over every field: one
    # search of e_2..e_sd runs, and no label or elimination.  Where a pivot
    # splits, the labels and the elimination run after it.  At 2 and 5 the
    # rows are not triangular on the pivots, so only the labels and the
    # elimination run
    calls = []
    for name in ("_all_joined", "_component_labels", "rank"):
        method = getattr(hecke_symbols, name)

        def call(*args, name=name, method=method):
            calls.append((name, len(args[2])) if name == "_all_joined" else name)
            return method(*args)

        monkeypatch.setattr(hecke_symbols, name, call)
    for argv, s, d in [(["--p", "2", "--n", "13", "--d", "1"], 3, 1),
                       (["--p", "266261", "--d", "2"], 2, 2)]:
        calls.clear()
        assert cli_main(["criterion", *argv, "--l", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["achieved_rank"] == s * d
        assert calls == [("_all_joined", s * d - 1)], argv
    # at 2 and 5, S is the loop {0, oo} alone, which T_2 meets too
    for m in (3, 4, 7, 8, 9, 13, 16, 25, 2, 5):
        ((p, n),) = factorize(m).items()
        s = smallest_prime_excluding(p)
        calls.clear()
        assert hecke_span_rank(PrimePower(p, n), s, 3) < s, m
        if m in (2, 5):
            assert calls == ["_component_labels", "rank"], m
        else:
            assert calls == [("_all_joined", s - 1), "_component_labels", "rank"], m


def test_joined_verdict_does_not_depend_on_edge_order():
    # J may gain only balls shown joined to it: at the levels where G minus
    # S splits, no order of the edges of S may find them all joined (J
    # gaining every pair of balls that met would, at 4 and 41 among others)
    rng = random.Random(0)
    verdicts = set()
    for m in range(2, 300):
        fac = factorize(m)
        if len(fac) != 1:
            continue
        ((p, n),) = fac.items()
        table = P1Table(PrimePower(p, n))
        for d in (1, 2, 3):
            heads = {}
            for i in range(1, smallest_prime_excluding(p) * d + 1):
                for z in winding_image(i, table).coeffs:
                    y = table.sigma(z)
                    if y != z:
                        heads[min(y, z)] = max(y, z)
            tails = sorted(heads)
            joined = hecke_symbols._all_joined(table, set(tails), tails, heads)
            verdicts.add(joined)
            for _ in range(20):
                order = rng.sample(tails, len(tails))
                assert hecke_symbols._all_joined(table, set(tails), order, heads) == joined, (m, d)
    assert verdicts == {False, True}


def _prime_powers_between(low: int, high: int) -> list[tuple[int, int]]:
    """(p, n) with low <= p^n < high, by a sieve, in order of p^n."""
    sieve = bytearray([1]) * high
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(high) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, high, q)))
    out = []
    for q in (q for q in range(2, high) if sieve[q]):
        n, m = 1, q
        while m < high:
            if m >= low:
                out.append((m, q, n))
            n, m = n + 1, m * q
    return [(q, n) for _, q, n in sorted(out)]


# every level the benchmark ladder can draw, the memory guard's 1000003, and
# 60 seeded prime powers between the d = 1 threshold 4160 and 4 * 10^5
WALK_LEVELS = (
    [(2, 13), (5, 6), (3, 9)]
    + [(q, 1) for q in [*range(10000, 10110), *range(20000, 20110)] if is_prime(q)]
    + [(1000003, 1)]
    + random.Random(20).sample(_prime_powers_between(4160, 4 * 10**5), 60)
)


def _walks_taken(monkeypatch) -> list[bool]:
    """Record the verdict of each _walk_joins call."""
    taken = []
    walk = hecke_symbols._walk_joins

    def spy(*args):
        taken.append(walk(*args))
        return taken[-1]

    monkeypatch.setattr(hecke_symbols, "_walk_joins", spy)
    return taken


def test_walk_matches_search(monkeypatch):
    # the matrices, and so every rank, are those of the search alone: the
    # pivots decide every level here, by the walk or by the search; the walk
    # closes at every level past the threshold 4160 with p odd, and is not
    # tried below it (4153, 4159) or at p = 2 (2^13..2^18): it is tried only
    # at d = 1 with p odd
    def matrices_and_ranks(mp, pp, imax):
        span = functools.lru_cache(maxsize=1)(hecke_symbols._span_matrices)
        mp.setattr(hecke_symbols, "_span_matrices", span)  # one run serves every field
        return span(pp, imax), [hecke_span_rank(pp, imax, l) for l in (0, 2, 3, 5)]

    for p, n in WALK_LEVELS + [(4153, 1), (4159, 1), (2, 17), (2, 18)]:
        pp, imax = PrimePower(p, n), smallest_prime_excluding(p)
        with pytest.MonkeyPatch.context() as mp:
            taken = _walks_taken(mp)
            walked = matrices_and_ranks(mp, pp, imax)
        assert taken == ([True] if p > 2 and p**n >= 4160 else []), (p, n)
        assert walked[0][0] is None, (p, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hecke_symbols, "_walk_joins", lambda *args: False)
            assert matrices_and_ranks(mp, pp, imax) == walked, (p, n)


@pytest.mark.parametrize("p, n", [(5, 6), (3, 9), (20011, 1), (1000003, 1), (3, 13)])
def test_walk_steps_match_pointwise_oracle(p, n, monkeypatch):
    # each sigma and tau call of a walk that closes equals the P1Point
    # route's, and its word, the only one drawn, walked again on that route,
    # crosses no edge of S and ends in the tau orbit of sigma x
    pp = PrimePower(p, n)
    words, calls = [], []
    first_word = hecke_symbols._first_word

    def first_word_spy(m):
        words.append(first_word(m))
        return words[-1]

    def spy(name, oracle):
        method = getattr(P1Table, name)

        def call(table, i):
            out = method(table, i)
            calls.append((i, out, oracle(pp, i)))
            return out

        monkeypatch.setattr(P1Table, name, call)

    monkeypatch.setattr(hecke_symbols, "_first_word", first_word_spy)
    taken = _walks_taken(monkeypatch)
    table = P1Table(pp)
    heads = {}
    for z in chain(winding_image(1, table).coeffs, winding_image(2, table).coeffs):
        y = table.sigma(z)
        if y != z:
            heads[min(y, z)] = max(y, z)
    spy("sigma", pointwise_sigma)
    spy("tau", pointwise_tau)
    assert hecke_symbols._span_matrices(pp, 2)[0] is None  # the pivots decide
    assert taken == [True]
    assert calls and all(out == want for _, out, want in calls)
    [word] = words
    x = (pp.modulus + 1) // 2  # the walk starts at 1/2
    assert 0 < len(word) <= 4 * pp.modulus.bit_length() + 8
    y = x
    for letter in word:
        z = pointwise_tau(pp, y)
        if letter:
            z = pointwise_tau(pp, z)
        y = pointwise_sigma(pp, z)
        assert y == z or min(y, z) not in heads
    head = heads[x]
    assert y in (pointwise_tau(pp, head), pointwise_tau(pp, pointwise_tau(pp, head)))


def test_walk_declines_without_a_path():
    # a walk counts only when it crosses no edge of removed and ends in the
    # head's tau orbit: with every edge removed, or a head whose orbit no
    # word reaches, no word closes
    table = P1Table(PrimePower(5, 6))
    x = (table.pp.modulus + 1) // 2  # 1/2, whose edge leads to -2
    head = table.sigma(x)
    assert hecke_symbols._walk_joins(table, x, head, {0, x})
    assert not hecke_symbols._walk_joins(table, x, head, set(range(table.size)))
    assert not hecke_symbols._walk_joins(table, x, table.index(-3, 1), {0, x})


def test_walk_needs_few_table_calls(monkeypatch):
    # at p = 1000003 the search made 27,861 P1Table.cross calls; the walk
    # and the images together make about 300 calls of any P1Table method
    count = [0]
    for name in ("index", "pair", "sigma", "tau", "cross"):
        method = getattr(P1Table, name)

        def call(table, *args, method=method):
            count[0] += 1
            return method(table, *args)

        monkeypatch.setattr(P1Table, name, call)
    assert hecke_symbols._span_matrices(PrimePower(1000003, 1), 2) == (None, [[-1, 0], [-3, -1]])
    assert count[0] < 2000


def test_walk_letters_and_lift():
    # a nonnegative product of A = [[1, 0], [1, 1]] and B = [[1, 1], [0, 1]]
    # reads back as its word, and so does its negative
    rng = random.Random(5)
    letters = (((1, 0), (1, 1)), ((1, 1), (0, 1)))
    for length in range(40):
        word = [rng.randrange(2) for _ in range(length)]
        w = ((1, 0), (0, 1))
        for k in word:
            w = hecke_symbols._mul(w, letters[k])
        neg = tuple(tuple(-v for v in row) for row in w)
        assert hecke_symbols._letters(w, 40) == word == hecke_symbols._letters(neg, 40)
        assert length < 2 or hecke_symbols._letters(w, length - 1) is None
    assert hecke_symbols._letters(((1, -1), (0, 1)), 40) is None
    assert hecke_symbols._letters(((2, 1), (-1, 0)), 40) is None
    # the fixed lift g of 1/2 is in SL_2(Z), its bottom row indexes 1/2 at
    # every odd level, and P = g^-1 [[1, -1], [0, 1]], Q = g sigma tau^2
    g, g_inv = ((0, -1), (1, 2)), ((2, 1), (-1, 0))
    sigma, tau = ((0, 1), (-1, 0)), ((0, -1), (1, -1))
    mul = hecke_symbols._mul
    assert mul(g, g_inv) == ((1, 0), (0, 1))
    assert hecke_symbols._P == mul(g_inv, ((1, -1), (0, 1)))
    assert hecke_symbols._Q == mul(mul(g, sigma), mul(tau, tau))
    for p, n in [(5, 6), (1000003, 1), (3, 7), (3, 9), (20011, 1), (7, 2)]:
        table = P1Table(PrimePower(p, n))
        assert table.index(*g[1]) == (table.pp.modulus + 1) // 2, (p, n)


def test_walk_closes_with_its_first_word():
    # called directly, the walk from 1/2 crosses no edge of S and reaches
    # sigma(1/2)'s vertex with the word of _first_word, at 200 seeded
    # primes in (4160, 10^9), at 40 seeded odd prime powers p^n (n >= 2) in
    # (4160, 10^6) and at powers of 3, 5 and 7 up to about 10^30; S is the
    # loop {0, oo} and the one bridge {1/2, -2} there
    rng = random.Random(21)
    primes = []
    while len(primes) < 200:
        q = rng.randrange(4161, 10**9)
        if is_prime(q):
            primes.append((q, 1))
    powers = [(p, n) for p, n in _prime_powers_between(4160, 10**6) if p > 2 and n > 1]
    levels = primes + rng.sample(powers, 40)
    levels += [(p, n) for p in (3, 5, 7) for n in range(2, 64) if 4160 < p**n < 10**30]
    for p, n in levels:
        table = P1Table(PrimePower(p, n))
        heads = {}
        for z in chain(winding_image(1, table).coeffs, winding_image(2, table).coeffs):
            y = table.sigma(z)
            if y != z:
                heads[min(y, z)] = max(y, z)
        half = (table.pp.modulus + 1) // 2
        assert sorted(heads) == [0, half], (p, n)
        assert hecke_symbols._walk_joins(table, half, heads[half], {0, half}), (p, n)


def _criterion_failures(levels, d: int) -> set[int]:
    """The levels p^n among (p, n) whose criterion fails over F_3 (F_5 at
    p = 3) for degree d."""
    return {
        p**n for p, n in levels
        if not check_kamienny_condition3(p, n, d, 5 if p == 3 else 3).passed
    }


def test_criterion_d1_table():
    # every prime power below the d = 1 threshold 65 * 2^6 = 4160
    levels = [next(iter(f.items())) for f in map(factorize, range(2, 4160)) if len(f) == 1]
    assert _criterion_failures(levels, 1) == {2, 3, 4, 5, 7, 8, 9, 13, 16, 25}


def test_criterion_oesterle_table():
    # for d = 1..7, every prime p <= 3^d + 1 + 2 sqrt(3^d) = (3^(d/2) + 1)^2,
    # Oesterle's bound on the torsion primes of degree d, taken exactly
    bounds = {d: 3**d + 1 + math.isqrt(4 * 3**d) for d in range(1, 8)}
    assert list(bounds.values()) == [7, 16, 38, 100, 275, 784, 2281]
    primes = [p for p in range(2, bounds[7] + 1) if is_prime(p)]

    def up_to(k):
        return {p for p in primes if p <= k}

    want = {
        1: up_to(7),
        2: up_to(13),
        3: up_to(37),
        4: up_to(97),
        5: up_to(127) | {137, 139, 151, 157, 163, 181, 193, 197, 211},
        6: up_to(181) | {193, 197, 199, 211, 227, 233, 277},
        7: up_to(181) | {193, 197, 199, 211, 223, 227, 229, 233, 241, 269, 277, 313, 337},
    }
    for d, bound in bounds.items():
        assert _criterion_failures([(p, 1) for p in primes if p <= bound], d) == want[d], d
    assert [max(want[d]) for d in want] == [7, 13, 37, 97, 211, 277, 337]


def test_criterion_builds_no_permutation_or_tree(capsys, monkeypatch):
    argvs = [["--p", "4201", "--l", "3"], ["--p", "4159", "--l", "3"],
             ["--p", "5", "--n", "2", "--all-l-up-to", "7"]]
    want = []
    for argv in argvs:
        assert cli_main(["criterion", *argv, "--d", "1"]) == 0
        want.append(capsys.readouterr().out)
    tables = []

    class Spy(P1Table):
        def __init__(self, pp):
            super().__init__(pp)
            tables.append(self)

    def no_presentation(table):
        raise AssertionError("criterion built a presentation")

    monkeypatch.setattr(hecke_symbols, "P1Table", Spy)
    monkeypatch.setattr(rel_homology, "H1Presentation", no_presentation)
    # 4201 is decided by the walk certificate, 4159 by searching the pivot
    # edges and 25 by labelling the components
    for argv, out in zip(argvs, want):
        assert cli_main(["criterion", *argv, "--d", "1"]) == 0
        assert capsys.readouterr().out == out
    assert [t.pp.modulus for t in tables] == [4201, 4159] + [25] * 4
    for table in tables:
        assert "sigma_perm" not in vars(table) and "tau_perm" not in vars(table)


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
    assert rep.to_json()["warning"] == "l equals p; the test is normally run with l != p"
    assert "warning" not in check_kamienny_condition3(11, 1, 1, 3).to_json()


def test_criterion_validation():
    with pytest.raises(ValueError):
        check_kamienny_condition3(11, 1, 1, 4)
    with pytest.raises(ValueError):
        check_kamienny_condition3(11, 1, 0, 3)
