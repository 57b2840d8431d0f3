"""Acceptance suite: the nine exit criteria, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value is exact (integer or rational); the only
tolerances are the wall-clock budgets.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from windsym.bounds import constants_consistency, cor18_bound
from windsym.hecke_symbols import sigma_r_set, winding_image
from windsym.qexp_hecke import (
    CASE_COPRIME,
    CASE_DIVIDES,
    Quad,
    build_Up_matrix,
    charpoly,
    jordan_structure,
    kernel_vector_check,
    make_qexp,
    verify_coefficient_identity,
    verify_relations,
)
from windsym.rel_homology import (
    build_presentation,
    invariant_generators,
    reduce_vector,
    smith_invariants,
)
from windsym.residue_p1 import P1Table, PrimePower
from windsym.winding_paths import (
    CHAIN_A,
    IntervalPair,
    find_inverse_pair,
    interval_bound,
    lemma53_requirement,
    walk_chain_A,
    walk_chain_B,
    walk_chain_B_prime,
)
from oracles import (
    Cusp,
    PolyQ,
    apply_mat_to_cusp,
    bruteforce_cusp_equivalent,
    cusp_count_x0,
    cusp_equivalent,
    cusp_representatives,
    eta_product_level11,
    gamma0_matrices,
    genus_x0,
    hecke_cusp_action,
    sigma1,
)

F = Fraction


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded budget: {elapsed:.2f}s >= {budget_seconds}s"
    )
    print(f"[PASS] criterion {number} ({elapsed:.2f}s): {description}")


def _prime_power(value: int) -> PrimePower:
    p = 2
    while value % p:
        p += 1
    n = 0
    v = value
    while v % p == 0:
        v //= p
        n += 1
    assert v == 1, f"{value} is not a prime power"
    return PrimePower(p, n)


def test_criterion_1_homology_dimension_oracle():
    with criterion(1, "quotient_dim = 2g + c - 1 on eight prime powers", 10.0):
        for value in (2, 3, 11, 13, 25, 27, 32, 49):
            pp = _prime_power(value)
            pres = build_presentation(P1Table(pp))
            expected = 2 * genus_x0(value) + cusp_count_x0(value) - 1
            assert pres.quotient_dim == expected, (value, pres.quotient_dim, expected)


def test_criterion_2_torsion_freeness():
    with criterion(2, "Smith invariants all equal 1 at 11, 13, 25, 27", 30.0):
        for value in (11, 13, 25, 27):
            pp = _prime_power(value)
            inv = smith_invariants(invariant_generators(P1Table(pp)))
            assert inv, value
            assert all(v == 1 for v in inv), (value, inv)


def test_criterion_3_independence_in_guaranteed_regime():
    with criterion(3, "rank of {T_1, T_2}{0,oo} is 2 at level 4201 over F_3, F_5, F_7, Q", 60.0):
        pp = PrimePower(4201, 1)
        assert pp.modulus > 65 * (2 * 1) ** 6  # 4201 > 4160: guaranteed regime
        table = P1Table(pp)
        from windsym.arith import rank

        pres = build_presentation(table)
        rows = [reduce_vector(winding_image(i, table), pres) for i in (1, 2)]
        for char in (3, 5, 7, 0):  # F_3, F_5, F_7, Q
            assert rank(rows, char) == 2, char


def test_criterion_4_path_bounds_grid():
    with criterion(4, "chain interval bounds on {101, 343, 1024, 2048} x r in 1..6", 60.0):
        for value in (101, 343, 1024, 2048):
            pp = _prime_power(value)
            table = P1Table(pp)
            for r in range(1, 7):
                d_param = r
                sig = sigma_r_set(r, table)
                chain_a = walk_chain_A(r, table, sig)
                if r % pp.p == 0:
                    chain_b = walk_chain_B_prime(r, table, sig)
                else:
                    chain_b = walk_chain_B(r, table, sig)
                for chain in (chain_a, chain_b):
                    # the walks themselves avoid Sigma_r
                    assert all(idx not in sig.members for idx in chain.visited)
                    bound = interval_bound(chain.label, pp, d_param)
                    if bound <= 0:
                        continue  # out of regime: nothing asserted
                    if chain.label != CHAIN_A and r == 1:
                        # the leading-term isolation degenerates at r = 1
                        # (needs w < t), so the second chain's bound is not
                        # asserted there; the walk itself shows why: it
                        # stops on (0:1) immediately.
                        assert chain.interval_length >= 1
                        continue
                    assert chain.interval_length >= bound, (
                        value, r, chain.label, chain.interval_length, str(bound)
                    )


def test_criterion_5_inverse_pair_harness():
    with criterion(5, "inverse pairs found for all 91x91 interval pairs mod 101", 120.0):
        pp = PrimePower(101, 1)
        req = lemma53_requirement(pp)
        assert 91 * 91 >= req.min_product  # 8281 >= 8121
        counterexamples = []
        for a_start in range(1, 101 - 91 + 1):
            for b_start in range(1, 101 - 91 + 1):
                pair = IntervalPair(a_start, 91, b_start, 91)
                got = find_inverse_pair(pair, pp)
                if got is None:
                    counterexamples.append(
                        {"p^n": 101, "A": (a_start, 91), "B": (b_start, 91)}
                    )
        assert not counterexamples, f"witness records: {counterexamples}"


def test_criterion_6_operator_relations():
    with criterion(6, "commutation relations on 50 seeded series of order 200; a_1(T_n f) = a_n", 10.0):
        report = verify_relations(order=200, trials=50, seed=2024)
        failed = [c for c in report.checks if not c.passed]
        assert report.all_passed, failed
        assert report.witness_found
        ident = verify_coefficient_identity(nmax=30, order=200, trials=5, seed=2024)
        assert ident.passed, ident.failure


def test_criterion_7_oldclass_structure():
    with criterion(7, "char poly identity, eta-product kernel vectors, Jordan censuses", 10.0):
        # symbolic characteristic polynomial, k = 1..4
        y = PolyQ.gen()
        for k in range(1, 5):
            got = charpoly(build_Up_matrix(CASE_COPRIME, y, 1, 2, k, p=3))
            expected = [PolyQ(3), -y, PolyQ(1)]
            for _ in range(k - 1):
                expected = [PolyQ(0)] + expected
            assert [PolyQ(0) + c for c in got] == expected, k
        # kernel vectors on the level-11 eta product, p in {2, 3}, order 100
        f = make_qexp(eta_product_level11(330))
        assert f.coeff(2) == -2
        for p in (2, 3):
            rep = kernel_vector_check(f, p, order=100)
            assert rep.passed, (p, rep)
        # Jordan block censuses for the four cases
        nilp = jordan_structure(build_Up_matrix(CASE_DIVIDES, F(0), 0, 2, 3))
        assert nilp.blocks == [(F(0), (4,))]  # a_p = 0, p | M: single block
        m1 = jordan_structure(build_Up_matrix(CASE_DIVIDES, F(1), 0, 2, 3))
        assert m1.sizes_for(F(1)) == (1,) and m1.sizes_for(F(0)) == (3,)
        m3 = jordan_structure(build_Up_matrix(CASE_COPRIME, F(1), 1, 2, 3, p=2))
        assert m3.sizes_for(Quad(-7, F(1, 2), F(1, 2))) == (1,)
        assert m3.sizes_for(Quad(-7, F(1, 2), F(-1, 2))) == (1,)
        assert m3.sizes_for(F(0)) == (2,)
        m4 = jordan_structure(build_Up_matrix(CASE_COPRIME, F(4), 1, 3, 3, p=2))
        assert m4.sizes_for(F(2)) == (2,) and m4.sizes_for(F(0)) == (2,)


def test_criterion_8_bounds_and_constants():
    with criterion(8, "per-prime bounds for d in 1..5 and exact constants inequalities", 1.0):
        hand = {
            1: (8320, 16640, 188082),
            2: (2129920, 6389760, 48148992),
            3: (78848640, 376047360, 1782453114),
            4: (1363148800, 10632560640, 30815354880),
            5: (15730000000, 203060000000, 355592531250),
        }
        for d, (other, p3, p2) in hand.items():
            assert cor18_bound(5, d) == other
            assert cor18_bound(3, d) == p3
            assert cor18_bound(2, d) == p2
        rep = constants_consistency()
        assert rep.all_passed
        lam2 = rep.lam * rep.lam
        assert F(64) / lam2 <= 65 and F(128) / lam2 <= 129


def test_criterion_9_cusp_action():
    with criterion(9, "T_r sends each of 0, oo to sigma_1(r) copies of its class", 30.0):
        zero, inf = Cusp.of(0, 1), Cusp.of(1, 0)
        for n_level in (11, 25, 27):
            # certify the equivalence test against explicit matrix search
            mats = gamma0_matrices(n_level, amax=6, gmax=5, tmax=5)
            reps = cusp_representatives(n_level)
            for x in reps:
                for mat in mats[:: max(1, len(mats) // 25)]:
                    assert cusp_equivalent(x, apply_mat_to_cusp(mat, x), n_level)
            for i, x in enumerate(reps):
                for y in reps[i + 1 :]:
                    assert not cusp_equivalent(x, y, n_level)
                    assert not bruteforce_cusp_equivalent(x, y, mats)
            for r in (2, 3, 7):
                if n_level % r == 0:
                    continue
                for cusp in (zero, inf):
                    classes = hecke_cusp_action(n_level, r, cusp)
                    assert len(classes) == 1, (n_level, r, cusp, classes)
                    rep, count = classes[0]
                    assert cusp_equivalent(rep, cusp, n_level)
                    assert count == sigma1(r)
